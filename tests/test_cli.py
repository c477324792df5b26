"""Integration tests for the scenario runner and certificate verifier."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from polyrec import cli
from polyrec.errors import InputError

GOLDEN = Path(__file__).parent / "golden" / "bundled_reports.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "polyrec.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
    )


def strip_wall_time(doc):
    for report in doc["reports"]:
        report.pop("wall_time_ms", None)
    return doc


def canonical(doc):
    return json.dumps(strip_wall_time(doc), indent=2, sort_keys=True) + "\n"


class TestRunBundled:
    def test_all_hold(self, tmp_path):
        out = tmp_path / "reports.json"
        proc = run_cli("run", "--bundled", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert all(r["verdict"] == "holds" for r in doc["reports"])
        ids = [r["id"] for r in doc["reports"]]
        assert ids == sorted(ids)

    def test_jobs_determinism(self, tmp_path):
        out1, out8 = tmp_path / "r1.json", tmp_path / "r8.json"
        p1 = run_cli("run", "--bundled", "--jobs", "1", "--json", str(out1))
        p8 = run_cli("run", "--bundled", "--jobs", "8", "--json", str(out8))
        assert p1.returncode == 0 and p8.returncode == 0
        a = canonical(json.loads(out1.read_text()))
        b = canonical(json.loads(out8.read_text()))
        assert a == b

    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "reports.json"
        run_cli("run", "--bundled", "--json", str(out))
        got = canonical(json.loads(out.read_text()))
        assert got == GOLDEN.read_text()

    def test_list_scenarios(self):
        proc = run_cli("list-scenarios")
        assert proc.returncode == 0
        assert "khintchine-cyclic4-square" in proc.stdout
        assert "[spectral-limit]" in proc.stdout

    def test_schema_command(self):
        proc = run_cli("schema", "khintchine")
        assert proc.returncode == 0
        schema = json.loads(proc.stdout)
        assert schema["schema_version"] == 1 and "system" in schema["properties"]
        bad = run_cli("schema", "no-such-kind")
        assert bad.returncode == 2


class TestExitCodes:
    def test_malformed_weights_is_input_error(self, tmp_path):
        doc = {
            "schema_version": 1,
            "id": "bad-weights",
            "kind": "khintchine",
            "payload": {
                "system": {
                    "points": ["a", "b"],
                    "weights": {"a": "1/2", "b": "1/3"},
                    "maps": [["b", "a"]],
                },
                "A": ["a"],
                "fs": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}],
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "weights sum" in proc.stderr and "bad.json" in proc.stderr

    def test_schema_violation_is_input_error(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"schema_version": 1, "id": "x", "kind": "nope", "payload": {}}))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "invalid.json" in proc.stderr

    def test_broken_json_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2

    def test_failing_verdict_is_exit_one(self, tmp_path):
        # sparse residue set: multiples of 4 miss FS(1,1) on a small window
        doc = {
            "schema_version": 1,
            "id": "sparse-window",
            "kind": "ip-star",
            "payload": {
                "system": {
                    "points": ["0", "1", "2", "3"],
                    "weights": {p: "1/4" for p in "0123"},
                    "maps": [["1", "2", "3", "0"]],
                },
                "A": ["0"],
                "fs": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}],
                "epsilon": "0",
                "k": 2,
                "W": 2,
            },
        }
        path = tmp_path / "fails.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 1
        assert "FAILS" in proc.stdout

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "id": "dup",
            "kind": "delta-check",
            "payload": {"c_table_max": 3},
        }
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        proc = run_cli("run", str(tmp_path))
        assert proc.returncode == 2 and "duplicate" in proc.stderr

    def test_directory_of_scenarios(self, tmp_path):
        for i in range(3):
            doc = {
                "schema_version": 1,
                "id": f"table-{i}",
                "kind": "delta-check",
                "payload": {"c_table_max": 4 + i},
            }
            (tmp_path / f"s{i}.json").write_text(json.dumps(doc))
        proc = run_cli("run", str(tmp_path))
        assert proc.returncode == 0
        assert proc.stdout.count("HOLDS") == 3


    def test_list_valued_colors_is_input_error(self, tmp_path):
        doc = {
            "schema_version": 1,
            "id": "list-colors",
            "kind": "hindman-search",
            "payload": {"coloring": {"W": 4, "colors": [[0], [1], [0], [1]]}, "k": 2},
        }
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_former_cap_refusals_now_decide(self):
        # these kinds used to sweep and exited 2 under a 10-point budget
        bundled = Path(cli.__file__).parent / "scenarios"
        names = [
            "khintchine-product6-pair.json",
            "key-lemma-parabola.json",
            "spectral-limit-bilinear.json",
        ]
        proc = run_cli("run", "--cap", "10", *(str(bundled / n) for n in names))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("HOLDS") == 3


class TestSchemaMessages:
    INVALID = [
        {"schema_version": 2, "id": "x", "kind": "delta-check", "payload": {}},
        {"schema_version": 1, "id": "", "kind": "delta-check", "payload": {}},
        {"schema_version": 1, "id": "x", "kind": "nope", "payload": {}},
        {"schema_version": 1, "id": "x", "kind": "delta-check"},
        {"schema_version": 1, "id": "x", "kind": "delta-check", "payload": {"c_table_max": 13}},
        {"schema_version": 1, "id": "x", "kind": "key-lemma", "payload": {"v": []}},
        {
            "schema_version": 1,
            "id": "x",
            "kind": "spectral-limit",
            "payload": {"unitary": {"phases": [["1/2", 3]]}, "fs": [{"nvars": 0, "terms": []}]},
        },
        {
            "schema_version": 1,
            "id": "x",
            "kind": "hindman-search",
            "payload": {"coloring": {"W": 2, "colors": [0, {"c": 1}]}, "k": 1},
        },
    ]

    @staticmethod
    def plain_message(source, doc):
        try:
            jsonschema.validate(doc, cli.SCENARIO_SCHEMA)
            jsonschema.validate(doc["payload"], cli.PAYLOAD_SCHEMAS[doc["kind"]])
        except jsonschema.ValidationError as exc:
            where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            return f"{source}: at {where}: {exc.message}"
        raise AssertionError("document is valid")

    def test_schemas_match_their_meta_schema(self):
        schemas = [cli.SCENARIO_SCHEMA, cli.CERTIFICATE_SCHEMA, *cli.PAYLOAD_SCHEMAS.values()]
        for schema in schemas:
            jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("index", range(len(INVALID)))
    def test_same_message_as_plain_validate(self, tmp_path, index):
        doc = self.INVALID[index]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as err:
            cli.load_scenarios([path], False)
        assert str(err.value) == self.plain_message(str(path), doc)


class TestCertificates:
    @pytest.fixture()
    def cert_dir(self, tmp_path):
        out = tmp_path / "certs"
        proc = run_cli("run", "--bundled", "--emit-certificates", str(out))
        assert proc.returncode == 0
        return out

    def test_emitted_and_verifiable(self, cert_dir):
        files = sorted(p.name for p in cert_dir.glob("*.cert.json"))
        assert "key-lemma-parabola.cert.json" in files
        assert "stable-rank-parabola.cert.json" in files
        for path in cert_dir.glob("*.cert.json"):
            proc = run_cli("verify-certificate", str(path))
            assert proc.returncode == 0, (path.name, proc.stderr)

    def test_tampered_lattice_fails(self, cert_dir, tmp_path):
        doc = json.loads((cert_dir / "key-lemma-parabola.cert.json").read_text())
        doc["witness"]["basis"] = [[1]]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("verify-certificate", str(bad))
        assert proc.returncode == 1

    def test_truncated_file_is_input_error(self, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"certificate_kind": "key-le')
        proc = run_cli("verify-certificate", str(bad))
        assert proc.returncode == 2

    def test_emitted_certificates_match_the_schema(self, cert_dir):
        paths = sorted(cert_dir.glob("*.cert.json"))
        kinds = {json.loads(p.read_text())["certificate_kind"] for p in paths}
        assert kinds == set(cli.CERTIFICATE_FIELDS)
        for path in paths:
            jsonschema.validate(json.loads(path.read_text()), cli.CERTIFICATE_SCHEMA)

    @staticmethod
    def verify_in_process(tmp_path, capsys, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-certificate", str(path)])
        return code, capsys.readouterr().err

    def test_schema_violations_are_input_errors(self, cert_dir, tmp_path, capsys):
        spectral = json.loads((cert_dir / "spectral-limit-bilinear.cert.json").read_text())
        rank = json.loads((cert_dir / "stable-rank-parabola.cert.json").read_text())
        cases = [
            ({**spectral, "fs": []}, "at fs: [] should be non-empty"),
            ({**rank, "v": []}, "at v: [] should be non-empty"),
            ([1, 2], "at <root>: [1, 2] is not of type 'object'"),
            ({"certificate_kind": "nope"}, "at certificate_kind: 'nope' is not one of"),
            ({"v": []}, "at <root>: 'certificate_kind' is a required property"),
            ({**rank, "saturation_window": "3"}, "at saturation_window: '3' is not of type"),
            ({k: v for k, v in spectral.items() if k != "lattice"}, "'lattice' is a required"),
        ]
        for doc, message in cases:
            code, err = self.verify_in_process(tmp_path, capsys, doc)
            assert code == 2 and message in err, (doc, err)

    def test_rank_window_over_cap_is_refused(self, cert_dir, tmp_path, capsys):
        rank = json.loads((cert_dir / "stable-rank-parabola.cert.json").read_text())
        nvars = rank["v"][0]["nvars"]
        window = next(w for w in range(1, 10**6) if (2 * w + 1) ** nvars > 10**6)
        code, err = self.verify_in_process(
            tmp_path, capsys, {**rank, "saturation_window": window}
        )
        assert code == 2 and "cap is 1000000" in err


class TestSeededRandomScenario:
    def test_seed_changes_details_not_verdict(self, tmp_path):
        doc = {
            "schema_version": 1,
            "id": "seeded",
            "kind": "delta-check",
            "payload": {"random": {"count": 10, "nvars": 2, "max_degree": 3}},
        }
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(doc))
        for seed in ("0", "42"):
            out = tmp_path / f"rep{seed}.json"
            proc = run_cli("run", str(path), "--seed", seed, "--json", str(out))
            assert proc.returncode == 0
            rep = json.loads(out.read_text())["reports"][0]
            assert rep["details"]["random"]["seed"] == int(seed)
            assert rep["details"]["random"]["failures"] == 0
