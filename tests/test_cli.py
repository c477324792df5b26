"""Integration tests for the scenario runner and certificate verifier."""

import copy
import functools
import itertools
import json
import math
import re
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import child_env, run_in_process
from polyrec import cli
from polyrec import intpoly as ip
from polyrec import lattice as lat
from polyrec import spectral as sp
from polyrec.errors import InputError, SweepCapExceeded
from polyrec.numutil import lcm_upto

GOLDEN = Path(__file__).parent / "golden" / "bundled_reports.json"


def run_cli(*args, cwd=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "polyrec.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=child_env(),
    )


@pytest.fixture
def harness(monkeypatch):
    """The namespace of tools/same_output.py, which imports tools/bench_pairs.py."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    monkeypatch.syspath_prepend(str(tools))
    return runpy.run_path(str(tools / "same_output.py"))


def scenario_file(path, kind, payload):
    doc = {"schema_version": 1, "id": path.stem, "kind": kind, "payload": payload}
    path.write_text(json.dumps(doc))
    return path


def dense_poly(nvars, degree):
    terms = [
        {"idx": list(idx), "coef": str(sum(idx) % 5 - 2 or 3)}
        for idx in itertools.product(range(degree + 1), repeat=nvars)
        if sum(idx) <= degree
    ]
    return {"nvars": nvars, "terms": terms}


R_EPSILON = {
    "system": {
        "points": ["0", "1", "2", "3"],
        "weights": {p: "1/4" for p in "0123"},
        "maps": [["1", "2", "3", "0"]],
    },
    "A": ["0"],
    "fs": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}, {"idx": [2], "coef": "2"}]}],
    "epsilon": "1/100",
}


def loads_at_depth(depth):
    try:
        json.loads("[" * depth + "]" * depth)
    except RecursionError:
        return False
    return True


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


def indented(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


class TestWriter:
    """Reports and certificates are one line of compact, key-sorted JSON;
    schemas are indented."""

    def test_reports_and_certificates(self, tmp_path):
        report, certs = tmp_path / "reports.json", tmp_path / "certs"
        code, _out, err = run_in_process(
            "run", "--bundled", "--json", str(report), "--emit-certificates", str(certs)
        )
        assert code == 0, err
        written = [report, *sorted(certs.glob("*.cert.json"))]
        assert len(written) == 6  # a certificate per key-lemma, stable-rank and spectral-limit
        for path in written:
            text = path.read_text()
            compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
            assert text == compact + "\n", path.name
            assert text.count("\n") == 1, path.name

    def test_indented_certificates_still_verify(self, tmp_path):
        # certificates written before reports became one line were indented,
        # and before they became compact had a space after each separator
        certs = tmp_path / "certs"
        assert run_in_process("run", "--bundled", "--emit-certificates", str(certs))[0] == 0
        written = sorted(certs.glob("*.cert.json"))
        assert len(written) == 5
        for path in written:
            cert = json.loads(path.read_text())
            for text in (indented(cert), json.dumps(cert, sort_keys=True)):
                path.write_text(text + "\n")
                code, out, err = run_in_process("verify-certificate", str(path))
                assert code == 0 and out.startswith("certificate verified"), (path.name, err)

    def test_reports_and_text_encode_through_the_module_json(self, monkeypatch, tmp_path):
        # looked up at call time, so a stand-in for cli.json sees every dump
        calls = []

        class Recorder:
            def __getattr__(self, name):
                return getattr(json, name)

            @staticmethod
            def dumps(obj, **kwargs):
                calls.append(kwargs)
                return json.dumps(obj, **kwargs)

        monkeypatch.setattr(cli, "json", Recorder())
        cli._write(tmp_path / "r.json", {"b": [1, 2], "a": {"x": "y"}})
        report = {"id": "i", "kind": "k", "verdict": "holds", "details": {"d": {"b": 1, "a": [2]}}}
        text = cli._format_text(report)
        assert (tmp_path / "r.json").read_text() == '{"a":{"x":"y"},"b":[1,2]}\n'
        assert text == '== i [k] HOLDS\n   d: {"a":[2],"b":1}'
        assert calls == [{"sort_keys": True, "separators": (",", ":")}] * 2

    def test_schemas(self):
        for kind, schema in cli.PAYLOAD_SCHEMAS.items():
            assert run_in_process("schema", kind)[1] == indented(schema) + "\n", kind


class TestExitCodes:
    def test_empty_delta_check_is_input_error(self, tmp_path):
        # every delta-check field is optional, and with none it checked
        # nothing and held
        path = scenario_file(tmp_path / "empty.json", "delta-check", {})
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path}: at <root>: {{}} should be non-empty\n"

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

    def test_deep_nesting_is_input_error(self, tmp_path):
        # json.loads gives up on 100 000 nested arrays with RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        for command in ("run", "verify-certificate"):
            proc = run_cli(command, str(path))
            assert proc.returncode == 2, command
            assert proc.stderr.startswith(f"error: {path}: ") and "Traceback" not in proc.stderr

    def test_deep_valid_json_is_input_error(self, tmp_path):
        # arrays up to the deepest json.loads accepts at this stack depth:
        # the commands read them a few frames deeper, and the schema check
        # and the wording of its error recurse further still, so some of
        # these depths fail while reading and some while checking
        deepest = next(d for d in range(sys.getrecursionlimit(), 0, -1) if loads_at_depth(d))
        scenario = tmp_path / "scenario.json"
        certificate = tmp_path / "certificate.json"
        for depth in range(deepest, deepest - 40, -1):
            nested = "[" * depth + "]" * depth
            scenario.write_text(
                f'{{"schema_version": 1, "id": "deep", "kind": "r-epsilon", "payload": {nested}}}'
            )
            certificate.write_text(nested)
            for command, path in (("run", scenario), ("verify-certificate", certificate)):
                code, _out, err = run_in_process(command, str(path))
                assert code == 2 and err.startswith(f"error: {path}: "), (depth, command)

    @pytest.mark.parametrize(
        "args, named",
        [
            (["run", "{tmp}/latin1.json"], "{tmp}/latin1.json"),
            (["verify-certificate", "{tmp}/latin1.json"], "{tmp}/latin1.json"),
            (["run", "{tmp}/dir"], "{tmp}/dir/sub.json"),
            (["verify-certificate", "{tmp}/dir/sub.json"], "{tmp}/dir/sub.json"),
            (["run", "--bundled", "--emit-certificates", "{tmp}/file"], "{tmp}/file"),
            (["run", "--bundled", "--json", "{tmp}/missing/out.json"], "{tmp}/missing/out.json"),
        ],
    )
    def test_unreadable_input_and_unwritable_output_are_input_errors(self, tmp_path, args, named):
        # a file that is not UTF-8, a directory named like a scenario, an
        # output directory that is a file, and a report in a missing directory
        (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "dir" / "sub.json").mkdir(parents=True)
        (tmp_path / "file").write_text("x")
        proc = run_cli(*(a.format(tmp=tmp_path) for a in args), timeout=30)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith(f"error: {named.format(tmp=tmp_path)}: "), proc.stderr
        if "--emit-certificates" in args or "--json" in args:
            # an output is refused before any scenario runs
            assert proc.stdout == ""

    def test_unknown_point_does_not_depend_on_the_hash_seed(self, tmp_path):
        path = scenario_file(tmp_path / "unknown.json", "r-epsilon", {**R_EPSILON, "A": list("abcde")})
        errors = set()
        for seed in ("2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "polyrec.cli", "run", str(path)],
                capture_output=True,
                text=True,
                timeout=60,
                env={**child_env(), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 2
            errors.add(proc.stderr)
        assert len(errors) == 1 and "point 'a' is not part of the system" in errors.pop()

    def test_weight_of_an_unknown_point_is_input_error(self, tmp_path):
        system = {
            "points": ["a", "b"],
            "weights": {"a": "1/2", "b": "1/2", "zz": "5", "yy": "0"},
            "maps": [["b", "a"]],
        }
        payload = {**R_EPSILON, "system": system, "A": ["a"]}
        path = scenario_file(tmp_path / "stray.json", "r-epsilon", payload)
        code, out, err = run_in_process("run", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: weight given for unknown point 'yy'\n"

    def test_input_error_leaves_no_empty_report(self, tmp_path):
        # --json is checked before the scenarios run; a report file that this
        # check created is removed when a runner then stops on an input error,
        # and a report that was there before is left as it was
        payload = {
            "v": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}],
            "V": {"ambient": 3, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "hypothesis": {"ambient": 1, "basis": [[1]]},
        }
        path = scenario_file(tmp_path / "kl.json", "key-lemma", payload)
        out = tmp_path / "out.json"
        for before in (None, "an older report\n"):
            if before is not None:
                out.write_text(before)
            proc = run_cli("run", str(path), "--json", str(out), timeout=30)
            assert proc.returncode == 2, proc.stderr
            assert "target subgroup lives in Z^3 but the tuple has 1 components" in proc.stderr
            if before is None:
                assert not out.exists()
            else:
                assert out.read_text() == before

    def test_target_with_large_prime_index(self, tmp_path):
        # V = (1000000007 * 1000000009) Z: the least period of z modulo V is
        # its index, found without factoring it
        index = 1000000007 * 1000000009
        payload = {
            "v": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}],
            "V": {"ambient": 1, "basis": [[index]]},
            "hypothesis": {"ambient": 1, "basis": [[1]]},
        }
        path = scenario_file(tmp_path / "kl.json", "key-lemma", payload)
        proc = run_cli("run", str(path), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert f"witness_index: {index}" in proc.stdout

    def test_lattice_with_huge_ambient_and_no_columns(self, tmp_path):
        # the Hermite form stops at the last generator, not at row 10^12
        empty = {"ambient": 10**12, "basis": []}
        z = [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}]
        payload = {"v": z, "V": empty, "hypothesis": {"ambient": 1, "basis": [[1]]}}
        path = scenario_file(tmp_path / "kl.json", "key-lemma", payload)
        proc = run_cli("run", str(path), timeout=10)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert "target subgroup lives in Z^1000000000000" in proc.stderr
        cert = {
            "schema_version": 1,
            "certificate_kind": "spectral-limit",
            "unitary": {"phases": [["1/2"]]},
            "fs": z,
            "lattice": empty,
        }
        path = tmp_path / "sl.cert.json"
        path.write_text(json.dumps(cert))
        proc = run_cli("verify-certificate", str(path), timeout=10)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        assert "so its index is infinite" in proc.stderr

    def test_ip_star_huge_windows_decide(self, tmp_path):
        # the window is searched mod L = 2, so a huge W or k decides at once:
        # no set of max(W * k, 2 L) values is built, and no tuple of 1..W
        # is visited past L
        for key, horizon in (("W", 2 * 10**9), ("k", 8 * 10**9)):
            payload = {**R_EPSILON, "k": 2, "W": 8, key: 10**9}
            path = scenario_file(tmp_path / f"big-{key}.json", "ip-star", payload)
            proc, cpu = TestSpectralCap.child_cpu("run", str(path))
            assert proc.returncode == 0 and proc.stderr == "", key
            assert proc.stdout.startswith(f"== big-{key} [ip-star] HOLDS\n")
            assert f"   horizon: {horizon}\n" in proc.stdout
            assert '   ip_star: {"holds":true,"witness":null}\n' in proc.stdout
            assert cpu < 2.0, (key, cpu)

    def test_ip_star_grid_refusal_comes_before_the_window(self, tmp_path):
        # the window charges only the sums its search forms, after the
        # sweep; the 2 000-cycle's grid and measures are over the cap first
        payload = {**ncycle_payload(2000, 1000), "k": 2, "W": 707}
        path = scenario_file(tmp_path / "c2000.json", "ip-star", payload)
        code, out, err = run_in_process("run", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: period grid needs 2000 points and its return measures "
                       "999000 steps so far, cap is 1000000\n")

    def test_ip_star_window_past_the_old_tuple_charge_decides(self, tmp_path):
        # all four residues of a 4-cycle hold: W = 707 forms 4 sums, where
        # C(708, 2) * 2^2 = 1 001 112 was once charged up front
        payload = {**ncycle_payload(4, 4), "k": 2, "W": 707}
        path = scenario_file(tmp_path / "w707.json", "ip-star", payload)
        code, out, err = run_in_process("run", str(path))
        assert code == 0 and err == "" and '   ip_star: {"holds":true,"witness":null}\n' in out

    @pytest.mark.parametrize("kind", ["ip-star", "hindman-search"])
    def test_windows_past_the_old_constants_decide(self, tmp_path, kind):
        # W = 13 and k = 5 were refused while the window had a constant bound
        # of 12 and the tuple length one of 4
        if kind == "ip-star":
            payloads = [{**R_EPSILON, "k": 2, "W": 13}, {**R_EPSILON, "k": 5, "W": 3}]
        else:
            payloads = [{"coloring": {"W": w, "colors": [n % 3 for n in range(w)]}, "k": k}
                        for w, k in ((13, 2), (20, 5))]
        for i, payload in enumerate(payloads):
            path = scenario_file(tmp_path / f"{kind}-{i}.json", kind, payload)
            code, out, err = run_in_process("run", str(path))
            assert code in (0, 1) and out.startswith(f"== {kind}-{i} [{kind}]"), err

    def test_spectral_limit_mixed_variable_counts_is_input_error(self, tmp_path):
        fs = [
            {"nvars": 2, "terms": [{"idx": [1, 1], "coef": "1"}]},
            {"nvars": 1, "terms": [{"idx": [2], "coef": "1"}]},
        ]
        payload = {"unitary": {"phases": [["0", "1/2"], ["1/2", "1/3"]]}, "fs": fs}
        path = scenario_file(tmp_path / "mixed.json", "spectral-limit", payload)
        proc = run_cli("run", str(path), timeout=30)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "mixed variable counts 2 and 1" in proc.stderr

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

    def test_colors_match_by_json_text(self, tmp_path):
        # true and 1 compare equal in Python; as JSON colors they differ
        doc = {
            "schema_version": 1,
            "id": "mixed-colors",
            "kind": "hindman-search",
            "payload": {"coloring": {"W": 3, "colors": [True, 1, 1]}, "k": 2},
        }
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), "--json", str(tmp_path / "out.json"))
        assert proc.returncode == 0, proc.stderr
        (report,) = json.loads((tmp_path / "out.json").read_text())["reports"]
        assert report["details"] == {"witness": None, "verified_by_exhaustion": True}

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

    def test_stable_rank_window_beyond_cap_decides(self, tmp_path):
        # (z, 3 C(z, 2)) has degree 2: the search visits at most the 5 points
        # of radius 2, whatever the window
        v = [
            {"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]},
            {"nvars": 1, "terms": [{"idx": [2], "coef": "3"}]},
        ]
        path = scenario_file(tmp_path / "sr.json", "stable-rank", {"v": v, "window": 500000})
        code, out, err = run_in_process("run", str(path), "--jobs", "1")
        assert code == 0 and "HOLDS" in out and "r: 2" in out, err
        assert run_in_process("run", str(path), "--cap", "5", "--jobs", "1")[0] == 0
        code, _out, err = run_in_process("run", str(path), "--cap", "4", "--jobs", "1")
        assert code == 2 and "window sweep needs 5 points, cap is 4" in err

    def test_zero_denominator_is_input_error(self, tmp_path):
        path = scenario_file(tmp_path / "eps.json", "r-epsilon", {**R_EPSILON, "epsilon": "1/0"})
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "at epsilon: '1/0' does not match" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_rational_pattern(self):
        pattern = re.compile(cli.RATIONAL["pattern"])
        for good in ("0", "-3", "1/4", "-7/100", "1/05", "0/1"):
            assert pattern.match(good), good
        for bad in ("1/0", "1/00", "-2/000", "1/", "/2", "1.5", "1/-2"):
            assert not pattern.match(bad), bad


class TestDigitLimit:
    """Integers past CPython's int/str digit limit (4 300 by default) are
    input errors that name their file, read or printed; the limit stays."""

    LONG = "7" * 5001
    LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"

    def check(self, path, *argv):
        code, out, err = run_in_process(*argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {self.LIMIT}"), err

    def test_read(self, tmp_path):
        poly = {"nvars": 1, "terms": [{"idx": [1], "coef": self.LONG}]}
        self.check(scenario_file(tmp_path / "coef.json", "delta-check", {"poly": poly}), "run")
        payload = {**R_EPSILON, "epsilon": f"1/{self.LONG}"}
        self.check(scenario_file(tmp_path / "eps.json", "r-epsilon", payload), "run")
        cert = {"schema_version": 1, "certificate_kind": "key-lemma", "v": [poly],
                "V": {"ambient": 1, "basis": [[1]]}, "witness": {"ambient": 1, "basis": [[1]]}}
        path = tmp_path / "kl.cert.json"
        path.write_text(json.dumps(cert))
        self.check(path, "verify-certificate")

    @pytest.mark.parametrize("kind", ["khintchine", "r-epsilon"])
    def test_print(self, tmp_path, kind):
        # each weight fits the limit, but mu(A) = 1/(2 d1) + 1/(2 d2) has a
        # denominator of about 5 000 digits
        d1, d2 = 10**2500 + 1, 10**2500 + 3
        weights = {"0": f"1/{2 * d1}", "1": f"{d1 - 1}/{2 * d1}",
                   "2": f"1/{2 * d2}", "3": f"{d2 - 1}/{2 * d2}"}
        system = {"points": list("0123"), "weights": weights, "maps": [list("0123")]}
        payload = {"system": system, "A": ["0", "2"], "fs": R_EPSILON["fs"]}
        if kind == "r-epsilon":
            payload["epsilon"] = "0"
        self.check(scenario_file(tmp_path / "mu.json", kind, payload), "run")


class TestDeltaCheckCap:
    def test_dense_four_variable_degree_eight_is_refused(self, tmp_path):
        payload = {"poly": dense_poly(4, 8), "recursion_max_s": 4}
        path = scenario_file(tmp_path / "dense4.json", "delta-check", payload)
        start = time.perf_counter()
        code, out, err = run_in_process("run", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "delta-check expands 1746484 rows, cap is 1000000" in err

    def test_dense_one_variable_degree_eight_decides(self, tmp_path):
        payload = {"poly": dense_poly(1, 8), "recursion_max_s": 4}
        path = scenario_file(tmp_path / "dense1.json", "delta-check", payload)
        code, out, err = run_in_process("run", str(path))
        assert code == 0 and "HOLDS" in out, err
        # 2 * (42 + 155 + 460): delta and delta_recursive once each per s,
        # the identities reading the recursion's delta(f, 2)
        code, out, err = run_in_process("run", str(path), "--cap", "1313")
        assert code == 2 and "delta-check expands 1314 rows, cap is 1313" in err
        assert run_in_process("run", str(path), "--cap", "1314")[0] == 0

    def test_random_suite_is_not_counted(self, tmp_path):
        payload = {"random": {"count": 3, "nvars": 3, "max_degree": 4}}
        path = scenario_file(tmp_path / "suite.json", "delta-check", payload)
        assert run_in_process("run", str(path), "--cap", "1")[0] == 0


class TestDeltaCheckRandomSuite:
    def test_a_delta_that_drops_a_row_fails(self, tmp_path, monkeypatch):
        # each random polynomial's delta(f, 2) is compared with the
        # recursion; the constant-collapse and degree-drop identities hold
        # for any closed form built like delta, this broken copy included
        path = scenario_file(tmp_path / "suite.json", "delta-check",
                             {"random": {"count": 60, "nvars": 3, "max_degree": 4}})

        def suite(seed):
            out = tmp_path / f"report-{seed}.json"
            code = run_in_process("run", str(path), "--seed", str(seed), "--json", str(out))[0]
            report = json.loads(out.read_text())["reports"][0]
            out.unlink()
            return code, report["verdict"], report["details"]["random"]

        for seed in (1, 2, 3):
            assert suite(seed) == (0, "holds", {"count": 60, "failures": 0, "seed": seed})
        real = ip.delta

        def drop_one_row(f, s):
            g = real(f, s)
            row = next((t for t in g.terms if any(t[0])), None)
            return g._replace(terms=tuple(t for t in g.terms if t is not row))

        monkeypatch.setattr(ip, "delta", drop_one_row)
        for seed in (1, 2, 3):
            code, verdict, random_suite = suite(seed)
            assert code == 1 and verdict == "fails" and random_suite["failures"] > 0, random_suite


def ncycle_payload(n, a_size):
    """r-epsilon on an n-cycle with uniform weights, f = z and A its first a_size points."""
    points = [f"p{i}" for i in range(n)]
    system = {
        "points": points,
        "weights": {p: f"1/{n}" for p in points},
        "maps": [points[1:] + points[:1]],
    }
    z = {"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}
    return {"system": system, "A": points[:a_size], "fs": [z], "epsilon": "0"}


class TestRecurrenceCap:
    def test_return_measure_steps_are_counted(self, tmp_path):
        # 40 grid points, then 40 exponent keys of |A| * m = 20 steps each
        path = scenario_file(tmp_path / "c40.json", "r-epsilon", ncycle_payload(40, 20))
        code, out, err = run_in_process("run", str(path), "--cap", "839")
        assert code == 2 and out == ""
        assert "period grid needs 40 points and its return measures 800 steps so far" in err
        assert "cap is 839" in err
        code, out, err = run_in_process("run", str(path), "--cap", "840")
        assert code == 0 and "HOLDS" in out, err

    def test_large_cycle_is_refused_quickly(self, tmp_path):
        # 2 000 grid points and 1 000 steps per key would need 2 002 000
        payload = {**ncycle_payload(2000, 1000), "k": 2, "W": 8}
        path = scenario_file(tmp_path / "c2000.json", "ip-star", payload)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = run_cli("run", str(path), timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert proc.returncode == 2 and "cap is 1000000" in proc.stderr, proc.stderr
        assert cpu < 2.0, cpu


class TestCommutationCap:
    def test_distinct_maps_over_the_cap_are_refused_quickly(self, tmp_path):
        # 1 500 distinct products of swaps of the 30 pairs (2i, 2i + 1) of
        # 60 points commute: C(1500, 2) pairs at 60 points charge 67 455 000
        points = [f"p{i}" for i in range(60)]
        maps = [[points[i ^ (s >> (i // 2) & 1)] for i in range(60)] for s in range(1, 1501)]
        system = {"points": points, "weights": {p: "1/60" for p in points}, "maps": maps}
        z = {"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}
        path = scenario_file(tmp_path / "inv.json", "khintchine", {"system": system, "A": points[:1], "fs": [z] * 1500})
        proc, cpu = TestSpectralCap.child_cpu("run", str(path))
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "1124250 pairs of distinct maps at 60 points charge 67455000, cap is 1000000" in proc.stderr
        assert cpu < 2.0, cpu

    def test_many_repeated_maps_decide(self, tmp_path, harness):
        # the scale harness's many-maps system with 2 000 maps: 60 distinct
        # maps charge 106 200, and each f_i is taken modulo its own order
        path = scenario_file(tmp_path / "maps.json", "khintchine", harness["rotations"](2000))
        proc, cpu = TestSpectralCap.child_cpu("run", str(path))
        assert proc.returncode == 0 and proc.stdout.startswith("== maps [khintchine] HOLDS\n"), proc.stderr
        assert cpu < 2.0, cpu


def spectral_payload(dim, fs):
    """spectral-limit on dim eigenvectors of one operator, phases k/4."""
    return {"unitary": {"phases": [[f"{e % 4}/4"] for e in range(dim)]}, "fs": fs}


class TestSpectralCap:
    # phases k/4 give 4 distinct rows; two binomial indices, (1, 0) and
    # (1, 1): 4 * 2 = 8 (7 * 2 = 14 would charge every eigenvector)
    FS = [{"nvars": 2, "terms": [{"idx": [1, 0], "coef": "1"}, {"idx": [1, 1], "coef": "3"}]}]
    Z = {"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}
    # 1 000 distinct rows over two operators, f = (z, C(z, 2))
    ROWS = [[f"{e % 40}/40", f"{e // 40}/25"] for e in range(1000)]
    PAIR = [Z, {"nvars": 1, "terms": [{"idx": [2], "coef": "1"}]}]
    # the 2 142 phases of order at most 83, one operator, against a dense
    # degree-8 f in 4 variables: 2142 * 494 = 1 058 148
    FAREY = [[f"{a}/{b}"] for b in range(1, 84) for a in range(b) if math.gcd(a, b) == 1]
    DENSE = {"nvars": 4, "terms": [{"idx": list(idx), "coef": "1"}
                                   for idx in itertools.product(range(9), repeat=4)
                                   if 1 <= sum(idx) <= 8]}

    @staticmethod
    def child_cpu(*args):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = run_cli(*args, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime

    def test_charge_is_distinct_rows_times_indices(self, tmp_path):
        path = scenario_file(tmp_path / "sl.json", "spectral-limit", spectral_payload(7, self.FS))
        code, out, err = run_in_process("run", str(path), "--cap", "7")
        assert code == 2 and out == ""
        assert "4 distinct phase rows and 2 binomial indices charge 8, cap is 7" in err
        code, out, err = run_in_process("run", str(path), "--cap", "8")
        assert code == 0 and "HOLDS" in out, err

    def test_repeated_rows_decide_at_the_default_cap(self, tmp_path):
        certs = {}
        for dim in (1001, 4):
            payload = spectral_payload(dim, [self.Z])
            path = scenario_file(tmp_path / f"sl{dim}.json", "spectral-limit", payload)
            proc, cpu = self.child_cpu("run", str(path), "--emit-certificates", str(tmp_path))
            assert proc.returncode == 0 and "HOLDS" in proc.stdout, proc.stderr
            assert cpu < 2.0, cpu
            certs[dim] = json.loads((tmp_path / f"sl{dim}.cert.json").read_text())
        assert certs[1001]["lattice"] == certs[4]["lattice"]

    def test_distinct_rows_over_the_cap_are_refused_quickly(self, tmp_path):
        unitary = {"phases": self.FAREY}
        payload = {"unitary": unitary, "fs": [self.DENSE]}
        path = scenario_file(tmp_path / "sl.json", "spectral-limit", payload)
        cert = tmp_path / "sl.cert.json"
        full = {"ambient": 4, "basis": [[int(i == j) for i in range(4)] for j in range(4)]}
        cert.write_text(json.dumps({"schema_version": 1, "certificate_kind": "spectral-limit",
                                    "unitary": unitary, "fs": [self.DENSE], "lattice": full}))
        charge = "2142 distinct phase rows and 494 binomial indices charge 1058148, cap is 1000000"
        for args in (("run", str(path)), ("verify-certificate", str(cert))):
            proc, cpu = self.child_cpu(*args)
            assert proc.returncode == 2 and proc.stdout == "", proc.stderr
            assert charge in proc.stderr, proc.stderr
            assert cpu < 2.0, cpu

    def test_finite_index_is_checked_before_the_charge(self, tmp_path):
        cert = tmp_path / "sl.cert.json"
        # over the cap and of infinite index: the index is checked first
        cert.write_text(json.dumps({"schema_version": 1, "certificate_kind": "spectral-limit",
                                    "unitary": {"phases": self.ROWS}, "fs": self.PAIR,
                                    "lattice": {"ambient": 1, "basis": [[0]]}}))
        code, out, err = run_in_process("verify-certificate", str(cert))
        assert code == 1 and out == ""
        assert "index is infinite" in err

    def test_direct_calls_charge_the_cap(self):
        u = sp.phase_unitary(spectral_payload(7, self.FS)["unitary"]["phases"])
        fs = [ip.from_json(f) for f in self.FS]
        cert = sp.limit_projection(u, fs, cap=8).certificate
        sp.verify_limit_certificate(u, fs, cert, cap=8)
        with pytest.raises(SweepCapExceeded, match="charge 8, cap is 7"):
            sp.limit_projection(u, fs, cap=7)
        with pytest.raises(SweepCapExceeded, match="charge 8, cap is 7"):
            sp.verify_limit_certificate(u, fs, cert, cap=7)

    @pytest.mark.parametrize("case", ["spectral-rows-1000", "spectral-rows-10000"])
    def test_distinct_rows_of_the_scale_harness_decide(self, tmp_path, harness, case):
        # rows x indices charge 2 000 and 20 000
        root = Path(__file__).resolve().parent.parent
        [(name, doc, cap)] = [c for c in harness["CASES"] if c[0] == case]
        assert cap is None
        args = harness["scale_args"](tmp_path, name, doc, cap)
        _, result = harness["run_case"](root / "src", tmp_path / "work", args)
        assert result["exit"] == 0 and result["cpu_s"] < 2.0, result


def test_every_scale_harness_case_is_schema_valid(tmp_path, harness):
    # the cases are written and loaded, not run: some take seconds
    assert len(harness["CASES"]) == 20
    for name, doc, cap in harness["CASES"]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        [(_source, loaded)] = cli.load_scenarios([path], bundled=False)
        assert loaded == doc and (cap is None or cap > 0), name


def test_scale_harness_charges_are_the_spectral_charges(harness):
    # the harness prints each spectral case's charge, computed from the
    # scenario; one below it, polyrec refuses the case with that amount
    payloads = [doc["payload"] for _, doc, _ in harness["CASES"] if doc["kind"] == "spectral-limit"]
    charges = [harness["spectral_charge"](payload) for payload in payloads]
    assert charges == [12, 12, 12, 168, 168, 2000, 20000, 200000]
    for payload, charge in zip(payloads, charges):
        u = sp.from_json(payload["unitary"])
        fs = [ip.from_json(f) for f in payload["fs"]]
        with pytest.raises(SweepCapExceeded, match=f"charge {charge}, cap is {charge - 1}$"):
            sp.limit_projection(u, fs, cap=charge - 1)


def test_harness_drops_every_wall_time_of_a_report(tmp_path, harness):
    # the harness compares reports as bytes without their wall_time_ms
    # fields, which vary from run to run; the bundled report has one per
    # scenario, and the bytes left parse to the report without them
    work = tmp_path / "work"
    out, _ = harness["run_case"](Path(__file__).resolve().parent.parent / "src", work, ["--bundled"])
    doc = json.loads((work / "report.json").read_text())
    assert len(doc["reports"]) > 1
    for entry in doc["reports"]:
        del entry["wall_time_ms"]
    assert json.loads(out["report"]) == doc


def test_scale_harness_reads_the_peak_of_the_polyrec_child(tmp_path):
    # a child's ru_maxrss starts at the peak of the process it is forked
    # from; a harness holding 200 MB must still read a small child's own
    child = "\n".join(
        [
            "import json, runpy, sys",
            "from pathlib import Path",
            "sys.path.insert(0, str(Path(sys.argv[1]).parent))",
            "harness = runpy.run_path(sys.argv[1])",
            "held = b'x' * (200 << 20)",
            "[case] = [c for c in harness['CASES'] if c[0] == 'spectral-z-500']",
            "args = harness['scale_args'](Path(sys.argv[3]), *case)",
            "out, result = harness['run_case'](Path(sys.argv[2]), Path(sys.argv[3]) / 'work', args)",
            "[result['verify_exit']] = [check['exit'] for check in out['verify'].values()]",
            "print(json.dumps(result))",
        ]
    )
    root = Path(__file__).resolve().parent.parent
    argv = [str(root / "tools" / "same_output.py"), str(root / "src"), str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == 0 and result["maxrss_kb"] < 100 * 1024, result
    # and times verify-certificate on the certificate the run emits
    assert result["verify_exit"] == 0 and result["verify_cpu_s"] > 0, result


@st.composite
def delta_payloads(draw):
    payload = {}
    if draw(st.booleans()):
        nvars = draw(st.integers(1, 4))
        degree = draw(st.integers(0, 8))
        # an index of the wrong length is schema-valid too
        width = draw(st.sampled_from([nvars, nvars, nvars, nvars + 1]))
        index = st.lists(st.integers(0, degree), min_size=width, max_size=width)
        indices = draw(st.lists(index.filter(lambda i: sum(i) <= degree), max_size=10))
        coefs = st.integers(-99, 99).map(str)
        terms = [{"idx": idx, "coef": draw(coefs)} for idx in indices]
        payload["poly"] = {"nvars": nvars, "terms": terms}
        if draw(st.booleans()):
            payload["recursion_max_s"] = draw(st.integers(2, 4))
    if draw(st.booleans()):
        payload["c_table_max"] = draw(st.integers(1, 12))
    if draw(st.booleans()):
        payload["random"] = {
            "count": draw(st.integers(1, 4)),
            "nvars": draw(st.integers(1, 3)),
            "max_degree": draw(st.integers(1, 4)),
            "coeff_bound": draw(st.integers(1, 99)),
        }
    return payload


@st.composite
def stable_rank_tuples(draw):
    """A schema-valid `v` of 1 to 4 polynomials in 1 to 3 variables of degree at most 4."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    index = st.lists(st.integers(0, degree), min_size=nvars, max_size=nvars)
    index = index.filter(lambda i: sum(i) <= degree)
    coefs = st.integers(-9, 9).map(str)
    v = []
    for _ in range(draw(st.integers(1, 4))):
        indices = draw(st.lists(index, max_size=6))
        v.append({"nvars": nvars, "terms": [{"idx": idx, "coef": draw(coefs)} for idx in indices]})
    return v


# (1, z, C(z,2), C(z,3)): rank 4, but a window of 1 has only 3 points
RANK_FOUR_CUBIC = [{"nvars": 1, "terms": [{"idx": [a], "coef": "1"}]} for a in range(4)]


RATIONALS = st.builds(
    lambda sign, num, den: f"{sign}{num}" + (f"/{den}" if den is not None else ""),
    st.sampled_from(["", "-"]),
    st.integers(0, 200),
    st.one_of(st.none(), st.sampled_from(["0", "00", "1", "3", "07", "100"])),
)


def now_and_then(value, otherwise):
    """``value`` one time in ten, else ``otherwise``."""
    return st.sampled_from([otherwise] * 9 + [value])


@st.composite
def exponent_polys(draw, count, mixed=False):
    """``count`` polynomials in 1 to 3 variables of degree at most 4 that
    vanish at the origin; now and then one of them does not.  With
    ``mixed``, each takes one of two numbers of variables."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    coefs = st.integers(-9, 9).filter(bool).map(str)
    fs = []
    for _ in range(count):
        n = draw(st.sampled_from([nvars, nvars % 3 + 1])) if mixed else nvars
        index = st.lists(st.integers(0, degree), min_size=n, max_size=n)
        index = index.filter(lambda i: 0 < sum(i) <= degree)
        indices = draw(st.lists(index, min_size=1, max_size=4)) if degree else []
        if draw(now_and_then(True, False)):
            indices.append([0] * n)
        fs.append({"nvars": n, "terms": [{"idx": i, "coef": draw(coefs)} for i in indices]})
    return fs


@st.composite
def recurrence_payloads(draw, kind):
    """A schema-valid payload of ``kind`` on a product of one to three cyclic
    factors, with one exponent polynomial per factor in 1 to 3 variables of
    degree at most 4, and the lcm q of the factor sizes.  Now and then a
    polynomial is nonzero at the origin, which is an input error."""
    sizes = [draw(st.integers(2, 4))] + draw(st.lists(st.integers(1, 4), max_size=2))
    cells = list(itertools.product(*(range(s) for s in sizes)))
    points = [",".join(map(str, c)) for c in cells]
    maps = [
        [",".join(str((e + (k == i)) % sizes[k]) for k, e in enumerate(c)) for c in cells]
        for i in range(len(sizes))
    ]
    system = {"points": points, "weights": {p: f"1/{len(points)}" for p in points}, "maps": maps}
    fs = draw(exponent_polys(len(sizes)))
    payload = {"system": system, "A": draw(st.lists(st.sampled_from(points), min_size=1)), "fs": fs}
    if kind != "khintchine":
        payload["epsilon"] = draw(st.sampled_from(["0", "1/100", "1/16", "1/2"]))
    if kind == "ip-star":
        payload["k"] = draw(st.integers(1, 3))
        payload["W"] = draw(st.integers(1, 8))
    return payload, math.lcm(*sizes)


@st.composite
def lattice_docs(draw, ambient, full=False):
    """A schema-valid lattice document in Z^ambient, of any rank, or for
    ``full`` mostly with at least ``ambient`` columns.  Now and then every
    column is scaled by 1000000007 * 1000000009, and now and then it claims
    the next dimension, or Z^(10^12) with no columns, which are input errors."""
    column = st.lists(st.integers(-6, 6), min_size=ambient, max_size=ambient)
    least = draw(now_and_then(0, ambient)) if full else 0
    basis = draw(st.lists(column, min_size=least, max_size=ambient + 1))
    scale = draw(now_and_then(1000000007 * 1000000009, 1))
    basis = [[scale * e for e in col] for col in basis]
    claim = draw(now_and_then(10**12, draw(now_and_then(ambient + 1, ambient))))
    return {"ambient": claim, "basis": [] if claim == 10**12 else basis}


@st.composite
def key_lemma_payloads(draw):
    v = draw(stable_rank_tuples())
    return {
        "v": v,
        "V": draw(lattice_docs(len(v), full=draw(st.booleans()))),
        "hypothesis": draw(lattice_docs(v[0]["nvars"], full=True)),
    }


@st.composite
def key_lemma_tampers(draw):
    """One field of an emitted key-lemma certificate, replaced."""
    field = draw(st.sampled_from(["v", "V", "witness"]))
    if field == "v":
        return {field: draw(stable_rank_tuples())}
    return {field: draw(lattice_docs(draw(st.integers(1, 4)), field == "witness"))}


@st.composite
def spectral_payloads(draw):
    """Phases of denominators up to 721 (one past the cap), now and then a
    ragged table, a wrong declared size or exponent polynomials in different
    numbers of variables."""
    dim, ops = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    phase = st.builds(
        lambda num, den: f"{num}/{den}",
        st.integers(-30, 30),
        st.sampled_from([1, 2, 3, 4, 6, 12, 720, 721]),
    )
    phases = [draw(st.lists(phase, min_size=ops, max_size=ops)) for _ in range(dim)]
    phases[-1] += draw(now_and_then(["1/2"], []))
    unitary = {"phases": phases}
    for key, size in (("dim", dim), ("ops", ops)):
        if draw(st.booleans()):
            unitary[key] = draw(now_and_then(size + 1, size))
    return {"unitary": unitary, "fs": draw(exponent_polys(ops, mixed=True))}


@st.composite
def spectral_tampers(draw):
    """One field of an emitted spectral-limit certificate, replaced."""
    field = draw(st.sampled_from(["lattice", "unitary", "fs"]))
    if field == "unitary":
        return {field: draw(spectral_payloads())["unitary"]}
    if field == "fs":
        return {field: draw(exponent_polys(draw(st.integers(1, 3)), mixed=True))}
    return {field: draw(lattice_docs(draw(st.integers(1, 3)), full=True))}


# The shapes that lattice_docs and RATIONALS draw only now and then, given to
# the fuzz tests as explicit examples so that their coverage does not depend
# on which examples the derandomized draw happens to make.
Z = [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}]
Z_ONE = {"ambient": 1, "basis": [[1]]}
HUGE_EMPTY = {"ambient": 10**12, "basis": []}
LARGE_INDEX = {"ambient": 1, "basis": [[1000000007 * 1000000009]]}
HALF_TURN = {"unitary": {"phases": [["1/2"]]}, "fs": Z}


@st.composite
def hindman_payloads(draw):
    """Windows up to 20 and tuple lengths up to 5, all within the default
    cap (C(20, 5) * 2^5 = 496 128); colors drawn from two or three of 1,
    true, 1.0, 0, false, "1" and null, some of which Python compares equal
    although their JSON texts differ; now and then a color list of the
    wrong length."""
    w = draw(st.integers(1, 20))
    size = draw(now_and_then(w + 1, w))
    palette = st.sampled_from([1, True, 1.0, 0, False, "1", None])
    palette = draw(st.lists(palette, min_size=2, max_size=3))
    colors = draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size))
    return {"coloring": {"W": w, "colors": colors}, "k": draw(st.integers(1, 5))}


def first_monochromatic(colors, w, k):
    """Least increasing k-tuple in 1..w whose subset sums all lie in 1..w
    and share one color (equal JSON texts), with those sums; None when
    there is none."""
    for gens in itertools.combinations(range(1, w + 1), k):
        sums = {
            sum(sub) for r in range(1, k + 1) for sub in itertools.combinations(gens, r)
        }
        if max(sums) <= w and len({json.dumps(colors[s - 1]) for s in sums}) == 1:
            return list(gens), sorted(sums)
    return None


class TestFrontDoorFuzz:
    """Schema-valid payloads end with exit code 0, 1 or 2, never a traceback."""

    FUZZ = settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @FUZZ
    # a payload with no field is refused by its schema (minProperties)
    @given(payload=delta_payloads().filter(bool), cap=st.sampled_from([1, 200, 5000]))
    def test_delta_check(self, tmp_path_factory, payload, cap):
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["delta-check"])
        path = scenario_file(tmp_path_factory.mktemp("fuzz") / "dc.json", "delta-check", payload)
        code, _out, err = run_in_process("run", str(path), "--cap", str(cap), "--jobs", "1")
        assert code in (0, 1, 2) and "Traceback" not in err

    @FUZZ
    @example(epsilon="1/0", weight="1/4", stray=None)
    @example(epsilon="0", weight="1/00", stray=None)
    @example(epsilon="0", weight="1/4", stray="zz")
    @given(
        epsilon=RATIONALS,
        weight=st.one_of(st.just("1/4"), st.just("02/8"), RATIONALS),
        stray=st.one_of(st.none(), st.sampled_from(["zz", "4", "00"])),
    )
    def test_r_epsilon_rationals(self, tmp_path_factory, epsilon, weight, stray):
        # a stray weight key names no point of the system
        weights = {**R_EPSILON["system"]["weights"], "0": weight}
        if stray is not None:
            weights[stray] = "5"
        system = {**R_EPSILON["system"], "weights": weights}
        payload = {**R_EPSILON, "system": system, "epsilon": epsilon}
        path = scenario_file(tmp_path_factory.mktemp("fuzz") / "re.json", "r-epsilon", payload)
        code, _out, err = run_in_process("run", str(path), "--jobs", "1")
        assert code in (0, 1, 2) and "Traceback" not in err
        if re.search(r"/0+$", epsilon) or re.search(r"/0+$", weight):
            assert code == 2 and "does not match" in err
        elif stray is not None:
            assert code == 2

    @FUZZ
    @given(
        data=st.data(),
        kind=st.sampled_from(["r-epsilon", "ip-star", "khintchine"]),
        cap=st.sampled_from([1, 200, None]),
    )
    def test_recurrence(self, tmp_path_factory, data, kind, cap):
        payload, q = data.draw(recurrence_payloads(kind))
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS[kind])
        tmp = tmp_path_factory.mktemp("fuzz")
        path = scenario_file(tmp / "rec.json", kind, payload)
        limit = [] if cap is None else ["--cap", str(cap)]
        code, _out, err = run_in_process(
            "run", str(path), *limit, "--jobs", "1", "--json", str(tmp / "out.json")
        )
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            return
        (report,) = json.loads((tmp / "out.json").read_text())["reports"]
        full = q * lcm_upto(max(ip.from_json(f).degree for f in payload["fs"]))
        assert all(full % p == 0 for p in report["details"].get("period", [])), (full, report)

    @FUZZ
    @example(v=RANK_FOUR_CUBIC, window=1, cap=10**6)
    @given(
        v=stable_rank_tuples(),
        window=st.one_of(st.integers(1, 6), st.integers(1, 10**6)),
        cap=st.sampled_from([1, 200, 10**6]),
    )
    def test_stable_rank(self, tmp_path_factory, v, window, cap):
        payload = {"v": v, "window": window}
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["stable-rank"])
        path = scenario_file(tmp_path_factory.mktemp("fuzz") / "sr.json", "stable-rank", payload)
        code, out, err = run_in_process("run", str(path), "--cap", str(cap), "--jobs", "1")
        assert code in (0, 1, 2) and "Traceback" not in err
        tup = ip.polytuple_from_json(v)
        if code == 1:
            assert 'error: "SaturationFailed"' in out
            assert window < tup.degree
        if code == 2:
            # the search stops by radius deg(v), so only that box is counted
            points = (2 * min(window, tup.degree) + 1) ** tup.nvars
            assert points > cap and f"window sweep needs {points} points" in err

    @staticmethod
    def check_emitted(tmp, name, tampered):
        """The certificate a passing run emitted verifies; a tampered copy
        ends with exit code 0, 1 or 2 and no traceback."""
        path = tmp / f"{name}.cert.json"
        assert run_in_process("verify-certificate", str(path))[0] == 0
        path.write_text(json.dumps({**json.loads(path.read_text()), **tampered}))
        code, _out, err = run_in_process("verify-certificate", str(path))
        assert code in (0, 1, 2) and "Traceback" not in err

    @FUZZ
    @example(payload={"v": Z, "V": HUGE_EMPTY, "hypothesis": Z_ONE}, tamper={"V": Z_ONE})
    @example(payload={"v": Z, "V": LARGE_INDEX, "hypothesis": Z_ONE}, tamper={"witness": HUGE_EMPTY})
    @example(payload={"v": Z, "V": Z_ONE, "hypothesis": Z_ONE}, tamper={"V": LARGE_INDEX})
    @given(payload=key_lemma_payloads(), tamper=key_lemma_tampers())
    def test_key_lemma(self, tmp_path_factory, payload, tamper):
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["key-lemma"])
        tmp = tmp_path_factory.mktemp("fuzz")
        path = scenario_file(tmp / "kl.json", "key-lemma", payload)
        code, out, err = run_in_process("run", str(path), "--emit-certificates", str(tmp))
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 1:
            assert 'error: "HypothesisFailed"' in out
        if code == 0:
            self.check_emitted(tmp, "kl", tamper)

    @FUZZ
    @example(payload=HALF_TURN, tamper={"lattice": HUGE_EMPTY})
    @example(payload=HALF_TURN, tamper={"lattice": LARGE_INDEX})
    @given(payload=spectral_payloads(), tamper=spectral_tampers())
    def test_spectral_limit(self, tmp_path_factory, payload, tamper):
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["spectral-limit"])
        tmp = tmp_path_factory.mktemp("fuzz")
        path = scenario_file(tmp / "sl.json", "spectral-limit", payload)
        code, _out, err = run_in_process("run", str(path), "--emit-certificates", str(tmp))
        # the limit projection is proved, never refuted: only input errors fail
        assert code in (0, 2) and "Traceback" not in err
        if code == 0:
            self.check_emitted(tmp, "sl", tamper)

    @FUZZ
    @given(payload=hindman_payloads())
    def test_hindman_search(self, tmp_path_factory, payload):
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["hindman-search"])
        tmp = tmp_path_factory.mktemp("fuzz")
        path = scenario_file(tmp / "hs.json", "hindman-search", payload)
        code, _out, err = run_in_process("run", str(path), "--json", str(tmp / "out.json"))
        assert code in (0, 2) and "Traceback" not in err
        w, colors, k = payload["coloring"]["W"], payload["coloring"]["colors"], payload["k"]
        if code == 2:
            assert len(colors) != w
            return
        (report,) = json.loads((tmp / "out.json").read_text())["reports"]
        found = first_monochromatic(colors, w, k)
        if found is None:
            assert report["details"] == {"witness": None, "verified_by_exhaustion": True}
        else:
            witness, sums = found
            assert report["details"] == {"witness": witness, "subset_sums": sums, "verified": True}

    @FUZZ
    @given(v=stable_rank_tuples(), extra=st.integers(0, 2), data=st.data())
    def test_verify_rank_certificate(self, tmp_path_factory, v, extra, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        window = max(1, ip.polytuple_from_json(v).degree) + extra
        path = scenario_file(tmp / "sr.json", "stable-rank", {"v": v, "window": window})
        code = run_in_process("run", str(path), "--emit-certificates", str(tmp), "--jobs", "1")[0]
        assert code == 0
        cert = json.loads((tmp / "sr.cert.json").read_text())
        field = data.draw(st.sampled_from(["samples", "V", "r", "saturation_window"]))
        ints = st.integers(-20, 20)
        if field == "samples":
            point = st.lists(ints, min_size=1, max_size=4)
            cert["samples"] = data.draw(st.lists(point, max_size=5))
        elif field == "V":
            column = st.lists(ints, min_size=1, max_size=5)
            ambient = data.draw(st.integers(1, 5))
            cert["V"] = {"ambient": ambient, "basis": data.draw(st.lists(column, max_size=5))}
        elif field == "r":
            cert["r"] = data.draw(st.integers(0, 6))
        else:
            cert["saturation_window"] = data.draw(st.integers(1, 10**9))
        (tmp / "sr.cert.json").write_text(json.dumps(cert))
        code, _out, err = run_in_process("verify-certificate", str(tmp / "sr.cert.json"))
        assert code in (0, 1, 2) and "Traceback" not in err
        if field == "saturation_window":
            assert code == 0


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
        # the scenario envelope, the payloads, the certificate envelope and
        # the schema of each certificate kind
        assert len(cli.SCHEMAS) == 2 + len(cli.PAYLOAD_SCHEMAS) + len(cli.CERTIFICATE_FIELDS)
        for schema in cli.SCHEMAS.values():
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
            doc = json.loads(path.read_text())
            jsonschema.validate(doc, cli.CERTIFICATE_SCHEMA)
            jsonschema.validate(doc, cli.SCHEMAS["certificate", doc["certificate_kind"]])

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

    def test_zero_denominator_phase_is_input_error(self, cert_dir, tmp_path, capsys):
        spectral = json.loads((cert_dir / "spectral-limit-bilinear.cert.json").read_text())
        phases = [["1/0"] + row[1:] for row in spectral["unitary"]["phases"]]
        doc = {**spectral, "unitary": {**spectral["unitary"], "phases": phases}}
        code, err = self.verify_in_process(tmp_path, capsys, doc)
        assert code == 2 and "'1/0' does not match" in err

    def test_rank_deficient_lattices_are_refused(self, cert_dir, tmp_path, capsys):
        # both certificates claim a finite-index sublattice
        key = json.loads((cert_dir / "key-lemma-parabola.cert.json").read_text())
        spectral = json.loads((cert_dir / "spectral-limit-bilinear.cert.json").read_text())
        assert spectral["lattice"]["ambient"] == 2
        cases = [
            ({**key, "witness": {"ambient": key["witness"]["ambient"], "basis": []}}, "witness has rank 0"),
            ({**spectral, "lattice": {"ambient": 2, "basis": []}}, "lattice has rank 0 in Z^2"),
            (
                {**spectral, "lattice": {"ambient": 2, "basis": spectral["lattice"]["basis"][:1]}},
                "lattice has rank 1 in Z^2",
            ),
        ]
        for doc, message in cases:
            code, err = self.verify_in_process(tmp_path, capsys, doc)
            assert code == 1 and "verification failed" in err and message in err, (doc, err)

    def test_rank_window_over_cap_verifies(self, cert_dir, tmp_path, capsys):
        # the saturation claim is decided for all of Z^n without a sweep
        rank = json.loads((cert_dir / "stable-rank-parabola.cert.json").read_text())
        nvars = rank["v"][0]["nvars"]
        window = next(w for w in range(1, 10**6) if (2 * w + 1) ** nvars > 10**6)
        start = time.perf_counter()
        code, err = self.verify_in_process(
            tmp_path, capsys, {**rank, "saturation_window": window}
        )
        assert code == 0 and time.perf_counter() - start < 1.0, err

    def test_rank_window_below_degree_fails_globally(self, tmp_path, capsys):
        v = RANK_FOUR_CUBIC
        path = scenario_file(tmp_path / "sr.json", "stable-rank", {"v": v, "window": 1})
        code, out, _err = run_in_process("run", str(path), "--jobs", "1")
        assert code == 1 and 'error: "SaturationFailed"' in out and "witness: [2]" in out
        # the certificate the window alone used to accept
        tup = ip.polytuple_from_json(v)
        samples = [(0,), (-1,), (1,)]
        V = lat.hnf_from_generators(4, [tup.evaluate(pt) for pt in samples])
        least = next(z for z in range(10) if lat.smallest_multiple(V, tup.evaluate((z,))) is None)
        assert least == 2
        doc = {
            "schema_version": 1,
            "certificate_kind": "stable-rank",
            "v": v,
            "r": 3,
            "samples": [list(pt) for pt in samples],
            "V": lat.to_json(V),
            "saturation_window": 1,
        }
        code, err = self.verify_in_process(tmp_path, capsys, doc)
        assert code == 1 and "image of (2,) escapes" in err, err


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


# ---------------------------------------------------------------------------
# The schema checker against jsonschema
# ---------------------------------------------------------------------------


@functools.cache
def bundled_documents():
    """The bundled scenarios, and the certificates a run of them emits."""
    scenarios = [json.loads(entry.read_text()) for entry in cli._bundled_entries()]
    reports = [cli.run_scenario(doc["id"], doc, 10**6, 0) for doc in scenarios]
    certificates = [{"schema_version": 1, **r["certificate"]} for r in reports if r["certificate"]]
    return scenarios, certificates


def positions(doc, path=()):
    """Every (path, value) pair in doc, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from positions(value, path + (key,))


DROP = object()


def put(doc, path, value):
    """A copy of doc with value at path, or without that entry for DROP."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


KINDS = sorted(cli.PAYLOAD_SCHEMAS) + sorted(cli.CERTIFICATE_FIELDS) + ["nope"]
KEY_NAMES = ["extra", "basis", "dim", "ops", "poly", "random", "coeff_bound", "k", "W", "window"]
ODD_VALUES = st.one_of(
    st.sampled_from(
        [True, False, None, 0, 1, -1, 2.0, -1.0, 0.5, 1e300, float("nan"), "", "1", "-12",
         "12\n", "1/2", "1/0", "binomial", [], [1], [[0]], ["0"], {}, {"extra": 1}]
    ),
    st.sampled_from(KINDS),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a value replaced by one of another type,
    a key dropped or added, an int made a float, a string given a trailing
    newline, a container or string emptied, or the kind field changed."""
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(positions(doc))))
        op = draw(st.sampled_from(["replace", "drop", "add", "float", "newline", "empty", "kind"]))
        if op == "drop" and path:
            doc = put(doc, path, DROP)
        elif op == "add" and isinstance(value, dict):
            doc = put(doc, path, {**value, draw(st.sampled_from(KEY_NAMES)): draw(ODD_VALUES)})
        elif op == "add" and isinstance(value, list):
            doc = put(doc, path, value + [draw(st.sampled_from(value) if value else ODD_VALUES)])
        elif op == "float" and type(value) is int:
            doc = put(doc, path, float(value) + draw(st.sampled_from([0, 0.5])))
        elif op == "newline" and isinstance(value, str):
            doc = put(doc, path, value + "\n")
        elif op == "empty" and isinstance(value, (str, list, dict)):
            doc = put(doc, path, type(value)())
        elif op == "kind" and isinstance(doc, dict):
            field = "certificate_kind" if "certificate_kind" in doc else "kind"
            doc = put(doc, (field,), draw(st.sampled_from(KINDS)))
        else:
            doc = put(doc, path, draw(ODD_VALUES))
    return doc


@functools.cache
def oracle(kind):
    """jsonschema's validator of ``cli.SCHEMAS[kind]``."""
    schema = cli.SCHEMAS[kind]
    return jsonschema.validators.validator_for(schema)(schema)


def agrees(kind, doc):
    """The verdict on doc of the checker _check uses, asserted equal to
    jsonschema's.  A certificate is decided as its envelope and then the
    schema of its kind, each step compared."""
    accepted = not cli._key_checker(kind)(doc)
    assert accepted == oracle(kind).is_valid(doc), (kind, doc)
    if kind == "certificate" and accepted:
        return agrees(("certificate", doc["certificate_kind"]), doc)
    return accepted


def message(kind, doc):
    """The error _check raises on doc under ``cli.SCHEMAS[kind]``, or None."""
    try:
        cli._check("doc", kind, doc)
    except InputError as exc:
        return str(exc)
    return None


def best_match_message(kind, doc):
    """jsonschema's ``best_match`` error on doc under ``cli.SCHEMAS[kind]``,
    worded as _check words an error, or None."""
    error = jsonschema.exceptions.best_match(oracle(kind).iter_errors(doc))
    if error is None:
        return None
    where = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"doc: at {where}: {error.message}"


def schema_keywords(schema):
    """(keyword, argument) of schema and of every schema nested in it."""
    if isinstance(schema, bool):
        return
    for key, arg in schema.items():
        yield key, arg
        if key == "properties":
            nested = list(arg.values())
        elif key in ("additionalProperties", "items", "not"):
            nested = [arg]
        else:
            nested = []
        for sub in nested:
            yield from schema_keywords(sub)


class TestSchemaChecker:
    ORACLE = settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @ORACLE
    @given(data=st.data())
    def test_scenarios_agree_with_jsonschema(self, data):
        scenarios, _ = bundled_documents()
        doc = data.draw(mutated(data.draw(st.sampled_from(scenarios))))
        if agrees(None, doc):
            agrees(doc["kind"], doc["payload"])

    @ORACLE
    @given(data=st.data(), kind=st.sampled_from(sorted(cli.PAYLOAD_SCHEMAS)))
    def test_payloads_agree_with_jsonschema(self, data, kind):
        scenarios, _ = bundled_documents()
        payloads = [doc["payload"] for doc in scenarios if doc["kind"] == kind]
        agrees(kind, data.draw(mutated(data.draw(st.sampled_from(payloads)))))

    @ORACLE
    @given(data=st.data())
    def test_certificates_agree_with_jsonschema(self, data):
        _, certificates = bundled_documents()
        agrees("certificate", data.draw(mutated(data.draw(st.sampled_from(certificates)))))

    def assert_best_match(self, steps):
        """On ORACLE's examples, _check words the error best_match picks at
        each (kind, document) of steps(data), taken in turn until one is
        rejected; at least 300 examples, at least 200 of them rejected."""
        checked = []

        @self.ORACLE
        @given(data=st.data())
        def same_message(data):
            for kind, doc in steps(data):
                got = message(kind, doc)
                assert got == best_match_message(kind, doc), (kind, doc)
                if got is not None:
                    break
            checked.append(got)

        same_message()
        assert len(checked) >= 300 and sum(m is not None for m in checked) >= 200

    def test_scenario_errors_read_as_best_match(self):
        scenarios, _ = bundled_documents()

        def steps(data):
            # the payload's keys in any order, so that the fields another
            # kind does not name are listed in an order of their own
            doc = data.draw(st.sampled_from(scenarios))
            payload = dict(data.draw(st.permutations(list(doc["payload"].items()))))
            doc = data.draw(mutated({**doc, "payload": payload}))
            yield None, doc
            yield doc["kind"], doc["payload"]

        self.assert_best_match(steps)

    def test_payload_errors_read_as_best_match(self):
        scenarios, _ = bundled_documents()

        def steps(data):
            doc = data.draw(st.sampled_from(scenarios))
            yield doc["kind"], data.draw(mutated(doc["payload"]))

        self.assert_best_match(steps)

    # the certificate schema as one document with a conditional per kind,
    # the form the envelope-then-kind check replaced: the oracle of its wording
    CONDITIONAL_CERTIFICATE_SCHEMA = {
        "type": "object",
        "required": ["certificate_kind"],
        "properties": {"certificate_kind": {"enum": sorted(cli.CERTIFICATE_FIELDS)}},
        "allOf": [
            {
                "if": {
                    "required": ["certificate_kind"],
                    "properties": {"certificate_kind": {"const": kind}},
                },
                "then": {"required": sorted(fields), "properties": fields},
            }
            for kind, fields in sorted(cli.CERTIFICATE_FIELDS.items())
        ],
    }

    def test_certificate_errors_read_as_under_one_conditional_schema(self):
        _, certificates = bundled_documents()
        schema = self.CONDITIONAL_CERTIFICATE_SCHEMA
        oracle = jsonschema.validators.validator_for(schema)(schema)
        checked = []

        @self.ORACLE
        @given(data=st.data())
        def same_message(data):
            doc = data.draw(mutated(data.draw(st.sampled_from(certificates))))
            error = jsonschema.exceptions.best_match(oracle.iter_errors(doc))
            if error is not None:
                where = "/".join(str(p) for p in error.absolute_path) or "<root>"
                error = f"doc: at {where}: {error.message}"
            try:
                cli._check("doc", "certificate", doc)
                cli._check("doc", ("certificate", doc["certificate_kind"]), doc)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == error, doc
            checked.append(got)

        same_message()
        assert len(checked) >= 300 and sum(m is not None for m in checked) >= 200

    def test_seed_documents_cover_every_kind(self):
        scenarios, certificates = bundled_documents()
        assert {doc["kind"] for doc in scenarios} == set(cli.PAYLOAD_SCHEMAS)
        assert {doc["certificate_kind"] for doc in certificates} == set(cli.CERTIFICATE_FIELDS)

    EDGES = [
        # Python's True == 1 and isinstance(True, int) must not leak through
        (None, {"schema_version": True}, False),
        (None, {"schema_version": 1.0}, True),
        ("hindman-search", {"k": True}, False),
        ("hindman-search", {"k": 2.0}, True),
        ("hindman-search", {"k": 2.5}, False),
        ("hindman-search", {"k": float("nan")}, False),
        ("hindman-search", {"k": 10**40}, True),
        ("hindman-search", {"k": 0.0}, False),
        ("hindman-search", {"coloring": {"W": 1, "colors": [True]}}, True),
        ("hindman-search", {"coloring": {"W": 1, "colors": [[1]]}}, False),
        ("delta-check", {"c_table_max": 12.0}, True),
        ("delta-check", {"c_table_max": 13}, False),
        # pattern searches, so a trailing newline still matches ^...$
        ("delta-check", {"poly": {"nvars": 1, "terms": [{"idx": [1], "coef": "12\n"}]}}, True),
        ("delta-check", {"poly": {"nvars": 1, "terms": [{"idx": [1], "coef": "1 2"}]}}, False),
        ("key-lemma", {"V": {"ambient": 1, "basis": [[False]]}}, False),
        ("certificate", {"certificate_kind": "stable-rank"}, False),
        ("certificate", {"certificate_kind": 1}, False),
    ]

    @pytest.mark.parametrize("index", range(len(EDGES)))
    def test_edge_cases(self, index):
        kind, change, valid = self.EDGES[index]
        scenarios, certificates = bundled_documents()
        if kind is None:
            doc = {**scenarios[0], **change}
        elif kind == "certificate":
            doc = {**certificates[0], **change}
        else:
            doc = {**next(d["payload"] for d in scenarios if d["kind"] == kind), **change}
        assert agrees(kind, doc) is valid

    def test_every_keyword_is_interpreted(self):
        used = [pair for schema in cli.SCHEMAS.values() for pair in schema_keywords(schema)]
        assert {key for key, _ in used} == set(cli.KEYWORDS)
        types = set()
        for key, arg in used:
            if key == "type":
                types.update([arg] if isinstance(arg, str) else arg)
        assert types == set(cli._TYPES)
        with pytest.raises(ValueError, match="'anyOf' is not interpreted"):
            cli._checker({"type": "object", "anyOf": []})

    def test_unknown_keyword_raises_when_the_checker_is_built(self):
        # no document is checked, and none could reach the nested schema
        schema = {"type": "object", "properties": {"never": {"anyOf": []}}}
        with pytest.raises(ValueError, match="'anyOf' is not interpreted"):
            cli._checker(schema)

    @pytest.mark.parametrize("schema", [{"const": [1]}, {"const": {}}, {"enum": [1, [1]]}, {"enum": [{}]}])
    def test_container_const_or_enum_raises_when_the_checker_is_built(self, schema):
        key = next(iter(schema))
        with pytest.raises(ValueError, match=f"'{key}' with a container value is not interpreted"):
            cli._checker({"properties": {"never": schema}})

    def test_check_builds_each_checker_once(self, monkeypatch):
        scenarios, certificates = bundled_documents()
        built = []
        checker = cli._checker

        def counted(schema):
            built.extend(key for key, s in cli.SCHEMAS.items() if s is schema)
            return checker(schema)

        monkeypatch.setattr(cli, "_checker", counted)
        cli._key_checker.cache_clear()
        try:
            for _ in range(2):
                for doc in scenarios:
                    cli._check("doc", None, doc)
                    cli._check("doc", doc["kind"], doc["payload"])
                for doc in certificates:
                    cli._check("doc", "certificate", doc)
                    cli._check("doc", ("certificate", doc["certificate_kind"]), doc)
        finally:
            cli._key_checker.cache_clear()
        assert sorted(map(repr, built)) == sorted(map(repr, cli.SCHEMAS))

    def test_runs_with_jsonschema_blocked(self, tmp_path):
        # jsonschema is the oracle of these tests, not a dependency: with its
        # import blocked a run decides, its certificates verify, and an
        # invalid document is refused in jsonschema's words
        scenarios, _ = bundled_documents()
        doc = next(d for d in scenarios if d["kind"] == "r-epsilon")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "payload": {**doc["payload"], "epsilon": "1/0"}}))
        child = "\n".join(
            [
                "import sys",
                "sys.modules['jsonschema'] = None",
                "from pathlib import Path",
                "from polyrec import cli",
                "out = Path(sys.argv[1])",
                "codes = [cli.main(['run', '--bundled', '--emit-certificates', str(out)])]",
                "codes += [cli.main(['verify-certificate', str(p)]) for p in out.glob('*.json')]",
                "codes += [cli.main(['run', sys.argv[2]])]",
                "print(codes)",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "certs"), str(bad)],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 2]"
        pattern = cli.RATIONAL["pattern"]
        assert proc.stderr == f"error: {bad}: at epsilon: '1/0' does not match {pattern!r}\n"

    def test_valid_documents_never_import_jsonschema(self, tmp_path):
        child = "\n".join(
            [
                "import sys",
                "from pathlib import Path",
                "from polyrec import cli",
                "out = Path(sys.argv[1])",
                "codes = [cli.main(['run', '--bundled', '--emit-certificates', str(out)])]",
                "codes += [cli.main(['verify-certificate', str(p)]) for p in out.glob('*.json')]",
                "print(codes, 'jsonschema' in sys.modules)",
                "(out / 'bad.json').write_text('[]')",
                "codes = [cli.main(['verify-certificate', str(out / 'bad.json')])]",
                "print(codes, 'jsonschema' in sys.modules)",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "certs")],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 0] False", "[2] False"]


RUNNER_MODULES = {"dynamics", "intpoly", "ipstruct", "keyengine", "lattice", "runners", "spectral"}


class TestProcessStart:
    """cli binds the runner modules lazily, so a process executes only the
    modules its command reaches, and no command imports dataclasses.  The
    children run without site (-S), which on some installs imports random
    before any code of polyrec runs."""

    # a module bound lazily and not yet read is still a _LazyModule; vars()
    # or any attribute read would execute it, so only its type is looked at
    CHILD = "\n".join(
        [
            "import importlib.util, json, sys",
            "from pathlib import Path",
            "from polyrec import cli",
            "code = {call}",
            "ran = sorted(n.split('.')[1] for n, m in sys.modules.items()",
            "             if n.startswith('polyrec.') and type(m) is not importlib.util._LazyModule)",
            "stdlib = sorted(m for m in ('argparse', 'dataclasses', 'random') if m in sys.modules)",
            "print(json.dumps([code, ran, stdlib]))",
        ]
    )

    @classmethod
    def executed(cls, call, *argv):
        """(return value of call, polyrec modules executed, argparse,
        dataclasses and random if imported) in a fresh child process."""
        proc = subprocess.run(
            [sys.executable, "-S", "-c", cls.CHILD.format(call=call), *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        code, ran, stdlib = json.loads(proc.stdout.splitlines()[-1])
        return code, set(ran), set(stdlib)

    @pytest.fixture(scope="class")
    def cert_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("certs")
        assert run_in_process("run", "--bundled", "--emit-certificates", str(out))[0] == 0
        return out

    def test_loading_scenarios_runs_no_runner_module(self, tmp_path):
        # the benchmark's set-up child: load and schema-check a directory
        for entry in cli._bundled_entries():
            (tmp_path / entry.name).write_text(entry.read_text())
        call = "len(cli.load_scenarios([Path(sys.argv[1])], False))"
        count, ran, stdlib = self.executed(call, str(tmp_path))
        assert count == len(cli._bundled_entries())
        assert not ran & RUNNER_MODULES and not stdlib, (ran, stdlib)

    def test_schema_runs_no_runner_module(self):
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "schema", "r-epsilon")
        assert code == 0 and ran == {"cli", "errors"}, ran
        assert stdlib == {"argparse"}

    @pytest.mark.parametrize(
        "name, modules",
        [
            ("key-lemma-parabola", {"intpoly", "keyengine", "lattice"}),
            ("spectral-limit-bilinear", {"intpoly", "keyengine", "lattice", "spectral"}),
            ("ip-star-cyclic4-square", {"dynamics", "intpoly", "ipstruct", "keyengine", "lattice"}),
        ],
    )
    def test_writing_outputs_runs_only_the_modules_of_its_kinds(self, tmp_path, name, modules):
        scenario = str(Path(cli.__file__).parent / "scenarios" / f"{name}.json")
        argv = ["run", scenario, "--json", str(tmp_path / "out.json")]
        argv += ["--emit-certificates", str(tmp_path / "certs")]
        code, ran, _stdlib = self.executed("cli.main(sys.argv[1:])", *argv)
        assert code == 0 and (tmp_path / "out.json").exists(), ran
        assert ran == {"cli", "errors", "numutil", "runners", *modules}, ran

    @pytest.mark.parametrize("name", ["key-lemma-parabola", "stable-rank-parabola"])
    def test_algebra_certificates_skip_the_recurrence_modules(self, cert_dir, name):
        path = str(cert_dir / f"{name}.cert.json")
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "verify-certificate", path)
        assert code == 0 and ran & RUNNER_MODULES == {"intpoly", "keyengine", "lattice"}, ran
        assert "dataclasses" not in stdlib

    def test_algebra_certificates_never_import_fractions(self, cert_dir):
        # intpoly builds a Fraction only in from_monomial_coeffs, which no
        # command reaches, so the integer-only kinds skip the import
        child = "\n".join(
            [
                "import sys",
                "from polyrec import cli",
                "codes = [cli.main(['verify-certificate', p]) for p in sys.argv[1:]]",
                "numeric = ('decimal', 'fractions', 'numbers')",
                "print(codes, sorted(m for m in numeric if m in sys.modules))",
            ]
        )
        names = ["key-lemma-parabola", "stable-rank-parabola"]
        proc = subprocess.run(
            [sys.executable, "-S", "-c", child, *(str(cert_dir / f"{n}.cert.json") for n in names)],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"

    @pytest.mark.parametrize(
        "name", ["key-lemma-parabola", "stable-rank-parabola", "spectral-limit-bilinear"]
    )
    def test_verifying_a_certificate_runs_no_scenario_runner(self, cert_dir, name):
        path = str(cert_dir / f"{name}.cert.json")
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "verify-certificate", path)
        assert code == 0 and "runners" not in ran and "random" not in stdlib, (ran, stdlib)

    def test_no_command_imports_dataclasses(self, cert_dir, tmp_path):
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "run", "--bundled")
        assert code == 0 and ran >= RUNNER_MODULES and "dataclasses" not in stdlib
        path = str(cert_dir / "spectral-limit-bilinear.cert.json")
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "verify-certificate", path)
        assert code == 0 and "dataclasses" not in stdlib
        code, _ran, stdlib = self.executed("cli.main(sys.argv[1:])", "list-scenarios")
        assert code == 0 and "dataclasses" not in stdlib


class TestIntegralFloats:
    """A schema-valid 2.0 where an integer is expected reads as 2."""

    @staticmethod
    def run_doc(tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _out, err = run_in_process("run", str(path), "--json", str(tmp_path / "r.json"))
        report = canonical(json.loads((tmp_path / "r.json").read_text())) if code != 2 else err
        return code, report

    def test_scenarios(self, tmp_path):
        scenarios, _ = bundled_documents()
        leaves = 0
        for doc in scenarios:
            expected = self.run_doc(tmp_path, doc)
            for path, value in positions(doc):
                if type(value) is int:
                    code, report = self.run_doc(tmp_path, put(doc, path, float(value)))
                    assert code == expected[0], path
                    # a color is any JSON scalar, and 1.0 is another color than 1
                    if "colors" not in path:
                        assert report == expected[1], (doc["id"], path)
                    leaves += 1
        assert leaves

    def test_certificates(self, tmp_path):
        _, certificates = bundled_documents()
        path = tmp_path / "cert.json"
        leaves = 0
        for doc in certificates:
            for where, value in positions(doc):
                if type(value) is int:
                    path.write_text(json.dumps(put(doc, where, float(value))))
                    code, out, _err = run_in_process("verify-certificate", str(path))
                    assert (code, out) == (0, f"certificate verified: {doc['certificate_kind']}\n")
                    leaves += 1
        assert leaves
