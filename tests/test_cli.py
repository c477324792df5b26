"""Integration tests for the scenario runner and certificate verifier."""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import child_env
from polyrec import cli
from polyrec import intpoly as ip
from polyrec import jsonout
from polyrec import lattice as lat
from polyrec.errors import InputError
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


def run_in_process(*argv):
    """cli.main with captured output; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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


BIG_INTS = st.integers(-(10**30), 10**30)
INT_OR_BOOL = st.one_of(BIG_INTS, st.booleans())


def int_rows(cells):
    """Lists of equal-length lists of cells."""
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), max_size=6)
    )


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    BIG_INTS,
    st.floats(),  # nan and the infinities too
    st.text(),  # non-ASCII and control characters too
    st.lists(BIG_INTS),
    st.lists(INT_OR_BOOL),
    int_rows(BIG_INTS),
    int_rows(INT_OR_BOOL),
    st.lists(st.lists(BIG_INTS), max_size=6),  # ragged
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(st.integers(-100, 100), children, max_size=5),
    ),
    max_leaves=25,
)


class TestWriter:
    """``jsonout.dumps`` writes what ``json.dumps(indent=2, sort_keys=True)`` does."""

    @settings(max_examples=400, deadline=None)
    @given(doc=JSON_DOCS)
    @example(doc=[[1, True], [0, False]])
    @example(doc=[True, 1, False])
    @example(doc={"wall_time_ms": 12.5, "x": [float("nan"), float("inf"), -0.0]})
    @example(doc={10: [], 2: {}, -1: "\x00\x1fé \U0001f600\"\\"})
    @example(doc={"members": [[0, 1], [2, 3]], "period": [4, 4], "table": "a\n  b"})
    def test_matches_json_dumps(self, doc):
        assert jsonout.dumps(doc) == indented(doc)

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
            assert text == indented(json.loads(text)) + "\n", path.name

    def test_schemas(self):
        for kind, schema in cli.PAYLOAD_SCHEMAS.items():
            assert run_in_process("schema", kind)[1] == indented(schema) + "\n", kind


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

    def test_ip_star_caps_are_checked_before_the_lift(self, tmp_path):
        # the lift spans 1..max(W * k, 2 lcm N), so a huge W or k used to
        # build it for ever before the window search refused the caps
        for key, message in (("W", "window"), ("k", "tuple length")):
            payload = {**R_EPSILON, "k": 2, "W": 8, key: 10**9}
            path = scenario_file(tmp_path / f"big-{key}.json", "ip-star", payload)
            proc = run_cli("run", str(path), timeout=30)
            assert proc.returncode == 2 and "Traceback" not in proc.stderr, key
            assert f"{message} 1000000000 outside 1.." in proc.stderr

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


class TestDeltaCheckCap:
    def test_dense_four_variable_degree_eight_is_refused(self, tmp_path):
        payload = {"poly": dense_poly(4, 8), "recursion_max_s": 4}
        path = scenario_file(tmp_path / "dense4.json", "delta-check", payload)
        start = time.perf_counter()
        code, out, err = run_in_process("run", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "delta-check expands 1759345 rows, cap is 1000000" in err

    def test_dense_one_variable_degree_eight_decides(self, tmp_path):
        payload = {"poly": dense_poly(1, 8), "recursion_max_s": 4}
        path = scenario_file(tmp_path / "dense1.json", "delta-check", payload)
        code, out, err = run_in_process("run", str(path))
        assert code == 0 and "HOLDS" in out, err
        # 42 rows for delta(f, 2) in the identities, then 2 * (42 + 155 + 460)
        code, out, err = run_in_process("run", str(path), "--cap", "1355")
        assert code == 2 and "delta-check expands 1356 rows, cap is 1355" in err
        assert run_in_process("run", str(path), "--cap", "1356")[0] == 0

    def test_random_suite_is_not_counted(self, tmp_path):
        payload = {"random": {"count": 3, "nvars": 3, "max_degree": 4}}
        path = scenario_file(tmp_path / "suite.json", "delta-check", payload)
        assert run_in_process("run", str(path), "--cap", "1")[0] == 0


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
    """Windows and tuple lengths up to one past their caps; colors drawn
    from two or three of 1, true, 1.0, 0, false, "1" and null, some of which
    Python compares equal although their JSON texts differ; now and then a
    color list of the wrong length."""
    w = draw(st.integers(1, 13))
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
    @given(payload=delta_payloads(), cap=st.sampled_from([1, 200, 5000]))
    def test_delta_check(self, tmp_path_factory, payload, cap):
        jsonschema.validate(payload, cli.PAYLOAD_SCHEMAS["delta-check"])
        path = scenario_file(tmp_path_factory.mktemp("fuzz") / "dc.json", "delta-check", payload)
        code, _out, err = run_in_process("run", str(path), "--cap", str(cap), "--jobs", "1")
        assert code in (0, 1, 2) and "Traceback" not in err

    @FUZZ
    @example(epsilon="1/0", weight="1/4")
    @example(epsilon="0", weight="1/00")
    @given(epsilon=RATIONALS, weight=st.one_of(st.just("1/4"), st.just("02/8"), RATIONALS))
    def test_r_epsilon_rationals(self, tmp_path_factory, epsilon, weight):
        system = {**R_EPSILON["system"], "weights": {**R_EPSILON["system"]["weights"], "0": weight}}
        payload = {**R_EPSILON, "system": system, "epsilon": epsilon}
        path = scenario_file(tmp_path_factory.mktemp("fuzz") / "re.json", "r-epsilon", payload)
        code, _out, err = run_in_process("run", str(path), "--jobs", "1")
        assert code in (0, 1, 2) and "Traceback" not in err
        if re.search(r"/0+$", epsilon) or re.search(r"/0+$", weight):
            assert code == 2 and "does not match" in err

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
            assert w > 12 or k > 4 or len(colors) != w
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


def agrees(kind, doc):
    """The checker's verdict on doc, asserted equal to jsonschema's.  A
    certificate is decided as its envelope and then the schema of its kind,
    each step compared."""
    accepted = cli._accepts(cli.SCHEMAS[kind], doc)
    assert accepted == cli._validator(kind).is_valid(doc), (kind, doc)
    if kind == "certificate" and accepted:
        return agrees(("certificate", doc["certificate_kind"]), doc)
    return accepted


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
            cli._accepts({"type": "object", "anyOf": []}, {})

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
        assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 0] False", "[2] True"]


RUNNER_MODULES = {"dynamics", "intpoly", "ipstruct", "keyengine", "lattice", "spectral"}


class TestProcessStart:
    """cli binds the runner modules lazily, so a process executes only the
    modules its command reaches, and no command imports dataclasses."""

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
            "stdlib = sorted(m for m in ('argparse', 'dataclasses') if m in sys.modules)",
            "print(json.dumps([code, ran, stdlib]))",
        ]
    )

    @classmethod
    def executed(cls, call, *argv):
        """(return value of call, polyrec modules executed, argparse and
        dataclasses if imported) in a fresh child process."""
        proc = subprocess.run(
            [sys.executable, "-c", cls.CHILD.format(call=call), *argv],
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
        assert code == 0 and not ran & RUNNER_MODULES, ran
        assert stdlib == {"argparse"}

    @pytest.mark.parametrize("name", ["key-lemma-parabola", "stable-rank-parabola"])
    def test_algebra_certificates_skip_the_recurrence_modules(self, cert_dir, name):
        path = str(cert_dir / f"{name}.cert.json")
        code, ran, stdlib = self.executed("cli.main(sys.argv[1:])", "verify-certificate", path)
        assert code == 0 and ran & RUNNER_MODULES == {"intpoly", "keyengine", "lattice"}, ran
        assert "dataclasses" not in stdlib

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
