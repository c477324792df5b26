"""Batch front door: scenario files in, verdicts and certificates out.

A scenario is a JSON document {"schema_version": 1, "id": ..., "kind": ...,
"payload": {...}}; payloads are validated against per-kind JSON schemas
before dispatch.  Reports are reproducible: identical inputs give identical
bytes apart from the wall-time field.  Scenarios run one after another;
--jobs is accepted and ignored.

Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 input error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import math
import random
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import (
    SWEEP_CAP,
    CheckFailed,
    InputError,
    PolyrecError,
    SweepCapExceeded,
    VerificationFailed,
)


def _lazy(name: str):
    """The submodule ``polyrec.<name>``, executed when an attribute of it is
    first read, so a command runs only the modules its kinds need."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


dynamics = _lazy("dynamics")
intpoly = _lazy("intpoly")
ipstruct = _lazy("ipstruct")
jsonout = _lazy("jsonout")
keyengine = _lazy("keyengine")
lattice = _lazy("lattice")
spectral = _lazy("spectral")

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/0*[1-9][0-9]*)?$"}
INTEGER_STRING = {"type": "string", "pattern": r"^-?[0-9]+$"}

BINPOLY_SCHEMA = {
    "type": "object",
    "required": ["nvars", "terms"],
    "properties": {
        "nvars": {"type": "integer", "minimum": 1},
        "basis": {"const": "binomial"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["idx", "coef"],
                "properties": {
                    "idx": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "coef": INTEGER_STRING,
                },
            },
        },
    },
}

LATTICE_SCHEMA = {
    "type": "object",
    "required": ["ambient", "basis"],
    "properties": {
        "ambient": {"type": "integer", "minimum": 1},
        "basis": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
}

SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["points", "weights", "maps"],
    "properties": {
        "points": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "weights": {"type": "object", "additionalProperties": RATIONAL},
        "maps": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": {"type": "string"}},
        },
    },
}

UNITARY_SCHEMA = {
    "type": "object",
    "required": ["phases"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "ops": {"type": "integer", "minimum": 1},
        "phases": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": RATIONAL, "minItems": 1},
        },
    },
}

POLYS = {"type": "array", "items": BINPOLY_SCHEMA, "minItems": 1}

PAYLOAD_SCHEMAS: Dict[str, dict] = {
    "khintchine": {
        "schema_version": 1,
        "type": "object",
        "required": ["system", "A", "fs"],
        "additionalProperties": False,
        "properties": {
            "system": SYSTEM_SCHEMA,
            "A": {"type": "array", "items": {"type": "string"}},
            "fs": POLYS,
        },
    },
    "r-epsilon": {
        "schema_version": 1,
        "type": "object",
        "required": ["system", "A", "fs", "epsilon"],
        "additionalProperties": False,
        "properties": {
            "system": SYSTEM_SCHEMA,
            "A": {"type": "array", "items": {"type": "string"}},
            "fs": POLYS,
            "epsilon": RATIONAL,
        },
    },
    "ip-star": {
        "schema_version": 1,
        "type": "object",
        "required": ["system", "A", "fs", "epsilon", "k", "W"],
        "additionalProperties": False,
        "properties": {
            "system": SYSTEM_SCHEMA,
            "A": {"type": "array", "items": {"type": "string"}},
            "fs": POLYS,
            "epsilon": RATIONAL,
            "k": {"type": "integer", "minimum": 1},
            "W": {"type": "integer", "minimum": 1},
        },
    },
    "key-lemma": {
        "schema_version": 1,
        "type": "object",
        "required": ["v", "V", "hypothesis"],
        "additionalProperties": False,
        "properties": {
            "v": POLYS,
            "V": LATTICE_SCHEMA,
            "hypothesis": LATTICE_SCHEMA,
        },
    },
    "stable-rank": {
        "schema_version": 1,
        "type": "object",
        "required": ["v", "window"],
        "additionalProperties": False,
        "properties": {
            "v": POLYS,
            "window": {"type": "integer", "minimum": 1},
        },
    },
    "spectral-limit": {
        "schema_version": 1,
        "type": "object",
        "required": ["unitary", "fs"],
        "additionalProperties": False,
        "properties": {
            "unitary": UNITARY_SCHEMA,
            "fs": POLYS,
        },
    },
    "delta-check": {
        "schema_version": 1,
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "poly": BINPOLY_SCHEMA,
            "recursion_max_s": {"type": "integer", "minimum": 2, "maximum": 4},
            "c_table_max": {"type": "integer", "minimum": 1, "maximum": 12},
            "random": {
                "type": "object",
                "required": ["count", "nvars", "max_degree"],
                "additionalProperties": False,
                "properties": {
                    "count": {"type": "integer", "minimum": 1, "maximum": 1000},
                    "nvars": {"type": "integer", "minimum": 1, "maximum": 3},
                    "max_degree": {"type": "integer", "minimum": 1, "maximum": 4},
                    "coeff_bound": {"type": "integer", "minimum": 1, "maximum": 99},
                },
            },
        },
    },
    "hindman-search": {
        "schema_version": 1,
        "type": "object",
        "required": ["coloring", "k"],
        "additionalProperties": False,
        "properties": {
            "coloring": {
                "type": "object",
                "required": ["W", "colors"],
                "properties": {
                    "W": {"type": "integer", "minimum": 1},
                    "colors": {
                        "type": "array",
                        "items": {"not": {"type": ["array", "object"]}},
                    },
                },
            },
            "k": {"type": "integer", "minimum": 1},
        },
    },
}

SCENARIO_SCHEMA = {
    "schema_version": 1,
    "type": "object",
    "required": ["schema_version", "id", "kind", "payload"],
    "properties": {
        "schema_version": {"const": 1},
        "id": {"type": "string", "minLength": 1},
        "kind": {"enum": sorted(PAYLOAD_SCHEMAS)},
        "payload": {"type": "object"},
    },
}


# The fields of each certificate kind, all of them required.
CERTIFICATE_FIELDS: Dict[str, dict] = {
    "key-lemma": {"v": POLYS, "V": LATTICE_SCHEMA, "witness": LATTICE_SCHEMA},
    "stable-rank": {
        "v": POLYS,
        "r": {"type": "integer", "minimum": 0},
        "samples": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
        "V": LATTICE_SCHEMA,
        "saturation_window": {"type": "integer", "minimum": 1},
    },
    "spectral-limit": {"unitary": UNITARY_SCHEMA, "fs": POLYS, "lattice": LATTICE_SCHEMA},
}

# The envelope of a certificate document; the fields of its kind are checked
# after it, as a scenario's payload is checked after its envelope.
CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["certificate_kind"],
    "properties": {"certificate_kind": {"enum": sorted(CERTIFICATE_FIELDS)}},
}

# Every schema by the key _check takes: None for the scenario envelope, a
# payload kind, "certificate" for the certificate envelope, and
# ("certificate", kind) for the fields of a certificate kind.
SCHEMAS: Dict[object, dict] = {
    None: SCENARIO_SCHEMA,
    **PAYLOAD_SCHEMAS,
    "certificate": CERTIFICATE_SCHEMA,
    **{
        ("certificate", kind): {"required": sorted(fields), "properties": fields}
        for kind, fields in CERTIFICATE_FIELDS.items()
    },
}


# ---------------------------------------------------------------------------
# Schema checking: the keywords of the schemas above, as JSON Schema 2020-12
# defines them and jsonschema decides them
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # true is not an integer, but 2.0 is
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality as jsonschema decides it: true is not 1, 1.0 is 1."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _properties(props, x, schema) -> bool:
    return not isinstance(x, dict) or all(k not in x or _accepts(s, x[k]) for k, s in props.items())


def _additional(extra, x, schema) -> bool:
    named = schema.get("properties", {})
    return not isinstance(x, dict) or all(_accepts(extra, v) for k, v in x.items() if k not in named)


# keyword -> test(argument, instance, enclosing schema), for the 14 keywords
# the schemas above use; only "additionalProperties" reads the enclosing
# schema.  Each keyword but "type", "const", "enum" and "not" ignores
# instances of other types.
KEYWORDS = {
    "type": lambda t, x, s: any(_TYPES[name](x) for name in ([t] if isinstance(t, str) else t)),
    "required": lambda names, x, s: not isinstance(x, dict) or all(n in x for n in names),
    "properties": _properties,
    "additionalProperties": _additional,
    "items": lambda item, x, s: not isinstance(x, list) or all(_accepts(item, e) for e in x),
    "minItems": lambda n, x, s: not isinstance(x, list) or len(x) >= n,
    "minLength": lambda n, x, s: not isinstance(x, str) or len(x) >= n,
    # "not x < m" rather than "x >= m", as jsonschema compares (NaN passes)
    "minimum": lambda m, x, s: not (_is_number(x) and x < m),
    "maximum": lambda m, x, s: not (_is_number(x) and x > m),
    # re.search, not re.fullmatch: "12\n" matches ^-?[0-9]+$
    "pattern": lambda p, x, s: not isinstance(x, str) or re.search(p, x) is not None,
    "const": lambda c, x, s: _equal(x, c),
    "enum": lambda options, x, s: any(_equal(x, o) for o in options),
    "not": lambda sub, x, s: not _accepts(sub, x),
    "schema_version": lambda v, x, s: True,  # an annotation of this package
}


def _accepts(schema, x) -> bool:
    """Whether x is valid under schema.  A keyword outside KEYWORDS raises,
    so a schema edit cannot be silently ignored."""
    if isinstance(schema, bool):
        return schema
    for key, arg in schema.items():
        test = KEYWORDS.get(key)
        if test is None:
            raise ValueError(f"schema keyword {key!r} is not interpreted")
        if not test(arg, x, schema):
            return False
    return True


# ---------------------------------------------------------------------------
# Scenario runners: payload -> (verdict, details, certificate-or-None)
# ---------------------------------------------------------------------------


def _recurrence_input(payload):
    """The system and the query of a recurrence payload (khintchine has no epsilon)."""
    sys_ = dynamics.system_from_json(payload["system"])
    fs = [intpoly.from_json(p) for p in payload["fs"]]
    return sys_, dynamics.recurrence_query(payload["A"], fs, payload.get("epsilon", 0))


def _run_khintchine(payload, cap, seed):
    rep = dynamics.verify_khintchine(*_recurrence_input(payload))
    details = {
        "sup": str(rep.sup_value),
        "bound": str(rep.bound),
        "witness_residue": list(rep.witness_residue),
        "period": list(rep.period),
    }
    return rep.holds, details, None


def _residue_details(verdict: dynamics.ResidueVerdict) -> dict:
    """The threshold set of a swept verdict; members in the order of its
    rows, which is lexicographic."""
    return {
        "period": list(verdict.period),
        "members": [list(z) for z, _, k in verdict.rows if verdict.holds[k]],
        "member_count": len(verdict.members),
        "epsilon": str(verdict.epsilon),
        "mu_a": str(verdict.mu_a),
        "mu_a_sq": str(verdict.mu_a_sq),
    }


def _run_r_epsilon(payload, cap, seed):
    sys_, query = _recurrence_input(payload)
    verdict = dynamics.r_epsilon(sys_, query, cap=cap)
    details = _residue_details(verdict)
    details["table"] = dynamics.residue_table(verdict)
    zero = (0,) * query.fs[0].nvars
    return zero in verdict.members, details, None


def _run_ip_star(payload, cap, seed):
    sys_, query = _recurrence_input(payload)
    verdict = dynamics.r_epsilon(sys_, query, cap=cap)
    k, w = int(payload["k"]), int(payload["W"])
    window = dynamics.ip_star_verdict(verdict, k, w)
    details = _residue_details(verdict)
    details.update(
        {
            "ip_star": {
                "holds": window.ip_star.holds,
                "witness": list(window.ip_star.witness) if window.ip_star.witness else None,
            },
            "syndetic_gap": window.gap,
            "horizon": window.horizon,
            "window": {"k": k, "W": w},
        }
    )
    return window.ip_star.holds and window.gap is not None, details, None


def _run_key_lemma(payload, cap, seed):
    v = intpoly.polytuple_from_json(payload["v"])
    target = lattice.from_json(payload["V"])
    hypothesis = lattice.from_json(payload["hypothesis"])
    inst = keyengine.key_instance(v, target)
    witness = keyengine.key_lemma_lattice(inst, hypothesis)
    details = {
        "witness": lattice.to_json(witness),
        "witness_index": lattice.index(witness),
    }
    return True, details, keyengine.key_certificate_json(inst, witness)


def _run_stable_rank(payload, cap, seed):
    v = intpoly.polytuple_from_json(payload["v"])
    cert = keyengine.stable_rank_subgroup(v, int(payload["window"]), cap=cap)
    details = {
        "r": cert.r,
        "samples": [list(pt) for pt in cert.samples],
        "V": lattice.to_json(cert.V),
        "saturation_window": cert.saturation_window,
    }
    return True, details, keyengine.rank_certificate_json(v, cert)


def _run_spectral_limit(payload, cap, seed):
    u = spectral.from_json(payload["unitary"])
    fs = [intpoly.from_json(p) for p in payload["fs"]]
    desc = spectral.limit_projection(u, fs)
    details = {
        "fixed": sorted(desc.fixed),
        "is_identity": len(desc.fixed) == u.dim,
        "certificate": lattice.to_json(desc.certificate),
        "phase_order": spectral.phase_lcm(u),
    }
    certificate = {
        "certificate_kind": "spectral-limit",
        "unitary": spectral.to_json(u),
        "fs": [intpoly.to_json(f) for f in fs],
        "lattice": lattice.to_json(desc.certificate),
    }
    return True, details, certificate


def _random_binpoly(rng: random.Random, nvars: int, max_degree: int, bound: int):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            idx = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if 0 < sum(idx) <= max_degree:
                break
        coef = rng.randint(-bound, bound)
        if coef:
            terms[idx] = coef
    terms[(0,) * nvars] = rng.randint(-bound, bound)
    f = intpoly.binpoly(nvars, terms)
    if f.degree < 1:
        idx = (1,) + (0,) * (nvars - 1)
        f = intpoly.add(f, intpoly.binpoly(nvars, {idx: 1}))
    return f


def _delta_identities(f) -> Tuple[bool, dict]:
    d = max(f.degree, 0)
    collapsed = intpoly.delta(f, d + 1)
    expected_value = (-1) ** d * f.constant_term()
    expected = intpoly.constant((d + 1) * f.nvars, expected_value)
    constant_ok = collapsed == expected
    drop_ok = True
    if d >= 1:
        doubled = intpoly.delta(f, 2)
        n = f.nvars
        for block in (range(n), range(n, 2 * n)):
            if intpoly.degree_in_vars(doubled, block) >= d:
                drop_ok = False
    return constant_ok and drop_ok, {
        "constant_collapse": constant_ok,
        "collapsed_value": str(expected_value),
        "block_degree_drop": drop_ok,
    }


def _recursion_consistent(f, max_s: int) -> bool:
    """delta(f, s) equals the recursion at every 2 <= s <= max_s.  The chain
    of recursion levels is built once, and stops at the first mismatch."""
    level = f
    for s in range(2, max_s + 1):
        level = intpoly.delta_recursive(f, s, level)
        if intpoly.delta(f, s) != level:
            return False
    return True


def _run_delta_check(payload, cap, seed):
    details = {}
    ok = True
    if "poly" in payload:
        f = intpoly.from_json(payload["poly"])
        max_s = int(payload.get("recursion_max_s", 3))
        # delta(f, d + 1) expands no row; delta(f, 2) is expanded once for the
        # identities, then delta and delta_recursive once each per s.  The
        # random suite is not counted: its schema bounds it to polynomials
        # in at most 3 variables of degree at most 4.
        rows = intpoly.delta_rows(f, 2)
        rows += 2 * sum(intpoly.delta_rows(f, s) for s in range(2, max_s + 1))
        if rows > cap:
            raise SweepCapExceeded(f"delta-check expands {rows} rows, cap is {cap}")
        good, info = _delta_identities(f)
        ok &= good
        details["poly"] = info
        rec = _recursion_consistent(f, max_s)
        ok &= rec
        details["recursion_consistent"] = rec
    if "c_table_max" in payload:
        top = int(payload["c_table_max"])
        diag = all(intpoly.c_number(m, m) == math.factorial(m) for m in range(1, top + 1))
        zeros = all(
            intpoly.c_number(s, m) == 0
            for m in range(1, top + 1)
            for s in range(m + 1, top + 1)
        )
        ok &= diag and zeros
        details["c_table"] = {"factorial_diagonal": diag, "upper_zeros": zeros}
    if "random" in payload:
        params = payload["random"]
        count, nvars, max_degree = (int(params[k]) for k in ("count", "nvars", "max_degree"))
        bound = int(params.get("coeff_bound", 9))
        rng = random.Random(seed)
        failures = 0
        for _ in range(count):
            f = _random_binpoly(rng, nvars, max_degree, bound)
            good, _info = _delta_identities(f)
            failures += 0 if good else 1
        ok &= failures == 0
        details["random"] = {"count": count, "failures": failures, "seed": seed}
    return ok, details, None


def _run_hindman_search(payload, cap, seed):
    coloring = ipstruct.coloring_from_json(payload["coloring"])
    witness = ipstruct.find_monochromatic_fs(coloring, int(payload["k"]))
    # the search returns a tuple only once its sums pass the one-color test,
    # and None only after it has visited every tuple
    if witness is None:
        return True, {"witness": None, "verified_by_exhaustion": True}, None
    details = {
        "witness": list(witness.generators),
        "subset_sums": sorted(ipstruct.fs_expand(witness)),
        "verified": True,
    }
    return True, details, None


RUNNERS = {
    "khintchine": _run_khintchine,
    "r-epsilon": _run_r_epsilon,
    "ip-star": _run_ip_star,
    "key-lemma": _run_key_lemma,
    "stable-rank": _run_stable_rank,
    "spectral-limit": _run_spectral_limit,
    "delta-check": _run_delta_check,
    "hindman-search": _run_hindman_search,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _jsonable(value):
    from fractions import Fraction

    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (Fraction,)):
        return str(value)
    return value


@functools.lru_cache(maxsize=None)
def _validator(key):
    """Compiled jsonschema validator of ``SCHEMAS[key]``.

    Only a document that :func:`_accepts` rejects reaches this, so a run
    of valid documents never imports jsonschema.  The schemas are
    constants of this module, so the tests check them against their
    meta-schema; loading the meta-schema on every run would cost more
    than validating a document.
    """
    import jsonschema

    schema = SCHEMAS[key]
    return jsonschema.validators.validator_for(schema)(schema)


def _check(source: str, key, doc) -> None:
    """Raise :class:`InputError` naming source unless doc is valid under
    ``SCHEMAS[key]``.

    The error is jsonschema's, worded "at PATH: MESSAGE" and picked with
    ``best_match`` exactly as ``jsonschema.validate`` picks it.  Should
    jsonschema find none where :func:`_accepts` rejected, the document is
    accepted.  A document nested too deeply to check is an input error.
    """
    try:
        if _accepts(SCHEMAS[key], doc):
            return
        from jsonschema.exceptions import best_match

        error = best_match(_validator(key).iter_errors(doc))
    except RecursionError as exc:
        raise InputError(f"{source}: {exc}") from None
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise InputError(f"{source}: at {where}: {error.message}")


def _read_json(source: str, path):
    """The JSON document at path; a file that cannot be read or parsed, or
    is nested too deeply to parse, is an :class:`InputError` naming source."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise InputError(f"{source}: invalid JSON ({exc})") from None
    except (OSError, RecursionError) as exc:
        raise InputError(f"{source}: {exc}") from None


@contextlib.contextmanager
def _writing(path):
    """An :class:`OSError` inside the block is an :class:`InputError` naming path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write(path: Path, doc) -> None:
    """Write doc as indented, key-sorted JSON (:func:`jsonout.dumps`); a
    path that cannot be written is an :class:`InputError`."""
    with _writing(path):
        path.write_text(jsonout.dumps(doc) + "\n")


def _bundled_entries():
    """The bundled scenario files, by name."""
    from importlib import resources

    root = resources.files("polyrec") / "scenarios"
    return [e for e in sorted(root.iterdir(), key=lambda e: e.name) if e.name.endswith(".json")]


def load_scenarios(paths: List[Path], bundled: bool) -> List[Tuple[str, dict]]:
    """Collect (source, scenario) pairs, sorted by scenario id."""
    files: List[Tuple[str, Path]] = []
    if bundled:
        files.extend((f"bundled:{entry.name}", entry) for entry in _bundled_entries())
    for path in paths:
        if path.is_dir():
            files.extend((str(p), p) for p in sorted(path.glob("*.json")))
        elif path.exists():
            files.append((str(path), path))
        else:
            raise InputError(f"{path}: no such file or directory")
    scenarios = []
    seen = set()
    for source, path in files:
        doc = _read_json(source, path)
        _check(source, None, doc)
        _check(source, doc["kind"], doc["payload"])
        if doc["id"] in seen:
            raise InputError(f"{source}: duplicate scenario id {doc['id']!r}")
        seen.add(doc["id"])
        scenarios.append((source, doc))
    scenarios.sort(key=lambda item: item[1]["id"])
    return scenarios


def run_scenario(source: str, doc: dict, cap: int, seed: int) -> dict:
    start = time.perf_counter()
    runner = RUNNERS[doc["kind"]]
    certificate = None
    try:
        verdict, details, certificate = runner(doc["payload"], cap=cap, seed=seed)
    except CheckFailed as exc:
        verdict = False
        details = {
            "error": type(exc).__name__,
            "message": str(exc),
            "witness": _jsonable(exc.witness),
        }
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "id": doc["id"],
        "kind": doc["kind"],
        "verdict": "holds" if verdict else "fails",
        "details": details,
        "certificate": certificate,
        "wall_time_ms": round(elapsed_ms, 3),
    }


def _format_text(report: dict) -> str:
    lines = [f"== {report['id']} [{report['kind']}] {report['verdict'].upper()}"]
    details = report["details"]
    table = details.get("table")
    for key in sorted(details):
        if key == "table":
            continue
        lines.append(f"   {key}: {json.dumps(details[key], sort_keys=True)}")
    if table:
        lines.append("   " + table.replace("\n", "\n   "))
    return "\n".join(lines)


def cmd_run(args) -> int:
    scenarios = load_scenarios([Path(p) for p in args.paths], args.bundled)
    if not scenarios:
        raise InputError("no scenarios given (pass files, a directory, or --bundled)")
    # outputs are made ready before any scenario runs, so a path that cannot
    # be written is refused without the work; appending keeps an old report
    if args.emit_certificates:
        outdir = Path(args.emit_certificates)
        with _writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
    created = False
    if args.json:
        with _writing(args.json):
            created = not Path(args.json).exists()
            Path(args.json).open("a").close()
    try:
        reports = [run_scenario(source, doc, args.cap, args.seed) for source, doc in scenarios]
        for report in reports:
            print(_format_text(report))
        if args.emit_certificates:
            for report in reports:
                if report["certificate"] is not None:
                    cert_doc = {"schema_version": 1, **report["certificate"]}
                    _write(outdir / f"{report['id']}.cert.json", cert_doc)
        if args.json:
            doc = {
                "schema_version": 1,
                "reports": [
                    {k: v for k, v in report.items() if k != "certificate"}
                    for report in reports
                ],
            }
            _write(Path(args.json), doc)
    except BaseException:
        # a report file this run created is not left behind empty
        if created:
            Path(args.json).unlink(missing_ok=True)
        raise
    return 0 if all(r["verdict"] == "holds" for r in reports) else 1


def _require_finite_index(lat: lattice.Lattice, field: str) -> None:
    """A key-lemma witness and a spectral-limit lattice claim finite index."""
    if lattice.index(lat) is None:
        raise VerificationFailed(
            witness=lat.rank,
            message=f"certificate {field} has rank {lat.rank} in Z^{lat.ambient}, "
            "so its index is infinite",
        )


def cmd_verify_certificate(args) -> int:
    path = Path(args.certificate)
    doc = _read_json(str(path), path)
    _check(str(path), "certificate", doc)
    kind = doc["certificate_kind"]
    _check(str(path), ("certificate", kind), doc)
    try:
        if kind == "key-lemma":
            _require_finite_index(lattice.from_json(doc["witness"]), "witness")
            keyengine.verify_key_certificate_json(doc)
        elif kind == "stable-rank":
            keyengine.verify_rank_certificate_json(doc)
        else:
            u = spectral.from_json(doc["unitary"])
            fs = [intpoly.from_json(f) for f in doc["fs"]]
            cert = lattice.from_json(doc["lattice"])
            _require_finite_index(cert, "lattice")
            spectral.verify_limit_certificate(u, fs, cert)
    except (InputError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from None
    print(f"certificate verified: {kind}")
    return 0


def cmd_list_scenarios(args) -> int:
    for entry in _bundled_entries():
        doc = _read_json(f"bundled:{entry.name}", entry)
        print(f"{doc['id']}  [{doc['kind']}]  bundled:{entry.name}")
    return 0


def cmd_schema(args) -> int:
    if args.kind not in PAYLOAD_SCHEMAS:
        raise InputError(
            f"unknown kind {args.kind!r}; choose from {', '.join(sorted(PAYLOAD_SCHEMAS))}"
        )
    print(jsonout.dumps(PAYLOAD_SCHEMAS[args.kind]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="polyrec",
        description="Exact verification scenarios: polynomial differences, lattice "
        "witnesses, subset-sum windows, recurrence on finite systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenario files or directories")
    run_p.add_argument("paths", nargs="*", help="scenario files or directories")
    run_p.add_argument("--bundled", action="store_true", help="include the bundled corpus")
    run_p.add_argument("--json", metavar="PATH", help="also write a JSON report document")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored: scenarios always run one after another",
    )
    run_p.add_argument(
        "--cap",
        type=int,
        default=SWEEP_CAP,
        help="budget of the r-epsilon and ip-star sweeps (grid points plus |A| * m steps per "
        "exponent key), the stable-rank window and delta-check difference expansions (rows)",
    )
    run_p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    run_p.add_argument(
        "--emit-certificates", metavar="DIR", help="write re-verifiable certificates"
    )
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify-certificate", help="re-verify an emitted certificate")
    ver_p.add_argument("certificate", help="certificate JSON file")
    ver_p.set_defaults(func=cmd_verify_certificate)

    list_p = sub.add_parser("list-scenarios", help="list the bundled scenario corpus")
    list_p.set_defaults(func=cmd_list_scenarios)

    schema_p = sub.add_parser("schema", help="print the JSON schema for a scenario kind")
    schema_p.add_argument("kind")
    schema_p.set_defaults(func=cmd_schema)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except PolyrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
