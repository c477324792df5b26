"""Batch front door: scenario files in, verdicts and certificates out.

A scenario is a JSON document {"schema_version": 1, "id": ..., "kind": ...,
"payload": {...}}; payloads are validated against per-kind JSON schemas
before dispatch to the runner of their kind (:mod:`polyrec.runners`).
Reports and certificates are one line of compact, key-sorted JSON, with
no space after a separator, and reproducible: identical inputs give
identical bytes apart from the wall-time field.  Text output encodes each
detail the same way.
Scenarios run one after another; --jobs is accepted and ignored.

The runners and the modules they use are bound lazily: loading and
checking documents, schema and list-scenarios execute this module
alone, and a run or a certificate check only the modules its kinds need.

Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 input error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
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
keyengine = _lazy("keyengine")
lattice = _lazy("lattice")
runners = _lazy("runners")
spectral = _lazy("spectral")

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/0*[1-9][0-9]*)?$"}
INTEGER_STRING = {"type": "string", "pattern": r"^-?[0-9]+$"}
POSITIVE = {"type": "integer", "minimum": 1}

BINPOLY_SCHEMA = {
    "type": "object",
    "required": ["nvars", "terms"],
    "properties": {
        "nvars": POSITIVE,
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
        "ambient": POSITIVE,
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
        "dim": POSITIVE,
        "ops": POSITIVE,
        "phases": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": RATIONAL, "minItems": 1},
        },
    },
}

POLYS = {"type": "array", "items": BINPOLY_SCHEMA, "minItems": 1}
# the fields of khintchine, r-epsilon and ip-star
RECURRENCE = {
    "system": SYSTEM_SCHEMA,
    "A": {"type": "array", "items": {"type": "string"}},
    "fs": POLYS,
}


def _closed(**fields) -> dict:
    """The schema of a payload object with exactly these fields, all required."""
    return {
        "schema_version": 1,
        "type": "object",
        "required": list(fields),
        "additionalProperties": False,
        "properties": fields,
    }


PAYLOAD_SCHEMAS: Dict[str, dict] = {
    "khintchine": _closed(**RECURRENCE),
    "r-epsilon": _closed(**RECURRENCE, epsilon=RATIONAL),
    "ip-star": _closed(**RECURRENCE, epsilon=RATIONAL, k=POSITIVE, W=POSITIVE),
    "key-lemma": _closed(v=POLYS, V=LATTICE_SCHEMA, hypothesis=LATTICE_SCHEMA),
    "stable-rank": _closed(v=POLYS, window=POSITIVE),
    "spectral-limit": _closed(unitary=UNITARY_SCHEMA, fs=POLYS),
    # every field is optional, and a payload with none would check nothing
    "delta-check": {
        "schema_version": 1,
        "type": "object",
        "minProperties": 1,
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
    "hindman-search": _closed(
        coloring={
            "type": "object",
            "required": ["W", "colors"],
            "properties": {
                "W": POSITIVE,
                "colors": {"type": "array", "items": {"not": {"type": ["array", "object"]}}},
            },
        },
        k=POSITIVE,
    ),
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
        "saturation_window": POSITIVE,
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
# defines them and jsonschema 4 decides and words them
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# the Python classes of each JSON type the schemas name
_TYPES = {"object": dict, "array": list, "string": str, "integer": (int, float)}


def _equal(a, b) -> bool:
    """Equality with a scalar as jsonschema decides it: true is not 1, 1.0 is 1."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _error(message: str):
    """One error at the instance tested."""
    return [((), message)]


def _at(key, errors):
    """The errors of the entry at key, as errors of the object or array
    that holds it."""
    return [((key, *path), message) for path, message in errors]


def _fields(named, x):
    """The errors of the fields of the object x that named checks."""
    errors = ()
    for name, check in named:
        if name in x and (found := check(x[name])):
            errors = [*errors, *_at(name, found)]
    return errors


def _type(t, s):
    """The factory of type, named or listed.  An int or a float is an
    "integer" unless it is a bool or has a fractional part: true is not an
    integer, but 2.0 is."""
    names = [t] if isinstance(t, str) else t
    classes = tuple(_TYPES[name] for name in names)
    integer = "integer" in names
    wanted = ", ".join(map(repr, names))
    return lambda x: () if isinstance(x, classes) and not (
        integer and (isinstance(x, bool) or isinstance(x, float) and not x.is_integer())
    ) else _error(f"{x!r} is not of type {wanted}")


def _additional(check, s):
    """The factory of additionalProperties.  False refuses the fields that
    s does not name, listed sorted; a schema checks each of them."""
    named = s.get("properties", {})
    closed = s["additionalProperties"] is False

    def test(x):
        if not isinstance(x, dict):
            return ()
        extras = x.keys() - named
        if closed and extras:
            listed = ", ".join(map(repr, sorted(extras)))
            verb = "was" if len(extras) == 1 else "were"
            return _error(f"Additional properties are not allowed ({listed} {verb} unexpected)")
        if closed or not any(map(check, map(x.__getitem__, extras))):
            return ()
        return [e for k in extras for e in _at(k, check(x[k]))]

    return test


def _at_least(cls, too_few: str):
    """The factory of minItems, minLength or minProperties."""
    return lambda n, s: lambda x: () if not isinstance(x, cls) or len(x) >= n else _error(
        f"{x!r} {'should be non-empty' if n == 1 else too_few}"
    )


# keyword -> factory(argument, enclosing schema) -> test(instance), for the
# 15 keywords the schemas above use.  A test returns the empty tuple when
# the instance passes, and otherwise its errors, (path, message) pairs with
# the path relative to the instance, in the order jsonschema finds them and
# worded as it words them.  _checker hands "properties" its (name, checker)
# pairs, "additionalProperties", "items" and "not" the checker of their
# schema, and "pattern" its compiled search; the enclosing schema gives the
# words of a message and the fields "additionalProperties" leaves alone.
# Each test but "type", "const", "enum" and "not" passes instances of other
# types.
KEYWORDS = {
    "type": _type,
    "required": lambda names, s: lambda x: () if not isinstance(x, dict) or all(
        map(x.__contains__, names)
    ) else [((), f"{name!r} is a required property") for name in names if name not in x],
    "properties": lambda named, s: lambda x: () if not isinstance(x, dict) else _fields(named, x),
    "additionalProperties": _additional,
    "items": lambda check, s: lambda x: () if not isinstance(x, list) or not any(map(check, x))
    else [e for i, item in enumerate(x) for e in _at(i, check(item))],
    "minItems": _at_least(list, "is too short"),
    "minLength": _at_least(str, "is too short"),
    "minProperties": _at_least(dict, "does not have enough properties"),
    # "x < m" decides, as jsonschema compares (NaN passes)
    "minimum": lambda m, s: lambda x: _error(f"{x!r} is less than the minimum of {m!r}")
    if _is_number(x) and x < m else (),
    "maximum": lambda m, s: lambda x: _error(f"{x!r} is greater than the maximum of {m!r}")
    if _is_number(x) and x > m else (),
    # a search, not a full match: "12\n" matches ^-?[0-9]+$
    "pattern": lambda search, s: lambda x: () if not isinstance(x, str) or search(x) is not None
    else _error(f"{x!r} does not match {s['pattern']!r}"),
    "const": lambda c, s: lambda x: () if _equal(x, c) else _error(f"{c!r} was expected"),
    "enum": lambda options, s: lambda x: () if any(_equal(x, o) for o in options)
    else _error(f"{x!r} is not one of {options!r}"),
    "not": lambda check, s: lambda x: _error(f"{x!r} should not be valid under {s['not']!r}")
    if not check(x) else (),
    "schema_version": lambda v, s: None,  # an annotation of this package
}


def _checker(schema):
    """The test x -> the errors of x under schema, built once.  A keyword
    outside KEYWORDS or a container ``const`` or ``enum`` raises here, before
    any document is checked, so a schema edit cannot be silently ignored."""
    if isinstance(schema, bool):
        return lambda x: () if schema else _error(f"False schema does not allow {x!r}")
    tests = []
    for key, arg in schema.items():
        if key not in KEYWORDS:
            raise ValueError(f"schema keyword {key!r} is not interpreted")
        values = [arg] if key == "const" else arg if key == "enum" else []
        if any(isinstance(v, (list, dict)) for v in values):
            raise ValueError(f"schema keyword {key!r} with a container value is not interpreted")
        if key == "properties":
            arg = [(name, _checker(sub)) for name, sub in arg.items()]
        elif key in ("additionalProperties", "items", "not"):
            arg = _checker(arg)
        elif key == "pattern":
            arg = re.compile(arg).search
        test = KEYWORDS[key](arg, schema)
        if test is not None:
            tests.append(test)
    if len(tests) == 1:
        return tests[0]

    def every(x):
        errors = ()
        for test in tests:
            if found := test(x):
                errors = [*errors, *found]
        return errors

    return every


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _key_checker(key):
    """The checker of ``SCHEMAS[key]``, built once per process."""
    return _checker(SCHEMAS[key])


def _check(source: str, key, doc) -> None:
    """Raise :class:`InputError` naming source unless doc is valid under
    ``SCHEMAS[key]``.

    The checker of each key is built on its first use.  Of the errors it
    finds, the one reported is the one jsonschema's ``best_match`` picks
    for these schemas: the shallowest, then the greatest path, the first
    found at that path; it is worded "at PATH: MESSAGE".  A document nested
    too deeply to check is an input error.
    """
    try:
        errors = _key_checker(key)(doc)
        if not errors:
            return
        path, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
    except RecursionError as exc:
        raise InputError(f"{source}: {exc}") from None
    where = "/".join(map(str, path)) or "<root>"
    raise InputError(f"{source}: at {where}: {message}")


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


@contextlib.contextmanager
def _naming(source: str):
    """An :class:`InputError` inside the block names source, and so does an
    integer past CPython's limit on int/str conversion (4 300 digits by
    default), read or printed.  The limit is not lifted: both conversions
    are quadratic, and took seconds at 10^6 digits."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise InputError(f"{source}: {exc}") from None


def _compact(value) -> str:
    """value as compact, key-sorted JSON: no space after "," or ":"."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write(path: Path, doc) -> None:
    """Write doc as one line of :func:`_compact` JSON, which ``json`` encodes
    in C; a path that cannot be written is an :class:`InputError`."""
    with _writing(path):
        path.write_text(_compact(doc) + "\n")


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
    runner = runners.RUNNERS[doc["kind"]]
    certificate = None
    try:
        with _naming(source):
            verdict, details, certificate = runner(doc["payload"], cap=cap, seed=seed)
    except CheckFailed as exc:
        verdict = False
        details = {
            "error": type(exc).__name__,
            "message": str(exc),
            "witness": exc.witness,
        }
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
        lines.append(f"   {key}: {_compact(details[key])}")
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
        for (source, _doc), report in zip(scenarios, reports):
            # the text encodes every detail, so the --json dump meets no
            # integer past the digit limit that the text did not name
            with _naming(source):
                print(_format_text(report))
        if args.emit_certificates:
            for (source, _doc), report in zip(scenarios, reports):
                if report["certificate"] is not None:
                    cert_doc = {"schema_version": 1, **report["certificate"]}
                    with _naming(source):
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
    """Re-check a certificate document from its fields, as its runner in
    :mod:`polyrec.runners` wrote them."""
    path = Path(args.certificate)
    doc = _read_json(str(path), path)
    _check(str(path), "certificate", doc)
    kind = doc["certificate_kind"]
    _check(str(path), ("certificate", kind), doc)
    with _naming(str(path)):
        if kind == "key-lemma":
            witness = lattice.from_json(doc["witness"])
            _require_finite_index(witness, "witness")
            v = intpoly.polytuple_from_json(doc["v"])
            keyengine.verify_key_lemma_certificate(v, lattice.from_json(doc["V"]), witness)
        elif kind == "stable-rank":
            v = intpoly.polytuple_from_json(doc["v"])
            cert = keyengine.RankCertificate(
                r=int(doc["r"]),
                samples=tuple(tuple(int(e) for e in pt) for pt in doc["samples"]),
                V=lattice.from_json(doc["V"]),
                saturation_window=int(doc["saturation_window"]),
            )
            keyengine.verify_rank_certificate(v, cert)
        else:
            u = spectral.from_json(doc["unitary"])
            fs = [intpoly.from_json(f) for f in doc["fs"]]
            cert = lattice.from_json(doc["lattice"])
            _require_finite_index(cert, "lattice")
            spectral.verify_limit_certificate(u, fs, cert, cap=SWEEP_CAP)
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
    print(json.dumps(PAYLOAD_SCHEMAS[args.kind], indent=2, sort_keys=True))
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
        help="the work budget of every sweep and search (README)",
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
