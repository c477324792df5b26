"""Scenario runners: payload -> (verdict, details, certificate-or-None).

``RUNNERS`` maps each scenario kind to its runner.  A runner that emits a
certificate builds its document here, and ``cli.cmd_verify_certificate``
reads it back; no other module knows the layout.  :mod:`polyrec.cli`
validates a payload against the schema of its kind before it reaches a
runner, and binds this module lazily, so only ``run`` executes it.  The
modules imported below are then the ones cli bound lazily, so a run
executes only those its kinds read.  This module does not import
``polyrec.cli``: under ``python -m polyrec.cli`` that would execute
``cli.py`` a second time.
"""

from __future__ import annotations

import math
import random
from typing import Tuple

from . import dynamics, intpoly, ipstruct, keyengine, lattice, spectral
from .errors import charge


def _recurrence_input(payload, cap):
    """The system and the query of a recurrence payload (khintchine has no epsilon)."""
    system = payload["system"]
    sys_ = dynamics.build_system(system["points"], system["weights"], system["maps"], cap=cap)
    fs = [intpoly.from_json(p) for p in payload["fs"]]
    return sys_, dynamics.recurrence_query(payload["A"], fs, payload.get("epsilon", 0))


def _run_khintchine(payload, cap, seed):
    rep = dynamics.verify_khintchine(*_recurrence_input(payload, cap))
    details = {
        "sup": str(rep.sup_value),
        "bound": str(rep.bound),
        "witness_residue": list(rep.witness_residue),
        "period": list(rep.period),
    }
    return rep.holds, details, None


def _residue_details(verdict: dynamics.ResidueVerdict) -> dict:
    """The threshold set of a swept verdict, its members listed in grid
    order (:func:`dynamics.grid`), which is lexicographic, as the grid's own
    tuples, which JSON encodes as arrays."""
    members = list(verdict.members_in_grid_order())
    return {
        "period": list(verdict.period),
        "members": members,
        "member_count": len(members),
        "epsilon": str(verdict.epsilon),
        "mu_a": str(verdict.mu_a),
        "mu_a_sq": str(verdict.mu_a_sq),
    }


def _run_r_epsilon(payload, cap, seed):
    sys_, query = _recurrence_input(payload, cap)
    verdict = dynamics.r_epsilon(sys_, query, cap=cap)
    details = _residue_details(verdict)
    details["table"] = dynamics.residue_table(verdict)
    # the origin is grid point 0
    return verdict.holds[verdict.keys[0]], details, None


def _run_ip_star(payload, cap, seed):
    sys_, query = _recurrence_input(payload, cap)
    k, w = int(payload["k"]), int(payload["W"])
    verdict = dynamics.r_epsilon(sys_, query, cap=cap)
    window = dynamics.ip_star_verdict(verdict, k, w, cap=cap)
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
    certificate = {
        "certificate_kind": "key-lemma",
        "v": intpoly.polytuple_to_json(v),
        "V": lattice.to_json(target),
        "witness": details["witness"],
    }
    return True, details, certificate


def _run_stable_rank(payload, cap, seed):
    v = intpoly.polytuple_from_json(payload["v"])
    cert = keyengine.stable_rank_subgroup(v, int(payload["window"]), cap=cap)
    details = {
        "r": cert.r,
        "samples": [list(pt) for pt in cert.samples],
        "V": lattice.to_json(cert.V),
        "saturation_window": cert.saturation_window,
    }
    certificate = {"certificate_kind": "stable-rank", "v": intpoly.polytuple_to_json(v), **details}
    return True, details, certificate


def _run_spectral_limit(payload, cap, seed):
    u = spectral.from_json(payload["unitary"])
    fs = [intpoly.from_json(p) for p in payload["fs"]]
    desc = spectral.limit_projection(u, fs, cap=cap)
    details = {
        "fixed": sorted(desc.fixed),
        "is_identity": len(desc.fixed) == u.dim,
        "certificate": lattice.to_json(desc.certificate),
        "phase_order": u.order,
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


def _recursion_consistent(f, max_s: int) -> Tuple[bool, intpoly.BinPoly]:
    """Whether delta(f, s) equals the recursion at every 2 <= s <= max_s,
    and the recursion's level at s = 2.  The chain of recursion levels is
    built once, and stops at the first mismatch."""
    level = f
    for s in range(2, max_s + 1):
        level = intpoly.delta_recursive(f, s, level)
        doubled = level if s == 2 else doubled
        if intpoly.delta(f, s) != level:
            return False, doubled
    return True, doubled


def _run_delta_check(payload, cap, seed):
    details = {}
    ok = True
    if "poly" in payload:
        f = intpoly.from_json(payload["poly"])
        max_s = int(payload.get("recursion_max_s", 3))
        # delta and delta_recursive expand once each per s, delta(f, d + 1)
        # no row.  The random suite is not counted: its schema bounds it to
        # polynomials in at most 3 variables of degree at most 4.
        rows = 2 * sum(intpoly.delta_rows(f, s) for s in range(2, max_s + 1))
        charge(rows, cap, f"delta-check expands {rows} rows")
        rec, doubled = _recursion_consistent(f, max_s)
        # the identities: delta(f, d + 1) is constant, and each block of the
        # recursion's delta(f, 2) has degree below d
        d, n = max(f.degree, 0), f.nvars
        value = (-1) ** d * f.constant_term()
        constant_ok = intpoly.delta(f, d + 1) == intpoly.constant((d + 1) * n, value)
        drop_ok = d < 1 or all(intpoly.degree_in_vars(doubled, b) < d for b in (range(n), range(n, 2 * n)))
        ok &= constant_ok and drop_ok and rec
        details["poly"] = {
            "constant_collapse": constant_ok,
            "collapsed_value": str(value),
            "block_degree_drop": drop_ok,
        }
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
        polys = (_random_binpoly(rng, nvars, max_degree, bound) for _ in range(count))
        failures = sum(intpoly.delta(f, 2) != intpoly.delta_recursive(f, 2) for f in polys)
        ok &= failures == 0
        details["random"] = {"count": count, "failures": failures, "seed": seed}
    return ok, details, None


def _run_hindman_search(payload, cap, seed):
    coloring = ipstruct.coloring_from_json(payload["coloring"])
    witness = ipstruct.find_monochromatic_fs(coloring, int(payload["k"]), cap=cap)
    # the search returns a tuple only once its sums pass the one-color test,
    # and None only after it has visited every tuple
    if witness is None:
        return True, {"witness": None, "verified_by_exhaustion": True}, None
    details = {
        "witness": list(witness),
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
