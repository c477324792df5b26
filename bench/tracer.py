"""Run polyrec's CLI in-process with spans and counters around its layers.

    python3 bench/tracer.py SPANS.json run CORPUS_DIR --jobs 1 [run options]
    python3 bench/tracer.py SPANS.json verify-all CERT_DIR

The functions named in ``SPANNED`` are replaced, on the imported modules, by
wrappers that record a span (name, parent span, start, end, and the number
of ``intpoly.evaluate`` calls made while it was open).  The hot primitives in
``COUNTED`` only count their calls.  Nothing under ``src/`` changes: the
wrappers are installed on the module objects after import.  The spans stay
in memory and are written to SPANS.json when the command ends.

The span stack is shared by all threads, so traced runs must use --jobs 1.
``layer_metrics`` turns span files into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SPANNED = {
    "cli": ["load_scenarios", "run_scenario", "_format_text", "cmd_verify_certificate"],
    "dynamics": ["system_period", "r_epsilon", "residue_table", "verify_khintchine", "ip_star_verdict"],
    "ipstruct": ["is_ip_star_window"],
    "intpoly": ["delta", "delta_recursive"],
    "keyengine": ["key_lemma_lattice", "verify_value_membership", "stable_rank_subgroup"],
    "spectral": ["verify_limit_certificate"],
}
COUNTED = {
    "intpoly": ["substitute_block_sums"],
    "lattice": ["hnf_from_generators", "smallest_multiple"],
}


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, start, end, evaluations, counts]
        self.spans = []
        self.stack = []
        self.evaluations = 0
        self.calls = Counter()
        self.returns = set()
        self._orders = {}

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.evaluations, Counter()]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                rec[4] = self.evaluations - rec[4]

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from polyrec import cli, dynamics, intpoly, lattice

        for table, wrap in ((SPANNED, self.span), (COUNTED, self.count)):
            for mod_name, names in table.items():
                mod = cli if mod_name == "cli" else getattr(cli, mod_name)
                for fn_name in names:
                    setattr(mod, fn_name, wrap(f"{mod_name}.{fn_name}", getattr(mod, fn_name)))

        load = cli.load_scenarios

        def load_scenarios(*args, **kwargs):
            result = load(*args, **kwargs)
            self.calls["cli.load_scenarios.files"] += len(result)
            return result

        cli.load_scenarios = load_scenarios

        evaluate = intpoly.evaluate

        def counted_evaluate(f, z):
            self.evaluations += 1
            return evaluate(f, z)

        intpoly.evaluate = counted_evaluate

        contains = lattice.contains
        spans, stack = self.spans, self.stack

        def counted_contains(lat, v):
            found = contains(lat, v)
            self.calls["lattice.contains"] += 1
            if stack:
                counts = spans[stack[-1]][5]
                counts["contains"] += 1
                counts["contains_true"] += found
            return found

        lattice.contains = counted_contains

        return_measure = dynamics.return_measure
        map_orders = dynamics.map_orders

        def counted_return_measure(sys_, A, exps):
            self.calls["dynamics.return_measure"] += 1
            entry = self._orders.get(id(sys_))
            if entry is None:
                entry = self._orders[id(sys_)] = (sys_, map_orders(sys_))
            self.returns.add((id(sys_), tuple(A), tuple(e % o for e, o in zip(exps, entry[1]))))
            return return_measure(sys_, A, exps)

        dynamics.return_measure = counted_return_measure

        dumps = cli.json.dumps
        report_dump = self.span("cli.report_dump", dumps)

        class JsonProxy:
            """cli's view of ``json``, timing the dump of the report document."""

            def __getattr__(self, name):
                return getattr(json, name)

            @staticmethod
            def dumps(obj, **kwargs):
                if isinstance(obj, dict) and "reports" in obj:
                    return report_dump(obj, **kwargs)
                return dumps(obj, **kwargs)

        cli.json = JsonProxy()
        return cli

    def dump(self, path: Path):
        doc = {
            "spans": [[n, p, s, e, ev, dict(c)] for n, p, s, e, ev, c in self.spans],
            "calls": dict(self.calls),
            "evaluations": self.evaluations,
            "distinct_returns": len(self.returns),
        }
        path.write_text(json.dumps(doc))


def layer_metrics(docs) -> dict:
    """Per-layer metrics from the span files of one traced round."""
    incl = defaultdict(float)  # outermost spans of each name only
    self_time = defaultdict(float)
    calls = Counter()
    evals = Counter()
    counts = defaultdict(Counter)
    distinct = evaluations = 0
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, ev, cnt) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            counts[name].update(cnt)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                incl[name] += end - start
                evals[name] += ev
        calls.update(doc["calls"])
        distinct += doc["distinct_returns"]
        evaluations += doc["evaluations"]

    def ratio(a, b):
        return a / b if b else 0.0

    kh = counts["dynamics.verify_khintchine"]
    return {
        "cli.load_scenarios_s": incl["cli.load_scenarios"],
        "cli.load_scenarios.files": calls["cli.load_scenarios.files"],
        "cli.run_scenario_s": incl["cli.run_scenario"],
        "cli.run_scenario.calls": calls["cli.run_scenario"],
        "cli.render_s": incl["cli._format_text"] + incl["cli.report_dump"],
        "dynamics.system_period_s": incl["dynamics.system_period"],
        "dynamics.system_period.evaluations": evals["dynamics.system_period"],
        "dynamics.r_epsilon_self_s": self_time["dynamics.r_epsilon"],
        "dynamics.return_measure.calls": calls["dynamics.return_measure"],
        "dynamics.return_measure.distinct_ratio": ratio(distinct, calls["dynamics.return_measure"]),
        "dynamics.residue_table_s": incl["dynamics.residue_table"],
        "dynamics.verify_khintchine_s": incl["dynamics.verify_khintchine"],
        "dynamics.verify_khintchine.useful_ratio": ratio(kh["contains_true"], kh["contains"]),
        "dynamics.ip_star_verdict_s": incl["dynamics.ip_star_verdict"],
        "ipstruct.is_ip_star_window_s": incl["ipstruct.is_ip_star_window"],
        "intpoly.evaluate.calls": evaluations,
        "intpoly.delta_s": incl["intpoly.delta"],
        "intpoly.delta_recursive_s": incl["intpoly.delta_recursive"],
        "intpoly.substitute_block_sums.calls": calls["intpoly.substitute_block_sums"],
        "keyengine.key_lemma_lattice_s": incl["keyengine.key_lemma_lattice"],
        "keyengine.verify_value_membership_s": incl["keyengine.verify_value_membership"],
        "keyengine.verify_value_membership.evaluations": evals["keyengine.verify_value_membership"],
        "keyengine.stable_rank_subgroup_s": incl["keyengine.stable_rank_subgroup"],
        "spectral.verify_limit_certificate_s": incl["spectral.verify_limit_certificate"],
        "spectral.verify_limit_certificate.evaluations": evals["spectral.verify_limit_certificate"],
        "lattice.hnf_from_generators.calls": calls["lattice.hnf_from_generators"],
        "lattice.smallest_multiple.calls": calls["lattice.smallest_multiple"],
        "lattice.contains.calls": calls["lattice.contains"],
        "cli.verify_certificate_s": incl["cli.cmd_verify_certificate"],
    }


def main(argv) -> int:
    out, command, rest = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        if command == "verify-all":
            codes = [
                cli.main(["verify-certificate", str(p)])
                for p in sorted(Path(rest[0]).glob("*.cert.json"))
            ]
            return max(codes, default=0)
        return cli.main([command, *rest])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
