"""Traced run support: spans around hmbp's public functions, from outside.

The package is not edited. Each traced function is replaced, in every
``hmbp`` module namespace that refers to it, by a wrapper that records a span
``[name, start, end, parent, answer_id]`` in memory. Callers inside the
package look these names up at call time (``descend`` calls
``hmbp.solver.relief_swap``, ``verify_witness`` calls ``hmbp.oracle.decide``,
``classify`` calls ``hmbp.criteria.b_constant``), so nested calls get nested
spans. Work counts are read from the return values at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import hmbp.oracle

from workloads import MOVE_KINDS

# span name -> (module, function name) of the original definition
TRACED = {
    "core.b_constant": ("hmbp.core", "b_constant"),
    "core.conjugate": ("hmbp.core", "conjugate"),
    "criteria.classify": ("hmbp.criteria", "classify"),
    "solver.solve": ("hmbp.solver", "solve"),
    "solver.normalize_suffix": ("hmbp.solver", "normalize_suffix"),
    "solver.descend": ("hmbp.solver", "descend"),
    "solver.relief_swap": ("hmbp.solver", "relief_swap"),
    "solver.boost_top_count": ("hmbp.solver", "boost_top_count"),
    "solver.find_permutation": ("hmbp.solver", "find_permutation"),
    "solver.shrink_gaps": ("hmbp.solver", "shrink_gaps"),
    "oracle.decide": ("hmbp.oracle", "decide"),
    "oracle.min_bin1_weight": ("hmbp.oracle", "min_bin1_weight"),
    "witness.extremal_witness": ("hmbp.witness", "extremal_witness"),
    "witness.relaxed_witness": ("hmbp.witness", "relaxed_witness"),
    "witness.verify_witness": ("hmbp.witness", "verify_witness"),
    "cli.main": ("hmbp.cli", "main"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.answer_id = -1
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _on_result(self, name, res):
        c = self.counts
        if name == "solver.relief_swap":
            c["relief_hits"] += res is not None
        elif name == "solver.solve":
            c["solver.rounds"] += res.rounds
            c["solver.stalls"] += res.stall is not None
            kinds = Counter(mv.kind for mv in res.trace.moves)
            c["solver.moves"] += len(res.trace)
            for kind in MOVE_KINDS:
                c[f"solver.moves.{kind}"] += kinds[kind]
        elif name == "oracle.decide":
            c["oracle.nodes"] += res.nodes_explored
        elif name == "witness.verify_witness":
            c["oracle_backed"] += res.oracle_backed

    def _on_error(self, name, exc):
        if name.startswith("oracle."):
            if isinstance(exc, hmbp.oracle.BudgetExceeded):
                self.counts["oracle.budget_exceeded"] += 1
            elif not isinstance(exc, hmbp.oracle.OracleError):
                self.counts["oracle.errors"] += 1

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.answer_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                self._on_error(name, exc)
                raise
            span[2] = clock()
            stack.pop()
            self._on_result(name, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def record(self, name, start, end):
        """A span timed by the caller (used for cli subprocesses)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.answer_id])

    def install(self):
        for name, (modname, attr) in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if modname_ != "hmbp" and not modname_.startswith("hmbp."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def totals(self):
        """Seconds and calls per span name, and each span's child time by name."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        child = [Counter() for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent][name] += end - start
        return seconds, calls, child

    def self_seconds(self, name, child, minus):
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] == name:
                total += span[2] - span[1] - sum(child[idx][m] for m in minus)
        return total

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "answer_id"],
                    "names": names,
                    "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(tracer: Tracer, answers: int, passes: int) -> dict[str, float]:
    """Per-layer metrics: seconds per answer, counts per pass, ratios."""
    seconds, calls, child = tracer.totals()
    c = tracer.counts

    def per_answer(x):
        return x / answers

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    decide_s = seconds["oracle.decide"]
    out = {
        "solver.solve_s": per_answer(seconds["solver.solve"]),
        "solver.solve_self_s": per_answer(
            tracer.self_seconds(
                "solver.solve", child, ("solver.normalize_suffix", "solver.descend")
            )
        ),
        "solver.normalize_s": per_answer(seconds["solver.normalize_suffix"]),
        "solver.descend_s": per_answer(seconds["solver.descend"]),
        "solver.relief_s": per_answer(seconds["solver.relief_swap"]),
        "solver.boost_s": per_answer(seconds["solver.boost_top_count"]),
        "solver.matching_s": per_answer(seconds["solver.find_permutation"]),
        "solver.shrink_s": per_answer(seconds["solver.shrink_gaps"]),
        "solver.moves": per_pass(c["solver.moves"]),
    }
    for kind in MOVE_KINDS:
        out[f"solver.moves.{kind}"] = per_pass(c[f"solver.moves.{kind}"])
    out.update(
        {
            "solver.rounds": per_pass(c["solver.rounds"]),
            "solver.stalls": per_pass(c["solver.stalls"]),
            "solver.relief_hit_ratio": ratio(
                c["relief_hits"], calls["solver.relief_swap"]
            ),
            "oracle.wmin_calls": per_pass(calls["oracle.min_bin1_weight"]),
            "oracle.wmin_s": per_answer(seconds["oracle.min_bin1_weight"]),
            "oracle.decide_calls": per_pass(calls["oracle.decide"]),
            "oracle.decide_s": per_answer(decide_s),
            "oracle.nodes": per_pass(c["oracle.nodes"]),
            "oracle.nodes_per_s": ratio(c["oracle.nodes"], decide_s),
            "oracle.budget_exceeded": per_pass(c["oracle.budget_exceeded"]),
            "oracle.errors": per_pass(c["oracle.errors"]),
            "core.b_constant_calls": per_pass(calls["core.b_constant"]),
            "core.b_constant_s": per_answer(seconds["core.b_constant"]),
            "core.conjugate_s": per_answer(seconds["core.conjugate"]),
            "criteria.classify_calls": per_pass(calls["criteria.classify"]),
            "criteria.classify_s": per_answer(seconds["criteria.classify"]),
            "witness.build_s": per_answer(
                seconds["witness.extremal_witness"] + seconds["witness.relaxed_witness"]
            ),
            "witness.verify_s": per_answer(seconds["witness.verify_witness"]),
            "witness.verify_self_s": per_answer(
                tracer.self_seconds("witness.verify_witness", child, ("oracle.decide",))
            ),
            "witness.oracle_backed_ratio": ratio(
                c["oracle_backed"], calls["witness.verify_witness"]
            ),
            "cli.process_s": per_answer(seconds["cli.process"]),
            "cli.main_s": per_answer(seconds["cli.main"]),
        }
    )
    return out
