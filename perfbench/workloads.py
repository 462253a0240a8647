"""The four benchmark workloads.

A workload owns one pass: a fixed list of items generated from the seed. For
each item it knows how to produce the *answer* (the timed unit: every call
into ``hmbp`` the workload makes for that item), how to classify the answer
as decided, undecided (an honest refusal) or failed, how to check it, a small
digest that every worker process must repeat, and its contribution to the
deterministic work-counter fingerprint.

Every call into the package goes through ``hmbp.<module>.<name>`` at call
time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hmbp
import hmbp.cli
import hmbp.oracle

import gen

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"

# Node budget for every oracle call the benchmark makes; a search that needs
# more is an honest refusal (BudgetExceeded), not a hang.
NODE_BUDGET = 1_000_000

MOVE_KINDS = (
    "relief-swap",
    "boost-3way",
    "chain-swap",
    "chain-exit",
    "block-swap",
    "top-exit",
    "normalize",
)


class WrongAnswer(Exception):
    """An answer contradicts a certificate or another layer."""


def require(cond: bool, key: str, what: str) -> None:
    if not cond:
        raise WrongAnswer(f"{key}: {what}")


@dataclass(frozen=True)
class Item:
    key: str
    data: tuple


def _assignment_digest(a) -> tuple | None:
    return None if a is None else tuple(tuple(row) for row in a.counts)


def _check_witness(key, res, inst, k):
    """A feasible oracle answer carries a valid k-feasible assignment."""
    if res.feasible:
        res.witness.validate()
        require(
            hmbp.is_k_feasible(res.witness, inst.capacities, k),
            key,
            f"decide(k={k}) witness breaks a capacity",
        )


class Descent:
    """classify + solve at d = threshold, balanced and squeezed capacities."""

    name = "descent"

    def __init__(self, seed: int, root: Path):
        self.items = [
            Item(key, (w, d, hmbp.make_instance(d, w, caps)))
            for key, w, d, caps in gen.descent_instances(seed)
        ]
        self.warmup = next(i for i in self.items if i.key == "anchor-balanced-3210")

    def answer(self, item):
        inst = item.data[2]
        return hmbp.criteria.classify(inst), hmbp.solver.solve(inst)

    def outcome(self, item, res):
        verdict, result = res
        if result.status != "indeterminate" or verdict.is_infeasible:
            return DECIDED
        # A stall where the criteria certify feasibility is ruled out by the
        # theory, so it is a failure rather than an honest refusal.
        return FAILED if verdict.is_guaranteed_feasible else UNDECIDED

    def check(self, item, res):
        w, d, inst = item.data
        verdict, result = res
        if result.status == "feasible":
            require(
                hmbp.is_k_feasible(result.assignment, inst.capacities, 0),
                item.key,
                "solver assignment breaks a capacity",
            )
            diagonal = hmbp.Assignment.diagonal(inst.weights, d)
            require(
                result.trace.replay(diagonal) == result.assignment,
                item.key,
                "trace does not replay to the final assignment",
            )
        require(
            not (verdict.is_infeasible and result.status == "feasible"),
            item.key,
            "solver feasible on a criteria-infeasible instance",
        )

    def digest(self, item, res):
        verdict, result = res
        return (
            verdict.kind.value,
            result.status,
            result.rounds,
            len(result.trace),
            _assignment_digest(result.assignment),
        )

    def count(self, item, res, fp: Counter) -> None:
        verdict, result = res
        fp[f"verdict.{verdict.kind.value}"] += 1
        fp[f"solve.{result.status}"] += 1
        fp["solver.rounds"] += result.rounds
        kinds = Counter(mv.kind for mv in result.trace.moves)
        for kind in MOVE_KINDS:
            fp[f"solver.moves.{kind}"] += kinds[kind]
        if item.key.startswith("anchor-"):
            fp[f"{item.key}.d{item.data[1]}.moves"] = len(result.trace)


@dataclass
class DeskAnswer:
    inst: object
    k0: object
    k1: object
    wmin: int | None
    verification: object | None


class OracleDesk:
    """decide(k=0), decide(k=1), W^min and witness verification at desk scale."""

    name = "oracle-desk"

    def __init__(self, seed: int, root: Path):
        self.items = []
        for kind, key, d, w, extra in gen.desk_instances(seed):
            inst = hmbp.make_instance(d, w, extra) if kind == "plain" else None
            self.items.append(Item(key, (kind, d, w, extra, inst)))
        self.warmup = next(i for i in self.items if i.key == "kb-six-bin-feasible")

    def answer(self, item):
        kind, d, w, extra, inst = item.data
        wit = None
        if kind == "extremal":
            wit = hmbp.witness.extremal_witness(hmbp.WeightProfile(w), d)
        elif kind == "relaxed":
            wit = hmbp.witness.relaxed_witness(hmbp.WeightProfile(w), d, extra)
        if wit is not None:
            inst = wit.instance
        k0 = hmbp.oracle.decide(inst, 0, node_budget=NODE_BUDGET)
        k1 = hmbp.oracle.decide(inst, 1, node_budget=NODE_BUDGET)
        wmin = None
        if k1.feasible:
            wmin = hmbp.oracle.min_bin1_weight(inst, node_budget=NODE_BUDGET)
        ver = None
        if wit is not None:
            ver = hmbp.witness.verify_witness(wit, node_budget=NODE_BUDGET)
        return DeskAnswer(inst, k0, k1, wmin, ver)

    def outcome(self, item, res):
        if res.verification is not None and not res.verification.oracle_backed:
            return UNDECIDED
        return DECIDED

    def check(self, item, res):
        key, inst = item.key, res.inst
        _check_witness(key, res.k0, inst, 0)
        _check_witness(key, res.k1, inst, 1)
        require(not res.k0.feasible or res.k1.feasible, key, "0-feasible but not 1-feasible")
        if res.wmin is not None:
            require(
                res.k0.feasible == (res.wmin <= inst.capacities[0]),
                key,
                f"decide(k=0)={res.k0.feasible} but W^min={res.wmin}, C1={inst.capacities[0]}",
            )
            require(
                res.wmin <= res.k1.witness.bin_weight(0),
                key,
                "W^min above the bin-1 load of a 1-feasible witness",
            )
        if res.verification is not None:
            require(res.verification.ok, key, "witness claim refuted")

    def digest(self, item, res):
        ver = res.verification
        return (
            res.k0.feasible,
            res.k0.nodes_explored,
            res.k1.feasible,
            res.k1.nodes_explored,
            res.wmin,
            _assignment_digest(res.k0.witness),
            None if ver is None else (ver.ok, ver.oracle_backed),
        )

    def count(self, item, res, fp: Counter) -> None:
        for k, r in ((0, res.k0), (1, res.k1)):
            fp[f"decide.k{k}.{'feasible' if r.feasible else 'infeasible'}"] += 1
            fp["oracle.nodes"] += r.nodes_explored
        fp["oracle.wmin_calls"] += res.wmin is not None
        if res.verification is not None:
            fp["witness.verified"] += 1
            fp["witness.oracle_backed"] += res.verification.oracle_backed
        if item.key.startswith("kb-"):
            fp[f"{item.key}.nodes"] = res.k0.nodes_explored


@dataclass
class ScaleAnswer:
    inst: object
    verdict: object
    result: object
    witness: object
    verification: object | None


class Scale:
    """Wide profiles (n = 10..60) and large magnitudes (w1 = 10^3..10^6)."""

    name = "scale"

    def __init__(self, seed: int, root: Path):
        self.items = [
            Item(key, (kind, d, w, i0, hmbp.make_instance(d, w, caps)))
            for kind, key, d, w, caps, i0 in gen.scale_instances(seed)
        ]
        self.warmup = next(i for i in self.items if i.key == "wide-n10-0")

    def answer(self, item):
        kind, d, w, i0, inst = item.data
        verdict = hmbp.criteria.classify(inst)
        result = hmbp.oracle.decide(inst, 0, node_budget=NODE_BUDGET)
        profile = hmbp.WeightProfile(w)
        if i0 == 1:
            wit = hmbp.witness.extremal_witness(profile, d)
        else:
            wit = hmbp.witness.relaxed_witness(profile, d, i0)
        ver = None
        if kind == "wide":
            ver = hmbp.witness.verify_witness(wit, node_budget=NODE_BUDGET)
        return ScaleAnswer(inst, verdict, result, wit, ver)

    def outcome(self, item, res):
        if res.verification is not None and not res.verification.oracle_backed:
            return UNDECIDED
        return DECIDED

    def check(self, item, res):
        key = item.key
        require(
            not (res.verdict.is_infeasible and res.result.feasible),
            key,
            "criteria-infeasible but the oracle found a witness",
        )
        _check_witness(key, res.result, res.inst, 0)
        ver = res.verification
        if ver is None:
            ver = hmbp.witness.verify_witness(res.witness, node_budget=NODE_BUDGET)
        require(ver.ok, key, "witness claim refuted")

    def digest(self, item, res):
        ver = res.verification
        return (
            res.verdict.kind.value,
            res.result.feasible,
            res.result.nodes_explored,
            res.witness.instance.capacities.entries,
            None if ver is None else (ver.ok, ver.oracle_backed),
        )

    def count(self, item, res, fp: Counter) -> None:
        fp[f"verdict.{res.verdict.kind.value}"] += 1
        fp[f"decide.{'feasible' if res.result.feasible else 'infeasible'}"] += 1
        fp["oracle.nodes"] += res.result.nodes_explored
        if res.verification is not None:
            fp["witness.oracle_backed"] += res.verification.oracle_backed


MALFORMED = "d: 6\nw: 5 5 3 1 1 0\nC: 8 17 17 17 17 17\n"
TRACEBACK = b"Traceback (most recent call last)"
EXIT = {"feasible": 0, "infeasible": 1, "indeterminate": 2}
EXIT_VERDICT = {"guaranteed_feasible": 0, "infeasible": 1, "indeterminate": 2}


@dataclass
class CliAnswer:
    code: int
    traceback: bool
    maxrss_kb: int


class Cli:
    """One ``python -m hmbp.cli`` process per answer, on files written here."""

    name = "cli"

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        workdir = root / ".perfbench" / f"cli-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        files, profiles = gen.cli_instances(seed)
        texts = {
            name: f"d: {d}\nw: {' '.join(map(str, w))}\nC: {' '.join(map(str, c))}\n"
            for name, (d, w, c) in files.items()
        }
        texts["malformed"] = MALFORMED
        self.items = []
        for name, text in texts.items():
            path = workdir / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            rel = str(path.relative_to(root))
            commands = [["check"], ["solve"], ["oracle"], ["oracle", "--wmin"]]
            if name.startswith("balanced"):
                # d is in the thousands: the max-packing search behind W^min
                # exhausts its default budget after seconds. ``scale`` and
                # ``oracle-desk`` cover W^min; here it would swamp start-up.
                commands.pop()
            for cmd in commands:
                argv = [cmd[0], rel, *cmd[1:]]
                self.items.append(
                    Item(f"{'-'.join(cmd)}:{name}", (argv, self._expect_file(cmd, text)))
                )
        for t, w in enumerate(profiles):
            ws = [str(v) for v in w]
            d = len(w) + t
            self.items.append(Item(f"info:{t}", (["info", "--w", *ws], self._expect_info(w))))
            for relax in (None, 2):
                argv = ["witness", "--w", *ws, "--d", str(d)]
                if relax is not None:
                    argv += ["--relax", str(relax)]
                self.items.append(
                    Item(f"witness:{t}:{relax}", (argv, self._expect_witness(w, d, relax)))
                )
        self.warmup = next(i for i in self.items if i.key == "info:0")

    # Expected exit codes come from in-process library calls.

    @staticmethod
    def _expect_file(cmd, text):
        try:
            inst = hmbp.cli.parse_instance(text)
        except hmbp.cli.InstanceFormatError:
            return 3
        try:
            if cmd == ["check"]:
                return EXIT_VERDICT[hmbp.criteria.classify(inst).kind.value]
            if cmd == ["solve"]:
                return EXIT[hmbp.solver.solve(inst).status]
            if cmd == ["oracle"]:
                return 0 if hmbp.oracle.decide(inst, 0).feasible else 1
            hmbp.oracle.min_bin1_weight(inst)
            return 0
        except hmbp.oracle.OracleError:
            return 1
        except hmbp.oracle.BudgetExceeded:
            return 2

    @staticmethod
    def _expect_info(w):
        try:
            hmbp.WeightProfile(tuple(w))
        except hmbp.ProfileError:
            return 3
        return 0

    @staticmethod
    def _expect_witness(w, d, relax):
        profile = hmbp.WeightProfile(tuple(w))
        try:
            if relax is None:
                hmbp.witness.extremal_witness(profile, d)
            else:
                hmbp.witness.relaxed_witness(profile, d, relax)
        except (hmbp.ProfileError, hmbp.witness.UnsupportedWeightsError):
            return 3
        return 0

    def argv(self, item):
        return item.data[0]

    def answer(self, item):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hmbp.cli", *item.data[0]],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 reports this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliAnswer(proc.returncode, TRACEBACK in out, usage.ru_maxrss)

    def outcome(self, item, res):
        if res.traceback:
            return FAILED
        return UNDECIDED if res.code == 2 else DECIDED

    def check(self, item, res):
        if not res.traceback:
            expected = item.data[1]
            require(
                res.code == expected,
                item.key,
                f"exit code {res.code}, in-process calls say {expected}",
            )

    def digest(self, item, res):
        return (res.code, res.traceback)

    def count(self, item, res, fp: Counter) -> None:
        fp[f"exit.{res.code}"] += 1
        fp["tracebacks"] += res.traceback


WORKLOADS = {cls.name: cls for cls in (Descent, OracleDesk, Scale, Cli)}
