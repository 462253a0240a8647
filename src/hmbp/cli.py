"""Command-line front end: instance files, reports, and the bench harness.

Instance files are three lines of UTF-8 text (any order, ``#`` comments
allowed)::

    d: 6
    w: 5 5 3 1 1 0
    C: 17 17 17 17 17 8

Exit codes are a stable contract: 0 decided feasible, 1 decided infeasible,
2 indeterminate/undecided (including any unexpected error and a closed
stdout), 3 input error (a malformed instance, a usage error or a path that
cannot be opened).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext

from . import oracle as _oracle
from . import solver as _solver
from . import witness as _witness
from .core import (
    DEFAULT_NODE_BUDGET,
    CapacityProfile,
    Instance,
    ProfileError,
    WeightProfile,
    conjugate,
    d_threshold,
    gap_vector,
)
from .criteria import Feasibility, classify, suffix_report, tight_profile

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT_ERROR = 3

BENCH_CSV_HEADER = "w_id,d,mode,verdict,oracle,rounds,stall,ms"
_BENCH_ORACLE_BUDGET = 2_000_000


class InstanceFormatError(ValueError):
    """Malformed instance file; the message carries a line number when known."""


class PathError(ValueError):
    """A path named on the command line cannot be opened."""


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise PathError(exc) from None


def parse_instance(text: str) -> Instance:
    """Parse the three-key instance format, rejecting anything ambiguous."""
    fields: dict[str, tuple[int, list[int]]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("d", "w", "C"):
            raise InstanceFormatError(f"line {ln}: expected 'd:', 'w:' or 'C:'")
        if key in fields:
            raise InstanceFormatError(f"line {ln}: duplicate key '{key}'")
        values = []
        for tok in rest.split():
            try:
                values.append(int(tok))
            except ValueError:
                raise InstanceFormatError(
                    f"line {ln}: non-integer token {tok!r}"
                ) from None
        fields[key] = (ln, values)
    for key in ("d", "w", "C"):
        if key not in fields:
            raise InstanceFormatError(f"missing key '{key}'")
    ln_d, d_vals = fields["d"]
    if len(d_vals) != 1:
        raise InstanceFormatError(f"line {ln_d}: d takes exactly one integer")
    if d_vals[0] < 1:
        raise InstanceFormatError(f"line {ln_d}: d must be positive")
    profiles = []
    for key, profile in (("w", WeightProfile), ("C", CapacityProfile)):
        ln, vals = fields[key]
        try:
            profiles.append(profile(tuple(vals)))
        except ProfileError as exc:
            raise InstanceFormatError(f"line {ln}: {exc}") from None
    w, C = profiles
    if w.n != C.n:
        raise InstanceFormatError(
            f"line {fields['C'][0]}: C has {C.n} entries, w has {w.n}"
        )
    return Instance(d_vals[0], w, C)


def render_instance(inst: Instance, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"d: {inst.d}")
    lines.append("w: " + " ".join(str(v) for v in inst.weights))
    lines.append("C: " + " ".join(str(c) for c in inst.capacities))
    return "\n".join(lines) + "\n"


def _load(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with _open(path) as fh:
        return parse_instance(fh.read())


def _print_assignment(inst: Instance, assignment, out) -> None:
    gv = gap_vector(assignment, inst.capacities)
    for j in range(assignment.n):
        print(
            f"B{j + 1}: {assignment.bin_notation(j)}  "
            f"weight={assignment.bin_weight(j)} gap={gv[j]}",
            file=out,
        )
    print("values: " + " ".join(str(v) for v in assignment.class_values), file=out)
    for j, column in enumerate(zip(*assignment.counts)):
        print(f"B{j + 1}: " + " ".join(map(str, column)), file=out)


def cmd_check(args) -> int:
    inst = _load(args.file)
    report = suffix_report(inst)
    out = sys.stdout
    print("  i  suffix_cap  suffix_demand  b_i  necessary  sufficient", file=out)
    for i in range(1, report.n + 1):
        print(
            f"{i:3d}  {report.suffix_capacity[i - 1]:10d}  "
            f"{report.suffix_demand[i - 1]:13d}  {report.b_values[i - 1]:3d}  "
            f"{report.necessary_slack[i - 1]:9d}  {report.sufficient_slack[i - 1]:10d}",
            file=out,
        )
    side = "meets" if report.meets_threshold else "below"
    print(f"d threshold: {report.threshold} (d={inst.d} {side} threshold)", file=out)
    bad = report.first_sufficient_violation()
    if bad is not None:
        print(
            f"sufficient condition violated at i={bad}: slack "
            f"{report.necessary_slack[bad - 1]} < b={report.b_values[bad - 1]}",
            file=out,
        )
    verdict = classify(inst)
    print(f"verdict: {verdict.kind.value}", file=out)
    if verdict.kind is Feasibility.INFEASIBLE:
        return EXIT_INFEASIBLE
    if verdict.kind is Feasibility.GUARANTEED_FEASIBLE:
        return EXIT_FEASIBLE
    return EXIT_INDETERMINATE


def cmd_solve(args) -> int:
    inst = _load(args.file)
    cfg = _solver.SolverConfig(r=args.r, N=args.N, max_rounds=args.max_rounds)
    # The trace file is opened first, so that a path that cannot be opened
    # exits 3 before the solve rather than after it.
    with _open(args.trace, "w") if args.trace else nullcontext() as trace:
        result = _solver.solve(inst, cfg)
        if trace is not None:
            trace.write(result.trace.serialize())
    out = sys.stdout
    if result.feasible:
        print(f"feasible ({result.rounds} rounds)", file=out)
        _print_assignment(inst, result.assignment, out)
        return EXIT_FEASIBLE
    if args.fallback_oracle:
        # The descent stalled: the exact search decides under its default
        # budget, and a refusal leaves the stall as the answer.
        try:
            exact = _oracle.decide(inst, 0)
        except _oracle.BudgetExceeded:
            pass
        else:
            if exact.feasible:
                print("feasible (fallback oracle)", file=out)
                _print_assignment(inst, exact.witness, out)
                return EXIT_FEASIBLE
            print("infeasible via fallback oracle", file=out)
            print(f"stall: {result.stall}", file=out)
            return EXIT_INFEASIBLE
    print("stall: indeterminate", file=out)
    print(result.stall, file=out)
    return EXIT_INDETERMINATE


def cmd_oracle(args) -> int:
    inst = _load(args.file)
    out = sys.stdout
    if args.wmin:
        try:
            value = _oracle.min_bin1_weight(inst, node_budget=args.budget)
        except _oracle.OracleError as exc:
            print(exc, file=out)
            return EXIT_INFEASIBLE
        except _oracle.BudgetExceeded as exc:
            print(exc, file=out)
            return EXIT_INDETERMINATE
        print(f"W^min = {value}", file=out)
        return EXIT_FEASIBLE
    k = 0 if args.k is None else args.k
    try:
        result = _oracle.decide(inst, k=k, node_budget=args.budget)
    except _oracle.BudgetExceeded as exc:
        print(exc, file=out)
        return EXIT_INDETERMINATE
    word = "feasible" if result.feasible else "infeasible"
    print(
        f"{word} (k={k}, nodes={result.nodes_explored}, "
        f"elapsed={result.elapsed * 1000:.1f}ms)",
        file=out,
    )
    if result.feasible:
        _print_assignment(inst, result.witness, out)
        return EXIT_FEASIBLE
    return EXIT_INFEASIBLE


def cmd_witness(args) -> int:
    w = WeightProfile(tuple(args.w))
    if args.relax is None:
        wit = _witness.extremal_witness(w, args.d)
    else:
        wit = _witness.relaxed_witness(w, args.d, args.relax)
    i0 = wit.relax_index
    comments = [
        f"construction: {wit.construction}",
        f"claim: not {i0 - 1}-feasible"
        + (
            f" (companion shows {wit.companion_level}-feasible)"
            if wit.companion is not None
            else ""
        ),
    ]
    text = render_instance(wit.instance, comments)
    if args.out:
        with _open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_FEASIBLE


def cmd_info(args) -> int:
    w = WeightProfile(tuple(args.w))
    out = sys.stdout
    conj = conjugate(w, w.n)
    runs = []
    if conj.a0:
        runs.append(f"{conj.rows}^{conj.a0}")
    runs.extend(f"{h}^{a}" for h, a in conj.runs)
    print(f"conjugate: {' '.join(runs) if runs else '(empty)'}", file=out)
    print("b by truncation: " + " ".join(str(b) for b in w.b_row), file=out)
    values = w.classes[0]
    if len(values) >= 2:
        print("gap sequence: " + " ".join(str(g) for g in w.gaps), file=out)
        print(f"second largest: {values[1]}", file=out)
    else:
        print("gap sequence: (constant profile)", file=out)
    print(f"d threshold: {d_threshold(w)}", file=out)
    return EXIT_FEASIBLE


def _bench_rows(w: WeightProfile, d_lo: int, d_hi: int, mode: str):
    w_id = "-".join(str(v) for v in w)
    for d in range(d_lo, d_hi + 1):
        start = time.perf_counter()
        if mode == "tight":
            inst = Instance(d, w, tight_profile(w, d))
        else:
            if d < w.n:
                continue  # the witness construction needs d >= n
            inst = _witness.extremal_witness(w, d).instance
        verdict = classify(inst)
        result = _solver.solve(inst, _solver.SolverConfig())
        oracle_word = ""
        try:
            res = _oracle.decide(inst, 0, node_budget=_BENCH_ORACLE_BUDGET)
            oracle_word = "feasible" if res.feasible else "infeasible"
        except _oracle.BudgetExceeded:
            oracle_word = ""
        ms = int((time.perf_counter() - start) * 1000)
        stall = 1 if result.status == "indeterminate" else 0
        yield (
            f"{w_id},{d},{mode},{verdict.kind.value},{oracle_word},"
            f"{result.rounds},{stall},{ms}"
        ), d, oracle_word


def cmd_bench(args) -> int:
    w = WeightProfile(tuple(args.w))
    rows = []
    first_feasible = None
    # As in cmd_solve, the output file is opened before the work.
    with _open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        for row, d, oracle_word in _bench_rows(w, args.d_min, args.d_max, args.mode):
            rows.append(row)
            if oracle_word == "feasible" and first_feasible is None:
                first_feasible = d
        fh.write(BENCH_CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    if args.mode == "tight" and first_feasible is not None:
        print(
            f"first oracle-feasible tight d: {first_feasible} "
            f"(threshold {d_threshold(w)})",
            file=sys.stderr,
        )
    return EXIT_FEASIBLE


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors: argparse's own exit code 2 means
    "indeterminate" in this contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hmbp",
        description="Decide, solve and stress-test equal-cardinality "
        "weighted bin packing instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate feasibility criteria")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="run the constructive solver")
    p.add_argument("file")
    p.add_argument("--r", type=_positive_int, default=None)
    p.add_argument("--N", type=_positive_int, default=None)
    p.add_argument("--max-rounds", type=_positive_int, default=None)
    p.add_argument("--fallback-oracle", action="store_true")
    p.add_argument("--trace", default=None, metavar="PATH")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact decision by exhaustive search")
    p.add_argument("file")
    # --k defaults to None (read as 0): argparse lets an exclusive option
    # given at its default value pass, and "--k 0 --wmin" is a usage error.
    only = p.add_mutually_exclusive_group()
    only.add_argument("--k", type=int, default=None)
    only.add_argument("--wmin", action="store_true")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("witness", help="emit an infeasibility witness instance")
    p.add_argument("--w", type=int, nargs="+", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--relax", type=int, default=None, metavar="I0")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("info", help="print derived data for a weight profile")
    p.add_argument("--w", type=int, nargs="+", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="sweep multiplicities and emit CSV")
    p.add_argument("--w", type=int, nargs="+", required=True)
    p.add_argument("--d-min", type=_positive_int, required=True)
    p.add_argument("--d-max", type=_positive_int, required=True)
    p.add_argument("--mode", choices=("tight", "witness"), required=True)
    p.add_argument("--out", default=None, metavar="CSV")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, so the verdict did not reach it: exit 2
        # without an error line. Stdout goes to devnull so that the
        # interpreter's final flush of what is left does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INDETERMINATE
    except (
        InstanceFormatError,
        PathError,
        ProfileError,
        _witness.UnsupportedWeightsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        # Exit 1 means "decided infeasible"; a crash decides nothing.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
