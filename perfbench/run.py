#!/usr/bin/env python3
"""Benchmark for hmbp: one seeded workload per run, answer-level metrics.

    python3 perfbench/run.py --workload {descent,oracle-desk,scale,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/hmbp`` must exist; nothing is
installed). Workloads are described in ``BENCHMARK.json`` and built in
``gen.py`` / ``workloads.py``. A fresh worker process sets up, then one client
runs answers back to back (closed loop, no threads) for one pass over the
seed's instance list; workers run one after another for about ``--seconds``
of wall time, and at least ``MIN_WORKERS`` of them. Every answer is checked
with the clock stopped: worker 0 checks each answer in full, the others are
held to its digests. A wrong answer prints the reason to stderr and exits 1
without a result line.

Times are scaled to a reference host speed. Each vCPU of a shared host
runs spells of seconds to minutes up to 1.8 times slower (CPU time slows as
much as wall time, so it is not preemption), and a run can fall wholly in
one. So the run keeps itself and every process it starts on one CPU, times
a fixed pure-Python block (``host_reading``, no hmbp) before the first
answer and after every answer with the clock stopped, and multiplies each
answer's time by ``REFERENCE_S`` over the median reading within
``READING_WINDOW_S`` of it. Set-up samples are scaled the same way.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced workers with traced ones (spans around hmbp's public functions,
``tracing.py``) and prints the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The environment record, outcome counts and work-counter fingerprint
are printed above it and written to ``.perfbench/result-*.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_ANSWERS = 100  # per mode and run, so that ten answers lie beyond p90
MIN_WORKERS = 3  # per mode
SETUP_PROBES = 1  # set-up-only processes after each untraced worker
SPIN_SECONDS = 2
# host_reading() on the reference host (2 shared vCPUs, CPython 3.11.7) in a
# fast spell. Answer and set-up times are scaled to that speed.
REFERENCE_S = 0.000500
READING_WINDOW_S = 1.0
CLI_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--worker",
        type=int,
        default=None,
        help="internal: set up, print 'ready', then (index >= 0) run one pass "
        "and print its JSON",
    )
    return p.parse_args(argv)


def setup(name, seed):
    """Import hmbp, generate the inputs and warm up with one answer."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT)
    try:
        wl.answer(wl.warmup)
    except Exception:  # its outcome is recorded in the timed pass
        pass
    return wl


class WorkerFailed(Exception):
    pass


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _reference_block():
    points = [_Point(i, (i * 7) % 23) for i in range(1_000)]
    total = 0
    for p in points:
        total += p.a if p.b & 1 else p.b
    best = [0] * 101
    for x in range(1, 24):
        for c in range(100, x - 1, -1):
            v = best[c - x] + x
            if v > best[c]:
                best[c] = v
    return total + sorted(points, key=lambda p: -p.b)[0].a + best[-1]


def host_reading():
    """Seconds of a fixed pure-Python block (no hmbp), best of two: the
    host's speed at this moment. The block allocates, reads attributes,
    sorts and indexes lists, as the package's code does."""
    best = float("inf")
    gc.disable()  # a collection of the answers' garbage is not host speed
    try:
        for _ in range(2):
            start = time.perf_counter()
            _reference_block()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def pin():
    """Keep this process and every process it starts on one CPU. Each vCPU
    of a shared host has its own slow spells; on one CPU the host readings
    and the answers they scale see the same spells."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spin(seconds):
    """Busy-loop before measuring. After an idle spell a shared machine can
    run the first seconds of work up to 50% slower; the loop absorbs that ramp.
    Returns the median host reading of its second half in ms, printed next
    to the metrics."""
    end = time.perf_counter() + seconds
    readings = []
    while time.perf_counter() < end:
        readings.append(host_reading())
    return 1000 * statistics.median(readings[len(readings) // 2 :])


def spawn(name, seed, index, trace):
    """Run one worker process to its end. Returns its spawn-to-ready seconds
    (one set-up sample), scaled by the host readings just before the spawn
    and just after ready, and its result."""
    before = host_reading()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--worker", str(index)],
        stdout=subprocess.PIPE,
    )
    with proc.stdout:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        data = proc.stdout.read()
    if proc.wait() != 0 or ready.strip() != b"ready":
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    res = json.loads(data)
    return setup_s * 2 * REFERENCE_S / (before + res["readings"][0]), res


def run_workers(name, seed, seconds, modes):
    """Rounds of worker processes, one after another; a round runs one
    worker per mode in ``modes`` (0 untraced, 1 traced). Rounds go on until
    each mode has ``MIN_WORKERS`` workers and ``MIN_ANSWERS`` attempted
    answers, and then while the next round is expected to end within
    ``seconds`` of wall time. Every worker must give the first worker's
    answers. Untraced workers are each followed by ``SETUP_PROBES``
    set-up-only processes; every spawn-to-ready time of an untraced process
    is a set-up sample."""
    from workloads import WrongAnswer

    setups = []
    results = {m: [] for m in modes}
    start = time.perf_counter()

    def more():
        rounds = len(results[modes[0]])
        if rounds < MIN_WORKERS or rounds * len(first["latency"]) < MIN_ANSWERS:
            return True
        elapsed = time.perf_counter() - start
        return elapsed * (rounds + 1) / rounds <= seconds

    first = None
    while first is None or more():
        for m in modes:
            setup_s, res = spawn(name, seed, sum(map(len, results.values())), m)
            if first is None:
                first = res
            elif (res["digests"], res["fingerprint"]) != (
                first["digests"],
                first["fingerprint"],
            ):
                raise WrongAnswer("answers differ between worker processes")
            results[m].append(res)
            if m == 0:
                setups.append(setup_s)
                setups += [spawn(name, seed, -1, 0)[0] for _ in range(SETUP_PROBES)]
    return setups, results


def worker(name, seed, index, trace):
    """Set up, then one pass in this process; the result is one JSON line.
    Worker 0 checks every answer in full; the others are held to its
    digests by the parent."""
    wl = setup(name, seed)
    print("ready", flush=True)
    if index < 0:
        print(json.dumps({"readings": [host_reading()]}))
        return
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(wl, check=index == 0)
    try:
        run.one_pass(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "latency": run.latency,
        "readings": run.readings,
        "marks": run.marks,
        "failed": run.failed,
        "outcomes": run.outcomes,
        "fingerprint": run.fingerprint,
        "digests": run.digests,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(OUT / f"spans-{name}-{seed}-w{index}.json")
        out["layers"] = layer_metrics(tracer, len(wl.items), 1)
    elif wl.name == "cli":
        out["rss_kb"] = run.child_rss_kb
    else:
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


def child_seconds(code):
    """Median wall time of ``python -c code`` with hmbp on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment():
    import hmbp.oracle

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or None
    kernel = hmbp.oracle.kernel_name()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "kernel": kernel,
        "git_commit": commit,
        "recursion_limit": sys.getrecursionlimit(),
        "lockstep": lockstep_check() if kernel == "compiled" else
        "skipped: compiled kernel not importable",
    }


def lockstep_check():
    """kernel_bench.py's check: both kernels visit the same nodes."""
    import gen
    import hmbp
    from workloads import WrongAnswer

    for key, d, w, caps in gen.KERNEL_BENCH_CASES:
        if caps is None:
            inst = hmbp.extremal_witness(hmbp.WeightProfile(w), d).instance
        else:
            inst = hmbp.make_instance(d, w, caps)
        pure = hmbp.decide(inst, 0, kernel="pure")
        fast = hmbp.decide(inst, 0, kernel="compiled")
        if (pure.feasible, pure.nodes_explored) != (fast.feasible, fast.nodes_explored):
            raise WrongAnswer(f"{key}: pure and compiled kernels disagree")
        if key in ("kb-six-bin-extremal", "kb-seven-distinct-near-tight"):
            a = hmbp.min_bin1_weight(inst, kernel="pure")
            b = hmbp.min_bin1_weight(inst, kernel="compiled")
            if a != b:
                raise WrongAnswer(f"{key}: kernels disagree on W^min")
    return "passed"


class Run:
    """One pass over the items: latencies, outcomes, digests, fingerprint."""

    def __init__(self, wl, check=True):
        self.wl = wl
        self.check = check
        self.latency: dict[str, float] = {}
        # Host readings and when each was taken: one before the first answer
        # and one after every answer, so answer i lies between marks i, i+1.
        self.readings: list[float] = []
        self.marks: list[float] = []
        self.failed: list[str] = []
        self.outcomes: Counter = Counter()
        self.fingerprint: Counter = Counter()
        self.digests: dict[str, str] = {}
        self.child_rss_kb = 0

    def one(self, item, tracer=None):
        """Time one answer, then classify, check and count it."""
        import hmbp.oracle
        from workloads import FAILED, UNDECIDED

        wl = self.wl
        err = None
        if not self.readings:
            self.read_host()
        start = time.perf_counter()
        try:
            res = wl.answer(item)
        except hmbp.oracle.BudgetExceeded:
            res, err = None, (UNDECIDED, "BudgetExceeded")
        except Exception as exc:  # an uncaught exception is a failed answer
            res, err = None, (FAILED, type(exc).__name__)
        end = time.perf_counter()
        if tracer is not None and wl.name == "cli":
            tracer.record("cli.process", start, end)
        # Clock stopped from here on.
        outcome = err[0] if err else wl.outcome(item, res)
        self.outcomes[outcome] += 1
        self.fingerprint[f"outcome.{outcome}"] += 1
        if res is None:
            self.fingerprint[f"error.{err[1]}"] += 1
        else:
            if self.check:
                wl.check(item, res)
            wl.count(item, res, self.fingerprint)
            if hasattr(res, "maxrss_kb"):
                self.child_rss_kb = max(self.child_rss_kb, res.maxrss_kb)
        self.digests[item.key] = repr(err if err else wl.digest(item, res))
        self.latency[item.key] = end - start
        self.read_host()
        if outcome == FAILED:
            self.failed.append(item.key)

    def read_host(self):
        self.readings.append(host_reading())
        self.marks.append(time.perf_counter())

    def one_pass(self, tracer=None):
        for answer_id, item in enumerate(self.wl.items):
            if tracer is not None:
                tracer.answer_id = answer_id
            self.one(item, tracer)
            if tracer is not None and self.wl.name == "cli":
                run_cli_main(self.wl.argv(item))


def run_cli_main(argv):
    """In-process ``hmbp.cli.main(argv)``, output discarded (cli.main_s)."""
    import hmbp.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            hmbp.cli.main(argv)
        except Exception:  # the subprocess answer already counted it as failed
            pass


def scaled(result):
    """A worker's answer times scaled to the reference host speed."""
    readings, marks = result["readings"], result["marks"]
    out = {}
    for i, (key, t) in enumerate(result["latency"].items()):
        lo, hi = marks[i] - READING_WINDOW_S, marks[i + 1] + READING_WINDOW_S
        near = [r for r, m in zip(readings, marks) if lo <= m <= hi]
        out[key] = t * REFERENCE_S / statistics.median(near)
    return out


def end_to_end(setups, results):
    """The end-to-end metrics over every answer of every worker, scaled.

    Failed answers end early (a RecursionError is fast), so they are left
    out of the latency percentiles and of the throughput's numerator; their
    time stays in its denominator.
    """
    times = [scaled(r) for r in results]
    ms = [
        1000 * t
        for r, ts in zip(results, times)
        for key, t in ts.items()
        if key not in r["failed"]
    ]
    attempted = sum(len(r["latency"]) for r in results)
    failed = sum(len(r["failed"]) for r in results)
    undecided = sum(r["outcomes"].get("undecided", 0) for r in results)
    seconds = sum(sum(ts.values()) for ts in times)
    return {
        "answers_per_s": (len(ms) / seconds, "1/s"),
        "answer_ms_p50": (statistics.median(ms), "ms"),
        "answer_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "completed_frac": (1.0 - failed / attempted, "ratio"),
        "decided_frac": (1.0 - (failed + undecided) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024, "MB"),
    }


def unit_of(name):
    if name.endswith("_ratio") or name == "bench.trace_overhead":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name in ("cli.interpreter_s", "cli.import_s"):
        return "s"
    if name.endswith("_s"):
        return "s/answer"
    return "count/pass"


def traced(name, seed, seconds):
    """Untraced and traced workers in turn. The per-layer metrics are
    medians over the traced workers; the tracing overhead is the scaled
    answer time of all traced workers over that of as many untraced ones,
    minus one."""
    _, results = run_workers(name, seed, seconds, (0, 1))
    untraced, traced_ = results[0], results[1]

    def total(rs):
        return sum(sum(scaled(r).values()) for r in rs)

    metrics = {
        k: statistics.median([r["layers"][k] for r in traced_])
        for k in traced_[0]["layers"]
    }
    is_cli = name == "cli"
    interp = child_seconds("pass") if is_cli else 0.0
    metrics["cli.interpreter_s"] = interp
    metrics["cli.import_s"] = child_seconds("import hmbp") - interp if is_cli else 0.0
    metrics["bench.trace_overhead"] = total(traced_) / total(untraced) - 1
    return untraced + traced_, {k: (v, unit_of(k)) for k, v in metrics.items()}


def fingerprint_of(counts, items):
    fp = dict(sorted(counts.items()))
    fp["items"] = items
    text = json.dumps(fp, sort_keys=True)
    return fp, hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hmbp" / "__init__.py").is_file():
        print(f"error: no hmbp source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.worker is not None:
            worker(args.workload, args.seed, args.worker, args.trace)
            return 0
        pin()
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        print(f"host: reference block {spin(SPIN_SECONDS)} ms")
        if args.trace:
            results, metrics = traced(args.workload, args.seed, args.seconds)
        else:
            setups, by_mode = run_workers(args.workload, args.seed, args.seconds, (0,))
            results = by_mode[0]
            metrics = end_to_end(setups, results)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcomes = Counter()
    for r in results:
        outcomes.update(r["outcomes"])
    items = len(results[0]["latency"])
    fp, digest = fingerprint_of(results[0]["fingerprint"], items)
    attempted = items * len(results)
    failed = outcomes["failed"]
    print(
        f"workload: {args.workload} seed={args.seed} trace={args.trace} "
        f"answers={attempted} workers={len(results)} items/pass={items}"
    )
    print(
        f"outcomes: decided={outcomes['decided']} undecided={outcomes['undecided']} "
        f"failed={failed} failed_frac={failed / attempted} "
        f"undecided_frac={outcomes['undecided'] / attempted}"
    )
    print(f"fingerprint: {digest} " + json.dumps(fp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "fingerprint": digest,
        "counters": fp,
        "outcomes": dict(outcomes),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
