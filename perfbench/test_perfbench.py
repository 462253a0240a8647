"""Tests of the benchmark itself: its generator, anchors and fingerprints.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the package's suite (``testpaths`` is ``tests``); it takes about
a minute because it runs one pass of every workload twice.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hmbp  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_generator_arithmetic_matches_the_package():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 9)
        w = tuple(sorted((rng.randint(0, 12) for _ in range(n)), reverse=True))
        profile = hmbp.WeightProfile(w)
        assert gen.gap_b(w) == hmbp.b_constant(profile), w
        assert gen.threshold(w) == hmbp.d_threshold(profile), w


def test_descent_inputs_are_certified_feasible():
    for seed in (1, 2):
        for key, w, d, caps in gen.descent_instances(seed):
            verdict = hmbp.classify(hmbp.make_instance(d, w, caps))
            assert verdict.is_guaranteed_feasible, key


def test_same_seed_same_inputs_other_seed_other_numbers():
    assert gen.descent_instances(3) == gen.descent_instances(3)
    assert gen.desk_instances(3) == gen.desk_instances(3)
    assert gen.scale_instances(3) == gen.scale_instances(3)
    assert gen.cli_instances(3) == gen.cli_instances(3)
    assert gen.desk_instances(3) != gen.desk_instances(4)
    assert gen.scale_instances(3) != gen.scale_instances(4)


@pytest.mark.parametrize(
    "w, moves",
    [((3, 2, 1, 0), 2107), ((5, 5, 3, 1, 1, 0), 25241)],
)
def test_roadmap_descent_anchors(w, moves):
    d = gen.threshold(w)
    inst = hmbp.make_instance(d, w, gen.balanced_caps(w, d, 5 * len(w)))
    assert len(hmbp.solve(inst).trace) == moves


def test_kernel_bench_decide_anchors():
    nodes = []
    for _, d, w, caps in gen.KERNEL_BENCH_CASES:
        if caps is None:
            inst = hmbp.extremal_witness(hmbp.WeightProfile(w), d).instance
        else:
            inst = hmbp.make_instance(d, w, caps)
        nodes.append(hmbp.decide(inst, 0).nodes_explored)
    assert min(nodes) == 22 and max(nodes) == 49


def one_pass_fingerprint(name, seed):
    wl = workloads.WORKLOADS[name](seed, ROOT)
    r = run.Run(wl)
    r.one_pass()
    return run.fingerprint_of(r.fingerprint, len(wl.items))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fingerprint_repeats_exactly(name):
    first = one_pass_fingerprint(name, 5)
    assert one_pass_fingerprint(name, 5) == first
    if name == "descent":
        fp = first[0]
        assert fp["anchor-balanced-3210.d2112.moves"] == 2107
        assert fp["anchor-balanced-553110.d18360.moves"] == 25241
    if name == "scale":
        # The pure kernel's RecursionError on wide profiles stays visible.
        assert first[0]["outcome.failed"] > 0


def test_scaled_times_follow_the_nearby_host_readings():
    ref = run.REFERENCE_S
    result = {
        "latency": {"fast": 0.1, "long": 4.9, "slow": 0.1},
        "readings": [ref, ref, 2 * ref, 2 * ref],
        "marks": [0.0, 0.1, 5.0, 5.1],
    }
    out = run.scaled(result)
    assert out["fast"] == pytest.approx(0.1)
    assert out["slow"] == pytest.approx(0.05)
    assert out["long"] == pytest.approx(4.9 / 1.5)


def test_wrong_answer_aborts(monkeypatch):
    wl = workloads.Descent(1, ROOT)
    item = wl.warmup
    honest = hmbp.solver.solve

    def lying_solve(inst, cfg=None):
        res = honest(inst, cfg)
        res.assignment = hmbp.Assignment.diagonal(inst.weights, inst.d)
        return res

    monkeypatch.setattr(hmbp.solver, "solve", lying_solve)
    with pytest.raises(workloads.WrongAnswer):
        run.Run(wl).one(item)


def test_refuses_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
