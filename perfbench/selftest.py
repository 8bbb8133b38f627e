"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks the independent oracle against the paper's reference values and
against the package on small random instances, then runs every workload
on a short list of its cheapest requests, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402


def test_oracle_reproduces_reference_values():
    a, b = (2, 0), (0, -1)
    assert O.det_product_form(a, b, O.REFERENCE_THETA, O.REFERENCE_TAU) == O.REFERENCE_DET == (-85, 30)
    assert O.linear_sum_value(a, b, O.REFERENCE_THETA, O.REFERENCE_TAU) == (-85, 30)
    stab = O.linear_sum_value((1, 0), (2, 0), O.REFERENCE_THETA, O.REFERENCE_TAU,
                              ("stab", (1, 3, 5)), "trivial")
    assert stab == O.REFERENCE_STAB == (120, 0)
    assert O.block_value(O.REFERENCE_BLOCK, ("S",), "trivial") == (448, 1536)
    assert O.block_value(O.REFERENCE_BLOCK, ("S",), "sign") == (448, -1536)
    assert O.det_product_form((3, 0), (2, 0), *W.BENCH8) == (-6305, 0)
    assert O.det_product_form((3, 0), (2, 0), *W.BENCH9) == (20195, 0)


def test_oracle_agrees_with_the_package_on_small_instances():
    pf = R.import_package()
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 6)
        theta = W.bijection(rng, n, {})
        tau = W.bijection(rng, n, {})
        a, b = W.gaussian_scalars(rng)
        points = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 2))))
        group = (("S",), ("A",), ("stab", points))[trial % 3]
        character = ("sign", "trivial")[trial % 2]
        matrix = pf.linear_sum(pf.gauss(*a), pf.gauss(*b), pf.Permutation(theta), pf.Permutation(tau))
        spec = pf.parse_group(W.group_text(group, n), n)
        naive = pf.gmf_naive(matrix, spec, pf.parse_character(character, n)).value
        assert O.linear_sum_value(a, b, theta, tau, group, character) == (naive.re, naive.im)
        rows = W.dense_rows(rng, n)
        dense = pf.Matrix([[pf.gauss(*z) for z in row] for row in rows])
        naive = pf.gmf_naive(dense, spec, pf.parse_character(character, n)).value
        assert O.dense_value(rows, group, character) == (naive.re, naive.im)
    for _ in range(6):
        block = W.block_instance(rng, 3, 8)
        req = W.Request("block", "block-gmf:naive", 8, character="sign", block=block)
        value = W.bind(req, pf).call().value
        assert O.block_value(block) == (value.re, value.im)


def cheap(req) -> bool:
    method = req.route.split(":")[1]
    if method in ("naive", "cauchy-binet"):
        return req.n <= 7
    return req.rows is not None or W.mixture_count(req) <= 256


def run_small(workload, trace):
    """Run the benchmark on the workload's cheap requests; returns (info, result)."""
    generator = W.GENERATORS[workload]
    W.GENERATORS[workload] = lambda seed: [r for r in generator(seed) if cheap(r)][:16]
    try:
        return R.run(argparse.Namespace(workload=workload, seed=1, seconds=0.5, trace=trace))
    finally:
        W.GENERATORS[workload] = generator


def test_every_workload_emits_every_metric_without_failures():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(W.WORKLOADS)
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            info, result = run_small(workload, trace)
            names = {m["name"]: m["unit"] for m in declared[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == names, (workload, trace)
            assert result["failed"] == 0 and info["failed_ratio"] == 0, (workload, trace)
            assert result["correct"] and result["attempted"] >= 11
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
