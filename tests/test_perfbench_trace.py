"""The benchmark's traced paths, answered under the tracer.

perfbench's traced run wraps package functions by name (perfbench/spans.py)
and reads their results, so a change of what a wrapped name returns can
fail requests there while the untraced routes still pass.  This runs the
same wrappers over one seeded fast_routes pass in process, and the traced
CLI launcher over one request of each cold_cli route, without editing
perfbench.  It also counts, under the same wrappers, the Permutations each
in-process request builds.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import permfunc as pf

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Names perfbench/spans.py wraps that the package no longer has: the
# tracer skips them and their metrics read 0.  Any other missing name fails.
GONE = {
    ("permfunc.kernels", "gmf_sum"),
    ("permfunc.characters", "CharacterSpec.conjugate_evaluate"),
    ("permfunc.characters", "CharacterSpec.evaluate_float"),
    ("permfunc.perm", "x_set"),
}


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = set()
    for mod_name, attr, _ in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            missing.add((mod_name, attr))
    for mod_name, base_name, methods, _ in spans.METHODS:
        base = getattr(importlib.import_module(mod_name), base_name, None)
        for method in methods:
            if not callable(getattr(base, method, None)):
                missing.add((mod_name, f"{base_name}.{method}"))
    for method in spans.GAUSSIAN_OPS:
        if method not in vars(pf.GaussianRational):
            missing.add(("permfunc.gaussian", f"GaussianRational.{method}"))
    assert missing == GONE


def check_traced(requests):
    """Answer ``requests`` under the tracer; the labels of those that miss their check."""
    import spans
    import workloads

    bound = [workloads.bind(req, pf) for req in requests]
    expected = []
    for req, b in zip(requests, bound):
        value = workloads.oracle_value(req)
        if value is None:
            value = b.cross().value
            value = (value.re, value.im)
        expected.append(tuple(Fraction(x) for x in value))
    got = []
    tracer = spans.Tracer()
    tracer.install()
    try:
        for k, b in enumerate(bound):
            tracer.request = k
            value = tracer.request_span(b.call).value
            got.append((value.re, value.im))
    finally:
        tracer.uninstall()
    return [req.label for req, g, e in zip(requests, got, expected) if g != e]


def test_traced_fast_routes_match_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert not check_traced(workloads.fast_routes(1))


def test_traced_minor_expansion_and_naive_match_their_checks(monkeypatch):
    # fast_routes reaches neither det_cauchy_binet_sum nor gmf_naive; the
    # warm_oracles requests reach both, sparse and dense
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    requests = workloads.warm_oracles(1)
    assert len(requests) == 47
    assert {req.route.split(":")[1] for req in requests} == {"naive", "cauchy-binet"}
    assert not check_traced(requests)


def permutations_built(requests):
    """Per request, the Permutations built while the tracer answers it."""
    import spans
    import workloads

    bound = [workloads.bind(req, pf) for req in requests]
    tracer = spans.Tracer()
    tracer.install()
    built = []
    try:
        for b in bound:
            before = tracer.counts["perm.permutations_built"]
            b.call()
            built.append(tracer.counts["perm.permutations_built"] - before)
    finally:
        tracer.uninstall()
    return built


def test_sums_build_no_permutation(monkeypatch):
    # the sums speak image tuples; a block request builds only the two
    # permutations of spec.induced_pair()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for requests in (workloads.fast_routes(1), workloads.warm_oracles(1)):
        expected = [2 if req.route == "block-gmf:block" else 0 for req in requests]
        assert permutations_built(requests) == expected


def test_traced_cli_answers_each_cold_cli_route(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    requests = workloads.cold_cli(1)
    workloads.write_spec_files(requests, str(tmp_path))
    cheapest = {}
    for req in sorted(requests, key=lambda req: (req.n, workloads.mixture_count(req))):
        cheapest.setdefault(req.route, req)
    assert len(cheapest) == 10
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for route, req in cheapest.items():
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(tmp_path / "spans.bin"),
             *workloads.argv(req)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, (route, proc.stderr)
        value = json.loads(proc.stdout)["value"]
        expected = workloads.oracle_value(req)
        if expected is None:
            result = workloads.bind(req, pf).call().value
            expected = (result.re, result.im)
        assert (Fraction(value["re"]), Fraction(value["im"])) == tuple(map(Fraction, expected))
