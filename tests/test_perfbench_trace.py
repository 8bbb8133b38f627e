"""The benchmark's traced path: every fast_routes request, answered under the tracer.

perfbench's traced run wraps package functions by name (perfbench/spans.py)
and reads their results, so a change of what a wrapped name returns can
fail requests there while the untraced routes still pass.  This runs the
same wrappers over one seeded pass, without editing perfbench.
"""

from fractions import Fraction
from pathlib import Path

import permfunc as pf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_fast_routes_match_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    requests = workloads.fast_routes(1)
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
    mismatched = [req.label for req, g, e in zip(requests, got, expected) if g != e]
    assert not mismatched
