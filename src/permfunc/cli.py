"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 domain error (degree mismatch,
enumeration cap, exactness), 4 check reported false (dominance, bound,
tensor mismatch).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction

from . import engine
from .characters import CharacterSpec, parse_character
from .errors import ParseError, PermfuncError
from .gaussian import GaussianRational
from .groups import GroupSpec, SymmetricGroup, parse_group
from .matrices import BlockSpec, psd_classify
from .perm import Permutation, format_permutation, mixtures, parse_permutation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CHECK = 4

# flags whose values may start with '-' (scalar literals like -1i)
_SCALAR_FLAGS = {"--a", "--b", "--k", "--m"}


def _merge_scalar_flags(argv: list[str]) -> list[str]:
    """Rewrite "--a -1i" to "--a=-1i" so argparse accepts leading dashes."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SCALAR_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfunc",
        description="exact generalized matrix functions of a*P_theta + b*P_tau",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, scalars=True):
        p.add_argument("--n", type=int, required=True, help="degree of the point set")
        p.add_argument("--theta", required=True, help='cycle notation, e.g. "(1 5 3)(2 6)"')
        p.add_argument("--tau", required=True, help="cycle notation")
        if scalars:
            p.add_argument("--a", default="1", help='scalar literal, e.g. "2", "-1i", "1/2+3/4i"')
            p.add_argument("--b", default="1", help="scalar literal")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("xset", help="list the pointwise mixtures of theta and tau")
    add_instance_flags(p, scalars=False)

    p = sub.add_parser("gmf", help="generalized matrix function of a*P_theta + b*P_tau")
    add_instance_flags(p)
    p.add_argument("--group", required=True, help='e.g. "S6", "A6", "stab:1,3,5@6"')
    p.add_argument("--character", required=True, help='e.g. "trivial", "sign", "irr:[3,1]"')
    p.add_argument("--method", choices=["formula", "naive"], default="formula")

    p = sub.add_parser("det", help="determinant of a*P_theta + b*P_tau")
    add_instance_flags(p)
    p.add_argument(
        "--method",
        choices=["closed", "formula", "cauchy-binet", "naive"],
        default="closed",
    )

    p = sub.add_parser("per", help="permanent of a*P_theta + b*P_tau")
    add_instance_flags(p)
    p.add_argument("--method", choices=["closed", "formula", "naive"], default="closed")

    p = sub.add_parser("block-gmf", help="block assembly from a JSON spec file")
    p.add_argument("--spec", required=True, help="path to the block spec JSON")
    p.add_argument("--character", required=True)
    p.add_argument("--group", help="defaults to the full symmetric group")
    p.add_argument("--method", choices=["block", "naive"], default="block")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("s-det", help="closed-form determinant of the symmetric companion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("psd", help="structural semidefiniteness classification")
    add_instance_flags(p)

    p = sub.add_parser("singvals", help="singular values of a*P_theta + b*P_tau")
    add_instance_flags(p)

    p = sub.add_parser("dominance", help="permanent dominance check on k*I + m*P_pi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help="real rational")
    p.add_argument("--m", required=True, help="real rational")
    p.add_argument("--pi", required=True, help="involution in cycle notation")
    p.add_argument("--character", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bound", help="singular-value bound check for a linear character")
    add_instance_flags(p)
    p.add_argument("--group", required=True)
    p.add_argument("--character", required=True)

    p = sub.add_parser("tensor-check", help="tensor-symmetrizer cross-check (n <= 4)")
    add_instance_flags(p)
    p.add_argument("--group", required=True)
    p.add_argument("--character", required=True)

    p = sub.add_parser("bench", help="compare evaluation routes")
    add_instance_flags(p)
    p.add_argument("--reps", type=int, default=3, help="repetitions per timing")

    return parser


def _parse_scalar(text: str) -> GaussianRational:
    return GaussianRational.parse(text)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal: {text!r}") from exc


def _instance(args) -> tuple[Permutation, Permutation]:
    theta = parse_permutation(args.theta, args.n)
    tau = parse_permutation(args.tau, args.n)
    return theta, tau


def _group_for(args, degree: int) -> GroupSpec:
    spec = parse_group(args.group, degree)
    if spec.degree != degree:
        raise PermfuncError(
            f"group degree {spec.degree} does not match instance degree {degree}"
        )
    return spec


def _character_for(args, degree: int) -> CharacterSpec:
    return parse_character(args.character, degree)


def _emit_result(args, result: engine.GmfResult) -> int:
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(result.value)
    return EXIT_OK


def _cmd_xset(args) -> int:
    theta, tau = _instance(args)
    walk = mixtures(theta, tau)
    if args.json:
        print(json.dumps([format_permutation(sigma) for sigma in walk]))
    else:
        for sigma in walk:
            print(format_permutation(sigma))
    return EXIT_OK


def _cmd_gmf(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    group = _group_for(args, args.n)
    chi = _character_for(args, args.n)
    if args.method == "naive":
        from .matrices import linear_sum

        result = engine.gmf_naive(linear_sum(a, b, theta, tau), group, chi)
    else:
        result = engine.gmf_linear_sum(a, b, theta, tau, group, chi)
    return _emit_result(args, result)


def _cmd_det(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    from .characters import SignCharacter
    from .matrices import linear_sum, perm_matrix, scalar_mul

    if args.method == "closed":
        result = engine.det_linear_sum(a, b, theta, tau)
    elif args.method == "formula":
        result = engine.gmf_linear_sum(
            a, b, theta, tau, SymmetricGroup(args.n), SignCharacter()
        )
    elif args.method == "cauchy-binet":
        result = engine.det_cauchy_binet_sum(
            scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
        )
    else:
        result = engine.gmf_naive(
            linear_sum(a, b, theta, tau), SymmetricGroup(args.n), SignCharacter()
        )
    return _emit_result(args, result)


def _cmd_per(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    from .characters import TrivialCharacter
    from .matrices import linear_sum

    if args.method == "closed":
        result = engine.per_linear_sum(a, b, theta, tau)
    elif args.method == "formula":
        result = engine.gmf_linear_sum(
            a, b, theta, tau, SymmetricGroup(args.n), TrivialCharacter()
        )
    else:
        result = engine.gmf_naive(
            linear_sum(a, b, theta, tau), SymmetricGroup(args.n), TrivialCharacter()
        )
    return _emit_result(args, result)


def _cmd_block_gmf(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = BlockSpec.from_json(json.load(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {args.spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {args.spec!r}: {exc}") from exc
    group = (
        parse_group(args.group, spec.size) if args.group else SymmetricGroup(spec.size)
    )
    if group.degree != spec.size:
        raise PermfuncError(
            f"group degree {group.degree} does not match block size {spec.size}"
        )
    chi = parse_character(args.character, spec.size)
    if args.method == "naive":
        from .matrices import block_matrix

        result = engine.gmf_naive(block_matrix(spec), group, chi)
    else:
        result = engine.gmf_block(spec, group, chi)
    return _emit_result(args, result)


def _cmd_s_det(args) -> int:
    theta = parse_permutation(args.theta, args.n)
    value = engine.det_s_closed(theta)
    if args.json:
        print(json.dumps({"value": value.to_json()}))
    else:
        print(value)
    return EXIT_OK


def _cmd_psd(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    verdict = psd_classify(a, b, theta, tau)
    if args.json:
        payload = {"psd": verdict.psd}
        if verdict.psd:
            payload.update(
                k=str(verdict.k),
                m=str(verdict.m),
                pi=format_permutation(verdict.pi),
                condition=verdict.condition,
            )
        print(json.dumps(payload))
    elif verdict.psd:
        print(
            f"PSD: k={verdict.k} m={verdict.m} pi={format_permutation(verdict.pi)}"
            f" (condition {verdict.condition})"
        )
    else:
        print("not PSD")
    return EXIT_OK


def _cmd_singvals(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    spectrum = engine.singular_values(a, b, theta, tau)
    if args.json:
        print(json.dumps(spectrum.to_json()))
    else:
        print(" ".join(f"{v:.12g}" for v in spectrum.values))
    return EXIT_OK


def _cmd_dominance(args) -> int:
    pi = parse_permutation(args.pi, args.n)
    chi = _character_for(args, args.n)
    report = engine.check_dominance(
        _parse_rational(args.k), _parse_rational(args.m), pi, chi
    )
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        relation = "<=" if report.holds else ">"
        print(f"{report.lhs} {relation} {report.rhs}: {'holds' if report.holds else 'VIOLATED'}")
    return EXIT_OK if report.holds else EXIT_CHECK


def _cmd_bound(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    group = _group_for(args, args.n)
    chi = _character_for(args, args.n)
    report = engine.check_singular_bound(a, b, theta, tau, group, chi)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"lhs={report.lhs:.12g} rhs={report.rhs:.12g} holds={report.holds}")
    return EXIT_OK if report.holds else EXIT_CHECK


def _cmd_tensor_check(args) -> int:
    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    group = _group_for(args, args.n)
    chi = _character_for(args, args.n)
    tensor_value = engine.tensor_oracle(a, b, theta, tau, group, chi)
    formula_value = engine.gmf_linear_sum(a, b, theta, tau, group, chi).value
    match = tensor_value == formula_value
    if args.json:
        print(
            json.dumps(
                {
                    "tensor": tensor_value.to_json(),
                    "formula": formula_value.to_json(),
                    "match": match,
                }
            )
        )
    else:
        print(f"tensor={tensor_value} formula={formula_value} match={match}")
    return EXIT_OK if match else EXIT_CHECK


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cmd_bench(args) -> int:
    from .characters import SignCharacter
    from .matrices import linear_sum, perm_matrix, scalar_mul

    theta, tau = _instance(args)
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    group = SymmetricGroup(args.n)
    chi = SignCharacter()
    counts = engine.term_counts(theta, tau, group)
    matrix = linear_sum(a, b, theta, tau)
    layer_a = scalar_mul(a, perm_matrix(theta))
    layer_b = scalar_mul(b, perm_matrix(tau))

    jobs = {
        "formula": lambda: engine.gmf_linear_sum(a, b, theta, tau, group, chi),
        "cauchy-binet": lambda: engine.det_cauchy_binet_sum(layer_a, layer_b),
        "naive": lambda: engine.gmf_naive(matrix, group, chi),
    }
    terms = {
        "formula": counts.formula,
        "cauchy-binet": counts.cauchy_binet,
        "naive": counts.naive,
    }
    rows = []
    for method, fn in jobs.items():
        rows.append(
            {
                "method": method,
                "terms": terms[method],
                "median_seconds": _median_seconds(fn, args.reps),
            }
        )
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"{'method':<14}{'terms':>8}  median")
        for row in rows:
            print(f"{row['method']:<14}{row['terms']:>8}  {row['median_seconds']:.6f}s")
    return EXIT_OK


_HANDLERS = {
    "xset": _cmd_xset,
    "gmf": _cmd_gmf,
    "det": _cmd_det,
    "per": _cmd_per,
    "block-gmf": _cmd_block_gmf,
    "s-det": _cmd_s_det,
    "psd": _cmd_psd,
    "singvals": _cmd_singvals,
    "dominance": _cmd_dominance,
    "bound": _cmd_bound,
    "tensor-check": _cmd_tensor_check,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_scalar_flags(raw))
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PermfuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
