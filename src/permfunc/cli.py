"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 domain error (degree mismatch,
enumeration cap, exactness), 4 check reported false (dominance, bound,
tensor mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import engine
from .characters import CharacterSpec, SignCharacter, TrivialCharacter, parse_character
from .errors import ParseError, PermfuncError
from .gaussian import GaussianRational
from .groups import GroupSpec, SymmetricGroup, parse_group
from .matrices import BlockSpec, block_matrix, linear_sum, perm_matrix, psd_classify, scalar_mul
from .perm import format_permutation, mixtures, parse_degree, parse_int, parse_permutation

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


def _integer(text: str) -> int:
    """An integer flag, in ASCII digits as everywhere else."""
    try:
        return parse_int(text)
    except ValueError:
        raise ParseError(f"bad integer {text!r}") from None


def _degree(text: str) -> int:
    """The --n flag: a positive integer."""
    return parse_degree(text, 0, f"bad integer {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfunc",
        description="exact generalized matrix functions of a*P_theta + b*P_tau",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, scalars=True):
        p.add_argument("--n", type=_degree, required=True, help="degree of the point set")
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
    p.add_argument("--n", type=_degree, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("psd", help="structural semidefiniteness classification")
    add_instance_flags(p)

    p = sub.add_parser("singvals", help="singular values of a*P_theta + b*P_tau")
    add_instance_flags(p)

    p = sub.add_parser("dominance", help="permanent dominance check on k*I + m*P_pi")
    p.add_argument("--n", type=_degree, required=True)
    p.add_argument("--k", required=True, help="real scalar literal, e.g. 3/2")
    p.add_argument("--m", required=True, help="real scalar literal")
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
    p.add_argument("--reps", type=_integer, default=3, help="repetitions per timing")

    return parser


def _instance(args):
    """theta, tau, a and b, parsed in that order."""
    theta = parse_permutation(args.theta, args.n)
    tau = parse_permutation(args.tau, args.n)
    return theta, tau, GaussianRational.parse(args.a), GaussianRational.parse(args.b)


def _group_and_character(args, degree: int) -> tuple[GroupSpec, CharacterSpec]:
    group = parse_group(args.group, degree)
    if group.degree != degree:
        raise PermfuncError(
            f"group degree {group.degree} does not match instance degree {degree}"
        )
    return group, parse_character(args.character, degree)


def _routes(theta, tau, a, b, group: GroupSpec, chi: CharacterSpec) -> dict:
    """The evaluation calls for a*P_theta + b*P_tau by --method, built but not run.

    Each call builds its own input matrix, which refuses past the cap
    before it allocates; gmf_naive then checks its own work.  "closed" is
    the determinant for the sign character and the permanent otherwise.
    """
    closed = engine.det_linear_sum if isinstance(chi, SignCharacter) else engine.per_linear_sum
    return {
        "closed": lambda: closed(a, b, theta, tau),
        "formula": lambda: engine.gmf_linear_sum(a, b, theta, tau, group, chi),
        "cauchy-binet": lambda: engine.det_cauchy_binet_sum(
            scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
        ),
        "naive": lambda: engine.gmf_naive(linear_sum(a, b, theta, tau), group, chi),
    }


def _emit(args, payload, text, code: int = EXIT_OK) -> int:
    """Print ``payload`` as JSON under --json, an object in it by its
    to_json(), else ``text``; return ``code``.

    Exact values and counts may pass the 4300 digits Python turns into
    text by default, so the limit is lifted while they are printed, and
    only then: every input was parsed under it.  A Python without
    sys.get_int_max_str_digits has no limit, and 0 means none.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload, default=lambda obj: obj.to_json()) if args.json else text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def _cmd_xset(args) -> int:
    walk = mixtures(parse_permutation(args.theta, args.n), parse_permutation(args.tau, args.n))
    if args.json:
        print(json.dumps([format_permutation(sigma) for sigma in walk]))
    else:
        for sigma in walk:
            print(format_permutation(sigma))
    return EXIT_OK


def _cmd_route(args) -> int:
    """det, per and gmf: run the --method entry of the route table.

    det fixes the group and character to (S_n, sign), per to (S_n,
    trivial); gmf reads them from --group and --character.
    """
    theta, tau, a, b = _instance(args)
    if args.command == "gmf":
        group, chi = _group_and_character(args, args.n)
    else:
        group = SymmetricGroup(args.n)
        chi = SignCharacter() if args.command == "det" else TrivialCharacter()
    result = _routes(theta, tau, a, b, group, chi)[args.method]()
    return _emit(args, result, result.value)


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
        result = engine.gmf_naive(block_matrix(spec), group, chi)
    else:
        result = engine.gmf_block(spec, group, chi)
    return _emit(args, result, result.value)


def _cmd_s_det(args) -> int:
    value = engine.det_s_closed(parse_permutation(args.theta, args.n))
    return _emit(args, {"value": value}, value)


def _cmd_psd(args) -> int:
    theta, tau, a, b = _instance(args)
    verdict = psd_classify(a, b, theta, tau)
    if not verdict.psd:
        return _emit(args, {"psd": False}, "not PSD")
    pi = format_permutation(verdict.pi)
    return _emit(
        args,
        {"psd": True, "k": str(verdict.k), "m": str(verdict.m), "pi": pi,
         "condition": verdict.condition},
        f"PSD: k={verdict.k} m={verdict.m} pi={pi} (condition {verdict.condition})",
    )


def _cmd_singvals(args) -> int:
    theta, tau, a, b = _instance(args)
    spectrum = engine.singular_values(a, b, theta, tau)
    return _emit(args, spectrum.to_json(), " ".join(f"{v:.12g}" for v in spectrum.values))


def _cmd_dominance(args) -> int:
    pi = parse_permutation(args.pi, args.n)
    chi = parse_character(args.character, args.n)
    k, m = GaussianRational.parse(args.k), GaussianRational.parse(args.m)
    if k.im or m.im:
        raise ParseError(f"--k and --m must be real, got {args.k!r} and {args.m!r}")
    report = engine.check_dominance(k.re, m.re, pi, chi)
    # the sides may pass the digit limit, so _emit formats them as it prints
    return _emit(args, report, report, EXIT_OK if report.holds else EXIT_CHECK)


def _cmd_bound(args) -> int:
    theta, tau, a, b = _instance(args)
    report = engine.check_singular_bound(a, b, theta, tau, *_group_and_character(args, args.n))
    text = f"lhs={report.lhs:.12g} rhs={report.rhs:.12g} holds={report.holds}"
    return _emit(args, report.to_json(), text, EXIT_OK if report.holds else EXIT_CHECK)


def _cmd_tensor_check(args) -> int:
    theta, tau, a, b = _instance(args)
    group, chi = _group_and_character(args, args.n)
    tensor_value = engine.tensor_oracle(a, b, theta, tau, group, chi)
    formula_value = engine.gmf_linear_sum(a, b, theta, tau, group, chi).value
    match = tensor_value == formula_value
    return _emit(
        args,
        {"tensor": tensor_value.to_json(), "formula": formula_value.to_json(), "match": match},
        f"tensor={tensor_value} formula={formula_value} match={match}",
        EXIT_OK if match else EXIT_CHECK,
    )


def _median_seconds(fn, reps: int) -> float:
    import statistics  # only `bench` needs it; every other call skips the import

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cmd_bench(args) -> int:
    """Time three rows of the route table for the determinant over S_n."""
    if args.reps < 1:
        raise ParseError(f"--reps must be a positive integer, got {args.reps}")
    theta, tau, a, b = _instance(args)
    group = SymmetricGroup(args.n)
    terms = engine.term_counts(theta, tau, group).to_json()
    routes = _routes(theta, tau, a, b, group, SignCharacter())
    rows = [
        {"method": method, "terms": terms[method],
         "median_seconds": _median_seconds(routes[method], args.reps)}
        for method in ("formula", "cauchy-binet", "naive")
    ]
    lines = [f"{'method':<14}{'terms':>8}  median"]
    lines += [f"{r['method']:<14}{r['terms']:>8}  {r['median_seconds']:.6f}s" for r in rows]
    return _emit(args, rows, "\n".join(lines))


_HANDLERS = {
    "xset": _cmd_xset,
    "gmf": _cmd_route,
    "det": _cmd_route,
    "per": _cmd_route,
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
    try:
        # an integer flag's type raises ParseError, which argparse lets through
        args = parser.parse_args(_merge_scalar_flags(raw))
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
