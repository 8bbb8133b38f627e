"""Seeded request lists for the three workloads.

A request is plain data (image tuples, Gaussian-integer pairs, group and
character descriptors) until ``bind`` turns it into a library call or
``argv`` into a CLI command line.  Every list is a fixed schedule of
request shapes (route, group, character, cycle count r, degree n); the
seed picks only the permutations, scalars and order within that schedule.
So the cost of a pass barely moves with the seed, while the values the
checks compare are new for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import oracle as O

WORKLOADS = ("fast_routes", "warm_oracles", "cold_cli")

# Routes are "<cli command>:<method>"; the in-process calls mirror the CLI.
# det and per routes fix the group to S_n and the character to sign/trivial.


@dataclass
class Request:
    label: str
    route: str
    n: int
    group: tuple = ("S",)
    character: str = "sign"
    a: tuple = O.ONE
    b: tuple = O.ONE
    theta: tuple | None = None
    tau: tuple | None = None
    block: dict | None = None
    rows: list | None = None
    rows_b: list | None = None
    expected: tuple | None = None  # a literal reference value, when one is known
    spec_path: str | None = None  # cold_cli: where the block spec JSON lives


# -- text forms --------------------------------------------------------------


def scalar_text(z) -> str:
    re, im = z
    if not im:
        return str(re)
    imag = f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def group_text(group, n) -> str:
    kind = group[0]
    if kind in ("S", "A"):
        return f"{kind}{n}"
    if kind == "stab":
        return "stab:" + ",".join(map(str, sorted(group[1]))) + f"@{n}"
    if kind == "gens":
        return "gens:" + ",".join(O.cycle_text(g) for g in group[1]) + f"@{n}"
    if kind == "cyclic":
        return f"cyclic:{O.cycle_text(group[1])}@{n}"
    raise ValueError(f"unknown group kind {kind!r}")


def block_json(block) -> dict:
    return {
        "m": block["m"],
        "n": block["n"],
        "theta": O.cycle_text(block["theta"]),
        "tau": O.cycle_text(block["tau"]),
        "inner_thetas": [O.cycle_text(p) for p in block["inner_thetas"]],
        "inner_taus": [O.cycle_text(p) for p in block["inner_taus"]],
        "a": [scalar_text(z) for z in block["a"]],
        "b": [scalar_text(z) for z in block["b"]],
    }


def argv(req: Request) -> list[str]:
    """The permfunc CLI arguments for a request (always with --json)."""
    command, method = req.route.split(":")
    if command == "block-gmf":
        args = ["block-gmf", "--spec", req.spec_path, "--character", req.character]
        if req.group[0] != "S":
            args += ["--group", group_text(req.group, req.n)]
        return args + ["--method", method, "--json"]
    args = [
        command,
        "--n", str(req.n),
        "--theta", O.cycle_text(req.theta),
        "--tau", O.cycle_text(req.tau),
        "--a", scalar_text(req.a),
        "--b", scalar_text(req.b),
    ]
    if command == "gmf":
        args += ["--group", group_text(req.group, req.n), "--character", req.character]
    return args + ["--method", method, "--json"]


def write_spec_files(requests, directory) -> None:
    for k, req in enumerate(requests):
        if req.block is not None:
            req.spec_path = os.path.join(directory, f"block-{k}.json")
            with open(req.spec_path, "w") as fh:
                json.dump(block_json(req.block), fh)


# -- expected values -----------------------------------------------------------


def oracle_value(req: Request):
    """The independent value of a request, or None when only a second route covers it."""
    if req.expected is not None:
        return req.expected
    command, _ = req.route.split(":")
    if command == "det" and req.theta is not None:
        return O.det_product_form(req.a, req.b, req.theta, req.tau)
    if command == "per":
        return O.per_product_form(req.a, req.b, req.theta, req.tau)
    if req.group[0] not in ("S", "A", "stab") or req.character not in ("sign", "trivial"):
        return None
    if command == "gmf":
        return O.linear_sum_value(req.a, req.b, req.theta, req.tau, req.group, req.character)
    if command == "block-gmf":
        return O.block_value(req.block, req.group, req.character)
    if req.route == "dense:naive":
        return O.dense_value(req.rows, req.group, req.character)
    if req.route == "dense:cauchy-binet":
        return O.det_dense([[O.gadd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(req.rows, req.rows_b)])
    return None


def mixture_count(req: Request) -> int:
    """2^r for the request's pair of permutations (the structured routes' term set)."""
    if req.block is not None:
        alpha, beta, _, _ = O.block_pair(req.block)
    else:
        alpha, beta = req.theta, req.tau
    cyc, _ = O.cycles(O.compose(O.inverse(alpha), beta))
    return 1 << len(cyc)


# -- seeded building blocks ------------------------------------------------------


def gaussian_scalars(rng):
    """a, b with nonzero a, b and a+b (a vanishing a+b short-circuits the routes)."""
    while True:
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        if a != O.ZERO and b != O.ZERO and O.gadd(a, b) != O.ZERO:
            return a, b


def cycle_lengths(r, n):
    """r cycle lengths (each >= 2) moving about four fifths of the n points."""
    moved = min(n, max(2 * r, n - n // 5))
    lengths = [2] * r
    for k in range(moved - 2 * r):
        lengths[k % r] += 1
    return lengths


def random_rho(rng, n, lengths):
    points = rng.sample(range(1, n + 1), sum(lengths))
    cycles, k = [], 0
    for length in lengths:
        cycles.append(tuple(points[k : k + length]))
        k += length
    return O.from_cycles(n, cycles), cycles


def bijection(rng, n, fixed):
    """Random permutation of [1..n] with the images in ``fixed`` prescribed."""
    free_src = [p for p in range(1, n + 1) if p not in fixed]
    free_dst = [p for p in range(1, n + 1) if p not in set(fixed.values())]
    rng.shuffle(free_dst)
    images = dict(fixed)
    images.update(zip(free_src, free_dst))
    return tuple(images[p] for p in range(1, n + 1))


def linear_instance(rng, n, lengths):
    """theta uniform; tau = theta*rho, so theta^-1*tau = rho has the given cycles."""
    rho, _ = random_rho(rng, n, lengths)
    theta = bijection(rng, n, {})
    return theta, O.compose(theta, rho)


def pinned_instance(rng, n, lengths):
    """An instance and stabilized points that forbid one cycle and force another.

    theta fixes a point of the first cycle (so that cycle may not be
    chosen), theta*rho fixes a point of the second (so that cycle must be
    chosen), and theta fixes one fixed point of rho when there is one.
    """
    rho, cycles = random_rho(rng, n, lengths)
    forbid, force = cycles[0][0], cycles[1][0]
    fixed = {forbid: forbid, rho[force - 1]: force}
    points = [forbid, force]
    spare = [p for p in range(1, n + 1) if rho[p - 1] == p]
    if spare:
        fixed[spare[0]] = spare[0]
        points.append(spare[0])
    theta = bijection(rng, n, fixed)
    return theta, O.compose(theta, rho), ("stab", tuple(sorted(points)))


def gens_instance(rng, n, lengths):
    """A small generated group: three cycles of rho; theta is an element of it."""
    rho, cycles = random_rho(rng, n, lengths)
    gens = [O.from_cycles(n, [c]) for c in cycles[:3]]
    theta = tuple(range(1, n + 1))
    for g in gens:
        for _ in range(rng.randrange(len(cycles[0]))):
            theta = O.compose(theta, g)
    return theta, O.compose(theta, rho), ("gens", tuple(gens))


def cyclic_instance(rng, n, lengths):
    """A cyclic group generated by two cycles of rho; theta is a power of it."""
    rho, cycles = random_rho(rng, n, lengths)
    generator = O.from_cycles(n, cycles[:2])
    theta = tuple(range(1, n + 1))
    for _ in range(rng.randrange(1, 4)):
        theta = O.compose(theta, generator)
    return theta, O.compose(theta, rho), ("cyclic", generator)


def block_instance(rng, r, n):
    """A block spec with m = 4, equal outer permutations and r cycles in all.

    With theta_o = tau_o the cycles of alpha^-1*beta stay inside column
    blocks, one block per inner pair, so each inner pair adds one or two
    cycles and r is exact.
    """
    m, blocks = 4, max(n // 4, (r + 1) // 2)
    two_cycle_blocks = r - blocks
    outer = bijection(rng, blocks, {})
    inner_thetas, inner_taus = [], []
    for k in range(blocks):
        pts = rng.sample(range(1, m + 1), m)
        if k < two_cycle_blocks:
            c = O.from_cycles(m, [pts[:2], pts[2:]])
        else:
            c = O.from_cycles(m, [pts[: rng.choice((2, 3, 4))]])
        inner = bijection(rng, m, {})
        inner_thetas.append(inner)
        inner_taus.append(O.compose(inner, c))
    a, b = zip(*(gaussian_scalars(rng) for _ in range(blocks)))
    return {
        "m": m,
        "n": blocks,
        "theta": outer,
        "tau": outer,
        "inner_thetas": tuple(inner_thetas),
        "inner_taus": tuple(inner_taus),
        "a": a,
        "b": b,
    }


def block_stab(rng, block):
    """Stabilized points for a block spec: points one of the two layers fixes."""
    alpha, beta, _, _ = O.block_pair(block)
    fixes = [y for y in range(1, len(alpha) + 1) if alpha[y - 1] == y or beta[y - 1] == y]
    return ("stab", tuple(sorted(rng.sample(fixes, min(2, len(fixes))))))


def dense_rows(rng, n):
    """Dense Gaussian-integer entries, none of them zero."""
    rows = []
    for _ in range(n):
        row = []
        while len(row) < n:
            z = (rng.randint(-3, 3), rng.randint(-3, 3))
            if z != O.ZERO:
                row.append(z)
        rows.append(row)
    return rows


# -- the paper's reference instances and the bench instances --------------------


def reference_det(method):
    return Request(
        f"reference det {method}", f"det:{method}", 6, a=(2, 0), b=(0, -1),
        theta=O.REFERENCE_THETA, tau=O.REFERENCE_TAU, expected=O.REFERENCE_DET,
    )


def reference_stab(method):
    return Request(
        f"reference stab:1,3,5@6 {method}", f"gmf:{method}", 6, group=("stab", (1, 3, 5)),
        character="trivial", a=(1, 0), b=(2, 0), theta=O.REFERENCE_THETA,
        tau=O.REFERENCE_TAU, expected=O.REFERENCE_STAB,
    )


def reference_block(method, character):
    expected = O.REFERENCE_BLOCK_DET if character == "sign" else O.REFERENCE_BLOCK_PER
    return Request(
        f"reference block {character} {method}", f"block-gmf:{method}", 8,
        character=character, block=O.REFERENCE_BLOCK, expected=expected,
    )


BENCH8 = (O.from_cycles(8, [tuple(range(1, 9))]), O.from_cycles(8, [(1, 3, 5, 7), (2, 4, 6, 8)]))
BENCH9 = (
    O.from_cycles(9, [tuple(range(1, 10))]),
    O.from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)]),
)


def bench_request(label, route, pair, group=("S",), character="sign"):
    theta, tau = pair
    return Request(label, route, len(theta), group=group, character=character,
                   a=(3, 0), b=(2, 0), theta=theta, tau=tau)


# -- workloads -----------------------------------------------------------------

# fast_routes strata: (r, requests, n).  Counts fall as r grows, because a
# request costs about twice as much per extra cycle; the median falls among
# the many r = 7-8 requests and the tail among the r = 9-10 ones, not at a
# gap between strata.
FAST_STRATA = ((6, 8, 18), (7, 12, 21), (8, 12, 24), (9, 7, 27), (10, 5, 30), (11, 2, 33), (12, 1, 36))
FAST_SHAPES = (
    "det", "per", "gmf-S-sign", "gmf-A-trivial", "gmf-stab-sign", "block-S-sign",
    "gmf-S-trivial", "block-A-trivial", "gmf-A-sign",
)
# Routes without an O(r) oracle are checked by a second route of equal
# cost, so they stay in the cheap strata.
FAST_CROSS_SHAPES = ("gmf-gens-sign", "gmf-irr", "gmf-cyclic-trivial")
IRR_SHAPES = ((13, 2, 1), (12, 2, 2), (11, 3, 2), (12, 3, 1))


def fast_request(rng, shape, r, n):
    kind, _, rest = shape.partition("-")
    if kind == "det" or kind == "per":
        theta, tau = linear_instance(rng, n, cycle_lengths(r, n))
        a, b = gaussian_scalars(rng)
        route = f"{kind}:closed"
        return Request(f"{route} r={r} n={n}", route, n, character="sign" if kind == "det" else "trivial",
                       a=a, b=b, theta=theta, tau=tau)
    group_kind, _, character = rest.partition("-")
    if kind == "block":
        block = block_instance(rng, r, n)
        group = block_stab(rng, block) if group_kind == "stab" else (group_kind,)
        size = block["m"] * block["n"]
        return Request(f"block-gmf {group_kind} {character} r={r} n={size}", "block-gmf:block", size,
                       group=group, character=character, block=block)
    n = 16 if group_kind == "irr" else n  # irr: characters of S_16 stay cheap to evaluate
    lengths = cycle_lengths(r, n)
    if group_kind == "irr":
        character = "irr:[" + ",".join(map(str, IRR_SHAPES[r % len(IRR_SHAPES)])) + "]"
        theta, tau = linear_instance(rng, n, lengths)
        group = ("S",)
    elif group_kind == "stab":
        theta, tau, group = pinned_instance(rng, n, lengths)
    elif group_kind == "gens":
        theta, tau, group = gens_instance(rng, n, lengths)
    elif group_kind == "cyclic":
        theta, tau, group = cyclic_instance(rng, n, lengths)
    else:
        theta, tau = linear_instance(rng, n, lengths)
        group = (group_kind,)
    a, b = gaussian_scalars(rng)
    return Request(f"gmf {group_kind} {character} r={r} n={n}", "gmf:formula", n, group=group,
                   character=character, a=a, b=b, theta=theta, tau=tau)


def fast_routes(seed):
    rng = random.Random(f"fast_routes:{seed}")
    requests = [
        reference_det("closed"),
        reference_stab("formula"),
        reference_block("block", "trivial"),
        reference_block("block", "sign"),
    ]
    position = 0
    for r, count, n in FAST_STRATA:
        for k in range(count):
            if r <= 8 and k % 4 == 3:
                shape = FAST_CROSS_SHAPES[(k // 4 + r) % len(FAST_CROSS_SHAPES)]
            else:
                shape = FAST_SHAPES[position % len(FAST_SHAPES)]
                position += 1
            if r == 12:
                shape = "det"
            requests.append(fast_request(rng, shape, r, n))
    rng.shuffle(requests)
    return requests


def random_linear(rng, n, r, route, group=("S",), character="sign"):
    theta, tau = linear_instance(rng, n, cycle_lengths(r, n))
    a, b = gaussian_scalars(rng)
    return Request(f"{route} {group[0]} {character} n={n}", route, n, group=group,
                   character=character, a=a, b=b, theta=theta, tau=tau)


def warm_oracles(seed):
    """gmf_naive over enumerated groups and det_cauchy_binet_sum, sparse and dense."""
    rng = random.Random(f"warm_oracles:{seed}")
    requests = [
        reference_det("naive"),
        reference_det("cauchy-binet"),
        reference_stab("naive"),
        reference_block("naive", "trivial"),
        reference_block("naive", "sign"),
        bench_request("bench9 det naive", "det:naive", BENCH9),
    ]
    # Shapes cluster by cost (~2, 10, 20, 40, 90 and 150-250 ms, then two
    # near 1 s); the median falls inside the 40 ms Cauchy-Binet n=6 cluster
    # and the tail inside the n=7 / S_9 cluster.
    requests += [random_linear(rng, 9, 3, "det:naive") for _ in range(2)]
    for character in ("sign", "trivial"):
        requests += [random_linear(rng, 8, 3, "gmf:naive", character=character) for _ in range(2)]
    requests += [random_linear(rng, 8, 3, "gmf:naive", group=("A",), character="trivial") for _ in range(2)]
    for _ in range(2):
        theta, tau, group = pinned_instance(rng, 9, [2, 3, 2])
        a, b = gaussian_scalars(rng)
        requests.append(Request("gmf:naive stab sign n=9", "gmf:naive", 9, group=group,
                                a=a, b=b, theta=theta, tau=tau))
    # gens: S_7 on the first seven of eight points; theta and rho fix point 8.
    gens = ("gens", (O.from_cycles(8, [tuple(range(1, 8))]), O.from_cycles(8, [(1, 2)])))
    for _ in range(2):
        rho, _ = random_rho(rng, 7, [2, 3])
        theta = bijection(rng, 7, {})
        a, b = gaussian_scalars(rng)
        requests.append(Request("gmf:naive gens sign n=8", "gmf:naive", 8, group=gens,
                                a=a, b=b, theta=theta + (8,), tau=O.compose(theta, rho) + (8,)))
    requests += [random_linear(rng, 8, 3, "gmf:naive", character="irr:[6,2]") for _ in range(2)]
    dense = [(8, ("S",), "sign"), (8, ("S",), "sign"), (8, ("S",), "trivial"), (8, ("S",), "trivial"),
             (7, ("S",), "sign"), (7, ("S",), "trivial"), (7, ("A",), "sign")]
    for n, group, character in dense:
        requests.append(Request(f"dense:naive {group[0]} {character} n={n}", "dense:naive", n,
                                group=group, character=character, rows=dense_rows(rng, n)))
    for n, count in ((6, 6), (7, 8), (8, 1)):
        requests += [random_linear(rng, n, 2, "det:cauchy-binet") for _ in range(count)]
    for n, count in ((6, 2), (7, 2), (8, 1)):
        for _ in range(count):
            requests.append(Request(f"dense:cauchy-binet n={n}", "dense:cauchy-binet", n,
                                    rows=dense_rows(rng, n), rows_b=dense_rows(rng, n)))
    rng.shuffle(requests)
    return requests


def cold_cli(seed):
    """One fresh CLI process per request: the ROADMAP aim-1 suite plus small calls."""
    rng = random.Random(f"cold_cli:{seed}")
    requests = [reference_det(m) for m in ("closed", "formula", "cauchy-binet", "naive")]
    requests += [
        reference_stab("formula"),
        reference_block("block", "trivial"),
        reference_block("naive", "sign"),
        bench_request("bench8 det naive", "det:naive", BENCH8),
        bench_request("bench8 det cauchy-binet", "det:cauchy-binet", BENCH8),
        bench_request("bench9 det naive", "det:naive", BENCH9),
        bench_request("bench9 det cauchy-binet", "det:cauchy-binet", BENCH9),
        bench_request("bench9 gmf naive irr:[7,2]", "gmf:naive", BENCH9, character="irr:[7,2]"),
        bench_request("bench8 gmf gens S8", "gmf:formula", BENCH8,
                      group=("gens", (O.from_cycles(8, [(1, 2)]), BENCH8[0]))),
        random_linear(rng, 30, 12, "det:closed"),
        random_linear(rng, 30, 12, "per:closed", character="trivial"),
    ]
    # Enumerating 8! elements makes the medium requests; the tail percentile sits among them.
    requests += [
        random_linear(rng, 8, 3, "gmf:naive"),
        random_linear(rng, 8, 3, "gmf:naive", character="trivial"),
        random_linear(rng, 8, 3, "gmf:naive", group=("A",), character="trivial"),
    ]
    for character in ("sign", "trivial"):
        block = block_instance(rng, 3, 8)
        requests.append(Request(f"block-gmf:naive {character} n=8", "block-gmf:naive", 8,
                                character=character, block=block))
    # Small calls, where process start and import set the floor.
    small = ("det:closed", "det:formula", "per:closed", "per:formula", "gmf:formula", "block-gmf:block")
    for k in range(24):
        route = small[k % len(small)]
        n = rng.randint(6, 12)
        r = rng.randint(2, n // 3)
        if route == "block-gmf:block":
            block = block_instance(rng, 3, 12)
            group = block_stab(rng, block) if k % 4 == 3 else ("S",)
            requests.append(Request("block-gmf:block small", route, 12, group=group,
                                    character=("sign", "trivial")[k % 2], block=block))
        elif route == "gmf:formula":
            lengths = cycle_lengths(r, n)
            if k % 3 == 0 and r >= 2:
                theta, tau, group = pinned_instance(rng, n, lengths)
            else:
                theta, tau = linear_instance(rng, n, lengths)
                group = (("S",), ("A",))[k % 2]
            a, b = gaussian_scalars(rng)
            requests.append(Request(f"gmf:formula small {group[0]}", route, n, group=group,
                                    character=("sign", "trivial")[k % 2], a=a, b=b,
                                    theta=theta, tau=tau))
        else:
            character = "sign" if route.startswith("det") else "trivial"
            requests.append(random_linear(rng, n, r, route, character=character))
    rng.shuffle(requests)
    return requests


GENERATORS = {"fast_routes": fast_routes, "warm_oracles": warm_oracles, "cold_cli": cold_cli}


# -- binding requests to the library ---------------------------------------------


@dataclass
class Bound:
    call: object  # zero-argument callable returning a GmfResult
    cross: object  # the second route for requests without an oracle value, else None
    group: object
    character: object
    pair: tuple  # the permutation pair the structured routes mix, as library objects


def bind(req: Request, pf) -> Bound:
    """Build the library objects for a request; ``pf`` is the imported package.

    Calls go through module attributes (``engine.gmf_naive``) at call time,
    so the traced run's wrappers see them.
    """
    engine, matrices = pf.engine, pf.matrices
    perm = pf.Permutation

    def gauss(z):
        return pf.gauss(z[0], z[1])

    command, method = req.route.split(":")
    group = pf.parse_group(group_text(req.group, req.n), req.n)
    character = pf.parse_character(req.character, req.n)
    cross = None
    if req.block is not None:
        blk = req.block
        spec = pf.BlockSpec(
            m=blk["m"],
            n=blk["n"],
            theta=perm(blk["theta"]),
            tau=perm(blk["tau"]),
            inner_thetas=tuple(perm(p) for p in blk["inner_thetas"]),
            inner_taus=tuple(perm(p) for p in blk["inner_taus"]),
            a=tuple(gauss(z) for z in blk["a"]),
            b=tuple(gauss(z) for z in blk["b"]),
        )
        alpha, beta, _, _ = O.block_pair(blk)
        pair = (perm(alpha), perm(beta))
        if method == "block":
            call = lambda: engine.gmf_block(spec, group, character)  # noqa: E731
        else:
            call = lambda: engine.gmf_naive(matrices.block_matrix(spec), group, character)  # noqa: E731
        return Bound(call, None, group, character, pair)
    if command == "dense":
        rows = [[gauss(z) for z in row] for row in req.rows]
        if method == "naive":
            call = lambda: engine.gmf_naive(matrices.Matrix(rows), group, character)  # noqa: E731
        else:
            rows_b = [[gauss(z) for z in row] for row in req.rows_b]
            call = lambda: engine.det_cauchy_binet_sum(  # noqa: E731
                matrices.Matrix(rows), matrices.Matrix(rows_b)
            )
        return Bound(call, None, group, character, None)
    theta, tau, a, b = perm(req.theta), perm(req.tau), gauss(req.a), gauss(req.b)
    if req.route == "det:closed":
        call = lambda: engine.det_linear_sum(a, b, theta, tau)  # noqa: E731
    elif req.route == "per:closed":
        call = lambda: engine.per_linear_sum(a, b, theta, tau)  # noqa: E731
    elif method == "formula":
        call = lambda: engine.gmf_linear_sum(a, b, theta, tau, group, character)  # noqa: E731
    elif method == "cauchy-binet":
        call = lambda: engine.det_cauchy_binet_sum(  # noqa: E731
            matrices.scalar_mul(a, matrices.perm_matrix(theta)),
            matrices.scalar_mul(b, matrices.perm_matrix(tau)),
        )
    else:
        call = lambda: engine.gmf_naive(matrices.linear_sum(a, b, theta, tau), group, character)  # noqa: E731
    if oracle_value(req) is None:
        if method == "naive":
            cross = lambda: engine.gmf_linear_sum(a, b, theta, tau, group, character)  # noqa: E731
        else:
            # The block route on the transposed matrix: block (i, theta^-1(i))
            # of a 1x1-block spec is column theta^-1(i) of P_theta^T.  Real
            # characters take the same value on a matrix and its transpose.
            one = perm((1,))
            transposed = pf.BlockSpec(
                m=1, n=req.n, theta=theta.inverse(), tau=tau.inverse(),
                inner_thetas=(one,) * req.n, inner_taus=(one,) * req.n,
                a=(a,) * req.n, b=(b,) * req.n,
            )
            cross = lambda: engine.gmf_block(transposed, group, character)  # noqa: E731
    return Bound(call, cross, group, character, (theta, tau))


def trace_base(req: Request, bound: Bound, pf) -> tuple[int, int] | None:
    """(useful, visited) terms for the traced run's engine.useful_ratio.

    useful is ``term_counts(...).formula``, the in-group mixtures; visited
    is what the route walks: 2^r mixtures for the closed, formula and
    block routes, |G| for naive, the minor pairs for Cauchy-Binet.  Dense
    requests have no mixture set and are left out.
    """
    if bound.pair is None:
        return None
    counts = pf.engine.term_counts(bound.pair[0], bound.pair[1], bound.group)
    method = req.route.split(":")[1]
    if method == "naive":
        visited = counts.naive
    elif method == "cauchy-binet":
        visited = counts.cauchy_binet
    else:
        visited = mixture_count(req)
    return counts.formula, visited
