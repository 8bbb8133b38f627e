"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  All
values are exact unless a criterion states a floating tolerance; time
limits are wall-clock for the whole criterion.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations as iterperms

import permfunc as pf
from permfunc.characters import (
    CyclicRootCharacter,
    IrreducibleCharacter,
    Partition,
    SignCharacter,
    TrivialCharacter,
    partitions,
)
from permfunc.errors import DisjointnessError
from permfunc.gaussian import ONE, gauss
from permfunc.groups import (
    AlternatingGroup,
    CyclicGroup,
    PointwiseStabilizer,
    SymmetricGroup,
    enumerate_group,
)
from permfunc.matrices import (
    BlockSpec,
    block_matrix,
    conjugate_transpose,
    linear_sum,
    perm_matrix,
    psd_classify,
    s_matrix,
    scalar_mul,
    trace,
)
from permfunc.perm import Permutation, compose, cycle_structure, parse_permutation
from support import (
    naive_det_expansion,
    principal_minors_psd,
    rand_involution,
    rand_perm,
    rand_scalar,
)

REL_TOL = 1e-9


def P(text, n):
    return parse_permutation(text, n)


def report(number: int, ok: bool, description: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {description}{suffix}")


def reference_instance():
    return gauss(2), gauss(0, -1), P("(1 5 3)(2 6)", 6), P("(2 4 6)", 6)


def reference_block_spec():
    return BlockSpec(
        m=4,
        n=2,
        theta=Permutation.identity(2),
        tau=P("(1 2)", 2),
        inner_thetas=(P("(1 4 3)", 4), P("(1 4)(2 3)", 4)),
        inner_taus=(P("(1 3 2)", 4), Permutation.identity(4)),
        a=(gauss(0, -1), gauss(2)),
        b=(gauss(-2), gauss(3)),
    )


def test_criterion_01_reference_det_all_routes():
    start = time.perf_counter()
    a, b, theta, tau = reference_instance()
    expected = gauss(-85, 30)
    values = [
        pf.gmf_naive(linear_sum(a, b, theta, tau), SymmetricGroup(6), SignCharacter()).value,
        pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(6), SignCharacter()).value,
        pf.det_linear_sum(a, b, theta, tau).value,
        pf.det_cauchy_binet_sum(
            scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
        ).value,
    ]
    elapsed = time.perf_counter() - start
    ok = all(v == expected for v in values) and elapsed < 5.0
    report(1, ok, "det(2P-iP) = -85+30i via naive/fast/closed/minor routes",
           f"{elapsed:.2f}s")
    assert ok, values


def test_criterion_02_reference_subgroup_value():
    a, b, theta, tau = reference_instance()
    group = PointwiseStabilizer(6, frozenset({1, 3, 5}))
    survivors = {sigma for sigma in pf.mixtures(theta, tau) if group.contains(sigma)}
    expected_set = {tau, P("(2 6)", 6)}
    one, two = gauss(1), gauss(2)
    chi = TrivialCharacter()
    # symbolic form (a+b) * (chi(tau^-1) b^5 + chi((2 6)) a^2 b^3) at a=1, b=2
    symbolic = (one + two) * (
        chi.evaluate(tau.inverse().images) * two**5
        + chi.evaluate(P("(2 6)", 6).inverse().images) * one**2 * two**3
    )
    fast = pf.gmf_linear_sum(one, two, theta, tau, group, chi).value
    slow = pf.gmf_naive(linear_sum(one, two, theta, tau), group, chi).value
    ok = survivors == expected_set and fast == slow == symbolic == gauss(120)
    report(2, ok, "stabilizer subgroup: surviving mixtures {tau,(2 6)}, value 120")
    assert ok


def test_criterion_03_reference_block_values():
    start = time.perf_counter()
    spec = reference_block_spec()
    matrix = block_matrix(spec)
    group = SymmetricGroup(8)
    results = {
        "per-block": pf.gmf_block(spec, group, TrivialCharacter()).value,
        "per-naive": pf.gmf_naive(matrix, group, TrivialCharacter()).value,
        "det-block": pf.gmf_block(spec, group, SignCharacter()).value,
        "det-naive": pf.gmf_naive(matrix, group, SignCharacter()).value,
    }
    elapsed = time.perf_counter() - start
    ok = (
        results["per-block"] == results["per-naive"] == gauss(448, 1536)
        and results["det-block"] == results["det-naive"] == gauss(448, -1536)
        and elapsed < 60.0
    )
    report(3, ok, "8x8 block: per = 448+1536i, det = 448-1536i, block = naive",
           f"{elapsed:.2f}s")
    assert ok, results


def test_criterion_04_symmetric_companion_det_table():
    table = {2: -1, 3: 2, 5: 2, 6: -4, 10: -4, 4: 0, 8: 0}
    ok = True
    for order, expected in table.items():
        theta = Permutation.from_cycles(order, [tuple(range(1, order + 1))])
        closed = pf.det_s_closed(theta)
        exact = pf.det_exact(s_matrix(theta))
        ok &= closed == exact == gauss(expected)
        if order <= 8:  # full permutation expansion as a second, independent check
            ok &= naive_det_expansion(s_matrix(theta)) == gauss(expected)
    report(4, ok, "single-cycle companion dets: orders 2,3,5,6,10,4,8 -> -1,2,2,-4,-4,0,0")
    assert ok


def test_criterion_05_closed_det_sweep_s6():
    start = time.perf_counter()
    bad = 0
    for images in iterperms(range(1, 7)):
        theta = Permutation(images)
        if pf.det_s_closed(theta) != pf.det_exact(s_matrix(theta)):
            bad += 1
        if pf.det_perm_pair_closed(theta) != pf.det_exact(
            linear_sum(ONE, ONE, theta, theta.inverse())
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60.0
    report(5, ok, "closed forms for det(S) and det(P+P^-1) over all 720 degree-6 cases",
           f"{elapsed:.2f}s")
    assert ok


def test_criterion_06_oracle_equivalence_sweep():
    start = time.perf_counter()
    rng = random.Random(2024)
    instances = 0
    comparisons = 0
    bad = 0
    while instances < 200:
        n = rng.randint(2, 6)
        theta, tau = rand_perm(rng, n), rand_perm(rng, n)
        a, b = rand_scalar(rng), rand_scalar(rng)
        group = rng.choice(
            [
                SymmetricGroup(n),
                AlternatingGroup(n),
                CyclicGroup(rand_perm(rng, n)),
                PointwiseStabilizer(
                    n, frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
                ),
            ]
        )
        matrix = linear_sum(a, b, theta, tau)
        characters = [TrivialCharacter(), SignCharacter()] + [
            IrreducibleCharacter(Partition(lam)) for lam in partitions(n)
        ]
        for chi in characters:
            fast = pf.gmf_linear_sum(a, b, theta, tau, group, chi).value
            slow = pf.gmf_naive(matrix, group, chi).value
            comparisons += 1
            if fast != slow:
                bad += 1
        instances += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and instances >= 200 and elapsed < 120.0
    report(6, ok, "fast route = naive definition on randomized instances",
           f"{instances} instances, {comparisons} comparisons, {elapsed:.2f}s")
    assert ok


def test_criterion_07_doubling_relation():
    rng = random.Random(2025)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        theta = rand_perm(rng, n)
        cs = cycle_structure(theta)
        twos = cs.fixed_count + 2 * sum(1 for l in cs.lengths if l == 2)
        for chi in (TrivialCharacter(), SignCharacter()):
            doubled = pf.gmf_naive(
                linear_sum(ONE, ONE, theta, theta.inverse()), SymmetricGroup(n), chi
            ).value
            companion = pf.gmf_naive(s_matrix(theta), SymmetricGroup(n), chi).value
            if doubled != gauss(2**twos) * companion:
                bad += 1
            if pf.gmf_s_matrix(theta, SymmetricGroup(n), chi).value != companion:
                bad += 1
    ok = bad == 0
    report(7, ok, "doubling relation d(P+P^-1) = 2^(F+2t) d(S) on 100 random draws")
    assert ok


def test_criterion_08_s_product_identity():
    rng = random.Random(2026)
    bad = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        cut = rng.randint(1, n - 1)
        left_points = list(range(1, cut + 1))
        right_points = list(range(cut + 1, n + 1))
        rng.shuffle(left_points)
        rng.shuffle(right_points)
        theta = Permutation.from_cycles(n, [tuple(left_points)] if len(left_points) > 1 else [])
        tau = Permutation.from_cycles(n, [tuple(right_points)] if len(right_points) > 1 else [])
        if pf.s_product(theta, tau) != s_matrix(compose(theta, tau)):
            bad += 1
    rejected = False
    try:
        pf.s_product(P("(1 2)", 3), P("(2 3)", 3))
    except DisjointnessError:
        rejected = True
    ok = bad == 0 and rejected
    report(8, ok, "S product identity on 100 disjoint pairs; overlapping pair rejected")
    assert ok


def test_criterion_09_psd_exhaustive_sweep():
    start = time.perf_counter()
    scalars = [gauss(v) for v in (-2, -1, 0, 1, 2)]
    everyone = [Permutation(images) for images in iterperms(range(1, 5))]
    bad = 0
    checked = 0
    for theta in everyone:
        for tau in everyone:
            for a in scalars:
                for b in scalars:
                    structural = psd_classify(a, b, theta, tau).psd
                    spectral = principal_minors_psd(linear_sum(a, b, theta, tau))
                    checked += 1
                    if structural != spectral:
                        bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and checked == 576 * 25 and elapsed < 120.0
    report(9, ok, "structural semidefiniteness = principal-minor test, exhaustive 4x4 sweep",
           f"{checked} cases, {elapsed:.2f}s")
    assert ok


def test_criterion_10_permanent_dominance():
    rng = random.Random(2027)
    bad = 0
    draws = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        pi = rand_involution(rng, n)
        m = Fraction(rng.randint(-3, 3))
        k = abs(m) + Fraction(rng.randint(0, 3))
        draws += 1
        for lam in partitions(n):
            rep = pf.check_dominance(k, m, pi, IrreducibleCharacter(Partition(lam)))
            if not rep.holds:
                bad += 1
    ok = bad == 0 and draws == 50
    report(10, ok, "permanent dominance for every shape, 50 random PSD layers, n <= 5")
    assert ok


def test_criterion_11_singular_bound_and_spectrum():
    rng = random.Random(2028)
    bad_bound = 0
    bad_spectrum = 0
    trials = 0
    while trials < 100:
        n = rng.randint(2, 6)
        theta, tau = rand_perm(rng, n), rand_perm(rng, n)
        a, b = rand_scalar(rng), rand_scalar(rng)
        group = rng.choice([SymmetricGroup(n), AlternatingGroup(n)])
        chi = rng.choice([TrivialCharacter(), SignCharacter()])
        rep = pf.check_singular_bound(a, b, theta, tau, group, chi)
        if not rep.holds:
            bad_bound += 1
        # the weaker first-power form must hold as well
        if math.sqrt(max(rep.lhs, 0.0)) > rep.rhs + REL_TOL * max(1.0, rep.rhs):
            bad_bound += 1
        spectrum = pf.singular_values(a, b, theta, tau)
        matrix = linear_sum(a, b, theta, tau)
        gram_trace = float(trace(pf.mat_mul(conjugate_transpose(matrix), matrix)).re)
        det_sq = float(pf.det_exact(matrix).abs_squared())
        if abs(spectrum.sum_squares() - gram_trace) > REL_TOL * max(1.0, gram_trace):
            bad_spectrum += 1
        if abs(spectrum.prod_squares() - det_sq) > REL_TOL * max(1.0, det_sq):
            bad_spectrum += 1
        trials += 1
    # linear characters of a cyclic group with fourth roots of unity
    for index in range(4):
        g = P("(1 2 3 4)", 4)
        chi = CyclicRootCharacter(g, index)
        rep = pf.check_singular_bound(
            gauss(1, 1), gauss(2), Permutation.identity(4), g, CyclicGroup(g), chi
        )
        if not rep.holds:
            bad_bound += 1
    ok = bad_bound == 0 and bad_spectrum == 0
    report(11, ok, "singular-value bound and spectrum conservation, 100 random instances",
           f"rel tol {REL_TOL}")
    assert ok


def restriction_kind(group, chi) -> str | None:
    """How chi restricts to the group, for the tensor pairing identity.

    "irreducible" when <chi, chi>_G = 1.  "linear" when chi restricted to
    G is a sum of distinct linear characters: every commutator of G lies
    in the kernel of chi (so every constituent is linear) and
    <chi, chi>_G = chi(1) (so no constituent repeats).  None otherwise.
    """
    elements = enumerate_group(group)
    norm = sum(chi.evaluate(g.images).abs_squared() for g in elements) / len(elements)
    if norm == 1:
        return "irreducible"
    degree = gauss(chi.degree())
    commutators_in_kernel = all(
        chi.evaluate(compose(compose(g.inverse(), h.inverse()), compose(g, h)).images) == degree
        for g in elements
        for h in elements
    )
    if commutators_in_kernel and norm == chi.degree():
        return "linear"
    return None


def test_criterion_12_tensor_pairing_identity():
    # tensor_oracle returns <T'x, T'y>/|G| with the unnormalized
    # symmetrizer T' = sum chi(sigma) P(sigma).  For chi irreducible on G
    # the identity <Tx, Ty> = (chi(1)/|G|) d_chi(A), with
    # T = (chi(1)/|G|) T', makes that quotient d_chi(A)/chi(1); when chi
    # restricted to G is a sum of distinct linear characters it is d_chi(A).
    rng = random.Random(2029)
    cells = []
    for n in (2, 3):
        characters = [TrivialCharacter(), SignCharacter()]
        if n == 3:
            characters.append(IrreducibleCharacter(Partition((2, 1))))
        for group in (SymmetricGroup(n), AlternatingGroup(n)):
            for chi in characters:
                theta, tau = rand_perm(rng, n), rand_perm(rng, n)
                a = rand_scalar(rng, complex_ok=False)
                b = rand_scalar(rng, complex_ok=False)
                cells.append((a, b, theta, tau, group, chi))
    # the seeded A3 cell of the degree-2 character has value 0, so add one
    # with a nonzero value
    cells.append(
        (
            gauss(2),
            gauss(3),
            Permutation.identity(3),
            P("(1 2 3)", 3),
            AlternatingGroup(3),
            IrreducibleCharacter(Partition((2, 1))),
        )
    )
    failures = []
    nonzero_nonlinear = set()
    for a, b, theta, tau, group, chi in cells:
        tensor = pf.tensor_oracle(a, b, theta, tau, group, chi)
        value = pf.gmf_linear_sum(a, b, theta, tau, group, chi).value
        kind = restriction_kind(group, chi)
        if kind == "irreducible":
            holds = tensor * gauss(chi.degree()) == value
        elif kind == "linear":
            holds = tensor == value
        else:
            holds = False
        if not holds:
            failures.append((str(group), str(chi), kind, str(tensor), str(value)))
        elif chi.degree() > 1 and not value.is_zero():
            nonzero_nonlinear.add(kind)
    ok = not failures and nonzero_nonlinear == {"irreducible", "linear"}
    report(
        12,
        ok,
        "tensor pairing / |G| equals d_chi(A)/chi(1) for chi irreducible on G "
        "and d_chi(A) for chi a sum of distinct linear characters of G",
        f"{len(cells)} cells"
        + (f"; deviating: {failures}" if failures else "")
        + f"; degree-2 cells with nonzero value: {sorted(nonzero_nonlinear)}",
    )
    # Every cell satisfies the pairing identity at its own scale, and each
    # scale is exercised by the degree-2 character at a nonzero value, so
    # neither law can pass as 0 == 0.
    assert ok, (failures, nonzero_nonlinear)


def test_criterion_13_term_counts():
    a, b, theta, tau = reference_instance()
    fast = pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(6), SignCharacter())
    minor = pf.det_cauchy_binet_sum(
        scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
    )
    slow = pf.gmf_naive(linear_sum(a, b, theta, tau), SymmetricGroup(6), SignCharacter())
    nine_cycle = Permutation.from_cycles(9, [tuple(range(1, 10))])
    long_fast = pf.gmf_linear_sum(
        ONE, ONE, Permutation.identity(9), nine_cycle, SymmetricGroup(9), TrivialCharacter()
    )
    counts = pf.term_counts(theta, tau, SymmetricGroup(6))
    ok = (
        fast.term_count == 4
        and minor.term_count == 924
        and slow.term_count == 720
        and long_fast.term_count == 2
        and (counts.naive, counts.formula, counts.cauchy_binet) == (720, 4, 924)
    )
    report(13, ok, "term counts: 4 vs 924 vs 720 on the 6x6 reference; 2 for a 9-cycle")
    assert ok
