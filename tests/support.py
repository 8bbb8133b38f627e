"""Shared test helpers: independent oracles and random instance factories.

Every oracle here is deliberately naive (exhaustive scans, permutation
expansions, polynomial coefficient extraction) so that the fast library
routes are checked against genuinely independent computations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import permfunc as pf
from permfunc.gaussian import GaussianRational, ONE, ZERO, gauss


def rand_perm(rng: random.Random, n: int) -> pf.Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return pf.Permutation(tuple(images))


def rand_involution(rng: random.Random, n: int) -> pf.Permutation:
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cycles = []
    while len(points) >= 2 and rng.random() < 0.7:
        cycles.append((points.pop(), points.pop()))
    return pf.Permutation.from_cycles(n, cycles)


def rand_scalar(rng: random.Random, span: int = 3, complex_ok: bool = True):
    re = Fraction(rng.randint(-span, span))
    im = Fraction(rng.randint(-span, span)) if complex_ok else Fraction(0)
    return gauss(re, im)


def refuse_membership(monkeypatch, refuse) -> None:
    """Make every membership test call ``refuse``: GroupSpec.contains and
    each group variant's contains_images, at any depth below GroupSpec,
    which the routes call directly."""
    monkeypatch.setattr(pf.GroupSpec, "contains", refuse)
    classes = pf.GroupSpec.__subclasses__()
    for cls in classes:  # grows as it goes, so every descendant is reached
        classes += cls.__subclasses__()
        monkeypatch.setattr(cls, "contains_images", refuse)


def brute_closure(n: int, generators) -> set[pf.Permutation]:
    """The subgroup the generators generate, by multiplying out from the identity."""
    elements = {pf.Permutation.identity(n)}
    frontier = list(elements)
    while frontier:
        products = {g * h for g in generators for h in frontier}
        frontier = [p for p in products if p not in elements]
        elements.update(frontier)
    return elements


def brute_x_set(theta: pf.Permutation, tau: pf.Permutation) -> set[pf.Permutation]:
    """Scan all of S_n for permutations agreeing pointwise with theta or tau."""
    n = theta.degree
    out = set()
    for images in permutations(range(1, n + 1)):
        if all(images[i] in (theta.images[i], tau.images[i]) for i in range(n)):
            out.add(pf.Permutation(images))
    return out


def naive_det_expansion(matrix: pf.Matrix) -> GaussianRational:
    """Determinant by full permutation expansion (reference, n <= 7)."""
    return _det_expansion(matrix.entries)


def _det_expansion(entries) -> GaussianRational:
    total = ZERO
    for images in permutations(range(1, len(entries) + 1)):
        sigma = pf.Permutation(images)
        product = gauss(sigma.sign())
        for row, j in zip(entries, images):
            product = product * row[j - 1]
            if product.is_zero():
                break
        total = total + product
    return total


def brute_gmf(matrix: pf.Matrix, group, chi) -> GaussianRational:
    """Generalized matrix function by scanning all of S_n and filtering by membership."""
    n, entries = matrix.rows, matrix.entries
    total = ZERO
    for images in permutations(range(1, n + 1)):
        sigma = pf.Permutation(images)
        if not group.contains(sigma):
            continue
        product = chi.evaluate(sigma.images)
        for row, j in zip(entries, images):
            product = product * row[j - 1]
        total = total + product
    return total


def cycle_lengths(images) -> list[int]:
    """Cycle lengths of the permutation with these 1-based images, fixed points as 1s."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length, p = 0, start
        while not seen[p]:
            seen[p] = True
            p = images[p] - 1
            length += 1
        if length:
            lengths.append(length)
    return lengths


def linear_sum_det_per(a, b, theta: pf.Permutation, tau: pf.Permutation):
    """(det, per) of a*P_theta + b*P_tau by the paper's product forms.

    With l over the cycle lengths of theta^-1*tau, a fixed point a cycle
    of length 1: det = sign(theta) * prod (a^l - (-b)^l) and
    per = prod (a^l + b^l).  The cycles are traced here from the images.
    """
    preimage = {v: i + 1 for i, v in enumerate(theta.images)}
    det = gauss((-1) ** sum(length - 1 for length in cycle_lengths(theta.images)))
    per = ONE
    for length in cycle_lengths([preimage[v] for v in tau.images]):
        det = det * (a**length - (-b) ** length)
        per = per * (a**length + b**length)
    return det, per


def is_hermitian(matrix: pf.Matrix) -> bool:
    return matrix == pf.conjugate_transpose(matrix)


def principal_minors_psd(matrix: pf.Matrix) -> bool:
    """Exact semidefiniteness test: hermitian and all principal minors >= 0."""
    if not is_hermitian(matrix):
        return False
    n, entries = matrix.rows, matrix.entries
    for size in range(1, n + 1):
        for rows in combinations(range(n), size):
            minor = _det_expansion([[entries[i][j] for j in rows] for i in rows])
            if not minor.is_real() or minor.re < 0:
                return False
    return True


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def frobenius_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character value by polynomial coefficient extraction.

    Independent of the border-strip recursion: expands the Vandermonde
    product times the power sums of the class and reads off the
    coefficient of x^(lam + staircase).
    """
    k = len(lam)
    poly = {tuple([0] * k): 1}
    for i in range(k):
        for j in range(i + 1, k):
            xi = tuple(1 if t == i else 0 for t in range(k))
            xj = tuple(1 if t == j else 0 for t in range(k))
            poly = _poly_mul(poly, {xi: 1, xj: -1})
    for part in mu:
        power_sum: dict = {}
        for i in range(k):
            e = tuple(part if t == i else 0 for t in range(k))
            power_sum[e] = power_sum.get(e, 0) + 1
        poly = _poly_mul(poly, power_sum)
    target = tuple(lam[i] + (k - 1 - i) for i in range(k))
    return poly.get(target, 0)
