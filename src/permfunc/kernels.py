"""The exact determinant kernel behind det_exact, and behind the naive
route's sign character (engine._parity_naive) when some row keeps more
than two entries.  The minor expansion never calls it.

It works on Gaussian integers held as plain Python ints (real and
imaginary parts separately) so that values never leave exact arithmetic.
"""

from __future__ import annotations


def det_gaussian_int(pre, pim):
    """Exact determinant of a Gaussian-integer matrix.

    Fraction-free elimination: every intermediate entry is a minor of the
    input, so the divisions below are exact in the Gaussian integers and
    entry growth stays polynomial.  Returns the (real, imaginary) pair.
    """
    n = len(pre)
    if n == 0:
        return 1, 0
    are = [list(row) for row in pre]
    aim = [list(row) for row in pim]
    sign = 1
    prev_re, prev_im = 1, 0
    for k in range(n - 1):
        if not are[k][k] and not aim[k][k]:
            for i in range(k + 1, n):
                if are[i][k] or aim[i][k]:
                    are[k], are[i] = are[i], are[k]
                    aim[k], aim[i] = aim[i], aim[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        pkk_re, pkk_im = are[k][k], aim[k][k]
        nrm = prev_re * prev_re + prev_im * prev_im
        for i in range(k + 1, n):
            aik_re, aik_im = are[i][k], aim[i][k]
            for j in range(k + 1, n):
                t_re = (
                    are[i][j] * pkk_re
                    - aim[i][j] * pkk_im
                    - aik_re * are[k][j]
                    + aik_im * aim[k][j]
                )
                t_im = (
                    are[i][j] * pkk_im
                    + aim[i][j] * pkk_re
                    - aik_re * aim[k][j]
                    - aik_im * are[k][j]
                )
                if k:
                    are[i][j] = (t_re * prev_re + t_im * prev_im) // nrm
                    aim[i][j] = (t_im * prev_re - t_re * prev_im) // nrm
                else:
                    are[i][j] = t_re
                    aim[i][j] = t_im
        prev_re, prev_im = pkk_re, pkk_im
    return sign * are[n - 1][n - 1], sign * aim[n - 1][n - 1]
