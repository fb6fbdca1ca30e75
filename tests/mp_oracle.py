"""A 40-digit SLD information oracle: the reference for `verify`'s SLD solve and for the curve.

From one point's float64 Kraus vectors v_k = E_k psi and their partials
u_lk = (d_l E_k) psi, taken as exact binary numbers, it builds in mpmath at
40 digits rho = sum_k |v_k><v_k| and d_l rho = sum_k |u_lk><v_k| + |v_k><u_lk|,
decomposes rho with `mpmath.eighe` (rho = W diag(p) W^dag), and sums

    H_jl = Re sum_ab 2 conj(D_j,ab) D_l,ab / (p_a + p_b),   D_l = W^dag d_l rho W,

over the pairs with p_a + p_b > 1e-12 of the largest pair: the pseudo-inverse
solution of rho L + L rho = 2 d_l rho at rcond 1e-12, with no float64 rounding
past the vectors.  It shares no code with the library.  Not collected by pytest.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 40


def kraus_vectors(curve, row: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) vectors E_k psi and (m, n, d) partials (d_l E_k) psi of a stacked curve's row, in
    float64, from the family's own Kraus stack and the row's input."""
    ck = curve.kraus
    psi = ck.psi[row if len(ck.psi) > 1 else 0]
    return ck.raw_operators[row] @ psi, ck.raw_derivatives[row] @ psi


def _columns(vectors: np.ndarray) -> mpmath.matrix:
    """The (d, n) mpmath matrix whose column k is vectors[k], exactly."""
    return mpmath.matrix([[complex(x) for x in row] for row in np.asarray(vectors).T])


def sld_matrix(vectors: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """(m, m) H of one point's (n, d) Kraus vectors and (m, n, d) partials, at 40 digits."""
    with mpmath.workdps(DIGITS):
        v = _columns(vectors)
        rho = v * v.H
        drhos = [u * v.H + v * u.H for u in map(_columns, partials)]
        p, w = mpmath.eighe(rho)
        d = rho.rows
        pairs = {(a, b): p[a] + p[b] for a in range(d) for b in range(d)}
        cut = mpmath.mpf("1e-12") * max(pairs.values())
        kept = [(a, b, 2 / s) for (a, b), s in pairs.items() if s > cut]
        rotated = [w.H * drho * w for drho in drhos]
        return np.array([[float(mpmath.fsum(mpmath.re(mpmath.conj(dj[a, b]) * dl[a, b]) * weight
                                            for a, b, weight in kept))
                          for dl in rotated] for dj in rotated])
