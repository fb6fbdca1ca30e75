"""`qfi verify`'s SLD solve and the curve's H, against a 40-digit oracle (see mp_oracle.py).

mpmath is a test dependency, pinned in CI: a missing mpmath fails this file's
collection rather than skipping the check.
"""

import numpy as np

from qfibounds import verify

import mp_oracle

# Seed 11's batteries: every fifth one-parameter point and the hardest ones (3
# and 22 for the SVD solve; 174 for the curve, and where a pseudo-inverse of
# the d^2 x d^2 Lyapunov operator is off by 1.5e-10), and every eighth
# two-parameter point.
POINTS = {1: (200, sorted(set(range(0, 200, 5)) | {3, 22, 174})), 2: (50, range(0, 50, 8))}


def test_the_sld_solve_and_the_curve_agree_with_a_40_digit_solve():
    # Measured worst relative errors: 6.8e-13 for the solve (point 3) and
    # 2.8e-13 for the curve (point 174); the bound is not to be loosened.
    errors = {}
    for m, (count, picked) in POINTS.items():
        for rows, curve, _ in verify._battery_curves(11, count, m).groups:
            solve, h = verify._sld_matrix_by_pinv(curve), curve.information[0]
            for i in np.flatnonzero(np.isin(rows, picked)):
                reference = mp_oracle.sld_matrix(*mp_oracle.kraus_vectors(curve, i))
                scale = max(1.0, np.abs(reference).max())
                errors[m, int(rows[i])] = [np.abs(a[i] - reference).max() / scale
                                           for a in (solve, h)]
    assert len(errors) == 50
    point, worst = max(errors.items(), key=lambda item: max(item[1]))
    assert max(worst) < 1e-11, (point, worst)
