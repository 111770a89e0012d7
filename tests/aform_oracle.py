"""Float membership form for the tests of the exact ``a_form``."""

import numpy as np


def a_form_batch(P, Q, r: int) -> np.ndarray:
    """Vectorized float membership form; P, Q arrays of shape (m, dim): the
    float twin of ``certificates.a_form``, which it shares no code with."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    total = (Q * Q).sum(axis=1) - 2.0 * (P * Q).sum(axis=1)
    idx = r
    for i in range(r):
        for j in range(i + 1, r):
            cross = P[:, i] * Q[:, j] - Q[:, i] * P[:, j]
            total += (P[:, idx] - Q[:, idx]) * cross + 0.25 * cross * cross
            idx += 1
    return total
