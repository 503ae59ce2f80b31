"""Parameter policies navigating the paper's tradeoffs (Eq. 10 and Eq. 12).

The recursion thresholds are the tuning knobs:

* 1d-caqr-eg:  ``b = Theta(n / (log P)^eps)``, ``eps in [0, 1]``.
  ``eps <= 0`` degenerates to tsqr (``b = n``); ``eps = 1`` proves
  Theorem 2.
* 3d-caqr-eg:  ``b = Theta(n / (nP/m)^delta)``,
  ``b* = Theta(b / (log P)^eps)``, ``delta in [1/2, 2/3]`` for
  Theorem 1.  ``delta <= 0`` degenerates to 1d-caqr-eg immediately.

Paper anchor: Eq. 10 and Eq. 12 (threshold policies).
"""

from __future__ import annotations

import math

from repro.machine import ParameterError
from repro.util import ilog2


def log2p(P: int) -> float:
    """``log2 P`` floored at 1, the paper's ``log P`` in cost formulas."""
    return max(float(ilog2(max(P, 2))), 1.0)


def choose_b_1d(n: int, P: int, eps: float = 1.0) -> int:
    """Eq. 10: 1d-caqr-eg threshold ``b = Theta(n/(log P)^eps)``.

    Clamped to ``[1, n]``; ``eps <= 0`` returns ``n`` (immediate tsqr,
    the paper's "sensible interpretation of the case eps < 0").
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if eps <= 0 or P <= 1:
        return n
    return max(1, min(n, round(n / log2p(P) ** eps)))


def choose_b_3d(m: int, n: int, P: int, delta: float = 0.5) -> int:
    """Eq. 12 first part: 3d-caqr-eg threshold ``b = Theta(n/(nP/m)^delta)``.

    The aspect factor ``nP/m`` is floored at 1 (for very tall matrices
    the threshold is just ``n`` and the algorithm is one base case).
    ``delta <= 0`` returns ``n`` (immediate 1d-caqr-eg).
    """
    if n < 1 or m < n:
        raise ParameterError(f"need m >= n >= 1, got m={m}, n={n}")
    if delta <= 0:
        return n
    aspect = max(n * P / m, 1.0)
    return max(1, min(n, round(n / aspect**delta)))


def choose_bstar(b: int, P: int, eps: float = 1.0) -> int:
    """Eq. 12 second part: base-case inner threshold ``b* = Theta(b/(log P)^eps)``."""
    if b < 1:
        raise ParameterError(f"b must be >= 1, got {b}")
    if eps <= 0 or P <= 1:
        return b
    return max(1, min(b, round(b / log2p(P) ** eps)))


def theorem2_constraint_ok(n: int, P: int, eps: float = 1.0) -> bool:
    """Theorem 2's hypothesis ``P (log P)^{2 eps} = O(n^2)`` (constant 1)."""
    return P * log2p(P) ** (2 * eps) <= n * n


def theorem1_constraint_ok(m: int, n: int, P: int, delta: float = 0.5, eps: float = 1.0) -> bool:
    """Theorem 1's hypotheses (Eq. 2), with unit constants.

    ``P/(log P)^4 = Omega(m/n)`` and
    ``P (log P)^2 = O(m^{delta/(1+delta)} n^{(1-delta)/(1+delta)})``.
    """
    lp = log2p(P)
    lower = P / lp**4 >= m / n
    upper = P * lp**2 <= m ** (delta / (1 + delta)) * n ** ((1 - delta) / (1 + delta))
    return bool(lower and upper)


def tall_skinny_feasible(m: int, n: int, P: int) -> bool:
    """tsqr/1d-caqr-eg's distribution requirement ``m/n >= P``."""
    return m >= n * P


def recursion_depth(n: int, b: int) -> int:
    """Number of levels ``ceil(log2(n/b))`` of the qr-eg tree."""
    if b >= n:
        return 0
    return int(math.ceil(math.log2(n / b)))
