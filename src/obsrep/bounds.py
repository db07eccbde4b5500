"""Counting thresholds: the vertex count where encodings run out of graphs.

A graph on n labeled vertices drawn with at most h convex obstacles is
pinned down by h circular tangent sequences, and there are fewer than
(2n)^(2hn) ways to write those; meanwhile there are 2^C(n,2) labeled graphs.
Once the first quantity drops below the second, some graph on n vertices
needs more than h obstacles.  A second mode counts order types instead of
sequences: with s obstacle sides in total, the number of distinct
configurations is at most 2^(c(n+s)·log2(n+s)) for a constant c the caller
supplies, since no bound pins the constant down.

All comparisons are exact.  Both modes ask whether base^exp < 2^x for
integers, which holds exactly when base^exp has at most x bits.
:func:`_power_below` decides that from bit-length brackets on base^exp,
refined by binary powering on truncated mantissas only when the brackets
straddle x, so it never builds a number larger than base^exp itself and
almost never builds base^exp.  As the inequality is monotone in n, one
bisection finds the threshold (see :func:`bounds_threshold`); it stops at
n = 200,000, and a query whose threshold lies beyond that is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ObsrepError, _count

_SCAN_LIMIT = 200_000


@dataclass(frozen=True)
class BoundsQuery:
    """One counting question: obstacle-count mode (h) or side-count mode (s, c).

    Exactly one of ``h`` and ``s`` must be given.  ``c`` is the positive
    rational constant of the side-count bound and is meaningful only there;
    it defaults to 1.
    """

    h: int | None = None
    s: int | None = None
    c: Fraction | None = None

    def __post_init__(self):
        if (self.h is None) == (self.s is None):
            raise ObsrepError("give exactly one of h (obstacle count) and s (total sides)")
        if self.h is not None:
            _count(self.h, 1, "obstacle count h")
            if self.c is not None:
                raise ObsrepError("the constant c applies only to side-count (s) queries")
        else:
            _count(self.s, 3, "total side count s")
            if self.c is not None and type(self.c) not in (int, Fraction):
                raise ObsrepError(f"the constant c must be an int or a Fraction, not {self.c!r}")
            c = Fraction(1) if self.c is None else Fraction(self.c)
            if c <= 0:
                raise ObsrepError("the constant c must be positive")
            object.__setattr__(self, "c", c)


def _power_bit_lengths(base: int, exp: int, width: int) -> tuple[int, int]:
    """Bit lengths of a lower and an upper bound on base^exp.

    Left-to-right binary powering keeps each partial power as a mantissa of
    at most ``width`` bits times a power of two, truncated down for the lower
    bound and rounded up for the upper one.  A mantissa never exceeds the
    exact partial power it stands for, so no product here is larger than
    base^exp; once ``width`` reaches the bit length of base^exp nothing is
    truncated and both bounds are exact.
    """
    low = high = base
    low_shift = high_shift = 0
    for bit in bin(exp)[3:]:
        low, high = low * low, high * high
        low_shift, high_shift = 2 * low_shift, 2 * high_shift
        if bit == "1":
            low, high = low * base, high * base
        extra = low.bit_length() - width
        if extra > 0:
            low >>= extra
            low_shift += extra
        extra = high.bit_length() - width
        if extra > 0:
            high = -(-high >> extra)
            high_shift += extra
    return low.bit_length() + low_shift, high.bit_length() + high_shift


def _power_below(base: int, exp: int, x: int) -> bool:
    """Is base^exp < 2^x?  Exact, for base >= 2 and exp >= 1.

    base^exp < 2^x exactly when base^exp has at most x bits.  With
    bl = base.bit_length(), 2^(bl-1) <= base < 2^bl, so base^exp has
    between exp·(bl-1) + 1 and exp·bl bits; that bracket decides every call
    far from the threshold.  Inside it, :func:`_power_bit_lengths` brackets
    the bit length more tightly, doubling the mantissa width until the
    bracket lies on one side of x; it is exact by the time the width reaches
    the size of base^exp.  A power of two needs no case of its own: its
    mantissas are never rounded, so the first round is already exact.
    """
    bl = base.bit_length()
    if exp * bl <= x:
        return True
    if exp * (bl - 1) >= x:
        return False
    width = exp.bit_length() + 64
    while True:
        low, high = _power_bit_lengths(base, exp, width)
        if high <= x:
            return True
        if low > x:
            return False
        width *= 2


def _beaten(query: BoundsQuery, n: int) -> bool:
    """Does the encoding count fall strictly below the graph count at n?"""
    pairs = n * (n - 1) // 2
    if query.h is not None:
        # (2n)^(2hn) < 2^C(n,2)  <=>  2hn*log2(2n) < C(n,2)
        return _power_below(2 * n, 2 * query.h * n, pairs)
    # (n+s)^(c(n+s)) < 2^C(n,2), cleared of the denominator of c = p/q:
    # (n+s)^(p(n+s)) < 2^(q*C(n,2))
    m = n + query.s
    p, q = query.c.numerator, query.c.denominator
    return _power_below(m, p * m, q * pairs)


def bounds_threshold(query: BoundsQuery) -> int:
    """Smallest n at which there are more labeled graphs than encodings.

    From that n on (the left side grows like n·log n against n² on the
    right), at least one n-vertex graph cannot be realized within the
    query's obstacle budget.

    The inequality is monotone in n, so one evaluation at n = 200,000
    refuses a query whose threshold lies beyond it, and one bisection of
    [2, 200,000] finds the rest: at most 19 evaluations.  Proof of
    monotonicity, for real n >= 2:

    - h-mode: taking logarithms and dividing by n/2, the inequality reads
      f(n) = (n - 1)/log2(2n) > 4h.  f'(n) has the sign of
      log2(2n) - (n - 1)/(n·ln 2), where log2(2n) >= 2 > 1/ln 2 > the
      subtracted term; so f increases.
    - s-mode, with m = n + s and c = p/q: the inequality reads
      g(n) = n(n - 1)/(m·log2 m) > 2p/q.  The derivative of ln g is
      1/n + 1/(n - 1) - 1/m - 1/(m·ln m), positive because 1/n > 1/m and,
      since m >= 5 gives ln m > 1, m·ln m > n - 1; so g increases.

    Once beaten at some n, the bound stays beaten at every larger n.
    """
    if not _beaten(query, _SCAN_LIMIT):
        raise ObsrepError(
            f"no threshold below n = {_SCAN_LIMIT}; the query constant is out of scale"
        )
    below, n = 1, _SCAN_LIMIT  # never beaten at ``below``; n = 1 lies outside the range
    while n - below > 1:
        mid = (below + n) // 2
        if _beaten(query, mid):
            n = mid
        else:
            below = mid
    return n
