import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from obsrep.bounds import BoundsQuery, _beaten, _power_below, bounds_threshold
from obsrep.errors import ObsrepError

from oracles import full_power_beaten

mp.dps = 60

# thresholds for h = 1..10, spot-checked against the floating-point oracle below
KNOWN_H = [24, 56, 92, 130, 170, 211, 253, 296, 340, 385]


def test_first_obstacle_threshold():
    assert bounds_threshold(BoundsQuery(h=1)) == 24


def test_h_thresholds_are_known_and_increasing():
    got = [bounds_threshold(BoundsQuery(h=h)) for h in range(1, 11)]
    assert got == KNOWN_H
    assert all(a < b for a, b in zip(got, got[1:]))


def _float_h_threshold(h):
    n = 2
    while True:
        # 2hn*log2(2n) < C(n,2), far from ties at 60 digits
        if 2 * h * n * mp.log(2 * n, 2) < mpf(n * (n - 1)) / 2:
            return n
        n += 1


def _float_s_threshold(s, c):
    p, q = c.numerator, c.denominator
    n = 2
    while True:
        if p * (n + s) * mp.log(n + s, 2) < mpf(q * n * (n - 1)) / 2:
            return n
        n += 1


def test_h_mode_agrees_with_float_oracle():
    for h in range(1, 11):
        assert bounds_threshold(BoundsQuery(h=h)) == _float_h_threshold(h)


def test_s_mode_known_values():
    assert bounds_threshold(BoundsQuery(s=3)) == 11  # c defaults to 1
    assert bounds_threshold(BoundsQuery(s=3, c=Fraction(1, 2))) == 6
    assert bounds_threshold(BoundsQuery(s=10, c=Fraction(2))) == 30


def test_s_mode_agrees_with_float_oracle():
    rng = random.Random(808)
    for _ in range(25):
        s = rng.randint(3, 12)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        query = BoundsQuery(s=s, c=c)
        assert bounds_threshold(query) == _float_s_threshold(s, c), (s, c)


def test_threshold_is_tight():
    # the inequality holds at the threshold and fails just below it
    for h in (1, 3):
        t = bounds_threshold(BoundsQuery(h=h))
        assert (2 * t) ** (2 * h * t) < 2 ** (t * (t - 1) // 2)
        u = t - 1
        assert (2 * u) ** (2 * h * u) >= 2 ** (u * (u - 1) // 2)
    s, c = 3, Fraction(1, 2)
    t = bounds_threshold(BoundsQuery(s=s, c=c))
    assert (t + s) ** (c.numerator * (t + s)) < 2 ** (c.denominator * t * (t - 1) // 2)
    u = t - 1
    assert (u + s) ** (c.numerator * (u + s)) >= 2 ** (c.denominator * u * (u - 1) // 2)


def test_query_validation():
    with pytest.raises(ObsrepError):
        BoundsQuery()  # neither mode
    with pytest.raises(ObsrepError):
        BoundsQuery(h=1, s=3)  # both modes
    with pytest.raises(ObsrepError):
        BoundsQuery(h=0)
    with pytest.raises(ObsrepError):
        BoundsQuery(s=2)  # no polygon has two sides
    with pytest.raises(ObsrepError):
        BoundsQuery(h=1, c=Fraction(1))  # c is for s-queries only
    with pytest.raises(ObsrepError):
        BoundsQuery(s=3, c=Fraction(0))
    with pytest.raises(ObsrepError):
        BoundsQuery(s=3, c=Fraction(-2, 3))
    # h and s are plain ints, c an int or a Fraction: nothing is coerced
    for bad in (dict(h=2.5), dict(h="3"), dict(h=True), dict(s=4.0), dict(s=True),
                dict(s=3, c=0.5), dict(s=3, c="1/2"), dict(s=3, c=True)):
        with pytest.raises(ObsrepError, match="must be an int"):
            BoundsQuery(**bad)
    assert BoundsQuery(s=3, c=2).c == Fraction(2)


def test_c_defaults_to_one():
    assert BoundsQuery(s=3).c == Fraction(1)
    assert BoundsQuery(s=3, c=Fraction(1)).c == Fraction(1)


def _h_margin(h, n):
    """C(n,2) - 2hn*log2(2n): positive exactly when the h-bound is beaten at n."""
    return mpf(n * (n - 1)) / 2 - 2 * h * n * mp.log(2 * n, 2)


def _s_margin(s, c, n):
    """q*C(n,2) - p(n+s)*log2(n+s) for c = p/q: positive exactly when beaten."""
    m = n + s
    return c.denominator * mpf(n * (n - 1)) / 2 - c.numerator * m * mp.log(m, 2)


def _assert_tight(margin, t):
    # Beaten at t and not below it.  An s-query can tie exactly when n + s is
    # a power of two; a tie is not beaten, and at 60 digits it reads as a
    # margin within 1e-40 of zero.
    assert margin(t) > 0, t
    assert t == 2 or margin(t - 1) <= mpf(10) ** -40, t


def test_h_thresholds_are_tight_against_mpmath():
    rng = random.Random(2686)
    for h in sorted(rng.sample(range(11, 2687), 40)) + [2686]:
        t = bounds_threshold(BoundsQuery(h=h))
        _assert_tight(lambda n: _h_margin(h, n), t)
    assert bounds_threshold(BoundsQuery(h=2686)) == 199_939  # the last h under the cap


# At n = 100, 128^(2475·128) = 2^(448·C(100,2)) exactly: a tie, not beaten.
TIE = BoundsQuery(s=28, c=Fraction(2475, 448))


def test_s_thresholds_are_tight_against_mpmath():
    rng = random.Random(40)
    queries = [TIE]
    for _ in range(60):
        q = rng.randint(1, 12)
        queries.append(BoundsQuery(s=rng.randint(3, 300), c=Fraction(rng.randint(1, 40 * q), q)))
    for query in queries:
        t = bounds_threshold(query)
        _assert_tight(lambda n: _s_margin(query.s, query.c, n), t)
    assert bounds_threshold(TIE) == 101


def test_threshold_beyond_the_cap_is_refused():
    with pytest.raises(ObsrepError, match="no threshold below n = 200000"):
        bounds_threshold(BoundsQuery(h=2687))
    with pytest.raises(ObsrepError, match="no threshold below n = 200000"):
        bounds_threshold(BoundsQuery(s=3, c=Fraction(10**5)))
    with pytest.raises(ObsrepError, match="no threshold below n = 200000"):
        bounds_threshold(BoundsQuery(h=10**29))


def test_power_below_matches_the_full_power():
    rng = random.Random(1 << 20)
    for _ in range(3000):
        base = rng.choice([
            rng.randint(2, 40),
            rng.randint(2, 10**6),
            1 << rng.randint(1, 60),
            (1 << rng.randint(2, 60)) + rng.choice([-1, 1]),
            rng.randint(2, 2**90),
        ])
        exp = rng.randint(1, rng.choice([8, 200, 2000]))
        power = base**exp
        x = max(0, power.bit_length() + rng.randint(-2, 2))
        assert _power_below(base, exp, x) == (power < 1 << x), (base, exp, x)


def _iroot(v, e):
    """floor(v^(1/e)) for integers v >= 1, e >= 1."""
    lo, hi = 1, 1 << (v.bit_length() // e + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**e <= v else (lo, mid)
    return lo


def test_power_below_decides_powers_a_hair_off_a_power_of_two():
    # base^exp just below or just above 2^j, with j strictly inside the
    # bit-length bracket: truncated mantissas land on the wrong side of 2^j
    # unless the bounds keep their rounding directions and the width grows.
    for exp in (3, 4, 5, 7, 12, 100):
        for k in (70, 150, 400):
            j = exp * k + 1
            below = _iroot(1 << j, exp)
            for base in (below, below + 1):
                power = base**exp
                for x in (j - 1, j, j + 1):
                    assert _power_below(base, exp, x) == (power < 1 << x), (base, exp, x)


def test_beaten_matches_the_full_power_up_to_past_the_threshold():
    queries = [BoundsQuery(h=h) for h in range(1, 7)]
    queries += [
        BoundsQuery(s=s, c=Fraction(c))
        for s, c in ((3, 1), (3, "1/2"), (10, 2), (5, "7/3"), (61, 3))
    ]
    for query in queries:
        t = bounds_threshold(query)
        for n in range(2, t + 6):
            assert _beaten(query, n) == full_power_beaten(query, n), (query, n)
    for n in (99, 100, 101):
        assert _beaten(TIE, n) == full_power_beaten(TIE, n) == (n == 101)
