"""Where does counting win?

There are at most (2n)^(2hn) graphs representable with h convex obstacles,
but 2^C(n,2) graphs overall.  The calculator finds the smallest n where the
second number overtakes the first - all in exact integer arithmetic.

Run:  python3 demos/counting_thresholds.py
"""

from fractions import Fraction

from obsrep.bounds import BoundsQuery, bounds_threshold


def main():
    print("smallest n where graphs outnumber h-obstacle representations:")
    print("  h   threshold")
    for h in range(1, 11):
        print(f"  {h:2d}  {bounds_threshold(BoundsQuery(h=h)):5d}")

    print("\nsame game against obstacles with s total sides,")
    print("allowing (n+s)^(c(n+s)) placements vs 2^C(n,2) graphs:")
    for s, c in ((3, Fraction(1)), (3, Fraction(1, 2)), (10, Fraction(2))):
        n = bounds_threshold(BoundsQuery(s=s, c=c))
        print(f"  s={s:2d}, c={c}: threshold {n}")


if __name__ == "__main__":
    main()
