"""Exact minimum set cover by branch and bound.

``solve_cover`` returns the lexicographically smallest sorted id tuple among
all minimum covers, so the witness it reports does not depend on search
order.
"""

from __future__ import annotations

from .errors import CoverError


def _masks(n_elements, sets):
    candidates = []
    for sid in sorted(sets):
        mask = 0
        for element in sets[sid]:
            if not 0 <= element < n_elements:
                raise CoverError(f"set {sid} names unknown element {element}")
            mask |= 1 << element
        if mask:
            candidates.append((sid, mask))
    universe = (1 << n_elements) - 1
    reachable = 0
    for _, mask in candidates:
        reachable |= mask
    if reachable != universe:
        missing = [e for e in range(n_elements) if not reachable >> e & 1]
        raise CoverError(f"elements {missing} appear in no set")
    return candidates, universe


def solve_cover(n_elements: int, sets: dict) -> tuple:
    """Minimum-size cover of ``range(n_elements)`` by the given id → elements map.

    Ties between minimum covers go to the lexicographically smallest sorted
    tuple of set ids.  Raises :class:`CoverError` when some element appears in
    no set.
    """
    if n_elements == 0:
        return ()
    candidates, universe = _masks(n_elements, sets)
    # Sentinel is strictly worse than any real cover, so the first comparison
    # below never reaches the None.
    best: list = [len(candidates) + 1, None]

    suffix_union = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | candidates[i][1]

    def descend(idx, covered, chosen):
        if covered == universe:
            key = (len(chosen), tuple(chosen))
            if key < (best[0], best[1]):
                best[0], best[1] = key
            return
        if idx == len(candidates):
            return
        uncovered = universe & ~covered
        if uncovered & ~suffix_union[idx]:
            return
        widest = max(
            bin(mask & uncovered).count("1") for _, mask in candidates[idx:]
        )
        need = -(-bin(uncovered).count("1") // widest)
        if len(chosen) + need > best[0]:
            return
        sid, mask = candidates[idx]
        if mask & uncovered:
            chosen.append(sid)
            descend(idx + 1, covered | mask, chosen)
            chosen.pop()
        descend(idx + 1, covered, chosen)

    descend(0, 0, [])
    return best[1]
