"""Exact minimum set cover by branching on elements.

``solve_cover`` returns the lexicographically smallest sorted id tuple among
all minimum covers, so the witness it reports does not depend on search
order.  Its elements are relabelled once, rarest first (fewest kept sets, then
index), so the lowest uncovered bit has the fewest covering sets: it branches
there (Knuth's rule for Algorithm X) and packs rarest first for its bound,
clearing each packed element's reach, one mask per element built once per solve.
One pass finds the minimum size; a second fixes ids in increasing order.
Both share one memo keyed by the uncovered elements alone: an id below the one
the second pass tries lies in no minimum cover that extends the ids it fixed.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import ObsrepError, _count

# Entries the failure memo may hold; it is cleared when full.  It caches only
# proven failures, so clearing it costs time, never a witness.
_MEMO_LIMIT = 1 << 18


def solve_cover(n_elements: int, sets: dict) -> tuple:
    """Minimum-size cover of ``range(n_elements)`` by the given id → elements map.

    Ties between minimum covers go to the lexicographically smallest sorted
    tuple of set ids.  Raises :class:`ObsrepError` when ``sets`` is not such a
    map, with plain int ids and iterable sets, or some element appears in no set.
    """
    _count(n_elements, 0, "n_elements")
    if not isinstance(sets, Mapping):
        raise ObsrepError(f"sets must be a mapping of ids to elements, not a {type(sets).__name__}")
    for sid in sets:
        if type(sid) is not int:
            raise ObsrepError(f"set ids must be plain ints, not {sid!r}")
        if not isinstance(sets[sid], Iterable):
            raise ObsrepError(f"set {sid} must be a collection of elements, not {sets[sid]!r}")
    ids, masks = [], []
    for sid in sorted(sets):
        mask = 0
        for element in sets[sid]:
            if type(element) is not int or not 0 <= element < n_elements:
                raise ObsrepError(f"set {sid} names unknown element {element!r}")
            mask |= 1 << element
        # A set inside an earlier one is never needed: swapping it for the
        # earlier id keeps the cover and gives a smaller sorted tuple.
        if mask and all(mask & ~kept for kept in masks):
            ids.append(sid)
            masks.append(mask)
    holders = [[i for i, mask in enumerate(masks) if mask >> e & 1] for e in range(n_elements)]
    missing = [e for e in range(n_elements) if not holders[e]]
    if missing:
        raise ObsrepError(f"elements {missing} appear in no set")
    order = sorted(range(n_elements), key=lambda e: (len(holders[e]), e))
    holders = [holders[e] for e in order]
    masks = [sum((mask >> e & 1) << bit for bit, e in enumerate(order)) for mask in masks]
    # reach[e]: e and every element that shares a kept set with it.
    reach = [0] * n_elements
    for e, sets_of_e in enumerate(holders):
        for i in sets_of_e:
            reach[e] |= masks[i]
    failed = {}

    def coverable(uncovered, k):
        """Can k sets cover the elements of ``uncovered``?"""
        if not uncovered:
            return True
        if failed.get(uncovered, -1) >= k:
            return False
        rest, packed = uncovered, 0
        while rest and packed <= k:
            # Each packed element needs a set of its own; its reach holds the
            # elements that share a set with it, which the packing skips.
            packed += 1
            rest &= ~reach[(rest & -rest).bit_length() - 1]
        branch = holders[(uncovered & -uncovered).bit_length() - 1]
        if packed <= k and any(coverable(uncovered & ~masks[i], k - 1) for i in branch):
            return True
        if len(failed) >= _MEMO_LIMIT:
            failed.clear()
        failed[uncovered] = k
        return False

    universe = (1 << n_elements) - 1
    k = next(k for k in range(len(masks) + 1) if coverable(universe, k))
    chosen, uncovered = [], universe
    for i, mask in enumerate(masks):
        if mask & uncovered and coverable(uncovered & ~mask, k - 1):
            chosen.append(ids[i])
            uncovered &= ~mask
            k -= 1
    return tuple(chosen)
