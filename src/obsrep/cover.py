"""Exact minimum set cover by branching on elements.

``solve_cover`` returns the lexicographically smallest sorted id tuple among
all minimum covers, so the witness it reports does not depend on search
order.  One sweep over per-element columns of the kept sets first drops each
set inside an earlier one.  The elements are then relabelled, rarest first
(fewest kept sets, then index), so the lowest uncovered bit has the fewest
covering sets: it branches there (Knuth's rule for Algorithm X) and packs
rarest first for its bound, clearing each packed element's reach, built once.
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
    # cols[e] has bit j set when the j-th kept set holds e.  A set that is empty
    # or whose columns share a bit lies inside an earlier one, which can replace it.
    ids, cols, holders = [], [0] * n_elements, [[] for _ in range(n_elements)]
    for sid in sorted(sets):
        members, inside = set(), -1
        for element in sets[sid]:
            if type(element) is not int or not 0 <= element < n_elements:
                raise ObsrepError(f"set {sid} names unknown element {element!r}")
            members.add(element)
            inside &= cols[element]
        if not inside:
            for element in members:
                cols[element] |= 1 << len(ids)
                holders[element].append(len(ids))
            ids.append(sid)
    missing = [e for e in range(n_elements) if not holders[e]]
    if missing:
        raise ObsrepError(f"elements {missing} appear in no set")
    order = sorted(range(n_elements), key=lambda e: (len(holders[e]), e))
    holders, masks = [holders[e] for e in order], [0] * len(ids)
    for bit, sets_of_e in enumerate(holders):
        for i in sets_of_e:
            masks[i] |= 1 << bit
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
