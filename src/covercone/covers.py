"""Uniform covers of a ground set: enumeration, decomposition, irreducibility.

A k-uniform cover of a ground set Y is a multiset of nonempty subsets of Y
in which every element of Y lies in exactly k parts.  A cover is irreducible
when no proper nonempty sub-multiset has uniform coverage (such a sub-cover
and its complement would decompose the cover into two uniform covers whose
multiplicities add up to k).

One search serves all three tasks: it picks sub-multisets of a pool of
(part, most copies) pairs with every element covered exactly k times.
Enumeration searches the pool of all subsets of Y, decomposition the
cover's own parts, and irreducibility the pool of all subsets while
avoiding the irreducible covers of multiplicity at most k//2.  Parts,
pools and covers are ordered by core.subset_key.

Relabeling the elements maps irreducible covers to irreducible covers, so
each level of them is a union of orbits.  For |Y| <= 5 and k <= |Y| (every
level a cone system reads) the levels are expanded from a table of one
cover per orbit, which the tests rebuild from the search; any other level
is searched.

A cover is checked once, where it enters: UniformCover.from_parts, behind
cover files and decompose.  The search and the table yield covers that are
ordered, inside the ground and uniform; the tests pass each back through it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import FormatError, MAX_DIMENSION, format_subset, load_object, parse_subset, subset_key, subsets_of

#: guard against runaway enumerations: k_max * |ground| parts at most
COVER_PART_LIMIT = 64


class ResourceLimitError(RuntimeError):
    """Enumeration would exceed the configured resource bound."""


class UniformCover(NamedTuple):
    """A k-uniform cover; parts are kept sorted by core.subset_key.

    A plain record, checked only by from_parts (see the module docstring).
    """

    ground: int
    k: int
    parts: tuple[int, ...]

    @classmethod
    def from_parts(cls, ground: int, parts) -> "UniformCover":
        """Build a cover from an unordered part multiset; k is inferred."""
        parts = tuple(sorted(parts, key=subset_key))
        counts = _coverage(ground, parts)
        if not counts or len(set(counts)) != 1 or counts[0] == 0:
            raise ValueError("part multiset does not cover the ground uniformly")
        for part in parts:
            if part == 0 or part & ~ground:
                raise ValueError(f"part {format_subset(part)} not a nonempty subset of ground")
        return cls(ground, counts[0], parts)

    @property
    def trivial(self) -> bool:
        """The singleton cover [Y] with k = 1, whose inequality is x_Y >= x_Y."""
        return self.parts == (self.ground,)

    def sort_key(self):
        return (self.k, len(self.parts), tuple(subset_key(p) for p in self.parts))


def _coverage(ground: int, parts) -> list[int]:
    """Per-element coverage counts, in ascending element order."""
    return [sum(1 for p in parts if p >> e & 1) for e in range(ground.bit_length()) if ground >> e & 1]


def check_k_max(ground: int, k_max: Optional[int]) -> int:
    """k_max, or |ground| when it is None, once it is positive and within the part limit."""
    if ground == 0:
        raise ValueError("ground set must be nonempty")
    if k_max is None:
        k_max = ground.bit_count()
    if k_max < 1:
        raise ValueError("k_max must be positive")
    size = ground.bit_count()
    if k_max * size > COVER_PART_LIMIT:
        raise ResourceLimitError(
            f"k_max={k_max} on a {size}-element ground exceeds the part limit {COVER_PART_LIMIT}"
        )
    return k_max


def _search(ground: int, pool, k: int, avoid=(), limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """Sub-multisets of `pool` that cover every element of `ground` exactly k times.

    `pool` lists (part, most copies) pairs in canonical order; each result
    lists its parts in that order, and results come depth-first with more
    copies of a part tried first.  No result contains a part multiset from
    `avoid` as a sub-multiset, and the search stops after `limit` results.

    The coverage still needed per element is packed into one integer, so
    whether a (pool position, coverage needed) state can be completed at all
    is decided once and remembered; the search only enters completable states.
    """
    width = k.bit_length()
    field = (1 << width) - 1
    positions = [e for e in range(MAX_DIMENSION) if ground >> e & 1]
    shifts = [[width * j for j, e in enumerate(positions) if part >> e & 1] for part, _ in pool]
    spread = [sum(1 << s for s in sh) for sh in shifts]
    parts, copies = zip(*pool)
    end = len(parts)
    # copies taken per pool position are packed too, with a guard bit on top
    # of each slot, so one subtraction tests multiset containment; each
    # avoided multiset is tested once its last pool part is reached
    slot = k.bit_length() + 1
    guard = sum(1 << (slot * i + slot - 1) for i in range(end)) if avoid else 0
    index = {part: i for i, part in enumerate(parts)}
    blockers: list[list[tuple[int, int]]] = [[] for _ in parts]
    for avoided in avoid:
        counts = Counter(avoided)
        if all(part in index for part in counts):
            *rest, (last, most) = sorted((index[part], m) for part, m in counts.items())
            blockers[last].append((most, sum(m << (slot * j) for j, m in rest)))
    completes: dict[int, bool] = {}
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def most_copies(i: int, need: int) -> int:
        cap = copies[i]
        for s in shifts[i]:
            have = need >> s & field
            if have < cap:
                cap = have
        return cap

    def completable(i: int, need: int) -> bool:
        if need == 0:
            return True
        if i == end:
            return False
        key = need * end + i
        ok = completes.get(key)
        if ok is None:
            ok = False
            for c in range(most_copies(i, need), -1, -1):
                if completable(i + 1, need - c * spread[i]):
                    ok = True
                    break
            completes[key] = ok
        return ok

    def dfs(i: int, need: int, taken: int) -> bool:
        """Extend `chosen` from pool position i; True once `limit` is reached."""
        if need == 0:
            found.append(tuple(chosen))
            return len(found) == limit
        cap = most_copies(i, need)
        for most, rest in blockers[i]:
            if most <= cap and (taken | guard) - rest & guard == guard:
                cap = most - 1
        chosen.extend([parts[i]] * cap)
        for c in range(cap, -1, -1):
            nxt = need - c * spread[i]
            if completable(i + 1, nxt) and dfs(i + 1, nxt, taken + (c << slot * i)):
                return True
            if c:
                chosen.pop()
        return False

    dfs(0, k * sum(1 << (width * j) for j in range(len(positions))), 0)
    return found


def _all_parts(ground: int, k: int) -> list[tuple[int, int]]:
    return [(part, k) for part in sorted(subsets_of(ground), key=subset_key)]


def enumerate_covers(ground: int, k_max: int) -> list[UniformCover]:
    """All k-uniform covers of `ground` with k <= k_max, duplicate-free.

    A k-uniform cover has at most k*|ground| parts, so every search ends.
    """
    check_k_max(ground, k_max)
    out = [
        UniformCover(ground, k, parts)
        for k in range(1, k_max + 1)
        for parts in _search(ground, _all_parts(ground, k), k)
    ]
    out.sort(key=UniformCover.sort_key)
    return out


def decompose(cover: UniformCover) -> Optional[tuple[UniformCover, UniformCover]]:
    """Split into two uniform covers of the same ground, or None if irreducible.

    Searches proper nonempty sub-multisets for uniform coverage k' with
    1 <= k' <= k//2 (the complement is then (k-k')-uniform).  Deterministic:
    the first hit at the smallest k', with distinct parts in canonical order
    and higher multiplicities tried first.
    """
    pool = sorted(Counter(cover.parts).items(), key=lambda it: subset_key(it[0]))
    for kp in range(1, cover.k // 2 + 1):
        hit = _search(cover.ground, pool, kp, limit=1)
        if hit:
            remaining = Counter(cover.parts)
            remaining.subtract(hit[0])
            return (
                UniformCover.from_parts(cover.ground, hit[0]),
                UniformCover.from_parts(cover.ground, tuple(remaining.elements())),
            )
    return None


#: One irreducible k-uniform cover of {1..size} per orbit of relabelings, for
#: every size <= 5 and k <= size: the first cover of its orbit in level order,
#: each part written as its elements.  tests/test_covers.py rebuilds it from
#: _search.
_ORBIT_REPRESENTATIVES: dict[tuple[int, int], tuple[str, ...]] = {
    (1, 1): ("1",),
    (2, 1): ("12", "1 2"),
    (2, 2): (),
    (3, 1): ("123", "1 23", "1 2 3"),
    (3, 2): ("12 13 23",),
    (3, 3): (),
    (4, 1): ("1234", "1 234", "12 34", "1 2 34", "1 2 3 4"),
    (4, 2): ("12 134 234", "1 23 24 134", "1 1 23 24 34"),
    (4, 3): ("123 124 134 234", "12 13 14 234 234"),
    (4, 4): (),
    (5, 1): ("12345", "1 2345", "12 345", "1 2 345", "1 23 45", "1 2 3 45", "1 2 3 4 5"),
    (5, 2): (
        "12 1345 2345", "123 145 2345", "1 23 245 1345", "1 123 245 345", "12 13 45 2345",
        "12 34 135 245", "1 1 23 245 345", "1 2 34 35 1245", "1 2 34 135 245", "1 12 34 35 245",
        "12 12 34 35 45", "12 13 24 35 45", "1 1 2 34 35 245", "1 2 12 34 35 45",
        "1 1 2 2 34 35 45",
    ),
    (5, 3): (
        "123 1245 1345 2345", "1 234 235 1245 1345", "12 13 145 2345 2345", "12 34 135 1245 2345",
        "12 134 135 245 2345", "123 123 145 245 345", "123 124 135 245 345",
        "1 1 234 235 245 1345", "1 12 34 235 245 1345", "1 23 24 25 1345 1345",
        "1 23 24 125 345 1345", "1 23 124 125 345 345", "1 23 124 135 245 345",
        "12 12 34 35 145 2345", "12 13 24 35 145 2345", "12 13 45 234 235 145",
        "1 1 1 234 235 245 345", "1 1 23 24 25 345 1345", "1 1 23 24 125 345 345",
        "1 2 34 35 123 145 245", "1 12 13 45 45 234 235", "12 12 13 34 45 45 235",
        "12 13 14 25 35 45 234", "1 1 1 23 24 25 345 345",
    ),
    (5, 4): (
        "1234 1235 1245 1345 2345", "12 134 135 1245 2345 2345", "123 124 125 345 1345 2345",
        "1 12 234 235 245 1345 1345", "12 12 34 135 145 2345 2345", "12 13 14 15 2345 2345 2345",
        "12 13 45 234 235 1245 1345", "12 13 234 235 145 145 2345", "12 134 134 135 235 245 245",
        "12 134 234 135 235 145 245", "1 23 24 134 125 125 345 345", "12 12 13 45 45 234 235 1345",
        "12 12 12 34 34 35 35 145 245",
    ),
    (5, 5): (
        "123 124 125 1345 1345 2345 2345", "12 12 134 135 145 2345 2345 2345",
        "12 13 234 234 235 235 145 145 145",
    ),
}


def _subset_images(targets) -> list[int]:
    """image[m] is the mask of bits targets[i] for the bits i of m, m < 2^len(targets)."""
    image = [0]
    for target in targets:
        image += [mask | 1 << target for mask in image]
    return image


def _relabelings(size: int, representatives) -> tuple[tuple[int, ...], ...]:
    """Every image of the representatives under a permutation of {1..size}, in level order.

    The transposition (1 2) and the cycle (1 2 ... size) generate S_size, so
    the orbits are closed under those two alone: each distinct cover is
    mapped by each generator once.  Parts are handled as their ranks in
    core.subset_key order, so plain int sorts give the order of parts and of covers.
    """
    order = sorted(range(1 << size), key=subset_key)
    rank = [0] * len(order)
    for r, mask in enumerate(order):
        rank[mask] = r
    swap = [1, 0, *range(2, size)] if size > 1 else [0]
    cycle = [*range(1, size), 0]
    generators = [[rank[image[mask]] for mask in order] for image in map(_subset_images, (swap, cycle))]
    found = {
        tuple(sorted([rank[sum(1 << int(e) - 1 for e in part)] for part in rep.split()]))
        for rep in representatives
    }
    stack = list(found)
    while stack:
        parts = stack.pop()
        for table in generators:
            image = tuple(sorted([table[p] for p in parts]))
            if image not in found:
                found.add(image)
                stack.append(image)
    level = sorted(found, key=lambda parts: (len(parts), parts))
    return tuple(tuple(order[r] for r in parts) for parts in level)


@lru_cache(maxsize=None)
def _irreducible_level(size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The parts of each irreducible k-uniform cover of {1..size}, in sort_key order.

    A level in _ORBIT_REPRESENTATIVES is expanded from it; any other is searched.
    """
    representatives = _ORBIT_REPRESENTATIVES.get((size, k))
    if representatives is not None:
        return _relabelings(size, representatives)
    ground = (1 << size) - 1
    avoid = [parts for j in range(1, k // 2 + 1) for parts in _irreducible_level(size, j)]
    found = _search(ground, _all_parts(ground, k), k, avoid)
    return tuple(sorted(found, key=lambda parts: (len(parts), [subset_key(p) for p in parts])))


def irreducible_covers(ground: int, k_max: Optional[int] = None) -> list[UniformCover]:
    """The covers of enumerate_covers(ground, k_max) that decompose cannot split.

    Built level by level without enumerating reducible covers: a k-uniform
    cover is reducible iff it contains an irreducible cover of multiplicity
    at most k//2.  (If C splits into uniform S and C-S, the one of
    multiplicity <= k/2 splits on down into irreducible covers, each
    contained in C; conversely such a cover is a proper uniform
    sub-multiset of C.)  So level k is the search of all k-uniform covers
    avoiding levels 1..k//2.  Each level is built once per ground size, on
    {1..|ground|} (_irreducible_level), and mapped onto the ground by the
    increasing bijection of elements, which keeps the order of parts and of
    covers.  k_max defaults to |ground|, above which the tests find no new
    irreducible cover.
    """
    k_max = check_k_max(ground, k_max)
    bits = [e for e in range(MAX_DIMENSION) if ground >> e & 1]
    image = _subset_images(bits)
    return [
        UniformCover(ground, k, tuple(map(image.__getitem__, parts)))
        for k in range(1, k_max + 1)
        for parts in _irreducible_level(len(bits), k)
    ]


# ---------------------------------------------------------------------------
# cover file format

def cover_to_obj(cover: UniformCover) -> dict:
    return {
        "ground": format_subset(cover.ground),
        "k": cover.k,
        "parts": [format_subset(p) for p in cover.parts],
    }


def cover_from_json(text: str) -> UniformCover:
    data = load_object(text, "cover", "ground", "k", "parts")
    ground = parse_subset(data["ground"], MAX_DIMENSION)
    k = data["k"]
    if type(k) is not int or k < 1:
        raise FormatError("'k' must be a positive integer")
    if not isinstance(data["parts"], list):
        raise FormatError("'parts' must be a list")
    parts = [parse_subset(p, MAX_DIMENSION) for p in data["parts"]]
    try:
        cover = UniformCover.from_parts(ground, parts)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if cover.k != k:
        raise FormatError(f"stated k={k} but the parts form a {cover.k}-uniform cover")
    return cover
