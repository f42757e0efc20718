import json
from functools import lru_cache
from itertools import permutations

import pytest

from conftest import oracle_all_covers, oracle_irreducible_covers
from covercone.cone import build_bt_system
from covercone.covers import (
    _ORBIT_REPRESENTATIVES,
    ResourceLimitError,
    UniformCover,
    _all_parts,
    _irreducible_level,
    _relabelings,
    _search,
    cover_from_json,
    cover_to_obj,
    decompose,
    enumerate_covers,
    irreducible_covers,
)
from covercone.core import FormatError, subset_key


def cover(ground, *parts, k=None):
    c = UniformCover.from_parts(ground, parts)
    if k is not None:
        assert c.k == k
    return c


@lru_cache(maxsize=None)
def searched_level(size, k):
    """Level k of {1..size} by the search alone, avoiding searched levels 1..k//2."""
    ground = (1 << size) - 1
    avoid = [parts for j in range(1, k // 2 + 1) for parts in searched_level(size, j)]
    found = _search(ground, _all_parts(ground, k), k, avoid)
    return tuple(sorted(found, key=lambda parts: UniformCover(ground, k, parts).sort_key()))


def orbit(size, parts):
    """Every relabeling of a part tuple by a permutation of {1..size}, parts sorted."""
    return {
        tuple(sorted((sum(1 << perm[e] for e in range(size) if p >> e & 1) for p in parts), key=subset_key))
        for perm in permutations(range(size))
    }


def spell(parts):
    """A part tuple as the table writes it, e.g. (3, 5, 6) -> "12 13 23"."""
    return " ".join("".join(str(e + 1) for e in range(p.bit_length()) if p >> e & 1) for p in parts)


class TestEnumerate:
    def test_singleton_ground(self):
        assert enumerate_covers(0b1, 1) == [cover(0b1, 0b1, k=1)]

    def test_pair_ground_k1(self):
        assert enumerate_covers(0b11, 1) == [
            cover(0b11, 0b11, k=1),
            cover(0b11, 0b01, 0b10, k=1),
        ]

    def test_triple_includes_two_uniform_triangle(self):
        triangle = cover(0b111, 0b011, 0b101, 0b110, k=2)
        assert triangle in enumerate_covers(0b111, 2)

    @pytest.mark.parametrize("size,k_max", [(1, 2), (2, 4), (3, 4)])
    def test_matches_oracle(self, size, k_max):
        ground = (1 << size) - 1
        got = {tuple(sorted(c.parts)) for c in enumerate_covers(ground, k_max)}
        assert got == oracle_all_covers(ground, k_max)

    def test_every_cover_exactly_k(self):
        for c in enumerate_covers(0b111, 3):
            for e in (1, 2, 3):
                bit = 1 << (e - 1)
                assert sum(1 for p in c.parts if p & bit) == c.k

    def test_duplicate_free(self):
        found = enumerate_covers(0b1111, 2)
        assert len({(c.k, c.parts) for c in found}) == len(found)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_covers((1 << 16) - 1, 16)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_covers(0, 1)
        with pytest.raises(ValueError):
            enumerate_covers(0b1, 0)


class TestDecompose:
    def test_duplicated_cover_splits(self):
        c = cover(0b11, 0b11, 0b11, k=2)
        assert decompose(c) == (cover(0b11, 0b11), cover(0b11, 0b11))

    def test_triangle_is_irreducible(self):
        assert decompose(cover(0b111, 0b011, 0b101, 0b110, k=2)) is None

    def test_mixed_cover_splits(self):
        c = cover(0b11, 0b01, 0b10, 0b11, k=2)
        assert decompose(c) == (cover(0b11, 0b01, 0b10), cover(0b11, 0b11))

    def test_decomposition_recombines(self):
        for ground in (0b11, 0b111, 0b1111):
            for c in enumerate_covers(ground, 2):
                result = decompose(c)
                if result is None:
                    continue
                a, b = result
                assert a.ground == b.ground == c.ground
                assert a.k + b.k == c.k
                assert tuple(sorted(a.parts + b.parts)) == tuple(sorted(c.parts))

    def test_agrees_with_oracle_scan(self):
        from conftest import oracle_is_irreducible

        for c in enumerate_covers(0b111, 4):
            assert (decompose(c) is None) == oracle_is_irreducible(c.parts, c.ground)


class TestIrreducible:
    def test_pair_ground(self):
        got = irreducible_covers(0b11, 4)
        assert {c.parts for c in got} == {(0b11,), (0b01, 0b10)}

    def test_triple_ground(self):
        got = {c.parts for c in irreducible_covers(0b111, 6)}
        expected = {
            (0b111,),
            (0b001, 0b010, 0b100),
            (0b001, 0b110),
            (0b010, 0b101),
            (0b100, 0b011),
            (0b011, 0b101, 0b110),
        }
        assert got == expected

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_matches_oracle(self, size):
        ground = (1 << size) - 1
        got = {tuple(sorted(c.parts)) for c in irreducible_covers(ground, 2 * size)}
        assert got == oracle_irreducible_covers(ground, 2 * size)

    def test_no_new_irreducibles_beyond_size(self):
        # default k_max = |ground| loses nothing up to k = 2*|ground|
        for size in (1, 2, 3):
            ground = (1 << size) - 1
            assert {c.parts for c in irreducible_covers(ground)} == {
                c.parts for c in irreducible_covers(ground, 2 * size)
            }

    def test_monotone_in_k_max(self):
        for ground in (0b11, 0b111, 0b1111):
            small = {c.parts for c in irreducible_covers(ground, 1)}
            big = {c.parts for c in irreducible_covers(ground, ground.bit_count())}
            assert small <= big

    def test_all_enumerated_remain_undecomposable(self):
        for c in irreducible_covers(0b111, 4):
            assert decompose(c) is None

    @pytest.mark.parametrize("size,k_max", [(3, 6), (4, 4), (5, 2)])
    def test_matches_enumerate_then_decompose(self, size, k_max):
        # the level-by-level search against the enumerate-then-filter pipeline
        ground = (1 << size) - 1
        expected = [c for c in enumerate_covers(ground, k_max) if decompose(c) is None]
        assert irreducible_covers(ground, k_max) == expected

    @pytest.mark.parametrize("n,k_max", [(4, 4), (5, 3)])
    def test_relabeled_levels_match_a_search_on_each_ground(self, n, k_max):
        # each level is searched once per ground size and relabeled onto the ground
        for ground in range(1, 1 << n):
            for k in range(1, k_max + 1):
                avoid = [c.parts for c in irreducible_covers(ground, k // 2)] if k > 1 else []
                direct = [UniformCover(ground, k, parts) for parts in _search(ground, _all_parts(ground, k), k, avoid)]
                got = [c for c in irreducible_covers(ground, k) if c.k == k]
                assert got == sorted(direct, key=UniformCover.sort_key)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            irreducible_covers((1 << 16) - 1, 16)

    def test_orbit_table_spans_every_level_up_to_size_five(self):
        assert set(_ORBIT_REPRESENTATIVES) == {(size, k) for size in range(1, 6) for k in range(1, size + 1)}

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_orbit_table_matches_the_search(self, size):
        # size 5 searches levels 4 and 5 (~10 s): the only proof of the table
        for k in range(1, size + 1):
            level = searched_level(size, k)
            assert _irreducible_level(size, k) == level
            first, orbits, seen = [], [], set()
            for parts in level:
                if parts not in seen:
                    first.append(parts)
                    orbits.append(orbit(size, parts))
                    seen |= orbits[-1]
            assert _ORBIT_REPRESENTATIVES[size, k] == tuple(spell(parts) for parts in first)
            # the representatives' orbits are disjoint and make up the level
            assert sum(map(len, orbits)) == len(seen) == len(level)

    @pytest.mark.parametrize("size,k", sorted(_ORBIT_REPRESENTATIVES))
    def test_relabelings_match_every_permutation(self, size, k):
        # the closure under two generators of S_size against all size! permutations
        representatives = _ORBIT_REPRESENTATIVES[size, k]
        level = set()
        for rep in representatives:
            level |= orbit(size, tuple(sum(1 << int(e) - 1 for e in part) for part in rep.split()))
        expected = sorted(level, key=lambda parts: UniformCover((1 << size) - 1, k, parts).sort_key())
        assert _relabelings(size, representatives) == tuple(expected)

    def test_ground_size_four_counts(self):
        by_k = {}
        for c in irreducible_covers(0b1111, 4):
            by_k[c.k] = by_k.get(c.k, 0) + 1
        assert by_k == {1: 15, 2: 22, 3: 5}

    def test_ground_size_five_counts(self):
        by_k = {}
        for c in irreducible_covers(0b11111):
            by_k[c.k] = by_k.get(c.k, 0) + 1
        assert by_k == {1: 52, 2: 457, 3: 877, 4: 436, 5: 60}

    def test_no_new_irreducibles_size_four(self):
        base = {c.parts for c in irreducible_covers(0b1111, 4)}
        extended = {c.parts for c in irreducible_covers(0b1111, 8)}
        assert base == extended

    def test_small_grounds_have_no_irreducibles_above_size(self):
        # why build_bt_system(n) may search each ground Y only up to k <= |Y|
        for size in range(1, 4):
            for k in range(size + 1, 13):
                assert _irreducible_level(size, k) == ()


class TestGeneratedCovers:
    """Generated covers skip from_parts; each must be one it would return."""

    @staticmethod
    def assert_checked(covers):
        for c in covers:
            assert UniformCover.from_parts(c.ground, c.parts) == c

    @pytest.mark.parametrize("k_max", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cone_generators(self, n, k_max):
        self.assert_checked(build_bt_system(n, k_max).generators)

    def test_irreducible_covers_of_every_ground_of_five(self):
        for ground in range(1, 1 << 5):
            self.assert_checked(irreducible_covers(ground))

    def test_enumerated_covers(self):
        self.assert_checked(enumerate_covers(0b1111, 3))


class TestCoverValidation:
    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError, match="^part multiset does not cover the ground uniformly$"):
            UniformCover.from_parts(0b111, [0b001, 0b011])

    def test_rejects_part_outside_ground(self):
        with pytest.raises(ValueError, match="^part 3 not a nonempty subset of ground$"):
            UniformCover.from_parts(0b011, [0b100, 0b011])

    def test_trivial_flag(self):
        assert cover(0b11, 0b11).trivial
        assert not cover(0b11, 0b01, 0b10).trivial


class TestCoverFiles:
    def test_round_trip(self):
        c = cover(0b111, 0b011, 0b101, 0b110, k=2)
        again = cover_from_json(json.dumps(cover_to_obj(c)))
        assert again == c

    def test_example_shape(self):
        obj = cover_to_obj(cover(0b111, 0b011, 0b101, 0b110))
        assert obj == {"ground": "1,2,3", "k": 2, "parts": ["1,2", "1,3", "2,3"]}

    def test_rejects_wrong_k(self):
        with pytest.raises(FormatError):
            cover_from_json('{"ground":"1,2","k":2,"parts":["1,2"]}')

    def test_rejects_non_uniform_parts(self):
        with pytest.raises(FormatError, match="^part multiset does not cover the ground uniformly$"):
            cover_from_json('{"ground":"1,2,3","k":1,"parts":["1,2","1,3"]}')

    def test_rejects_part_outside_ground(self):
        with pytest.raises(FormatError, match="^part 3 not a nonempty subset of ground$"):
            cover_from_json('{"ground":"1,2","k":1,"parts":["3","1,2"]}')
