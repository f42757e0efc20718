"""Seeded benchmark inputs whose answers are fixed by construction.

No expected answer comes from running covercone; each follows from the
mathematics and holds for the true uniform-cover cone, whatever generator
list the program builds:

- modular vectors x_A = sum_{i in A} w_i are tight on every uniform cover, a
  nonnegative constant vector satisfies every cover (l parts >= k), the
  theorem 9 vector is in the cone, and a nonnegative vector zero-extended
  into more coordinates stays in the cone; sums of cone vectors are inside;
- a vector with x_ij > x_i + x_j breaks the partition {i},{j} of {i,j};
- a nonnegative sum of uniform-cover inequalities, reducible or not, is
  implied;
- the n = 4 guess x_ab + x_bc + x_cd >= x_abc + x_bcd is refuted for every
  relabeling, and so is its embedding into n = 5 (a violating body T gives
  the violating body T x [0, 1]).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from check import fmt

#: workload -> cycle of query kinds; a run starts at the head of the cycle and
#: only ever stops after a whole cycle, so every run times the same mix
CYCLES = {
    "decide-n4": ("imply+", "member+", "imply-", "witness", "member-"),
    "construct-n4": ("imply-body", "realize"),
    "cone-n5": ("imply-",),
}

#: queries generated per run; more than a run can complete
QUERY_COUNTS = {"decide-n4": 60, "construct-n4": 12, "cone-n5": 8}

#: kill a query (all of its processes) after this many seconds
TIME_LIMITS = {"decide-n4": 30.0, "construct-n4": 90.0, "cone-n5": 120.0}

#: k_max passed to every n = 5 call
N5_KMAX = "3"

# the theorem 9 vector on [4]: singletons 1, x_13 = x_24 = 2, x_123 = x_234 = 1
_T9 = {0b0001: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1, 0b0101: 2, 0b1010: 2, 0b0111: 1, 0b1110: 1}


@dataclass
class Query:
    kind: str
    n: int
    #: covercone argv of each process, run in order in the query's directory
    calls: list[list[str]]
    #: file name -> text, written into the query's directory before it runs
    files: dict[str, str]
    #: what check.py compares the output with
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# vectors and inequalities as {mask: Fraction}

def relabel(mask: int, image: tuple[int, ...]) -> int:
    """Send element i+1 of [len(image)] to element image[i] (1-based)."""
    out = 0
    for i, target in enumerate(image):
        if mask >> i & 1:
            out |= 1 << (target - 1)
    return out


def _injection(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), 4))


def theorem9(n: int, image=(1, 2, 3, 4)) -> dict[int, Fraction]:
    out = {m: Fraction(0) for m in range(1, 1 << n)}
    for m, x in _T9.items():
        out[relabel(m, image)] = Fraction(x)
    return out


def _add(*vectors) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for v in vectors:
        for m, x in v.items():
            out[m] = out.get(m, Fraction(0)) + x
    return out


def _modular(rng: random.Random, n: int) -> dict[int, Fraction]:
    w = [Fraction(rng.randint(-8, 8), 4) for _ in range(n)]
    return {m: sum((w[i] for i in range(n) if m >> i & 1), Fraction(0)) for m in range(1, 1 << n)}


def _constant(n: int, s: Fraction) -> dict[int, Fraction]:
    return {m: s for m in range(1, 1 << n)}


def inside_vector(rng: random.Random, n: int) -> dict[int, Fraction]:
    t = Fraction(rng.randint(0, 4), 2)
    s = Fraction(rng.randint(0, 4), 2)
    return _add(_modular(rng, n), _constant(n, s), {m: t * x for m, x in theorem9(n, _injection(rng, n)).items()})


def outside_vector(rng: random.Random, n: int) -> dict[int, Fraction]:
    v = inside_vector(rng, n)
    i, j = rng.sample(range(n), 2)
    v[1 << i | 1 << j] = v[1 << i] + v[1 << j] + Fraction(rng.randint(1, 8), 4)
    return v


def interior_vector(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Modular plus the constant 1: every nontrivial generator (more parts
    than its multiplicity) holds strictly, so realize needs no shift."""
    return _add(_modular(rng, n), _constant(n, Fraction(1)))


def guess(n: int, image: tuple[int, ...]) -> dict[int, Fraction]:
    """x_ab + x_bc + x_cd - x_abc - x_bcd for the path image = (a, b, c, d)."""
    a, b, c, d = (1 << (e - 1) for e in image)
    return {a | b: Fraction(1), b | c: Fraction(1), c | d: Fraction(1),
            a | b | c: Fraction(-1), b | c | d: Fraction(-1)}


def _random_cover(rng: random.Random, n: int) -> tuple[int, int, list[int]]:
    """(ground, k, parts) of a seeded nontrivial uniform cover, often reducible."""
    while True:
        ground = rng.randrange(3, 1 << n)
        elems = [i for i in range(n) if ground >> i & 1]
        if len(elems) < 2:
            continue
        style = rng.randrange(3)
        if style == 0:  # union of k random partitions: reducible when k > 1
            k = rng.randint(1, 3)
            parts = []
            for _ in range(k):
                blocks: dict[int, int] = {}
                for e in elems:
                    label = rng.randrange(len(elems))
                    blocks[label] = blocks.get(label, 0) | 1 << e
                parts.extend(blocks.values())
        elif style == 1 and len(elems) >= 3:  # windows of a cyclic order
            k = rng.randint(2, len(elems) - 1)
            order = elems[:]
            rng.shuffle(order)
            parts = [sum(1 << order[(i + j) % len(order)] for j in range(k)) for i in range(len(order))]
        else:  # all (|Y|-1)-subsets
            k = len(elems) - 1
            parts = [ground & ~(1 << e) for e in elems]
        if parts != [ground]:
            return ground, k, parts


def implied_candidate(rng: random.Random, n: int) -> dict[int, Fraction]:
    while True:
        total: dict[int, Fraction] = {}
        for _ in range(rng.randint(1, 3)):
            ground, k, parts = _random_cover(rng, n)
            weight = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            for p in parts:
                total[p] = total.get(p, Fraction(0)) + weight
            total[ground] = total.get(ground, Fraction(0)) - k * weight
        total = {m: c for m, c in total.items() if c != 0}
        if total:
            return total


# ---------------------------------------------------------------------------
# file formats

def vector_json(n: int, v: dict[int, Fraction]) -> str:
    return json.dumps({"n": n, "entries": {fmt(m): str(x) for m, x in sorted(v.items())}})


def inequality_json(n: int, coeffs: dict[int, Fraction]) -> str:
    return json.dumps({
        "n": n,
        "lhs": {fmt(m): str(c) for m, c in sorted(coeffs.items()) if c > 0},
        "rhs": {fmt(m): str(-c) for m, c in sorted(coeffs.items()) if c < 0},
    })


# ---------------------------------------------------------------------------
# queries

def _imply(n: int, candidate, implied: bool, extra: list[str]) -> Query:
    return Query("imply", n, [["imply", "--inequality", "ineq.json"] + extra],
                 {"ineq.json": inequality_json(n, candidate)},
                 {"candidate": candidate, "implied": implied})


def _member(n: int, v, inside: bool, extra: list[str]) -> Query:
    return Query("member", n, [["member", "--vector", "v.json"] + extra],
                 {"v.json": vector_json(n, v)}, {"vector": v, "inside": inside})


def _witness(n: int, extra: list[str]) -> Query:
    return Query("witness", n, [["witness", "--n", str(n)] + extra], {}, {"vector": theorem9(n)})


def make_query(workload: str, kind: str, rng: random.Random) -> Query:
    n = 5 if workload == "cone-n5" else 4
    extra = ["--kmax", N5_KMAX] if n == 5 else []
    if kind == "imply+":
        return _imply(n, implied_candidate(rng, n), True, extra)
    if kind == "imply-" and n == 5:
        # One embedding, scaled by a seeded positive rational.  Under Bland's rule
        # the wide LP's pivots depend on the labeling (2-10 s across embeddings),
        # which would swamp a run of one query; scaling leaves the pivots alone.
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return _imply(n, {m: scale * c for m, c in guess(n, (1, 2, 3, 4)).items()}, False, extra)
    if kind == "imply-":
        return _imply(n, guess(n, _injection(rng, n)), False, extra)
    if kind == "member+":
        return _member(n, inside_vector(rng, n), True, extra)
    if kind == "member-":
        return _member(n, outside_vector(rng, n), False, extra)
    if kind == "witness":
        return _witness(n, extra)
    project = ["project", "--body", "body.json", "--out", "projected.json"]
    if kind == "imply-body":
        # The paper's labeling only: some relabelings take ~20% longer (the LP
        # pivots follow the labeling), which would swamp a run that holds a
        # single emit-body query.  decide-n4 refutes seeded relabelings.
        q = _imply(4, guess(4, (1, 2, 3, 4)), False, ["--emit-body", "body.json"])
        q.kind = "imply-body"
        q.calls.append(project)
        return q
    if kind == "realize":
        v = interior_vector(rng, 4)
        return Query("realize", 4, [["realize", "--vector", "v.json", "--out", "body.json"], project],
                     {"v.json": vector_json(4, v)}, {"vector": v})
    raise ValueError(f"unknown query kind {kind!r}")


def make_queries(workload: str, seed: int) -> list[Query]:
    """The run's query sequence: the workload's kind cycle, inputs from `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    cycle = CYCLES[workload]
    return [make_query(workload, cycle[i % len(cycle)], rng) for i in range(QUERY_COUNTS[workload])]
