"""Exact output checks for benchmark queries, independent of the covercone package.

Everything here is recomputed from the printed output with `fractions.Fraction`:
subset parsing, uniform-cover validity, certificate reconstruction, witness
margins against a cover family enumerated here, and projection volumes of
box-union bodies by inclusion-exclusion.  Nothing imports covercone.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

#: |log |T_A| - lambda * v_A| allowed for a realized body (the CLI's documented tolerance)
REALIZE_TOLERANCE = Decimal(1) / Decimal(10**6)


class CheckError(Exception):
    """A query's output is wrong, malformed or has an unexpected exit code."""


# ---------------------------------------------------------------------------
# subsets and rationals

def fmt(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def parse_subset(text: str, n: int) -> int:
    if not isinstance(text, str) or not text:
        raise CheckError(f"bad subset {text!r}")
    mask = 0
    for part in text.split(","):
        if not part.isdigit() or not 1 <= int(part) <= n:
            raise CheckError(f"bad subset {text!r} for n={n}")
        mask |= 1 << (int(part) - 1)
    return mask


def parse_q(text) -> Fraction:
    if not isinstance(text, str):
        raise CheckError(f"rational must be a string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"bad rational {text!r}") from None


def bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def evaluate(coeffs: dict[int, Fraction], vector: dict[int, Fraction]) -> Fraction:
    return sum((c * vector.get(m, Fraction(0)) for m, c in coeffs.items()), Fraction(0))


def vector_from_obj(obj, n: int) -> dict[int, Fraction]:
    if not isinstance(obj, dict) or obj.get("n") != n or not isinstance(obj.get("entries"), dict):
        raise CheckError(f"expected an n={n} vector object")
    out = {m: Fraction(0) for m in range(1, 1 << n)}
    for key, value in obj["entries"].items():
        out[parse_subset(key, n)] = parse_q(value)
    return out


# ---------------------------------------------------------------------------
# uniform covers

def cover_coeffs(ground: int, k: int, parts) -> dict[int, Fraction]:
    """Coefficients of  sum_i x_{parts_i} - k x_ground  after checking uniformity."""
    if ground == 0 or not parts or not isinstance(k, int) or k < 1:
        raise CheckError("degenerate cover")
    count = {}
    coeffs: dict[int, Fraction] = {}
    for part in parts:
        if part == 0 or part & ~ground:
            raise CheckError(f"part {fmt(part)} is not inside ground {fmt(ground)}")
        for i in range(ground.bit_length()):
            if part >> i & 1:
                count[i] = count.get(i, 0) + 1
        coeffs[part] = coeffs.get(part, Fraction(0)) + 1
    if any(count.get(i, 0) != k for i in range(ground.bit_length()) if ground >> i & 1):
        raise CheckError(f"cover of {fmt(ground)} is not {k}-uniform")
    coeffs[ground] = coeffs.get(ground, Fraction(0)) - k
    return {m: c for m, c in coeffs.items() if c != 0}


def cover_obj_coeffs(obj, n: int) -> dict[int, Fraction]:
    if not isinstance(obj, dict) or not isinstance(obj.get("parts"), list):
        raise CheckError("bad cover object")
    ground = parse_subset(obj.get("ground"), n)
    return cover_coeffs(ground, obj.get("k"), [parse_subset(p, n) for p in obj["parts"]])


def _covers_of(ground: int, k: int) -> list[tuple[int, ...]]:
    """Every k-uniform cover of `ground`, as sorted part tuples (plain DFS)."""
    elems = [i for i in range(ground.bit_length()) if ground >> i & 1]
    subs = [m for m in range(1, ground + 1) if m & ~ground == 0]
    out = []

    def dfs(start, count, chosen):
        if all(c == k for c in count.values()):
            out.append(tuple(chosen))
            return
        for idx in range(start, len(subs)):
            s = subs[idx]
            if all(count[i] < k for i in elems if s >> i & 1):
                for i in elems:
                    if s >> i & 1:
                        count[i] += 1
                chosen.append(s)
                dfs(idx, count, chosen)
                chosen.pop()
                for i in elems:
                    if s >> i & 1:
                        count[i] -= 1

    dfs(0, {i: 0 for i in elems}, [])
    return out


@lru_cache(maxsize=None)
def cover_family(n: int) -> tuple[dict[int, Fraction], ...]:
    """Inequalities every cone vector satisfies: all 1-uniform covers (partitions)
    of every Y subset [n], and all 2-uniform covers of every Y with |Y| <= 4.

    Each is a uniform-cover inequality, so it holds on the true cone whatever
    generator list the program builds.
    """
    family = []
    for ground in range(1, 1 << n):
        for k in (1, 2):
            if k == 2 and ground.bit_count() > 4:
                continue
            for parts in _covers_of(ground, k):
                coeffs = cover_coeffs(ground, k, parts)
                if coeffs:
                    family.append(coeffs)
    return tuple(family)


# ---------------------------------------------------------------------------
# bodies

def read_body(path: Path) -> tuple[int, list[list[tuple[Fraction, Fraction]]]]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"unreadable body file: {exc}") from None
    n = data.get("n") if isinstance(data, dict) else None
    if not isinstance(n, int) or not isinstance(data.get("boxes"), list) or not data["boxes"]:
        raise CheckError("body file needs 'n' and a nonempty 'boxes' list")
    boxes = []
    for box in data["boxes"]:
        iv = box.get("intervals") if isinstance(box, dict) else None
        if not isinstance(iv, list) or len(iv) != n:
            raise CheckError(f"each box needs {n} intervals")
        pairs = []
        for pair in iv:
            if not isinstance(pair, list) or len(pair) != 2:
                raise CheckError("each interval must be a [lo, hi] pair")
            lo, hi = parse_q(pair[0]), parse_q(pair[1])
            if lo > hi:
                raise CheckError("empty interval")
            pairs.append((lo, hi))
        boxes.append(pairs)
    return n, boxes


def body_max_bits(path: Path) -> int:
    _, boxes = read_body(path)
    return max(bits(q) for box in boxes for pair in box for q in pair)


def _union_measure(rects: list[list[tuple[Fraction, Fraction]]]) -> Fraction:
    """Lebesgue measure of a union of boxes by inclusion-exclusion.

    A branch stops at the first intersection of measure zero, since every
    further intersection inside it has measure zero too.
    """
    total = Fraction(0)
    stack = [(0, None, 1)]
    while stack:
        start, inter, sign = stack.pop()
        for i in range(start, len(rects)):
            if inter is None:
                cur = rects[i]
            else:
                cur = [(max(a, c), min(b, d)) for (a, b), (c, d) in zip(inter, rects[i])]
            if any(hi <= lo for lo, hi in cur):
                continue
            vol = Fraction(1)
            for lo, hi in cur:
                vol *= hi - lo
            total += sign * vol
            stack.append((i + 1, cur, -sign))
    return total


def projection_volumes(path: Path) -> dict[int, Fraction]:
    n, boxes = read_body(path)
    out = {}
    for mask in range(1, 1 << n):
        axes = [i for i in range(n) if mask >> i & 1]
        out[mask] = _union_measure([[box[a] for a in axes] for box in boxes])
    return out


def _log_gap(volume: Fraction, target: Fraction) -> Decimal:
    """|ln volume - target| at 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln = Decimal(volume.numerator).ln() - Decimal(volume.denominator).ln()
        return abs(ln - Decimal(target.numerator) / Decimal(target.denominator))


# ---------------------------------------------------------------------------
# per-query checks

def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        raise CheckError("stdout is not JSON") from None


def _expect_code(got: int, want: int, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: exit code {got}, expected {want}")


def _check_tight_violated(out: dict, n: int, vector: dict[int, Fraction]) -> None:
    for key, sign in (("violated", -1), ("tight", 0)):
        if not isinstance(out.get(key), list):
            raise CheckError(f"missing {key!r} list")
        for obj in out[key]:
            margin = evaluate(cover_obj_coeffs(obj, n), vector)
            if (margin > 0) - (margin < 0) != sign:
                raise CheckError(f"generator listed as {key} has margin {margin}")


def _check_witness_vector(witness: dict[int, Fraction], candidate: dict[int, Fraction], n: int) -> None:
    if evaluate(candidate, witness) != -1:
        raise CheckError(f"candidate at the witness is {evaluate(candidate, witness)}, expected -1")
    for coeffs in cover_family(n):
        if evaluate(coeffs, witness) < 0:
            raise CheckError("witness violates a uniform-cover inequality")


def check_member(q, codes, outs, qdir) -> None:
    n, vector, inside = q.n, q.expect["vector"], q.expect["inside"]
    _expect_code(codes[0], 0 if inside else 1, "member")
    out = _json(outs[0])
    if out.get("n") != n or out.get("inside") is not inside:
        raise CheckError(f"member verdict {out.get('inside')!r}, expected {inside}")
    _check_tight_violated(out, n, vector)
    if not inside and not out["violated"]:
        raise CheckError("outside vector reported with no violated generator")


def check_witness(q, codes, outs, qdir) -> None:
    n = q.n
    _expect_code(codes[0], 0, "witness")
    out = _json(outs[0])
    vector = vector_from_obj(out.get("vector"), n)
    if vector != q.expect["vector"]:
        raise CheckError("witness vector differs from the theorem 9 vector")
    if out.get("in_cone") is not True or out.get("obstruction_holds") is not False:
        raise CheckError("witness must be in the cone and break the obstruction")
    if parse_q(out.get("obstruction_lhs")) != 1 or parse_q(out.get("obstruction_rhs")) != -1:
        raise CheckError("obstruction sides must be 1 and -1")
    _check_tight_violated({"violated": [], "tight": out.get("tight")}, n, vector)


def check_imply(q, codes, outs, qdir) -> None:
    n, candidate, implied = q.n, q.expect["candidate"], q.expect["implied"]
    _expect_code(codes[0], 0 if implied else 1, "imply")
    out = _json(outs[0])
    if out.get("implied") is not implied:
        raise CheckError(f"imply verdict {out.get('implied')!r}, expected {implied}")
    if implied:
        total: dict[int, Fraction] = {}
        if not isinstance(out.get("certificate"), list):
            raise CheckError("missing certificate")
        for entry in out["certificate"]:
            w = parse_q(entry.get("weight") if isinstance(entry, dict) else None)
            if w < 0:
                raise CheckError(f"negative certificate weight {w}")
            for m, c in cover_obj_coeffs(entry, n).items():
                total[m] = total.get(m, Fraction(0)) + w * c
        total = {m: c for m, c in total.items() if c != 0}
        if total != candidate:
            raise CheckError("certificate does not rebuild the candidate")
        return
    if parse_q(out.get("violation_gap")) != 1:
        raise CheckError("violation gap must be 1")
    _check_witness_vector(vector_from_obj(out.get("witness"), n), candidate, n)
    if q.kind == "imply-body":
        volumes = projection_volumes(qdir / "body.json")
        check_body_violates(volumes, candidate)
        check_project(codes[1], outs[1], volumes)


def check_body_violates(volumes: dict[int, Fraction], candidate: dict[int, Fraction]) -> None:
    """prod |T_A|^(s alpha_A) < prod |T_B|^(s beta_B) on exact volumes."""
    if any(volumes[m] <= 0 for m in candidate):
        raise CheckError("body has a zero projection on the candidate's subsets")
    scale = lcm(*(c.denominator for c in candidate.values()))
    lhs = rhs = Fraction(1)
    for m, c in candidate.items():
        if c > 0:
            lhs *= volumes[m] ** int(c * scale)
        else:
            rhs *= volumes[m] ** int(-c * scale)
    if not lhs < rhs:
        raise CheckError("body does not violate the candidate")


def check_project(code: int, text: str, volumes: dict[int, Fraction]) -> None:
    _expect_code(code, 0, "project")
    out = _json(text)
    if out.get("constructible") is not True or not isinstance(out.get("volumes"), dict):
        raise CheckError("project must report a constructible body with volumes")
    n = max(volumes).bit_length()
    printed = {parse_subset(k, n): parse_q(v) for k, v in out["volumes"].items()}
    if printed != volumes:
        raise CheckError("project volumes differ from inclusion-exclusion")


def check_realize(q, codes, outs, qdir) -> None:
    _expect_code(codes[0], 0, "realize")
    out = _json(outs[0])
    if out.get("realized") is not True:
        raise CheckError("interior vector not realized")
    lam = parse_q(out.get("lambda"))
    if lam <= 0 or lam.denominator != 1 or lam.numerator & (lam.numerator - 1):
        raise CheckError(f"lambda {lam} is not a power of two")
    volumes = projection_volumes(qdir / "body.json")
    for m, x in q.expect["vector"].items():
        if volumes[m] <= 0:
            raise CheckError(f"zero projection on {fmt(m)}")
        if _log_gap(volumes[m], lam * x) > REALIZE_TOLERANCE:
            raise CheckError(f"log volume on {fmt(m)} misses lambda*v by more than 1e-6")
    check_project(codes[1], outs[1], volumes)


CHECKS = {
    "member": check_member,
    "witness": check_witness,
    "imply": check_imply,
    "imply-body": check_imply,
    "realize": check_realize,
}


def check_query(q, codes: list[int], outs: list[str], qdir: Path) -> None:
    """Raise CheckError unless every call of `q` exited and printed as expected."""
    if len(codes) != len(q.calls):
        raise CheckError(f"{len(codes)} of {len(q.calls)} calls ran")
    CHECKS[q.kind](q, codes, outs, qdir)
