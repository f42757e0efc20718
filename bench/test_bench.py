"""Self-tests of the benchmark: inputs, checker, time limit, tracer and reducer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import check
import layers
import run
import workloads

F = Fraction


def _query(kind, n=4, **expect) -> workloads.Query:
    calls = [["x"], ["project"]] if kind in ("imply-body", "realize") else [["x"]]
    return workloads.Query(kind, n, calls, {}, expect)


def _mask(text: str) -> int:
    return check.parse_subset(text, 5)


# ---------------------------------------------------------------------------
# inputs

def test_inputs_are_seeded():
    for w in workloads.CYCLES:
        a, b = workloads.make_queries(w, 11), workloads.make_queries(w, 11)
        assert [(q.calls, q.files) for q in a] == [(q.calls, q.files) for q in b]
        assert [q.files for q in a] != [q.files for q in workloads.make_queries(w, 12)]


@pytest.mark.parametrize("n", [4, 5])
def test_constructed_answers_hold_on_cover_family(n):
    rng = random.Random(3)
    family = check.cover_family(n)
    for _ in range(5):
        inside = workloads.inside_vector(rng, n)
        assert all(check.evaluate(c, inside) >= 0 for c in family)
        outside = workloads.outside_vector(rng, n)
        assert any(check.evaluate(c, outside) < 0 for c in family)
        interior = workloads.interior_vector(rng, n)
        assert all(check.evaluate(c, interior) > 0 for c in family)
        cand = workloads.implied_candidate(rng, n)
        assert check.evaluate(cand, inside) >= 0
    assert all(check.evaluate(c, workloads.theorem9(n)) >= 0 for c in family)


def test_every_guess_relabeling_fails_on_a_cone_vector():
    for image in permutations(range(1, 5)):
        assert check.evaluate(workloads.guess(4, image), workloads.theorem9(4, image)) == -2


# ---------------------------------------------------------------------------
# checker

PAIR = {_mask("1"): F(1), _mask("2"): F(1), _mask("1,2"): F(-1)}
CERT = [{"ground": "1,2", "k": 1, "parts": ["1", "2"], "weight": "1"}]


def test_certificate_accepted_and_tampered_weight_rejected():
    q = _query("imply", candidate=PAIR, implied=True)
    check.check_query(q, [0], [json.dumps({"implied": True, "certificate": CERT})], Path("."))
    for weight in ("2", "-1", "1/2"):
        bad = [dict(CERT[0], weight=weight)]
        with pytest.raises(check.CheckError):
            check.check_query(q, [0], [json.dumps({"implied": True, "certificate": bad})], Path("."))


def test_non_uniform_certificate_cover_rejected():
    q = _query("imply", candidate=PAIR, implied=True)
    bad = [{"ground": "1,2", "k": 1, "parts": ["1"], "weight": "1"}]
    with pytest.raises(check.CheckError):
        check.check_query(q, [0], [json.dumps({"implied": True, "certificate": bad})], Path("."))


def test_flipped_verdicts_rejected():
    q = _query("imply", candidate=workloads.guess(4, (1, 2, 3, 4)), implied=False)
    with pytest.raises(check.CheckError):
        check.check_query(q, [0], [json.dumps({"implied": True, "certificate": []})], Path("."))
    v = workloads.theorem9(4)
    m = _query("member", vector=v, inside=True)
    good = json.dumps({"n": 4, "inside": True, "violated": [], "tight": []})
    check.check_query(m, [0], [good], Path("."))
    with pytest.raises(check.CheckError):
        check.check_query(m, [1], [json.dumps({"n": 4, "inside": False, "violated": [], "tight": []})], Path("."))
    with pytest.raises(check.CheckError):  # right verdict, wrong exit code
        check.check_query(m, [1], [good], Path("."))


def test_witness_must_violate_candidate_by_exactly_one():
    cand = workloads.guess(4, (1, 2, 3, 4))
    q = _query("imply", candidate=cand, implied=False)
    zero = {"n": 4, "entries": {}}
    out = {"implied": False, "witness": zero, "violation_gap": "1"}
    with pytest.raises(check.CheckError):
        check.check_query(q, [1], [json.dumps(out)], Path("."))


def _write_body(path: Path, boxes) -> None:
    path.write_text(json.dumps({"n": 4, "boxes": [
        {"intervals": [[str(lo), str(hi)] for lo, hi in box]} for box in boxes]}))


def test_body_that_does_not_violate_is_rejected(tmp_path):
    _write_body(tmp_path / "body.json", [[(0, 1)] * 4])
    volumes = check.projection_volumes(tmp_path / "body.json")
    assert set(volumes.values()) == {F(1)}
    with pytest.raises(check.CheckError):
        check.check_body_violates(volumes, workloads.guess(4, (1, 2, 3, 4)))


def test_project_volumes_must_match(tmp_path):
    _write_body(tmp_path / "body.json", [[(0, 1)] * 4])
    volumes = check.projection_volumes(tmp_path / "body.json")
    printed = {check.fmt(m): "1" for m in volumes}
    check.check_project(0, json.dumps({"constructible": True, "volumes": printed}), volumes)
    printed["1,2"] = "2"
    with pytest.raises(check.CheckError):
        check.check_project(0, json.dumps({"constructible": True, "volumes": printed}), volumes)


def test_inclusion_exclusion_counts_overlap_once(tmp_path):
    boxes = [[(0, 1), (0, 1), (0, 0), (0, 0)], [(F(1, 2), F(3, 2)), (0, 1), (0, 0), (0, 0)]]
    _write_body(tmp_path / "b.json", boxes)
    volumes = check.projection_volumes(tmp_path / "b.json")
    assert volumes[_mask("1,2")] == F(3, 2)
    assert volumes[_mask("1")] == F(3, 2)
    assert volumes[_mask("2")] == 1
    assert volumes[_mask("1,3")] == 0


# ---------------------------------------------------------------------------
# time limit and summary

def test_timed_out_process_is_killed(tmp_path):
    t0 = time.perf_counter()
    code, _ = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path,
                              None, 0.3, tmp_path / "o", tmp_path / "e")
    assert code is None and time.perf_counter() - t0 < 5


def test_timed_out_query_counts_as_failed(tmp_path):
    q = workloads.make_queries("decide-n4", 1)[3]  # witness --n 4, ~2 s
    o = run.run_query(q, tmp_path / "q", run.child_env(), limit=0.2)
    run.check_outcome(q, o, tmp_path / "q")
    assert o.error and "timed out" in o.error and o.latency < 2


def test_failures_lower_throughput_never_raise_it():
    ok = run.Outcome(latency=1.0, rss_kb=1024)
    bad = run.Outcome(latency=0.1, rss_kb=1024, error="wrong verdict")
    clean = run.end_to_end([ok, ok], 2.0, 0.1)
    broken = run.end_to_end([ok, bad, bad], 1.2, 0.1)
    assert broken["ok_frac"] < 1 == clean["ok_frac"]
    assert broken["queries_per_s"] <= clean["queries_per_s"]


def test_tail_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100)
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert pct == 75 and 30 <= value <= 31


# ---------------------------------------------------------------------------
# tracer and reducer

def test_tracer_rebinds_imported_copies(tmp_path):
    (tmp_path / "ineq.json").write_text(json.dumps({"n": 2, "lhs": {"1": "1", "2": "1"}, "rhs": {"1,2": "1"}}))
    proc = subprocess.run([sys.executable, str(run.TRACER), str(tmp_path / "s.json"),
                           "imply", "--inequality", "ineq.json"],
                          cwd=tmp_path, env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and json.loads(proc.stdout)["implied"] is True
    doc = json.loads((tmp_path / "s.json").read_text())
    names = {s[0] for s in doc["spans"]}
    # farkas calls solve_equality_lp and cone calls irreducible_covers through from-imports
    assert {"simplex.solve_equality_lp", "covers.irreducible_covers", "cone.build_bt_system",
            "farkas.check_implication", "farkas.read_inequality", "cli.main"} <= names
    metrics = layers.reduce([[doc]])
    assert metrics["farkas.certificates"] == 1 and metrics["simplex.lp_calls"] == 1
    assert metrics["cli.main_s"] >= metrics["cli.self_s"] >= 0


def test_reduce_self_time():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["cone.build_bt_system", 1.0, 7.0, 0, {"generators": 5}],
             ["covers.irreducible_covers", 2.0, 5.0, 1, None],
             ["simplex.solve_equality_lp", 7.0, 9.0, 0,
              {"rows": 3, "cols": 4, "status": "infeasible", "bits": 9}]]
    m = layers.reduce([[{"import_s": 0.5, "spans": spans}]])
    assert m["cone.build_self_s"] == 3.0 and m["cli.self_s"] == 2.0
    assert m["simplex.infeasible_frac"] == 1 and m["simplex.max_bits"] == 9
    assert m["cone.build_share"] == 0.6 and m["cli.import_s"] == 0.5
    assert set(m) == set(layers.UNITS)
