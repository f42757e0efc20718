import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import covercone
from conftest import half_plus_modular
from covercone.boxgeom import read_body, write_body, BoxUnionBody
from covercone import cli
from covercone.cli import build_parser, main
from covercone.cone import build_bt_system
from covercone.core import canonical_subset_order, log_fraction, read_vector, write_vector, ProjectionVector
from covercone.witness import theorem9_vector


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


ONES2 = write_vector(ProjectionVector.from_entries(2, {m: F(1) for m in range(1, 4)}))
GUESS = json.dumps(
    {"n": 4, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"},
     "rhs": {"1,2,3": "1", "2,3,4": "1"}}
)
DERIVED_OK = json.dumps(
    {"n": 3, "lhs": {"1": "1", "2": "1", "1,3": "1", "2,3": "1"}, "rhs": {"1,2,3": "2"}}
)
# Loomis-Whitney: implied by the complete n = 4 cone, refuted at k <= 2
LW4 = json.dumps(
    {"n": 4, "lhs": {"1,2,3": "1", "1,2,4": "1", "1,3,4": "1", "2,3,4": "1"},
     "rhs": {"1,2,3,4": "3"}}
)
# the guess embedded in n = 5: refuted by the k <= 3 cone with one wide LP
GUESS5 = json.dumps(
    {"n": 5, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"},
     "rhs": {"1,2,3": "1", "2,3,4": "1"}}
)
# outside the n = 4 cone: violates five generators and is tight on eight
OUTSIDE4 = '{"n":4,"entries":{"1":"1","2":"1","3":"1","4":"1","1,2":"3","2,3,4":"2"}}'


@pytest.mark.parametrize("argv, code, digest", [
    (["witness", "--n", "4"], 0, "f634cff90d389cdd7fbfe3a28af85cddd77b6c26ac394d4f935e02860554f24d"),
    (["member", "--vector", "OUTSIDE4"], 1, "8712ba8992c2f12d65444ba2022bd3ca757bf4f02ba7e7f32bb50b5f05a61356"),
    (["imply", "--inequality", "LW4"], 0, "c5757ef940dbe89abe5926de7112c2164141d7ac0923754b8481eb979b5c18a5"),
    (["imply", "--inequality", "GUESS5", "--kmax", "3"], 1,
     "b471a19c30ea7ecd3b75ee552dd6c4c1573409de31e6b6d45e99089327bdb0e0"),
    # the complete n = 5 cone refutes the guess by the same certificate as k <= 3
    (["imply", "--inequality", "GUESS5"], 1, "b471a19c30ea7ecd3b75ee552dd6c4c1573409de31e6b6d45e99089327bdb0e0"),
    # 2146 inequalities, one a line
    (["system", "--n", "5"], 0, "d8bced25c84316f0e70db4a54ab2b618dcbc7adab64f703c85e5e8cba76df73b"),
    (["witness", "--n", "5"], 0, "07adcbec001d2b01bec1a6e3945de970295294e260c523f24fb0e8f06fecb5f2"),
], ids=["witness-n4", "member-outside", "imply-loomis-whitney", "imply-n5-kmax3", "imply-n5", "system-n5",
        "witness-n5"])
def test_cover_output_pinned(capsys, tmp_path, argv, code, digest):
    """stdout listing cover objects (tight, violated, certificate) or the system is byte-stable."""
    files = {"OUTSIDE4": OUTSIDE4, "LW4": LW4, "GUESS5": GUESS5}
    argv = [write(tmp_path, f"{a}.json", files[a]) if a in files else a for a in argv]
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitnessCommand:
    def test_n4_report(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["in_cone"] is True
        assert data["obstruction_lhs"] == "1"
        assert data["obstruction_rhs"] == "-1"
        assert data["obstruction_holds"] is False
        k2 = [t for t in data["tight"] if t["k"] == 2 and t["ground"] in ("1,2,3", "2,3,4")]
        assert {t["ground"]: t["parts"] for t in k2} == {
            "1,2,3": ["1,2", "1,3", "2,3"],
            "2,3,4": ["2,3", "2,4", "3,4"],
        }

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "witness", "--n", "4")
        _, second, _ = run(capsys, "witness", "--n", "4")
        assert first == second


class TestMemberCommand:
    def test_witness_vector_inside(self, capsys, tmp_path):
        _, out, _ = run(capsys, "witness", "--n", "4")
        vector = json.dumps(json.loads(out)["vector"])
        path = write(tmp_path, "w4.json", vector)
        code, out, _ = run(capsys, "member", "--vector", path)
        assert code == 0
        data = json.loads(out)
        assert data["inside"] is True
        grounds = {(t["ground"], t["k"]) for t in data["tight"]}
        assert ("1,2,3", 2) in grounds and ("2,3,4", 2) in grounds

    def test_outside_vector_exits_one(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", '{"n":2,"entries":{"1,2":"1"}}')
        code, out, _ = run(capsys, "member", "--vector", path)
        assert code == 1
        data = json.loads(out)
        assert data["inside"] is False
        assert data["violated"] == [{"ground": "1,2", "k": 1, "parts": ["1", "2"]}]

    def test_n3_vector_inside(self, capsys, tmp_path):
        path = write(tmp_path, "v.json", '{"n":3,"entries":{"1":"1","2":"1","1,2":"1"}}')
        code, out, _ = run(capsys, "member", "--vector", path)
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "member", "--vector", "/nonexistent.json")
        assert code == 2
        assert "not found" in err


class TestImplyCommand:
    def test_certificate_exit_zero(self, capsys, tmp_path):
        path = write(tmp_path, "ok.json", DERIVED_OK)
        code, out, _ = run(capsys, "imply", "--inequality", path)
        assert code == 0
        data = json.loads(out)
        assert data["implied"] is True
        assert {(c["ground"], tuple(c["parts"]), c["weight"]) for c in data["certificate"]} == {
            ("1,2,3", ("1", "2,3"), "1"),
            ("1,2,3", ("2", "1,3"), "1"),
        }

    def test_guess_witness_exit_one(self, capsys, tmp_path):
        path = write(tmp_path, "guess.json", GUESS)
        code, out, _ = run(capsys, "imply", "--inequality", path)
        assert code == 1
        data = json.loads(out)
        assert data["implied"] is False
        witness = read_vector(json.dumps(data["witness"]))
        assert witness.n == 4

    def test_emit_body(self, capsys, tmp_path):
        path = write(tmp_path, "guess.json", GUESS)
        body_path = str(tmp_path / "body.json")
        code, out, _ = run(capsys, "imply", "--inequality", path, "--emit-body", body_path)
        assert code == 1
        data = json.loads(out)
        assert data["body"]["violated"] is True
        assert data["body"]["lambda"] == "20"  # 4 * ||c||_1, fixed up front
        assert "shift_eps" not in data["body"]
        body = read_body((tmp_path / "body.json").read_text())
        assert body.n == 4

    @pytest.mark.parametrize("text", [LW4, GUESS], ids=["implied", "refuted"])
    def test_kmax_past_n_is_the_complete_cone(self, capsys, tmp_path, text):
        path = write(tmp_path, "in.json", text)
        complete = run(capsys, "imply", "--inequality", path)
        assert run(capsys, "imply", "--inequality", path, "--kmax", "8") == complete

    def test_emit_body_computes_each_volume_once(self, capsys, tmp_path, monkeypatch):
        """Only the guess's five masks get a projection volume, each once, in
        the violation check; building the body computes none."""
        from covercone import boxgeom

        real = boxgeom.projection_volume
        calls = []

        def counting(body, mask):
            calls.append(mask)
            return real(body, mask)

        monkeypatch.setattr(boxgeom, "projection_volume", counting)
        path = write(tmp_path, "guess.json", GUESS)
        code, _, _ = run(capsys, "imply", "--inequality", path, "--emit-body", str(tmp_path / "b.json"))
        assert code == 1
        assert sorted(calls) == [0b0011, 0b0110, 0b0111, 0b1100, 0b1110]


class TestRealizeCommand:
    def test_hand_case(self, capsys, tmp_path):
        vec = write(tmp_path, "ones.json", ONES2)
        out_path = str(tmp_path / "body.json")
        code, out, _ = run(capsys, "realize", "--vector", vec, "--out", out_path)
        assert code == 0
        data = json.loads(out)
        assert data["realized"] is True
        assert data["lambda"] == "2"
        body = read_body((tmp_path / "body.json").read_text())
        assert len(body.boxes) == 3

    def test_success_report(self, capsys, tmp_path):
        """The report's gaps are |log |T_A| - lambda v_A| in canonical order,
        and its steps run over every ground from the largest down, each with
        the logs of the step's volumes on that ground's subsets."""
        vec = write(tmp_path, "ones.json", ONES2)
        code, out, _ = run(capsys, "realize", "--vector", vec, "--out", str(tmp_path / "body.json"))
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["realized", "lambda", "body_file", "max_gap", "gaps", "steps"]
        assert list(data["gaps"]) == ["1", "2", "1,2"]
        assert data["max_gap"] == max(data["gaps"].values(), key=float)
        assert [step["ground"] for step in data["steps"]] == ["1,2", "2", "1"]
        assert [list(step["log_z"]) for step in data["steps"]] == [["1", "2", "1,2"], ["2"], ["1"]]
        # the first step consumes the whole target on [2]: log z_12 = lambda * v_12
        assert data["steps"][0]["log_z"]["1,2"] == "2.0"

    def test_theorem9_refused_as_boundary(self, capsys, tmp_path):
        """The theorem 9 vector has zero slacks, first on {1,3}, so realize
        refuses it and writes no body; theorem 9 says no body realizes it,
        but the refusal only names the tight ground."""
        vec = write(tmp_path, "t9.json", write_vector(theorem9_vector(4)))
        code, out, _ = run(capsys, "realize", "--vector", vec, "--out", str(tmp_path / "body.json"))
        assert code == 1
        assert json.loads(out) == {
            "realized": False,
            "reason": "boundary",
            "detail": "vector is on the boundary of the cone: zero slack on {1,3}",
        }
        assert not (tmp_path / "body.json").exists()

    def test_not_in_cone(self, capsys, tmp_path):
        """The whole refusal is pinned, byte for byte: its keys, their order
        and the detail naming the first ground where the vector is outside."""
        for text, ground in (
            ('{"n":2,"entries":{"1,2":"1"}}', "{1,2}"),
            # tight on {1,2} before it is outside on {1,3}: outside wins
            ('{"n":3,"entries":{"1":"1","2":"1","3":"1","1,2":"2","1,3":"3"}}', "{1,3}"),
        ):
            vec = write(tmp_path, "bad.json", text)
            code, out, _ = run(capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"))
            assert code == 1
            assert out == json.dumps({
                "realized": False,
                "reason": "not-in-cone",
                "detail": f"vector violates a uniform-cover inequality on {ground}",
            }, indent=2) + "\n"
            assert not (tmp_path / "x.json").exists()

    def test_inconclusive_at_tiny_cap(self, capsys, tmp_path):
        """The whole refusal is pinned, byte for byte, with the last failed
        ground and the cap it stopped at."""
        vec = write(tmp_path, "ones.json", ONES2)
        code, out, _ = run(
            capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"),
            "--lambda-cap", "1",
        )
        assert code == 1
        assert out == json.dumps({
            "realized": False,
            "reason": "inconclusive",
            "detail": "no realization found with lambda <= 1 (last failure: box system for ground {1,2} is infeasible)",
            "lambda_cap": "1",
        }, indent=2) + "\n"
        assert not (tmp_path / "x.json").exists()

    def test_lambda_cap_defaults_to_realize_default(self, capsys, tmp_path):
        """Without --lambda-cap the doubling stops at realize.DEFAULT_LAMBDA_CAP
        (1024); this vector, x_12 = -1/4096 below x_1 + x_2 = 0, first
        realizes at lambda = 8192."""
        from covercone import realize

        vec = write(tmp_path, "tiny.json", '{"n": 2, "entries": {"1": "0", "2": "0", "1,2": "-1/4096"}}')
        code, out, _ = run(capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"))
        assert code == 1
        data = json.loads(out)
        assert data["reason"] == "inconclusive"
        assert data["lambda_cap"] == str(realize.DEFAULT_LAMBDA_CAP) == "1024"
        assert not (tmp_path / "x.json").exists()
        with pytest.raises(SystemExit):
            main(["realize", "--help"])
        assert f"(default: {realize.DEFAULT_LAMBDA_CAP})" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("n, seconds", [(6, 10), (7, 20), (8, 40)], ids=["n6", "n7", "n8"])
    def test_half_plus_modular_past_the_generator_list(self, capsys, tmp_path, n, seconds):
        """realize reads no generator list, so it builds past the list's
        n <= 5: 1/2 + modular at n = 6, 7 and 8 realizes at lambda 16, and
        project measures the body, the two within `seconds`."""
        start = time.perf_counter()
        vec = write(tmp_path, "v.json", write_vector(half_plus_modular(n)))
        body = str(tmp_path / "body.json")
        code, out, _ = run(capsys, "realize", "--vector", vec, "--out", body)
        assert (code, json.loads(out)["lambda"]) == (0, "16")
        assert run(capsys, "project", "--body", body, "--out", str(tmp_path / "back.json"))[0] == 0
        assert time.perf_counter() - start < seconds


class TestProjectCommand:
    def test_positive_body(self, capsys, tmp_path):
        body = BoxUnionBody(2, (((F(0), F(1)), (F(0), F(2))),))
        body_path = write(tmp_path, "body.json", write_body(body))
        out_path = str(tmp_path / "vec.json")
        code, out, _ = run(capsys, "project", "--body", body_path, "--out", out_path)
        assert code == 0
        data = json.loads(out)
        assert data["constructible"] is True
        assert data["volumes"] == {"1": "1", "2": "2", "1,2": "2"}
        vector = read_vector((tmp_path / "vec.json").read_text())
        assert vector[0b01] == 0

    def test_zero_projection_exits_one(self, capsys, tmp_path):
        body = BoxUnionBody(2, (((F(0), F(5)), (F(0), F(0))),))
        body_path = write(tmp_path, "seg.json", write_body(body))
        out_path = tmp_path / "vec.json"
        code, out, err = run(capsys, "project", "--body", body_path, "--out", str(out_path))
        assert (code, err) == (1, "")
        assert out == json.dumps({
            "constructible": False,
            "volumes": {"1": "5", "2": "0", "1,2": "0"},
            "zero_projections": ["2", "1,2"],
            "detail": "some projection has measure zero, so its log is undefined",
        }, indent=2) + "\n"
        assert not out_path.exists()

    def project(self, capsys, tmp_path, body):
        """Run `project` on body; its stdout volumes and the vector it wrote."""
        body_path = write(tmp_path, "body.json", write_body(body))
        out_path = tmp_path / "vec.json"
        code, out, _ = run(capsys, "project", "--body", body_path, "--out", str(out_path))
        assert code == 0
        return json.loads(out)["volumes"], read_vector(out_path.read_text(encoding="utf-8"))

    def test_unit_cube_projects_to_the_zero_vector(self, capsys, tmp_path):
        cube = BoxUnionBody(3, (((F(0), F(1)),) * 3,))
        volumes, vector = self.project(capsys, tmp_path, cube)
        assert set(volumes.values()) == {"1"}
        assert vector == ProjectionVector.from_entries(3, {})

    def test_two_box_logs(self, capsys, tmp_path):
        two_box = BoxUnionBody(2, (((F(0), F(1)), (F(0), F(1))),
                                   ((F(0), F(2)), (F(0), F(1, 2)))))
        volumes, vector = self.project(capsys, tmp_path, two_box)
        assert volumes == {"1": "2", "2": "1", "1,2": "3/2"}
        assert vector == ProjectionVector(2, {0b01: log_fraction(F(2)), 0b10: F(0),
                                              0b11: log_fraction(F(3, 2))})

    def test_axis_scaling_shifts_logs(self, capsys, tmp_path):
        _, p = self.project(capsys, tmp_path, BoxUnionBody(2, (((F(0), F(3)), (F(0), F(1))),)))
        _, q = self.project(capsys, tmp_path, BoxUnionBody(2, (((F(0), F(6)), (F(0), F(1))),)))
        log2 = log_fraction(F(2))
        for mask in canonical_subset_order(2):
            expected = p[mask] + (log2 if mask & 0b01 else 0)
            assert abs(q[mask] - expected) < F(1, 10**25)

    def test_project_then_member_pipeline(self, capsys, tmp_path):
        body = BoxUnionBody(
            2, (((F(0), F(1)), (F(0), F(1))), ((F(2), F(4)), (F(2), F(3))))
        )
        body_path = write(tmp_path, "b.json", write_body(body))
        vec_path = str(tmp_path / "v.json")
        assert run(capsys, "project", "--body", body_path, "--out", vec_path)[0] == 0
        code, out, _ = run(capsys, "member", "--vector", vec_path)
        assert code == 0
        assert json.loads(out)["inside"] is True


class TestCoversCommand:
    def test_irreducible_count(self, capsys):
        code, out, _ = run(capsys, "covers", "--ground", "1,2,3", "--irreducible")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 6
        assert {"ground": "1,2,3", "k": 2, "parts": ["1,2", "1,3", "2,3"]} in data["covers"]
        # [6] is past the orbit table, so k <= 2 runs the search with its avoid set
        code, out, _ = run(capsys, "covers", "--ground", "1,2,3,4,5,6", "--irreducible", "--kmax", "2")
        assert code == 0
        assert json.loads(out)["count"] == 10815

    def test_all_covers(self, capsys):
        code, out, _ = run(capsys, "covers", "--ground", "1,2", "--kmax", "1")
        data = json.loads(out)
        assert [c["parts"] for c in data["covers"]] == [["1,2"], ["1", "2"]]


class TestSystemCommand:
    def test_n1_prints_nothing(self, capsys):
        assert run(capsys, "system", "--n", "1") == (0, "", "")

    def test_n3_prints_the_h_representation(self, capsys):
        code, out, err = run(capsys, "system", "--n", "3")
        assert (code, err) == (0, "")
        assert out == build_bt_system(3).h_representation() + "\n"
        assert out.count("\n") == 8


class TestShearerCommand:
    def test_power_set(self, capsys, tmp_path):
        family = write(
            tmp_path, "fam.json",
            json.dumps({"n": 2, "members": ["", "1", "2", "1,2"]}),
        )
        cover = write(
            tmp_path, "cov.json",
            json.dumps({"ground": "1,2", "k": 1, "parts": ["1", "2"]}),
        )
        code, out, _ = run(capsys, "shearer", "--family", family, "--cover", cover)
        assert code == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["lhs_product"] == data["rhs_power"] == 4

    def test_coverage_violation_is_usage_error(self, capsys, tmp_path):
        family = write(tmp_path, "fam.json", json.dumps({"n": 3, "members": ["1"]}))
        cover = write(
            tmp_path, "cov.json", json.dumps({"ground": "1,2", "k": 1, "parts": ["1", "2"]})
        )
        code, _, err = run(capsys, "shearer", "--family", family, "--cover", cover)
        assert code == 2
        assert "coverage" in err


def run_process(tmp_path, argv, stdout_closed, stderr_closed=False, unbuffered=False):
    """`python ARGV` in tmp_path, as (exit code, stdout, stderr); stdout is
    read after exit, so it must fit in the pipe.  stdout_closed is False,
    "reader" (the pipe's reader is closed before the child starts, so every
    write fails) or "fd" (the child starts with fd 1 closed).  stderr_closed
    is False, "fd" (the child starts with fd 2 closed) or "reused" (fd 2 is
    open read-only on /dev/null, as a launcher that closed it and then opened
    a file leaves it); stderr then reads "".  The child has PYTHONUNBUFFERED=1
    if `unbuffered`, else no PYTHONUNBUFFERED, so buffered output is still
    pending at exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def close_fds():
        if stdout_closed == "fd":
            os.close(1)
        if stderr_closed:
            os.close(2)
        if stderr_closed == "reused":
            os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)

    read_end, write_end = os.pipe()
    if stdout_closed:
        os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=30,
                              preexec_fn=close_fds if stdout_closed == "fd" or stderr_closed else None)
    finally:
        os.close(write_end)
    out = ""
    if not stdout_closed:
        with os.fdopen(read_end) as fh:
            out = fh.read()
    return proc.returncode, out, proc.stderr


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = write(tmp_path, "junk.json", "{not json")
        code, _, err = run(capsys, "member", "--vector", path)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [["witness", "--n", "6"], ["system", "--n", "6"]],
                             ids=["witness", "system"])
    def test_cone_dimension_six_refused(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: cone systems are limited to 1 <= n <= 5\n"

    def test_realize_dimension_nine_refused(self, tmp_path):
        """realize's bound is its own, 8, not the generator list's 5."""
        write(tmp_path, "v9.json", json.dumps({"n": 9, "entries": {"1,2,3,4,5,6,7,8,9": "1"}}))
        argv = ["-m", "covercone", "realize", "--vector", "v9.json", "--out", "b.json"]
        assert run_process(tmp_path, argv, False) == (2, "", "error: realize is limited to 1 <= n <= 8\n")
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize(
        "argv, text, line",
        [(["project", "--body", "in.json", "--out", "out.json"],
          '{"n": 1, "boxes": [{"intervals": [[0, 1]]}]}', None),
         (["member", "--vector", "in.json"], "[" * 100000 + "]" * 100000, None),
         (["member", "--vector", "in.json"], '{"n": 2, "entires": {"1,2": "5"}}', None),
         (["imply", "--inequality", "in.json"], '{"n": 2, "lhs": {"1,2": "1"}, "rsh": {"1": "1"}}', None),
         (["project", "--body", "in.json", "--out", "out.json"],
          '{"n": 1, "boxes": [{"intervals": [["1", "0"]]}]}', "error: empty interval [1, 0]\n"),
         (["shearer", "--family", "in.json", "--cover", "in.json"],
          '{"n": 2, "members": ["1", "1"]}', "error: duplicate family member\n")],
        ids=["numeric-endpoint", "deep-nesting", "misspelled-entries", "misspelled-rhs", "empty-interval",
             "duplicate-member"],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, argv, text, line):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        write(tmp_path, "in.json", text)
        proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert line is None or proc.stderr == line

    def test_lambda_cap_below_one_is_usage_error(self, capsys, tmp_path):
        vec = write(tmp_path, "ones.json", ONES2)
        code, out, err = run(
            capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"),
            "--lambda-cap", "0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: lambda_cap must be at least 1\n"

    @pytest.mark.parametrize("spelling", ["\u0663", " 3", "3 ", "0_3"],
                             ids=["arabic-indic-3", "leading-space", "trailing-space", "underscore"])
    @pytest.mark.parametrize("argv", [["system", "--n"], ["covers", "--ground", "1,2", "--kmax"]],
                             ids=["system-n", "covers-kmax"])
    def test_integer_option_takes_only_ascii_digits(self, capsys, argv, spelling):
        """--n and --kmax read an integer as the files do: an optional sign, ASCII digits."""
        with pytest.raises(SystemExit) as exc:
            main(argv + [spelling])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert "Traceback" not in err
        assert f"invalid parse_integer value: {spelling!r}" in err

    @pytest.mark.parametrize("argv", [
        ["system", "--n=--"],
        ["covers", "--ground", "1,2", "--kmax=--"],
        ["member", "--vector=--"],
        ["realize", "--vector", "v.json", "--out=--"],
    ], ids=["system-n", "covers-kmax", "member-vector", "realize-out"])
    def test_double_dash_value_is_usage_error(self, capsys, argv):
        """`--opt=--` is refused before any command reads the option."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert err.endswith(f"error: argument {argv[-1][:-3]}: expected one argument\n")

    @pytest.mark.parametrize("spelling", ["+3", "03"])
    def test_integer_option_sign_and_leading_zero(self, capsys, spelling):
        assert run(capsys, "system", "--n", spelling) == run(capsys, "system", "--n", "3")

    @pytest.mark.parametrize("argv, detail", [
        (["system", "--n", "0"], "cone systems are limited to 1 <= n <= 5"),
        (["system", "--n", "-1"], "cone systems are limited to 1 <= n <= 5"),
        (["covers", "--ground", "1,2", "--kmax", "0"], "k_max must be positive"),
        (["covers", "--ground", "1,2", "--kmax", "-1"], "k_max must be positive"),
    ], ids=["system-n0", "system-n-1", "covers-kmax0", "covers-kmax-1"])
    def test_integer_option_out_of_range(self, capsys, argv, detail):
        assert run(capsys, *argv) == (2, "", f"error: {detail}\n")

    @pytest.mark.parametrize("argv", [
        ["member", "--vector", "v.json", "--kmax", "2"],
        ["member", "--vector", "v.json", "--n", "3"],
        ["witness", "--n", "4", "--kmax", "3"],
        ["system", "--n", "4", "--kmax", "2"],
        ["realize", "--vector", "v.json", "--out", "b.json", "--report", "r.json"],
        ["realize", "--vector", "v.json", "--out", "b.json", "--epsilon", "1/4"],
        ["shearer", "--family", "f.json", "--cover", "c.json", "--k", "1"],
    ], ids=["member-kmax", "member-n", "witness-kmax", "system-kmax", "realize-report", "realize-epsilon",
            "shearer-k"])
    def test_dropped_option_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name, text, detail",
        # the k <= 2 cone refutes Loomis-Whitney with a witness outside the complete cone
        [(["imply", "--inequality", "in.json", "--kmax", "2", "--emit-body", "b.json"],
          "in.json", LW4, "witness is outside the cone on {1,2,3,4}"),
         (["realize", "--vector", "in.json", "--out", "b.json"],
          "in.json", '{"n":1,"entries":{"1":"10000000"}}', "leaves the decimal exponent range"),
         (["realize", "--vector", "in.json", "--out", "b.json"],
          "in.json", '{"n":1,"entries":{"1":"-10000000"}}', "leaves the decimal exponent range"),
         # a valid vector whose body has a term past the interpreter's digit limit
         (["realize", "--vector", "in.json", "--out", "b.json"],
          "in.json", '{"n":2,"entries":{"1":"12000","2":"12000","1,2":"12000"}}',
          "past the interpreter's limit on integer digits")],
        ids=["emit-body-outside-cone", "exp-overflow", "exp-underflow", "body-past-digit-limit"],
    )
    def test_gives_up_with_one_error_line(self, tmp_path, argv, name, text, detail):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        write(tmp_path, name, text)
        proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert detail in proc.stderr
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("argv, stdout_closed, unbuffered, code", [
        (["member", "--vector", "."], False, False, 2),
        (["realize", "--vector", "v.json", "--out", "nodir/b.json"], False, False, 3),
        (["system", "--n", "2"], "reader", False, 3),
        (["system", "--n", "2"], "fd", False, 3),
        (["--help"], "reader", False, 3),
        (["--help"], "reader", True, 3),
        (["--help"], "fd", False, 3),
        (["member", "--help"], "reader", False, 3),
    ], ids=["directory-input", "missing-output-dir", "closed-stdout", "closed-fd1",
            "help-closed-stdout", "help-closed-stdout-unbuffered", "help-closed-fd1",
            "member-help-closed-stdout"])
    def test_io_failure_is_one_error_line(self, tmp_path, argv, stdout_closed, unbuffered, code):
        write(tmp_path, "v.json", ONES2)
        got, out, err = run_process(tmp_path, ["-m", "covercone", *argv], stdout_closed, unbuffered=unbuffered)
        assert (got, out) == (code, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if stdout_closed == "reader":  # every write to the pipe fails
            assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv, stderr_closed, code", [
        (["member", "--vector", "missing.json"], "fd", 2),
        (["member", "--vector", "missing.json"], "reused", 2),
        (["realize", "--vector", "v.json", "--out", "nodir/b.json"], "fd", 3),
        (["realize", "--vector", "v.json", "--out", "nodir/b.json"], "reused", 3),
        (["member", "--vector"], "fd", 2),
        (["member", "--vector"], "reused", 2),
    ], ids=["missing-input-fd", "missing-input-reused", "missing-output-dir-fd", "missing-output-dir-reused",
            "usage-error-fd", "usage-error-reused"])
    def test_closed_stderr_keeps_the_exit_code_and_stdout_empty(self, tmp_path, argv, stderr_closed, code):
        """With fd 2 closed at start the error line (or argparse's usage) is
        dropped, not printed on stdout; with fd 2 reused for a read-only file
        the failed write turns exit 2 or 3 into neither 1 nor 120."""
        write(tmp_path, "v.json", ONES2)
        assert run_process(tmp_path, ["-m", "covercone", *argv], False, stderr_closed) == (code, "", "")

    def test_resource_limit_is_exit_three(self):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "covercone", "covers",
             "--ground", "1,2,3,4,5,6,7,8,9", "--kmax", "8"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


OUT3 = '{"n": 3, "entries": {"1": "1", "2": "1", "1,2": "3"}}'

#: the ways out of a process: a success, a verdict of 1, argparse's two
#: SystemExits, and a stdout whose reader closed before the process started,
#: under a command or under --help
EXITS = pytest.mark.parametrize("argv, stdout_closed, code", [
    (["system", "--n", "2"], False, 0),
    (["member", "--vector", "out3.json"], False, 1),
    (["--help"], False, 0),
    (["frobnicate"], False, 2),
    (["system", "--n", "2"], "reader", 3),
    (["--help"], "reader", 3),
], ids=["success", "verdict", "help", "usage-error", "closed-stdout", "help-closed-stdout"])


class TestEntryPoint:
    """`python -m covercone` enters through cli.run, which freezes the
    collector on every way out, so interpreter shutdown does not walk the
    objects it is about to free; in-process callers of main keep theirs."""

    PROBE = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
             "runpy.run_module('covercone', run_name='__main__', alter_sys=True)\n")

    @EXITS
    def test_collector_frozen_at_exit(self, tmp_path, argv, stdout_closed, code):
        write(tmp_path, "out3.json", OUT3)
        got, _, err = run_process(tmp_path, ["-c", self.PROBE, *argv], stdout_closed)
        assert got == code
        assert err.splitlines()[-1] == "frozen: True"

    @EXITS
    def test_process_matches_main(self, tmp_path, monkeypatch, argv, stdout_closed, code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
        write(tmp_path, "out3.json", OUT3)
        expected = run_process(tmp_path, ["-m", "covercone", *argv], stdout_closed)
        monkeypatch.chdir(tmp_path)
        err = io.StringIO()
        if stdout_closed:
            read_end, write_end = os.pipe()
            os.close(read_end)
            out = open(write_end, "w")
        else:
            out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
        printed = "" if stdout_closed else out.getvalue()
        out.close()  # what is left pending goes to devnull, as in the process
        assert (got, printed, err.getvalue()) == expected
        assert got == code
        assert gc.get_freeze_count() == 0


def fuzzed(alphabet: str, size: int):
    """Short strings, half of them from the characters a valid value uses."""
    return st.one_of(st.text(alphabet=alphabet, max_size=size), st.text(max_size=size))


def assert_exit_contract(argv) -> int:
    """main ends in 0, 1, 2 or 3 with no traceback; 2 and 3 print exactly one
    `error:` line, except argparse's own usage exit 2.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert err.getvalue().startswith("usage: "), argv
            return 2
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code >= 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code


#: comma-joined element lists, as `--ground` spells a subset; random text
#: seldom is a valid ground of two or more elements
element_lists = st.lists(st.integers(0, 10), max_size=4).map(lambda xs: ",".join(map(str, xs)))


@pytest.fixture(scope="module")
def arg_files(tmp_path_factory):
    """A tight 2-d vector (x_12 = x_1 + x_2), a strict one (x_12 = 1 <
    x_1 + x_2 = 2) and the 3-d derived inequality."""
    root = tmp_path_factory.mktemp("args")
    vectors = (write(root, "tight2.json", '{"n": 2, "entries": {"1": "1", "2": "1", "1,2": "2"}}'),
               write(root, "ones2.json", ONES2))
    return vectors, write(root, "ok3.json", DERIVED_OK), str(root / "b.json")


class TestArgumentFuzz:
    """Arbitrary short strings for the value options, run in-process through main.

    Lengths stay small enough that every run ends in well under a second;
    larger `covers` queries run for 40 s or more.  `realize` stops at the
    first lambda that works, whatever the cap: {1: 0, 2: 0, 1,2: -10^-12}
    with `--lambda-cap 99999999999999` realizes at lambda = 2^41 in under 0.1 s."""

    @settings(deadline=None)
    @given(cap=fuzzed("0123456789/-", 16))
    def test_realize_lambda_cap(self, arg_files, cap):
        (tight, strict), _, out = arg_files
        assert assert_exit_contract(["realize", "--vector", tight, "--out", out, f"--lambda-cap={cap}"]) in (1, 2)
        assert_exit_contract(["realize", "--vector", strict, "--out", out, f"--lambda-cap={cap}"])

    @settings(deadline=None)
    @given(kmax=fuzzed("0123456789-+_ \u0663", 8))
    def test_imply_kmax(self, arg_files, kmax):
        _, ineq, _ = arg_files
        assert_exit_contract(["imply", "--inequality", ineq, f"--kmax={kmax}"])

    @settings(deadline=None)
    @given(n=fuzzed("0123456789-+_ \u0663", 2))
    def test_system_n(self, n):
        if assert_exit_contract(["system", f"--n={n}"]) in (0, 1):
            assert re.fullmatch(r"[+-]?[0-9]+", n), n

    @settings(deadline=None)
    @given(ground=st.one_of(fuzzed("0123456789,", 8), element_lists.filter(lambda t: len(t) <= 8)))
    def test_covers_ground(self, ground):
        assert_exit_contract(["covers", f"--ground={ground}", "--kmax", "1"])


#: every long option of every command, and prefixes argparse expands
FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
PREFIXES = ["--vec", "--k", "--lambda", "--emit", "--ir", "--h", "--he"]
#: option values any option takes, some of them as integers
PLAIN = ["x.json", "1,2", "4", "+3", "03"]
#: and empty, dashed, with `=` or integer spellings that parse_integer refuses
VALUES = PLAIN + ["", "-", "--", "-3", "-x", "a=b", "=", "\u0663", "0_3", " 3"]


@st.composite
def command_lines(draw):
    """A command, often with its own options, their values often plain, in
    either form (a line argparse is skipped for), and often a few tokens that
    may be anything put in anywhere after the command."""
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "-h", "--help", "--"]))
    options = cli.COMMANDS[command][2] if command in cli.COMMANDS else {}
    own = list(options)
    argv = [command]
    # all of them once, in any order, or a few, maybe repeated
    chosen = draw(st.one_of(st.permutations(own), st.lists(st.sampled_from(own), max_size=3))) if own else []
    for flag in chosen:
        value = draw(st.one_of(st.sampled_from(PLAIN), st.sampled_from(VALUES)))
        if options[flag].get("action") == "store_true":
            argv.append(flag if draw(st.booleans()) else f"{flag}={value}")
        else:
            argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    flags = st.sampled_from(own or FLAGS)
    values = st.one_of(st.sampled_from(VALUES), st.text(max_size=3))
    tokens = st.one_of(
        st.tuples(st.one_of(flags, st.sampled_from(FLAGS + PREFIXES)), values),
        st.builds(lambda flag, value: (f"{flag}={value}",), st.one_of(flags, st.sampled_from(PREFIXES)), values),
        st.tuples(st.one_of(flags, values, st.sampled_from([*cli.COMMANDS, "-h", "--help", "--", "-"]))),
    )
    extra = [token for group in draw(st.one_of(st.just([]), st.lists(tokens, max_size=3))) for token in group]
    at = draw(st.integers(1, len(argv)))
    return argv[:at] + extra + argv[at:]


def parsed(parse, argv):
    """vars() of the namespace, or the SystemExit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_parse_args_matches_argparse(argv):
    """cli.parse_args gives argparse's namespace, or its exit code and text,
    for any command line, whether or not it went through argparse; only
    argparse's reading of `--opt=--` as [] becomes a usage error."""
    got = parsed(cli.parse_args, argv)
    expected = parsed(lambda argv: build_parser().parse_args(argv), argv)
    if isinstance(expected[0], dict) and [] in expected[0].values():
        assert got[:2] == (2, "") and got[2].endswith(": expected one argument\n"), argv
    else:
        assert got == expected, argv


#: well-formed spellings that README's examples do not show
SPELLINGS = [
    ["imply", "--inequality=in.json", "--kmax", "+3", "--emit-body", "b.json"],
    ["covers", "--irreducible", "--ground=1,2,3"],
    ["realize", "--out", "b.json", "--vector", "v.json", "--lambda-cap", "1/2"],
    ["system", "--n=03"],
]


def test_readme_cli_examples_parse(monkeypatch):
    """Every `covercone ...` command in README's CLI block (a trailing
    backslash continues a line), and each of SPELLINGS, is read without
    argparse, as argparse reads it."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("covercone ")]
    examples = [shlex.split(line)[1:] for line in lines]
    assert {argv[0] for argv in examples} == {"covers", "member", "imply", "realize", "project", "system",
                                              "witness", "shearer"}
    parser = build_parser()
    expected = [vars(parser.parse_args(argv)) for argv in examples + SPELLINGS]
    monkeypatch.setattr(cli, "build_parser", None)
    assert [vars(cli.parse_args(argv)) for argv in examples + SPELLINGS] == expected
