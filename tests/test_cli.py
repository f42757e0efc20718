import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import covercone
from covercone.boxgeom import read_body, write_body, BoxUnionBody, Box
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
        for text, ground in (
            ('{"n":2,"entries":{"1,2":"1"}}', "{1,2}"),
            # tight on {1,2} before it is outside on {1,3}: outside wins
            ('{"n":3,"entries":{"1":"1","2":"1","3":"1","1,2":"2","1,3":"3"}}', "{1,3}"),
        ):
            vec = write(tmp_path, "bad.json", text)
            code, out, _ = run(capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"))
            assert code == 1
            data = json.loads(out)
            assert data["reason"] == "not-in-cone"
            assert data["detail"].endswith(f"on {ground}")
            assert not (tmp_path / "x.json").exists()

    def test_inconclusive_at_tiny_cap(self, capsys, tmp_path):
        vec = write(tmp_path, "ones.json", ONES2)
        code, out, _ = run(
            capsys, "realize", "--vector", vec, "--out", str(tmp_path / "x.json"),
            "--lambda-cap", "1",
        )
        assert code == 1
        assert json.loads(out)["reason"] == "inconclusive"

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


class TestProjectCommand:
    def test_positive_body(self, capsys, tmp_path):
        body = BoxUnionBody(2, (Box(((F(0), F(1)), (F(0), F(2)))),))
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
        body = BoxUnionBody(2, (Box(((F(0), F(5)), (F(0), F(0)))),))
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
        cube = BoxUnionBody(3, (Box(((F(0), F(1)),) * 3),))
        volumes, vector = self.project(capsys, tmp_path, cube)
        assert set(volumes.values()) == {"1"}
        assert vector == ProjectionVector.zero(3)

    def test_two_box_logs(self, capsys, tmp_path):
        two_box = BoxUnionBody(2, (Box(((F(0), F(1)), (F(0), F(1)))),
                                   Box(((F(0), F(2)), (F(0), F(1, 2))))))
        volumes, vector = self.project(capsys, tmp_path, two_box)
        assert volumes == {"1": "2", "2": "1", "1,2": "3/2"}
        assert vector == ProjectionVector(2, {0b01: log_fraction(F(2)), 0b10: F(0),
                                              0b11: log_fraction(F(3, 2))})

    def test_axis_scaling_shifts_logs(self, capsys, tmp_path):
        _, p = self.project(capsys, tmp_path, BoxUnionBody(2, (Box(((F(0), F(3)), (F(0), F(1)))),)))
        _, q = self.project(capsys, tmp_path, BoxUnionBody(2, (Box(((F(0), F(6)), (F(0), F(1)))),)))
        log2 = log_fraction(F(2))
        for mask in canonical_subset_order(2):
            expected = p[mask] + (log2 if mask & 0b01 else 0)
            assert abs(q[mask] - expected) < F(1, 10**25)

    def test_project_then_member_pipeline(self, capsys, tmp_path):
        body = BoxUnionBody(
            2, (Box(((F(0), F(1)), (F(0), F(1)))), Box(((F(2), F(4)), (F(2), F(3)))))
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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = write(tmp_path, "junk.json", "{not json")
        code, _, err = run(capsys, "member", "--vector", path)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [["witness", "--n", "6"], ["system", "--n", "6"],
                                      ["realize", "--vector", "v6.json", "--out", "b.json"]],
                             ids=["witness", "system", "realize"])
    def test_cone_dimension_six_refused(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        write(tmp_path, "v6.json", json.dumps({"n": 6, "entries": {"1,2,3,4,5,6": "1"}}))
        proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: cone systems are limited to 1 <= n <= 5\n"

    @pytest.mark.parametrize(
        "argv, text",
        [(["project", "--body", "in.json", "--out", "out.json"],
          '{"n": 1, "boxes": [{"intervals": [[0, 1]]}]}'),
         (["member", "--vector", "in.json"], "[" * 100000 + "]" * 100000),
         (["member", "--vector", "in.json"], '{"n": 2, "entires": {"1,2": "5"}}'),
         (["imply", "--inequality", "in.json"], '{"n": 2, "lhs": {"1,2": "1"}, "rsh": {"1": "1"}}')],
        ids=["numeric-endpoint", "deep-nesting", "misspelled-entries", "misspelled-rhs"],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, argv, text):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        write(tmp_path, "in.json", text)
        proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("argv, stdout_closed, code", [
        (["member", "--vector", "."], False, 2),
        (["realize", "--vector", "v.json", "--out", "nodir/b.json"], False, 3),
        (["system", "--n", "2"], True, 3),
    ], ids=["directory-input", "missing-output-dir", "closed-stdout"])
    def test_io_failure_is_one_error_line(self, tmp_path, argv, stdout_closed, code):
        env = dict(os.environ, PYTHONPATH=str(Path(covercone.__file__).parent.parent))
        env.pop("PYTHONUNBUFFERED", None)  # buffered output is still pending at exit
        write(tmp_path, "v.json", ONES2)
        read_end, write_end = os.pipe()
        if stdout_closed:  # closed before the child starts, so every write fails
            os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "covercone", *argv], cwd=tmp_path,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=30)
        finally:
            os.close(write_end)
        if not stdout_closed:
            with os.fdopen(read_end) as fh:
                assert fh.read() == ""
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

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


def test_readme_cli_examples_parse():
    """Every `covercone ...` command in README's CLI block (a trailing
    backslash continues a line) is accepted by the parser."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("covercone ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"covers", "member", "imply", "realize", "project", "system",
                        "witness", "shearer"}
