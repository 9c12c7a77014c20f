"""Command-line interface: outputs, round trips, exit codes."""

import csv
import io
import json

import pytest

from sandnara.cli import main
from sandnara.qt import narayana_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestStabilize:
    def test_worked_example(self, capsys):
        data = run_json(
            capsys, "stabilize", "--m", "3", "--n", "4", "--heights", "2,0,3,2,1,3"
        )
        assert data["heights"] == [1, 3, 1, 0, 2, 1]

    def test_identity_on_stable(self, capsys):
        data = run_json(
            capsys, "stabilize", "--m", "2", "--n", "2", "--heights", "1,1,0"
        )
        assert data["heights"] == [1, 1, 0]
        assert data["topple_counts"] == [0, 0, 0]

    def test_malformed_heights_exit_2(self, capsys):
        code, _, err = run(
            capsys, "stabilize", "--m", "3", "--n", "4", "--heights", "1,2"
        )
        assert code == 2
        assert "error" in err

    def test_newline_terminated_json(self, capsys):
        code, out, _ = run(
            capsys, "stabilize", "--m", "2", "--n", "2", "--heights", "0,0,0"
        )
        assert code == 0 and out.endswith("\n")
        json.loads(out)


class TestCheck:
    def test_recurrent_with_trace(self, capsys):
        data = run_json(
            capsys,
            "check", "recurrent",
            "--m", "3", "--n", "4",
            "--heights", "0,2,1,2,1,2",
            "--verbose",
        )
        assert data["result"] is True
        assert data["trace"]["waves"] == [
            {"side": "bottom", "vertices": [4, 6]},
            {"side": "top", "vertices": [2]},
            {"side": "bottom", "vertices": [3, 5]},
            {"side": "top", "vertices": [1]},
        ]

    def test_all_zero_not_recurrent(self, capsys):
        data = run_json(
            capsys, "check", "recurrent", "--m", "2", "--n", "2", "--heights", "0,0,0"
        )
        assert data["result"] is False

    def test_minanz_square_example(self, capsys):
        data = run_json(
            capsys, "check", "minanz", "--n", "5", "--heights", "4,3,4,1,0,2,1,4,1"
        )
        assert data["result"] is True

    def test_top_heavy(self, capsys):
        data = run_json(
            capsys,
            "check", "top-heavy",
            "--n", "8",
            "--heights", "4,7,7,1,4,1,7,0,2,4,7,2,4,2,4",
        )
        assert data["result"] is True

    @pytest.mark.parametrize(
        "argv, code, want, traced",
        [
            # a recurrent non-square state reaches the square-only predicate
            pytest.param(
                ("top-heavy", "--m", "2", "--n", "3", "--heights", "1,0,1,1"),
                2, "NotMinanz", False, id="top-heavy-recurrent-not-square",
            ),
            # a non-recurrent one is answered before the predicate runs
            pytest.param(
                ("top-heavy", "--m", "2", "--n", "3", "--heights", "0,0,0,0"),
                0, False, False, id="top-heavy-not-recurrent-not-square",
            ),
            pytest.param(
                ("minanz", "--m", "3", "--n", "4", "--heights", "0,2,1,2,1,2"),
                0, False, False, id="minanz-recurrent-not-minanz",
            ),
            pytest.param(
                ("recurrent", "--m", "2", "--n", "2", "--heights", "5,0,0", "--verbose"),
                0, False, False, id="verbose-unstable-no-trace",
            ),
            pytest.param(
                ("recurrent", "--m", "3", "--n", "3", "--heights", "0,2,0,1,2", "--verbose"),
                0, False, True, id="verbose-stable-not-recurrent-trace",
            ),
        ],
    )
    def test_edge_cases(self, capsys, argv, code, want, traced):
        got, out, err = run(capsys, "check", *argv)
        assert got == code, err
        if code:
            assert out == "" and json.loads(err)["error"] == want
            return
        data = json.loads(out)
        assert data["result"] is want
        assert ("trace" in data) == traced
        if traced:
            assert data["trace"]["waves"] == [
                {"side": "bottom", "vertices": [5]},
                {"side": "top", "vertices": [2]},
                {"side": "bottom", "vertices": [4]},
            ]


class TestMap:
    def test_to_matrix_worked_example(self, capsys):
        data = run_json(
            capsys,
            "map", "to-matrix",
            "--n", "8",
            "--heights", "4,5,6,1,4,5,4,0,7,1,1,4,6,1,7",
        )
        assert data == {
            "k": 4,
            "rows": [
                [[], [], [], [3]],
                [[], [], [], [2, 6]],
                [[1, 7], [5], [], []],
                [[], [], [4], []],
            ],
        }

    def test_to_matrix_round_trip(self, capsys):
        fwd = run_json(
            capsys, "map", "to-matrix", "--n", "5", "--heights", "4,3,4,1,0,2,1,4,1"
        )
        back = run_json(
            capsys, "map", "to-matrix", "--inverse", "--input", json.dumps(fwd)
        )
        assert back["heights"] == [4, 3, 4, 1, 0, 2, 1, 4, 1]

    def test_to_poset_inverse_worked_example(self, capsys):
        poset = {
            "n": 7,
            "downsets": [[], [3], [2, 3, 5, 7]],
            "levels": [[2, 3, 7], [1, 5], [4, 6]],
        }
        data = run_json(
            capsys, "map", "to-poset", "--inverse", "--input", json.dumps(poset)
        )
        assert data["heights"] == [4, 7, 7, 1, 4, 1, 7, 0, 2, 4, 7, 2, 4, 2, 4]

    def test_to_poset_round_trip(self, capsys):
        fwd = run_json(
            capsys,
            "map", "to-poset",
            "--n", "8",
            "--heights", "4,7,7,1,4,1,7,0,2,4,7,2,4,2,4",
        )
        back = run_json(
            capsys, "map", "to-poset", "--inverse", "--input", json.dumps(fwd)
        )
        assert back["heights"] == [4, 7, 7, 1, 4, 1, 7, 0, 2, 4, 7, 2, 4, 2, 4]

    def test_to_polyomino_and_back(self, capsys):
        fwd = run_json(
            capsys,
            "map", "to-polyomino",
            "--m", "3", "--n", "4",
            "--heights", "0,2,1,2,1,2",
        )
        assert fwd["is_polyomino"] is True
        back = run_json(
            capsys, "map", "to-polyomino", "--inverse", "--input", json.dumps(
                {k: fwd[k] for k in ("m", "n", "upper", "lower")}
            )
        )
        assert back["heights"] == [0, 2, 1, 1, 2, 2]  # increasing representative

    def test_upsilon_inverse_gives_min_weight_shape(self, capsys):
        ribbon = {"m": 2, "n": 2, "upper": "NENE", "lower": "EENN"}
        data = run_json(
            capsys, "map", "upsilon", "--inverse", "--input", json.dumps(ribbon)
        )
        poly_in = run_json(
            capsys, "map", "upsilon", "--input", json.dumps(data)
        )
        assert poly_in == ribbon

    def test_to_dyck_and_back(self, capsys):
        fwd = run_json(
            capsys, "map", "to-dyck", "--n", "7", "--heights", "5,5,3,2,2,1"
        )
        assert fwd == {"n": 6, "word": "SSWWSWSSWSWW"}
        back = run_json(
            capsys, "map", "to-dyck", "--inverse", "--input", json.dumps(fwd)
        )
        assert back["heights"] == [5, 5, 3, 2, 2, 1]

    def test_bad_json_exit_2(self, capsys):
        code, _, err = run(capsys, "map", "upsilon", "--input", "{not json")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "to-polyomino", "--inverse"],
            ["map", "to-matrix", "--inverse", "--input", "[1,2]"],
            ["map", "to-polyomino", "--m", "3", "--n", "4"],
            ["map", "to-dyck", "--heights", "1,0"],
            ["map", "to-matrix", "--inverse", "--input", '{"k": 1, "rows": 5}'],
            ["map", "to-poset", "--inverse",
             "--input", '{"n": 1, "downsets": [1], "levels": [[1]]}'],
            ["map", "to-polyomino", "--inverse",
             "--input", '{"m": "1", "n": 1, "upper": "NE", "lower": "EN"}'],
            ["map", "to-dyck", "--inverse", "--input", '{"n": 1, "word": ["S", "W"]}'],
        ],
        ids=[
            "inverse-without-input",
            "input-not-object",
            "no-heights",
            "no-n",
            "matrix-rows-not-lists",
            "poset-downset-not-list",
            "polyomino-m-not-int",
            "dyck-word-not-str",
        ],
    )
    def test_malformed_map_input_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("what", ["to-matrix", "to-poset"])
    def test_matrix_maps_refuse_n_1_exit_2(self, capsys, what):
        code, out, err = run(capsys, "map", what, "--n", "1", "--heights", "0")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "NotMinanz"
        assert "needs n >= 2" in error["detail"]


class TestPoly:
    def test_matrix_format(self, capsys):
        data = run_json(
            capsys, "poly", "--m", "2", "--n", "2", "--format", "matrix"
        )
        assert data == {"shift": [3, 3], "matrix": [[1, 1], [1, 0]]}

    def test_sparse_default(self, capsys):
        data = run_json(capsys, "poly", "--m", "1", "--n", "1")
        assert data == {"terms": [{"q": 1, "t": 1, "c": "1"}]}

    def test_series_matches_enumeration(self, capsys):
        data = run_json(capsys, "poly", "--series", "F3", "--order", "6")
        for n in range(1, 7):
            got = data["coefficients"][n]
            want = narayana_poly(3, n).to_sparse_json()
            assert got == want

    def test_transfer_method(self, capsys):
        data = run_json(
            capsys, "poly", "--m", "3", "--n", "5", "--method", "transfer"
        )
        assert data == narayana_poly(3, 5).to_sparse_json()

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--m", "2", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,t,c"
        assert len(lines) == 4

    @pytest.mark.parametrize("size", ["0", "-2", "x"])
    @pytest.mark.parametrize("method", ["enum", "transfer"])
    def test_box_size_exit_2(self, capsys, method, size):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--m", "3", "--n", size, "--method", method])
        assert exc.value.code == 2
        assert "argument --n: must be an integer >= 1" in capsys.readouterr().err

    def test_negative_order_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--series", "F3", "--order", "-1"])
        assert exc.value.code == 2
        assert "argument --order: must be an integer >= 0" in capsys.readouterr().err

    def test_series_default_order(self, capsys):
        data = run_json(capsys, "poly", "--series", "F2")
        assert data["order"] == 8 and len(data["coefficients"]) == 9

    @pytest.mark.parametrize(
        "extra,named",
        [
            (["--format", "csv"], "--format csv"),
            (["--m", "3"], "--m"),
            (["--n", "3"], "--n"),
            (["--method", "transfer"], "--method transfer"),
            (["--max-objects", "10"], "--max-objects"),
        ],
    )
    def test_series_rejects_ignored_option_exit_2(self, capsys, extra, named):
        code, out, err = run(capsys, "poly", "--series", "F2", *extra)
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["detail"] == f"poly --series does not take {named}"

    def test_order_without_series_exit_2(self, capsys):
        code, out, err = run(capsys, "poly", "--m", "2", "--n", "2", "--order", "3")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "detail": "poly --order needs --series"}

    @pytest.mark.parametrize("m,n", [("6", "300"), ("100", "10")])
    def test_transfer_cost_limit_exit_3(self, capsys, monkeypatch, m, n):
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        code, out, err = run(capsys, "poly", "--m", m, "--n", n, "--method", "transfer")
        assert code == 3
        assert out == ""
        assert "cells exceeds cap" in json.loads(err)["detail"]

    def test_transfer_symmetry_scan_stops_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        code, out, err = run(capsys, "verify", "symmetry", "--max-sum", "2", "--transfer-m", "30")
        assert code == 3
        assert out == ""
        # the widest box is refused first, before any width is computed
        assert "transfer matrix F_{30,12}" in json.loads(err)["detail"]

    def test_resource_limit_exit_3(self, capsys):
        code, _, err = run(
            capsys, "poly", "--m", "8", "--n", "40", "--max-objects", "10"
        )
        assert code == 3
        assert "resource-limit" in err


class TestVerify:
    def test_counts(self, capsys):
        data = run_json(capsys, "verify", "counts", "--max", "6")
        assert data["passed"] is True
        assert data["failures"] == 0

    def test_symmetry(self, capsys):
        data = run_json(
            capsys, "verify", "symmetry", "--max-sum", "7", "--transfer-m", "3"
        )
        assert data["passed"] is True

    def test_olson(self, capsys):
        data = run_json(capsys, "verify", "olson", "--max", "5")
        assert data["passed"] is True

    def test_conjecture_reported_not_asserted(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture-a145600", "--max", "4")
        assert code == 0  # mismatches are reported, never asserted
        data = json.loads(out)
        flags = {c["name"]: c["holds"] for c in data["checks"]}
        assert flags["conjecture-a145600 n=2"] is True
        assert flags["conjecture-a145600 n=3"] is False

    def test_csv_carries_conjecture_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "conjecture-a145600", "--max", "4", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        n3 = next(r for r in rows if r["name"] == "conjecture-a145600 n=3")
        assert (n3["holds"], n3["conjecture"]) == ("False", "True")
        code, out, _ = run(capsys, "verify", "counts", "--max", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["conjecture"] == "False" for r in rows)

    def test_counts_brute(self, capsys):
        data = run_json(capsys, "verify", "counts", "--max", "5", "--brute")
        assert data["passed"] is True
        burning = {
            c["name"]: c["holds"]
            for c in data["checks"]
            if c["name"].startswith("recurrent count (burning filter)")
        }
        assert burning == {
            f"recurrent count (burning filter) {box}": True
            for box in ("2,2", "2,3", "3,2")
        }

    def test_kn_area(self, capsys):
        data = run_json(capsys, "verify", "kn-area", "--max", "5")
        assert data["passed"] is True

    def test_kn_area_past_fixture(self, capsys):
        # the fixture stops at n = 8; n = 9 is checked against the closed form
        data = run_json(capsys, "verify", "kn-area", "--max", "9")
        assert data["passed"] is True
        last = data["checks"][-1]
        assert last["name"] == "kn-area n=9" and last["holds"] is True
        assert last["detail"] == "derived c(9)=-12, fixture has no entry, closed form -12"

    def test_abelian_seeded(self, capsys):
        data = run_json(
            capsys,
            "verify", "abelian",
            "--m", "3", "--n", "3", "--samples", "10", "--seed", "5",
        )
        assert data["passed"] is True

    @pytest.mark.parametrize(
        "flag,value,low",
        [
            ("--max", "-1", 0),
            ("--max-sum", "-1", 0),
            ("--transfer-m", "-1", 0),
            ("--transfer-n", "-1", 1),
            ("--transfer-n", "0", 1),
            ("--samples", "-3", 1),
            ("--samples", "0", 1),
            ("--samples", "x", 1),
        ],
    )
    def test_bad_count_exit_2(self, capsys, flag, value, low):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "abelian", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer >= {low}" in capsys.readouterr().err

    def test_env_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDPILE_MAX_OBJECTS", "2")
        code, _, err = run(capsys, "poly", "--m", "3", "--n", "3")
        assert code == 3
        assert "resource-limit" in err

    def test_bad_env_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDPILE_MAX_OBJECTS", "abc")
        code, _, err = run(capsys, "poly", "--m", "3", "--n", "3")
        assert code == 2
        assert "SANDPILE_MAX_OBJECTS" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "argv,complaint",
    [
        (
            ["stabilize", "--m", "3", "--n", "4", "--heights", "2,0,3,2,1,3",
             "--max-objects", "5"],
            "unrecognized arguments: --max-objects 5",
        ),
        (["verify", "counts", "--format", "matrix"], "invalid choice: 'matrix'"),
    ],
    ids=["stabilize-max-objects", "verify-format-matrix"],
)
def test_option_the_command_ignores_exit_2(capsys, argv, complaint):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert complaint in capsys.readouterr().err
