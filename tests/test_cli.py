"""CLI behavior: commands, formats, exit codes, determinism."""

import json

import pytest

from logchern.cli import (JobConfig, bundled_examples, load_arrangement,
                          main, render, run)
from logchern.errors import EngineError, InputError


def _job(command, input_path, **kw):
    return JobConfig(command, input_path, **kw)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bundled_examples_ship_the_required_inputs():
    names = {name for name, _ in bundled_examples()}
    assert {"nonfree_octic", "boolean_l2", "boolean_l3", "boolean_l4",
            "boolean_l5", "three_lines", "braid_triple", "generic_4_planes",
            "generic_5_hyperplanes"} <= names


def test_nonfree_octic_file_contents():
    arr = load_arrangement("example:nonfree_octic")
    assert arr.normals == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1), (1, 0, 0, -1), (0, 1, 0, -1),
                           (1, 1, 1, 0), (1, -1, 1, 0))


def test_verify_nonfree_octic_report():
    report, code = run(_job("verify", "example:nonfree_octic", fmt="json"))
    assert code == 0
    result = report["result"]
    assert result["N"] == 3
    assert result["lhs"] == [1, -4, 7, -2]
    assert result["csm"] == [1, -4, 7, -5]
    assert result["residual"] == [0, 0, 0, 0]
    assert report["schema"] == "logchern/report/v1"


def test_verify_free_examples_have_zero_n():
    for name in ("boolean_l2", "boolean_l3", "boolean_l4", "braid_triple",
                 "three_lines"):
        report, code = run(_job("verify", f"example:{name}"))
        assert code == 0, name
        assert report["result"]["N"] == 0, name
        assert report["result"]["residual"] == [0] * report["arrangement"]["l"]


def test_poincare_command_renders_both_polynomials():
    report, code = run(_job("poincare", "example:boolean_l3"))
    assert code == 0
    res = report["result"]
    assert res["pi_affine"]["coeffs"] == [1, 3, 3, 1]
    assert res["pi_projective"]["coeffs"] == [1, 2, 1]
    assert res["decone_check"]["factorization_holds"] is True


def test_nval_command_on_locally_free_not_free():
    report, code = run(_job("nval", "example:generic_4_planes"))
    assert code == 0
    res = report["result"]
    assert res["N"] == 0
    assert res["per_flat_sum"] == 0
    assert "locally free, not free" in res["note"]


def test_json_output_is_byte_identical_across_runs():
    config = _job("verify", "example:generic_4_planes", fmt="json")
    a, code_a = run(config)
    b, code_b = run(config)
    assert code_a == code_b == 0
    assert render(a, "json") == render(b, "json")
    assert "_elapsed" not in render(a, "json")


def test_duplicate_hyperplane_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "dup.json",
                  {"l": 2, "hyperplanes": [[1, 0], [2, 0]]})
    assert main(["lattice", path]) == 1
    out = capsys.readouterr().out
    assert "duplicate" in out


def test_malformed_file_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["poincare", str(path)]) == 1


def test_top_level_json_list_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "list.json",
                  [{"l": 2, "hyperplanes": [[1, 0], [0, 1]]}])
    assert main(["lattice", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "input"


def test_degree_cap_exceeded_is_a_budget_report(capsys):
    report, code = run(_job("nval", "example:nonfree_octic", degree_cap=1))
    assert code == 3
    assert report["error"]["type"] == "budget"
    assert "degree cap 1" in report["error"]["message"]
    assert report["result"] is None
    assert report["arrangement"]["l"] == 4
    assert main(["nval", "example:nonfree_octic", "--degree-cap", "1",
                 "--format", "json"]) == 3
    printed = json.loads(capsys.readouterr().out)
    assert printed["schema"] == "logchern/report/v1"
    assert printed["error"]["type"] == "budget"


def test_engine_cross_check_failure_is_an_engine_report(monkeypatch, capsys):
    from logchern import groebner

    def broken(*args, **kwargs):
        raise EngineError("cross-check failed")

    monkeypatch.setattr(groebner, "buchberger", broken)
    report, code = run(_job("verify", "example:boolean_l2"))
    assert code == 3
    assert report["error"] == {"type": "engine",
                               "message": "cross-check failed"}
    assert main(["verify", "example:boolean_l2"]) == 3
    assert "error (engine): cross-check failed" in capsys.readouterr().out


def test_missing_l5_assertion_exits_two(capsys):
    assert main(["verify", "example:boolean_l5"]) == 2
    out = capsys.readouterr().out
    assert "locally tame" in out or "assume" in out


def test_l5_with_assertion_passes():
    report, code = run(_job("verify", "example:boolean_l5",
                            assume_locally_tame=True))
    assert code == 0
    assert report["result"]["N"] == 0


def test_positive_dimensional_nonfree_locus_exits_two(tmp_path):
    # cylinder over the generic 4 planes: the non-free locus is a line
    path = _write(tmp_path, "cylinder.json", {
        "l": 5,
        "hyperplanes": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                        [1, 1, 1, 0, 0]]})
    report, code = run(_job("verify", path, assume_locally_tame=True))
    assert code == 2
    result = report["result"]
    assert result["applicable"] is False
    assert result["N"] is None
    assert result["residual"] is None
    # both sides are still reported
    assert result["lhs"] and result["csm"]


def test_flag_validation_against_command():
    with pytest.raises(InputError):
        _job("lattice", "example:boolean_l2", degree_cap=10)
    with pytest.raises(InputError):
        _job("verify", "example:boolean_l2", seed=5)
    with pytest.raises(InputError):
        _job("csm", "example:boolean_l2", chart=1)
    # and via the real argv path
    assert main(["verify", "example:boolean_l2", "--seed", "3"]) == 1


def test_unknown_example_exits_one():
    assert main(["verify", "example:not_a_thing"]) == 1


def test_examples_command_lists_names(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "nonfree_octic" in out


def test_resolution_command_dumps_twists():
    report, code = run(_job("resolution", "example:nonfree_octic",
                            fmt="json"))
    assert code == 0
    d0 = report["result"]["D0"]
    assert d0["terms"] == [{-3: 5}, {-4: 2}] or \
        d0["terms"] == [{"-3": 5}, {"-4": 2}]


def test_modules_command_reports_kinds():
    report, code = run(_job("modules", "example:boolean_l3"))
    assert code == 0
    mods = report["result"]["modules"]
    assert set(mods) == {"D0", "D", "Omega1", "Omega1_0"}
    assert mods["D"]["freeness"]["exponents"] == [1, 1, 1]


def test_chern_command_octic_values():
    report, code = run(_job("chern", "example:nonfree_octic"))
    assert code == 0
    res = report["result"]
    assert res["ct_omega1_dual"]["coeffs"] == [1, -4, 7, -2]
    assert res["ct_omega1_twisted"]["coeffs"] == [1, 7, 18, 20]
    assert res["defect_coefficient"] == 1


def test_csm_command_octic_values():
    report, code = run(_job("csm", "example:nonfree_octic"))
    assert code == 0
    res = report["result"]
    assert res["csm_complement"]["coeffs"] == [1, -4, 7, -5]
    assert res["csm_divisor"]["coeffs"] == [0, 8, -1, 9]
    assert res["csm_divisor"]["text"] == "8h - h^2 + 9h^3"


def test_lattice_command_counts():
    report, code = run(_job("lattice", "example:boolean_l2"))
    assert code == 0
    assert report["result"]["flat_counts_by_codim"] == [1, 2, 1]
    mus = [f["mu"] for level in report["result"]["levels"]
           for f in level["flats"]]
    assert mus == [1, -1, -1, 1]
