"""CLI behavior: commands, formats, exit codes, determinism."""

import errno
import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from logchern import Arrangement, PoincarePoly, chern_csm, cli, log_geometry
from logchern.cli import (JobConfig, bundled_examples, load_arrangement,
                          main, render, run)
from logchern.errors import EngineError, InputError
from logchern.modules import DEGREE_CAP
from tests.conftest import CORPUS, braid


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


def test_poincare_reports_a_failed_deconing_check(monkeypatch):
    # a decone that loses a hyperplane breaks (1 + t) pi(dA) = pi(A); the
    # check reports it and the job still succeeds
    real = cli.decone

    def lossy(arr, h_index):
        d = real(arr, h_index)
        return Arrangement(d.dim, d.normals[1:], constants=d.constants[1:])
    monkeypatch.setattr(cli, "decone", lossy)
    report, code = run(_job("poincare", "example:boolean_l3", fmt="json"))
    assert code == 0
    assert report["result"]["decone_check"]["factorization_holds"] is False


def test_text_reports_render_successful_results():
    # nested results, polynomial entries and scalars in text mode
    lines = []
    for command in ("verify", "poincare"):
        report, code = run(_job(command, "example:nonfree_octic"))
        assert code == 0
        lines += render(report, "text").splitlines()
    assert "  N: 3" in lines
    assert "    lhs: 1 - 4h + 7h^2 - 2h^3" in lines
    assert "    factorization_holds: True" in lines


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


def test_json_string_document_is_not_read_as_a_path(tmp_path, capsys):
    # a file holding a JSON string must not send the parser to that path
    target = _write(tmp_path, "real.json", {"l": 2, "hyperplanes": [[1, 0]]})
    for payload in (target, "\u0000"):
        path = _write(tmp_path, "string.json", payload)
        assert main(["lattice", path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["type"] == "input"
        assert "JSON object" in report["error"]["message"]


def test_unreadable_bytes_exit_one(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["lattice", str(path)]) == 1
    assert main(["lattice", "bad\0name.json"]) == 1


def test_top_level_json_list_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "list.json",
                  [{"l": 2, "hyperplanes": [[1, 0], [0, 1]]}])
    assert main(["lattice", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "input"


def test_nval_on_a_line_asks_for_l_at_least_two(tmp_path, capsys):
    # per-flat N counts points of P^(l-1); l = 1 used to fail while
    # building a 0-dimensional chart
    path = _write(tmp_path, "point.json", {"l": 1, "hyperplanes": [[1]]})
    assert main(["nval", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "input"
    assert "l >= 2" in report["error"]["message"]


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


def test_exponent_overflow_is_an_engine_report(monkeypatch):
    from logchern import groebner
    real = groebner.buchberger

    def past_the_limit(gens, order, **kwargs):
        return real([{(0, (2 ** 15,) * order.arity): 1}], order)

    monkeypatch.setattr(groebner, "buchberger", past_the_limit)
    report, code = run(_job("verify", "example:boolean_l2", fmt="json"))
    assert code == 3
    assert report["error"]["type"] == "engine"
    assert "exponent limit 32767" in report["error"]["message"]


def test_terao_factorization_failure_is_an_engine_report(monkeypatch):
    real = chern_csm.poincare_projective

    def off_by_one(arr, lattice=None):
        pi = real(arr, lattice)
        return PoincarePoly(pi.coeffs[:-1] + (pi.coeffs[-1] + 1,))

    monkeypatch.setattr(chern_csm, "poincare_projective", off_by_one)
    report, code = run(_job("verify", "example:boolean_l3", fmt="json"))
    assert code == 3
    assert report["error"]["type"] == "engine"
    assert "Terao" in report["error"]["message"]
    assert report["result"] is None


def test_verify_braid_a4(tmp_path):
    # all z_i - z_j in C^5: free with D_0 exponents (0, 2, 3, 4)
    path = _write(tmp_path, "braid_a4.json", {"l": 5, "hyperplanes": braid(5)})
    report, code = run(_job("verify", path, fmt="json",
                            assume_locally_tame=True))
    assert code == 0
    res = report["result"]
    assert res["N"] == 0
    assert res["residual"] == [0, 0, 0, 0, 0]
    assert res["lhs"] == res["csm"] == [1, -5, 5, 5, -6]
    assert res["pi_projective"] == [1, 9, 26, 24]  # (1+2t)(1+3t)(1+4t)
    assert res["freeness"]["kind"] == "Omega1_0"
    assert res["freeness"]["is_free"] is True
    # Omega^1_0 = D_0^*(-1) has the exponents 1 - d_i
    assert sorted(1 - e for e in res["freeness"]["exponents"]) == [0, 2, 3, 4]


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


def test_negative_degree_cap_is_an_input_error(capsys):
    with pytest.raises(InputError):
        _job("nval", "example:nonfree_octic", degree_cap=-1)
    assert main(["nval", "example:nonfree_octic", "--degree-cap", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_degree_cap_is_an_nval_flag():
    for command in ("modules", "resolution", "chern", "verify"):
        with pytest.raises(InputError):
            _job(command, "example:boolean_l2", degree_cap=10)
        flags = _job(command, "example:boolean_l2").flags_dict()
        assert flags["degree_cap"] == DEGREE_CAP
    flags = _job("nval", "example:boolean_l2", degree_cap=10).flags_dict()
    assert flags["degree_cap"] == 10
    assert main(["verify", "example:boolean_l2", "--degree-cap", "5"]) == 1


def test_unknown_example_exits_one():
    assert main(["verify", "example:not_a_thing"]) == 1


def test_examples_command_lists_names(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "nonfree_octic" in out


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def __init__(self, fd):
        self.fd, self.writes = fd, 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,code", [
    (["lattice", "example:boolean_l3"], 0),
    (["verify", "example:boolean_l5"], 2),
    (["examples"], 0),
    (["examples", "--format", "json"], 0)])
def test_closed_stdout_gives_exit_code_and_no_traceback(argv, code, tmp_path,
                                                        capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        pipe = _ClosedPipe(fd)
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(argv) == code
        assert pipe.writes
        # the interpreter's flush at exit writes to devnull
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_resolution_command_dumps_twists():
    report, code = run(_job("resolution", "example:nonfree_octic",
                            fmt="json"))
    assert code == 0
    d0 = report["result"]["D0"]
    assert d0["terms"] == [{-3: 5}, {-4: 2}] or \
        d0["terms"] == [{"-3": 5}, {"-4": 2}]


GOLDEN = Path(__file__).parent / "data" / "resolution_golden.json"


@pytest.mark.parametrize("name", [name for name, _ in bundled_examples()])
def test_resolution_maps_match_the_golden_file(name):
    # the minimal maps of D_0, Omega^1 and Omega^1_0 as `resolution`
    # prints them; CI compares the installed script with the same file
    report, code = run(_job("resolution", f"example:{name}", fmt="json"))
    assert code == 0
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(render(report, "json"))["result"] == golden[name]


NVAL_GOLDEN = Path(__file__).parent / "data" / "nval_golden.json"


@pytest.mark.parametrize("name,spec", CORPUS, ids=[n for n, _ in CORPUS])
def test_nval_reports_match_the_golden_file(name, spec):
    # N, the per-point values and the freeness of Omega^1_0; CI compares
    # the installed script (bundled examples) and the frontier inputs with
    # the same file
    report, code = run(_job("nval", spec, fmt="json"))
    assert code == 0
    golden = json.loads(NVAL_GOLDEN.read_text())[name]
    assert json.loads(render(report, "json"))["result"] == golden


CHERN_GOLDEN = Path(__file__).parent / "data" / "chern_golden.json"


@pytest.mark.parametrize("name,spec", CORPUS, ids=[n for n, _ in CORPUS])
def test_chern_and_verify_reports_match_the_golden_file(name, spec):
    # the chern and verify --assume-locally-tame results, which read Chern
    # classes off Hilbert series; CI compares the installed script (bundled
    # examples) and the frontier inputs with the same file
    golden = json.loads(CHERN_GOLDEN.read_text())[name]
    for command in ("chern", "verify"):
        report, code = run(_job(command, spec, fmt="json",
                                assume_locally_tame=True))
        assert code == 0
        assert json.loads(render(report, "json"))["result"] == \
            golden[command], command


LATTICE_GOLDEN = Path(__file__).parent / "data" / "lattice_golden.json"


@pytest.mark.parametrize("name,spec", CORPUS, ids=[n for n, _ in CORPUS])
def test_lattice_reports_match_the_golden_file(name, spec):
    # the lattice, poincare and csm results; CI compares the installed
    # script (bundled examples) and the frontier inputs with the same file
    golden = json.loads(LATTICE_GOLDEN.read_text())[name]
    for command in ("lattice", "poincare", "csm"):
        report, code = run(_job(command, spec, fmt="json"))
        assert code == 0
        assert json.loads(render(report, "json"))["result"] == \
            golden[command], command


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


@pytest.mark.parametrize("command",
                         ["verify", "nval", "modules", "chern", "resolution"])
def test_each_job_builds_every_log_module_once(command, monkeypatch):
    calls = Counter()
    local_duals = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("derivation_module_d0", "log_derivations",
                 "relative_log_forms", "log_forms"):
        monkeypatch.setattr(log_geometry, name,
                            counted(name, getattr(log_geometry, name)))
    real_dual = log_geometry.module_dual

    # a dual of the D of a point's A'_q would have l - 1 = 3 variables
    def counted_dual(pres):
        if pres.arity == 4:
            calls["module_dual"] += 1
        else:
            local_duals[pres.arity] += 1
        return real_dual(pres)
    monkeypatch.setattr(log_geometry, "module_dual", counted_dual)
    report, code = run(_job(command, "example:nonfree_octic"))
    assert code == 0
    assert calls == {"derivation_module_d0": 1, "log_derivations": 1,
                     "relative_log_forms": 1, "log_forms": 1,
                     "module_dual": 1}
    # the per-point check reads each N off D(A'_q)'s own resolution
    assert local_duals == {}


def test_degree_cap_boundary_is_the_rich_points_staircase():
    # the octic's rich point has Ext^1 staircase {1, y}: a standard
    # monomial of degree 1, so cap 1 stops the count and cap 2 does not
    report, code = run(_job("nval", "example:nonfree_octic", degree_cap=1))
    assert (code, report["error"]["type"]) == (3, "budget")
    assert report["error"]["message"] == (
        "degree cap 1 exceeded while counting standard monomials")
    report, code = run(_job("nval", "example:nonfree_octic", degree_cap=2))
    assert code == 0
    assert report["result"]["N"] == 3
