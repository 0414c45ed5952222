"""Saito's criterion on the generators a minimal resolution keeps."""

import json

import pytest

from logchern import (Arrangement, EngineError, defining_data,
                      derivation_module_d0, freeness_test, groebner_basis,
                      log_geometry, normal_form)
from logchern.cli import JobConfig, main, run
from logchern.modules import ResolutionData
from tests.conftest import OCTIC_NORMALS, boolean, braid
from tests.test_wedge_reference import GENERIC6_L4


def _signed_pairs(l):
    """Normals e_i + e_j and e_i - e_j, i < j: the Coxeter arrangement D_l."""
    return [[1 if k == i else s if k == j else 0 for k in range(l)]
            for i in range(l) for j in range(i + 1, l) for s in (1, -1)]


def _units(l):
    return [[int(k == i) for k in range(l)] for i in range(l)]


ARRANGEMENTS = {
    **{f"boolean{l}": (lambda l=l: boolean(l)) for l in range(2, 6)},
    "octic": lambda: Arrangement(4, OCTIC_NORMALS),
    "generic6_l4": lambda: Arrangement(4, GENERIC6_L4),
    "braid_a3": lambda: Arrangement(4, braid(4)),
    "braid_a4": lambda: Arrangement(5, braid(5)),
    # B_3 and D_4: D_0 exponents (3, 5) and (3, 3, 5)
    "b3": lambda: Arrangement(3, _units(3) + _signed_pairs(3)),
    "d4": lambda: Arrangement(4, _signed_pairs(4)),
    "line": lambda: Arrangement(1, [(1,)]),
}


def _d0(name):
    return derivation_module_d0(defining_data(ARRANGEMENTS[name]()))


@pytest.mark.parametrize("name",
                         ["octic", "generic6_l4", "braid_a4", "b3", "d4"])
def test_kept_generators_generate_d0_in_the_degrees_of_f0(name):
    d0 = _d0(name)
    res = d0.minimal_resolution()
    gens = d0.generators
    kept = [gens[i] for i in res.kept]
    assert len(res.kept) == res.terms[0].rank
    assert list(res.terms[0].twists) == [g.degree() for g in kept]
    gb = groebner_basis(kept)
    for i, g in enumerate(gens):
        if i not in res.kept:
            assert normal_form(g, gb).is_zero(), i


def test_kept_defaults_to_every_generator_without_minimalization():
    res = _d0("b3").presentation.minimal_resolution()
    raw = ResolutionData(res.terms, res.maps, res.divisors, minimal=False)
    assert raw.kept == list(range(res.terms[0].rank))


@pytest.mark.parametrize("name", ["boolean2", "boolean3", "boolean4",
                                  "boolean5", "braid_a3", "braid_a4", "b3",
                                  "d4", "line"])
def test_a_free_d0_takes_one_saito_determinant(name, monkeypatch):
    # the braid arrangements contain e_1 - e_2, which vanishes at
    # (1, t, ..., t^(l-1)) for t = 1: their check evaluates at t = 2
    calls = []
    real = log_geometry._saito_check

    def counted(dd, vectors):
        calls.append(len(vectors))
        return real(dd, vectors)

    monkeypatch.setattr(log_geometry, "_saito_check", counted)
    d0 = _d0(name)
    report = freeness_test(d0)
    assert report.is_free and report.saito_checked
    # chi and the l - 1 kept generators
    assert calls == [d0.defining.arity]


def _times_x(vector):
    """x times a term dict over S^3."""
    return {(i, (e[0] + 1,) + e[1:]): c for (i, e), c in vector.items()}


def test_the_saito_check_rejects_rows_that_are_not_a_basis():
    dd = defining_data(boolean(3))
    d0 = derivation_module_d0(dd)
    chi = log_geometry._euler_vector(3)
    rows = [chi] + [d0.vectors[i] for i in d0.minimal_resolution().kept]
    assert log_geometry._saito_check(dd, rows)
    # determinant 0, then x times c*f
    assert not log_geometry._saito_check(dd, [chi, chi, rows[2]])
    assert not log_geometry._saito_check(dd, rows[:2] + [_times_x(rows[2])])


def test_a_failed_saito_determinant_is_an_engine_error(monkeypatch, capsys):
    monkeypatch.setattr(log_geometry, "_saito_check", lambda dd, rows: False)
    d0 = derivation_module_d0(defining_data(boolean(3)))
    with pytest.raises(EngineError, match="Saito determinant"):
        freeness_test(d0)
    report, code = run(JobConfig("modules", "example:boolean_l3"))
    assert code == 3
    assert report["error"] == {
        "type": "engine",
        "message": "free D_0 failed the Saito determinant check"}
    assert report["result"] is None
    assert main(["modules", "example:boolean_l3", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"] == "engine"
    assert "Traceback" not in out + err


def test_verify_certifies_a_free_d0_by_the_saito_determinant(monkeypatch):
    # a free Omega^1_0 makes verify run freeness_test on D_0, whose
    # exponents Terao's check reads
    monkeypatch.setattr(log_geometry, "_saito_check", lambda dd, rows: False)
    report, code = run(JobConfig("verify", "example:boolean_l4",
                                 fmt="json"))
    assert code == 3
    assert report["error"] == {
        "type": "engine",
        "message": "free D_0 failed the Saito determinant check"}
