"""Pinned engine work: the ``engine`` counters of whole CLI jobs and the
calls that reach the one reducer, ``groebner.reduce_full``.

The counters depend on the pair order, the Gebauer-Moeller criteria and
the reduction strategy, so a change of representation inside the engine
must leave them exactly as they are.  The benchmark's reference check
skips ``engine``; these tests do not.
"""

import json

import pytest

from logchern import (Arrangement, EngineStats, arrangements, chern_csm, cli,
                      groebner, log_geometry, log_modules, modules, rings,
                      stats_scope)
from logchern.cli import JobConfig, run

LOGCHERN_MODULES = (arrangements, chern_csm, cli, groebner, log_geometry,
                    modules, rings)

# fixed inputs of the benchmark workloads (perfbench/inputs.py)
GENERIC6_L4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
               [1, 1, 1, 1], [1, 2, 3, 5]]
LINES_FIXED = [[1, -2, 6], [9, -9, -5], [3, 9, 0], [8, 4, -3], [6, -7, -9],
               [-4, 3, -2]]

# (s_pairs, zero_reductions, basis_elements, max_degree)
PINNED = [
    ("verify", "octic", (56, 29, 65, 6)),
    ("nval", "octic", (78, 35, 134, 6)),
    ("verify", "generic6_l4", (89, 51, 75, 4)),
    ("nval", "generic6_l4", (86, 48, 65, 4)),
    ("verify", "lines_fixed", (56, 25, 59, 5)),
    ("chern", "octic", (54, 27, 61, 6)),
    ("chern", "generic6_l4", (69, 37, 64, 4)),
]


def _input(tmp_path, name):
    if name == "octic":
        return "example:nonfree_octic"
    rows = {"generic6_l4": GENERIC6_L4, "lines_fixed": LINES_FIXED}[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"l": len(rows[0]), "hyperplanes": rows}))
    return str(path)


@pytest.mark.parametrize("command,name,counters", PINNED)
def test_engine_counters_are_pinned(tmp_path, command, name, counters):
    report, code = run(JobConfig(command, _input(tmp_path, name),
                                 fmt="json"))
    assert code == 0
    engine = report["engine"]
    assert (engine["s_pairs"], engine["zero_reductions"],
            engine["basis_elements"], engine["max_degree"]) == counters


def test_ext1_of_d0_counters_are_pinned():
    # the one pinned Ext^1 on a resolution of length 2, where the syzygies
    # of [kernel | phi_1^T] track only the kernel columns
    _, d0, _, _, _ = log_modules(Arrangement(4, GENERIC6_L4))
    stats = EngineStats()
    with stats_scope(stats):
        modules.ext1_against_ring(d0.presentation)
    assert (stats.s_pairs, stats.zero_reductions, stats.basis_elements,
            stats.max_degree) == (108, 53, 113, 5)


@pytest.mark.parametrize("command,calls", [("verify", 130), ("nval", 227),
                                           ("modules", 156), ("chern", 120)])
def test_every_reduction_goes_through_reduce_full(monkeypatch, command,
                                                  calls):
    real = groebner.reduce_full
    seen = []

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(groebner, "reduce_full", counted)
    _report, code = run(JobConfig(command, "example:nonfree_octic",
                                  fmt="json"))
    assert code == 0
    assert len(seen) == calls
    # the reducer hands back coefficients the benchmark can size
    assert any(reduced for reduced, _scale in seen)
    assert all(isinstance(scale, int) for _reduced, scale in seen)


@pytest.mark.parametrize("command,converts", [("verify", False),
                                              ("nval", False),
                                              ("resolution", True)])
def test_resolution_maps_stay_integer_term_dicts(monkeypatch, command,
                                                 converts):
    # D_0, resolutions, their minimalization and Ext^1 never convert to
    # FreeModuleElement and back; `resolution` renders its maps once.
    # Every logchern module that binds a conversion is patched, so a
    # from-import cannot hide a call.
    calls = []
    for name in ("from_engine", "to_engine_scaled"):
        real = getattr(modules, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        for mod in LOGCHERN_MODULES:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    _report, code = run(JobConfig(command, "example:nonfree_octic",
                                  fmt="json"))
    assert code == 0
    assert bool(calls) == converts


def _resolutions(monkeypatch, command, spec):
    """The presentations a CLI job hands to ``free_resolution``."""
    real = modules.free_resolution
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    for mod in LOGCHERN_MODULES:
        if getattr(mod, "free_resolution", None) is real:
            monkeypatch.setattr(mod, "free_resolution", counted)
    _report, code = run(JobConfig(command, spec, fmt="json"))
    assert code == 0
    return calls


def test_nonfree_locus_resolves_no_ext1(monkeypatch):
    # verify resolves Omega^1_0 only; Ext^1's dimension and Hilbert
    # polynomial and the Chern class of D_0 come from leading terms, not a
    # resolution
    assert len(_resolutions(monkeypatch, "verify",
                            "example:nonfree_octic")) == 1


@pytest.mark.parametrize("command,spec,resolutions", [
    ("verify", "example:boolean_l4", 2), ("chern", "example:nonfree_octic", 0),
    ("chern", "example:boolean_l4", 0)])
def test_chern_classes_come_from_hilbert_series(monkeypatch, command, spec,
                                                resolutions):
    # a free Omega^1_0 makes verify resolve D_0 too, for Terao's check on
    # its exponents; chern reads both of its classes off Hilbert series
    assert len(_resolutions(monkeypatch, command, spec)) == resolutions
