"""Lattice combinatorics against brute-force subset-intersection oracles."""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logchern import (Arrangement, InputError, build_lattice, decone,
                      essentialize, localize, mobius, parse_arrangement,
                      poincare_affine, poincare_projective)
from logchern import arrangements
from logchern.arrangements import Flat, extend, in_row_span, rref
from logchern.rings import vec_primitive
from perfbench import inputs
from tests import lattice_reference as ref
from tests.conftest import OCTIC_NORMALS, boolean, braid


# ----- brute-force oracle -----

def brute_force_flats(arr):
    """All flats as (codim, closed index set) pairs, by 2^n enumeration."""
    if arr.is_central:
        rows = [tuple(v) for v in arr.normals]
    else:
        rows = [tuple(arr.normals[i]) + (arr.constants[i],)
                for i in range(arr.n)]
    flats = set()
    for r in range(arr.n + 1):
        for subset in combinations(range(arr.n), r):
            eqs = ref.rref([rows[i] for i in subset])
            if not arr.is_central:
                if any(all(x == 0 for x in row[:-1]) and row[-1] != 0
                       for row in eqs):
                    continue  # empty intersection
            closed = frozenset(i for i in range(arr.n)
                               if ref.in_row_span(rows[i], eqs))
            flats.add((len(eqs), closed))
    return flats


def lattice_flats(lat):
    return {(f.codim, f.indices) for f in lat.all_flats()}


def random_central(rng):
    while True:
        l = rng.randint(2, 4)
        n = rng.randint(1, min(8, l + 4))
        normals = set()
        tries = 0
        while len(normals) < n and tries < 100:
            v = tuple(rng.randint(-2, 2) for _ in range(l))
            tries += 1
            if all(x == 0 for x in v):
                continue
            from logchern.rings import vec_primitive
            normals.add(vec_primitive(v))
        if len(normals) == n:
            return Arrangement(l, sorted(normals))


def random_generic(rng, l, n):
    """n planes in C^l with coefficients in [-3, 3], any l of them
    independent."""
    normals = []
    while len(normals) < n:
        v = tuple(rng.randint(-3, 3) for _ in range(l))
        if all(len(ref.rref(list(sub) + [v])) == min(l, len(sub) + 1)
               for k in range(min(l - 1, len(normals)) + 1)
               for sub in combinations(normals, k)):
            normals.append(v)
    return Arrangement(l, normals)


# ----- parsing -----

def test_parse_boolean():
    arr = parse_arrangement({"l": 2, "hyperplanes": [[1, 0], [0, 1]]})
    assert arr.normals == ((1, 0), (0, 1))
    assert arr.is_central


def test_parse_normalizes_to_primitive():
    arr = parse_arrangement({"l": 2, "hyperplanes": [[2, 0], [0, 1]]})
    assert arr.normals == ((1, 0), (0, 1))


def test_parse_nonfree_octic_file():
    arr = Arrangement(4, OCTIC_NORMALS)
    assert arr.n == 8
    assert arr.dim == 4


def test_parse_rejects_zero_normal():
    with pytest.raises(InputError):
        parse_arrangement({"l": 2, "hyperplanes": [[0, 0], [1, 0]]})


def test_parse_rejects_duplicates_up_to_sign_and_scale():
    with pytest.raises(InputError):
        parse_arrangement({"l": 2, "hyperplanes": [[1, 1], [-2, -2]]})


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        parse_arrangement({"l": 3, "hyperplanes": [[1, 0]]})


@pytest.mark.parametrize("source", [
    [{"l": 2, "hyperplanes": [[1, 0]]}],            # top-level list
    '[{"l": 2, "hyperplanes": [[1, 0]]}]',          # the same as JSON text
    {"l": True, "hyperplanes": [[1]]},               # bool as "l"
    {"l": 2, "hyperplanes": [[1, False], [0, 1]]},   # bool in a normal
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": "ab"},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": [1]},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": [1, "x"]},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": [1, "1/0"]},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": [1, True]},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "labels": 5},
    {"l": 2, "hyperplanes": [[1, 0], [0, 1]], "constants": [1, 0.1]},
    "no/such/arrangement.json",
])
def test_parse_rejects_malformed_input(source):
    with pytest.raises(InputError):
        parse_arrangement(source)


def test_parse_reads_a_path(tmp_path):
    path = tmp_path / "two.json"
    path.write_text('{"l": 2, "hyperplanes": [[1, 0], [0, 1]]}')
    assert parse_arrangement(path).normals == ((1, 0), (0, 1))
    assert parse_arrangement(str(path)).normals == ((1, 0), (0, 1))


def test_parse_accepts_rational_constants():
    arr = parse_arrangement({"l": 2, "hyperplanes": [[1, 0], [0, 1]],
                             "constants": [1, "1/2"]})
    assert arr.constants == (1, 1)
    assert arr.normals == ((1, 0), (0, 2))


# ----- lattices and Moebius -----

def test_boolean2_lattice():
    lat = build_lattice(boolean(2))
    counts = [len(lv) for lv in lat.levels]
    assert counts == [1, 2, 1]  # V, two lines, origin


def test_three_lines_lattice():
    arr = Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    lat = build_lattice(arr)
    counts = [len(lv) for lv in lat.levels]
    assert counts == [1, 3, 1]


def test_octic_lattice_matches_brute_force(octic_arrangement, octic_lattice):
    assert lattice_flats(octic_lattice) == brute_force_flats(octic_arrangement)


def test_mobius_examples():
    lat = mobius(build_lattice(boolean(3)))
    assert lat.mobius(lat.bottom) == 1
    for flat in lat.all_flats():
        assert lat.mobius(flat) == (-1) ** flat.codim
    # three concurrent lines: mu(origin) = 2
    lat = mobius(build_lattice(Arrangement(2, [(1, 0), (0, 1), (1, 1)])))
    origin = lat.flats_of_codim(2)[0]
    assert lat.mobius(origin) == 2


def test_mobius_recursion_sums_to_zero():
    for arr in (boolean(3), Arrangement(2, [(1, 0), (0, 1), (1, 1)]),
                Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])):
        lat = mobius(build_lattice(arr))
        for flat in lat.all_flats():
            if flat.codim == 0:
                continue
            total = sum(lat.mobius(g) for g in lat.all_flats()
                        if g.indices <= flat.indices)
            assert total == 0


# ----- Poincare polynomials -----

def test_poincare_boolean3():
    assert poincare_affine(boolean(3)).coeffs == (1, 3, 3, 1)


def test_poincare_three_lines():
    arr = Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    assert poincare_affine(arr).coeffs == (1, 3, 2)


def test_poincare_braid_triple_rank2():
    arr = Arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    assert poincare_affine(arr).coeffs == (1, 3, 2)


def test_poincare_projective_examples(octic_arrangement):
    assert poincare_projective(boolean(4)).coeffs == (1, 3, 3, 1)
    single = Arrangement(2, [(1, 0)])
    assert poincare_projective(single).coeffs == (1,)
    assert poincare_projective(octic_arrangement).coeffs == (1, 7, 18, 17)


def test_poincare_b1_counts_hyperplanes(octic_arrangement):
    for arr in (boolean(3), octic_arrangement,
                Arrangement(2, [(1, 0), (0, 1), (1, 1)])):
        assert poincare_affine(arr).coefficient(1) == arr.n


# ----- deconing -----

def test_decone_boolean2():
    arr = boolean(2)
    d = decone(arr, 0)
    assert d.dim == 1 and d.n == 1
    assert poincare_affine(d).coeffs == (1, 1)


def test_decone_three_lines():
    arr = Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    d = decone(arr, 1)
    assert d.dim == 1 and d.n == 2
    assert poincare_affine(d).coeffs == (1, 2)


def test_decone_restricts_each_hyperplane_to_the_chart():
    # on 2x + y = 1, x = (1 - y) / 2: x = 0 is y = 1, 3x + y + z = 0 is
    # y - 2z = 3 and y - z = 0 stays
    d = decone(Arrangement(3, [(2, 1, 0), (1, 0, 0), (3, 1, 1), (0, 1, -1)]),
               0)
    assert d.normals == ((1, 0), (1, -2), (1, -1))
    assert d.constants == (1, 3, 0)


def test_decone_nonfree_octic(octic_arrangement):
    d = decone(octic_arrangement, 3)  # decone at w
    assert d.dim == 3 and d.n == 7
    assert poincare_affine(d).coeffs == (1, 7, 18, 17)


def test_decone_factorization_and_independence():
    rng = random.Random(424242)
    for _ in range(10):
        arr = random_central(rng)
        pi = poincare_affine(arr)
        if arr.dim < 2:
            continue
        quotient = None
        for h in range(arr.n):
            dpi = poincare_affine(decone(arr, h))
            # (1+t) * pi(dA) == pi(A)
            prod = [0] * (len(dpi.coeffs) + 1)
            for i, c in enumerate(dpi.coeffs):
                prod[i] += c
                prod[i + 1] += c
            while prod and prod[-1] == 0:
                prod.pop()
            assert tuple(prod) == pi.coeffs, (arr.normals, h)
            if quotient is None:
                quotient = dpi.coeffs
            else:
                assert dpi.coeffs == quotient  # independent of the choice
        # affine lattice of a decone agrees with the brute-force oracle
        d = decone(arr, 0)
        assert lattice_flats(build_lattice(d)) == brute_force_flats(d)


def test_random_lattices_match_brute_force():
    rng = random.Random(77)
    arrs = [random_central(rng) for _ in range(10)]
    arrs += [Arrangement(5, braid(5)), random_generic(rng, 4, 10)]
    for arr in arrs:
        assert lattice_flats(build_lattice(arr)) == brute_force_flats(arr)


@pytest.mark.parametrize("arr,eliminations",
                         [(Arrangement(5, braid(5)), 134),
                          (decone(Arrangement(5, braid(5)), 0), 122),
                          (Arrangement(6, braid(6)), 832)],
                         ids=["braid_a4", "braid_a4_deconed", "braid_a5"])
def test_build_lattice_carries_residuals_and_skips_the_last_level(
        arr, eliminations, monkeypatch):
    # n reductions for the rank chain and one for the center; every other
    # residual is one elimination per (cover, hyperplane not in it), and
    # the flats of the skipped level carry none; no echelon extension, and
    # one Flat per closed index set
    calls, built = {"_reduce": 0, "_eliminate": 0}, []

    def counted(name):
        function = getattr(arrangements, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    def forbidden(*args):
        raise AssertionError("build_lattice extends echelon rows")

    class CountedFlat(Flat):
        __slots__ = ()

        def __init__(self, indices, *args):
            built.append(frozenset(indices))
            super().__init__(indices, *args)
    for name in calls:
        monkeypatch.setattr(arrangements, name, counted(name))
    monkeypatch.setattr(arrangements, "extend", forbidden)
    monkeypatch.setattr(arrangements, "Flat", CountedFlat)
    lat = build_lattice(arr)
    top = len(ref.rref(arr.normals))
    skipped = top - 1 if arr.is_central else top
    assert calls["_reduce"] == arr.n + arr.is_central
    assert calls["_eliminate"] == eliminations <= arr.n * top + sum(
        arr.n - len(f.indices) for f in lat.all_flats() if f.codim < skipped)
    assert len(built) == len(set(built))
    assert set(built) == {f.indices for f in lat.all_flats()}
    rows = arr.normals if arr.is_central else \
        [v + (c,) for v, c in zip(arr.normals, arr.constants)]
    for indices in built:
        eqs = ref.rref([rows[i] for i in indices])
        assert indices == {i for i in range(arr.n)
                           if ref.in_row_span(rows[i], eqs)}


def _levels(lat):
    return [[(f.indices, f.equations, f.codim, lat.mobius(f)) for f in lv]
            for lv in lat.levels]


def _with_decones(arrs, count):
    out = []
    for arr in arrs:
        out.append(arr)
        out += [decone(arr, h) for h in range(min(count, arr.n))]
    return out


def _differential_inputs(group):
    rng = random.Random(27)
    if group == "random":
        # entries in [-2, 2], l 2-5, n 1-9, with up to three decones each
        arrs = []
        while len(arrs) < 60:
            l, n = rng.randint(2, 5), rng.randint(1, 9)
            normals = {vec_primitive([rng.randint(-2, 2) for _ in range(l)])
                       for _ in range(3 * n)} - {(0,) * l}
            if len(normals) >= n:
                arrs.append(Arrangement(l, sorted(normals)[:n]))
        return _with_decones(arrs, 3)
    if group == "cylinders":
        # X x C^k: the rank of the normals is below the dimension
        return _with_decones(
            [Arrangement(arr.dim + k, [v + (0,) * k for v in arr.normals])
             for arr in (Arrangement(4, OCTIC_NORMALS),
                         Arrangement(4, braid(4)), boolean(2))
             for k in (1, 2)], 2)
    if group == "one_hyperplane":
        # top = 1: the skipped level is the bottom
        return _with_decones([Arrangement(3, [(1, 2, -1)])], 1) + \
            [Arrangement(1, [(1,)])]
    if group == "braid":
        return _with_decones([Arrangement(5, braid(5)),
                              Arrangement(6, braid(6))], 2)
    # the seeded inputs of the benchmark's lattice workload
    return [Arrangement(l, rows) for seed in (0, 1)
            for l, rows, _ in inputs.arrangements("lattice", seed).values()]


@pytest.mark.parametrize("group", ["random", "cylinders", "one_hyperplane",
                                   "braid", "bench_lattice"])
def test_build_lattice_matches_reduction_from_scratch(group):
    # carrying residuals and skipping the last level change no flat, row,
    # order or Moebius value of the direct per-(flat, hyperplane) loop
    for arr in _differential_inputs(group):
        assert _levels(build_lattice(arr)) == \
            _levels(ref.build_lattice_by_reduction(arr)), arr.to_dict()


@pytest.mark.parametrize("arr", [Arrangement(5, braid(5)),
                                 decone(Arrangement(5, braid(5)), 0)],
                         ids=["braid_a4", "braid_a4_deconed"])
def test_build_lattice_takes_no_span_test_or_full_echelon(arr, monkeypatch):
    # a cover's hyperplanes come from the extensions that gave it: no
    # closure by span tests, no full echelon per cover
    def forbidden(*args):
        raise AssertionError("build_lattice re-eliminates")
    monkeypatch.setattr(arrangements, "in_row_span", forbidden)
    monkeypatch.setattr(arrangements, "rref", forbidden)
    lat = build_lattice(arr)
    assert lattice_flats(lat) == brute_force_flats(arr)


def test_braid_a6_lattice_poincare_and_decone():
    arr = Arrangement(7, braid(7))
    lat = build_lattice(arr)
    assert [len(lv) for lv in lat.levels] == [1, 21, 140, 350, 301, 63, 1]
    expected = [1]
    for k in range(1, 7):  # prod_{k=1..6} (1 + k t)
        expected = [a + k * b for a, b in zip(expected + [0], [0] + expected)]
    pi = poincare_affine(arr, lat)
    assert pi.coeffs == tuple(expected) == (1, 21, 175, 735, 1624, 1764, 720)
    assert poincare_affine(decone(arr, 0)) == pi.divide_by_one_plus_t()


# ----- integer echelon rows against the Fraction reference -----

def _primitive_rows(rows):
    """Rational rows scaled to primitive integer rows; a positive pivot
    stays positive."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return tuple(out)


@st.composite
def _systems(draw):
    """(affine, ncols, rows, vec, coeffs): up to 6 integer rows over ncols
    normal columns, plus a constants column when affine; at most 7 columns
    in all.  Zeros are drawn often so that rank drops."""
    affine = draw(st.booleans())
    ncols = draw(st.integers(1, 6 if affine else 7))
    width = ncols + affine
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    vector = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(vector, max_size=6))
    vec = draw(vector)
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return affine, ncols, rows, vec, coeffs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=_systems())
def test_integer_echelon_matches_fraction_reference(system):
    affine, ncols, rows, vec, coeffs = system
    width = ncols + affine
    eqs = rref(rows)
    ref_eqs = ref.rref(rows)
    assert eqs == _primitive_rows(ref_eqs)
    assert all(isinstance(x, int) for row in eqs for x in row)
    assert extend(eqs, vec) == rref(rows + [vec]) == \
        _primitive_rows(ref.rref(rows + [vec]))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
             for j in range(width)]
    assert in_row_span(combo, eqs)
    for v in (vec, combo):
        assert in_row_span(v, eqs) == ref.in_row_span(v, ref_eqs)
    flat = Flat((), eqs, len(eqs), ncols)
    normal_part = [row[:ncols] for row in rows]
    assert flat.subspace_basis() == ref.nullspace(ref.rref(normal_part),
                                                  ncols)


# ----- localization and essentialization -----

def test_localize_at_bottom_is_empty():
    arr = boolean(3)
    lat = build_lattice(arr)
    assert localize(arr, lat.bottom).n == 0


def test_localize_boolean3_line():
    arr = boolean(3)
    lat = build_lattice(arr)
    target = next(f for f in lat.flats_of_codim(2)
                  if f.indices == frozenset({0, 1}))
    sub = localize(arr, target)
    assert sub.normals == ((1, 0, 0), (0, 1, 0))


def test_localize_octic_flat_is_index_set(octic_arrangement, octic_lattice):
    for flat in octic_lattice.flats_of_codim(3):
        sub = localize(octic_arrangement, flat)
        assert sub.normals == tuple(octic_arrangement.normals[i]
                                    for i in sorted(flat.indices))


def test_essentialize_essential_input_unchanged():
    arr = boolean(3)
    assert essentialize(arr) is arr


def test_essentialize_two_planes_in_c3():
    arr = Arrangement(3, [(1, 0, 0), (0, 1, 0)])
    ess = essentialize(arr)
    assert ess.dim == 2
    assert ess.normals == ((1, 0), (0, 1))


def test_essentialize_uses_reduced_echelon_coordinates():
    # the echelon row (0, 2, 1) has pivot 2: coordinates are still taken in
    # the basis of reduced rows (1, 0, 1), (0, 1, 1/2)
    arr = Arrangement(3, [(1, 0, 1), (0, 2, 1), (1, 2, 2)])
    ess = essentialize(arr)
    assert ess.normals == ((1, 0), (0, 1), (1, 2))
    assert poincare_affine(ess) == poincare_affine(arr)


def test_essentialize_braid_triple_preserves_poincare():
    arr = Arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    ess = essentialize(arr)
    assert ess.dim == 2 and ess.n == 3
    assert poincare_affine(ess).coeffs == (1, 3, 2)
    assert poincare_affine(ess) == poincare_affine(arr)


def test_essentialize_preserves_poincare_randomized():
    rng = random.Random(5150)
    for _ in range(8):
        arr = random_central(rng)
        assert poincare_affine(essentialize(arr)) == poincare_affine(arr)
