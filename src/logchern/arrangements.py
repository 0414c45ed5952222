"""Central and affine hyperplane arrangements: validation, intersection
lattices, Moebius functions, Poincare polynomials, deconing, localization
and essentialization.

A central arrangement in C^l is a list of pairwise non-proportional
primitive integer normal vectors.  Affine arrangements (deconed ones) carry
an integer constant per hyperplane, the equation being <normal, x> = const;
their lattices follow the semilattice convention (empty intersections are
dropped).
"""

import json
import os
from bisect import insort
from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import InputError
from .rings import render_univariate, vec_primitive, rational_vec_primitive


def _pivot(row):
    """Column of the first nonzero entry of a nonzero row."""
    for i, x in enumerate(row):
        if x:
            return i


def _eliminate(vec, row, pc):
    """``p vec - c row``, zero in column ``pc``, where p = row[pc] > 0 and
    c = vec[pc] are divided by their gcd."""
    g = gcd(row[pc], vec[pc])
    p, c = row[pc] // g, vec[pc] // g
    return [p * a - c * b for a, b in zip(vec, row)]


def _reduce(rows, vec):
    """A positive multiple of ``vec`` minus a combination of the triangular
    ``rows`` (positive pivots, each row zero at the pivots of the rows
    before it), zero in every pivot column of ``rows``."""
    for row in rows:
        pc = _pivot(row)
        if vec[pc]:
            vec = _eliminate(vec, row, pc)
    return vec


def extend(rows, vec):
    """Canonical echelon rows of the span of canonical echelon ``rows`` and
    the integer vector ``vec``; ``rows`` itself when ``vec`` is in their
    span.

    ``vec`` is reduced against ``rows``, made primitive with a positive
    pivot, and its pivot column is cleared from the other rows, which keep
    their positive pivots.  Every step is integer cross-multiplication.
    """
    v = _reduce(rows, vec)
    if not any(v):
        return rows
    v = vec_primitive(v)
    pc = _pivot(v)
    out = [vec_primitive(_eliminate(row, v, pc)) if row[pc] else row
           for row in rows]
    insort(out, v, key=_pivot)
    return tuple(out)


def rref(rows):
    """Canonical integer echelon form of the row span of integer rows.

    Returns a tuple of rows: each is the primitive integer multiple, with a
    positive pivot, of the matching row of the reduced row echelon form
    over Q.  Zero rows are dropped, pivot columns are cleared and rows are
    ordered by pivot column, so equal spans give equal tuples.  It is
    ``extend`` folded over the rows, starting from no rows.
    """
    return reduce(extend, rows, ())


def in_row_span(vec, rows):
    """Membership of a vector in the span of triangular rows (as returned
    by ``rref`` or held by a ``Flat``): its reduction against them is
    zero."""
    return not any(_reduce(rows, vec))


def nullspace(rref_rows, ncols):
    """Basis of the solution space of the homogeneous system, from the
    canonical echelon rows: one vector per free column, 1 there and 0 in
    the other free columns."""
    pivots = [_pivot(row) for row in rref_rows]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref_rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


class Arrangement:
    """A hyperplane arrangement with primitive integer data.

    ``constants is None`` marks the central case; otherwise hyperplane i is
    the affine set  <normals[i], x> = constants[i].
    """

    __slots__ = ("dim", "normals", "constants", "labels")

    def __init__(self, dim, normals, constants=None, labels=None):
        if dim < 1:
            raise InputError("ambient dimension must be >= 1")
        self.dim = dim
        norm = []
        seen = {}
        consts = list(constants) if constants is not None else None
        for idx, vec in enumerate(normals):
            vec = tuple(vec)
            if len(vec) != dim:
                raise InputError(
                    f"normal {vec} has length {len(vec)}, expected {dim}")
            if all(v == 0 for v in vec):
                raise InputError("zero normal vector")
            if constants is None:
                nv = vec_primitive(vec)
                key = nv
            else:
                nv, c = _normalize_affine(vec, consts[idx])
                consts[idx] = c
                key = (nv, c)
            if key in seen:
                raise InputError(
                    f"duplicate hyperplane at positions {seen[key]} and {idx}"
                    " (the divisor must be reduced)")
            seen[key] = idx
            norm.append(nv)
        self.normals = tuple(norm)
        self.constants = tuple(consts) if consts is not None else None
        if labels is not None and len(labels) != len(norm):
            raise InputError("label count does not match hyperplane count")
        self.labels = tuple(labels) if labels is not None else None

    @property
    def n(self):
        return len(self.normals)

    @property
    def is_central(self):
        return self.constants is None

    def rank(self):
        return len(rref(self.normals))

    def is_essential(self):
        return self.rank() == self.dim

    def hyperplane_label(self, i):
        if self.labels:
            return self.labels[i]
        return f"H{i}"

    def to_dict(self):
        out = {"l": self.dim, "hyperplanes": [list(v) for v in self.normals]}
        if self.constants is not None:
            out["constants"] = list(self.constants)
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def __repr__(self):
        kind = "central" if self.is_central else "affine"
        return f"Arrangement({kind}, l={self.dim}, n={self.n})"


def _normalize_affine(vec, const):
    joint = rational_vec_primitive(tuple(vec) + (const,))
    nv, c = joint[:-1], joint[-1]
    if all(v == 0 for v in nv):
        raise InputError("zero normal vector")
    # sign convention lives on the normal part
    for v in nv:
        if v < 0:
            return tuple(-x for x in nv), -c
        if v > 0:
            break
    return nv, c


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rational(x):
    # a float is its binary expansion, never the decimal the input showed
    if isinstance(x, (bool, float)):
        return False
    try:
        Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


def read_json_file(path):
    """The decoded JSON document in the file at ``path``; any failure to
    open, decode or parse it is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: NUL byte, bad UTF-8
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _load_json_source(source):
    """The decoded JSON document behind a dict, JSON text or file path."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise InputError("input must be a JSON object, JSON text or a path, "
                         f"not {type(source).__name__}")
    source = os.fspath(source)
    if not source.lstrip().startswith(("{", "[")):
        return read_json_file(source)
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}") from exc


def parse_arrangement(source):
    """Arrangement from the JSON input format.

    ``source`` may be a dict, a JSON string, or a path to a JSON file with
    fields  {"l": int, "hyperplanes": [[int, ...], ...],
    "labels": [...]?, "constants": [...]?}.  Input order is preserved.
    A constant is an integer or a "p/q" string.  Booleans are not integers
    and floats are not constants here; anything malformed raises
    InputError.
    """
    data = _load_json_source(source)
    if not isinstance(data, dict) or "l" not in data or "hyperplanes" not in data:
        raise InputError('input must provide "l" and "hyperplanes"')
    dim = data["l"]
    if not _is_int(dim):
        raise InputError('"l" must be an integer')
    hyps = data["hyperplanes"]
    if not isinstance(hyps, list):
        raise InputError('"hyperplanes" must be a list of integer vectors')
    for v in hyps:
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise InputError(f"hyperplane {v!r} is not an integer vector")
    constants = data.get("constants")
    if constants is not None:
        if not isinstance(constants, list) or len(constants) != len(hyps):
            raise InputError('"constants" must be a list with one rational '
                             "number per hyperplane")
        for c in constants:
            if not _is_rational(c):
                raise InputError(f"constant {c!r} is not an integer or a "
                                 '"p/q" string')
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError('"labels" must be a list')
    return Arrangement(dim, hyps, constants=constants, labels=labels)


class Flat:
    """A flat of the intersection lattice.

    Identified by its closed hyperplane index set.  Its equations are a
    triangular chain of primitive integer rows, each with a positive pivot
    and zero at the pivots of the rows before it, augmented with the
    integer constants column in the affine case.
    """

    __slots__ = ("indices", "equations", "codim", "ambient_dim")

    def __init__(self, indices, equations, codim, ambient_dim):
        self.indices = frozenset(indices)
        self.equations = equations
        self.codim = codim
        self.ambient_dim = ambient_dim

    def subspace_basis(self):
        """Basis of the linear part (directions) of the flat."""
        dim = self.ambient_dim
        return nullspace(rref(r[:dim] for r in self.equations), dim)

    def sort_key(self):
        return (self.codim, tuple(sorted(self.indices)))

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"Flat(codim={self.codim}, indices={sorted(self.indices)})"


class IntersectionLattice:
    """Flats grouped by codimension, with Moebius values.

    The order is reverse inclusion of subspaces, which on closed index sets
    is plain containment: Y <= X iff Y.indices <= X.indices.
    """

    __slots__ = ("arrangement", "levels", "mobius_values")

    def __init__(self, arrangement, levels):
        self.arrangement = arrangement
        self.levels = [sorted(lv, key=Flat.sort_key) for lv in levels]
        compute_mobius(self)

    @property
    def rank(self):
        return len(self.levels) - 1

    def all_flats(self):
        for lv in self.levels:
            yield from lv

    def flats_of_codim(self, c):
        if c < 0 or c >= len(self.levels):
            return []
        return list(self.levels[c])

    @property
    def bottom(self):
        return self.levels[0][0]

    def mobius(self, flat):
        return self.mobius_values[flat.indices]

    def report(self):
        """Deterministic lattice summary: flats by codim with mu values."""
        out = []
        for c, lv in enumerate(self.levels):
            out.append({
                "codim": c,
                "flats": [{"hyperplanes": sorted(f.indices),
                           "mu": self.mobius_values[f.indices]}
                          for f in lv],
            })
        return out


def build_lattice(arr):
    """All flats by breadth-first intersection.  Affine mode drops empty
    intersections.

    A flat is its closed index set.  A flat X holds, for each h not in X,
    the primitive residual of h's row (augmented with its constant in the
    affine case) modulo X's triangular rows.  The residual is zero at X's
    pivots, so it is unique up to scale modulo the span of X's rows: h and
    h' give the same cover exactly when their residuals agree.  Since X is
    closed, that cover holds X's hyperplanes and that group, and its rows
    are X's rows plus the residual r, whose pivot is its first nonzero
    entry.  The cover's residuals are X's, each eliminated once against r:
    reducing against X's rows and then r is reducing against the cover's
    rows, a nonzero multiple of a vector reduces to a nonzero multiple of
    its residual, and the primitive form fixes scale and sign.  The first
    parent to reach a cover gives its rows and its residuals.  In affine
    mode a residual with zero normal part means X meet H_h is empty and is
    dropped.  Codimension equals rank, so two levels never share a flat.

    Let top be the rank of the normals, read off one triangular chain of
    them.  The residuals of a central flat of codim top - 1 span one line,
    so its one cover is the center, all hyperplanes, with the first such
    flat's rows plus one residual; an affine flat of codim top has no
    cover, as every residual has zero normal part.  Flats of those levels
    carry no residuals.  Everything here is integer arithmetic.
    """
    dim = arr.dim
    central = arr.is_central
    eqrows = arr.normals
    if not central:
        eqrows = [v + (c,) for v, c in zip(eqrows, arr.constants)]
    chain = []
    for v in arr.normals:
        v = _reduce(chain, v)
        if any(v):
            chain.append(vec_primitive(v))
    top = len(chain)
    last = top - 1 if central else top  # the last codim built from residuals
    bottom = Flat((), (), 0, dim)
    levels = [[bottom]]
    current = [(bottom, {h: vec_primitive(row) for h, row in enumerate(eqrows)}
                if last > 0 else None)]
    for codim in range(1, last + 1):
        covers = {}
        for flat, residuals in current:
            groups = {}
            for h, r in residuals.items():
                groups.setdefault(r, []).append(h)
            for r, group in groups.items():
                indices = flat.indices.union(group)
                if indices in covers:
                    continue
                carried = None
                if codim < last:
                    pc = _pivot(r)
                    carried = {}
                    for h, v in residuals.items():
                        if h in indices:
                            continue
                        if v[pc]:
                            v = vec_primitive(_eliminate(v, r, pc))
                            if not central and not any(v[:-1]):
                                continue
                        carried[h] = v
                covers[indices] = (flat.equations + (r,), carried)
        current = [(Flat(indices, eqs, codim, dim), carried)
                   for indices, (eqs, carried) in covers.items()]
        levels.append([flat for flat, _ in current])
    if central and top:
        flat = levels[-1][0]
        h = min(set(range(arr.n)) - flat.indices)
        r = vec_primitive(_reduce(flat.equations, eqrows[h]))
        levels.append([Flat(range(arr.n), flat.equations + (r,), top, dim)])
    return IntersectionLattice(arr, levels)


def compute_mobius(lat):
    """Annotate the lattice with Moebius values via the defining recursion
    mu(V) = 1,  sum_{Y <= X} mu(Y) = 0 for X > V."""
    values = {}
    for c, lv in enumerate(lat.levels):
        for flat in lv:
            if c == 0:
                values[flat.indices] = 1
                continue
            acc = 0
            for c2 in range(c):
                for below in lat.levels[c2]:
                    if below.indices <= flat.indices:
                        acc += values[below.indices]
            values[flat.indices] = -acc
    lat.mobius_values = values
    return lat


def mobius(lat):
    """Spec-facing alias: the lattice, whose Moebius values come with it."""
    return lat


class PoincarePoly:
    """Integer polynomial pi(A, t) with b_0 = 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs or cs[0] != 1:
            raise InputError("Poincare polynomial must have constant term 1")
        self.coeffs = tuple(cs)

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_by_one_plus_t(self):
        """Exact quotient by (1 + t); raises if the division is inexact."""
        out = []
        rem = 0
        for c in self.coeffs:
            v = c - rem
            out.append(v)
            rem = v
        if out and out[-1] != 0:
            # the final carry must cancel the top coefficient exactly
            raise InputError("Poincare polynomial is not divisible by 1+t")
        out.pop()
        return PoincarePoly(out)

    def __eq__(self, other):
        return isinstance(other, PoincarePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self):
        return render_univariate(self.coeffs, "t", ascending=True)

    def __repr__(self):
        return f"PoincarePoly({self.render()})"


def poincare_affine(arr, lattice=None):
    """pi(A, t) = sum_X mu(X) (-t)^rank(X) over the intersection lattice."""
    lat = lattice or build_lattice(arr)
    coeffs = [0] * (lat.rank + 1)
    for c, lv in enumerate(lat.levels):
        s = sum(lat.mobius_values[f.indices] for f in lv)
        coeffs[c] = s * (-1) ** c
    return PoincarePoly(coeffs)


def poincare_projective(arr, lattice=None):
    """pi(PA, t) = pi(A, t) / (1 + t); central arrangements, n >= 1."""
    if not arr.is_central:
        raise InputError("projective Poincare polynomial needs a central "
                         "arrangement")
    if arr.n < 1:
        raise InputError("projective formulas need at least one hyperplane")
    return poincare_affine(arr, lattice).divide_by_one_plus_t()


def decone(arr, h_index):
    """Affine arrangement on the chart {alpha_H = 1} of the chosen
    hyperplane; satisfies pi(A, t) = (1 + t) pi(dA, t)."""
    if not arr.is_central:
        raise InputError("deconing is defined for central arrangements")
    if not 0 <= h_index < arr.n:
        raise InputError(f"hyperplane index {h_index} out of range")
    if arr.dim < 2:
        raise InputError("deconing needs ambient dimension >= 2")
    alpha = arr.normals[h_index]
    p = _pivot(alpha)
    ap = alpha[p]
    # on alpha = 1, z_p = (1 - sum_(j != p) a_j z_j) / a_p, so beta = 0
    # reads sum_(j != p) (a_p b_j - b_p a_j) z_j = -b_p, up to the factor a_p
    normals = []
    consts = []
    labels = [] if arr.labels else None
    for i, beta in enumerate(arr.normals):
        if i == h_index:
            continue
        bp = beta[p]
        normals.append([ap * b - bp * a for j, (a, b) in
                        enumerate(zip(alpha, beta)) if j != p])
        consts.append(-bp)
        if labels is not None:
            labels.append(arr.labels[i])
    return Arrangement(arr.dim - 1, normals, constants=consts, labels=labels)


def localize(arr, flat):
    """Sub-arrangement of the hyperplanes containing the flat."""
    if not arr.is_central:
        raise InputError("localization implemented for central arrangements")
    lat_idx = sorted(flat.indices)
    if any(i < 0 or i >= arr.n for i in lat_idx):
        raise InputError("flat does not belong to this arrangement")
    for i in lat_idx:
        if not in_row_span(arr.normals[i], flat.equations):
            raise InputError("flat index set is not closed for this "
                             "arrangement")
    labels = [arr.hyperplane_label(i) for i in lat_idx] if arr.labels else None
    return Arrangement(arr.dim, [arr.normals[i] for i in lat_idx],
                       labels=labels)


def essentialize(arr):
    """Rewrite the arrangement on a complement of its center.

    The normals are re-expressed in the canonical basis of their span, an
    invertible change that preserves the intersection lattice and hence the
    Poincare polynomial.
    """
    if not arr.is_central:
        raise InputError("essentialization is defined for central "
                         "arrangements")
    if arr.n == 0 or arr.is_essential():
        return arr
    basis = rref(arr.normals)
    r = len(basis)
    pivots = [_pivot(row) for row in basis]
    normals = []
    for alpha in arr.normals:
        # coordinates in the reduced echelon basis (rows divided by pivots)
        coords = [alpha[pc] for pc in pivots]
        check = [sum(Fraction(c, row[pc]) * row[j]
                     for c, row, pc in zip(coords, basis, pivots))
                 for j in range(arr.dim)]
        if any(check[j] != alpha[j] for j in range(arr.dim)):
            raise InputError("normal escaped its own span (internal error)")
        normals.append(list(vec_primitive(coords)))
    return Arrangement(r, normals, labels=arr.labels)
