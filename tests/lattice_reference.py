"""Reference routes for the lattice layer.

The library's ``rref`` returns canonical integer echelon rows built by
fraction-free elimination.  This module keeps the reduced row echelon form
over Q in ``fractions.Fraction`` (pivots 1), with its span membership test
and nullspace, as an independent oracle: the brute-force flat enumeration
in the tests runs on it, and a property test compares the library with it.

``build_lattice`` carries each flat's residuals to its covers and skips the
level whose covers are known in advance.  ``build_lattice_by_reduction``
keeps the direct loop it replaced: every (flat, hyperplane not in it) pair
reduced from scratch against all of the flat's rows, on every level.
"""

from fractions import Fraction

from logchern.arrangements import Flat, IntersectionLattice, _reduce
from logchern.rings import vec_primitive


def rref(rows):
    """Reduced row echelon form over Q; returns a tuple of pivot rows.

    Zero rows are dropped, pivots are 1, pivot columns are cleared, rows
    are ordered by pivot column, so the output is a canonical form of the
    row span.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    ncols = len(mat[0]) if mat else 0
    out = []
    pivot_cols = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row_idx], mat[pivot] = mat[pivot], mat[row_idx]
        pv = mat[row_idx][col]
        mat[row_idx] = [v / pv for v in mat[row_idx]]
        for r in range(len(mat)):
            if r != row_idx and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row_idx])]
        pivot_cols.append(col)
        row_idx += 1
        if row_idx == len(mat):
            break
    return tuple(tuple(mat[i]) for i in range(row_idx))


def in_row_span(vec, rref_rows):
    """Membership of a rational vector in the span of canonical rref rows."""
    v = list(map(Fraction, vec))
    for row in rref_rows:
        pc = next(i for i, x in enumerate(row) if x != 0)
        if v[pc] != 0:
            c = v[pc]
            v = [a - c * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def nullspace(rref_rows, ncols):
    """Basis of the solution space of the homogeneous system, from rref."""
    pivots = []
    for row in rref_rows:
        pivots.append(next(i for i, x in enumerate(row) if x != 0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref_rows, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def build_lattice_by_reduction(arr):
    """The intersection lattice of ``arr``, each residual reduced from
    scratch: the same flats, rows, order and Moebius values as
    ``build_lattice``."""
    dim = arr.dim
    affine = not arr.is_central
    eqrows = arr.normals
    if affine:
        eqrows = [v + (c,) for v, c in zip(eqrows, arr.constants)]
    current = [Flat((), (), 0, dim)]
    levels = [current]
    while True:
        covers = {}
        for flat in current:
            groups = {}
            for h in range(arr.n):
                if h in flat.indices:
                    continue
                r = vec_primitive(_reduce(flat.equations, eqrows[h]))
                if affine and not any(r[:-1]):
                    continue
                groups.setdefault(r, set()).add(h)
            for r, group in groups.items():
                covers.setdefault(flat.indices | group,
                                  flat.equations + (r,))
        if not covers:
            break
        codim = len(levels)
        current = [Flat(idx, eqs, codim, dim) for idx, eqs in covers.items()]
        levels.append(current)
    return IntersectionLattice(arr, levels)
