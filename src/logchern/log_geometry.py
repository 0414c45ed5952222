"""Logarithmic derivations and forms of an arrangement, freeness tests,
and the non-freeness number N.

Conventions (for a central arrangement with defining polynomial f of
degree d = n):

* derivations theta = sum a_i d/dz_i are graded by deg(a_i); the Euler
  derivation chi has degree 1;
* a logarithmic 1-form omega is graded so that f*omega is homogeneous of
  degree d + deg(omega); df/f has degree 0;
* D_0 is the kernel of the Euler contraction on derivations, the theta
  with theta(f) = 0, and D = S*chi + D_0;
* Omega^1_0 is the kernel of the Euler contraction <chi, -> on Omega^1,
  and Omega^1 = S*(df/f) + Omega^1_0.

Derivations come from linear conditions, not from syzygies of the
partials of f: by Saito, D(A) is the intersection of the D(H), so theta
is logarithmic iff theta(alpha_H) = alpha_H h_H for polynomials h_H, one
per hyperplane.  D(A) is the projection to the theta part of the kernel of

    (g_1..g_l, h_H) -> (sum_i a_{H,i} g_i - alpha_H h_H)_H,

a map whose entries are integers and the linear forms alpha_H.  Since
theta(f)/f = sum_H h_H, one more row, sum_H h_H, cuts out D_0.  The POT
elimination tracks only the l theta coordinates (the h_H columns need no
identity position, since no caller reads them), so it returns the reduced
basis of the derivation module itself, which is then presented by its own
S-pair syzygies (`presentation_of_basis`), with no second elimination.
The exact check recovers each h_H by dividing theta(alpha_H) by alpha_H
in integers.

The contraction <theta, omega> has degree -1 in this grading, and Saito's
duality Omega^1 = Hom_S(D, S) reads

    Omega^1 = D^*(-1),    Omega^1_0 = D_0^*(-1).

So Omega^1_0 is built as the dual of D_0 (one ``module_dual`` per
arrangement) and Omega^1 as the direct sum with S*(df/f), just as D is
built from D_0; the form modules are presented in the dual basis, by the
values of a form on the generators of D_0.

The localization formula sums local lengths over the points of the
non-free locus.  Every hyperplane of the localization at a point q passes
through q, so on the affine chart z_c = 1 (q_c != 0, scaled to 1) in the
coordinates z_i - q_i, i != c, it is the central arrangement A'_q in l - 1
variables whose normals are the localization's with coordinate c
dropped.  The point's N is the length of Ext^1(D(A'_q)^*, S'), where
D(A'_q) is the same kernel without the row sum_H h_H; by duality it is the
length of Ext^(l-3)(D(A'_q), S'), the top Ext of D(A'_q)'s own minimal
resolution when that has length l - 3, and 0 otherwise
(`affine_n_value`): no point dualizes.  Everything here is graded.
"""

from .arrangements import Arrangement, build_lattice, localize, rref
from .errors import EngineError, HypothesisError, InputError
from .groebner import FIELD_MASK, kernel_raw
from .modules import (DEGREE_CAP, GradedFreeModule, GradedModulePresentation,
                      ext1_against_ring, ext_from_resolution, from_engine,
                      hilbert_polynomial, krull_dim, module_dual,
                      presentation_of_basis, total_dimension)
from .orders import FIELD_BITS
from .rings import MultiPoly, poly_product


class DefiningData:
    """Defining polynomial of an arrangement with its partials."""

    __slots__ = ("arrangement", "f", "degree", "partials")

    def __init__(self, arrangement, f, partials):
        self.arrangement = arrangement
        self.f = f
        self.degree = f.total_degree()
        self.partials = tuple(partials)

    @property
    def arity(self):
        return self.arrangement.dim

    def euler_coefficients(self):
        """The coefficient vector (z_1, ..., z_l) of the Euler derivation."""
        return [MultiPoly.variable(self.arity, i) for i in range(self.arity)]


def defining_data(arr):
    """f = product of the hyperplane forms of a central arrangement, with
    partials; verifies the Euler identity  sum z_i f_i = d f."""
    if not arr.is_central:
        raise InputError("logarithmic modules are computed for central "
                         "arrangements")
    if arr.n < 1:
        raise InputError("defining polynomial needs at least one hyperplane")
    f = poly_product([MultiPoly.linear_form(a) for a in arr.normals],
                     arity=arr.dim)
    partials = [f.partial(i) for i in range(arr.dim)]
    dd = DefiningData(arr, f, partials)
    acc = MultiPoly.zero(arr.dim)
    for z, fi in zip(dd.euler_coefficients(), partials):
        acc = acc + z * fi
    if acc != f * dd.degree:
        raise EngineError("Euler identity failed (internal error)")
    return dd


class LogModule:
    """One of D, D_0, Omega^1, Omega^1_0 as a concrete presented module.

    For the derivation modules ``vectors`` are the integer term dicts of
    the generators' coefficient vectors in ``ambient`` = S^l, in the order
    of the presentation's generators.  ``generators`` reads them as
    `FreeModuleElement`s, converting on each access; it is public API with
    no reader in the library, whose Saito check evaluates the dicts
    themselves.  The form modules come from duality and carry only their
    presentation (``ambient`` None, no vectors).
    """

    __slots__ = ("kind", "presentation", "defining", "ambient", "vectors")

    def __init__(self, kind, presentation, defining, ambient=None,
                 vectors=()):
        self.kind = kind
        self.presentation = presentation
        self.defining = defining
        self.ambient = ambient
        self.vectors = tuple(vectors)

    @property
    def generators(self):
        return tuple(from_engine(v, self.ambient) for v in self.vectors)

    def minimal_resolution(self):
        return self.presentation.minimal_resolution()

    def report(self):
        """Summary dict: kind, generator degrees, resolution twists, pdim.

        ``ambient_rank`` is l: derivations live in S^l, forms in
        (1/f) S^l.
        """
        res = self.minimal_resolution()
        return {"kind": self.kind, "ambient_rank": self.defining.arity,
                "generator_degrees": sorted(res.terms[0].twists),
                "resolution_twists": [F.twist_multiset() for F in res.terms],
                "pdim": res.length}


def _free_summand_plus(twist, pres):
    """S(-twist) + M as a presentation, the free summand in front."""
    target = GradedFreeModule(pres.arity, (twist,) + pres.target.twists)
    return GradedModulePresentation(
        target, [{(pos + 1, exps): c for (pos, exps), c in r.items()}
                 for r in pres.relations])


def _linear_columns(arr, d0):
    """Columns of the linear map of derivations, one per g_i and then one
    per h_H, as integer term dicts over the rows: row H is
    sum_i a_{H,i} g_i - alpha_H h_H, and with ``d0`` the row sum_H h_H,
    which cuts D_0 out of D, comes last.  Returns ``(columns, row
    count)``."""
    l, n = arr.dim, arr.n
    zero = (0,) * l
    units = [tuple(int(i == k) for i in range(l)) for k in range(l)]
    cols = [{(H, zero): a[i] for H, a in enumerate(arr.normals) if a[i]}
            for i in range(l)]
    for H, a in enumerate(arr.normals):
        col = {(H, units[k]): -c for k, c in enumerate(a) if c}
        if d0:
            col[(n, zero)] = 1
        cols.append(col)
    return cols, n + d0


def _divide_by_form(p, a):
    """The quotient of the integer polynomial ``p`` by alpha = a.z, or None
    when alpha does not divide p in integers.

    Monomials are packed ints, exponent i in the ``FIELD_BITS``-wide field
    i, as in `orders` (the quotient's exponents are below p's, and a
    remainder term gains at most one per level it moves down, so no field
    carries).  Synthetic division in the first variable z_k with
    a_k != 0: the terms of p of z_k-degree e, divided by a_k, are the
    quotient's terms of z_k-degree e - 1, and subtracting their multiples
    of alpha changes only terms of degree e - 1; what is left in degree 0
    is the remainder.
    """
    k = next(i for i, x in enumerate(a) if x)
    ak = a[k]
    sk = FIELD_BITS * k
    unit_k = 1 << sk
    rest = [(1 << FIELD_BITS * i, x) for i, x in enumerate(a)
            if x and i != k]
    levels = {}
    for m, v in p.items():
        levels.setdefault((m >> sk) & FIELD_MASK, {})[m] = v
    q = {}
    for e in range(max(levels, default=0), 0, -1):
        lower = levels.setdefault(e - 1, {})
        for m, v in levels.pop(e, {}).items():
            if not v:
                continue
            qc, r = divmod(v, ak)
            if r:
                return None
            m -= unit_k
            q[m] = qc
            for u, x in rest:
                lower[m + u] = lower.get(m + u, 0) - qc * x
    if any(levels.get(0, {}).values()):
        return None
    return q


def _check_log_derivations(arr, basis, d0):
    """Raise `EngineError` unless every theta of ``basis`` (integer term
    dicts over S^l) is logarithmic: alpha_H divides theta(alpha_H) in
    integers for each H, and, with ``d0``, the quotients h_H sum to 0, so
    theta(f)/f = sum_H h_H = 0."""
    shifts = [FIELD_BITS * i for i in range(arr.dim)]
    for j, theta in enumerate(basis):
        comps = [[] for _ in shifts]
        for (i, exps), v in theta.items():
            comps[i].append((sum(e << s for e, s in zip(exps, shifts)), v))
        total = {}
        for H, a in enumerate(arr.normals):
            image = {}
            for i, x in enumerate(a):
                if x:
                    for m, v in comps[i]:
                        image[m] = image.get(m, 0) + x * v
            h = _divide_by_form(image, a)
            if h is None:
                raise EngineError(
                    f"derivation {j} does not annihilate f: alpha_{H} does "
                    f"not divide theta(alpha_{H})")
            if d0:
                for m, v in h.items():
                    total[m] = total.get(m, 0) + v
        if any(total.values()):
            raise EngineError(
                f"derivation {j} does not annihilate f: the quotients "
                "h_H = theta(alpha_H)/alpha_H do not sum to 0")


def _derivation_basis(arr, d0):
    """The reduced POT Groebner basis of D_0 (``d0``) or of D, as integer
    term dicts over S^l: the kernel of the linear map projected onto its l
    theta coordinates, the only ones tracked in the elimination.  The h_H
    are not read off the kernel; the exact check divides theta(alpha_H) by
    alpha_H instead."""
    columns, rows = _linear_columns(arr, d0)
    basis = kernel_raw(columns, rows, arr.dim, tracked=arr.dim)
    _check_log_derivations(arr, basis, d0)
    return basis


def _euler_vector(l):
    """The Euler derivation chi = sum_i z_i d/dz_i as a term dict."""
    return {(i, tuple(int(k == i) for k in range(l))): 1 for i in range(l)}


def derivation_module_d0(dd):
    """D_0, the theta with theta(f) = 0, from linear conditions: theta
    satisfies theta(alpha_H) = alpha_H h_H for every hyperplane H and
    sum_H h_H = 0 (see the module docstring).

    Generators are the reduced POT Groebner basis of D_0, coefficient
    vectors in S^l graded by coefficient degree, presented by their
    chain-criterion S-pair syzygies.
    """
    arity = dd.arity
    basis = _derivation_basis(dd.arrangement, d0=True)
    ambient = GradedFreeModule(arity, [0] * arity)
    if not basis:
        pres = GradedModulePresentation.zero(arity)
        return LogModule("D0", pres, dd, ambient)
    return LogModule("D0", presentation_of_basis(basis, ambient), dd,
                     ambient, basis)


def log_derivations(dd, d0=None):
    """D = S*chi + D_0, presented as a direct sum (the central splitting)."""
    d0 = d0 or derivation_module_d0(dd)
    pres = _free_summand_plus(1, d0.presentation)
    return LogModule("D", pres, dd, d0.ambient,
                     (_euler_vector(dd.arity),) + d0.vectors)


def relative_log_forms(dd, d0=None):
    """Omega^1_0 = D_0^*(-1), the forms killed by <chi, ->."""
    d0 = d0 or derivation_module_d0(dd)
    return LogModule("Omega1_0", module_dual(d0.presentation).twisted(-1),
                     dd)


def log_forms(dd, om0=None):
    """Omega^1 = S*(df/f) + Omega^1_0 as a direct sum, df/f in degree 0
    (the central splitting, dual to D = S*chi + D_0)."""
    om0 = om0 or relative_log_forms(dd)
    return LogModule("Omega1", _free_summand_plus(0, om0.presentation), dd)


def log_modules(arr):
    """(defining data, D_0, D, Omega^1, Omega^1_0) of a central
    arrangement, each built once from D_0 and its dual."""
    dd = defining_data(arr)
    d0 = derivation_module_d0(dd)
    om0 = relative_log_forms(dd, d0)
    return dd, d0, log_derivations(dd, d0), log_forms(dd, om0), om0


class FreenessReport:
    """Outcome of a freeness test on a logarithmic module."""

    __slots__ = ("kind", "is_free", "exponents", "pdim", "saito_checked")

    def __init__(self, kind, is_free, exponents, pdim, saito_checked=False):
        self.kind = kind
        self.is_free = is_free
        self.exponents = tuple(exponents) if exponents is not None else None
        self.pdim = pdim
        self.saito_checked = saito_checked

    def to_dict(self):
        return {"kind": self.kind, "is_free": self.is_free,
                "exponents": list(self.exponents)
                if self.exponents is not None else None,
                "pdim": self.pdim, "saito_checked": self.saito_checked}

    def __repr__(self):
        return (f"FreenessReport(kind={self.kind}, free={self.is_free}, "
                f"exponents={self.exponents}, pdim={self.pdim})")


def _saito_check(dd, vectors):
    """Saito's criterion for l elements of D(A), integer term dicts over
    S^l: their determinant lies in f*S, so it is c*f when their degrees sum
    to n = deg f.  Then c != 0 iff their coefficient matrix has rank l at a
    point p off every hyperplane, where f(p) != 0; p = (1, t, ..., t^(l-1))
    with the least such t >= 1 (each alpha_H(p) is a nonzero polynomial in
    t of degree < l, so some t <= n (l - 1) + 1 works)."""
    l = dd.arity
    degrees = [{sum(exps) for _, exps in v} for v in vectors]
    if any(len(d) != 1 for d in degrees) or \
            sum(min(d) for d in degrees) != dd.degree:
        return False
    t = 1
    while any(sum(a * t ** i for i, a in enumerate(alpha)) == 0
              for alpha in dd.arrangement.normals):
        t += 1
    point = [t ** i for i in range(l)]
    rows = []
    for v in vectors:
        row = [0] * l
        for (i, exps), c in v.items():
            for x, e in zip(point, exps):
                c *= x ** e
            row[i] += c
        rows.append(row)
    return len(rref(rows)) == l


def freeness_test(lm):
    """pdim and, when free, the exponents, from the minimal resolution.

    A free D_0 is certified by Saito's criterion on chi and the generators
    its minimal resolution keeps, which with chi form a basis of D; for
    l = 1, D_0 = 0 and chi alone has determinant f.
    """
    res = lm.minimal_resolution()
    is_free = res.length == 0
    exponents = sorted(res.terms[0].twists) if is_free else None
    saito = is_free and lm.kind == "D0"
    if saito:
        dd = lm.defining
        vectors = [_euler_vector(dd.arity)] + [lm.vectors[i]
                                               for i in res.kept]
        if not _saito_check(dd, vectors):
            raise EngineError("free D_0 failed the Saito determinant check")
    return FreenessReport(lm.kind, is_free, exponents, res.length,
                          saito_checked=saito)


class NonFreeLocusReport:
    """Ext^1 data of Omega^1_0: cone dimension, N, optional per-flat sums."""

    __slots__ = ("ext1", "cone_dim", "n_projective", "per_flat")

    def __init__(self, ext1, cone_dim, n_projective, per_flat=None):
        self.ext1 = ext1
        self.cone_dim = cone_dim
        self.n_projective = n_projective
        self.per_flat = per_flat

    def to_dict(self):
        out = {"cone_dim": self.cone_dim, "N": self.n_projective}
        if self.per_flat is not None:
            out["per_flat"] = {
                "-".join(str(i) for i in sorted(flat.indices)): v
                for flat, v in self.per_flat.items()}
            out["per_flat_sum"] = sum(self.per_flat.values())
        return out


def nonfree_locus(lm, per_flat=False, chart=None, degree_cap=DEGREE_CAP,
                  lattice=None):
    """N(PA) from the graded Ext^1 of Omega^1_0 over the cone.

    The Hilbert polynomial of Ext^1 is constant once the support is a cone
    over finitely many projective points (cone dimension <= 1); that
    constant is N; both read the Hilbert series of Ext^1, not a resolution.
    With ``per_flat`` the point-by-point route of the localization formula
    is computed (on ``lattice`` when given) and compared.
    """
    if lm.kind != "Omega1_0":
        raise InputError("the non-free locus is read off Omega^1_0")
    ext1 = ext1_against_ring(lm.presentation)
    cone_dim = krull_dim(ext1)
    if cone_dim > 1:
        raise HypothesisError(
            f"non-free locus is not zero-dimensional (Ext^1 support has "
            f"cone dimension {cone_dim}); N is undefined")
    hp = hilbert_polynomial(ext1)
    if hp.is_zero():
        n_proj = 0
    else:
        if hp.degree() != 0:
            raise EngineError("Ext^1 Hilbert polynomial is non-constant "
                              "despite low-dimensional support")
        value = hp.coeffs[0]
        if value != int(value):
            raise EngineError("Ext^1 multiplicity is not an integer")
        n_proj = int(value)
    per = None
    if per_flat:
        per = per_flat_n_values(lm.defining.arrangement, lattice=lattice,
                                chart=chart, degree_cap=degree_cap)
        if sum(per.values()) != n_proj:
            raise EngineError(
                f"per-flat N sum {sum(per.values())} disagrees with the "
                f"graded Ext route {n_proj}")
    return NonFreeLocusReport(ext1, cone_dim, n_proj, per)


def affine_n_value(arr, degree_cap=DEGREE_CAP):
    """N of one point q of the non-free locus, the length of
    Ext^1(D^*, S') for D = D(A'_q), the central arrangement of the affine
    chart centred at q (`_centred_localization`); D is the kernel of the
    module docstring without the row sum_H h_H.

    No dual is taken.  Over S' = Q[z_1..z_m] D is reflexive and, at an
    isolated point, locally free off the origin, so with E = D~ on
    P^(m-1), local duality at the origin and Serre duality give
    length Ext^1(D^*, S') = sum_k h^(m-2)(E^v(k)) = sum_k h^1(E(k)) =
    length Ext^(m-2)(D, S').  D has depth >= 2, so its projective dimension
    p is at most m - 2 (Auslander-Buchsbaum), and Ext^(m-2) is the top Ext
    of D's minimal resolution when p = m - 2, else 0.  D is locally free
    off the origin iff every Ext^i, 0 < i <= p, has finite length; for
    m <= 3, p <= 1 and the top one, which needs no kernel, is the only one.
    """
    if not arr.is_central:
        raise InputError("affine_n_value expects the central arrangement "
                         "of a chart centred at a point")
    if arr.n < 1:
        raise InputError("defining polynomial needs at least one hyperplane")
    arity = arr.dim
    d = presentation_of_basis(_derivation_basis(arr, d0=False),
                              GradedFreeModule(arity, [0] * arity))
    res = d.minimal_resolution()
    if res.length == 0:
        return 0
    if res.length > arity - 2:
        raise EngineError(f"reflexive D(A'_q) has projective dimension "
                          f"{res.length} > {arity - 2}")
    exts = [ext_from_resolution(res, i) for i in range(1, res.length + 1)]
    if any(krull_dim(ext) > 0 for ext in exts):
        raise HypothesisError("affine non-free locus is not zero-dimensional")
    if res.length < arity - 2:
        return 0
    # finite_length would only repeat the Krull dimension check above
    return total_dimension(exts[-1], degree_cap=degree_cap)


def _centred_localization(arr, flat, chart=None):
    """A'_q for the point q of a rank-(l-1) flat: the normals of the
    localization at q with coordinate ``chart`` dropped, which must be
    nonzero on q (default: its first nonzero coordinate).  On the chart
    z_c = 1 a form alpha vanishing at q is sum_{i != c} a_i (z_i - q_i)."""
    sub = localize(arr, flat)
    direction = flat.subspace_basis()
    if len(direction) != 1:
        raise InputError("chart construction needs a codimension l-1 flat")
    v = direction[0]
    if chart is None:
        chart = next(i for i, x in enumerate(v) if x != 0)
    elif not 0 <= chart < arr.dim or v[chart] == 0:
        raise InputError(
            f"chart {chart} does not contain the point of this flat")
    return Arrangement(arr.dim - 1,
                       [a[:chart] + a[chart + 1:] for a in sub.normals])


def per_flat_n_values(arr, lattice=None, chart=None, degree_cap=DEGREE_CAP):
    """N(A_X) per codimension-(l-1) flat, per the localization formula:
    ``affine_n_value`` of the flat's point on the chart centred there.

    Points whose A'_q have the same normals, in order, share one
    computation.  An A'_q of l - 1 hyperplanes (a normal-crossing point)
    has independent normals: it is boolean, so free, and its N is 0.
    """
    if not arr.is_central:
        raise InputError("per-flat N values need a central arrangement")
    if arr.dim < 2:
        raise InputError("per-flat N values need l >= 2: the flats of "
                         "codimension l - 1 are points of P^(l-1)")
    lat = lattice or build_lattice(arr)
    by_normals = {}
    values = {}
    for flat in lat.flats_of_codim(arr.dim - 1):
        local = _centred_localization(arr, flat, chart=chart)
        if local.n == local.dim:
            by_normals[local.normals] = 0
        elif local.normals not in by_normals:
            by_normals[local.normals] = affine_n_value(
                local, degree_cap=degree_cap)
        values[flat] = by_normals[local.normals]
    return values
