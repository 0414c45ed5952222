"""Chow-ring computations on PV = P^(l-1): Chern polynomials of sheafified
modules via the Whitney formula, CSM classes of arrangement complements,
and the verification of the Mustata-Schenck, Denham-Schulze and main
defect identities by computing both sides independently.

A Chern polynomial depends only on the K-class of the sheaf, that is on
the alternating count c_a of the twists a in any graded free resolution.
The numerator sum_j t^(a_j) K_j(t) of the Hilbert series has the same
coefficients, so ``chern_from_hilbert`` needs no resolution; it and
``chern_from_resolution`` share the one Whitney product
prod_a (1 + (shift - a) t)^(c_a).

The Chern variable t and the Chow variable h both live in Z[.]/<.^l>;
``chow_from_chern`` is the single conversion point between them.
"""

from math import comb, factorial

from .arrangements import build_lattice, poincare_projective
from .errors import EngineError, HypothesisError, InputError
from .log_geometry import freeness_test, log_modules, nonfree_locus
from .modules import hilbert_numerators
from .rings import TruncatedPoly, render_univariate


def _integer_coeffs(l, coeffs):
    """The first l coefficients, padded with zeros, as ints; InputError
    if one of them is not an integer."""
    coeffs = list(coeffs)[:l]
    coeffs += [0] * (l - len(coeffs))
    if any(c != int(c) for c in coeffs):
        raise InputError("Chern coefficients must be integers")
    return tuple(int(c) for c in coeffs)


class _IntegerClass:
    """Integer coefficients c_0 .. c_(l-1) of an element of Z[x]/<x^l>,
    x = ``var``; sums and differences need equal l, or raise
    ArityMismatchError."""

    __slots__ = ("l", "coeffs")
    var = None

    def __init__(self, l, coeffs):
        self.l = l
        self.coeffs = _integer_coeffs(l, coeffs)

    def as_truncated(self):
        return TruncatedPoly(self.l, list(self.coeffs))

    def __add__(self, other):
        return type(self)(self.l, (self.as_truncated()
                                   + other.as_truncated()).coeffs)

    def __sub__(self, other):
        return type(self)(self.l, (self.as_truncated()
                                   - other.as_truncated()).coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.l == other.l \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.l, self.coeffs))

    def render(self):
        return render_univariate(self.coeffs, self.var, ascending=True)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class ChernPoly(_IntegerClass):
    """Total Chern polynomial c_t truncated mod t^l, integer coefficients."""

    __slots__ = ()
    var = "t"

    @classmethod
    def one(cls, l):
        return cls(l, [1])

    def __mul__(self, other):
        return ChernPoly(self.l, (self.as_truncated()
                                  * other.as_truncated()).coeffs)


class ChowClass(_IntegerClass):
    """Integer class a_0 + a_1 h + ... + a_(l-1) h^(l-1) in Z[h]/<h^l>."""

    __slots__ = ()
    var = "h"


def chow_from_chern(ct):
    """Identify t with the hyperplane class h (the one conversion site)."""
    return ChowClass(ct.l, ct.coeffs)


def _whitney(counts, shift, l):
    """prod_a (1 + (shift - a) t)^(c_a) mod t^l over the alternating twist
    counts ``counts`` = {a: c_a}, the one Whitney product; every factor
    has constant term 1, so its inverse stays integral."""
    out = TruncatedPoly.one(l)
    for a, c in counts.items():
        out = out * TruncatedPoly.linear(l, shift - a) ** c
    return ChernPoly(l, out.coeffs)


def chern_from_resolution(res, shift, l):
    """Whitney formula on a sheafified graded free resolution:
    prod_i (prod_j (1 + (shift - a_ij) t))^((-1)^i)  mod t^l."""
    counts = {}
    for i, F in enumerate(res.terms):
        for a in F.twists:
            counts[a] = counts.get(a, 0) + (-1) ** i
    return _whitney(counts, shift, l)


def chern_from_hilbert(pres, shift, l):
    """The Whitney formula on the Hilbert series: c_a is the coefficient of
    t^a in sum_j t^(a_j) K_j(t), the numerator over (1 - t)^l, which is
    the alternating twist count of every graded free resolution."""
    counts = {}
    for a, num in zip(pres.target.twists, hilbert_numerators(pres)):
        for i, c in enumerate(num):
            counts[a + i] = counts.get(a + i, 0) + c
    return _whitney(counts, shift, l)


def chern_dual(ct):
    """c_t -> c_(-t), the Chern polynomial of the dual bundle class."""
    return ChernPoly(ct.l, ct.as_truncated().substitute_negate().coeffs)


def twist_chern(ct, l):
    """Twist a rank-(l-1) class by O(1):
    c_k' = sum_i binom(l-1-i, k-i) c_i."""
    if ct.l != l:
        raise InputError("truncation order mismatch")
    out = []
    for k in range(l):
        out.append(sum(comb(l - 1 - i, k - i) * ct.coeffs[i]
                       for i in range(k + 1)))
    return ChernPoly(l, out)


def chern_point(d):
    """Chern polynomial of a reduced point in P^d:
    1 + (-1)^(d-1) (d-1)! t^d in Z[t]/<t^(d+1)>."""
    if d < 1:
        raise InputError("chern_point needs projective dimension d >= 1")
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    coeffs[d] = (-1) ** (d - 1) * factorial(d - 1)
    return ChernPoly(d + 1, coeffs)


def csm_complement(pi, l):
    """CSM class of the complement from the projective Poincare polynomial:
    (1+h)^(l-1) pi(-h/(1+h)) expanded as
    sum_k (sum_i (-1)^i b_i binom(l-1-i, k-i)) h^k."""
    if pi.coefficient(0) != 1:
        raise InputError("Poincare polynomial must have constant term 1")
    out = []
    for k in range(l):
        out.append(sum((-1) ** i * pi.coefficient(i) * comb(l - 1 - i, k - i)
                       for i in range(k + 1)))
    return ChowClass(l, out)


def csm_of_divisor(pi, l):
    """CSM class of the arrangement divisor:
    ((1+h)^l - h^l) - c_SM(complement)."""
    ambient = ChowClass(l, [comb(l, k) for k in range(l)])
    return ambient - csm_complement(pi, l)


def _pi_chern(pi, l):
    return ChernPoly(l, [pi.coefficient(i) for i in range(l)])


def verify_mustata_schenck(ct, pi):
    """Residual  c_t(Omega^1(PA)(1)) - pi(PA, t);  zero iff the projective
    Mustata-Schenck identity holds (expected for locally free inputs)."""
    return ct - _pi_chern(pi, ct.l)


def verify_denham_schulze(ct, pi, n_value, l):
    """Residual  c_t(Omega^1(PA)(1)) - pi(PA, t) - N t^(l-1);  zero is the
    locally tame, zero-dimensional-non-free-locus identity."""
    correction = [0] * l
    correction[l - 1] = n_value
    return ct - _pi_chern(pi, l) - ChernPoly(l, correction)


def defect_coefficient(l):
    """The scalar (-1)^(l-1) + (-1)^(l-2) (l-2)! of the defect term."""
    if l < 2:
        raise InputError("defect coefficient needs l >= 2")
    return (-1) ** (l - 1) + (-1) ** l * factorial(l - 2)


def _dual_route(ct_omega, ext1, l):
    """c(Omega^1(PA)^v) from c_t(Omega^1(PA)(1)) and the presented
    Ext^1(Omega^1_0, S) =: E: in K-theory Omega^1(PA)^v(-1) is
    Omega^1(PA)(1)^v + E~(-1), then twist by O(1)."""
    return twist_chern(chern_dual(ct_omega)
                       * chern_from_hilbert(ext1, -1, l), l)


class VerificationReport:
    """Both sides of the main identity plus the predicted defect.

    residual = lhs - rhs_csm - predicted_defect; the identity holds exactly
    when the residual vanishes.  When the non-free locus is not
    zero-dimensional, N and the residual are None and ``applicable`` is
    False: only the two sides are reported.
    """

    __slots__ = ("l", "lhs", "rhs_csm", "csm_divisor", "n_value",
                 "defect_coeff", "predicted_defect", "residual",
                 "pi_projective", "ct_omega_twisted", "ms_residual",
                 "ds_residual", "freeness", "hypotheses", "applicable",
                 "per_flat")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    def holds(self):
        return self.residual is not None and self.residual.is_zero()

    def to_dict(self):
        out = {
            "lhs": list(self.lhs.coeffs),
            "csm": list(self.rhs_csm.coeffs),
            "csm_divisor": list(self.csm_divisor.coeffs),
            "N": self.n_value,
            "defect_coeff": self.defect_coeff,
            "predicted_defect": list(self.predicted_defect.coeffs)
            if self.predicted_defect is not None else None,
            "residual": list(self.residual.coeffs)
            if self.residual is not None else None,
            "pi_projective": list(self.pi_projective.coeffs),
            "ct_omega1_twisted": list(self.ct_omega_twisted.coeffs),
            "ms_residual": list(self.ms_residual.coeffs),
            "ds_residual": list(self.ds_residual.coeffs)
            if self.ds_residual is not None else None,
            "freeness": self.freeness.to_dict(),
            "hypotheses": dict(self.hypotheses),
            "applicable": self.applicable,
        }
        if self.per_flat is not None:
            out["per_flat"] = {
                "-".join(str(i) for i in sorted(flat.indices)): v
                for flat, v in sorted(
                    self.per_flat.items(),
                    key=lambda kv: sorted(kv[0].indices))}
        rendered = {
            "lhs": self.lhs.render(),
            "csm": self.rhs_csm.render(),
            "csm_divisor": self.csm_divisor.render(),
            "pi_projective": self.pi_projective.render(),
            "ct_omega1_twisted": self.ct_omega_twisted.render(),
            "ms_residual": self.ms_residual.render(),
        }
        if self.predicted_defect is not None:
            rendered["predicted_defect"] = self.predicted_defect.render()
            rendered["residual"] = self.residual.render()
            rendered["ds_residual"] = self.ds_residual.render()
        out["rendered"] = rendered
        return out


def certify_hypotheses(arr, assume_locally_tame):
    """Local tameness policy: automatic through l = 4, asserted beyond."""
    l = arr.dim
    if l <= 4:
        return {"locally_tame": "automatic",
                "reason": "all arrangements in P^3 and below are locally tame"}
    if assume_locally_tame:
        return {"locally_tame": "asserted",
                "reason": "user asserted local tameness for l >= 5"}
    raise HypothesisError(
        f"local tameness is not automatic for l = {l}; "
        "pass assume_locally_tame to proceed")


def verify_main_theorem(arr, assume_locally_tame=False, per_flat_check=False):
    """Compute both sides of the defect identity independently.

    lhs: total Chern class of the dual logarithmic sheaf, the Whitney
    product over the Hilbert series of D_0.  rhs: CSM class of the
    complement from the intersection lattice.  N: from the graded Ext^1 of
    Omega^1_0, the one module resolved.  Its Chern class from that
    resolution must equal the one from its Hilbert series; a third route
    (dualize, multiply by the class of Ext^1(-1), twist) must reproduce the
    lhs exactly; and when Omega^1_0 is free, D_0 must be free and pass
    Saito's criterion, with exponents d_i satisfying Terao's factorization
    pi(PA, t) = prod (1 + d_i t).  Otherwise an EngineError is raised.
    """
    if not arr.is_central:
        raise InputError("the main identity concerns central arrangements")
    if arr.n < 1:
        raise InputError("at least one hyperplane is required")
    l = arr.dim
    if l < 2:
        raise InputError("projective verification needs l >= 2")
    hypotheses = certify_hypotheses(arr, assume_locally_tame)

    # combinatorial side
    lat = build_lattice(arr)
    pi_proj = poincare_projective(arr, lat)
    rhs_csm = csm_complement(pi_proj, l)
    divisor_csm = csm_of_divisor(pi_proj, l)

    # commutative-algebra side
    _, d0, _, _, om0 = log_modules(arr)
    lhs_ct = chern_from_hilbert(d0.presentation, 1, l)
    lhs = chow_from_chern(lhs_ct)
    freeness = freeness_test(om0)
    ct_omega = chern_from_resolution(om0.minimal_resolution(), 1, l)
    if chern_from_hilbert(om0.presentation, 1, l) != ct_omega:
        raise EngineError("Hilbert series and resolution of Omega^1_0 give "
                          "different Chern polynomials")
    if freeness.is_free:
        d0_free = freeness_test(d0)
        if not d0_free.is_free:
            raise EngineError("Omega^1_0 is free but D_0 is not")
        terao = ChernPoly.one(l)
        for d in d0_free.exponents:
            terao = terao * ChernPoly(l, [1, d])
        if terao != _pi_chern(pi_proj, l):
            raise EngineError(
                "free arrangement fails Terao's factorization: "
                f"{terao.render()} vs pi = {pi_proj.render()}")

    ms_res = verify_mustata_schenck(ct_omega, pi_proj)
    applicable = True
    n_value = None
    per_flat = None
    try:
        nfl = nonfree_locus(om0, per_flat=per_flat_check, lattice=lat)
        n_value = nfl.n_projective
        per_flat = nfl.per_flat
        hypotheses["non_free_locus"] = (
            f"zero-dimensional (Ext^1 cone dimension {nfl.cone_dim})")
    except HypothesisError as exc:
        applicable = False
        hypotheses["non_free_locus"] = str(exc)

    coeff = defect_coefficient(l)
    if applicable:
        defect_coeffs = [0] * l
        defect_coeffs[l - 1] = coeff * n_value
        predicted_defect = ChowClass(l, defect_coeffs)
        residual = lhs - rhs_csm - predicted_defect
        ds_res = verify_denham_schulze(ct_omega, pi_proj, n_value, l)
        # third route, from Omega^1_0 and its Ext^1 (both still built from
        # the dual of D_0), must give the lhs read off D_0's Hilbert series
        route3 = _dual_route(ct_omega, nfl.ext1, l)
        if route3 != lhs_ct:
            raise EngineError(
                "dual/twist route disagrees with the Hilbert series of D_0: "
                f"{route3.render()} vs {lhs_ct.render()}")
    else:
        predicted_defect = None
        residual = None
        ds_res = None

    return VerificationReport(
        l=l, lhs=lhs, rhs_csm=rhs_csm, csm_divisor=divisor_csm,
        n_value=n_value, defect_coeff=coeff,
        predicted_defect=predicted_defect, residual=residual,
        pi_projective=pi_proj, ct_omega_twisted=ct_omega,
        ms_residual=ms_res, ds_residual=ds_res, freeness=freeness,
        hypotheses=hypotheses, applicable=applicable, per_flat=per_flat)
