"""Exact polynomial arithmetic: multivariate polynomials over Q, truncated
univariate rings Z[t]/<t^l> used as Chow rings, and dense univariate
rationals for Hilbert polynomials.

Coefficients are `int` or `fractions.Fraction`, never floats.  A coefficient
is stored as `int` whenever its denominator is 1, so integer-only data stays
on the integer fast path.
"""

from fractions import Fraction
from math import factorial, gcd

from .errors import ArityMismatchError, InputError, NonUnitError


def normalize_coeff(c):
    """Return c as an int when exact, else as a Fraction."""
    if isinstance(c, int):
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order via tuple compare."""
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def var_names(arity):
    if arity <= 4:
        return ("x", "y", "z", "w")[:arity]
    return tuple(f"z{i + 1}" for i in range(arity))


def coeff_str(c):
    c = normalize_coeff(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


def monomial_str(exps, names):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class MultiPoly:
    """A multivariate polynomial over Q with a fixed number of variables.

    Terms map exponent tuples to nonzero coefficients.  Instances are
    immutable by convention; all operations return new polynomials.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None, *, _clean=False):
        self.arity = arity
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for exps, c in terms.items():
                c = normalize_coeff(c)
                if c:
                    exps = tuple(exps)
                    if len(exps) != arity:
                        raise ArityMismatchError(
                            f"exponent tuple {exps} has length != {arity}")
                    clean[exps] = c
            self.terms = clean

    # ----- constructors -----

    @classmethod
    def zero(cls, arity):
        return cls(arity, {}, _clean=True)

    @classmethod
    def constant(cls, arity, c):
        c = normalize_coeff(c)
        if not c:
            return cls.zero(arity)
        return cls(arity, {(0,) * arity: c}, _clean=True)

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, arity, i):
        exps = tuple(1 if j == i else 0 for j in range(arity))
        return cls(arity, {exps: 1}, _clean=True)

    @classmethod
    def linear_form(cls, coeffs):
        """The form sum(coeffs[i] * z_i)."""
        arity = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = normalize_coeff(c)
            if c:
                exps = tuple(1 if j == i else 0 for j in range(arity))
                terms[exps] = c
        return cls(arity, terms, _clean=True)

    # ----- predicates and data -----

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Degree if homogeneous and nonzero, else raises."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise InputError("polynomial is zero or not homogeneous")
        return degs.pop()

    def constant_term(self):
        return self.terms.get((0,) * self.arity, 0)

    def leading(self):
        """(exps, coeff) of the grevlex-leading term."""
        exps = max(self.terms, key=grevlex_key)
        return exps, self.terms[exps]

    # ----- arithmetic -----

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatchError(
                f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.arity, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = normalize_coeff(s)
            else:
                terms.pop(exps, None)
        return MultiPoly(self.arity, terms, _clean=True)

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()},
                         _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.arity, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = normalize_coeff(other)
            if not c:
                return MultiPoly.zero(self.arity)
            return MultiPoly(
                self.arity,
                {e: normalize_coeff(v * c) for e, v in self.terms.items()},
                _clean=True)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(self.arity,
                         {e: normalize_coeff(c) for e, c in out.items()},
                         _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative power of a polynomial")
        result = MultiPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.arity, other)
        return isinstance(other, MultiPoly) and self.arity == other.arity \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def partial(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                de = exps[:i] + (e - 1,) + exps[i + 1:]
                terms[de] = normalize_coeff(terms.get(de, 0) + c * e)
        return MultiPoly(self.arity, terms)

    def divide_exact(self, divisor):
        """Exact quotient self / divisor; raises InputError on a remainder."""
        if divisor.is_zero():
            raise InputError("division by zero polynomial")
        rem = dict(self.terms)
        quot = {}
        dl, dc = divisor.leading()
        while rem:
            exps = max(rem, key=grevlex_key)
            u = tuple(a - b for a, b in zip(exps, dl))
            if any(e < 0 for e in u):
                raise InputError("polynomial division is not exact")
            q = Fraction(rem[exps]) / Fraction(dc)
            quot[u] = q
            for de, c in divisor.terms.items():
                e = tuple(a + b for a, b in zip(u, de))
                s = rem.get(e, 0) - q * c
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return MultiPoly(self.arity, quot)

    # ----- output -----

    def sorted_terms(self):
        """Terms in descending grevlex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def render(self, names=None):
        if not self.terms:
            return "0"
        names = names or var_names(self.arity)
        parts = []
        for exps, c in self.sorted_terms():
            mono = monomial_str(exps, names)
            if not mono:
                body = coeff_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{coeff_str(abs(c))}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.render()})"


def poly_product(polys, arity=None):
    """Product of an iterable of MultiPoly (1 on empty input)."""
    polys = list(polys)
    if not polys:
        if arity is None:
            raise InputError("empty product needs an explicit arity")
        return MultiPoly.one(arity)
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


class TruncatedPoly:
    """Element of Z[t]/<t^l> (or Q[t]/<t^l>): coefficients c_0..c_{l-1}.

    Arithmetic discards all degrees >= l.  Integer coefficients are kept
    as ints; rational entries fall back to Fraction transparently.
    """

    __slots__ = ("l", "coeffs")

    def __init__(self, l, coeffs):
        if l < 1:
            raise InputError("truncation order must be >= 1")
        cs = [normalize_coeff(c) for c in coeffs[:l]]
        cs += [0] * (l - len(cs))
        self.l = l
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, l):
        return cls(l, [1])

    @classmethod
    def linear(cls, l, a):
        """1 + a*t."""
        return cls(l, [1, a])

    @property
    def is_integral(self):
        return all(isinstance(c, int) for c in self.coeffs)

    def _check(self, other):
        if self.l != other.l:
            raise ArityMismatchError(
                f"truncation orders differ: {self.l} vs {other.l}")

    def __add__(self, other):
        self._check(other)
        return TruncatedPoly(self.l,
                             [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TruncatedPoly(self.l,
                             [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncatedPoly(self.l, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedPoly(self.l, [c * other for c in self.coeffs])
        self._check(other)
        out = [0] * self.l
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.l - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedPoly(self.l, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse mod t^l; constant term must be a unit."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise NonUnitError("constant term 0 is not invertible")
        # a0 in {1,-1} keeps the integer fast path: 1/a0 == a0
        inv0 = a0 if a0 in (1, -1) else Fraction(1) / Fraction(a0)
        out = [normalize_coeff(inv0)]
        for k in range(1, self.l):
            s = sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
            out.append(normalize_coeff(-s * inv0))
        return TruncatedPoly(self.l, out)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncatedPoly.one(self.l)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_negate(self):
        """p(t) -> p(-t)."""
        return TruncatedPoly(
            self.l, [c if i % 2 == 0 else -c
                     for i, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        return isinstance(other, TruncatedPoly) and self.l == other.l \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.l, self.coeffs))

    def render(self, var="t"):
        return render_univariate(self.coeffs, var)

    def __repr__(self):
        return f"TruncatedPoly(l={self.l}, {self.render()})"


def render_univariate(coeffs, var, ascending=False):
    """Human rendering of a dense coefficient list.

    Hilbert polynomials read best in descending powers, Chern/CSM classes
    in ascending powers (as the truncated rings are usually written).
    """
    order = range(len(coeffs)) if ascending \
        else range(len(coeffs) - 1, -1, -1)
    parts = []
    for i in order:
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            body = coeff_str(abs(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            if abs(c) == 1:
                body = v
            elif isinstance(c, int):
                body = f"{abs(c)}{v}"
            else:
                body = f"({coeff_str(abs(c))}){v}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class UniPolyQ:
    """Dense univariate polynomial with rational coefficients (Hilbert
    polynomials and Poincare-style generating series)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [normalize_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def t(cls):
        return cls([0, 1])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return UniPolyQ([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPolyQ([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPolyQ([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UniPolyQ.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPolyQ(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, UniPolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return normalize_coeff(acc)

    def substitute_negate(self):
        """p(t) -> p(-t); an involution."""
        return UniPolyQ([c if i % 2 == 0 else -c
                         for i, c in enumerate(self.coeffs)])

    def render(self, var="t"):
        return render_univariate(self.coeffs, var)

    def __repr__(self):
        return f"UniPolyQ({self.render()})"


def binomial_poly(a, k):
    """binom(t - a + k, k) as a UniPolyQ in t: the Hilbert polynomial of
    S(-a) over a polynomial ring in k+1 variables."""
    out = UniPolyQ.constant(1)
    for s in range(1, k + 1):
        out = out * UniPolyQ([s - a, 1])
    return out * Fraction(1, factorial(k))


def vec_primitive(vec):
    """Scale an integer vector to primitive form with positive first nonzero.

    Returns the zero vector unchanged.
    """
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    out = tuple(v // g for v in vec)
    for v in out:
        if v > 0:
            return out
        if v < 0:
            return tuple(-x for x in out)
    return out


def rational_vec_primitive(vec):
    """Clear denominators of a rational vector and reduce to primitive form."""
    fr = [Fraction(v) for v in vec]
    den = 1
    for f in fr:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    return vec_primitive(ints)
