"""Monomial orders on free modules, over packed module terms.

A module term is a monomial sitting in component ``pos`` of a free module
over ``l`` variables.  Outside the engine it is the pair ``(pos, exps)``;
inside it is one Python int, packed by the order:

    t = pos << (FIELD_BITS * l)  |  sum(exps[i] << (FIELD_BITS * i))

Each exponent owns a ``FIELD_BITS``-wide field, the last variable in the
most significant one, and the top bit of every field is a guard bit that a
valid term keeps clear, so an exponent is at most ``EXP_LIMIT - 1``.  With
``guard`` the mask of all guard bits:

* a monomial shift is ``t + u`` (a field sum stays below ``2 * EXP_LIMIT``,
  so it never carries into the next field);
* the quotient of ``t`` by a divisor ``s`` is ``t - s``;
* ``s`` divides ``t`` in one component iff ``((t | guard) - s) & guard ==
  guard``: each field borrows from its own guard bit and from nothing else;
* a term is valid iff ``t & guard == 0``, so an exponent that outgrows its
  field shows in one ``&`` and is never carried silently into its
  neighbour.  `pack` and the engine raise `EngineError` naming
  ``EXP_LIMIT - 1`` on any such term.

Because the last variable is most significant, the exponent part
``t & mask`` of two terms compares as ``exps[::-1]`` does, which is the
reverse-lex tie-break of grevlex.

An order turns a packed term into a sort key; a *smaller* key means a
*larger* term, so ``min(terms, key=...)`` is the leading term and a plain
min-heap pops terms from the largest down.  The numeric parts are negated
once, when the key is built.  Each order instance keeps one memo of its
keys, so repeated comparisons during reduction are cheap.

Layouts:

* TOP ("term over position"): compare by twisted total degree, then
  grevlex on the monomial, then prefer the smaller position.  Degree
  compatible, the order of every Groebner run on a presentation.
* POT ("position over term"): smaller position dominates outright, then
  grevlex on the monomial; the elimination order of kernel computations.
* Schreyer: the order induced on a syzygy module by the leading terms of a
  Groebner basis; compares images in the parent module, ties broken by
  preferring the smaller index.
"""

from struct import Struct, error as StructError

from .errors import EngineError

FIELD_BITS = 16
EXP_LIMIT = 1 << (FIELD_BITS - 1)


def overflow_error(exps):
    return EngineError(f"exponent vector {tuple(exps)} exceeds the packed "
                       f"exponent limit {EXP_LIMIT - 1}")


class ModuleOrder:
    """Base: the packed layout over ``arity`` variables and the memoized
    key machinery shared by all concrete orders."""

    __slots__ = ("_cache", "arity", "shift", "mask", "guard", "_fields")

    def __init__(self, arity):
        self._cache = {}
        self.arity = arity
        self.shift = FIELD_BITS * arity
        self.mask = (1 << self.shift) - 1
        self.guard = sum(1 << (FIELD_BITS * i + FIELD_BITS - 1)
                         for i in range(arity))
        self._fields = Struct(f"<{arity}H")

    def pack(self, term):
        """``(pos, exps)`` -> packed term; `EngineError` if an exponent
        does not fit its field."""
        pos, exps = term
        try:
            m = int.from_bytes(self._fields.pack(*exps), "little")
        except StructError:
            raise overflow_error(exps) from None
        if m & self.guard:
            raise overflow_error(exps)
        return (pos << self.shift) | m

    def exponents(self, t):
        """Exponent tuple of a packed term (fields read as they are)."""
        return self._fields.unpack((t & self.mask).to_bytes(
            2 * self.arity, "little"))

    def unpack(self, t):
        """Packed term -> ``(pos, exps)``."""
        return t >> self.shift, self.exponents(t)

    def degree(self, t):
        """Total degree of the monomial of a packed term."""
        return sum(self.exponents(t))

    def divides(self, s, t):
        """True if packed term ``s`` divides ``t`` (same position)."""
        g = self.guard
        return (t >> self.shift == s >> self.shift
                and ((t | g) - s) & g == g)

    def key(self, term):
        """Memoized sort key of a packed ``term``; smaller key = larger
        term."""
        k = self._cache.get(term)
        if k is None:
            k = self._key(term)
            self._cache[term] = k
        return k

    def _key(self, term):  # pragma: no cover - abstract
        raise NotImplementedError


class TOPOrder(ModuleOrder):
    """Degree-first order: higher twisted degree, then the grevlex
    (reverse-lex) tie-break on the monomial, then the smaller position
    wins."""

    __slots__ = ("twists",)

    def __init__(self, arity, twists=None):
        super().__init__(arity)
        self.twists = tuple(twists) if twists is not None else None

    def _key(self, term):
        pos = term >> self.shift
        tw = self.twists[pos] if self.twists is not None else 0
        return (-self.degree(term) - tw, term & self.mask, pos)


class POTOrder(ModuleOrder):
    """Elimination order: the smaller position dominates, then grevlex
    (degree first) on the monomial."""

    __slots__ = ()

    def _key(self, term):
        return (term >> self.shift, -self.degree(term), term & self.mask)


class SchreyerOrder(ModuleOrder):
    """Order induced on S^m by a Groebner basis g_1..g_m in the parent:
    (mon, i) > (mon', j) iff mon*lt(g_i) > mon'*lt(g_j) in the parent order,
    with ties won by the smaller index.  Terms of S^m are packed in the
    parent's layout, with the index as position."""

    __slots__ = ("parent", "lead_terms")

    def __init__(self, parent, lead_terms):
        super().__init__(parent.arity)
        self.parent = parent
        self.lead_terms = tuple(lead_terms)  # packed terms in the parent

    def _key(self, term):
        pos = term >> self.shift
        image = self.lead_terms[pos] + (term & self.mask)
        if image & self.guard:
            raise overflow_error(self.exponents(image))
        return (self.parent.key(image), pos)
