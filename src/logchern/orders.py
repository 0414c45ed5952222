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

An order turns a packed term into one int sort key; a *smaller* key means
a *larger* term, so ``min(terms, key=...)`` is the leading term and a plain
min-heap of keys pops terms from the largest down.  Keys are unique per
term: each order instance keeps one memo of its keys and its inverse,
key -> term, so the engine's heap holds bare ints and reads each popped
term back from the inverse.

Layouts, each a concatenation of fixed-width bit fields (``m`` is the
exponent part ``t & mask``, ``deg`` the total degree of the monomial):

* TOP ("term over position"): compare by twisted total degree, then
  grevlex on the monomial, then prefer the smaller position; the key is
  ``-(deg + twist) | m | pos``, with ``pos`` in a low field of
  ``POS_BITS`` bits.  Degree compatible, the order of every Groebner run
  on a presentation.
* POT ("position over term"): smaller position dominates outright, then
  grevlex on the monomial; the key is ``pos | (max degree - deg) | m``.
  The elimination order of kernel computations.
* Schreyer: the order induced on a syzygy module by the leading terms of a
  Groebner basis; compares images in the parent module, ties broken by
  preferring the smaller index: the key is ``parent key | pos``, again
  with ``pos`` in a low field of ``POS_BITS`` bits.

The leading field may be negative (a TOP degree part); ``(a << w) | b``
with ``0 <= b < 2**w`` is ``a * 2**w + b`` for every int ``a``, so the
int compares as the tuple of its fields would.  A TOP or Schreyer position
of ``POS_LIMIT`` or more does not fit its field and raises `EngineError`.
"""

from struct import Struct, error as StructError

from .errors import EngineError

FIELD_BITS = 16
EXP_LIMIT = 1 << (FIELD_BITS - 1)
FIELD_MASK = (1 << FIELD_BITS) - 1
POS_BITS = 16
POS_LIMIT = 1 << POS_BITS


def overflow_error(exps):
    return EngineError(f"exponent vector {tuple(exps)} exceeds the packed "
                       f"exponent limit {EXP_LIMIT - 1}")


def position_error(pos):
    return EngineError(f"position {pos} exceeds the key's position limit "
                       f"{POS_LIMIT - 1}")


class ModuleOrder:
    """Base: the packed layout over ``arity`` variables and the memoized
    key machinery shared by all concrete orders."""

    __slots__ = ("_cache", "_term", "arity", "shift", "mask", "guard",
                 "_fields", "_wide")

    def __init__(self, arity):
        self._cache = {}
        self._term = {}
        self.arity = arity
        self.shift = FIELD_BITS * arity
        self.mask = (1 << self.shift) - 1
        self.guard = sum(1 << (FIELD_BITS * i + FIELD_BITS - 1)
                         for i in range(arity))
        self._fields = Struct(f"<{arity}H")
        # the high bits of every field: while they are clear, each exponent
        # is at most (FIELD_MASK - 1) // arity, so the field sum that
        # `degree` reads off modulo FIELD_MASK stays below FIELD_MASK
        narrow = (FIELD_MASK - 1) // max(arity, 1) + 1
        low = (1 << (narrow.bit_length() - 1)) - 1
        self._wide = sum((FIELD_MASK ^ low) << (FIELD_BITS * i)
                         for i in range(arity))

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
        """Total degree of the monomial of a packed term.  Since
        ``2**FIELD_BITS`` is 1 modulo ``FIELD_MASK``, the exponent part is
        congruent to its field sum, which is the degree whenever no field
        uses a bit of ``_wide``."""
        m = t & self.mask
        if m & self._wide:
            return sum(self.exponents(m))
        return m % FIELD_MASK

    def divides(self, s, t):
        """True if packed term ``s`` divides ``t`` (same position)."""
        g = self.guard
        return (t >> self.shift == s >> self.shift
                and ((t | g) - s) & g == g)

    def key(self, term):
        """Memoized int sort key of a packed ``term``; smaller key = larger
        term.  The inverse memo ``_term`` maps the key back to the term."""
        k = self._cache.get(term)
        if k is None:
            k = self._key(term)
            self._cache[term] = k
            self._term[k] = term
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
        if pos >= POS_LIMIT:
            raise position_error(pos)
        tw = self.twists[pos] if self.twists is not None else 0
        return ((((-self.degree(term) - tw) << self.shift)
                 | (term & self.mask)) << POS_BITS) | pos


class POTOrder(ModuleOrder):
    """Elimination order: the smaller position dominates, then grevlex
    (degree first) on the monomial."""

    __slots__ = ("top_degree", "pos_shift")

    def __init__(self, arity):
        super().__init__(arity)
        self.top_degree = arity * (EXP_LIMIT - 1)
        self.pos_shift = self.top_degree.bit_length()

    def _key(self, term):
        shift = self.shift
        return (((((term >> shift) << self.pos_shift)
                  | (self.top_degree - self.degree(term))) << shift)
                | (term & self.mask))


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
        if pos >= POS_LIMIT:
            raise position_error(pos)
        return (self.parent.key(image) << POS_BITS) | pos
