"""Monomial orders on free modules.

A module term is a pair ``(pos, exps)``: a monomial (exponent tuple) sitting
in component ``pos`` of a free module.  An order object turns a term into a
sort key; a *smaller* key means a *larger* term, so ``min(terms, key=...)``
is the leading term and a plain min-heap pops terms from the largest down.
The numeric parts are negated once, when the key is built.  Each order
instance keeps one memo of its keys, so repeated comparisons during
reduction are cheap.

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


class ModuleOrder:
    """Base: memoized key machinery shared by all concrete orders."""

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = {}

    def key(self, term):
        """Memoized sort key of ``term``; smaller key = larger term."""
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

    def __init__(self, twists=None):
        super().__init__()
        self.twists = tuple(twists) if twists is not None else None

    def _key(self, term):
        pos, exps = term
        tw = self.twists[pos] if self.twists is not None else 0
        return (-sum(exps) - tw, exps[::-1], pos)


class POTOrder(ModuleOrder):
    """Elimination order: the smaller position dominates, then grevlex
    (degree first) on the monomial."""

    __slots__ = ()

    def _key(self, term):
        pos, exps = term
        return (pos, -sum(exps), exps[::-1])


class SchreyerOrder(ModuleOrder):
    """Order induced on S^m by a Groebner basis g_1..g_m in the parent:
    (mon, i) > (mon', j) iff mon*lt(g_i) > mon'*lt(g_j) in the parent order,
    with ties won by the smaller index."""

    __slots__ = ("parent", "lead_terms")

    def __init__(self, parent, lead_terms):
        super().__init__()
        self.parent = parent
        self.lead_terms = tuple(lead_terms)  # terms (pos, exps) in the parent

    def _key(self, term):
        pos, exps = term
        lpos, lexps = self.lead_terms[pos]
        image = (lpos, tuple(a + b for a, b in zip(exps, lexps)))
        return (self.parent.key(image), pos)
