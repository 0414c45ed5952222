"""Buchberger engine for submodules of free modules over Q[z_1..z_l].

Internal representation: an element is a dict mapping module terms
``(pos, exps)`` to nonzero *integer* coefficients, kept content-free.
All reductions are fraction-free (scale by the reducer's leading
coefficient, strip integer content afterwards), so no rational arithmetic
happens in the inner loops.  The presentations of `modules` hold their
relations in this representation too, so kernels, duals and Ext^1 pass
dicts straight to `kernel_raw` and `buchberger`; rational `FreeModuleElement`
vectors appear only at the public element API and in resolution maps.

Reduction keeps the remainder's terms in a heap ordered by the order key
(smaller key = larger term, see `orders`), so each step pops the leading
term instead of rescanning the remainder (Monagan & Pearce, CASC 2007).
Terms that cancel stay in the heap and are skipped when popped.

Pair management follows the Gebauer-Moeller UPDATE routine with the chain
criterion; the coprimality criterion is applied only when both elements are
supported in a single component, where the ideal-case proof applies.
Pairs are selected by the "normal" strategy, lowest degree of the lcm
first (Giovini et al., ISSAC 1991), and within one degree the smallest lcm
in the module order first.
"""

import heapq
from math import gcd
from operator import add

from .errors import EngineError
from .orders import POTOrder, SchreyerOrder


class EngineStats:
    """Counters accumulated across engine calls."""

    __slots__ = ("s_pairs", "zero_reductions", "basis_elements", "max_degree")

    def __init__(self):
        self.s_pairs = 0
        self.zero_reductions = 0
        self.basis_elements = 0
        self.max_degree = 0

    def merge(self, other):
        self.s_pairs += other.s_pairs
        self.zero_reductions += other.zero_reductions
        self.basis_elements += other.basis_elements
        self.max_degree = max(self.max_degree, other.max_degree)

    def as_dict(self):
        return {
            "s_pairs": self.s_pairs,
            "zero_reductions": self.zero_reductions,
            "basis_elements": self.basis_elements,
            "max_degree": self.max_degree,
        }


_SCOPED_STATS = []


class stats_scope:
    """Collect engine counters from every call made inside the scope.

    Scopes nest; every open scope receives each engine call once.  This is
    the only way engine counters are read.
    """

    def __init__(self, stats):
        self.stats = stats

    def __enter__(self):
        _SCOPED_STATS.append(self.stats)
        return self.stats

    def __exit__(self, *exc):
        _SCOPED_STATS.pop()
        return False


def _publish(local):
    for s in _SCOPED_STATS:
        s.merge(local)


class BasisElem:
    """A basis element with cached leading data."""

    __slots__ = ("d", "lt", "lc", "lpos", "lexps", "single")

    def __init__(self, d, order):
        self.d = d
        lt = min(d, key=order.key)
        self.lt = lt
        self.lc = d[lt]
        self.lpos, self.lexps = lt
        self.single = all(p == self.lpos for p, _ in d)


def content_normalize(d):
    """Divide out the integer content in place; return the dict (empty ok)."""
    if not d:
        return d
    g = 0
    for c in d.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        for k in d:
            d[k] //= g
    return d


def sign_normalize(d, order):
    """Flip signs so the leading coefficient is positive."""
    if not d:
        return d
    lt = min(d, key=order.key)
    if d[lt] < 0:
        for k in d:
            d[k] = -d[k]
    return d


def shift_term(term, u):
    pos, exps = term
    return (pos, tuple(map(add, exps, u)))


def exps_divide(a, b):
    """True if monomial a divides monomial b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def reduce_full(d, by_pos, order, *, track=None, exact=False):
    """Fully reduce d modulo the bucketed basis.

    Returns ``(reduced, scale)`` with ``scale * input == reduced`` modulo
    the submodule.  If ``track`` is given (a term->int dict over the basis
    index space, seeded so that it expresses the input), the invariant
    ``sum track[(k, u)] * x^u * g_k == d + result`` is maintained: scalings
    are mirrored and each subtracted multiple ``c * x^u * g_idx`` updates
    ``track[(idx, u)] -= c``.  When the input reduces to zero the final
    track is therefore a syzygy.  Unless ``exact`` is set, the result (and
    track) are stripped of integer content, losing the meaning of ``scale``.
    """
    result = {}
    scale = 1
    key = order.key
    heap = [(key(t), t) for t in d]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        t = pop(heap)[1]
        if t not in d:
            continue
        pos, exps = t
        red = None
        idx = -1
        for i, g in by_pos.get(pos, ()):
            if exps_divide(g.lexps, exps):
                red = g
                idx = i
                break
        if red is None:
            result[t] = d.pop(t)
            continue
        c = d.pop(t)
        q = gcd(c, red.lc)
        mult_all = red.lc // q
        mult_g = c // q
        if mult_all != 1:
            for k in d:
                d[k] *= mult_all
            for k in result:
                result[k] *= mult_all
            if track is not None:
                for k in track:
                    track[k] *= mult_all
            scale *= mult_all
        u = tuple(a - b for a, b in zip(exps, red.lexps))
        for gt, gc in red.d.items():
            if gt == red.lt:
                continue
            k = shift_term(gt, u)
            old = d.get(k)
            if old is None:
                d[k] = -mult_g * gc
                push(heap, (key(k), k))
                continue
            s = old - mult_g * gc
            if s:
                d[k] = s
            else:
                del d[k]
        if track is not None:
            k = (idx, u)
            s = track.get(k, 0) - mult_g
            if s:
                track[k] = s
            else:
                track.pop(k, None)
    if not exact:
        if track is None:
            content_normalize(result)
        else:
            joint = 0
            for c in result.values():
                joint = gcd(joint, c)
            for c in track.values():
                joint = gcd(joint, c)
            if joint > 1:
                for k in result:
                    result[k] //= joint
                for k in track:
                    track[k] //= joint
    return result, scale


def spair(g1, g2, track_indices=None):
    """S-pair of two elements with the same leading position.

    Returns ``(s, rep)`` where rep is the syzygy-side start expression
    ``a*x^{u1}*e_{i1} - b*x^{u2}*e_{i2}`` when track_indices=(i1, i2).
    """
    L = tuple(max(a, b) for a, b in zip(g1.lexps, g2.lexps))
    u1 = tuple(a - b for a, b in zip(L, g1.lexps))
    u2 = tuple(a - b for a, b in zip(L, g2.lexps))
    q = gcd(g1.lc, g2.lc)
    a = g2.lc // q
    b = g1.lc // q
    s = {}
    for t, c in g1.d.items():
        s[shift_term(t, u1)] = a * c
    for t, c in g2.d.items():
        k = shift_term(t, u2)
        v = s.get(k, 0) - b * c
        if v:
            s[k] = v
        else:
            s.pop(k, None)
    rep = None
    if track_indices is not None:
        i1, i2 = track_indices
        rep = {(i1, u1): a, (i2, u2): -b}
    return s, rep


def _coprime(g1, g2):
    if not (g1.single and g2.single):
        return False
    return all(a == 0 or b == 0 for a, b in zip(g1.lexps, g2.lexps))


class _Ascending:
    """Heap wrapper around an order key: the smaller term compares less."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return other.k < self.k

    def __eq__(self, other):
        return self.k == other.k


def buchberger(gens, order):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    ``gens`` are term->int dicts; the result is a list of BasisElem,
    pairwise tail-reduced, content-free with positive leading coefficients,
    sorted by ascending leading term.  S-pairs are taken lowest lcm degree
    first, and within one degree smallest lcm first; popping the largest
    lcm first within a degree makes coefficients grow far faster on
    inputs with large coefficients.
    """
    local = EngineStats()
    G = []
    by_pos = {}
    alive = {}  # (i, j) -> lcm exps
    heap = []

    def lcm_with(i, h):
        return tuple(max(a, b) for a, b in zip(G[i].lexps, h.lexps))

    def add_element(d):
        sign_normalize(d, order)
        h = BasisElem(d, order)
        t = len(G)
        # Gebauer-Moeller UPDATE for the new pairs
        cands = [(i, lcm_with(i, h)) for i in range(t)
                 if G[i].lpos == h.lpos]
        kept = []
        while cands:
            i, L = cands.pop(0)
            cop = _coprime(G[i], h)
            if not cop:
                if any(exps_divide(L2, L) for _, L2 in cands):
                    continue
                if any(exps_divide(L2, L) for _, L2, _c in kept):
                    continue
            kept.append((i, L, cop))
        # chain-criterion pruning of older pairs
        for (i, j), L in list(alive.items()):
            if G[i].lpos != h.lpos:
                continue
            if exps_divide(h.lexps, L):
                if lcm_with(i, h) != L and lcm_with(j, h) != L:
                    del alive[(i, j)]
        G.append(h)
        by_pos.setdefault(h.lpos, []).append((t, h))
        local.basis_elements += 1
        for i, L, cop in kept:
            if cop:
                continue
            alive[(i, t)] = L
            heapq.heappush(heap, (sum(L), _Ascending(order.key((h.lpos, L))),
                                  i, t))

    for d in gens:
        d = dict(d)
        r, _ = reduce_full(d, by_pos, order)
        if r:
            add_element(r)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        L = alive.pop((i, j), None)
        if L is None:
            continue
        s, _ = spair(G[i], G[j])
        local.s_pairs += 1
        if s:
            local.max_degree = max(local.max_degree,
                                   max(sum(e) for _, e in s))
        r, _ = reduce_full(s, by_pos, order)
        if r:
            add_element(r)
        else:
            local.zero_reductions += 1
    _publish(local)
    return interreduce(G, order)


def interreduce(G, order):
    """Minimalize and tail-reduce a Groebner basis; canonical output order."""
    elems = sorted(G, key=lambda g: order.key(g.lt), reverse=True)
    kept = []
    for g in elems:
        if any(h.lpos == g.lpos and exps_divide(h.lexps, g.lexps)
               for h in kept):
            continue
        kept.append(g)
    out = []
    for i, g in enumerate(kept):
        by_pos = {}
        for j, h in enumerate(kept):
            if j != i:
                by_pos.setdefault(h.lpos, []).append((j, h))
        r, _ = reduce_full(dict(g.d), by_pos, order)
        sign_normalize(r, order)
        out.append(BasisElem(r, order))
    out.sort(key=lambda g: order.key(g.lt), reverse=True)
    return out


def normal_form_raw(d, gb, order):
    """Exact normal form: returns (reduced, scale) with reduced/scale the
    unique normal form of d modulo the basis."""
    by_pos = {}
    for i, g in enumerate(gb):
        by_pos.setdefault(g.lpos, []).append((i, g))
    return reduce_full(dict(d), by_pos, order, exact=True)


def schreyer_sort(gb):
    """Sort a GB by (leading position, descending lex on leading monomial).

    With this ordering the Schreyer leading terms of the level-k syzygies
    avoid the first k variables, which bounds the length of the iterated
    syzygy chain by the number of variables.
    """
    return sorted(gb, key=lambda g: (g.lpos, tuple(-e for e in g.lexps)))


def schreyer_syzygies(gb, order):
    """Syzygies of a Groebner basis via S-pair reductions.

    Returns ``(syzygies, schreyer_order)``: the syzygies are term->int
    dicts over the index space of ``gb`` and form a Groebner basis with
    respect to the returned Schreyer order (Schreyer's theorem).  All
    same-position pairs are reduced; no pair criteria are applied here.
    """
    local = EngineStats()
    sorder = SchreyerOrder(order, [g.lt for g in gb])
    by_pos = {}
    for i, g in enumerate(gb):
        by_pos.setdefault(g.lpos, []).append((i, g))
    syzygies = []
    n = len(gb)
    for i in range(n):
        gi = gb[i]
        for j in range(i + 1, n):
            gj = gb[j]
            if gi.lpos != gj.lpos:
                continue
            s, rep = spair(gi, gj, track_indices=(i, j))
            local.s_pairs += 1
            r, _ = reduce_full(s, by_pos, order, track=rep)
            if r:
                raise EngineError("syzygy step fed a non-Groebner basis")
            local.zero_reductions += 1
            sign_normalize(rep, sorder)
            syzygies.append(rep)
    _publish(local)
    return syzygies, sorder


def kernel_raw(columns, target_rank, arity):
    """Generators of the kernel of e_j -> columns[j] via POT elimination.

    ``columns`` are term->int dicts over target positions 0..target_rank-1.
    Returns term->int dicts over source positions 0..len(columns)-1.
    """
    if not columns:
        return []
    zero = (0,) * arity
    gens = []
    for j, col in enumerate(columns):
        d = {(p, e): c for (p, e), c in col.items()}
        d[(target_rank + j, zero)] = 1
        gens.append(d)
    gb = buchberger(gens, POTOrder())
    kernel = []
    for g in gb:
        if g.lpos >= target_rank:
            kernel.append({(p - target_rank, e): c
                           for (p, e), c in g.d.items()})
    return kernel
