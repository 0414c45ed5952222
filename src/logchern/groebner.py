"""Buchberger engine for submodules of free modules over Q[z_1..z_l].

Callers hand in and get back elements as dicts mapping module terms
``(pos, exps)`` to nonzero *integer* coefficients, kept content-free.
The presentations and resolution maps of `modules` hold this
representation, so kernels, duals and Ext^1 pass dicts straight to
`kernel_raw` and `buchberger`; rational `FreeModuleElement` vectors
appear only at the public element API.

Inside the engine every term is one Python int in the packed layout of
`orders`: the position above ``l`` exponent fields of ``FIELD_BITS``
bits, each with a guard bit on top.  A monomial shift is one int add, a
quotient one subtract, and a divisibility test one masked subtract,
``((t | guard) - s) & guard == guard``; the lcm of two leading terms takes
the larger field wherever that test's guard bit survives.  The entries
that take dicts (`buchberger`, `normal_form_raw`, `basis_syzygies`, and
`kernel_raw` through `buchberger`) pack them once, through the order;
`interreduce` and `schreyer_syzygies` take `BasisElem`s, which hold packed
terms only and decode their public views on demand.  Every dict the
engine returns is unpacked once.  A tracked reduction keys its syzygy
terms ``(idx << shift) + u`` in the same layout, with the basis index as
the position.

Overflow contract: an exponent must stay below ``orders.EXP_LIMIT``
(``2**15``).  `pack` rejects a larger input exponent, and every term the
engine creates (a shifted reducer term, an S-polynomial term, a Schreyer
image) is checked with one ``& guard``: a field that outgrew the limit has
set its guard bit and not yet touched its neighbour, and the engine raises
`EngineError` naming the limit instead of wrapping silently.

All reductions are fraction-free (scale by the reducer's leading
coefficient, strip integer content afterwards), so no rational arithmetic
happens in the inner loops.

Reduction keeps the remainder's terms in a heap of their int order keys
(smaller key = larger term, see `orders`), so each step pops the leading
term instead of rescanning the remainder (Monagan & Pearce, CASC 2007);
the popped key reads its term back from the order's inverse memo.  Each
term is pushed once per reduction: a term that cancels stays in the
remainder with coefficient 0 until its key is popped, and is then dropped.

Pair management follows the Gebauer-Moeller UPDATE routine with the chain
criterion; the coprimality criterion is applied only when both elements are
supported in a single component, where the ideal-case proof applies.
Pairs are selected by the "normal" strategy, lowest degree of the lcm
first (Giovini et al., ISSAC 1991), and within one degree the smallest lcm
in the module order first: the pair queue holds ``(degree, -key, i, j)``.
"""

import heapq
from math import gcd

from .errors import EngineError
from .orders import (FIELD_BITS, FIELD_MASK, POTOrder, SchreyerOrder,
                     overflow_error)


class EngineStats:
    """Counters accumulated across engine calls.

    ``s_pairs`` counts S-pairs reduced, in `buchberger` and in the syzygy
    pair loop; ``zero_reductions`` those that reduced to zero;
    ``basis_elements`` the elements `buchberger` added to a basis; and
    ``max_degree`` the largest monomial degree of an S-pair lcm that
    `buchberger` reduced (the lcm, not the terms of the S-polynomial).
    """

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
    """A basis element in packed terms, its leading term kept apart.

    ``lead`` and ``lc`` are the leading packed term and its coefficient,
    made positive; ``tail`` maps every other packed term to its
    coefficient.  ``d``, ``lt``, ``lpos`` and ``lexps`` decode these to
    ``(pos, exps)`` terms for callers outside the engine; no decoded copy is
    kept.  The constructor takes over the packed dict ``d``.
    """

    __slots__ = ("lead", "lc", "tail", "single", "order")

    def __init__(self, d, order):
        cache = order._cache
        key = order.key
        lead = order._term[min(cache[t] if t in cache else key(t)
                               for t in d)]
        if d[lead] < 0:
            for k in d:
                d[k] = -d[k]
        self.lead = lead
        self.lc = d.pop(lead)
        self.tail = d
        shift = order.shift
        lpos = lead >> shift
        self.single = all(t >> shift == lpos for t in d)
        self.order = order

    def items(self):
        """Packed ``(term, coefficient)`` pairs, the leading term first."""
        yield self.lead, self.lc
        yield from self.tail.items()

    @property
    def d(self):
        unpack = self.order.unpack
        return {unpack(t): c for t, c in self.items()}

    @property
    def lt(self):
        return self.order.unpack(self.lead)

    @property
    def lpos(self):
        return self.lead >> self.order.shift

    @property
    def lexps(self):
        return self.order.exponents(self.lead)


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


def exps_divide(a, b):
    """True if monomial a divides monomial b (exponent tuples)."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b, guard):
    """Packed lcm of two packed terms in one position: per field, the
    larger exponent."""
    ge = ((a | guard) - b) & guard  # guard bit set where a's field >= b's
    m = (ge >> (FIELD_BITS - 1)) * FIELD_MASK
    return (a & m) | (b & ~m)


def _bucket(elems):
    """Basis elements by leading position, as ``reduce_full`` takes them."""
    by_pos = {}
    for i, g in enumerate(elems):
        by_pos.setdefault(g.lpos, []).append((i, g))
    return by_pos


def reduce_full(d, by_pos, order, *, track=None, exact=False):
    """Fully reduce the packed dict d modulo the bucketed basis.

    ``by_pos`` maps a position to its ``(index, BasisElem)`` pairs.
    Returns ``(reduced, scale)`` with ``scale * input == reduced`` modulo
    the submodule.  If ``track`` is given (a packed term->int dict over the
    basis index space, seeded so that it expresses the input), the
    invariant ``sum track[(k << shift) + u] * x^u * g_k == d + result`` is
    maintained: scalings are mirrored and each subtracted multiple
    ``c * x^u * g_idx`` updates ``track[(idx << shift) + u] -= c``.  When
    the input reduces to zero the final track is therefore a syzygy.  Unless
    ``exact`` is set, the result (and track) are stripped of integer
    content, losing the meaning of ``scale``.

    The heap holds the int keys of the terms of ``d``, each pushed once:
    a term that cancels keeps coefficient 0 in ``d`` until its key is
    popped.  Keys are read from the order's memo, and ``order.key`` is
    called only on a miss.  ``d`` is taken over and left in no defined
    state; ``track`` is scaled and updated in place, so the caller can read
    the syzygy from it.
    """
    result = {}
    scale = 1
    key = order.key
    cached = order._cache.get
    term_of = order._term
    shift = order.shift
    guard = order.guard
    heap = []
    for t in d:
        k = cached(t)
        heap.append(key(t) if k is None else k)
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        t = term_of[pop(heap)]
        c = d.pop(t)
        if not c:
            continue
        red = None
        idx = -1
        tg = t | guard
        for i, g in by_pos.get(t >> shift, ()):
            if (tg - g.lead) & guard == guard:
                red = g
                idx = i
                break
        if red is None:
            result[t] = c
            continue
        q = gcd(c, red.lc)
        mult_all = red.lc // q
        mult_g = c // q
        if mult_all != 1:
            d = {k: v * mult_all for k, v in d.items()}
            result = {k: v * mult_all for k, v in result.items()}
            if track is not None:
                for k in track:
                    track[k] *= mult_all
            scale *= mult_all
        u = t - red.lead
        for gt, gc in red.tail.items():
            k = gt + u
            old = d.get(k)
            if old is None:
                if k & guard:
                    raise overflow_error(order.exponents(k))
                d[k] = -mult_g * gc
                kk = cached(k)
                push(heap, key(k) if kk is None else kk)
            else:
                d[k] = old - mult_g * gc
        if track is not None:
            k = (idx << shift) + u
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
    The leading terms cancel and are left out.
    """
    order = g1.order
    guard = order.guard
    L = _lcm(g1.lead, g2.lead, guard)
    u1 = L - g1.lead
    u2 = L - g2.lead
    q = gcd(g1.lc, g2.lc)
    a = g2.lc // q
    b = g1.lc // q
    s = {}
    for t, c in g1.tail.items():
        k = t + u1
        if k & guard:
            raise overflow_error(order.exponents(k))
        s[k] = a * c
    for t, c in g2.tail.items():
        k = t + u2
        v = s.get(k)
        if v is None:
            if k & guard:
                raise overflow_error(order.exponents(k))
            s[k] = -b * c
            continue
        v -= b * c
        if v:
            s[k] = v
        else:
            del s[k]
    rep = None
    if track_indices is not None:
        i1, i2 = track_indices
        shift = order.shift
        rep = {(i1 << shift) + u1: a, (i2 << shift) + u2: -b}
    return s, rep


def buchberger(gens, order, from_pos=0):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    ``gens`` are ``(pos, exps)`` term->int dicts, packed here in the
    order's layout; the result is a list of BasisElem, pairwise
    tail-reduced, content-free with positive leading coefficients, sorted
    by ascending leading term.  S-pairs are taken lowest lcm degree first,
    and within one degree smallest lcm first; popping the largest lcm first
    within a degree makes coefficients grow far faster on inputs with large
    coefficients.

    With ``from_pos`` only the elements leading at that position or past
    it are minimalized, tail-reduced and returned.  In a POT order they
    have no term before ``from_pos``, so no other element reduces them:
    they are the reduced basis of the submodule's part there.
    """
    local = EngineStats()
    key = order.key
    degree = order.degree
    shift = order.shift
    mask = order.mask
    guard = order.guard
    G = []
    by_pos = {}
    alive = {}  # (i, j) -> packed lcm of the leading terms
    heap = []

    def add_element(d):
        h = BasisElem(d, order)
        lead = h.lead
        hpos = lead >> shift
        t = len(G)
        # Gebauer-Moeller UPDATE for the new pairs
        cands = [(i, _lcm(G[i].lead, lead, guard)) for i in range(t)
                 if G[i].lead >> shift == hpos]
        kept = []
        while cands:
            i, L = cands.pop(0)
            # coprime leading monomials: their lcm is their product
            cop = (G[i].single and h.single
                   and not (G[i].lead + lead - L) & mask)
            if not cop:
                Lg = L | guard
                if any((Lg - L2) & guard == guard for _, L2 in cands):
                    continue
                if any((Lg - L2) & guard == guard for _, L2, _c in kept):
                    continue
            kept.append((i, L, cop))
        # chain-criterion pruning of older pairs
        for (i, j), L in list(alive.items()):
            if L >> shift != hpos:
                continue
            if ((L | guard) - lead) & guard == guard:
                if (_lcm(G[i].lead, lead, guard) != L
                        and _lcm(G[j].lead, lead, guard) != L):
                    del alive[(i, j)]
        G.append(h)
        by_pos.setdefault(hpos, []).append((t, h))
        local.basis_elements += 1
        for i, L, cop in kept:
            if cop:
                continue
            alive[(i, t)] = L
            heapq.heappush(heap, (degree(L), -key(L), i, t))

    pack = order.pack
    for d in gens:
        r, _ = reduce_full({pack(t): c for t, c in d.items()}, by_pos, order)
        if r:
            add_element(r)
    while heap:
        deg, _, i, j = heapq.heappop(heap)
        L = alive.pop((i, j), None)
        if L is None:
            continue
        s, _ = spair(G[i], G[j])
        local.s_pairs += 1
        if deg > local.max_degree:
            local.max_degree = deg
        r, _ = reduce_full(s, by_pos, order)
        if r:
            add_element(r)
        else:
            local.zero_reductions += 1
    _publish(local)
    return interreduce([g for g in G if g.lead >> shift >= from_pos], order)


def interreduce(G, order):
    """Minimalize and tail-reduce a Groebner basis of BasisElems; canonical
    output order."""
    elems = sorted(G, key=lambda g: order.key(g.lead), reverse=True)
    kept = []
    for g in elems:
        if any(order.divides(h.lead, g.lead) for h in kept):
            continue
        kept.append(g)
    out = []
    by_pos = _bucket(kept)
    for i, g in enumerate(kept):
        # reduce g by all the others: drop it from its bucket meanwhile
        own = by_pos[g.lpos]
        by_pos[g.lpos] = [(j, h) for j, h in own if j != i]
        d = dict(g.tail)
        d[g.lead] = g.lc
        r, _ = reduce_full(d, by_pos, order)
        by_pos[g.lpos] = own
        out.append(BasisElem(r, order))
    out.sort(key=lambda g: order.key(g.lead), reverse=True)
    return out


def normal_form_raw(d, gb, order):
    """Exact normal form of the ``(pos, exps)`` dict d: returns (reduced,
    scale) with reduced/scale the unique normal form of d modulo the
    basis."""
    pack = order.pack
    r, scale = reduce_full({pack(t): c for t, c in d.items()}, _bucket(gb),
                           order, exact=True)
    unpack = order.unpack
    return {unpack(t): c for t, c in r.items()}, scale


def schreyer_sort(gb):
    """Sort a GB by (leading position, descending lex on leading monomial).

    With this ordering the Schreyer leading terms of the level-k syzygies
    avoid the first k variables, which bounds the length of the iterated
    syzygy chain by the number of variables.
    """
    return sorted(gb, key=lambda g: (g.lpos, tuple(-e for e in g.lexps)))


def _pair_syzygies(gb, order, pairs):
    """One tracked S-pair reduction per pair ``(i, j)`` of ``gb``.

    Returns the syzygies as packed dicts over the index space of ``gb``, in
    the order of ``pairs``; every S-pair must reduce to zero.
    """
    local = EngineStats()
    by_pos = _bucket(gb)
    syzygies = []
    for i, j in pairs:
        s, rep = spair(gb[i], gb[j], track_indices=(i, j))
        local.s_pairs += 1
        r, _ = reduce_full(s, by_pos, order, track=rep)
        if r:
            raise EngineError("syzygy step fed a non-Groebner basis")
        local.zero_reductions += 1
        if rep:
            syzygies.append(rep)
    _publish(local)
    return syzygies


def schreyer_syzygies(gb, order):
    """Syzygies of a Groebner basis via S-pair reductions.

    Returns ``(syzygies, schreyer_order)``: the syzygies are BasisElems over
    the index space of ``gb``, interreduced into the reduced Groebner basis
    of the syzygy module with respect to the returned Schreyer order
    (Schreyer's theorem).  All same-position pairs are reduced; no pair
    criteria are applied here, since a pair the chain criterion drops can
    carry a leading term of that basis.
    """
    sorder = SchreyerOrder(order, [g.lead for g in gb])
    n = len(gb)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if gb[i].lpos == gb[j].lpos]
    syzygies = [BasisElem(rep, sorder)
                for rep in _pair_syzygies(gb, order, pairs)]
    return interreduce(syzygies, sorder), sorder


def basis_syzygies(basis, arity, twists=None):
    """Relations among the elements of a POT Groebner basis.

    ``basis`` holds ``(pos, exps)`` term->int dicts, a Groebner basis in
    ``POTOrder(arity)`` with positive leading coefficients (a reduced basis
    from `kernel_raw` is one; `BasisElem` would negate an element with a
    negative one, and its relations with it).  Each same-position pair
    that survives the strict chain criterion is reduced once, with its
    quotients tracked; by Schreyer's theorem these syzygies generate all
    relations, since a pair (i, j) is dropped only for a k whose leading
    term divides lcm(i, j) while lcm(i, k) and lcm(j, k) are proper
    divisors of it.  They are returned as ``(index, exps)`` dicts, not
    interreduced, ordered by ascending degree: the lcm's degree plus the
    twist of its position in ``twists`` (0 when absent), pair order within
    one degree.
    """
    order = POTOrder(arity)
    pack = order.pack
    gb = [BasisElem({pack(t): c for t, c in d.items()}, order)
          for d in basis]
    guard = order.guard
    shift = order.shift
    degree = order.degree
    pairs = []
    for members in _bucket(gb).values():
        lcms = {(i, j): _lcm(g.lead, h.lead, guard)
                for a, (i, g) in enumerate(members)
                for j, h in members[a + 1:]}
        for (i, j), L in lcms.items():
            Lg = L | guard
            if not any(k != i and k != j and (Lg - gk.lead) & guard == guard
                       and lcms[min(i, k), max(i, k)] != L
                       and lcms[min(j, k), max(j, k)] != L
                       for k, gk in members):
                tw = twists[L >> shift] if twists is not None else 0
                pairs.append((degree(L) + tw, i, j))
    pairs.sort()
    unpack = order.unpack
    return [{unpack(t): c for t, c in rep.items()}
            for rep in _pair_syzygies(gb, order, [p[1:] for p in pairs])]


def in_kernel(vectors, columns, arity):
    """True when every vector v lies in the kernel of e_j -> columns[j]:
    sum_j v_j * columns[j] == 0 in integers.

    Vectors and columns are ``(pos, exps)`` term->int dicts, the vectors'
    positions indexing ``columns``.  Terms multiply as packed int sums:
    each field of a product holds a sum of two exponents below
    ``EXP_LIMIT``, which fits the field with its guard bit, so no product
    carries into a neighbour and distinct products stay distinct.
    """
    pack = POTOrder(arity).pack
    packed = [[(pack(t), a) for t, a in col.items()] for col in columns]
    for v in vectors:
        image = {}
        for (j, exps), c in v.items():
            m = pack((0, exps))
            for t, a in packed[j]:
                k = t + m
                image[k] = image.get(k, 0) + a * c
        if any(image.values()):
            return False
    return True


def kernel_raw(columns, target_rank, arity, tracked=None):
    """The kernel of e_j -> columns[j], projected onto the first
    ``tracked`` source coordinates, via POT elimination.

    ``columns`` are ``(pos, exps)`` term->int dicts over target positions
    0..target_rank-1.  Only the first ``tracked`` columns (default: all)
    carry an identity position ``target_rank + j``; the rest enter as
    plain generators.  The submodule generated is then the image of the
    graph under the projection, and its elements that vanish on the target
    rows are exactly the ``(0, v)`` with ``v`` the first ``tracked``
    coordinates of a kernel vector: the untracked coordinates are never
    read, so they need no identity.  In POT order those elements are the
    ones whose leading position lies past the target rows, and they form
    the reduced Groebner basis of the projected kernel.  Returns them as
    dicts over source positions 0..tracked-1.
    """
    if not columns:
        return []
    if tracked is None:
        tracked = len(columns)
    zero = (0,) * arity
    gens = [{**col, (target_rank + j, zero): 1} if j < tracked else col
            for j, col in enumerate(columns)]
    order = POTOrder(arity)
    gb = buchberger(gens, order, from_pos=target_rank)
    unpack = order.unpack
    off = target_rank << order.shift
    return [{unpack(t - off): c for t, c in g.items()} for g in gb]
