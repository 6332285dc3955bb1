"""Finite categories as composition tables, functors, nerves, deloopings,
maximal subgroupoids, and fuel-bounded naive localization.

Composition convention throughout: compose(g, f) means "f then g",
matching Hom(y,z) x Hom(x,y) -> Hom(x,z).
"""

from itertools import accumulate, pairwise, product as iproduct

from . import sset
from .errors import FuelExhausted, InputError


class FinCategory:
    """A finite category: indexed objects and arrows, a total composition
    table on composable pairs, identities.  The constructor checks
    nothing: the loaders in formats, and a caller who writes the tables
    by hand, call validate()."""

    def __init__(self, objects, arrows, src, dst, comp, ident):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.dst = dict(dst)
        self.comp = dict(comp)
        self.ident = dict(ident)

    def compose(self, g, f):
        """f then g."""
        return self.comp[(g, f)]

    def is_identity(self, a):
        return self.ident.get(self.src[a]) == a

    def hom(self, x, y):
        return tuple(a for a in self.arrows
                     if self.src[a] == x and self.dst[a] == y)

    def nonidentity_arrows(self):
        return tuple(a for a in self.arrows if not self.is_identity(a))

    def composable_pairs(self):
        """Each (g, f) with f's target g's source: g in arrow order, then
        f in arrow order, as the error messages of validate() and of the
        builders expect."""
        into = {}
        for f in self.arrows:
            into.setdefault(self.dst[f], []).append(f)
        for g in self.arrows:
            for f in into.get(self.src[g], ()):
                yield g, f

    def inverse(self, a):
        """The two-sided inverse of a, or None."""
        for b in self.hom(self.dst[a], self.src[a]):
            if self.compose(b, a) == self.ident[self.src[a]] and \
                    self.compose(a, b) == self.ident[self.dst[a]]:
                return b
        return None

    def is_iso(self, a):
        return self.inverse(a) is not None

    def is_groupoid(self):
        return all(self.is_iso(a) for a in self.arrows)

    def validate(self):
        _check_unique_names(self.objects, self.arrows)
        for a in self.arrows:
            if self.src[a] not in self.objects or \
                    self.dst[a] not in self.objects:
                raise InputError("arrow %s has a missing endpoint" % a)
        for x in self.objects:
            e = self.ident.get(x)
            if e is None or self.src[e] != x or self.dst[e] != x:
                raise InputError("object %s lacks an identity" % x)
        for g, f in self.composable_pairs():
            c = self.comp.get((g, f))
            if c is None:
                raise InputError("missing composite %s after %s" % (g, f))
            if self.src[c] != self.src[f] or self.dst[c] != self.dst[g]:
                raise InputError("composite %s has wrong endpoints" % c)
        for f in self.arrows:
            if self.compose(self.ident[self.dst[f]], f) != f or \
                    self.compose(f, self.ident[self.src[f]]) != f:
                raise InputError("unit law fails at %s" % f)
        for g, f in self.composable_pairs():
            for h in self.arrows:
                if self.src[h] == self.dst[g]:
                    if self.compose(self.compose(h, g), f) != \
                            self.compose(h, self.compose(g, f)):
                        raise InputError(
                            "associativity fails on (%s, %s, %s)"
                            % (h, g, f))
        return self

    def opposite(self):
        comp = {(f, g): c for (g, f), c in self.comp.items()}
        swapped_src = dict(self.dst)
        swapped_dst = dict(self.src)
        return FinCategory(self.objects, self.arrows, swapped_src,
                           swapped_dst, comp, self.ident)

    def as_dict(self):
        """The document form: identities keyed by str(object), triples
        sorted by _name_key, so integer and string names may mix, but no
        two objects or two arrows written alike by str."""
        if sset._written_alike(self.objects):
            raise InputError("duplicate object names")
        if sset._written_alike(self.arrows):
            raise InputError("duplicate arrow names")
        return {
            "objects": list(self.objects),
            "arrows": [{"name": a, "src": self.src[a], "dst": self.dst[a]}
                       for a in self.arrows],
            "identities": {str(x): self.ident[x] for x in self.objects},
            "compose": sorted(([g, f, c] for (g, f), c in self.comp.items()),
                              key=lambda t: list(map(_name_key, t))),
        }


def _check_unique_names(objects, arrows):
    if len(set(objects)) != len(objects):
        raise InputError("duplicate object names")
    if len(set(arrows)) != len(arrows):
        raise InputError("duplicate arrow names")


class Functor:
    """A functor by its object and arrow maps; like FinCategory, a
    record that validate() checks."""

    def __init__(self, source, target, obj_map, arr_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)

    def validate(self):
        C, D = self.source, self.target
        for x in C.objects:
            if self.obj_map.get(x) not in D.objects:
                raise InputError("object %s has no valid image" % x)
        for a in C.arrows:
            fa = self.arr_map.get(a)
            if fa not in D.arrows:
                raise InputError("arrow %s has no valid image" % a)
            if D.src[fa] != self.obj_map[C.src[a]] or \
                    D.dst[fa] != self.obj_map[C.dst[a]]:
                raise InputError("functor breaks endpoints at %s" % a)
        for x in C.objects:
            if self.arr_map[C.ident[x]] != D.ident[self.obj_map[x]]:
                raise InputError("functor breaks the identity at %s" % x)
        for g, f in C.composable_pairs():
            if self.arr_map[C.compose(g, f)] != \
                    D.compose(self.arr_map[g], self.arr_map[f]):
                raise InputError("functor breaks composition at (%s, %s)"
                                 % (g, f))
        return self

    def is_isomorphism(self):
        return (len(set(self.obj_map.values())) == len(self.target.objects)
                and len(self.obj_map) == len(self.target.objects)
                and len(set(self.arr_map.values()))
                == len(self.target.arrows)
                and len(self.arr_map) == len(self.target.arrows))


class RelativeCategory:
    """A category with a collection of weak arrows containing the
    identities; is_composition_closed() says whether they form a
    subcategory."""

    def __init__(self, category, weak):
        self.category = category
        self.weak = frozenset(weak)
        for x in category.objects:
            if category.ident[x] not in self.weak:
                raise InputError("weak arrows must contain the identities")
        for w in self.weak:
            if w not in category.arrows:
                raise InputError("weak arrow %s is not an arrow" % w)

    def is_composition_closed(self):
        C = self.category
        return all(C.compose(g, f) in self.weak
                   for g, f in C.composable_pairs()
                   if g in self.weak and f in self.weak)


# ---------------------------------------------------------------------------
# builders


def poset_category(elements, leq):
    """The thin category of a finite preorder: one arrow x->y when
    leq(x, y), checked to be a category."""
    elements = tuple(elements)
    return generated(
        elements, [("%s<=%s" % (x, y), x, y, (x, y)) for x in elements
                   for y in elements if leq(x, y)],
        {x: "%s<=%s" % (x, x) for x in elements},
        lambda g, f: "%s<=%s" % (f[0], g[1])).validate()


def ordinal_category(n):
    """The poset [n] = {0 <= 1 <= ... <= n}."""
    return poset_category([str(i) for i in range(n + 1)],
                          lambda x, y: int(x) <= int(y))


def bg(table, names=None):
    """One-object delooping of a monoid given by its multiplication
    table: table[(g, h)] = g-then-h ... stored so that compose(b, a)
    equals table[(a, b)] read as 'a then b'.

    Accepts a dict on pairs of element names; validates associativity and
    a two-sided unit.
    """
    elements = sorted({g for g, _ in table} | {h for _, h in table})
    if names is not None:
        elements = list(names)
    members = set(elements)
    for g, h in iproduct(elements, repeat=2):
        if (g, h) not in table:
            raise InputError("multiplication table is not total")
        if table[(g, h)] not in members:
            raise InputError("multiplication table is not closed")
    unit = None
    for e in elements:
        if all(table[(e, g)] == g and table[(g, e)] == g
               for g in elements):
            unit = e
            break
    if unit is None:
        raise InputError("multiplication table has no unit")
    for a, b, c in iproduct(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            raise InputError("multiplication table is not associative")
    # compose(g, f) = "f then g" = table[(f, g)]
    return generated(("*",), [(g, "*", "*", g) for g in elements],
                     {"*": unit}, lambda g, f: table[(f, g)]).validate()


def product_category(C, D):
    def pair(x, y):
        return "(%s,%s)" % (x, y)

    return generated(
        [pair(x, y) for x in C.objects for y in D.objects],
        [(pair(a, b), pair(C.src[a], D.src[b]), pair(C.dst[a], D.dst[b]),
          (a, b)) for a in C.arrows for b in D.arrows],
        {pair(x, y): pair(C.ident[x], D.ident[y])
         for x in C.objects for y in D.objects},
        lambda g, f: pair(C.compose(g[0], f[0]), D.compose(g[1], f[1])))


def generated(objects, arrows, ident, compose):
    """The category on objects whose arrows are the (name, src, dst,
    data) entries, in order, where g after f is the arrow named
    compose(data of g, data of f), asked once for each pair that
    composable_pairs() lists, in its order.  The composites are keyed by
    name, so duplicate names are refused first, with validate()'s
    messages.  Like the constructor, this checks no law."""
    names = [a for a, _, _, _ in arrows]
    _check_unique_names(objects, names)
    C = FinCategory(objects, names, {a: x for a, x, _, _ in arrows},
                    {a: y for a, _, y, _ in arrows}, {}, ident)
    data = {a: v for a, _, _, v in arrows}
    C.comp = {(g, f): compose(data[g], data[f])
              for g, f in C.composable_pairs()}
    return C


def subcategory(C, objects, arrows):
    """The subcategory of C on the given objects and arrows, which hold
    the identities of the objects and are closed under composition."""
    arrows = tuple(arrows)
    kept = set(arrows)
    comp = {(g, f): c for (g, f), c in C.comp.items()
            if g in kept and f in kept}
    return FinCategory(objects, arrows, {a: C.src[a] for a in arrows},
                       {a: C.dst[a] for a in arrows}, comp,
                       {x: C.ident[x] for x in objects})


def full_subcategory(C, objects):
    objects = tuple(objects)
    return subcategory(C, objects, [
        a for a in C.arrows if C.src[a] in objects and C.dst[a] in objects])


# ---------------------------------------------------------------------------
# nerve


def nerve(C, d):
    """The nerve, truncated at dimension d: k-simplices are composable
    k-chains; nondegenerate chains have no identity link.

    A level element is (source object, tuple of arrows)."""
    if d < 0:
        raise InputError("nerve truncation must be nonnegative")
    levels, _ = chains(C, d)

    def action(alpha, element):
        # the arrow from vertex a to vertex b of the chain, a <= b, is
        # the link a, the identity of vertex a, or the composite of the
        # links between them; vertex a > 0 is the target of link a - 1
        x, chain = element
        out = []
        for a, b in pairwise(alpha):
            if b == a + 1:
                out.append(chain[a])
            elif a == b:
                out.append(C.ident[C.dst[chain[a - 1]] if a else x])
            else:
                f = chain[a]
                for g in chain[a + 1:b]:
                    f = C.compose(g, f)
                out.append(f)
        a = alpha[0]
        return (C.dst[chain[a - 1]] if a else x, tuple(out))

    def name_fn(n, element):
        x, chain = element
        return x if n == 0 else _chain_name(chain)

    return sset.from_presheaf(d, levels, action, name_fn=name_fn)


def chains(C, d):
    """The composable chains of C of length at most d, each as (source
    object, tuple of arrows), by level, and the spans of extensions.
    Level n lists, for each chain of level n - 1 in order, that chain
    followed by every arrow out of its tail, in arrow order; spans[n - 1]
    gives, for each chain of level n - 1, the range of level n extending
    it."""
    out_of = {}
    for a in C.arrows:
        out_of.setdefault(C.src[a], []).append(a)
    levels, spans = [[(x, ()) for x in C.objects]], []
    for _ in range(d):
        level, span = [], []
        for x, chain in levels[-1]:
            start = len(level)
            level.extend((x, chain + (a,)) for a in out_of.get(
                C.dst[chain[-1]] if chain else x, ()))
            span.append(range(start, len(level)))
        levels.append(level)
        spans.append(span)
    return levels, spans


def category_from_nerve(X):
    """Reconstruct a category from a simplicial set that is nerve-like
    (unique inner fillers) and return it; raises InputError when the
    2-skeleton is not a category, which validate() decides."""
    if X.truncation is not None and X.truncation < 2:
        raise InputError("need at least the 2-truncation")
    objects = list(X.cells(0))
    # the identity of x is named by the first of id_x, id_id_x, ... that
    # no edge and no identity before it has
    taken = set(X.cells(1))
    ident = {}
    for x in objects:
        name = "id_%s" % x
        while name in taken:
            name = "id_" + name
        taken.add(name)
        ident[x] = name
    # the 1-simplices in rank order are the identities (degenerate),
    # then the nondegenerate edges; the arrows list the edges first
    by_rank = [ident[x] for x in objects] + list(X.cells(1))
    ranks = list(range(len(objects), len(by_rank))) + \
        list(range(len(objects)))
    to_dst, to_src = X.ranked(1)[1]
    # composition via the unique 2-simplex with d_2 = f, d_0 = g; an
    # arrow's data is its rank
    fillers, long_edge = X.face_index(2, (2, 0)), X.ranked(2)[1][1]

    def compose(g, f):
        found = {long_edge[u] for u in fillers.get((f, g), ())}
        if len(found) != 1:
            raise InputError(
                "object is not nerve-like: %d composites for (%s, %s)"
                % (len(found), by_rank[g], by_rank[f]))
        return by_rank[found.pop()]

    return generated(objects, [
        (by_rank[r], objects[to_src[r]], objects[to_dst[r]], r)
        for r in ranks], ident, compose).validate()


def nerve_functor_map(F, d, NC=None, ND=None):
    """The simplicial map N(F): N(C) -> N(D) at truncation d."""
    NC = NC if NC is not None else nerve(F.source, d)
    ND = ND if ND is not None else nerve(F.target, d)
    cells = _nerve_cells(F.target, d)
    return sset.SimplicialMap(NC, ND, [
        [_nerve_simplex_of_chain(F.target, cells, F.obj_map[x],
                                 tuple(F.arr_map[a] for a in chain))
         for x, chain in level] for level in _nerve_cells(F.source, d)])


def _nerve_cells(C, d):
    """The nondegenerate simplices of nerve(C, d) by level: the chains
    of chains(C, d) with no identity link, each mapped to its index, in
    the order of the nerve's cells."""
    return [{cell: j for j, cell in enumerate(
        (x, chain) for x, chain in level
        if not any(map(C.is_identity, chain)))}
        for level in chains(C, d)[0]]


def _nerve_simplex_of_chain(C, cells, source, chain):
    """E-Z form in the nerve of a possibly degenerate chain of arrows out
    of source, the cells indexed as _nerve_cells gives them: vertex j
    goes to the number of non-identity links before it."""
    word = tuple(accumulate((not C.is_identity(a) for a in chain),
                            initial=0))
    core = tuple(a for a in chain if not C.is_identity(a))
    return (word, cells[len(core)][(source, core)])


def _name_key(name):
    """A sort key for names that may be strings or integers, mixed in one
    category: integers first, each kind in its own order."""
    return (type(name) is str, name)


def _chain_name(chain):
    """The name of a nondegenerate simplex of a nerve: its arrows, which
    may be named by strings or integers, joined by "|"."""
    return "|".join(map(str, chain))


def max_subgroupoid(C):
    """Wide-on-invertibles subcategory: same objects, invertible arrows."""
    return subcategory(C, C.objects, [a for a in C.arrows if C.is_iso(a)])


def _functor_of_nerve_map(f, C, D):
    """Read a map N(C) -> N(D) of nerves back as a functor C -> D: a
    vertex is an object, a nondegenerate edge the non-identity arrow it
    is named after, and a degenerate edge an identity."""
    NC, ND = f.source, f.target
    src_arrow, dst_arrow = ({_chain_name((a,)): a
                             for a in E.nonidentity_arrows()} for E in (C, D))
    omap = {x: ND.names[0][j]
            for x, (_, j) in zip(NC.names[0], f.assignment[0])}
    amap = {C.ident[x]: D.ident[y] for x, y in omap.items()}
    for name, (t, j) in zip(NC.names[1], f.assignment[1]):
        amap[src_arrow[name]] = (dst_arrow[ND.names[1][j]] if t[-1]
                                 else D.ident[ND.names[0][j]])
    return Functor(C, D, omap, amap)


def find_category_isomorphism(C, D):
    """An isomorphism of categories C -> D, or None.

    The nerve is fully faithful and a category is determined by its
    2-skeleton, so this is an isomorphism of the 2-truncated nerves,
    read back as a functor."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return None
    f = sset.find_isomorphism(nerve(C, 2), nerve(D, 2))
    if f is None:
        return None
    F = _functor_of_nerve_map(f, C, D).validate()
    return F if F.is_isomorphism() else None


def all_functors(C, D):
    """Every functor C -> D: the maps of 2-truncated nerves, read back.
    Ordered by the images of C's objects, then of its sorted non-identity
    arrows, each image by its position in D."""
    obj_pos = {y: p for p, y in enumerate(D.objects)}
    arr_pos = {b: p for p, b in enumerate(D.arrows)}
    arrows = sorted(C.nonidentity_arrows(), key=_name_key)
    out = [_functor_of_nerve_map(f, C, D)
           for f in sset.enumerate_maps(nerve(C, 2), nerve(D, 2))]
    out.sort(key=lambda F: ([obj_pos[F.obj_map[x]] for x in C.objects],
                            [arr_pos[F.arr_map[a]] for a in arrows]))
    return out


# ---------------------------------------------------------------------------
# localization


class Localization:
    def __init__(self, category, functor, rounds_used):
        self.category = category
        self.functor = functor
        self.rounds_used = rounds_used


def localize(R, fuel):
    """The 1-categorical localization C[W^{-1}], computed by completing
    a rewriting system on zig-zag words (arrows plus formal inverses of
    weak arrows) and enumerating irreducible words.

    fuel bounds the completion rounds and the word-growth scan.  Returns
    a Localization (category + canonical functor) when the system
    completes with finitely many irreducible words; FuelExhausted
    otherwise.  A returned category is genuinely the localization: the
    completed system is confluent and terminating, so irreducible words
    biject with arrows of the quotient.
    """
    if fuel <= 0:
        raise InputError("fuel must be positive")
    C = R.category
    letters = []  # (kind, arrow name), kind "a" = arrow, "i" = inverse
    for a in C.arrows:
        if not C.is_identity(a):
            letters.append(("a", a))
    for w in sorted(R.weak, key=_name_key):
        if not C.is_identity(w):
            letters.append(("i", w))
    lsrc = {}
    ldst = {}
    for kind, a in letters:
        if kind == "a":
            lsrc[(kind, a)] = C.src[a]
            ldst[(kind, a)] = C.dst[a]
        else:
            lsrc[(kind, a)] = C.dst[a]
            ldst[(kind, a)] = C.src[a]
    lindex = {l: i for i, l in enumerate(letters)}

    def key(word):
        return (len(word), tuple(lindex[l] for l in word))

    # words are tuples of letters in diagrammatic order (left first)
    rules = {}

    def add_rule(lhs, rhs):
        if lhs == rhs:
            return False
        if key(lhs) < key(rhs):
            lhs, rhs = rhs, lhs
        if rules.get(lhs) == rhs:
            return False
        rules[lhs] = rhs
        return True

    for g, f in C.composable_pairs():
        if C.is_identity(g) or C.is_identity(f):
            continue
        c = C.compose(g, f)
        rhs = () if C.is_identity(c) else (("a", c),)
        add_rule((("a", f), ("a", g)), rhs)  # f then g
    for w in sorted(R.weak, key=_name_key):
        if C.is_identity(w):
            continue
        add_rule((("a", w), ("i", w)), ())
        add_rule((("i", w), ("a", w)), ())

    def normalize(word):
        word = list(word)
        changed = True
        while changed:
            changed = False
            for L in sorted({len(l) for l in rules}, reverse=False):
                i = 0
                while i + L <= len(word):
                    seg = tuple(word[i:i + L])
                    rhs = rules.get(seg)
                    if rhs is not None:
                        word[i:i + L] = list(rhs)
                        changed = True
                        i = max(0, i - L)
                    else:
                        i += 1
        return tuple(word)

    rounds = 0
    completed = False
    for rounds in range(1, fuel + 1):
        new_rules = []
        items = sorted(rules.items(), key=lambda kv: (key(kv[0]),
                                                      key(kv[1])))
        for l1, r1 in items:
            for l2, r2 in items:
                # suffix of l1 overlaps prefix of l2
                for k in range(1, min(len(l1), len(l2)) + 1):
                    if l1[len(l1) - k:] == l2[:k]:
                        word = l1 + l2[k:]
                        a = normalize(r1 + l2[k:])
                        b = normalize(l1[:len(l1) - k] + r2)
                        if a != b:
                            new_rules.append((a, b))
                # l2 strictly inside l1
                if len(l2) < len(l1):
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i:i + len(l2)] == l2:
                            a = normalize(r1)
                            b = normalize(l1[:i] + r2 + l1[i + len(l2):])
                            if a != b:
                                new_rules.append((a, b))
        added = False
        for a, b in new_rules:
            if add_rule(a, b):
                added = True
        if not added:
            completed = True
            break
    if not completed:
        return FuelExhausted("completion still produced rules after %d "
                             "rounds" % fuel, partial=None)

    # enumerate irreducible words; factors of irreducible words are
    # irreducible, so absence at one length is absence at all longer ones
    cap = 3 * fuel + 3
    all_words = [((), x) for x in C.objects]  # empty word at x is id_x
    frontier = list(all_words)
    length = 0
    while frontier:
        length += 1
        if length > cap:
            return FuelExhausted(
                "irreducible words still growing at length %d; the "
                "localization may be infinite" % cap, partial=None)
        next_frontier = []
        for word, x in frontier:
            tail = ldst[word[-1]] if word else x
            for l in letters:
                if lsrc[l] != tail:
                    continue
                w2 = word + (l,)
                reducible = any(
                    w2[len(w2) - L:] == lhs
                    for lhs in rules for L in (len(lhs),)
                    if L <= len(w2))
                if not reducible:
                    next_frontier.append((w2, x))
        all_words.extend(next_frontier)
        frontier = next_frontier

    def word_name(word, x):
        if not word:
            return "id_%s" % x
        return ".".join(str(a) if kind == "a" else "%s~" % a
                        for kind, a in word)

    # an arrow's data is its word and source; g after f reads f's word,
    # then g's
    names = {(word, x): word_name(word, x) for word, x in all_words}
    Q = generated(
        C.objects, [(names[(word, x)], x, ldst[word[-1]] if word else x,
                     (word, x)) for word, x in all_words],
        {x: names[((), x)] for x in C.objects},
        lambda g, f: names[(normalize(f[0] + g[0]), f[1])]).validate()
    obj_map = {x: x for x in C.objects}
    arr_map = {}
    for a in C.arrows:
        if C.is_identity(a):
            arr_map[a] = Q.ident[C.src[a]]
        else:
            nf = normalize((("a", a),))
            arr_map[a] = names[(nf, C.src[a])]
    return Localization(Q, Functor(C, Q, obj_map, arr_map).validate(), rounds)
