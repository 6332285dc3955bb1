"""Finite categories as composition tables, functors, nerves, deloopings,
maximal subgroupoids, and fuel-bounded naive localization.

Composition convention throughout: compose(g, f) means "f then g",
matching Hom(y,z) x Hom(x,y) -> Hom(x,z).
"""

from itertools import product as iproduct

from . import sset
from .delta import degeneracy, tcompose
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

    def id(self, x):
        return self.ident[x]

    def is_identity(self, a):
        return self.ident.get(self.src[a]) == a

    def hom(self, x, y):
        return tuple(a for a in self.arrows
                     if self.src[a] == x and self.dst[a] == y)

    def nonidentity_arrows(self):
        return tuple(a for a in self.arrows if not self.is_identity(a))

    def composable_pairs(self):
        for g in self.arrows:
            for f in self.arrows:
                if self.dst[f] == self.src[g]:
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
        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate object names")
        if len(set(self.arrows)) != len(self.arrows):
            raise InputError("duplicate arrow names")
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

    def __repr__(self):
        return "FinCategory(%d objects, %d arrows)" % (len(self.objects),
                                                       len(self.arrows))

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

    def __eq__(self, other):
        return (isinstance(other, Functor) and self.source is other.source
                and self.target is other.target
                and self.obj_map == other.obj_map
                and self.arr_map == other.arr_map)

    def __hash__(self):
        return hash((tuple(sorted(self.obj_map.items())),
                     tuple(sorted(self.arr_map.items()))))

    def __repr__(self):
        return "Functor(%r -> %r)" % (self.source, self.target)


def identity_functor(C):
    return Functor(C, C, {x: x for x in C.objects},
                   {a: a for a in C.arrows})


def compose_functors(G, F):
    if F.target is not G.source:
        raise InputError("functors do not compose")
    return Functor(F.source, G.target,
                   {x: G.obj_map[F.obj_map[x]] for x in F.source.objects},
                   {a: G.arr_map[F.arr_map[a]] for a in F.source.arrows})


class RelativeCategory:
    """A category with a collection of weak arrows containing the
    identities; optionally certified closed under composition."""

    def __init__(self, category, weak, subcategory=False):
        self.category = category
        self.weak = frozenset(weak)
        self.subcategory = subcategory
        for x in category.objects:
            if category.ident[x] not in self.weak:
                raise InputError("weak arrows must contain the identities")
        for w in self.weak:
            if w not in category.arrows:
                raise InputError("weak arrow %s is not an arrow" % w)
        if subcategory:
            for g, f in category.composable_pairs():
                if g in self.weak and f in self.weak and \
                        category.compose(g, f) not in self.weak:
                    raise InputError("weak arrows are not closed under "
                                     "composition")

    def is_composition_closed(self):
        C = self.category
        return all(C.compose(g, f) in self.weak
                   for g, f in C.composable_pairs()
                   if g in self.weak and f in self.weak)


# ---------------------------------------------------------------------------
# builders


def discrete_category(objects):
    objects = tuple(objects)
    ident = {x: "id_%s" % x for x in objects}
    arrows = tuple(ident[x] for x in objects)
    src = {ident[x]: x for x in objects}
    dst = dict(src)
    comp = {(ident[x], ident[x]): ident[x] for x in objects}
    return FinCategory(objects, arrows, src, dst, comp, ident)


def poset_category(elements, leq):
    """The thin category of a finite preorder: one arrow x->y when
    leq(x, y), checked to be a category."""
    elements = tuple(elements)
    arrows = []
    src = {}
    dst = {}
    for x in elements:
        for y in elements:
            if leq(x, y):
                a = "%s<=%s" % (x, y)
                arrows.append(a)
                src[a] = x
                dst[a] = y
    comp = {}
    for g in arrows:
        for f in arrows:
            if dst[f] == src[g]:
                comp[(g, f)] = "%s<=%s" % (src[f], dst[g])
    ident = {x: "%s<=%s" % (x, x) for x in elements}
    return FinCategory(elements, arrows, src, dst, comp, ident).validate()


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
    obj = "*"
    src = {g: obj for g in elements}
    dst = dict(src)
    # compose(g, f) = "f then g" = table[(f, g)]
    comp = {(g, f): table[(f, g)] for g in elements for f in elements}
    return FinCategory((obj,), tuple(elements), src, dst, comp,
                       {obj: unit}).validate()


def cyclic_table(m):
    """Multiplication table of Z/m, elements g0..g{m-1}."""
    name = lambda k: "g%d" % k
    return {(name(a), name(b)): name((a + b) % m)
            for a in range(m) for b in range(m)}


def symmetric3_table():
    """Multiplication table of the symmetric group on 3 letters; element
    names are one-line permutation words, composed left-then-right."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
             (2, 1, 0)]
    name = {p: "".join(str(v) for v in p) for p in perms}
    table = {}
    for p in perms:
        for q in perms:
            pq = tuple(q[p[i]] for i in range(3))  # p then q
            table[(name[p], name[q])] = name[pq]
    return table


def klein_table():
    els = ["e", "a", "b", "c"]
    idx = {e: i for i, e in enumerate(els)}
    mul = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return {(g, h): els[mul[idx[g]][idx[h]]] for g in els for h in els}


def product_category(C, D):
    objects = ["(%s,%s)" % (x, y) for x in C.objects for y in D.objects]
    arrows = []
    src = {}
    dst = {}
    for a in C.arrows:
        for b in D.arrows:
            n = "(%s,%s)" % (a, b)
            arrows.append(n)
            src[n] = "(%s,%s)" % (C.src[a], D.src[b])
            dst[n] = "(%s,%s)" % (C.dst[a], D.dst[b])
    comp = {}
    for a2, a1 in C.composable_pairs():
        for b2, b1 in D.composable_pairs():
            comp[("(%s,%s)" % (a2, b2), "(%s,%s)" % (a1, b1))] = \
                "(%s,%s)" % (C.compose(a2, a1), D.compose(b2, b1))
    ident = {"(%s,%s)" % (x, y): "(%s,%s)" % (C.ident[x], D.ident[y])
             for x in C.objects for y in D.objects}
    return FinCategory(objects, arrows, src, dst, comp, ident)


def full_subcategory(C, objects):
    objects = tuple(objects)
    arrows = tuple(a for a in C.arrows
                   if C.src[a] in objects and C.dst[a] in objects)
    comp = {(g, f): c for (g, f), c in C.comp.items()
            if g in arrows and f in arrows}
    return FinCategory(objects, arrows,
                       {a: C.src[a] for a in arrows},
                       {a: C.dst[a] for a in arrows},
                       comp, {x: C.ident[x] for x in objects})


# ---------------------------------------------------------------------------
# nerve


def nerve(C, d):
    """The nerve, truncated at dimension d: k-simplices are composable
    k-chains; nondegenerate chains have no identity link.

    A level element is (source object, tuple of arrows)."""
    if d < 0:
        raise InputError("nerve truncation must be nonnegative")
    levels = [[(x, ()) for x in C.objects]]
    for n in range(1, d + 1):
        level = []
        for x, chain in levels[n - 1]:
            tail = C.dst[chain[-1]] if chain else x
            for a in C.arrows:
                if C.src[a] == tail:
                    level.append((x, chain + (a,)))
        levels.append(level)

    def action(alpha, element):
        x, chain = element
        verts = _chain_vertices(C, x, chain)
        m = len(alpha) - 1
        out = tuple(_chain_segment(C, x, chain, alpha[j - 1], alpha[j])
                    for j in range(1, m + 1))
        return (verts[alpha[0]], out)

    def name_fn(n, element):
        x, chain = element
        return x if n == 0 else _chain_name(chain)

    return sset.from_presheaf(d, levels, action, name_fn=name_fn)


def _chain_vertices(C, x, chain):
    verts = [x]
    for a in chain:
        verts.append(C.dst[a])
    return verts


def _chain_segment(C, x, chain, a, b):
    """Composite of the chain links between positions a <= b, as one
    arrow (identity when a == b)."""
    if a == b:
        return C.ident[_chain_vertices(C, x, chain)[a]]
    out = chain[a]
    for j in range(a + 1, b):
        out = C.compose(chain[j], out)
    return out


def category_from_nerve(X):
    """Reconstruct a category from a simplicial set that is nerve-like
    (unique inner fillers) and return it; raises InputError when the
    2-skeleton is not a category, which validate() decides."""
    if X.truncation is not None and X.truncation < 2:
        raise InputError("need at least the 2-truncation")
    objects = list(X.cells(0))
    arrows = []
    src = {}
    dst = {}
    for idx, name in enumerate(X.cells(1)):
        e = X.cell_simplex(1, name)
        (s1, v1) = X.face_of(1, e)
        (s0, v0) = X.face_of(0, e)
        arrows.append(name)
        src[name] = X.names[0][v1]
        dst[name] = X.names[0][v0]
    ident = {}
    arrow_of_simplex = {}
    for name in arrows:
        arrow_of_simplex[X.cell_simplex(1, name)] = name
    for idx, obj in enumerate(objects):
        dg = ((0, 0), idx)
        nm = "id_%s" % obj
        arrow_of_simplex[dg] = nm
        arrows.append(nm)
        src[nm] = obj
        dst[nm] = obj
        ident[obj] = nm
    # composition via the unique 2-simplex with d_2 = f, d_0 = g
    by_faces = {}
    for w in X.simplices(2):
        f2 = X.face_of(2, w)
        f0 = X.face_of(0, w)
        f1 = X.face_of(1, w)
        by_faces.setdefault((f2, f0), set()).add(f1)
    comp = {}
    simplex_of_arrow = {v: k for k, v in arrow_of_simplex.items()}
    for g in arrows:
        for f in arrows:
            if dst[f] != src[g]:
                continue
            key = (simplex_of_arrow[f], simplex_of_arrow[g])
            found = by_faces.get(key, set())
            if len(found) != 1:
                raise InputError(
                    "object is not nerve-like: %d composites for (%s, %s)"
                    % (len(found), g, f))
            comp[(g, f)] = arrow_of_simplex[found.pop()]
    return FinCategory(objects, arrows, src, dst, comp, ident).validate()


def nerve_functor_map(F, d, NC=None, ND=None):
    """The simplicial map N(F): N(C) -> N(D) at truncation d."""
    NC = NC if NC is not None else nerve(F.source, d)
    ND = ND if ND is not None else nerve(F.target, d)
    images = {}
    for k in range(len(NC.names)):
        for name in NC.cells(k):
            if k == 0:
                images[(k, name)] = ND.cell_simplex(0, F.obj_map[name])
            else:
                chain = tuple(F.arr_map[a] for a in name.split("|"))
                images[(k, name)] = _nerve_simplex_of_chain(
                    F.target, ND, chain,
                    F.obj_map[NC.names[0][NC.apply(
                        (0,), NC.cell_simplex(k, name))[1]]])
    return sset.map_from_cells(NC, ND, images)


def _nerve_simplex_of_chain(C, NC, chain, source_obj):
    """E-Z form in the nerve of a possibly degenerate chain of arrows."""
    word = tuple(range(len(chain) + 1))
    core = list(chain)
    n = len(core)
    while True:
        for i, a in enumerate(core):
            if C.is_identity(a):
                word = tcompose(degeneracy(n, i), word)
                del core[i]
                n -= 1
                break
        else:
            break
    if not core:
        return (word, NC.cell_index(0, source_obj))
    return (word, NC.cell_index(len(core), _chain_name(core)))


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
    arrows = tuple(a for a in C.arrows if C.is_iso(a))
    comp = {(g, f): c for (g, f), c in C.comp.items()
            if g in arrows and f in arrows}
    return FinCategory(C.objects, arrows,
                       {a: C.src[a] for a in arrows},
                       {a: C.dst[a] for a in arrows}, comp, dict(C.ident))


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

    arrows = []
    src = {}
    dst = {}
    names = {}
    for word, x in all_words:
        nm = word_name(word, x)
        names[(word, x)] = nm
        arrows.append(nm)
        src[nm] = x
        dst[nm] = ldst[word[-1]] if word else x
    lookup = {}
    for (word, x), nm in names.items():
        lookup[(word, x)] = nm
    comp = {}
    for (w2, x2), n2 in names.items():
        for (w1, x1), n1 in names.items():
            if dst[n1] != x2:
                continue
            nf = normalize(w1 + w2)
            comp[(n2, n1)] = lookup[(nf, x1)]
    ident = {x: lookup[((), x)] for x in C.objects}
    Q = FinCategory(C.objects, arrows, src, dst, comp, ident).validate()
    obj_map = {x: x for x in C.objects}
    arr_map = {}
    for a in C.arrows:
        if C.is_identity(a):
            arr_map[a] = ident[C.src[a]]
        else:
            nf = normalize((("a", a),))
            arr_map[a] = lookup[(nf, C.src[a])]
    return Localization(Q, Functor(C, Q, obj_map, arr_map).validate(), rounds)
