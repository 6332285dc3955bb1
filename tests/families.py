"""Deterministic families of small categories and functors shared by the
acceptance suite: named posets, deloopings, monoids, products, and seeded
random thin categories; and the fixtures the tests build them from: group
tables, discrete categories, identity and composite functors, identity
chain maps."""

import random

from simpcat.chain_model import ChainMap
from simpcat.errors import InputError
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (FinCategory, Functor, bg, poset_category,
                               product_category)


def compose_functors(G, F):
    if F.target is not G.source:
        raise InputError("functors do not compose")
    return Functor(F.source, G.target,
                   {x: G.obj_map[F.obj_map[x]] for x in F.source.objects},
                   {a: G.arr_map[F.arr_map[a]] for a in F.source.arrows})


def cyclic_table(m):
    """Multiplication table of Z/m, elements g0..g{m-1}."""
    name = lambda k: "g%d" % k
    return {(name(a), name(b)): name((a + b) % m)
            for a in range(m) for b in range(m)}


def discrete_category(objects):
    objects = tuple(objects)
    ident = {x: "id_%s" % x for x in objects}
    arrows = tuple(ident[x] for x in objects)
    src = {ident[x]: x for x in objects}
    dst = dict(src)
    comp = {(ident[x], ident[x]): ident[x] for x in objects}
    return FinCategory(objects, arrows, src, dst, comp, ident)


def identity_chain_map(C):
    return ChainMap(C, C, {n: Mat.identity(C.rank(n))
                           for n in range(C.lo, C.hi + 1)})


def identity_functor(C):
    return Functor(C, C, {x: x for x in C.objects},
                   {a: a for a in C.arrows})


def iso_pair_category():
    """Two objects joined by an isomorphism pair, plus a third object
    with one non-invertible arrow into it."""
    objects = ["a", "b", "c"]
    arrows = ["ia", "ib", "ic", "u", "v", "w", "wu"]
    src = {"ia": "a", "ib": "b", "ic": "c", "u": "a", "v": "b", "w": "b",
           "wu": "a"}
    dst = {"ia": "a", "ib": "b", "ic": "c", "u": "b", "v": "a", "w": "c",
           "wu": "c"}
    comp = {}
    ident = {"a": "ia", "b": "ib", "c": "ic"}
    table = {
        ("v", "u"): "ia", ("u", "v"): "ib",
        ("w", "u"): "wu", ("wu", "v"): "w",
    }

    def compose(g, f):
        if src[g] != dst[f]:
            return None
        if f == ident[src[f]]:
            return g
        if g == ident[dst[f]]:
            return f
        return table[(g, f)]

    for g in arrows:
        for f in arrows:
            if dst[f] == src[g]:
                comp[(g, f)] = compose(g, f)
    C = FinCategory(objects, arrows, src, dst, comp, ident)
    C.validate()
    return C


def klein_table():
    els = ["e", "a", "b", "c"]
    idx = {e: i for i, e in enumerate(els)}
    mul = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return {(g, h): els[mul[idx[g]][idx[h]]] for g in els for h in els}


def parallel_pair_category():
    """The walking parallel pair f, g: x -> y, identities ix and iy."""
    arrows = ["ix", "iy", "f", "g"]
    src = {"ix": "x", "iy": "y", "f": "x", "g": "x"}
    dst = {"ix": "x", "iy": "y", "f": "y", "g": "y"}
    ident = {"x": "ix", "y": "iy"}
    comp = {}
    for a2 in arrows:
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            if a1 == ident[src[a1]]:
                comp[(a2, a1)] = a2
            elif a2 == ident[dst[a1]]:
                comp[(a2, a1)] = a1
    return FinCategory(["x", "y"], arrows, src, dst, comp, ident).validate()


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


def min_monoid_table(n):
    """The monoid (0..n-1, min) with unit n-1."""
    els = [str(i) for i in range(n)]
    return {(a, b): str(min(int(a), int(b))) for a in els for b in els}


def random_thin_category(rng, n_objects):
    """Reflexive-transitive closure of a random relation, as a thin
    category."""
    objs = [chr(ord("a") + i) for i in range(n_objects)]
    rel = {(x, x) for x in objs}
    for x in objs:
        for y in objs:
            if x != y and rng.random() < 0.4:
                rel.add((x, y))
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return poset_category(objs, lambda x, y: (x, y) in rel)


def category_family(minimum=20, max_objects=4, max_arrows=10, seed=42):
    """At least `minimum` finite categories within the size caps."""
    out = []

    def add(name, C):
        if len(C.objects) <= max_objects and len(C.arrows) <= max_arrows:
            out.append((name, C))

    add("terminal", poset_category(["0"], lambda x, y: True))
    add("ordinal-1", poset_category(["0", "1"],
                                    lambda x, y: int(x) <= int(y)))
    add("ordinal-2", poset_category(["0", "1", "2"],
                                    lambda x, y: int(x) <= int(y)))
    add("ordinal-3", poset_category(["0", "1", "2", "3"],
                                    lambda x, y: int(x) <= int(y)))
    add("discrete-2", discrete_category(["x", "y"]))
    add("discrete-3", discrete_category(["x", "y", "z"]))
    add("vee", poset_category(["r", "s", "t"],
                              lambda x, y: x == y or x == "r"))
    add("wedge", poset_category(["r", "s", "t"],
                                lambda x, y: x == y or y == "t"))
    add("diamond", poset_category(
        ["b", "l", "r", "t"],
        lambda x, y: x == y or x == "b" or y == "t"))
    add("bz2", bg(cyclic_table(2)))
    add("bz3", bg(cyclic_table(3)))
    add("bz4", bg(cyclic_table(4)))
    add("bklein", bg(klein_table()))
    add("bs3", bg(symmetric3_table()))
    add("min-monoid-2", bg(min_monoid_table(2)))
    add("min-monoid-3", bg(min_monoid_table(3)))
    add("iso-pair", iso_pair_category())
    add("square", product_category(
        poset_category(["0", "1"], lambda x, y: int(x) <= int(y)),
        poset_category(["0", "1"], lambda x, y: int(x) <= int(y))))
    add("arrow-x-point", product_category(
        poset_category(["0", "1"], lambda x, y: int(x) <= int(y)),
        discrete_category(["p"])))
    rng = random.Random(seed)
    attempt = 0
    while len(out) < minimum + 4 and attempt < 60:
        attempt += 1
        C = random_thin_category(rng, rng.choice([3, 3, 4]))
        if len(C.arrows) <= max_arrows:
            key = tuple(sorted((C.src[a], C.dst[a]) for a in C.arrows))
            if all(key != tuple(sorted((D.src[a], D.dst[a])
                                       for a in D.arrows))
                   or len(D.objects) != len(C.objects)
                   for _, D in out):
                out.append(("thin-%d" % attempt, C))
    assert len(out) >= minimum
    return out


def functor_family():
    """Functors for the fibration oracle checks, within small arrow
    counts."""
    from test_fibrations import square_to_triangle, z4_to_z2

    cases = []
    G, H, F = z4_to_z2()
    cases.append(("bz4->bz2", F))
    S, T, F2 = square_to_triangle()
    cases.append(("square->triangle", F2))
    cases.append(("id-iso-pair", identity_functor(iso_pair_category())))
    C = poset_category(["0", "1"], lambda x, y: int(x) <= int(y))
    T1 = poset_category(["0"], lambda x, y: True)
    cases.append(("arrow->point", Functor(
        C, T1, {"0": "0", "1": "0"}, {a: "0<=0" for a in C.arrows})))
    B = bg(cyclic_table(2))
    cases.append(("bz2->point", Functor(
        B, T1, {"*": "0"}, {a: "0<=0" for a in B.arrows})))
    V = poset_category(["r", "s", "t"],
                       lambda x, y: x == y or x == "r")
    cases.append(("vee-inclusion", Functor(
        C, V, {"0": "r", "1": "s"},
        {"0<=0": "r<=r", "1<=1": "s<=s", "0<=1": "r<=s"})))
    for _, F in cases:
        F.validate()
    return cases
