"""Deterministic families of small categories and functors shared by the
acceptance suite: named posets, deloopings, monoids, products, and seeded
random thin categories."""

import random

from simpcat.nerve_cat import (FinCategory, bg, cyclic_table,
                               discrete_category, klein_table,
                               poset_category, product_category,
                               symmetric3_table)

from test_nerve_cat import iso_pair_category


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
    from simpcat.nerve_cat import Functor, identity_functor

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
