import pytest
from hypothesis import given, settings, strategies as st

from simpcat import formats, nerve_cat, sset
from simpcat.errors import FuelExhausted, InputError
from simpcat.nerve_cat import (FinCategory, Functor, RelativeCategory,
                               all_functors, bg, category_from_nerve,
                               cyclic_table, discrete_category,
                               find_category_isomorphism, full_subcategory,
                               klein_table, localize, max_subgroupoid,
                               nerve, nerve_functor_map, ordinal_category,
                               poset_category, product_category,
                               symmetric3_table)
from simpcat.sset import enumerate_maps, spine


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


def test_category_validation():
    C = ordinal_category(2)
    assert len(C.objects) == 3
    assert len(C.arrows) == 6
    with pytest.raises(InputError) as direct:
        FinCategory(["x"], ["f"], {"f": "x"}, {"f": "x"}, {},
                    {"x": "f"}).validate()
    # the same table as a document, through its loader
    with pytest.raises(InputError) as loaded:
        formats.category_from_dict({
            "kind": "category", "objects": ["x"],
            "arrows": [{"name": "f", "src": "x", "dst": "x"}],
            "compose": [], "identities": {"x": "f"}})
    assert str(loaded.value) == str(direct.value) == \
        "missing composite f after f"


def test_bg_counts():
    B = bg(cyclic_table(2))
    assert len(B.objects) == 1
    assert len(B.arrows) == 2
    assert bg(cyclic_table(1)).arrows == ("g0",)
    S3 = bg(symmetric3_table())
    assert len(S3.arrows) == 6
    assert S3.is_groupoid()
    # non-associative magma with unit e: (x.x).x != x.(x.x)
    bad = {("e", "e"): "e", ("e", "x"): "x", ("e", "y"): "y",
           ("x", "e"): "x", ("y", "e"): "y",
           ("x", "x"): "y", ("x", "y"): "e", ("y", "x"): "x",
           ("y", "y"): "y"}
    with pytest.raises(InputError):
        bg(bad)


def test_nerve_counts():
    N = nerve(ordinal_category(2), 3)
    assert [N.n_cells(k) for k in range(4)] == [3, 3, 1, 0]
    D = nerve(discrete_category(["x", "y"]), 2)
    assert [D.n_cells(k) for k in range(3)] == [2, 0, 0]
    NB = nerve(bg(cyclic_table(2)), 3)
    assert [NB.n_cells(k) for k in range(4)] == [1, 1, 1, 1]
    # N_2 of B(S3) counts all 2-simplices: |G|^2 = 36
    NS = nerve(bg(symmetric3_table()), 2)
    assert len(NS.simplices(2)) == 36


def test_nerve_spine_bijection():
    # restriction from n-simplices to spine maps is a bijection, n <= 5
    for C in [ordinal_category(2), bg(cyclic_table(2)), iso_pair_category()]:
        for n in range(2, 5):
            N = nerve(C, n)
            spine_maps = enumerate_maps(spine(n), N)
            assert len(spine_maps) == len(N.simplices(n))


def test_nerve_fully_faithful():
    # functors C -> D biject with simplicial maps N(C) -> N(D)
    pairs = [
        (ordinal_category(1), ordinal_category(2)),
        (bg(cyclic_table(2)), bg(cyclic_table(4))),
        (discrete_category(["x", "y"]), ordinal_category(1)),
        (ordinal_category(2), bg(cyclic_table(2))),
    ]
    from oracles import all_functors_by_backtracking
    for C, D in pairs:
        functors = all_functors_by_backtracking(C, D)
        NC, ND = nerve(C, 3), nerve(D, 3)
        maps = enumerate_maps(NC, ND)
        assert len(maps) == len(functors)
        images = {nerve_functor_map(F, 3, NC, ND).assignment
                  for F in functors}
        assert images == {m.assignment for m in maps}


def test_category_from_nerve_roundtrip():
    for C in [ordinal_category(2), iso_pair_category(),
              bg(cyclic_table(3))]:
        C2 = category_from_nerve(nerve(C, 3))
        assert find_category_isomorphism(C, C2) is not None


def test_max_subgroupoid():
    assert len(max_subgroupoid(ordinal_category(2)).arrows) == 3
    B = bg(cyclic_table(4))
    assert len(max_subgroupoid(B).arrows) == 4
    M = max_subgroupoid(iso_pair_category())
    assert set(M.arrows) == {"ia", "ib", "ic", "u", "v"}
    assert M.is_groupoid()


def test_poset_and_product():
    P = product_category(ordinal_category(1), ordinal_category(1))
    assert len(P.objects) == 4
    assert len(P.arrows) == 9
    F = full_subcategory(iso_pair_category(), ["a", "b"])
    assert set(F.arrows) == {"ia", "ib", "u", "v"}


def test_relative_category_validation():
    C = ordinal_category(1)
    with pytest.raises(InputError):
        RelativeCategory(C, set())  # identities missing
    W = set(C.arrows)
    R = RelativeCategory(C, W, subcategory=True)
    assert R.is_composition_closed()


def test_localize_inverts_the_arrow():
    C = ordinal_category(1)
    R = RelativeCategory(C, set(C.arrows))
    result = localize(R, fuel=5)
    assert not isinstance(result, FuelExhausted)
    Q = result.category
    # contractible groupoid on 2 objects: one arrow in each direction
    assert len(Q.objects) == 2
    for x in Q.objects:
        for y in Q.objects:
            assert len(Q.hom(x, y)) == 1
    assert Q.is_groupoid()
    # canonical functor sends the weak arrow to an isomorphism
    arrow = [a for a in C.arrows if not C.is_identity(a)][0]
    assert Q.is_iso(result.functor.arr_map[arrow])


def test_localize_nothing_inverted():
    C = iso_pair_category()
    R = RelativeCategory(C, {C.ident[x] for x in C.objects})
    result = localize(R, fuel=6)
    assert not isinstance(result, FuelExhausted)
    assert find_category_isomorphism(result.category, C) is not None


def test_localize_groupoid_fixed():
    B = bg(cyclic_table(3))
    R = RelativeCategory(B, set(B.arrows))
    result = localize(R, fuel=8)
    assert not isinstance(result, FuelExhausted)
    assert find_category_isomorphism(result.category, B) is not None


def _iso_pair_named(ia, ib, u, v):
    """Objects a and b with identities ia and ib, joined by inverse
    arrows u: a -> b and v: b -> a."""
    C = FinCategory(
        ["a", "b"], [ia, ib, u, v], {ia: "a", ib: "b", u: "a", v: "b"},
        {ia: "a", ib: "b", u: "b", v: "a"},
        {(ia, ia): ia, (ib, ib): ib, (u, ia): u, (ib, u): u, (v, ib): v,
         (ia, v): v, (v, u): ia, (u, v): ib}, {"a": ia, "b": ib})
    C.validate()
    return C


def test_localize_and_functors_on_integer_and_mixed_names():
    # arrow names may be integers, or integers and strings in one
    # category; the answers are those of the same category with every
    # arrow renamed to str of its name
    for names in ([1, 2, 3, 4], [1, "ib", 3, "v"]):
        C = _iso_pair_named(*names)
        S = _iso_pair_named(*map(str, names))
        for W in ({C.ident[x] for x in C.objects}, set(C.arrows)):
            result = localize(RelativeCategory(C, W), fuel=4)
            want = localize(RelativeCategory(S, set(map(str, W))), fuel=4)
            assert result.category.as_dict() == want.category.as_dict()
        assert [({x: y for x, y in F.obj_map.items()},
                 {str(a): str(b) for a, b in F.arr_map.items()})
                for F in all_functors(C, C)] == _functor_tables(
                    all_functors(S, S))


def test_localize_poset_chain():
    # inverting one leg of [2] keeps a finite category
    C = ordinal_category(2)
    W = {C.ident[x] for x in C.objects} | {"0<=1"}
    result = localize(RelativeCategory(C, W), fuel=8)
    assert not isinstance(result, FuelExhausted)
    Q = result.category
    assert len(Q.objects) == 3
    # 0 and 1 become isomorphic; homs to 2 collapse accordingly
    assert len(Q.hom("0", "1")) == 1
    assert len(Q.hom("1", "0")) == 1
    assert len(Q.hom("0", "2")) == 1


def test_localize_universal_property_brute_force():
    # for small relative categories, the localization is initial among
    # W-inverting functors: any W-inverting functor to a small test
    # category factors uniquely through the canonical one
    tests = [bg(cyclic_table(2)), ordinal_category(1),
             discrete_category(["x", "y"])]
    cases = [
        RelativeCategory(ordinal_category(1),
                         set(ordinal_category(1).arrows)),
        RelativeCategory(ordinal_category(2), {
            "0<=0", "1<=1", "2<=2", "0<=1"}),
    ]
    for R in cases:
        C = R.category
        result = localize(R, fuel=8)
        assert not isinstance(result, FuelExhausted)
        Q, eta = result.category, result.functor
        for D in tests:
            for F in all_functors(C, D):
                if not all(D.is_iso(F.arr_map[w]) for w in R.weak):
                    continue
                factorizations = [
                    G for G in all_functors(Q, D)
                    if all(G.obj_map[eta.obj_map[x]] == F.obj_map[x]
                           for x in C.objects)
                    and all(G.arr_map[eta.arr_map[a]] == F.arr_map[a]
                            for a in C.arrows)]
                assert len(factorizations) == 1


def test_localize_fuel_validation():
    C = ordinal_category(1)
    with pytest.raises(InputError):
        localize(RelativeCategory(C, set(C.arrows)), fuel=0)


def test_localize_infinite_refuses():
    # the walking parallel pair with one leg inverted localizes to a
    # category with a free endomorphism monoid: the engine must refuse
    objects = ["x", "y"]
    arrows = ["ix", "iy", "f", "g"]
    src = {"ix": "x", "iy": "y", "f": "x", "g": "x"}
    dst = {"ix": "x", "iy": "y", "f": "y", "g": "y"}
    comp = {}
    ident = {"x": "ix", "y": "iy"}
    for a2 in arrows:
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            if a1 == ident[src[a1]]:
                comp[(a2, a1)] = a2
            elif a2 == ident[dst[a1]]:
                comp[(a2, a1)] = a1
    C = FinCategory(objects, arrows, src, dst, comp, ident)
    C.validate()
    R = RelativeCategory(C, {"ix", "iy", "f"})
    result = localize(R, fuel=4)
    assert isinstance(result, FuelExhausted)


def test_opposite_category():
    C = iso_pair_category()
    Cop = C.opposite()
    Cop.validate()
    assert Cop.src["u"] == "b"
    assert find_category_isomorphism(C.opposite().opposite(), C) is not None


# -- isomorphisms of categories as isomorphisms of 2-truncated nerves


def _renamed_copy(C, objects, arrows):
    """C with its objects and arrows renamed o0, o1, ... and a0, a1, ...
    in the given orders, listed in those orders."""
    obj = {x: "o%d" % i for i, x in enumerate(objects)}
    arr = {a: "a%d" % i for i, a in enumerate(arrows)}
    D = FinCategory([obj[x] for x in objects], [arr[a] for a in arrows],
                    {arr[a]: obj[C.src[a]] for a in arrows},
                    {arr[a]: obj[C.dst[a]] for a in arrows},
                    {(arr[g], arr[f]): arr[c]
                     for (g, f), c in C.comp.items()},
                    {obj[x]: arr[e] for x, e in C.ident.items()})
    D.validate()
    return D


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_find_category_isomorphism_reads_back_a_renamed_copy(data):
    from families import category_family
    name, C = data.draw(st.sampled_from(category_family()))
    D = _renamed_copy(C, data.draw(st.permutations(C.objects)),
                      data.draw(st.permutations(C.arrows)))
    F = find_category_isomorphism(C, D)
    assert F is not None, name
    assert F.source is C and F.target is D
    F.validate()
    assert F.is_isomorphism()


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_category_from_nerve_of_nerve_is_isomorphic(data):
    # the 2-truncated nerve determines the category: objects are its
    # vertices, arrows its edges and composition its 2-simplices
    import random
    from families import category_family, random_thin_category
    if data.draw(st.booleans()):
        name, C = data.draw(st.sampled_from(category_family()))
    else:
        seed = data.draw(st.integers(0, 10 ** 6))
        name = "thin-%d" % seed
        C = random_thin_category(random.Random(seed),
                                 data.draw(st.integers(1, 4)))
    D = category_from_nerve(nerve(C, 2))
    F = find_category_isomorphism(D, C)
    assert F is not None, name
    F.validate()
    assert F.is_isomorphism()


def test_find_category_isomorphism_matches_backtracking():
    from families import category_family
    from oracles import category_isomorphism_by_backtracking
    family = category_family()
    found = 0
    for c_name, C in family:
        for d_name, D in family:
            fast = find_category_isomorphism(C, D)
            slow = category_isomorphism_by_backtracking(C, D)
            assert (fast is None) == (slow is None), (c_name, d_name)
            found += fast is not None
    assert found > len(family)


def test_find_category_isomorphism_negative_cases():
    # same object and arrow counts, not isomorphic
    assert find_category_isomorphism(bg(cyclic_table(4)),
                                     bg(klein_table())) is None
    C = ordinal_category(2)
    assert find_category_isomorphism(C, C.opposite()) is not None
    assert find_category_isomorphism(
        poset_category(["r", "s", "t"], lambda x, y: x == y or x == "r"),
        poset_category(["r", "s", "t"],
                       lambda x, y: x == y or y == "t")) is None


def _functor_tables(functors):
    return [(F.obj_map, F.arr_map) for F in functors]


def test_all_functors_match_backtracking():
    from families import category_family
    from oracles import all_functors_by_backtracking
    family = category_family(max_objects=3, max_arrows=6)
    for c_name, C in family:
        for d_name, D in family:
            assert _functor_tables(all_functors(C, D)) == _functor_tables(
                all_functors_by_backtracking(C, D)), (c_name, d_name)


def test_integer_names_read_back_through_the_nerve():
    # nerve edges are named by str(arrow); reading a map of nerves back
    # as a functor turns those names into the arrows again
    from oracles import all_functors_by_backtracking
    C = FinCategory([0, 1], [10, 11, 12], {10: 0, 11: 1, 12: 0},
                    {10: 0, 11: 1, 12: 1},
                    {(10, 10): 10, (11, 11): 11, (12, 10): 12,
                     (11, 12): 12}, {0: 10, 1: 11})
    C.validate()
    F = find_category_isomorphism(C, C)
    assert (F.obj_map, F.arr_map) == ({0: 0, 1: 1},
                                      {10: 10, 11: 11, 12: 12})
    functors = all_functors(C, C)
    assert len(functors) == 3
    assert _functor_tables(functors) == _functor_tables(
        all_functors_by_backtracking(C, C))
