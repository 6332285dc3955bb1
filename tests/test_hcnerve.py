import gc
import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simpcat import formats, hcnerve, sset
from simpcat.delta import all_surjections, tcompose
from simpcat.errors import InputError
from simpcat.hcnerve import (coherent_nerve, frak_c, from_fincategory,
                             horn_mapspace, one_object_from_abelian_group,
                             pi0_category, two_object_arrow_space)
from simpcat.nerve_cat import (bg, find_category_isomorphism, nerve,
                               ordinal_category)
from simpcat.quasicat import classify
from simpcat.sset import (find_isomorphism, is_isomorphic, product,
                          standard_simplex)

from families import category_family, cyclic_table, random_thin_category
from oracles import (SimplicialCategoryAllPairs, all_pairs_to_dict,
                     coherent_nerve_by_pairs, frak_c_by_pairs, pair_subsets,
                     poset_nerve_by_chains, simplicial_functors_all_pairs)


def test_frak_c_small():
    F0 = frak_c(0)
    assert F0.objects == ("0",)
    F1 = frak_c(1)
    M01 = F1.mapspace("0", "1")
    assert M01.n_cells(0) == 1 and M01.dim_max == 0
    F2 = frak_c(2)
    M02 = F2.mapspace("0", "2")
    # two 0-simplices (gf and the direct arrow) and one 1-simplex
    assert M02.n_cells(0) == 2
    assert M02.n_cells(1) == 1
    assert F2.mapspace("2", "0").n_cells(0) == 0


def test_frak_c_cube_mapspaces():
    # Map(0, n) is the (n-1)-cube
    for n in (2, 3, 4, 5):
        cube = standard_simplex(1)
        for _ in range(n - 2):
            cube, _ = product(cube, standard_simplex(1))
        M = frak_c(n).mapspace("0", str(n))
        assert is_isomorphic(M, cube)


def test_frak_c_associativity_as_validation():
    # constructor runs the strict associativity and simpliciality checks
    for n in range(6):
        frak_c(n)


def test_horn_mapspace_n2():
    sub, ambient, incl = horn_mapspace(2, 1)
    assert ambient.n_cells(0) == 2  # Delta^1
    assert sub.n_cells(0) == 1
    assert sub.cells(0) == ("0",)
    incl.validate()


def test_horn_mapspace_n3():
    sub, ambient, incl = horn_mapspace(3, 1)
    # boundary of the square minus the closed edge {x_1 = 1}
    assert ambient.n_cells(0) == 4
    assert sub.n_cells(0) == 4
    assert sub.n_cells(1) == 3
    assert sub.n_cells(2) == 0
    sub2, _, _ = horn_mapspace(3, 2)
    assert sub2.n_cells(1) == 3
    with pytest.raises(InputError):
        horn_mapspace(3, 0)
    with pytest.raises(InputError):
        horn_mapspace(3, 3)


def test_coherent_nerve_discrete_matches_nerve():
    for C in [ordinal_category(2), bg(cyclic_table(2))]:
        SC = from_fincategory(C, level_bound=2)
        N1 = coherent_nerve(SC, 3)
        N2 = nerve(C, 3)
        assert find_isomorphism(N1, N2) is not None


def test_coherent_nerve_leaves_no_garbage():
    # a functor search through a recursive closure keeps its map cache,
    # the enumerated maps and both categories alive until the cyclic
    # collector runs
    SC = from_fincategory(ordinal_category(2), level_bound=2)
    gc.collect()
    gc.disable()
    try:
        coherent_nerve(SC, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_coherent_nerve_dim0():
    SC = from_fincategory(ordinal_category(2), level_bound=1)
    N = coherent_nerve(SC, 0)
    assert N.n_cells(0) == 3


def test_coherent_nerve_arrow_space_counts():
    # 2 objects, Map(0,1) = Delta^1, trivial endomorphisms: the 2-cells
    # of the coherent nerve were counted by hand: F in {000,001,011,111}
    # object patterns contribute 1 + 3 + 3 + 1 = 8 functors.
    SC = two_object_arrow_space(standard_simplex(1))
    N = coherent_nerve(SC, 2)
    assert len(N.simplices(2)) == 8


def test_coherent_nerve_kan_mapspaces_quasicategory():
    SC = one_object_from_abelian_group(cyclic_table(2), level_bound=2)
    N = coherent_nerve(SC, 3)
    report = classify(N, 3, "inner")
    assert report.is_quasicategory()


def test_pi0_category_frak_c2():
    P = pi0_category(frak_c(2))
    assert find_category_isomorphism(P, ordinal_category(2)) is not None


def test_pi0_category_discrete():
    C = ordinal_category(2)
    P = pi0_category(from_fincategory(C, level_bound=1))
    assert find_category_isomorphism(P, C) is not None


def _two_component_monoid():
    """One object, Map = Delta^1 disjoint union a point.  Composition:
    pointwise max on the interval component (unit = vertex 0), the extra
    point absorbing."""
    space = sset.disjoint_union(standard_simplex(1), standard_simplex(0))
    extra = space.cell_index(0, "Y.0")
    v = {space.cell_index(0, "X.0"): 0, space.cell_index(0, "X.1"): 1}

    def chain(s):
        return [space.apply((j,), s)[1] for j in range(len(s[0]))]

    def of_chain(bits):
        # E-Z simplex of the interval component from a 0/1 vertex chain
        strict = []
        word = []
        for b in bits:
            if strict and strict[-1] == b:
                word.append(word[-1])
            else:
                strict.append(b)
                word.append(len(strict) - 1)
        if len(strict) == 1:
            return (tuple(word),
                    space.cell_index(0, "X.%d" % strict[0]))
        return (tuple(word), space.cell_index(1, "X.0-1"))

    def compose_fn(x, y, z, q, g, f):
        cg, cf = chain(g), chain(f)
        if extra in cg or extra in cf:
            return (tuple(0 for _ in g[0]), extra)
        return of_chain([max(v[a], v[b]) for a, b in zip(cg, cf)])

    C = hcnerve.SimplicialCategory(("*",), {("*", "*"): space},
                                   {"*": "X.0"}, compose_fn, level_bound=1)
    C.validate()
    return C


def test_pi0_category_two_component_monoid():
    # pi_0 has 2 elements: the interval component and the extra point
    P = pi0_category(_two_component_monoid())
    assert len(P.objects) == 1
    assert len(P.arrows) == 2


def test_pi0_category_refuses_composition_that_splits_a_component():
    # built without validate(): on Map = Delta^1 + a point, X.0 . X.0 is
    # X.0 but X.1 . X.0 is the extra point, so two vertices of one
    # component compose into different components
    space = sset.disjoint_union(standard_simplex(1), standard_simplex(0))
    one, extra = (space.cell_index(0, name) for name in ("X.1", "Y.0"))

    def compose_fn(x, y, z, q, g, f):
        return (g[0], extra if g[1] == one else f[1])
    C = hcnerve.SimplicialCategory(("*",), {("*", "*"): space},
                                   {"*": "X.0"}, compose_fn, level_bound=0)
    with pytest.raises(hcnerve.CompositionInconsistency) as err:
        pi0_category(C)
    assert str(err.value) == (
        "composition is not single-valued on pi_0 classes: "
        "pi0[*->*:X.0] . pi0[*->*:X.0] is both pi0[*->*:X.0] and "
        "pi0[*->*:Y.0]")


def test_pi0_category_refuses_two_classes_written_alike():
    # Map(a->b, c) and Map(a, b->c) are one point p each, and both
    # classes would be the arrow pi0[a->b->c:p]
    objects = ("a->b", "c", "a", "b->c")
    mapspaces = {(x, y): sset.discrete_sset(["id"]) if x == y
                 else sset.empty_sset() for x in objects for y in objects}
    for pair in (("a->b", "c"), ("a", "b->c")):
        mapspaces[pair] = sset.discrete_sset(["p"])
    C = hcnerve.SimplicialCategory(
        objects, mapspaces, {x: "id" for x in objects},
        lambda x, y, z, q, g, f: g if x == y else f, 0)
    C.validate()
    with pytest.raises(InputError, match="^duplicate arrow names$"):
        pi0_category(C)


def test_pi0_category_matches_ho_of_coherent_nerve():
    from simpcat.nerve_cat import find_category_isomorphism as catiso
    from simpcat.quasicat import homotopy_category
    cases = [
        from_fincategory(ordinal_category(2), level_bound=2),
        from_fincategory(bg(cyclic_table(2)), level_bound=2),
        one_object_from_abelian_group(cyclic_table(2), level_bound=2),
    ]
    for SC in cases:
        P = pi0_category(SC)
        Ho = homotopy_category(coherent_nerve(SC, 3))
        assert catiso(P, Ho) is not None


def test_coherent_nerve_truncation_guard():
    SC = from_fincategory(ordinal_category(1), level_bound=0)
    with pytest.raises(InputError):
        coherent_nerve(SC, 3)


_COMPOSITION_BUILDERS = [
    ("bz3", lambda: from_fincategory(bg(cyclic_table(3)))),
    ("ord2", lambda: from_fincategory(ordinal_category(2))),
    ("arrow", lambda: two_object_arrow_space(standard_simplex(1))),
    ("z2", lambda: one_object_from_abelian_group(cyclic_table(2)))]


def _composition_cases():
    return [(name, build()) for name, build in _COMPOSITION_BUILDERS]


def test_simplicial_functors_match_all_pairs_check():
    # composition checked on nondegenerate pairs only gives the same
    # functors, in the same order, as the check on every pair
    for name, C in _composition_cases():
        for n in range(4):
            F = frak_c(n)
            functors = hcnerve.simplicial_functors(F, C)
            assert functors == simplicial_functors_all_pairs(F, C), (name, n)
            assert functors, (name, n)


def test_generating_pair_counts():
    # both composites commute with faces, so the check runs on the
    # nondegenerate pairs that are no face of another one up to the bound
    for top, level_bound, generating, nondegenerate in [(4, 3, 18, 57),
                                                        (3, 2, 5, 9)]:
        counts = [0, 0]
        for n in range(top + 1):
            F = frak_c(n)
            bound = min(level_bound, F.level_bound)
            for a, b, c in combinations(range(n + 1), 3):
                counts[0] += len(hcnerve._generating_pairs(F, a, b, c,
                                                           bound))
                counts[1] += sum(
                    1 for g, _ in F.comp[(str(a), str(b), str(c))]
                    if len(g[0]) <= bound + 1)
        assert counts == [generating, nondegenerate], top


def test_simplicial_functors_match_all_pairs_check_on_frak_c4():
    # frak_c(4) has generating pairs at levels 1 and 2; the oracle takes
    # seconds on the other builders' categories, so only ord2 runs here
    F = frak_c(4)
    for name, C in _composition_cases():
        if name == "ord2":
            functors = hcnerve.simplicial_functors(F, C)
            assert functors == simplicial_functors_all_pairs(F, C)
            assert len(functors) == 21


def test_horn_mapspace_bytes_pinned():
    # SHA-256 of the canonical document of each inner horn subobject,
    # read from the chains poset_nerve returns rather than cell names
    pins = {
        (2, 1): "6ff65709c7cd2cb42d0c1ec2746ed655"
                "ea1b515b926288a909fcdf3aa675a86a",
        (3, 1): "31e30a8c12b51285115d7f3ae710cdff"
                "62b418d73079bee3d583ccdc268b8911",
        (3, 2): "a43e4fc09083b2ef10e5d1bf001bc8bf"
                "78e6bdca888d4d4cbf6397d37746ae61",
        (4, 1): "7d2851488e9365bf1d2fc3a7535fae34"
                "481965234720a6b6ee0f2e417e5f716e",
        (4, 2): "69178625eb8a26c9647d2d0b7b4e80ab"
                "c65090f29e56caf58ff0c569737c4c7a",
        (4, 3): "9b752e1e2c594c8aab24ef30f3d7a72b"
                "92391261d98b09980e7dc162069c9082",
        (5, 1): "19609e4e19b15d362bffcda094869da1"
                "62184e8c643669fa705cccfc0f0b3ddc",
        (5, 2): "f19518601bd892ad0bd9d58b002ad990"
                "c4c1f8f1eed2908c39434edc7c772dea",
        (5, 3): "3ebc61b15b5103f154c4b47a5b2f37fb"
                "40530b61e96b64af4314cd1d14515849",
        (5, 4): "8857cea52c1d30bc51f2420166afc11d"
                "bf310a89263eef6dcba2eb83ff2ba45b",
    }
    for (n, i), pin in pins.items():
        sub, _, _ = horn_mapspace(n, i)
        text = formats.dumps(sub.as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (n, i)


def test_coherent_nerve_bytes_pinned():
    # SHA-256 of the canonical coherent_nerve(C, 3) document
    pins = {
        "bz3": "afdd48b14f8465facc31ae5eb0fc9651"
               "d7fbe681bb6ead2d87a655991fdbaec8",
        "ord2": "7b17932f992bc0fa09e1b394b583d176"
                "4653064f769da10e9dc4553beb48879a",
        "arrow": "733be92924f822c38de40730ab333143"
                 "1ca93c049dafde4d12195d9d7c42131d",
        "z2": "8dfca457a18634d28647a8eaf30665a7"
              "85dbe771fbb75220a110acfc9f618c56",
    }
    for name, C in _composition_cases():
        text = formats.dumps(formats.sset_to_dict(coherent_nerve(C, 3)))
        assert hashlib.sha256(text.encode()).hexdigest() == pins[name], name


def test_simplicial_category_dicts_match_all_pairs_oracle(monkeypatch):
    # composition stored on nondegenerate pairs writes the same document
    # as the table of every pair, and reads it back to the same document
    builders = [("frak%d" % n, lambda n=n: frak_c(n)) for n in range(6)]
    builders += _COMPOSITION_BUILDERS
    builders.append(("two-component", _two_component_monoid))
    for name, build in builders:
        doc = formats.simplicial_category_to_dict(build())
        loaded = formats.simplicial_category_from_dict(doc)
        assert formats.simplicial_category_to_dict(loaded) == doc, name
        with monkeypatch.context() as m:
            m.setattr(hcnerve, "SimplicialCategory",
                      SimplicialCategoryAllPairs)
            m.setattr(formats, "SimplicialCategory",
                      SimplicialCategoryAllPairs)
            built = build()
            built.validate()
            assert all_pairs_to_dict(built) == doc, name
            oracle = formats.simplicial_category_from_dict(doc)
        assert all_pairs_to_dict(oracle) == doc, name


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_composition_is_simplicial_on_random_pairs(data):
    kind = data.draw(st.sampled_from(["frak", "family", "thin"]))
    if kind == "frak":
        C = frak_c(data.draw(st.integers(0, 4)))
    else:
        if kind == "family":
            _, D = data.draw(st.sampled_from(
                category_family(max_objects=3, max_arrows=8)))
        else:
            D = random_thin_category(
                random.Random(data.draw(st.integers(0, 10 ** 6))),
                data.draw(st.integers(1, 3)))
        C = from_fincategory(D, level_bound=data.draw(st.integers(0, 3)))
    for q in range(C.level_bound + 1):
        x, y, z = data.draw(st.sampled_from(sorted(C.comp)))
        g = data.draw(st.sampled_from(C.mapspace(y, z).simplices(q)))
        f = data.draw(st.sampled_from(C.mapspace(x, y).simplices(q)))
        h = C.compose(x, y, z, g, f)
        # Eilenberg-Zilber: composition commutes with every degeneracy
        p = data.draw(st.integers(q, C.level_bound))
        sigma = data.draw(st.sampled_from(all_surjections(p, q)))
        assert C.compose(x, y, z, (tcompose(g[0], sigma), g[1]),
                         (tcompose(f[0], sigma), f[1])) == \
            (tcompose(h[0], sigma), h[1])
        # and with every face
        for i in range(q + 1) if q else ():
            assert C.mapspace(x, z).face_of(i, h) == C.compose(
                x, y, z, C.mapspace(y, z).face_of(i, g),
                C.mapspace(x, y).face_of(i, f))


# -- frak_c built by cube shape against one poset nerve per pair


def test_frak_c_documents_match_the_by_pairs_oracle():
    for n in range(6):
        assert formats.dumps(formats.simplicial_category_to_dict(
            frak_c(n))) == formats.dumps(
                formats.simplicial_category_to_dict(frak_c_by_pairs(n))), n


def test_coherent_nerve_matches_the_by_pairs_oracle():
    for C in (bg(cyclic_table(3)), ordinal_category(3)):
        SC = from_fincategory(C, level_bound=3)
        assert formats.dumps(formats.sset_to_dict(coherent_nerve(SC, 4))) \
            == formats.dumps(formats.sset_to_dict(
                coherent_nerve_by_pairs(SC, 4)))


def _subset_nerve(i, j):
    return poset_nerve_by_chains(pair_subsets(i, j), lambda a, b: a <= b,
                                 lambda U: "".join(map(str, sorted(U))))


def test_map_spaces_past_one_digit_keep_their_own_order():
    # cells are ordered by name: Map(8, 11) lists "81011" before "811",
    # so it cannot share Map(0, 3)'s order; Map(2, 5) can
    family = hcnerve._CubeFamily()
    assert family.mapspace(2, 5).faces == family.mapspace(0, 3).faces
    assert family.mapspace(8, 11).names[0] == (
        "81011", "811", "891011", "8911")
    assert family.mapspace(8, 11).faces != family.mapspace(0, 3).faces
    for i, j in [(8, 11), (9, 12), (7, 10)]:
        space = family.mapspace(i, j)
        oracle, _, _ = _subset_nerve(i, j)
        nerve = hcnerve.poset_nerve(pair_subsets(i, j), lambda a, b: a <= b,
                                    hcnerve._subset_name)
        for other in (oracle, nerve):
            assert space.names == other.names, (i, j)
            assert space.faces == other.faces, (i, j)
    # composition across the boundary is still the union of subsets
    for i, j, k in [(8, 9, 11), (8, 10, 12), (7, 9, 11), (9, 11, 12)]:
        (_, _, hchains), (gspace, _, gchains), (fspace, _, fchains) = [
            _subset_nerve(a, b) for a, b in [(i, k), (j, k), (i, j)]]
        for q in range(k - i - 1):
            for g in gspace.simplices(q):
                for f in fspace.simplices(q):
                    h = family.compose_fn(str(i), str(j), str(k), q, g, f)
                    union = [gchains[g[0][-1]][g[1]][a] |
                             fchains[f[0][-1]][f[1]][b]
                             for a, b in zip(g[0], f[0])]
                    got = [hchains[h[0][-1]][h[1]][c] for c in h[0]]
                    assert got == union, (i, j, k, g, f)


def test_work_counts_pinned(monkeypatch):
    # one cube nerve per length, and the maps of map spaces into C
    # enumerated once per (length, x, y) across the gadgets of one call
    counts = {"nerves": 0, "maps": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(sset, "chain_nerve",
                        counting("nerves", sset.chain_nerve))
    monkeypatch.setattr(sset, "enumerate_maps",
                        counting("maps", sset.enumerate_maps))
    frak_c(5)
    assert counts["nerves"] == 6
    for C, maps in [(ordinal_category(3), 40), (bg(cyclic_table(3)), 4)]:
        counts["maps"] = 0
        coherent_nerve(from_fincategory(C, level_bound=3), 4)
        assert counts["maps"] == maps


# -- one composition table per cube shape and level


def _by_constructor(F):
    """F rebuilt by SimplicialCategory on a fresh family's compose_fn:
    one walk of the nondegenerate pairs per triple and level."""
    return hcnerve.SimplicialCategory(F.objects, F.mapspaces, F.identities,
                                      hcnerve._CubeFamily().compose_fn,
                                      F.level_bound)


def test_shared_gadget_tables_match_the_constructor():
    # frak_c(0..6) on their own, and the gadgets frak_c(0..4) of one
    # coherent_nerve call (level bounds 1, 1, 1, 2, 3) on one family
    family = hcnerve._CubeFamily()
    gadgets = [family.category(n) for n in range(5)]
    assert [F.level_bound for F in gadgets] == [1, 1, 1, 2, 3]
    for F in [frak_c(n) for n in range(7)] + gadgets:
        ref = _by_constructor(F)
        assert F.comp.keys() == ref.comp.keys()
        for key, table in ref.comp.items():
            assert list(F.comp[key].items()) == list(table.items()), key
        bound = F.level_bound
        for a, b, c in combinations(range(len(F.objects)), 3):
            assert hcnerve._generating_pairs(F, a, b, c, bound) == \
                hcnerve._generating_pairs(ref, a, b, c, bound), (a, b, c)
    # degenerate pairs compose alike through the shared cache
    for F in gadgets[3:]:
        ref = _by_constructor(F)
        for (x, y, z) in F.comp:
            for q in range(F.level_bound + 1):
                for g in F.mapspace(y, z).simplices(q):
                    for f in F.mapspace(x, y).simplices(q):
                        assert F.compose(x, y, z, g, f) == \
                            ref.compose(x, y, z, g, f)


def _walks(n):
    """One walk per shape (p, r), p + r <= n, and level up to the top
    one of a nondegenerate pair, dim Map(j, k) + dim Map(i, j)."""
    return sum(max(0, p - 1) + max(0, r - 1) + 1
               for p in range(n + 1) for r in range(n + 1 - p))


def test_triples_of_one_shape_share_one_table(monkeypatch):
    walks = [0]
    walk = hcnerve._nondegenerate_pairs

    def counting(*args):
        walks[0] += 1
        return walk(*args)
    monkeypatch.setattr(hcnerve, "_nondegenerate_pairs", counting)
    F = frak_c(5)
    assert walks[0] == _walks(5) == 61
    assert F.comp[("0", "1", "3")] is F.comp[("2", "3", "5")]
    assert F.comp[("0", "1", "3")] is not F.comp[("0", "2", "3")]
    assert F._composites[("0", "1", "3")] is F._composites[("2", "3", "5")]
    doc = formats.simplicial_category_to_dict(F)["compositions"]
    assert doc["0|1|3"] is doc["2|3|5"]
    # the gadgets of one call, level bounds 1 to 3, share them too
    walks[0] = 0
    family = hcnerve._CubeFamily()
    gadgets = [family.category(n) for n in range(5)]
    assert walks[0] == _walks(4) == 35
    assert gadgets[2].comp[("0", "1", "2")] is gadgets[4].comp[
        ("2", "3", "4")]


def test_tables_past_one_digit_are_per_triple():
    # past the digit boundary a shape is the triple itself
    family = hcnerve._CubeFamily()
    fresh = hcnerve._CubeFamily()
    for i, j, k in [(8, 9, 11), (7, 9, 11), (9, 11, 12), (0, 1, 3)]:
        x, y, z = str(i), str(j), str(k)
        table, _ = family.tables(x, y, z)
        assert list(table.items()) == [
            ((g, f), fresh.compose_fn(x, y, z, q, g, f)) for q in range(3)
            for g, f in hcnerve._nondegenerate_pairs(
                fresh.mapspace(j, k), fresh.mapspace(i, j), q)], (i, j, k)
    assert family.tables("8", "9", "11")[0] is not \
        family.tables("0", "1", "3")[0]
