from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from simpcat import formats, sset
from simpcat.delta import all_surjections, tidentity
from simpcat.sset import (InputError, boundary, disjoint_union,
                          empty_sset, enumerate_maps, find_isomorphism,
                          from_presheaf, horn, inclusion_by_names,
                          is_isomorphic, lift_extensions, opposite, pi0,
                          product, pushout, simplex_dim, skeleton, spine,
                          standard_simplex, SimplicialMap, SimplicialSet)


def cell_counts(X):
    return [X.n_cells(k) for k in range(len(X.names))]


def test_standard_simplex_counts():
    # nondegenerate j-cells of the n-simplex are (j+1)-subsets of [n]
    for n in range(5):
        X = standard_simplex(n)
        assert cell_counts(X) == [comb(n + 1, j + 1) for j in range(n + 1)]
    assert cell_counts(standard_simplex(2)) == [3, 3, 1]


def test_boundary_and_horn_counts():
    assert cell_counts(boundary(2)) == [3, 3]
    assert cell_counts(boundary(3)) == [4, 6, 4]
    # horn(2,1) drops the top cell and the d_1 face (edge 0-2)
    L = horn(2, 1)
    assert cell_counts(L) == [3, 2]
    assert set(L.cells(1)) == {"0-1", "1-2"}
    L0 = horn(2, 0)
    assert set(L0.cells(1)) == {"0-1", "0-2"}
    assert cell_counts(horn(3, 1)) == [4, 6, 3]
    with pytest.raises(InputError):
        horn(2, 3)


def test_spine():
    S = spine(3)
    assert cell_counts(S) == [4, 3]
    assert set(S.cells(1)) == {"0-1", "1-2", "2-3"}
    assert cell_counts(spine(1)) == [2, 1]


@st.composite
def face_closed_chains(draw):
    """(n, keep) for n <= 5 and keep a random face-closed set of vertex
    sets of Delta^n: the faces of a few random spans."""
    n = draw(st.integers(0, 5))
    spans = draw(st.lists(st.frozensets(st.integers(0, n), min_size=1),
                          max_size=4))
    return n, lambda c: any(span.issuperset(c) for span in spans)


@settings(deadline=None, max_examples=60)
@given(face_closed_chains())
def test_chain_nerve_matches_the_combinations_oracle(case):
    # the one chain builder lists the kept chains of [n] in the order of
    # combinations, with the faces the oracle looks up
    from oracles import subset_complex_by_combinations
    n, keep = case
    X, oracle = sset._subset_complex(n, keep), \
        subset_complex_by_combinations(n, keep)
    assert X.names == oracle.names
    assert X.faces == oracle.faces
    standard = [(standard_simplex(n), lambda c: True),
                (spine(n), lambda c: len(c) == 1 or
                 len(c) == 2 and c[1] == c[0] + 1)]
    if n >= 1:
        standard.append((boundary(n), lambda c: len(c) <= n))
        standard.extend((horn(n, k), lambda c, k=k: len(c) < n or
                         len(c) == n and k in c) for k in range(n + 1))
    for X, keep in standard:
        oracle = subset_complex_by_combinations(n, keep)
        assert (X.names, X.faces) == (oracle.names, oracle.faces)


def test_simplices_enumeration():
    X = standard_simplex(1)
    # 2-simplices of Delta^1 are the monotone maps [2] -> [1]: 4 of them
    assert len(X.simplices(2)) == 4
    assert len(X.simplices(3)) == 5


def test_apply_operator():
    X = standard_simplex(2)
    top = X.cell_simplex(2, "0-1-2")
    # vertex 1 of the top cell
    v = X.apply((1,), top)
    assert v == (tidentity(0), X.cell_index(0, "1"))
    # the edge 0-2 via the injection hitting 0 and 2
    e = X.apply((0, 2), top)
    assert e == (tidentity(1), X.cell_index(1, "0-2"))
    # degenerate: alpha = (1, 1)
    d = X.apply((1, 1), top)
    assert d == ((0, 0), X.cell_index(0, "1"))


@st.composite
def operator_chains(draw):
    """A pair of composable operator value tuples into [3]."""
    n = 3
    mid = draw(st.integers(0, 4))
    low = draw(st.integers(0, 4))
    alpha = tuple(sorted(draw(st.lists(st.integers(0, n), min_size=mid + 1,
                                       max_size=mid + 1))))
    beta = tuple(sorted(draw(st.lists(st.integers(0, mid),
                                      min_size=low + 1,
                                      max_size=low + 1))))
    return alpha, beta


@given(operator_chains(), st.integers(0, 2))
def test_apply_respects_composition(chains, which):
    # beta^*(alpha^*(x)) == (alpha . beta)^*(x)
    alpha, beta = chains
    X = [standard_simplex(3), boundary(3), horn(3, 1)][which]
    comp = tuple(alpha[v] for v in beta)
    for simplex in X.simplices(3)[:8]:
        one = X.apply(beta, X.apply(alpha, simplex))
        two = X.apply(comp, simplex)
        assert one == two


def test_ez_roundtrip_normal_form():
    # expanding all simplices of X up to dim d and re-normalizing through
    # the presheaf constructor is the identity
    for X in [standard_simplex(3), boundary(3), horn(3, 2), spine(4)]:
        d = X.dim_max + 2
        levels = [X.simplices(n) for n in range(d + 1)]
        Y = from_presheaf(d, levels, X.apply,
                          name_fn=lambda n, s: X.describe(s))
        assert cell_counts(Y)[:len(cell_counts(X))] == cell_counts(X)
        iso = find_isomorphism(skeleton(Y, Y.dim_max), X)
        assert iso is not None


def test_product_shuffle_counts():
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        P, _ = product(standard_simplex(n), standard_simplex(m))
        assert P.n_cells(n + m) == comb(n + m, n)
    P, _ = product(standard_simplex(1), standard_simplex(1))
    assert P.n_cells(2) == 2
    P, _ = product(standard_simplex(2), standard_simplex(1))
    assert P.n_cells(3) == 3


def test_product_unit():
    X = boundary(3)
    P, (px, py) = product(X, standard_simplex(0))
    assert is_isomorphic(P, X)
    px.validate()
    py.validate()


def test_product_projections_commute():
    X = standard_simplex(1)
    P, (px, py) = product(X, X)
    px.validate()
    py.validate()


def test_pushout_wedge():
    # gluing two segments end to start gives the 2-spine
    D1 = standard_simplex(1)
    A = standard_simplex(0)
    f = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "1"))]])
    f.validate()
    g = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "0"))]])
    g.validate()
    P, lx, ly = pushout(f, g)
    assert is_isomorphic(P, spine(2))


def test_pushout_collapse_hr1():
    # Delta^2 with its d_2 face collapsed to a point: the right-mapping
    # cosimplicial gadget in degree 1 (2 vertices, 2 edges, 1 triangle)
    D2 = standard_simplex(2)
    D1 = standard_simplex(1)
    f = inclusion_by_names(D1, D2)  # names 0,1,0-1 all present in Delta^2
    g = SimplicialMap(D1, standard_simplex(0), [
        [(tidentity(0), 0), (tidentity(0), 0)], [((0, 0), 0)]])
    g.validate()
    P, lx, ly = pushout(f, g)
    assert cell_counts(P) == [2, 2, 1]


def test_product_associative_commutative_up_to_iso():
    objs = [standard_simplex(1), horn(2, 1), spine(2)]
    for X in objs:
        for Y in objs:
            PXY, _ = product(X, Y)
            PYX, _ = product(Y, X)
            assert is_isomorphic(PXY, PYX)
    A, B, C = standard_simplex(1), spine(2), boundary(2)
    AB, _ = product(A, B)
    BC, _ = product(B, C)
    left, _ = product(AB, C)
    right, _ = product(A, BC)
    assert is_isomorphic(left, right)


def test_pushout_legs_jointly_surjective_and_agree():
    D2 = standard_simplex(2)
    D1 = standard_simplex(1)
    A = standard_simplex(0)
    f = SimplicialMap(A, D2, [[(tidentity(0), D2.cell_index(0, "0"))]])
    f.validate()
    g = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "1"))]])
    g.validate()
    P, lx, ly = pushout(f, g)
    covered = set()
    for k in range(len(P.names)):
        for idx in range(P.n_cells(k)):
            covered.add((k, idx))
    hit = set()
    for leg, src in [(lx, D2), (ly, D1)]:
        for k in range(len(src.names)):
            for idx in range(src.n_cells(k)):
                s, w = leg.assignment[k][idx]
                if len(s) - 1 == s[-1]:
                    hit.add((k, w))
    assert hit == covered
    # legs agree on the image of A
    assert lx.apply(f.assignment[0][0]) == ly.apply(g.assignment[0][0])


def test_pushout_identity():
    X = boundary(2)
    i = inclusion_by_names(X, X)
    P, lx, ly = pushout(i, i)
    assert is_isomorphic(P, X)


def test_pushout_requires_injective_first_leg():
    D1 = standard_simplex(1)
    g = SimplicialMap(D1, standard_simplex(0), [
        [(tidentity(0), 0), (tidentity(0), 0)], [((0, 0), 0)]])
    g.validate()
    with pytest.raises(InputError):
        pushout(g, g)


def test_skeleton():
    for n in [2, 3]:
        assert is_isomorphic(skeleton(standard_simplex(n), n - 1),
                             boundary(n))
    S = skeleton(standard_simplex(3), 0)
    assert cell_counts(S) == [4]
    X = boundary(3)
    assert is_isomorphic(skeleton(X, X.dim_max), X)


def test_lift_extensions_terminal_target():
    # boundary of Delta^1 into Delta^1, mapping to the point: exactly one
    # extension
    B = standard_simplex(1)
    A = boundary(1)
    i = inclusion_by_names(A, B)
    X = standard_simplex(0)
    f = SimplicialMap(A, X, [[(tidentity(0), 0), (tidentity(0), 0)]])
    f.validate()
    exts = lift_extensions(i, f)
    assert len(exts) == 1
    exts[0].validate()


def test_enumerate_maps_counts():
    # maps Delta^1 -> Delta^n are the 1-simplices
    for n in range(3):
        X = standard_simplex(n)
        assert len(enumerate_maps(standard_simplex(1), X)) == \
            len(X.simplices(1))


def test_truncation_guard():
    X = SimplicialSet(1, [("a",), ()], [[()], []])
    X.validate()
    with pytest.raises(InputError):
        X.simplices(2)


def test_identity_violation_detected():
    # a fake 2-cell whose faces do not satisfy the simplicial identities
    names = [("p", "q", "r"), ("e", "f"), ("T",)]
    faces = [
        [(), (), ()],
        [((tidentity(0)), 0) and ((tidentity(0), 1), (tidentity(0), 0)),
         ((tidentity(0), 2), (tidentity(0), 1))],
        [((tidentity(1), 0), (tidentity(1), 1), (tidentity(1), 0))],
    ]
    # d_0 T = e, d_1 T = f, d_2 T = e: vertices clash
    with pytest.raises(InputError):
        SimplicialSet(None, names, faces).validate()


def test_apply_against_nerve_closed_form():
    # the E-Z operator recursion must agree with the closed-form action
    # on nerve chains: alpha^*(chain) has links the composites between
    # consecutive alpha-values
    import random as _random
    from simpcat.delta import all_maps
    from simpcat.nerve_cat import nerve
    from families import iso_pair_category
    C = iso_pair_category()
    N = nerve(C, 3)
    rng = _random.Random(2024)

    def chain_of(simplex):
        n = len(simplex[0]) - 1
        links = []
        for j in range(1, n + 1):
            e = N.apply((j - 1, j), simplex)
            if sset.is_degenerate(e):
                v = N.names[0][N.apply((0,), e)[1]]
                links.append(C.ident[v])
            else:
                links.append(N.names[1][e[1]])
        start = N.names[0][N.apply((0,), simplex)[1]]
        return start, tuple(links)

    def compose_segment(start, links, a, b):
        verts = [start]
        for l in links:
            verts.append(C.dst[l])
        if a == b:
            return C.ident[verts[a]]
        out = links[a]
        for t in range(a + 1, b):
            out = C.compose(links[t], out)
        return out

    for trial in range(150):
        n = rng.choice([1, 2, 3])
        simplex = rng.choice(N.simplices(n))
        m = rng.choice([0, 1, 2, 3])
        alpha = rng.choice(all_maps(m, n))
        image = N.apply(alpha, simplex)
        start, links = chain_of(simplex)
        istart, ilinks = chain_of(image)
        want_links = tuple(
            compose_segment(start, links, alpha[j - 1], alpha[j])
            for j in range(1, m + 1))
        verts = [start]
        for l in links:
            verts.append(C.dst[l])
        assert istart == verts[alpha[0]]
        assert ilinks == want_links


def test_product_universal_property_counts():
    # maps T -> X x Y biject with pairs of maps
    X = spine(2)
    Y = standard_simplex(1)
    P, _ = product(X, Y)
    for T in [standard_simplex(1), horn(2, 1)]:
        lhs = len(enumerate_maps(T, P))
        rhs = len(enumerate_maps(T, X)) * len(enumerate_maps(T, Y))
        assert lhs == rhs


def test_opposite_of_nerve_is_nerve_of_opposite():
    from simpcat.nerve_cat import nerve
    from families import iso_pair_category
    for C in [iso_pair_category()]:
        lhs = opposite(nerve(C, 3))
        rhs = nerve(C.opposite(), 3)
        assert is_isomorphic(lhs, rhs)


def test_opposite_involution():
    for X in [standard_simplex(2), horn(3, 1), spine(3)]:
        Y = opposite(opposite(X))
        assert is_isomorphic(X, Y)


def test_opposite_horn_swap():
    # op of an outer 0-horn is an outer n-horn
    assert is_isomorphic(opposite(horn(2, 0)), horn(2, 2))
    assert is_isomorphic(opposite(horn(3, 1)), horn(3, 2))


def test_pi0_and_disjoint_union():
    X = disjoint_union(standard_simplex(0), standard_simplex(0))
    assert len(pi0(X)) == 2
    assert len(pi0(standard_simplex(3))) == 1
    assert pi0(empty_sset()) == []


def test_disjoint_union_offsets_the_second_summand():
    # the faces of a second summand with edges point past the vertices of
    # the first, so either order gives the same set
    X = disjoint_union(standard_simplex(1), boundary(2)).validate()
    assert X.truncation is None and cell_counts(X) == [5, 4]
    edge = (tidentity(1), X.cell_index(1, "Y.1-2"))
    assert [X.describe(X.face_of(i, edge)) for i in (0, 1)] == ["Y.2", "Y.1"]
    assert len(pi0(X)) == 2
    assert is_isomorphic(X, disjoint_union(boundary(2), standard_simplex(1)))
    # the union is truncated where a summand is, at the least truncation
    T3, T2 = (SimplicialSet(t, boundary(2).names, boundary(2).faces)
              .validate() for t in (3, 2))
    for Y, Z, t, counts in [(standard_simplex(2), T3, 3, [6, 6, 1]),
                            (T3, standard_simplex(2), 3, [6, 6, 1]),
                            (T3, T2, 2, [6, 6])]:
        U = disjoint_union(Y, Z).validate()
        assert U.truncation == t and cell_counts(U) == counts


def test_union_and_pushout_refuse_cells_above_the_least_truncation():
    # both keep every cell of both inputs under their lesser truncation,
    # so an input with cells above the other's truncation is refused, in
    # either order
    T2 = SimplicialSet(2, boundary(2).names, boundary(2).faces).validate()
    point = standard_simplex(0)

    def vertex(X):
        return SimplicialMap(point, X, [[(tidentity(0), 0)]]).validate()
    for X, Y in [(standard_simplex(3), T2), (T2, standard_simplex(3))]:
        with pytest.raises(InputError) as err:
            disjoint_union(X, Y)
        assert str(err.value) == "cells above the least truncation 2"
        with pytest.raises(InputError) as err:
            pushout(vertex(X), vertex(Y))
        assert str(err.value) == "cells above the least truncation 2"
    # cells up to the truncation are kept: a wedge at one vertex
    for X, Y in [(standard_simplex(2), T2), (T2, standard_simplex(2))]:
        P = pushout(vertex(X), vertex(Y))[0].validate()
        assert P.truncation == 2 and cell_counts(P) == [5, 6, 1]


def test_serialization_dict():
    X = horn(2, 1)
    d = X.as_dict()
    assert d["truncation"] is None
    assert set(d["cells"]["1"]) == {"0-1", "1-2"}


def _product_cases():
    from simpcat.nerve_cat import bg, nerve
    from families import cyclic_table
    S = standard_simplex
    cases = [(S(n), S(total - n), None)
             for total in range(2, 6) for n in range(1, total)]
    bz2 = nerve(bg(cyclic_table(2)), 3)
    bz3 = nerve(bg(cyclic_table(3)), 3)
    d3 = boundary(3)
    d3_trunc = SimplicialSet(2, d3.names, d3.faces)
    d3_trunc.validate()
    return cases + [(bz2, S(1), None), (S(2), bz3, None), (bz2, bz3, 2),
                    (horn(2, 1), horn(3, 0), None), (d3_trunc, S(2), None),
                    (spine(3), spine(2), None), (S(2), S(1), 5)]


@pytest.mark.parametrize("X, Y, truncation", _product_cases())
def test_product_matches_presheaf_oracle(X, Y, truncation):
    from oracles import product_by_presheaf
    P, (px, py) = product(X, Y, truncation)
    D = truncation if truncation is not None else \
        X.dim_max + Y.dim_max if P.truncation is None else P.truncation
    Q, (qx, qy) = product_by_presheaf(X, Y, D)
    assert P.as_dict() == Q.as_dict()
    assert px.assignment == qx.assignment
    assert py.assignment == qy.assignment


def test_find_isomorphism_negative_cases():
    # same cell counts, different shapes
    assert find_isomorphism(horn(2, 0), horn(2, 1)) is None
    a, b = ((0,), 0), ((0,), 1)
    parallel = SimplicialSet(None, [("a", "b"), ("e", "f")],
                             [[(), ()], [(b, a), (b, a)]])
    parallel.validate()
    loop = SimplicialSet(None, [("a", "b"), ("e", "f")],
                         [[(), ()], [(a, a), (b, a)]])
    loop.validate()
    assert find_isomorphism(parallel, loop) is None
    assert find_isomorphism(loop, parallel) is None
    assert find_isomorphism(parallel, parallel) is not None


def _permuted_copy(X, perms):
    """X with the cells of each dimension k listed in the order perms[k]
    (new position p holds the old cell perms[k][p])."""
    new = [{old: p for p, old in enumerate(perm)} for perm in perms]
    names = [[X.names[k][old] for old in perm] for k, perm in enumerate(perms)]
    faces = [[tuple((s, new[s[-1]][sub]) for s, sub in X.faces[k][old])
              for old in perm] for k, perm in enumerate(perms)]
    Y = SimplicialSet(X.truncation, names, faces)
    Y.validate()
    return Y


@st.composite
def permuted_pairs(draw):
    from simpcat.nerve_cat import bg, nerve
    from families import cyclic_table
    X = draw(st.sampled_from([
        horn(3, 1), boundary(3), spine(4), product(spine(2), horn(2, 0))[0],
        nerve(bg(cyclic_table(2)), 3), standard_simplex(3)]))
    perms = [draw(st.permutations(range(X.n_cells(k))))
             for k in range(len(X.names))]
    return X, _permuted_copy(X, perms)


@settings(deadline=None)
@given(permuted_pairs())
def test_find_isomorphism_of_permuted_copy(pair):
    X, Y = pair
    f = find_isomorphism(X, Y)
    assert f is not None
    SimplicialMap(X, Y, f.assignment).validate()
    assert f.is_injective()


# -- validation names the check that fails


def _corrupted(X, change):
    """The tables of X, copied, with change(names, faces) applied."""
    names = [list(level) for level in X.names]
    faces = [list(level) for level in X.faces]
    change(names, faces)
    return names, faces


def _set_face(k, idx, i, value):
    def change(names, faces):
        entry = list(faces[k][idx])
        entry[i] = value
        faces[k][idx] = tuple(entry)
    return change


def _each(*changes):
    """One change that applies each of changes in turn."""
    def change(names, faces):
        for c in changes:
            c(names, faces)
    return change


def _validation_cases():
    from simpcat.nerve_cat import bg, nerve
    from families import cyclic_table
    S3 = standard_simplex(3)
    B = nerve(bg(cyclic_table(2)), 3)

    def rename(k, idx, name):
        def change(names, faces):
            names[k][idx] = name
        return change

    def drop_cell_faces(k):
        def change(names, faces):
            faces[k].pop()
        return change

    def truncate_entry(k, idx):
        def change(names, faces):
            faces[k][idx] = faces[k][idx][:-1]
        return change

    def duplicate_cell(names, faces):
        names[1].append("g1")
        faces[1].append(faces[1][0])

    return [
        (S3, rename(1, 1, "0-1"), "duplicate cell names in dimension 1"),
        (S3, drop_cell_faces(2), "face entries missing in dimension 2"),
        (S3, truncate_entry(2, 1), "cell 0-1-3 needs 3 faces"),
        (S3, _set_face(2, 0, 1, ((0, 2), 1)),
         "face entry (0, 2) is not a surjection"),
        (S3, _set_face(3, 0, 0, ((0, 1, 2), 7)),
         "face of 0-1-2-3 points at a missing cell"),
        # d_0 of 0-1-2 made 0-1: d_0 d_1 is vertex 2, d_0 d_0 vertex 1
        (S3, _set_face(2, 0, 0, ((0, 1), 0)),
         "simplicial identity fails at cell 0-1-2 (i=0, j=1)"),
        # d_2 of 0-1-2 made 1-2: the first pair to differ is (0, 2)
        (S3, _set_face(2, 0, 2, ((0, 1), 3)),
         "simplicial identity fails at cell 0-1-2 (i=0, j=2)"),
        # d_3 of 0-1-2-3 made 0-1-3: d_0 d_3 = 1-3 but d_2 d_0 = 1-2
        (S3, _set_face(3, 0, 3, ((0, 1, 2), 1)),
         "simplicial identity fails at cell 0-1-2-3 (i=0, j=3)"),
        (B, duplicate_cell, "duplicate cell names in dimension 1"),
        (B, drop_cell_faces(3), "face entries missing in dimension 3"),
        (B, truncate_entry(2, 0), "cell g1|g1 needs 3 faces"),
        (B, _set_face(2, 0, 1, ((1, 1), 0)),
         "face entry (1, 1) is not a surjection"),
        (B, _set_face(3, 0, 0, ((0, 1, 2), 1)),
         "face of g1|g1|g1 points at a missing cell"),
        # degenerate faces: the identities of BZ/2 fail only through
        # the degeneracies stored as faces of the 3-cell
        (B, _set_face(3, 0, 1, ((0, 1, 1), 0)),
         "simplicial identity fails at cell g1|g1|g1 (i=0, j=1)"),
        (B, _set_face(3, 0, 2, ((0, 0, 1), 0)),
         "simplicial identity fails at cell g1|g1|g1 (i=0, j=2)"),
        (B, _set_face(3, 0, 3, ((0, 1, 1), 0)),
         "simplicial identity fails at cell g1|g1|g1 (i=0, j=3)"),
        # two broken cells: 1-2-3 fails from (i=0, j=1) on, 0-1-2 only
        # from (i=0, j=2) on, and the lower cell is named
        (S3, _each(_set_face(2, 3, 0, ((0, 1), 0)),
                   _set_face(2, 0, 2, ((0, 1), 3))),
         "simplicial identity fails at cell 0-1-2 (i=0, j=2)"),
        # d_0 of 0-1-2-3 made s_0(2-3) and d_2 made 1-2-3: (i=1, j=2),
        # (i=0, j=3) and (i=2, j=3) fail, and j is compared first
        (S3, _each(_set_face(3, 0, 0, ((0, 0, 1), 5)),
                   _set_face(3, 0, 2, ((0, 1, 2), 3))),
         "simplicial identity fails at cell 0-1-2-3 (i=1, j=2)"),
    ]


@pytest.mark.parametrize("X, change, message", _validation_cases())
def test_validate_names_each_broken_check(X, change, message):
    SimplicialSet(X.truncation, X.names, X.faces).validate()
    names, faces = _corrupted(X, change)
    with pytest.raises(InputError) as err:
        SimplicialSet(X.truncation, names, faces).validate()
    assert str(err.value) == message


# the document form names every cell's faces by cell names, so the loader
# refuses a missing face entry, or one that names no cell, before
# validate() can; its own message names the entry
LOADER_MESSAGES = {
    "face entries missing in dimension 2":
        "missing or malformed face entry for 2:1-2-3",
    "face of 0-1-2-3 points at a missing cell":
        "missing or malformed face entry for 3:0-1-2-3",
    "face entries missing in dimension 3":
        "missing or malformed face entry for 3:g1|g1|g1",
    "face of g1|g1|g1 points at a missing cell":
        "missing or malformed face entry for 3:g1|g1|g1",
}


def _document(truncation, names, faces):
    """The simplicial-set document of the tables, written entry by entry
    as by hand: a face past the end of its level names the cell "?"."""
    def name(k, sub):
        return names[k][sub] if sub < len(names[k]) else "?"
    return {"kind": "simplicial-set", "truncation": truncation,
            "cells": {str(k): list(level) for k, level in enumerate(names)},
            "faces": {"%d:%s" % (k, names[k][idx]):
                      [[list(s), name(s[-1], sub)] for s, sub in entry]
                      for k in range(1, len(names))
                      for idx, entry in enumerate(faces[k])}}


@pytest.mark.parametrize("X, change, message", _validation_cases())
def test_loader_names_each_broken_check(X, change, message):
    formats.sset_from_dict(_document(X.truncation, X.names, X.faces))
    names, faces = _corrupted(X, change)
    with pytest.raises(InputError) as err:
        formats.sset_from_dict(_document(X.truncation, names, faces))
    assert str(err.value) == LOADER_MESSAGES.get(message, message)


def test_validate_checks_each_dimensions_surjections():
    # (0, 1) is the face surjection of a 2-cell's nondegenerate faces,
    # already accepted at dimension 2; on a 3-cell it is too short
    names, faces = _corrupted(standard_simplex(3),
                              _set_face(3, 0, 0, ((0, 1), 0)))
    with pytest.raises(InputError) as err:
        SimplicialSet(None, names, faces).validate()
    assert str(err.value) == "face entry (0, 1) is not a surjection"


# -- face steps against the factorization route


def _agreement_objects():
    from families import category_family
    from simpcat.nerve_cat import bg, nerve
    from families import cyclic_table
    for name, C in category_family():
        # nerves of the categories with more than three arrows stop at
        # dimension 3, which keeps the whole check within seconds
        yield name, nerve(C, 4 if len(C.arrows) <= 3 else 3)
    for n, k in [(2, 0), (3, 1), (3, 3), (4, 2)]:
        yield "horn(%d,%d)" % (n, k), horn(n, k)
    yield "boundary(3)", boundary(3)
    yield "spine(4)", spine(4)
    S = standard_simplex
    for name, X, Y in [("D1xD2", S(1), S(2)),
                       ("horn(2,1)xspine(2)", horn(2, 1), spine(2)),
                       ("BZ2xD1", nerve(bg(cyclic_table(2)), 4), S(1))]:
        yield name, product(X, Y)[0]


def test_apply_matches_factorization_oracle():
    # every map [m] -> [n] with m <= n on every n-simplex, n <= 4
    from oracles import apply_by_factorization
    from simpcat.delta import all_maps
    for name, X in _agreement_objects():
        top = 4 if X.truncation is None else min(4, X.truncation)
        for n in range(top + 1):
            maps = [a for m in range(n + 1) for a in all_maps(m, n)]
            for x in X.simplices(n):
                for alpha in maps:
                    assert X.apply(alpha, x) == \
                        apply_by_factorization(X, alpha, x), (name, alpha, x)


# -- face blocks against one face_of per simplex


def _block_objects():
    from random import Random
    from families import random_thin_category
    from simpcat.hcnerve import frak_c
    from simpcat.nerve_cat import bg, nerve, ordinal_category
    from families import cyclic_table, klein_table, symmetric3_table
    S = standard_simplex
    yield "BZ/3", nerve(bg(cyclic_table(3)), 4)
    yield "BS3", nerve(bg(symmetric3_table()), 3)
    yield "Bklein", nerve(bg(klein_table()), 3)
    yield "[3]", nerve(ordinal_category(3), 4)
    rng = Random(16)
    for q in range(2):
        yield "thin-%d" % q, nerve(random_thin_category(rng, 4), 4)
    yield "D2xD2", product(S(2), S(2))[0]
    yield "BZ2xD1", product(nerve(bg(cyclic_table(2)), 3), S(1))[0]
    F = frak_c(4)
    for x, y in [("0", "4"), ("1", "3")]:
        yield "frak_c(4)(%s,%s)" % (x, y), F.mapspace(x, y)
    for n, k in [(2, 1), (3, 0), (4, 2)]:
        yield "horn(%d,%d)" % (n, k), horn(n, k)
    yield "boundary(3)", boundary(3)
    yield "spine(3)", spine(3)
    yield "opposite(thin)", opposite(nerve(random_thin_category(rng, 4), 3))
    yield "opposite(BZ/3)", opposite(nerve(bg(cyclic_table(3)), 3))
    yield "skeleton(BZ/3, 2)", skeleton(nerve(bg(cyclic_table(3)), 4), 2)
    yield "skeleton(D3, 1)", skeleton(S(3), 1)


def test_ranked_matches_face_of_oracle():
    # every level up to the truncation, or one above the top cells
    from oracles import ranked_by_face_of
    for name, X in _block_objects():
        top = X.dim_max + 1 if X.truncation is None else X.truncation
        for m in range(top + 1):
            order, faces, natural = X.ranked(m)
            assert (order, [list(col) for col in faces], natural) == \
                ranked_by_face_of(X, m), (name, m)


def _repoint_objects():
    from simpcat.nerve_cat import bg, nerve, ordinal_category
    from families import cyclic_table
    BZ2 = nerve(bg(cyclic_table(2)), 3)
    return [standard_simplex(3), BZ2, nerve(ordinal_category(2), 3),
            product(BZ2, standard_simplex(1), 3)[0], horn(3, 1)]


REPOINT_OBJECTS = _repoint_objects()


@st.composite
def repointed_faces(draw):
    """The tables of an object with one or two stored faces pointed at
    another E-Z pair of the right dimension."""
    X = draw(st.sampled_from(REPOINT_OBJECTS))
    cells = [(k, idx) for k in range(1, len(X.names))
             for idx in range(X.n_cells(k))]
    changes = []
    for _ in range(draw(st.integers(1, 2))):
        k, idx = draw(st.sampled_from(cells))
        changes.append(_set_face(k, idx, draw(st.integers(0, k)),
                                 draw(st.sampled_from(X.simplices(k - 1)))))
    return X.truncation, _corrupted(X, _each(*changes))


@settings(deadline=None, max_examples=80)
@given(repointed_faces())
def test_repointed_faces_fail_as_the_cell_oracle_says(case):
    from oracles import check_identities_by_cells
    truncation, (names, faces) = case

    def outcome(check):
        try:
            check()
        except InputError as e:
            return str(e)
        return None
    X = SimplicialSet(truncation, names, faces)
    assert outcome(X.validate) == \
        outcome(lambda: check_identities_by_cells(X))


@st.composite
def subsets_and_products(draw):
    """A random simplicial subset of Delta^n (n <= 3), spanned by a few
    vertex sets, or the product of two smaller ones."""
    def subset(top):
        n = draw(st.integers(1, top))
        spans = draw(st.lists(st.frozensets(st.integers(0, n), min_size=1),
                              min_size=1, max_size=3))
        return sset._subset_complex(
            n, lambda c: any(span.issuperset(c) for span in spans))
    if draw(st.booleans()):
        return subset(3)
    return product(subset(2), subset(2))[0]


@settings(deadline=None, max_examples=30)
@given(subsets_and_products(), subsets_and_products(), st.integers(0, 3))
def test_constructions_on_random_subsets_validate(X, Y, k):
    # constructors check nothing, so the constructions are checked here:
    # products (X and Y may be products themselves), skeleta, opposites,
    # and pushouts along the vertices, glued to X or collapsed to a point
    X.validate()
    if X.dim_max + Y.dim_max <= 5:
        P, legs = product(X, Y)
        for Z in (P,) + legs:
            Z.validate()
    skeleton(X, k).validate()
    opposite(X).validate()
    A = skeleton(X, 0)
    f = inclusion_by_names(A, X)
    collapse = SimplicialMap(A, standard_simplex(0),
                             [[((0,), 0)] * A.n_cells(0)])
    collapse.validate()
    for g in (f, collapse):
        for Z in pushout(f, g):
            Z.validate()


@settings(deadline=None, max_examples=40)
@given(subsets_and_products())
def test_simplicial_identities_through_both_routes(X):
    from oracles import apply_by_factorization
    from simpcat.delta import degeneracy, face
    for act in (X.apply,
                lambda alpha, x: apply_by_factorization(X, alpha, x)):
        def d(i, y, act=act):
            return act(face(simplex_dim(y), i), y)

        def s(j, y, act=act):
            return act(degeneracy(simplex_dim(y) + 1, j), y)

        for n in range(4):
            for x in X.simplices(n):
                for j in range(1, n + 1) if n >= 2 else ():
                    for i in range(j):
                        assert d(i, d(j, x)) == d(j - 1, d(i, x))
                for j in range(n + 1) if n < 3 else ():
                    y = s(j, x)
                    for i in range(j + 1):
                        assert s(i, y) == s(j + 1, s(i, x))
                    for i in range(n + 2):
                        if i < j:
                            want = s(j - 1, d(i, x))
                        elif i <= j + 1:
                            want = x
                        else:
                            want = s(j, d(i - 1, x))
                        assert d(i, y) == want


def _assignments(maps):
    return [m.assignment for m in maps]


@settings(deadline=None, max_examples=40)
@given(subsets_and_products(), subsets_and_products())
def test_maps_and_extensions_follow_the_dimension_order_oracle(B, X):
    # the search places cells in face order, then sorts into the order in
    # which a backtracker over the cells in (k, idx) order finds them
    from oracles import (lift_extensions_by_dimension_order,
                         maps_by_dimension_order)
    assume(X.n_cells(0) ** B.n_cells(0) <= 4096)
    assert _assignments(enumerate_maps(B, X)) == \
        _assignments(maps_by_dimension_order(B, X))
    i = inclusion_by_names(skeleton(B, 0), B)
    for f in maps_by_dimension_order(i.source, X)[:4]:
        assert _assignments(lift_extensions(i, f)) == \
            _assignments(lift_extensions_by_dimension_order(i, f))


def test_horn_extensions_follow_the_dimension_order_oracle():
    from families import category_family
    from oracles import (lift_extensions_by_dimension_order,
                         maps_by_dimension_order)
    from simpcat.nerve_cat import nerve
    for _, C in category_family(max_objects=3, max_arrows=6):
        N = nerve(C, 3)
        for n in (2, 3):
            for k in range(n + 1):
                i = inclusion_by_names(horn(n, k), standard_simplex(n))
                horns = enumerate_maps(i.source, N)
                assert _assignments(horns) == \
                    _assignments(maps_by_dimension_order(i.source, N))
                for f in horns:
                    assert _assignments(lift_extensions(i, f)) == \
                        _assignments(lift_extensions_by_dimension_order(i, f))


# -- blocks of simplices, one per surjection


def _empty_middle_level():
    """One vertex, no nondegenerate edge, and one 2-cell whose faces are
    all s0(*)."""
    point_edge = ((0, 0), 0)
    return SimplicialSet(None, [("*",), (), ("u",)],
                         [[()], [], [(point_edge,) * 3]]).validate()


def test_doubled_blocks_match_grouping_by_simplex():
    from oracles import doubled_blocks_by_grouping
    from simpcat.hcnerve import frak_c
    from simpcat.nerve_cat import bg, nerve
    from families import cyclic_table
    objects = [("frak_c(%d)(%s,%s)" % (n, x, y), space)
               for n in range(6)
               for (x, y), space in frak_c(n).mapspaces.items()]
    objects += [("D%dxD%d" % (n, m), product(standard_simplex(n),
                                             standard_simplex(m))[0])
                for n, m in [(0, 2), (1, 1), (1, 3), (2, 2)]]
    objects.append(("BZ/2 at 3", nerve(bg(cyclic_table(2)), 3)))
    objects.append(("empty middle", _empty_middle_level()))
    for name, X in objects:
        top = X.dim_max + 1 if X.truncation is None else X.truncation
        for q in range(top + 1):
            assert sset._doubled_blocks(X, q) == \
                doubled_blocks_by_grouping(X, q), (name, q)
    X = nerve(bg(cyclic_table(2)), 3)
    with pytest.raises(InputError):
        sset._doubled_blocks(X, 4)
    # level 1 has no cells, so its surjections make no block
    assert sset._doubled_blocks(_empty_middle_level(), 2) == [
        (0b11, [((0, 0, 0), 0)]), (0, [((0, 1, 2), 0)])]


@st.composite
def small_subsets(draw, top):
    """A simplicial subset of Delta^n, n <= top, spanned by a few vertex
    sets, or one of its skeleta."""
    n = draw(st.integers(0, top))
    spans = draw(st.lists(st.frozensets(st.integers(0, n), min_size=1),
                          min_size=1, max_size=3))
    X = sset._subset_complex(
        n, lambda c: any(span.issuperset(c) for span in spans))
    if draw(st.booleans()):
        return skeleton(X, draw(st.integers(0, max(0, X.dim_max - 1))))
    return X


@settings(deadline=None, max_examples=30)
@given(small_subsets(2), small_subsets(2), small_subsets(2))
def test_product_universal_property_on_generated_objects(X, Y, A):
    # maps A -> X x Y biject with pairs of maps A -> X, A -> Y
    P, _ = product(X, Y)
    assert len(enumerate_maps(A, P)) == \
        len(enumerate_maps(A, X)) * len(enumerate_maps(A, Y))


def test_sparse_high_truncation_asks_only_nonempty_levels(monkeypatch):
    # the face identities are listed level by level, only where there are
    # cells: a point truncated at 300 has none to check, and a 12-sphere
    # (one vertex, one 12-cell on it) truncated at 300 only those out of
    # level 12.  Listing every identity up to the truncation would make
    # millions of tuples here
    asked = []
    listed = sset.face_identities

    def recording(n):
        asked.append(n)
        return listed(n)
    monkeypatch.setattr(sset, "face_identities", recording)
    X = formats.sset_from_dict(
        {"cells": {"0": ["v"], "300": []}, "truncation": 300})
    assert cell_counts(X) == [1] + [0] * 300 and asked == []
    X = formats.sset_from_dict(
        {"cells": {"0": ["v"], "12": ["c"], "300": []}, "truncation": 300,
         "faces": {"12:c": [[[0] * 12, "v"]] * 13}})
    assert cell_counts(X)[12] == 1 and asked == [12]


def _sphere_doc(m):
    # one vertex and one m-cell whose faces all sit on it
    return {"cells": {"0": ["v"], str(m): ["c"]},
            "faces": {"%d:c" % m: [[[0] * m, "v"]] * (m + 1)}}


def test_sparse_levels_load_without_listing_empty_blocks():
    # the blocks of the m-simplices are listed only onto levels with
    # cells: all surjections [199] ->> [k] would be 2^199 of them
    import time
    start = time.perf_counter()
    X = formats.sset_from_dict(_sphere_doc(200))
    assert time.perf_counter() - start < 1.0
    assert cell_counts(X) == [1] + [0] * 199 + [1]
    assert list(X.block_bases(199)) == [(0,) * 200]
    assert list(X.block_bases(200)) == [(0,) * 201, tidentity(200)]


def _sparse_objects():
    # a cell glued along the boundary of a degenerate simplex of X leaves
    # the levels between empty
    for m in range(2, 6):
        yield "sphere(%d)" % m, formats.sset_from_dict(_sphere_doc(m))
    for X, w in [(standard_simplex(1), ((0, 0, 1, 1, 1), 0)),
                 (standard_simplex(1), ((0, 1, 1, 1, 1, 1), 0)),
                 (standard_simplex(2), ((0, 1, 1, 2, 2), 0))]:
        m = len(w[0]) - 1
        names = list(X.names) + [()] * (m + 1 - len(X.names))
        faces = list(X.faces) + [[]] * (m + 1 - len(X.faces))
        names[m] += ("c",)
        faces[m] = faces[m] + [X.simplex_faces(w)]
        yield "%r + %d-cell" % (X, m), SimplicialSet(None, names,
                                                     faces).validate()


def test_ranked_matches_face_of_oracle_on_sparse_levels():
    from oracles import ranked_by_face_of
    for name, X in _sparse_objects():
        for m in range(X.dim_max + 2):
            order, faces, natural = X.ranked(m)
            assert (order, [list(col) for col in faces], natural) == \
                ranked_by_face_of(X, m), (name, m)
            assert X.simplices(m) == tuple(
                (s, idx) for k in range(m + 1)
                for s in all_surjections(m, k)
                for idx in range(X.n_cells(k))), (name, m)


@st.composite
def indexed_levels(draw):
    """A nerve, a product or a horn, a level m >= 1 of it and a nonempty
    list of distinct face positions in [0, m], in any order."""
    from random import Random
    from families import cyclic_table, random_thin_category
    from simpcat.nerve_cat import bg, nerve, ordinal_category
    kind = draw(st.sampled_from(["group", "ordinal", "thin", "product",
                                 "horn"]))
    if kind == "group":
        X = nerve(bg(cyclic_table(draw(st.integers(1, 3)))), 3)
    elif kind == "ordinal":
        X = nerve(ordinal_category(draw(st.integers(0, 3))), 3)
    elif kind == "thin":
        X = nerve(random_thin_category(Random(draw(st.integers(0, 99))), 3),
                  3)
    elif kind == "product":
        X = draw(subsets_and_products())
    else:
        n = draw(st.integers(1, 4))
        X = horn(n, draw(st.integers(0, n)))
    top = X.dim_max + 1 if X.truncation is None else X.truncation
    m = draw(st.integers(1, min(top, 4)))
    positions = draw(st.lists(st.integers(0, m), min_size=1, max_size=m + 1,
                              unique=True))
    return X, m, tuple(positions)


@settings(deadline=None, max_examples=60)
@given(indexed_levels())
def test_face_index_matches_face_of_oracle(case):
    # the one index of simplices by their faces, against one face_of per
    # face over the sorted simplices, for the positions in the order given
    from oracles import face_index_by_face_of
    X, m, positions = case
    assert X.face_index(m, positions) == \
        face_index_by_face_of(X, m, positions)
