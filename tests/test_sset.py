from math import comb

import pytest
from hypothesis import given, strategies as st

from simpcat import sset
from simpcat.delta import tidentity
from simpcat.sset import (InputError, boundary, disjoint_union,
                          empty_sset, enumerate_maps, find_isomorphism,
                          from_presheaf, horn, identity_map,
                          inclusion_by_names, is_isomorphic, lift_extensions,
                          opposite, pi0, point, product, pushout, skeleton,
                          spine, standard_object, standard_simplex,
                          SimplicialMap, SimplicialSet)


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
    with pytest.raises(InputError):
        standard_object("horn", 2, None)


def test_spine():
    S = spine(3)
    assert cell_counts(S) == [4, 3]
    assert set(S.cells(1)) == {"0-1", "1-2", "2-3"}
    assert cell_counts(standard_object("spine", 1)) == [2, 1]


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
    P, (px, py) = product(X, point())
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
    A = point()
    f = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "1"))]])
    g = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "0"))]])
    P, lx, ly = pushout(f, g)
    assert is_isomorphic(P, spine(2))


def test_pushout_collapse_hr1():
    # Delta^2 with its d_2 face collapsed to a point: the right-mapping
    # cosimplicial gadget in degree 1 (2 vertices, 2 edges, 1 triangle)
    D2 = standard_simplex(2)
    D1 = standard_simplex(1)
    f = inclusion_by_names(D1, D2)  # names 0,1,0-1 all present in Delta^2
    g = SimplicialMap(D1, point(), [
        [(tidentity(0), 0), (tidentity(0), 0)], [((0, 0), 0)]])
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
    A = point()
    f = SimplicialMap(A, D2, [[(tidentity(0), D2.cell_index(0, "0"))]])
    g = SimplicialMap(A, D1, [[(tidentity(0), D1.cell_index(0, "1"))]])
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
    i = identity_map(X)
    P, lx, ly = pushout(i, i)
    assert is_isomorphic(P, X)


def test_pushout_requires_injective_first_leg():
    D1 = standard_simplex(1)
    g = SimplicialMap(D1, point(), [
        [(tidentity(0), 0), (tidentity(0), 0)], [((0, 0), 0)]])
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
    X = point()
    f = SimplicialMap(A, X, [[(tidentity(0), 0), (tidentity(0), 0)]])
    exts = lift_extensions(i, f)
    assert len(exts) == 1
    exts[0].validate()


def test_lift_extensions_limit_validation():
    B = standard_simplex(1)
    A = boundary(1)
    i = inclusion_by_names(A, B)
    f = SimplicialMap(A, point(), [[(tidentity(0), 0), (tidentity(0), 0)]])
    with pytest.raises(InputError):
        lift_extensions(i, f, limit=0)


def test_lift_extensions_determinism_under_reordering():
    import random
    B = standard_simplex(2)
    A = horn(2, 1)
    i = inclusion_by_names(A, B)
    X, _ = product(standard_simplex(1), standard_simplex(1))
    maps = enumerate_maps(A, X)
    baseline = None
    for f in maps[:6]:
        exts = lift_extensions(i, f)
        for seed in (1, 2):
            shuffled = lift_extensions(
                i, f, _candidate_order=random.Random(seed))
            assert sorted(m.assignment for m in shuffled) == \
                sorted(m.assignment for m in exts)
        baseline = exts
    assert baseline is not None


def test_enumerate_maps_counts():
    # maps Delta^1 -> Delta^n are the 1-simplices
    for n in range(3):
        X = standard_simplex(n)
        assert len(enumerate_maps(standard_simplex(1), X)) == \
            len(X.simplices(1))


def test_truncation_guard():
    X = SimplicialSet(1, [("a",), ()], [[()], []])
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
        SimplicialSet(None, names, faces)


def test_apply_against_nerve_closed_form():
    # the E-Z operator recursion must agree with the closed-form action
    # on nerve chains: alpha^*(chain) has links the composites between
    # consecutive alpha-values
    import random as _random
    from simpcat.delta import all_maps
    from simpcat.nerve_cat import nerve
    from test_nerve_cat import iso_pair_category
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
    from test_nerve_cat import iso_pair_category
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
    X = disjoint_union(point(), point())
    assert len(pi0(X)) == 2
    assert len(pi0(standard_simplex(3))) == 1
    assert pi0(empty_sset()) == []


def test_serialization_dict():
    X = horn(2, 1)
    d = X.as_dict()
    assert d["truncation"] is None
    assert set(d["cells"]["1"]) == {"0-1", "1-2"}
