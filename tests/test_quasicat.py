import gc

import pytest
from hypothesis import given, settings, strategies as st

from simpcat import quasicat, sset
from simpcat.errors import InputError
from simpcat.nerve_cat import (bg, find_category_isomorphism, max_subgroupoid,
                               nerve, ordinal_category)
from simpcat.quasicat import (LiftingObstruction, classify,
                              count_extensions, equivalences, hom_space,
                              homotopy_category, homotopy_group,
                              max_kan_subset, witness_to_map)
from simpcat.sset import is_isomorphic, opposite, standard_simplex

from families import (cyclic_table, iso_pair_category, klein_table,
                      symmetric3_table)
from test_sset import subsets_and_products


def test_classify_nerve_inner_unique():
    N = nerve(ordinal_category(2), 3)
    report = classify(N, 3, "inner")
    assert report.is_quasicategory()
    assert report.is_nerve_like()


def test_classify_groupoid_nerve_kan():
    N = nerve(bg(cyclic_table(2)), 3)
    report = classify(N, 3, "kan")
    assert report.passed()


def test_classify_poset_not_kan():
    N = nerve(ordinal_category(1), 3)
    report = classify(N, 3, "kan")
    assert not report.passed()
    # an explicit unfillable outer horn exists at (2, 0) or (2, 2)
    bad = {key for key, (t, u, m) in report.stats.items() if u > 0}
    assert (2, 0) in bad or (2, 2) in bad
    w = report.first_witness()
    assert w is not None
    # replaying the witness through the generic engine confirms 0 fillers
    assert count_extensions(N, w) == 0


def test_classify_argument_checks():
    N = nerve(ordinal_category(1), 2)
    with pytest.raises(InputError):
        classify(N, 3, "kan")  # truncation too low
    with pytest.raises(InputError):
        classify(N, 2, "sideways")


def test_classify_non_quasicategory():
    # a horn itself is not a quasicategory: its defining horn cannot fill
    L, _ = sset.product(sset.horn(2, 1), sset.standard_simplex(0))
    L = sset.horn(2, 1)
    levels = [L.simplices(n) for n in range(4)]
    L3 = sset.from_presheaf(3, levels, L.apply,
                            name_fn=lambda n, s: L.describe(s))
    report = classify(L3, 3, "inner")
    assert not report.is_quasicategory()


def test_op_duality_left_right():
    for C in [ordinal_category(2), iso_pair_category()]:
        N = nerve(C, 3)
        Nop = opposite(N)
        left = classify(N, 3, "left")
        right = classify(Nop, 3, "right")
        for (n, k), stat in left.stats.items():
            assert right.stats[(n, n - k)] == stat


def test_homotopy_category_of_nerve_roundtrip():
    for C in [ordinal_category(2), bg(cyclic_table(3)),
              iso_pair_category()]:
        Ho = homotopy_category(nerve(C, 3))
        assert find_category_isomorphism(Ho, C) is not None


def test_homotopy_category_point():
    Ho = homotopy_category(nerve(ordinal_category(0), 3))
    assert len(Ho.objects) == 1
    assert len(Ho.arrows) == 1


def test_homotopy_category_op():
    for C in [ordinal_category(2), iso_pair_category()]:
        N = nerve(C, 3)
        Ho_op = homotopy_category(opposite(N))
        Ho = homotopy_category(N)
        assert find_category_isomorphism(Ho_op, Ho.opposite()) is not None


def test_homotopy_category_truncation_guard():
    N = nerve(ordinal_category(2), 2)
    with pytest.raises(InputError):
        homotopy_category(N)


def test_equivalences_poset():
    N = nerve(ordinal_category(1), 3)
    eqs = equivalences(N)
    # only the degenerate edges; the nonidentity arrow is not invertible
    assert all(sset.is_degenerate(e) for e in eqs)
    assert len(eqs) == 2


def test_equivalences_groupoid():
    N = nerve(bg(cyclic_table(2)), 3)
    eqs = equivalences(N)
    assert len(eqs) == len(N.simplices(1))


def test_equivalences_iso_pair():
    C = iso_pair_category()
    N = nerve(C, 3)
    eqs = equivalences(N)
    nondeg = {e for e in eqs if not sset.is_degenerate(e)}
    names = {N.names[1][idx] for s, idx in nondeg}
    assert names == {"u", "v"}


def test_max_kan_subset():
    # poset: two disjoint points
    M = max_kan_subset(nerve(ordinal_category(1), 3))
    assert [M.n_cells(k) for k in range(2)] == [2, 0]
    # groupoid: everything
    N = nerve(bg(cyclic_table(2)), 3)
    assert is_isomorphic(max_kan_subset(N), N)
    # mixed: the nerve of the maximal subgroupoid
    C = iso_pair_category()
    M = max_kan_subset(nerve(C, 3))
    assert is_isomorphic(M, nerve(max_subgroupoid(C), 3))
    # the result itself passes the Kan classification at its bound
    assert classify(M, 3, "kan").passed()


def test_max_kan_subset_matches_edge_oracle():
    from oracles import max_kan_subset_by_edges
    for X in [nerve(ordinal_category(1), 3), nerve(ordinal_category(2), 3),
              nerve(bg(cyclic_table(2)), 3), nerve(iso_pair_category(), 3),
              nerve(bg(symmetric3_table()), 3),
              opposite(nerve(iso_pair_category(), 3))]:
        assert max_kan_subset(X).as_dict() == \
            max_kan_subset_by_edges(X).as_dict()


def test_hom_space_pi0_matches_ho():
    C = iso_pair_category()
    N = nerve(C, 3)
    Ho = homotopy_category(N)
    for x in C.objects:
        for y in C.objects:
            H = hom_space(N, x, y, "right", 2)
            assert len(sset.pi0(H)) == len(Ho.hom(x, y))


def test_hom_space_nerve_discrete():
    C = iso_pair_category()
    N = nerve(C, 3)
    H = hom_space(N, "a", "b", "right", 2)
    # discrete simplicial set on Hom_C(a, b) = {u}
    assert H.n_cells(0) == 1
    assert all(H.n_cells(k) == 0 for k in range(1, 3))
    H2 = hom_space(N, "a", "c", "right", 2)
    assert H2.n_cells(0) == 1  # only wu
    H3 = hom_space(N, "c", "a", "right", 2)
    assert H3.n_cells(0) == 0
    Hp = hom_space(nerve(ordinal_category(0), 3), "0", "0", "right", 2)
    assert Hp.n_cells(0) == 1 and Hp.n_cells(1) == 0


def test_hom_space_bg():
    N = nerve(bg(cyclic_table(2)), 3)
    H = hom_space(N, "*", "*", "right", 2)
    assert H.n_cells(0) == 2
    assert all(H.n_cells(k) == 0 for k in range(1, 3))


def test_hom_space_left_via_op():
    C = iso_pair_category()
    N = nerve(C, 3)
    HL = hom_space(N, "a", "b", "left", 2)
    assert HL.n_cells(0) == 1
    HR = hom_space(N, "a", "b", "right", 2)
    assert HR.n_cells(0) == HL.n_cells(0)


def test_pi0():
    X = sset.disjoint_union(sset.standard_simplex(0), sset.standard_simplex(0))
    report = homotopy_group(X, None, 0)
    assert report.count == 2


def test_homotopy_group_rejects_negative_degree():
    N = nerve(bg(cyclic_table(2)), 3)
    with pytest.raises(InputError):
        homotopy_group(N, "*", -1)


def test_pi1_z2():
    N = nerve(bg(cyclic_table(2)), 3)
    pi1 = homotopy_group(N, "*", 1)
    assert pi1.order == 2
    assert pi1.structure == "cyclic order 2"
    assert pi1.is_group()


def test_pi1_s3_nonabelian():
    N = nerve(bg(symmetric3_table()), 3)
    pi1 = homotopy_group(N, "*", 1)
    assert pi1.order == 6
    assert not pi1.is_abelian()
    assert pi1.structure == "symmetric-3"
    assert pi1.isomorphic_to_table(symmetric3_table())


def test_pi1_requires_kan():
    N = nerve(ordinal_category(1), 3)
    with pytest.raises(LiftingObstruction):
        homotopy_group(N, "0", 1)


def test_pi1_table_is_group_law():
    for m in (2, 3, 4):
        N = nerve(bg(cyclic_table(m)), 3)
        pi1 = homotopy_group(N, "*", 1)
        assert pi1.is_group()
        assert pi1.isomorphic_to_table(cyclic_table(m))


def test_pi1_not_isomorphic_to_another_group_of_its_order():
    pi1 = homotopy_group(nerve(bg(cyclic_table(4)), 3), "*", 1)
    assert pi1.isomorphic_to_table(cyclic_table(4))
    assert not pi1.isomorphic_to_table(klein_table())


def test_pi1_of_a_group_neither_cyclic_nor_s3_is_unrecognized():
    pi1 = homotopy_group(nerve(bg(klein_table()), 3), "*", 1)
    assert pi1.order == 4 and pi1.is_group() and pi1.is_abelian()
    assert pi1.structure == "unrecognized"
    assert pi1.isomorphic_to_table(klein_table())


def test_pi1_against_a_table_without_unit_raises():
    # the left-zero table x * y = x has no unit; comparing against it
    # must refuse rather than search for an element order forever
    pi1 = homotopy_group(nerve(bg(cyclic_table(2)), 3), "*", 1)
    left_zero = {(x, y): x for x in "ab" for y in "ab"}
    with pytest.raises(InputError, match="has no unit"):
        pi1.isomorphic_to_table(left_zero)


def test_group_presentation_is_group_checks_the_law():
    z3 = cyclic_table(3)
    assert quasicat.GroupPresentation(["g0", "g1", "g2"], "g0",
                                      z3).is_group()
    # a wrong unit, a table that is not total, and a monoid that is not
    # a group
    assert not quasicat.GroupPresentation(["g0", "g1", "g2"], "g1",
                                          z3).is_group()
    partial = {k: v for k, v in z3.items() if k != ("g1", "g2")}
    P = quasicat.GroupPresentation(["g0", "g1", "g2"], "g0", partial)
    assert not P.is_group() and P.structure == "unrecognized"
    mins = {(a, b): min(a, b) for a in "01" for b in "01"}
    assert not quasicat.GroupPresentation(["0", "1"], "1", mins).is_group()


def test_pi2_of_bg_trivial():
    N = nerve(bg(cyclic_table(2)), 4)
    pi2 = homotopy_group(N, "*", 2)
    assert pi2.order == 1
    assert pi2.structure == "trivial"


def test_classify_agrees_with_generic_engine():
    # the facet-tuple enumeration must match brute-force map enumeration
    # plus per-horn extension counting through the lifting engine
    objects = [
        nerve(ordinal_category(2), 3),
        nerve(bg(cyclic_table(2)), 3),
        nerve(iso_pair_category(), 3),
        sset.boundary(3),
    ]
    for X in objects:
        for mode in ("inner", "kan"):
            report = classify(X, 3, mode)
            for (n, k), (tested, unfillable, nonunique) in \
                    report.stats.items():
                L = sset.horn(n, k)
                horns = sset.enumerate_maps(L, X)
                assert len(horns) == tested, (n, k)
                incl = sset.inclusion_by_names(
                    L, sset.standard_simplex(n))
                bad = sum(1 for h in horns
                          if len(sset.lift_extensions(incl, h)) == 0)
                multi = sum(1 for h in horns
                            if len(sset.lift_extensions(incl, h)) > 1)
                assert bad == unfillable, (n, k)
                assert multi == nonunique, (n, k)


def test_witness_roundtrip_map_valid():
    N = nerve(ordinal_category(1), 3)
    report = classify(N, 3, "kan")
    w = report.first_witness()
    f = witness_to_map(N, w)
    f.validate()


def test_witness_that_leaves_out_a_facet_is_refused():
    # Lambda^2_1 has the facets d_0 and d_2; a witness naming d_0 only
    # leaves the vertex 0 in no facet it gives
    N = nerve(bg(cyclic_table(2)), 2)
    w = {"n": 2, "k": 1, "cells": {"0": [[0, 0], "*"]}}
    with pytest.raises(InputError, match="^witness cell 0 lies in no facet$"):
        witness_to_map(N, w)


def test_one_dimensional_witnesses_count_their_fillers():
    # Lambda^1_k is the vertex 1 - k, named by its facet d_k; on N(Z/2)
    # both edges out of (and into) the one vertex fill it
    N = nerve(bg(cyclic_table(2)), 2)
    for k in (0, 1):
        w = {"n": 1, "k": k, "cells": {str(1 - k): [[0], "*"]}}
        assert count_extensions(N, w) == 2, k


def test_classify_leaves_no_garbage():
    # a horn search whose tables sit in a reference cycle keeps them
    # alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        classify(nerve(bg(cyclic_table(3)), 4), 4, "kan")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_homotopy_category_keeps_no_reference_to_its_input():
    import weakref
    X = nerve(ordinal_category(2), 3)
    homotopy_category(X)
    ref = weakref.ref(X)
    del X
    gc.collect()
    assert ref() is None


def test_loading_and_kan_classification_never_factor(monkeypatch):
    # validation and horn classification read faces off the stored
    # faces; no Delta map is factored on the way
    import json
    from simpcat import formats
    text = formats.dumps(formats.sset_to_dict(
        nerve(bg(symmetric3_table()), 4)))
    calls = []
    real = sset.tfactorize

    def counted(values):
        calls.append(values)
        return real(values)
    sset._factored.cache_clear()
    monkeypatch.setattr(sset, "tfactorize", counted)
    X = formats.sset_from_dict(json.loads(text))
    X.validate()
    report = classify(X, 4, "kan")
    assert report.passed() and report.stats[(4, 2)][0] > 0
    assert calls == []
    # the count sees a factorization when one happens
    X.apply((0, 0, 2), X.simplices(2)[-1])
    assert calls == [(0, 0, 2)]


# -- the dense-id horn search against the intersection oracle


def _classify_both_ways(X, d, mode):
    """classify(X, d, mode) as its dict and its witness for every (n, k),
    from the library search and from a classify whose horn search is
    the intersection oracle."""
    from unittest import mock
    from oracles import horn_stats_by_intersection
    fast = classify(X, d, mode)
    with mock.patch.object(quasicat, "_horn_stats",
                           horn_stats_by_intersection):
        slow = classify(X, d, mode)
    return ((fast.as_dict(), fast.witnesses),
            (slow.as_dict(), slow.witnesses))


def _horn_search_objects():
    from families import category_family
    for name, C in category_family():
        yield name, nerve(C, 4)
    for n in range(1, 5):
        for k in range(n + 1):
            yield "horn(%d,%d)" % (n, k), sset.horn(n, k)
        yield "boundary(%d)" % n, sset.boundary(n)
        yield "spine(%d)" % n, sset.spine(n)
    yield "boundary(3)xboundary(2)", sset.product(
        sset.boundary(3), sset.boundary(2), truncation=3)[0]


def test_classify_matches_intersection_oracle():
    for name, X in _horn_search_objects():
        d = 4 if X.truncation is None else X.truncation
        for mode in ("inner", "kan", "left", "right"):
            fast, slow = _classify_both_ways(X, d, mode)
            assert fast == slow, (name, mode)


@settings(deadline=None, max_examples=40)
@given(subsets_and_products(), st.sampled_from(sorted(quasicat.MODES)))
def test_classify_matches_intersection_oracle_on_random_subsets(X, mode):
    fast, slow = _classify_both_ways(X, 4, mode)
    assert fast == slow
