import pytest

from simpcat import quasicat, sset
from simpcat.errors import InputError
from simpcat.nerve_cat import (bg, cyclic_table, find_category_isomorphism,
                               max_subgroupoid, nerve, ordinal_category,
                               symmetric3_table)
from simpcat.quasicat import (LiftingObstruction, classify,
                              count_extensions, equivalences, hom_space,
                              homotopy_category, homotopy_group,
                              max_kan_subset, witness_to_map)
from simpcat.sset import is_isomorphic, opposite, standard_simplex

from test_nerve_cat import iso_pair_category


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
    L, _ = sset.product(sset.horn(2, 1), sset.point())
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
    X = sset.disjoint_union(sset.point(), sset.point())
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
                if n == 1:
                    continue
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
