import pytest

from simpcat.errors import InputError
from simpcat.fibrations import (SplitFunctorToCat, cocart_analyze,
                                fiber_category, grothendieck_build,
                                grothendieck_read, is_left_fibration,
                                join, twisted_arrows)
from simpcat.nerve_cat import (FinCategory, Functor, bg, cyclic_table,
                               discrete_category,
                               find_category_isomorphism,
                               identity_functor, ordinal_category,
                               poset_category, product_category)

from oracles import base_change_to_ordinal, cocart_analyze_oracle
from test_nerve_cat import iso_pair_category


def group_hom_functor(table_g, table_h, mapping):
    """Functor BG -> BH from an element mapping."""
    G = bg(table_g)
    H = bg(table_h)
    F = Functor(G, H, {"*": "*"}, dict(mapping))
    F.validate()
    return G, H, F


def z4_to_z2():
    mapping = {"g0": "g0", "g1": "g1", "g2": "g0", "g3": "g1"}
    return group_hom_functor(cyclic_table(4), cyclic_table(2), mapping)


def square_to_triangle():
    """The locally-cocartesian-but-not-cocartesian functor from the
    commuting square to [2]."""
    S = product_category(ordinal_category(1), ordinal_category(1))
    T = ordinal_category(2)
    obj_map = {
        "(0,0)": "0",
        "(0,1)": "1",
        "(1,0)": "2",
        "(1,1)": "2",
    }
    arr_map = {}
    for a in S.arrows:
        x, y = S.src[a], S.dst[a]
        arr_map[a] = "%s<=%s" % (obj_map[x], obj_map[y])
    F = Functor(S, T, obj_map, arr_map)
    F.validate()
    return S, T, F


def test_left_fibration_bg_surjection():
    G, H, F = z4_to_z2()
    assert is_left_fibration(F).verdict


def test_left_fibration_failure_witness():
    # the inclusion {0} -> [1] is not a left fibration: the arrow out of
    # the image cannot be lifted
    C = ordinal_category(0)
    D = ordinal_category(1)
    F = Functor(C, D, {"0": "0"}, {"0<=0": "0<=0"})
    F.validate()
    report = is_left_fibration(F)
    assert not report.verdict
    assert any(w["kind"] == "no-lift" for w in report.witnesses)


def test_left_fibration_projection_iff_groupoid():
    # projection C x D -> D is a left fibration iff C is a groupoid
    D = ordinal_category(1)
    for C, expect in [(bg(cyclic_table(2)), True),
                      (ordinal_category(1), False)]:
        P = product_category(C, D)
        proj = Functor(P, D,
                       {o: o.rsplit(",", 1)[1][:-1] for o in P.objects},
                       {a: a[1:-1].rsplit(",", 1)[1] for a in P.arrows})
        proj.validate()
        assert is_left_fibration(proj).verdict == expect


def test_left_fibration_to_terminal():
    T = ordinal_category(0)
    for C, expect in [(bg(cyclic_table(3)), True),
                      (iso_pair_category(), False)]:
        F = Functor(C, T, {x: "0" for x in C.objects},
                    {a: "0<=0" for a in C.arrows})
        F.validate()
        assert is_left_fibration(F).verdict == expect


def test_identity_functor_all_cocartesian():
    C = iso_pair_category()
    analysis = cocart_analyze(identity_functor(C))
    assert analysis.is_cocartesian_fibration
    assert all(flags["cocartesian"]
               for flags in analysis.arrow_flags.values())


def test_square_to_triangle_analysis():
    S, T, F = square_to_triangle()
    analysis = cocart_analyze(F)
    assert analysis.is_locally_cocartesian_fibration
    assert not analysis.is_cocartesian_fibration
    flagged = [a for a in analysis.locally_cocartesian_arrows()
               if not S.is_identity(a)]
    assert sorted(flagged) == sorted([
        "((0<=0,0<=1))", "((0<=1,0<=0))", "((0<=1,1<=1))"]) \
        or len(flagged) == 3
    # exactly three nonidentity arrows are locally cocartesian
    assert len(flagged) == 3
    # some composable pair of locally cocartesian arrows fails to close
    assert not all(analysis.pair_flags.values())


def test_left_fibration_input_cocartesian_with_groupoid_fibers():
    G, H, F = z4_to_z2()
    analysis = cocart_analyze(F)
    assert analysis.is_cocartesian_fibration
    assert analysis.is_left_fibration
    fib = fiber_category(F, "*")
    assert fib.is_groupoid()


def _integer_named(C, first):
    """C with its arrows renamed first, first + 1, ... in order, and the
    renaming."""
    new = {a: first + k for k, a in enumerate(C.arrows)}
    D = FinCategory(C.objects, list(new.values()),
                    {new[a]: x for a, x in C.src.items()},
                    {new[a]: y for a, y in C.dst.items()},
                    {(new[g], new[f]): new[c]
                     for (g, f), c in C.comp.items()},
                    {x: new[e] for x, e in C.ident.items()})
    D.validate()
    return D, new


def _integer_named_vee():
    """The vee x <= y, x <= z onto [1], x to 0, with arrows named by
    integers: neither arrow out of x is (locally) cocartesian, so the
    local test runs on arrows over a non-identity."""
    vee = poset_category(["x", "y", "z"], lambda a, b: a == b or a == "x")
    (S, s), (T, t) = _integer_named(vee, 0), _integer_named(
        ordinal_category(1), 10)
    omap = {"x": "0", "y": "1", "z": "1"}
    F = Functor(S, T, omap, {s[a]: t["%s<=%s" % (omap[vee.src[a]],
                                                 omap[vee.dst[a]])]
                             for a in vee.arrows})
    F.validate()
    return F


def test_oracle_agreement():
    cases = []
    G, H, F = z4_to_z2()
    cases.append(F)
    S, T, F2 = square_to_triangle()
    cases.append(F2)
    cases.append(identity_functor(iso_pair_category()))
    C0 = ordinal_category(0)
    cases.append(Functor(ordinal_category(1), ordinal_category(1),
                         {"0": "0", "1": "1"},
                         {a: a for a in ordinal_category(1).arrows}))
    cases.append(_integer_named_vee())
    for F in cases:
        analysis = cocart_analyze(F)
        oracle = cocart_analyze_oracle(F)
        assert analysis.is_cocartesian_fibration == \
            oracle["is_cocartesian_fibration"]
        assert analysis.is_locally_cocartesian_fibration == \
            oracle["is_locally_cocartesian_fibration"]
        assert analysis.locally_cocartesian_arrows() == \
            oracle["locally_cocartesian_arrows"]


def split_example():
    base = ordinal_category(1)
    F0 = bg(cyclic_table(2))
    F1 = discrete_category(["p", "q"])
    T = Functor(F0, F1, {"*": "p"}, {"g0": "id_p", "g1": "id_p"})
    T.validate()
    transports = {
        base.ident["0"]: identity_functor(F0),
        base.ident["1"]: identity_functor(F1),
        "0<=1": T,
    }
    return SplitFunctorToCat(base, {"0": F0, "1": F1}, transports)


def test_grothendieck_build_is_fibration():
    S = split_example()
    proj = grothendieck_build(S)
    analysis = cocart_analyze(proj)
    assert analysis.is_cocartesian_fibration
    # groupoid fibers here, so also a left fibration
    assert analysis.is_left_fibration


def test_grothendieck_build_single_fiber():
    base = ordinal_category(0)
    C = iso_pair_category()
    S = SplitFunctorToCat(base, {"0": C},
                          {base.ident["0"]: identity_functor(C)})
    proj = grothendieck_build(S)
    assert find_category_isomorphism(proj.source, C) is not None


def test_grothendieck_roundtrip_split():
    S = split_example()
    proj = grothendieck_build(S)
    readout = grothendieck_read(proj)
    assert readout.all_theta_iso
    for d in S.base.objects:
        got = readout.fibers[d]
        want = S.fibers[d]
        assert find_category_isomorphism(got, want) is not None
    # transports match the split data through the object renaming
    T = readout.transports["0<=1"]
    assert T.obj_map == {"(0|*)": "(1|p)"}


def test_grothendieck_read_rejects_non_fibration():
    C = ordinal_category(0)
    D = ordinal_category(1)
    F = Functor(C, D, {"0": "0"}, {"0<=0": "0<=0"})
    F.validate()
    with pytest.raises(InputError):
        grothendieck_read(F)


def test_grothendieck_read_theta_non_iso_on_square():
    S, T, F = square_to_triangle()
    readout = grothendieck_read(F)
    assert not readout.all_theta_iso
    # the only nontrivial composable base pair is 0<=1 then 1<=2
    comps = readout.thetas[("1<=2", "0<=1")]
    fib2 = readout.fibers["2"]
    assert any(not fib2.is_iso(w) for w in comps.values())


def test_bg_reconstruction_from_split_data():
    # splitting data for Z/2 x Z/2 -> Z/2 (a split surjection) rebuilds
    # a delooping-to-delooping left fibration
    base = bg(cyclic_table(2))
    fiber = bg(cyclic_table(2))
    swap = Functor(fiber, fiber, {"*": "*"},
                   {"g0": "g0", "g1": "g1"})
    swap.validate()
    S = SplitFunctorToCat(base, {"*": fiber},
                          {"g0": identity_functor(fiber), "g1": swap})
    proj = grothendieck_build(S)
    assert is_left_fibration(proj).verdict
    assert len(proj.source.arrows) == 4


def test_join_ordinals():
    J = join(ordinal_category(0), ordinal_category(0))
    assert find_category_isomorphism(J, ordinal_category(1)) is not None
    for m, n in [(0, 1), (1, 1), (2, 0)]:
        J = join(ordinal_category(m), ordinal_category(n))
        assert find_category_isomorphism(
            J, ordinal_category(m + n + 1)) is not None


def test_join_unit():
    empty = FinCategory((), (), {}, {}, {}, {})
    empty.validate()
    D = iso_pair_category()
    J = join(empty, D)
    assert find_category_isomorphism(J, D) is not None


def test_twisted_arrows_ordinal_1():
    C = ordinal_category(1)
    Tw, proj = twisted_arrows(C)
    assert len(Tw.objects) == 3
    assert is_left_fibration(proj).verdict


def test_twisted_arrows_discrete():
    C = discrete_category(["x", "y"])
    Tw, proj = twisted_arrows(C)
    assert len(Tw.objects) == 2
    assert all(Tw.is_identity(a) for a in Tw.arrows)


def test_twisted_arrows_fibers_are_homs():
    for C in [ordinal_category(2), iso_pair_category(),
              bg(cyclic_table(2))]:
        Tw, proj = twisted_arrows(C)
        assert is_left_fibration(proj).verdict
        base = proj.target
        for obj in base.objects:
            x, y = obj[1:-1].split(",")
            fib = fiber_category(proj, obj)
            assert len(fib.objects) == len(C.hom(x, y))
            assert all(fib.is_identity(a) for a in fib.arrows)


def test_twisted_arrows_nerve_cell_counts():
    # n-simplices of N(Tw(C)) match (2n+1)-simplices of N(C)
    from simpcat.nerve_cat import nerve
    C = ordinal_category(2)
    Tw, _ = twisted_arrows(C)
    NT = nerve(Tw, 2)
    NC = nerve(C, 5)
    for n in range(2):
        assert len(NT.simplices(n)) == len(NC.simplices(2 * n + 1))


def test_base_change_shape():
    S, T, F = square_to_triangle()
    P, proj, omap = base_change_to_ordinal(F, ["0<=1", "1<=2"])
    proj.validate()
    assert len(P.objects) == 4
