"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured content.  Tolerances are exact (everything here is
decided by finite enumeration; there are no floats to round)."""

import random
from math import comb

import pytest

from simpcat import delta, quasicat, sset
from simpcat.chain_model import (ChainMap, FactorizationCertificate,
                                 degreewise_surjective, extend_window,
                                 factor_cofib_trivfib, factor_trivcofib_fib,
                                 is_quasi_iso, surjective_on_cycles)
from simpcat.delta import (all_injections, all_maps, all_surjections, face,
                           tcompose, tfactorize)
from simpcat.doldkan import (ChainComplex, FGAbGroup, dold_kan_roundtrip,
                             free_complex, homology)
from simpcat.errors import NotDecidable
from simpcat.fibrations import (SplitFunctorToCat, cocart_analyze,
                                fiber_category,
                                grothendieck_build, grothendieck_read,
                                is_left_fibration, twisted_arrows)
from simpcat.hcnerve import (coherent_nerve, frak_c, from_fincategory,
                             one_object_from_abelian_group,
                             two_object_arrow_space)
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (Functor, RelativeCategory, all_functors, bg,
                               find_category_isomorphism, nerve,
                               ordinal_category, poset_category)
from simpcat.quasicat import classify, homotopy_category, homotopy_group
from simpcat.segal import (completeness_check, embed, rezk_nerve,
                           strict_segal_check)
from simpcat.sset import (enumerate_maps, from_presheaf, is_isomorphic,
                          product, spine, standard_simplex)

from families import (category_family, cyclic_table, discrete_category,
                      functor_family, identity_chain_map, identity_functor,
                      symmetric3_table)
from oracles import (cocart_analyze_oracle, functors_naturally_isomorphic,
                     quasi_iso_by_homology_comparison)
from test_doldkan import random_complex


def ok(criterion, detail):
    print("PASS %s: %s" % (criterion, detail))


def random_chain_map(rng, X, Y, tries=30):
    """A chain map X -> Y built degreewise bottom-up, retrying random
    integer matrices against the commutation constraint (zero fallback,
    which always commutes when built upward degree by degree)."""
    lo, hi = X.lo, X.hi
    comps = {}
    for n in range(lo, hi + 1):
        found = None
        for _ in range(tries):
            F = Mat(Y.rank(n), X.rank(n),
                    [[rng.randint(-2, 2) for _ in range(X.rank(n))]
                     for _ in range(Y.rank(n))])
            from simpcat.doldkan import map_respects_relations
            if not map_respects_relations(F, X.coeffs[n], Y.coeffs[n]):
                continue
            if n == lo:
                found = F
                break
            lhs = (Y.differential(n) * F).reduced(Y.coeffs[n - 1])
            rhs = (comps[n - 1] * X.differential(n)).reduced(
                Y.coeffs[n - 1])
            if lhs.data == rhs.data:
                found = F
                break
        if found is None:
            found = Mat(Y.rank(n), X.rank(n))
            lhs = (Y.differential(n) * found).reduced(Y.coeffs[n - 1]) \
                if n > lo else None
            rhs = (comps[n - 1] * X.differential(n)).reduced(
                Y.coeffs[n - 1]) if n > lo else None
            if n > lo and lhs.data != rhs.data:
                return None
        comps[n] = found
    f = ChainMap(X, Y, comps)
    f.validate()
    return f


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_simplicial_identities_and_factorization():
    # all five generator identity families, exhaustively for n <= 8
    checked = 0
    for n in range(2, 9):
        for j in range(1, n + 1):
            for i in range(j):
                assert tcompose(face(n, j), face(n - 1, i)) == \
                    tcompose(face(n, i), face(n - 1, j - 1))
                checked += 1
    from test_delta import (is_injective, is_surjective,
                            simplicial_identities_hold)
    for n in range(1, 9):
        assert simplicial_identities_hold(n)
    # epi-mono factorization unique for all maps with m, n <= 6:
    # roundtrip on every (epi, mono) pair plus validity on every map
    pairs = 0
    for m in range(7):
        for k in range(m + 1):
            for n in range(k, 7):
                for epi in all_surjections(m, k):
                    for mono in all_injections(k, n):
                        assert tfactorize(
                            tcompose(mono, epi)) == (epi, mono)
                        pairs += 1
    for m in range(7):
        for n in range(7):
            for f in all_maps(m, n):
                epi, mono = tfactorize(f)
                assert is_surjective(epi, len(mono) - 1)
                assert is_injective(mono) and mono[-1] <= n
                assert tcompose(mono, epi) == f
    ok("criterion-1", "5 identity families exhaustive to n=8; "
       "%d generator-identity composites; %d epi-mono pairs unique"
       % (checked, pairs))


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_shuffle_counts():
    counts = []
    for total in range(2, 8):
        for n in range(1, total):
            m = total - n
            P, _ = product(standard_simplex(n), standard_simplex(m),
                           truncation=total)
            assert P.n_cells(total) == comb(total, n), (n, m)
            counts.append((n, m, P.n_cells(total)))
    P, _ = product(standard_simplex(1), standard_simplex(1))
    assert P.n_cells(2) == 2
    ok("criterion-2", "top-cell shuffle counts match binomials for all "
       "n+m <= 7 (%d products); the square is two triangles"
       % len(counts))


# -- criterion 3 -------------------------------------------------------------


def chain_count(C, n):
    """Number of all n-simplices of the nerve, by independent dynamic
    programming over hom-set sizes."""
    objs = list(C.objects)
    A = {x: {y: len(C.hom(x, y)) for y in objs} for x in objs}
    vec = {x: 1 for x in objs}
    for _ in range(n):
        vec = {x: sum(A[x][y] * vec[y] for y in objs) for x in objs}
    return sum(vec.values())


def test_criterion_3_nerve_characterization():
    family = category_family(minimum=20)
    assert len(family) >= 20
    for name, C in family:
        N2 = nerve(C, 2)
        for n in range(2, 6):
            maps = enumerate_maps(spine(n), N2)
            assert len(maps) == chain_count(C, n), (name, n)
        N4 = nerve(C, 4)
        report = classify(N4, 4, "inner")
        assert report.is_nerve_like(), name
    # a non-nerve fails the spine count: the inner 2-horn has no filler
    L = sset.horn(2, 1)
    levels = [L.simplices(q) for q in range(3)]
    L2 = from_presheaf(2, levels, L.apply,
                       name_fn=lambda q, s: L.describe(s))
    spine_maps = enumerate_maps(spine(2), L2)
    assert len(spine_maps) != len(L2.simplices(2))
    levels3 = [L.simplices(q) for q in range(4)]
    L3 = from_presheaf(3, levels3, L.apply,
                       name_fn=lambda q, s: L.describe(s))
    assert not classify(L3, 3, "inner").is_quasicategory()
    ok("criterion-3", "%d categories: spine bijection n<=5 and unique "
       "inner fillers to dim 4; horn counterexample fails both"
       % len(family))


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_kan_iff_groupoid():
    for table, name in [(cyclic_table(2), "Z/2"),
                        (cyclic_table(3), "Z/3"),
                        (symmetric3_table(), "S3")]:
        N = nerve(bg(table), 3)
        assert classify(N, 3, "kan").passed(), name
    N1 = nerve(ordinal_category(1), 3)
    report = classify(N1, 3, "kan")
    assert not report.passed()
    witness = report.first_witness()
    assert witness is not None and (witness["n"], witness["k"]) in \
        [(2, 0), (2, 2), (1, 0), (1, 1)]
    assert quasicat.count_extensions(N1, witness) == 0
    ok("criterion-4", "deloopings of Z/2, Z/3, S3 are Kan to dim 3; "
       "the walking arrow fails with replayable outer-horn witness "
       "(n=%d, k=%d)" % (witness["n"], witness["k"]))


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_ho_roundtrip():
    family = category_family(minimum=20)
    for name, C in family:
        N = nerve(C, 3)
        Ho = homotopy_category(N)
        assert find_category_isomorphism(Ho, C) is not None, name
        Ho_op = homotopy_category(sset.opposite(N))
        assert find_category_isomorphism(Ho_op, Ho.opposite()) \
            is not None, name
    ok("criterion-5", "Ho(nerve(C)) recovered C and Ho(X^op) = Ho(X)^op "
       "on %d categories" % len(family))


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_pi1_of_deloopings():
    for table, name in [(cyclic_table(2), "Z/2"),
                        (cyclic_table(3), "Z/3"),
                        (cyclic_table(4), "Z/4"),
                        (symmetric3_table(), "S3")]:
        N = nerve(bg(table), 4)
        pi1 = homotopy_group(N, "*", 1)
        assert pi1.is_group()
        assert pi1.isomorphic_to_table(table), name
    ok("criterion-6", "pi_1 multiplication tables isomorphic to Z/2, "
       "Z/3, Z/4 and S3")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_coherent_nerve_shadow():
    F2 = frak_c(2)
    M02 = F2.mapspace("0", "2")
    assert M02.n_cells(0) == 2 and M02.n_cells(1) == 1
    for n in (2, 3, 4):
        cube = standard_simplex(1)
        for _ in range(n - 2):
            cube, _ = product(cube, standard_simplex(1))
        assert is_isomorphic(frak_c(n).mapspace("0", str(n)), cube)
    test_cats = [
        ("discrete-groupoid", from_fincategory(bg(cyclic_table(2)),
                                               level_bound=2)),
        ("discrete-poset", from_fincategory(ordinal_category(2),
                                            level_bound=2)),
        ("bz2-enriched-point",
         one_object_from_abelian_group(cyclic_table(2), level_bound=2)),
        ("arrow-space-nerve-bz2",
         two_object_arrow_space(nerve(bg(cyclic_table(2)), 2))),
    ]
    for name, SC in test_cats:
        for (x, y), space in SC.mapspaces.items():
            if space.n_cells(0):
                d = space.truncation if space.truncation is not None \
                    else max(1, space.dim_max)
                assert classify(space, max(1, min(d, 2)),
                                "kan").passed(), (name, x, y)
        N = coherent_nerve(SC, 3)
        assert classify(N, 3, "inner").is_quasicategory(), name
    ok("criterion-7", "frak_c(2) matches; Map(0,n) is the (n-1)-cube "
       "for n <= 4; coherent nerves of %d Kan-map-space categories are "
       "quasicategories to dim 3" % len(test_cats))


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_dold_kan_roundtrip():
    rng = random.Random(77)
    done = 0
    while done < 50:
        modulus = rng.choice([0, 0, 0, 4, 5, 9])
        lo = rng.choice([0, 0, 1])
        span = rng.randint(0, 4 - lo)
        C = random_complex(rng, modulus=modulus, max_rank=3, lo=lo,
                           span=min(span, 4 - lo))
        if C.hi > 4:
            continue
        assert dold_kan_roundtrip(C), C.as_dict()
        done += 1
    ok("criterion-8", "normalized chains after the surjection-sum "
       "construction returned 50 seeded random complexes (windows in "
       "[0,4], ranks <= 3) up to natural isomorphism")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_factorizations():
    rng = random.Random(99)
    done = 0
    nonzero = 0
    while done < 50:
        modulus = rng.choice([0, 0, 4])
        X = random_complex(rng, modulus=modulus, span=2, max_rank=2)
        Y = random_complex(rng, modulus=modulus, span=2, max_rank=2)
        lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
        Xe, Ye = extend_window(X, lo, hi), extend_window(Y, lo, hi)
        f = random_chain_map(rng, Xe, Ye)
        if f is None:
            continue
        if any(not f.at(n).is_zero() for n in range(lo, hi + 1)):
            nonzero += 1
        cert = factor_trivcofib_fib(f)
        assert cert.checks["second_degreewise_surjective"]
        assert cert.checks["added_summand_acyclic"]
        assert cert.composite_equals(f)
        done += 1
    assert nonzero >= 15
    # classical free resolution of Z/2 within 3 stages
    X = free_complex("Z", (0, 1), {}, {})
    Y = ChainComplex(0, (0, 1), {0: (2,)}, {})
    Y.validate()
    f = ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})
    f.validate()
    result = factor_cofib_trivfib(f, fuel=3)
    assert isinstance(result, FactorizationCertificate)
    kill_rounds = [s for s in result.stages
                   if s.get("stage") == "kill-cycles"]
    assert len(kill_rounds) <= 3
    assert degreewise_surjective(result.second)
    assert surjective_on_cycles(result.second)
    assert homology(result.middle)[0] == FGAbGroup([2])
    # the Z/4 exercise complex has vanishing interior homology
    ranks = {n: 1 for n in range(5)}
    diff = {n: Mat(1, 1, [[2]]) for n in range(1, 5)}
    Z4 = free_complex("Z/4", (0, 4), ranks, diff)
    H = homology(Z4)
    assert all(H[n].is_trivial() for n in range(1, 4))
    ok("criterion-9", "50 seeded factorizations with surjective second "
       "leg and acyclic summand; Z/2 resolution in <= 3 stages; Z/4 "
       "complex interior homology vanishes")


# -- criterion 10 ------------------------------------------------------------


def split_inputs(rng):
    """Deterministic split-functor sample: bases with <= 3 objects,
    fibers with <= 3 arrows."""
    bases = {
        "point": ordinal_category(0),
        "arrow": ordinal_category(1),
        "triangle": ordinal_category(2),
        "pair": discrete_category(["u", "v"]),
        "vee": poset_category(["r", "s", "t"],
                              lambda x, y: x == y or x == "r"),
    }
    fibers = {
        "one": discrete_category(["p"]),
        "two": discrete_category(["p", "q"]),
        "arrow": ordinal_category(1),
        "bz2": bg(cyclic_table(2)),
    }
    out = []
    for bname, B in bases.items():
        fiber_names = sorted(fibers)
        for _ in range(4):
            assign = {d: fibers[rng.choice(fiber_names)]
                      for d in B.objects}
            transports = {B.ident[d]: identity_functor(assign[d])
                          for d in B.objects}
            ok_flag = True
            gen_arrows = [a for a in B.arrows if not B.is_identity(a)]
            chosen = {}
            for a in sorted(gen_arrows):
                opts = all_functors(assign[B.src[a]], assign[B.dst[a]])
                if not opts:
                    ok_flag = False
                    break
                chosen[a] = rng.choice(opts)
            if not ok_flag:
                continue
            # close under composition: for thin/poset bases composites
            # of generators are determined; recompute every arrow as the
            # composite of a shortest path of generators
            try:
                for a in sorted(gen_arrows):
                    transports[a] = chosen[a]
                # fill composites not directly chosen (triangle base)
                for g, f in B.composable_pairs():
                    c = B.compose(g, f)
                    if c not in transports:
                        from families import compose_functors
                        transports[c] = compose_functors(transports[g],
                                                         transports[f])
                S = SplitFunctorToCat(B, assign, transports)
            except Exception:
                continue
            out.append(("%s" % bname, S))
    return out


def test_criterion_10_fibration_suite():
    # BG -> BH for the surjection Z/4 -> Z/2
    G = bg(cyclic_table(4))
    H = bg(cyclic_table(2))
    F = Functor(G, H, {"*": "*"},
                {"g0": "g0", "g1": "g1", "g2": "g0", "g3": "g1"})
    F.validate()
    assert is_left_fibration(F).verdict
    # the square-over-triangle functor: locally cocartesian, not
    # cocartesian, with exactly the three listed nonidentity arrows
    from test_fibrations import square_to_triangle
    S, T, F2 = square_to_triangle()
    analysis = cocart_analyze(F2)
    assert analysis.is_locally_cocartesian_fibration
    assert not analysis.is_cocartesian_fibration
    flagged = [a for a in analysis.locally_cocartesian_arrows()
               if not S.is_identity(a)]
    assert len(flagged) == 3
    expected = {("(0,0)", "(0,1)"), ("(0,0)", "(1,0)"),
                ("(0,1)", "(1,1)")}
    got = {(S.src[a], S.dst[a]) for a in flagged}
    assert got == expected
    # Grothendieck roundtrip on the split sample
    rng = random.Random(1010)
    inputs = split_inputs(rng)
    assert len(inputs) >= 10
    for bname, Sdata in inputs:
        proj = grothendieck_build(Sdata)
        readout = grothendieck_read(proj)
        assert readout.all_theta_iso, bname
        rename = {}
        for d in Sdata.base.objects:
            for x in Sdata.fibers[d].objects:
                rename[(d, x)] = "(%s|%s)" % (d, x)
        for phi in Sdata.base.arrows:
            d, d2 = Sdata.base.src[phi], Sdata.base.dst[phi]
            T_split = Sdata.transports[phi]
            T_read = readout.transports[phi]
            # compare through the renaming: object images must agree up
            # to a natural isomorphism of functors
            fib2 = readout.fibers[d2]
            obj_map = {rename[(d, x)]: rename[(d2, T_split.obj_map[x])]
                       for x in Sdata.fibers[d].objects}
            arr_map = {}
            for u in Sdata.fibers[d].arrows:
                x, x2 = Sdata.fibers[d].src[u], Sdata.fibers[d].dst[u]
                vu = T_split.arr_map[u]
                arr_map["(%s|%s:%s->%s)"
                        % (Sdata.base.ident[d], u, rename[(d, x)],
                           rename[(d, x2)])] = \
                    "(%s|%s:%s->%s)" % (Sdata.base.ident[d2], vu,
                                        rename[(d2, T_split.obj_map[x])],
                                        rename[(d2,
                                                T_split.obj_map[x2])])
            T_expected = Functor(readout.fibers[d], fib2, obj_map,
                                 arr_map)
            T_expected.validate()
            assert functors_naturally_isomorphic(T_read, T_expected) \
                is not None, (bname, phi)
    # twisted arrows over the category family
    family = category_family(minimum=20)
    for name, C in family[:12]:
        Tw, proj = twisted_arrows(C)
        assert is_left_fibration(proj).verdict, name
        base = proj.target
        for obj in base.objects:
            x, y = obj[1:-1].split(",")
            fib = fiber_category(proj, obj)
            assert len(fib.objects) == len(C.hom(x, y))
            assert all(fib.is_identity(a) for a in fib.arrows)
    ok("criterion-10", "BZ/4 -> BZ/2 left fibration; square/triangle "
       "flags exact; %d Grothendieck roundtrips; twisted arrows on 12 "
       "categories" % len(inputs))


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_segal_completeness():
    family = [(name, C) for name, C in category_family(minimum=20)
              if len(C.arrows) <= 7][:8]
    assert len(family) >= 5
    for name, C in family:
        W = {a for a in C.arrows if C.is_iso(a)}
        R = RelativeCategory(C, W)
        B = rezk_nerve(R, 3, 2)
        assert strict_segal_check(B).verdict, name
        result = completeness_check(B)
        assert not isinstance(result, NotDecidable), (name,
                                                          result.reason)
        assert result.verdict, (name, result.reason)
    X = embed("discrete", nerve(bg(cyclic_table(2)), 3), 2)
    incomplete = completeness_check(X)
    assert not isinstance(incomplete, NotDecidable)
    assert not incomplete.verdict
    P = embed("discrete", nerve(ordinal_category(2), 3), 2)
    complete = completeness_check(P)
    assert not isinstance(complete, NotDecidable)
    assert complete.verdict
    ok("criterion-11", "Rezk nerves of %d relative categories are "
       "strict-Segal and complete; d(N(BZ/2)) is incomplete while "
       "d(N(poset)) is complete" % len(family))


# -- criterion 12 ------------------------------------------------------------


def dual_homotopy_classes(X):
    """Independent homotopy relation: triangles with degenerate last
    face relate their other two edges (the dual convention)."""
    edges = list(X.simplices(1))
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for u in X.simplices(2):
        if sset.is_degenerate(X.apply((1, 2), u)):
            f = X.apply((0, 1), u)
            g = X.apply((0, 2), u)
            ra, rb = find(f), find(g)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for e in edges:
        groups.setdefault(find(e), set()).add(e)
    return sorted(frozenset(v) for v in groups.values())


def test_criterion_12_oracle_equivalence():
    # cocartesian analysis against the base-change oracle
    for name, F in functor_family():
        analysis = cocart_analyze(F)
        oracle = cocart_analyze_oracle(F)
        assert analysis.locally_cocartesian_arrows() == \
            oracle["locally_cocartesian_arrows"], name
        assert analysis.is_locally_cocartesian_fibration == \
            oracle["is_locally_cocartesian_fibration"], name
        assert analysis.is_cocartesian_fibration == \
            oracle["is_cocartesian_fibration"], name
    # quasi-isomorphism verdicts against direct homology comparison
    rng = random.Random(123)
    checked = 0
    while checked < 30:
        Cx = random_complex(rng, modulus=0, span=4, max_rank=4, free=True)
        Cy = random_complex(rng, modulus=0, span=4, max_rank=4, free=True)
        lo, hi = min(Cx.lo, Cy.lo), max(Cx.hi, Cy.hi)
        if hi - lo > 4:
            continue
        Xe, Ye = extend_window(Cx, lo, hi), extend_window(Cy, lo, hi)
        comps = {}
        good = True
        for n in range(lo, hi + 1):
            found = None
            for attempt in range(30):
                F = Mat(Ye.rank(n), Xe.rank(n),
                        [[rng.randint(-1, 1)
                          for _ in range(Xe.rank(n))]
                         for _ in range(Ye.rank(n))])
                if n == lo:
                    found = F
                    break
                if (Ye.differential(n) * F).data == \
                        (comps[n - 1] * Xe.differential(n)).data:
                    found = F
                    break
            if found is None:
                found = Mat(Ye.rank(n), Xe.rank(n))
                if (Ye.differential(n) * found).data != \
                        (comps[n - 1] * Xe.differential(n)).data:
                    good = False
                    break
            comps[n] = found
        if not good:
            continue
        f = ChainMap(Xe, Ye, comps)
        f.validate()
        assert bool(is_quasi_iso(f)) == \
            quasi_iso_by_homology_comparison(f)
        checked += 1
    # identity and a known quasi-iso agree as positives on both routes
    C = free_complex("Z", (-2, 2), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    assert bool(is_quasi_iso(identity_chain_map(C)))
    assert quasi_iso_by_homology_comparison(identity_chain_map(C))
    # homotopy relation against the dual-convention partition
    compared = 0
    for name, Cat in category_family(minimum=20):
        N = nerve(Cat, 3)
        if len(N.simplices(2)) > 200:
            continue
        primary = quasicat._ho_classes(N)
        groups = {}
        for e, rep in primary.items():
            groups.setdefault(rep, set()).add(e)
        primary_partition = sorted(frozenset(v) for v in groups.values())
        assert primary_partition == dual_homotopy_classes(N), name
        compared += 1
    assert compared >= 15
    ok("criterion-12", "cocart analysis, quasi-iso verdicts (30 random "
       "maps) and homotopy relations (%d nerves, both conventions) "
       "agree with their independent oracles" % compared)
