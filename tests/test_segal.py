from itertools import combinations_with_replacement

import pytest

from simpcat import sset
from simpcat.errors import InputError, NotDecidable
from simpcat.nerve_cat import (RelativeCategory, bg, cyclic_table,
                               find_category_isomorphism, nerve,
                               ordinal_category, poset_category)
from simpcat.segal import (BisimplicialSet, chain_transformation_category,
                           completeness_check, embed, rezk_nerve,
                           standard_bisimplex, strict_segal_check)

from test_nerve_cat import iso_pair_category


def iso_relative(C):
    W = {a for a in C.arrows if C.is_iso(a)}
    return RelativeCategory(C, W, subcategory=True)


def test_embed_discrete_levels():
    D1 = sset.standard_simplex(1)
    X = embed("discrete", D1, 2)
    # |Hom([1],[1])| = 3 one-simplices of Delta^1, constant in q
    for q in range(3):
        assert len(X.level(1, q)) == 3
    assert len(X.level(0, 1)) == 2


def test_embed_constant_levels():
    D1 = sset.standard_simplex(1)
    X = embed("constant", D1, 2)
    for p in range(3):
        assert len(X.level(p, 1)) == 3


def test_standard_bisimplex_counts():
    from math import comb
    X = standard_bisimplex(2, 1, 2, 2)
    for p in range(3):
        for q in range(3):
            assert len(X.level(p, q)) == comb(p + 3, p + 1) * \
                comb(q + 2, q + 1)


def test_generator_maps_on_standard_bisimplices():
    # a cell f|g of the representable at ([m], [n]) is a pair of value
    # tuples; alpha acts by precomposition, f o alpha computed by indexing
    def parse(cell):
        return tuple(tuple(int(c) for c in part) for part in cell.split("|"))

    def name(f, g):
        return "%s|%s" % ("".join(map(str, f)), "".join(map(str, g)))

    def maps_into(p, top):
        return [a for k in range(top + 1)
                for a in combinations_with_replacement(range(p + 1), k + 1)]

    for m in range(3):
        for n in range(3):
            M = N = 3
            X = standard_bisimplex(m, n, M, N)
            for p in range(M + 1):
                for q in range(N + 1):
                    for cell in X.level(p, q):
                        f, g = parse(cell)
                        for a in maps_into(p, M):
                            fa = tuple(f[v] for v in a)
                            assert X.h_map(a, p, q, cell) == name(fa, g)
                        for a in maps_into(q, N):
                            ga = tuple(g[v] for v in a)
                            assert X.v_map(a, p, q, cell) == name(f, ga)


def test_rows_of_embeddings():
    N = nerve(ordinal_category(2), 3)
    X = embed("discrete", N, 2)
    row0 = X.row(0)
    assert row0.n_cells(0) == 3
    assert row0.n_cells(1) == 0  # discrete rows
    Y = embed("constant", N, 2)
    row2 = Y.row(2)
    assert sset.is_isomorphic(row2, sset.skeleton(N, 2)) or \
        row2.n_cells(1) == N.n_cells(1)


def test_segal_passes_on_nerve_embeddings():
    for C in [ordinal_category(2), bg(cyclic_table(2)),
              iso_pair_category()]:
        X = embed("discrete", nerve(C, 3), 2)
        assert strict_segal_check(X).verdict


def test_segal_passes_on_standard_bisimplices():
    # the representable at ([m], [n]) is d(Delta^m) x c(Delta^n); since
    # Delta^m is the nerve of the poset [m], the spine restriction is a
    # levelwise bijection and the strict Segal condition holds for every
    # (m, n), the (2, 0) case included
    for m, n in [(2, 0), (1, 1), (2, 1)]:
        X = standard_bisimplex(m, n, 3, 2)
        assert strict_segal_check(X).verdict


def test_segal_fails_on_horn_embedding():
    # the 1-horn of the 2-simplex embeds discretely into a bisimplicial
    # set whose 2-row misses the composable spine pair
    L = sset.horn(2, 1)
    levels = [L.simplices(q) for q in range(4)]
    L3 = sset.from_presheaf(3, levels, L.apply,
                            name_fn=lambda q, s: L.describe(s))
    X = embed("discrete", L3, 2)
    report = strict_segal_check(X)
    assert not report.verdict
    assert any(f["reason"] == "not surjective" for f in report.failures)


def test_rezk_nerve_rows_match_functor_categories():
    for C in [ordinal_category(1), iso_pair_category()]:
        R = iso_relative(C)
        B = rezk_nerve(R, 2, 2)
        for p in range(3):
            row = B.row(p)
            F = chain_transformation_category(R, p)
            NF = nerve(F, 2)
            assert sset.find_isomorphism(row, NF) is not None, \
                "row %d mismatch" % p


def test_rezk_nerve_row0_of_bg_all_weak():
    B = bg(cyclic_table(2))
    R = RelativeCategory(B, set(B.arrows), subcategory=True)
    X = rezk_nerve(R, 2, 2)
    row0 = X.row(0)
    NB = nerve(B, 2)
    assert sset.find_isomorphism(row0, NB) is not None


def test_rezk_nerve_requires_closure():
    # weak arrows not closed under composition are rejected
    C = ordinal_category(2)
    W = {C.ident[x] for x in C.objects} | {"0<=1", "1<=2"}
    R = RelativeCategory(C, W)
    with pytest.raises(InputError):
        rezk_nerve(R, 2, 2)


def test_rezk_nerve_identity_isos_collapse():
    # with only identity weak arrows the Rezk nerve is the discrete
    # embedding of the ordinary nerve
    C = ordinal_category(2)
    R = RelativeCategory(C, {C.ident[x] for x in C.objects},
                         subcategory=True)
    B = rezk_nerve(R, 2, 2)
    D = embed("discrete", nerve(C, 2), 2)
    for p in range(3):
        for q in range(3):
            assert len(B.level(p, q)) == len(D.level(p, q))


def test_rezk_nerve_rejects_negative_truncation():
    C = ordinal_category(1)
    R = iso_relative(C)
    with pytest.raises(InputError):
        rezk_nerve(R, 2, -1)
    with pytest.raises(InputError):
        rezk_nerve(R, -1, 2)


def test_rezk_nerve_point():
    C = ordinal_category(0)
    R = RelativeCategory(C, {C.ident["0"]}, subcategory=True)
    B = rezk_nerve(R, 2, 2)
    for p in range(3):
        for q in range(3):
            assert len(B.level(p, q)) == 1


def test_segal_passes_on_rezk_nerves():
    for C in [ordinal_category(1), iso_pair_category(),
              bg(cyclic_table(2))]:
        R = iso_relative(C)
        B = rezk_nerve(R, 3, 2)
        assert strict_segal_check(B).verdict


def test_completeness_of_rezk_nerves():
    for C in [ordinal_category(2), iso_pair_category(),
              bg(cyclic_table(2))]:
        R = iso_relative(C)
        B = rezk_nerve(R, 3, 2)
        result = completeness_check(B)
        assert not isinstance(result, NotDecidable), result.reason
        assert result.verdict, result.reason


def test_discrete_nerve_of_poset_complete():
    C = poset_category(["a", "b"], lambda x, y: x <= y)
    X = embed("discrete", nerve(C, 3), 2)
    result = completeness_check(X)
    assert not isinstance(result, NotDecidable)
    assert result.verdict


def test_discrete_nerve_of_group_not_complete():
    X = embed("discrete", nerve(bg(cyclic_table(2)), 3), 2)
    result = completeness_check(X)
    assert not isinstance(result, NotDecidable)
    assert not result.verdict


def test_completeness_not_decidable_off_class():
    # a bisimplicial set failing strict Segal is refused, not guessed
    L = sset.horn(2, 1)
    levels = [L.simplices(q) for q in range(4)]
    L3 = sset.from_presheaf(3, levels, L.apply,
                            name_fn=lambda q, s: L.describe(s))
    X = embed("discrete", L3, 2)
    result = completeness_check(X)
    assert isinstance(result, NotDecidable)


def test_completeness_invariant_under_renaming():
    C = iso_pair_category()
    R = iso_relative(C)
    B = rezk_nerve(R, 3, 2)
    d = B.as_dict()
    renames = {}
    for key, names in d["cells"].items():
        for j, n in enumerate(names):
            renames[(key, n)] = "c%s_%d" % (key.replace(",", "_"), j)

    def rn(key, n):
        return renames[(key, n)]

    cells = {tuple(map(int, k.split(","))): [rn(k, n) for n in v]
             for k, v in d["cells"].items()}

    def remap_table(tbl, src_key_of):
        out = {}
        for k, mapping in tbl.items():
            p, q, i = map(int, k.split(","))
            skey = "%d,%d" % (p, q)
            tkey = src_key_of(p, q, i)
            out[(p, q, i)] = {rn(skey, a): rn(tkey, b)
                              for a, b in mapping.items()}
        return out

    hf = remap_table(d["h_faces"], lambda p, q, i: "%d,%d" % (p - 1, q))
    hd = remap_table(d["h_degens"], lambda p, q, i: "%d,%d" % (p + 1, q))
    vf = remap_table(d["v_faces"], lambda p, q, i: "%d,%d" % (p, q - 1))
    vd = remap_table(d["v_degens"], lambda p, q, i: "%d,%d" % (p, q + 1))
    Y = BisimplicialSet(B.m_trunc, B.n_trunc, cells, hf, hd, vf, vd)
    r1 = completeness_check(B)
    r2 = completeness_check(Y)
    assert bool(r1) == bool(r2)
