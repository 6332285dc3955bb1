import gc
import hashlib
import weakref
from itertools import combinations_with_replacement

import pytest

from simpcat import formats, sset
from simpcat.errors import InputError, NotDecidable
from simpcat.nerve_cat import (RelativeCategory, bg, cyclic_table,
                               find_category_isomorphism, nerve,
                               ordinal_category, poset_category,
                               product_category)
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


def test_embed_constant_bytes():
    # c(X) is built as the transpose of d(X); these are the SHA-256 sums
    # of the documents the hand-written construction wrote
    for X, want in [
            (sset.standard_simplex(1), "0c0ea86231804a023dc85500b7a82389"
             "2fb2f8414afb4114d577ae0681055148"),
            (nerve(ordinal_category(2), 3), "1e6f157f7651e3b3fe4848d9f10bd9"
             "724afa0f4874cfca1672e3bfbba2c056ff")]:
        Y = embed("constant", X, 2)
        Y.validate()
        doc = formats.dumps(formats.bisimplicial_to_dict(Y))
        assert hashlib.sha256(doc.encode()).hexdigest() == want


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


def test_segal_checks_leave_no_cycle_holding_their_input():
    # with the cyclic collector off, the input must go as soon as the
    # last reference to it does: a reference cycle through the checks
    # would keep a multi-megabyte document alive until a collection
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for check in (strict_segal_check, completeness_check):
            X = rezk_nerve(iso_relative(iso_pair_category()), 3, 2)
            check(X)
            ref = weakref.ref(X)
            del X
            assert ref() is None, check.__name__
    finally:
        if was_enabled:
            gc.enable()


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
    Y.validate()
    r1 = completeness_check(B)
    r2 = completeness_check(Y)
    assert bool(r1) == bool(r2)


def _structure(X):
    """The constructor arguments of X, with name tables read from its
    document, as fresh dicts to corrupt."""
    d = X.as_dict()
    tables = {t: {tuple(map(int, k.split(","))): dict(v)
                  for k, v in d[t + "s"].items()}
              for t in ("h_face", "h_degen", "v_face", "v_degen")}
    return dict(tables, m_trunc=X.m_trunc, n_trunc=X.n_trunc,
                cells=dict(X.cells))


# one corruption per check of BisimplicialSet.validate, each of a valid
# standard bisimplex (m, n) truncated at (M, N), and the message it gives
VALIDATION_CASES = [
    ((1, 1, 1, 1), lambda s: s.update(n_trunc=-1), "negative truncation"),
    ((1, 1, 1, 1), lambda s: s["cells"].pop((1, 1)),
     "missing level (1, 1)"),
    ((1, 1, 1, 1),
     lambda s: s["cells"].update({(1, 1): s["cells"][(1, 1)] + ("00|00",)}),
     "duplicate cells at (1, 1)"),
    ((1, 1, 1, 1), lambda s: s["h_face"].pop((1, 1, 0)),
     "missing face table"),
    ((1, 1, 1, 1), lambda s: s["h_face"][(1, 0, 0)].update({"01|0": "01|0"}),
     "face table broken at level 1"),
    ((1, 1, 1, 1), lambda s: s["h_face"][(1, 0, 0)].pop("01|0"),
     "face table broken at level 1"),
    ((1, 1, 1, 1), lambda s: s["v_face"].pop((0, 1, 1)),
     "missing face table"),
    ((1, 1, 1, 1), lambda s: s["h_degen"].pop((0, 0, 0)),
     "missing degeneracy table"),
    ((1, 1, 1, 1), lambda s: s["h_degen"][(0, 0, 0)].update({"0|0": "0|0"}),
     "degeneracy table broken"),
    ((1, 0, 2, 0),
     lambda s: s["h_face"][(2, 0, 0)].update({"001|0": "11|0"}),
     "face identity fails"),
    ((1, 0, 2, 0),
     lambda s: s["h_degen"][(1, 0, 0)].update({"00|0": "001|0"}),
     "degeneracy identity fails"),
    ((1, 0, 1, 0), lambda s: s["h_degen"][(0, 0, 0)].update({"0|0": "01|0"}),
     "mixed identity fails"),
    ((1, 1, 1, 1),
     lambda s: s["h_face"][(1, 1, 0)].update({"01|01": "0|01"}),
     "face directions do not commute at (1, 1)"),
    ((1, 1, 1, 1),
     lambda s: s["h_face"][(1, 1, 0)].update({"01|00": "0|00"}),
     "mixed structure maps do not commute at (1, 0)"),
]


@pytest.mark.parametrize("shape, corrupt, message", VALIDATION_CASES)
def test_validate_names_each_broken_check(shape, corrupt, message):
    structure = _structure(standard_bisimplex(*shape))
    BisimplicialSet(**structure).validate()  # valid before the corruption
    corrupt(structure)
    with pytest.raises(InputError) as info:
        BisimplicialSet(**structure).validate()
    assert str(info.value) == message


def _document(structure):
    """The bisimplicial-set document of a structure of name tables."""
    def keyed(tables):
        return {",".join(map(str, k)): v for k, v in tables.items()}
    return {"kind": "bisimplicial-set",
            "truncation": [structure["m_trunc"], structure["n_trunc"]],
            "cells": {k: list(v) for k, v in keyed(
                structure["cells"]).items()},
            "h_faces": keyed(structure["h_face"]),
            "h_degens": keyed(structure["h_degen"]),
            "v_faces": keyed(structure["v_face"]),
            "v_degens": keyed(structure["v_degen"])}


@pytest.mark.parametrize("shape, corrupt, message", VALIDATION_CASES)
def test_loader_names_each_broken_check(shape, corrupt, message):
    structure = _structure(standard_bisimplex(*shape))
    formats.bisimplicial_from_dict(_document(structure))
    corrupt(structure)
    with pytest.raises(InputError) as info:
        formats.bisimplicial_from_dict(_document(structure))
    assert str(info.value) == message


def test_validate_degeneracy_directions_commute():
    # in a representable the simplicial identities already pin every
    # degeneracy, so this square is broken on d(N(BZ/2)) instead, where
    # the arrow g1 has the faces of the identity s00(*)
    structure = _structure(embed("discrete", nerve(bg(cyclic_table(2)), 1),
                                 1))
    structure["h_degen"][(0, 0, 0)]["*"] = "g1"
    with pytest.raises(InputError) as info:
        BisimplicialSet(**structure).validate()
    assert str(info.value) == "degeneracy directions do not commute at " \
        "(0, 0)"


def test_validate_rejects_missing_table_entries():
    for table, key, cell in [("h_degen", (0, 1, 0), "1|01"),
                             ("v_degen", (1, 0, 0), "01|1"),
                             ("v_face", (1, 1, 1), "01|01")]:
        structure = _structure(standard_bisimplex(1, 1, 1, 1))
        del structure[table][key][cell]
        with pytest.raises(InputError, match="table broken"):
            BisimplicialSet(**structure).validate()


def test_rezk_nerve_output_bytes_pinned():
    # SHA-256 of the canonical documents, computed before the per-row
    # rewrite of rezk_nerve; any change to a name, table or order shows
    thin = poset_category(["a", "b", "c"],
                          lambda x, y: x == y or x == "a")
    B2 = bg(cyclic_table(2))
    O2 = ordinal_category(2)
    cases = [
        (RelativeCategory(O2, set(O2.arrows)),
         "fd21a5c0d5d68d8e6499bc0939f5cf78940ba08b9bdfd0c715631ae53c83a29a"),
        (RelativeCategory(B2, {B2.ident[x] for x in B2.objects}),
         "f4c34556472b30adaeb4692f73aae34fc94c874cb3d4154d75dde99f89d8adc8"),
        (RelativeCategory(thin, {thin.ident[x] for x in thin.objects}),
         "cf69c513aa8b145e32aa0076ce82d3de0aa9e54ca577161615f37e0d9acee57c"),
    ]
    for R, digest in cases:
        text = formats.dumps(formats.bisimplicial_to_dict(
            rezk_nerve(R, 3, 2)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rezk_nerve_matches_the_grid_oracle():
    # the documents of eight categories, each with W the identities,
    # the isomorphisms and all arrows (a W met twice counted once), at
    # six truncations, are those the construction on grids of arrow
    # names writes, byte for byte
    from families import min_monoid_table
    from oracles import rezk_nerve_by_grids
    vee = poset_category(["r", "s", "t"], lambda x, y: x == y or x == "r")
    categories = [ordinal_category(1), ordinal_category(2),
                  iso_pair_category(), bg(cyclic_table(2)),
                  bg(cyclic_table(3)), vee, bg(min_monoid_table(2)),
                  product_category(bg(cyclic_table(2)),
                                   ordinal_category(1))]
    documents = 0
    for C in categories:
        weak_sets = []
        for W in ({C.ident[x] for x in C.objects},
                  {a for a in C.arrows if C.is_iso(a)}, set(C.arrows)):
            if W not in weak_sets:
                weak_sets.append(W)
        for W in weak_sets:
            R = RelativeCategory(C, W)
            for M, N in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 2), (3, 1)]:
                got = formats.dumps(rezk_nerve(R, M, N).as_dict())
                want = formats.dumps(rezk_nerve_by_grids(R, M, N).as_dict())
                assert got == want, (C, sorted(W, key=str), M, N)
                documents += 1
    assert documents == 108


def test_index_tables_are_checked_like_name_tables():
    # a structure map may be given as indices into its target level; one
    # out of range, of the wrong length or holding a boolean is broken
    X = standard_bisimplex(1, 1, 1, 1)
    table = X.h_face[(1, 0, 0)]
    assert [type(v) for v in table] == [int] * len(table)
    for broken in ([len(X.level(0, 0))] + list(table[1:]), table[:-1],
                   [True] + list(table[1:])):
        structure = _structure(X)
        structure["h_face"][(1, 0, 0)] = broken
        with pytest.raises(InputError) as info:
            BisimplicialSet(**structure).validate()
        assert str(info.value) == "face table broken at level 1"
    structure = _structure(X)
    structure["h_face"][(1, 0, 0)] = list(table)
    assert BisimplicialSet(**structure).as_dict() == X.as_dict()
