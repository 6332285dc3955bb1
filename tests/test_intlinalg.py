import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from simpcat import doldkan, formats, intlinalg, sset
from simpcat.chain_model import ChainMap, extend_window
from simpcat.doldkan import (free_complex, free_simplicial_abelian_group,
                             normalized_chains)
from simpcat.errors import InputError
from simpcat.intlinalg import (Mat, block_matrix, kernel_modulo,
                               relation_matrix, smith_normal_form,
                               solve_matrix, solve_modulo)

from families import identity_chain_map
from oracles import smith_normal_form_all_transforms
from test_doldkan import random_complex
from test_formats_cli import run_cli, write

TRANSFORMS = ("s", "t", "sinv")


@st.composite
def integer_matrices(draw):
    """Matrices of 0-6 rows and columns, empty shapes included, mostly
    sparse with small entries, units and non-units both common."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1, 2, -2, 3, -4, 6]),
                      st.integers(-12, 12))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Mat(rows, cols, data)


def check_laws(A, D, S, T, Sinv):
    m, n = A.rows, A.cols
    assert S * A * T == D
    assert S * Sinv == Mat.identity(m)
    diag = [D.data[i][i] for i in range(min(m, n))]
    assert all(D.data[i][j] == 0 for i in range(m) for j in range(n)
               if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0


@settings(deadline=None, max_examples=150)
@given(integer_matrices())
def test_smith_normal_form_matches_oracle_and_laws(A):
    before = A.copy()
    want = smith_normal_form_all_transforms(A)
    # T is unimodular: the oracle tracks its inverse alongside
    assert want[2] * want[4] == Mat.identity(A.cols)
    check_laws(A, *smith_normal_form(A, s=True, t=True, sinv=True))
    for flags in product((False, True), repeat=len(TRANSFORMS)):
        got = smith_normal_form(A, **dict(zip(TRANSFORMS, flags)))
        assert got[0] == want[0]
        for asked, g, w in zip(flags, got[1:], want[1:]):
            assert g == w if asked else g is None
    assert A == before


def test_smith_normal_form_unit_and_non_unit_pivots():
    # a unit late in row-major order is still the pivot; a block with no
    # unit gets the first entry of least absolute value
    A = Mat(2, 3, [[4, 6, 0], [0, 2, -1]])
    D, S, T, Sinv = smith_normal_form(A, s=True, t=True, sinv=True)
    assert (D, S, T, Sinv) == smith_normal_form_all_transforms(A)[:4]
    assert [D.data[0][0], D.data[1][1]] == [1, 2]
    B = Mat(2, 2, [[6, 4], [4, 10]])
    assert smith_normal_form(B)[0] == Mat(2, 2, [[2, 0], [0, 22]])


def test_reduced_for_zero_mixed_and_nonzero_moduli():
    # rows reduce modulo their own annihilator, 0 leaving a row as it is;
    # with every annihilator 0 the matrix itself comes back, uncopied,
    # and otherwise a new one, the input untouched
    A = Mat(3, 2, [[-7, 5], [4, -1], [9, 12]])
    before = A.copy()
    assert A.reduced((0, 0, 0)) is A
    mixed = A.reduced((0, 3, 0))
    assert mixed == Mat(3, 2, [[-7, 5], [1, 2], [9, 12]])
    nonzero = A.reduced((2, 3, 5))
    assert nonzero == Mat(3, 2, [[1, 1], [1, 2], [4, 2]])
    assert mixed is not A and nonzero is not A and A == before
    assert Mat(0, 4).reduced(()) == Mat(0, 4)
    for moduli in [(0, 0), (0, 0, 0, 0), (2,)]:
        with pytest.raises(InputError, match="need one modulus per row"):
            A.reduced(moduli)


def small_matrices(rows, cols):
    entry = st.integers(-3, 3)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Mat(rows, cols, data))


@st.composite
def presented_maps(draw):
    """(A, moduli): A of at most 3 x 3 entries -3..3, and one annihilator
    from {0, 2, 3} per row."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    moduli = tuple(draw(st.lists(st.sampled_from((0, 2, 3)),
                                 min_size=rows, max_size=rows)))
    return draw(small_matrices(rows, cols)), moduli


def congruent(F, G, moduli):
    return F.reduced(moduli) == G.reduced(moduli)


@settings(deadline=None, max_examples=100)
@given(presented_maps(), st.data())
def test_solve_modulo_solves_what_has_a_solution(presented, data):
    A, moduli = presented
    # B = A X0 + relations Y0, for X0 and Y0 stacked in one matrix
    R = relation_matrix(moduli)
    k = data.draw(st.integers(0, 2))
    B = A.hstack(R) * data.draw(small_matrices(A.cols + R.cols, k))
    X = solve_modulo(A, moduli, B)
    assert (X.rows, X.cols) == (A.cols, k)
    assert congruent(A * X, B, moduli)


@settings(deadline=None, max_examples=100)
@given(presented_maps())
def test_kernel_modulo_spans_the_kernel(presented):
    A, moduli = presented
    K = kernel_modulo(A, moduli)
    assert K.rows == A.cols
    assert (A * K).reduced(moduli).is_zero()
    for x in product(range(-2, 3), repeat=A.cols):
        x = Mat(A.cols, 1, [[v] for v in x])
        if (A * x).reduced(moduli).is_zero():
            assert solve_matrix(K, x) is not None, x.data


@st.composite
def placed_blocks(draw):
    """(rows, cols, blocks): a matrix cut into a grid of bands, with at
    most one block of entries -3..3 inside each cell."""
    heights = draw(st.lists(st.integers(0, 3), max_size=3))
    widths = draw(st.lists(st.integers(0, 3), max_size=3))
    blocks = []
    for r, h in enumerate(heights):
        for c, w in enumerate(widths):
            if draw(st.booleans()):
                bh, bw = draw(st.integers(0, h)), draw(st.integers(0, w))
                blocks.append((sum(heights[:r]) + draw(st.integers(0, h - bh)),
                               sum(widths[:c]) + draw(st.integers(0, w - bw)),
                               draw(small_matrices(bh, bw))))
    return sum(heights), sum(widths), blocks


@settings(deadline=None, max_examples=100)
@given(placed_blocks())
def test_block_matrix_places_each_block(placed):
    rows, cols, blocks = placed
    M = block_matrix(rows, cols, blocks)
    assert (M.rows, M.cols) == (rows, cols)
    covered = set()
    for i, j, B in blocks:
        assert [r[j:j + B.cols] for r in M.data[i:i + B.rows]] == B.data
        covered.update((i + a, j + b) for a in range(B.rows)
                       for b in range(B.cols))
    assert all(M.data[a][b] == 0 for a in range(rows) for b in range(cols)
               if (a, b) not in covered)
    # a block one step past an edge, or before one, is refused
    for i, j, B in blocks:
        for at in ((rows - B.rows + 1, j), (i, cols - B.cols + 1),
                   (-1, j), (i, -1)):
            with pytest.raises(InputError, match="does not fit"):
                block_matrix(rows, cols, [(*at, B)])


def algebra_documents(tmp_path):
    """Chain complexes, a simplicial abelian group and chain maps the
    other tests build, written as documents: (name, path) pairs."""
    complexes = [
        free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])}),
        free_complex("Z/4", (0, 3), {n: 1 for n in range(4)},
                     {n: Mat(1, 1, [[2]]) for n in range(1, 4)})]
    rng = random.Random(20240809)
    for modulus in (0, 0, 0, 4, 5):
        complexes.append(random_complex(rng, modulus=modulus, max_rank=3,
                                        span=2))
    D1 = sset.standard_simplex(1)
    A = sset.boundary(1)
    g = sset.SimplicialMap(A, sset.standard_simplex(0),
                           [[((0,), 0), ((0,), 0)]])
    g.validate()
    circle = sset.pushout(sset.inclusion_by_names(A, D1), g)[0]
    FA = free_simplicial_abelian_group(circle, 3)
    complexes.append(normalized_chains(FA))
    docs = [("sab", write(tmp_path, "circle.sab",
                          formats.simplicial_ab_to_dict(FA)))]
    for i, C in enumerate(complexes):
        docs.append(("cx", write(tmp_path, "c%d.cx" % i,
                                 formats.complex_to_dict(C))))
        docs.append(("cm", write(tmp_path, "id%d.cm" % i,
                                 formats.chain_map_to_dict(
                                     identity_chain_map(C)))))
    rng = random.Random(11)
    for i in range(4):
        X = random_complex(rng, modulus=0, span=2, max_rank=2)
        Y = random_complex(rng, modulus=0, span=2, max_rank=2)
        lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
        Xe, Ye = extend_window(X, lo, hi), extend_window(Y, lo, hi)
        f = ChainMap(Xe, Ye, {n: Mat(Ye.rank(n), Xe.rank(n))
                              for n in range(lo, hi + 1)})
        f.validate()
        docs.append(("factor", write(tmp_path, "f%d.cm" % i,
                                     formats.chain_map_to_dict(f))))
    return docs


def run_algebra_commands(tmp_path, capsys, docs):
    """Exit code, stdout and written bytes of each algebra command."""
    out = str(tmp_path / "out.json")
    sab = str(tmp_path / "gamma.sab")
    runs = []
    for kind, path in docs:
        if kind == "cx":
            commands = [["homology", path],
                        ["dold-kan", path, "--dim", "2", "--out", sab],
                        ["normalized-chains", sab, "--out", out]]
        elif kind == "sab":
            commands = [["normalized-chains", path, "--out", out]]
        elif kind == "cm":
            commands = [["quasi-iso", path, "--out", out]]
        else:
            commands = [["factor-4a", path, "--out", out],
                        ["factor-4b", path, "--fuel", "4", "--out", out]]
        for argv in commands:
            written = None
            if "--out" in argv:
                target = argv[argv.index("--out") + 1]
                open(target, "w").close()
            rc = run_cli(tmp_path, *argv)
            if "--out" in argv:
                with open(target, "rb") as fh:
                    written = fh.read()
            runs.append((argv[0], path, rc, capsys.readouterr().out,
                         written))
    return runs


def test_cli_bytes_unchanged_with_the_oracle_swapped_in(tmp_path, capsys,
                                                         monkeypatch):
    # same pivots and the same transforms: every algebra command writes
    # the same bytes when the all-transforms elimination does the work
    docs = algebra_documents(tmp_path)
    fast = run_algebra_commands(tmp_path, capsys, docs)

    def oracle(A, s=False, t=False, sinv=False):
        return smith_normal_form_all_transforms(A)[:4]

    monkeypatch.setattr(intlinalg, "smith_normal_form", oracle)
    monkeypatch.setattr(doldkan, "smith_normal_form", oracle)
    slow = run_algebra_commands(tmp_path, capsys, docs)
    assert {run[0] for run in fast} == {
        "homology", "dold-kan", "normalized-chains", "quasi-iso",
        "factor-4a", "factor-4b"}
    assert all(run[2] in (0, 1, 2) for run in fast)
    assert fast == slow
