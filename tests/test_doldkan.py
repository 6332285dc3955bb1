import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from simpcat import formats, sset
from simpcat.doldkan import (ChainComplex, FGAbGroup, SimplicialAbGroup,
                             boundaries_matrix, constant_simplicial_group,
                             cycles_matrix, dold_kan_gamma,
                             dold_kan_roundtrip, free_complex,
                             free_simplicial_abelian_group, homology,
                             homology_at, is_presented_iso,
                             map_respects_relations, maps_equal,
                             normalized_chains, simplicial_group_kan_fill)
from simpcat.errors import InputError
from simpcat.intlinalg import Mat, quotient_invariant_factors


def test_fgabgroup_normal_form():
    assert FGAbGroup([1, 2, 0]).invariant_factors == (2, 0)
    assert FGAbGroup([]).is_trivial()
    assert FGAbGroup([6]).torsion == (6,)
    assert FGAbGroup([0, 0]).rank == 2
    assert repr(FGAbGroup([2, 0])) == "Z/2+Z^1"


def test_chain_complex_validation():
    # d.d != 0 must be rejected, by free_complex and by the loader
    with pytest.raises(InputError) as direct:
        free_complex("Z", (0, 2), {0: 1, 1: 1, 2: 1},
                     {1: Mat(1, 1, [[1]]), 2: Mat(1, 1, [[1]])})
    with pytest.raises(InputError) as loaded:
        formats.complex_from_dict({
            "kind": "chain-complex", "ring": "Z", "window": [0, 2],
            "ranks": {"0": 1, "1": 1, "2": 1},
            "differentials": {"1": [[1]], "2": [[1]]}})
    assert str(loaded.value) == str(direct.value) == \
        "d.d is nonzero at degree 2"
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    assert C.rank(0) == 1


def test_homology_multiplication_by_two():
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    H = homology(C)
    assert H[0] == FGAbGroup([2])
    assert H[1] == FGAbGroup([])


def test_homology_zero_complex():
    C = free_complex("Z", (0, 3), {}, {})
    assert all(H.is_trivial() for H in homology(C).values())


def test_homology_z4_exercise_complex():
    # over Z/4 with every term free of rank 1 and d = multiplication by
    # 2, the interior homology vanishes
    window = (0, 4)
    ranks = {n: 1 for n in range(5)}
    diff = {n: Mat(1, 1, [[2]]) for n in range(1, 5)}
    C = free_complex("Z/4", window, ranks, diff)
    H = homology(C)
    for n in range(1, 4):
        assert H[n].is_trivial()


def test_homology_circle_model():
    # free simplicial module on the pushout circle: H_0 = Z, H_1 = Z
    D1 = sset.standard_simplex(1)
    A = sset.boundary(1)
    f = sset.inclusion_by_names(A, D1)
    g = sset.SimplicialMap(A, sset.standard_simplex(0), [
        [((0,), 0), ((0,), 0)]])
    g.validate()
    circle, _, _ = sset.pushout(f, g)
    FA = free_simplicial_abelian_group(circle, 3)
    N = normalized_chains(FA)
    H = homology(N)
    assert H[0] == FGAbGroup([0])
    assert H[1] == FGAbGroup([0])
    assert H[2].is_trivial()


def test_normalized_chains_interval():
    FA = free_simplicial_abelian_group(sset.standard_simplex(1), 2)
    N = normalized_chains(FA)
    assert N.rank(0) == 2
    assert N.rank(1) == 1
    assert N.rank(2) == 0
    # differential is the vertex difference: image generates the kernel
    # of the sum map, i.e. (a, -a)
    col = N.differential(1).column(0)
    assert sorted(col) == [-1, 1]


def test_normalized_chains_constant():
    A = constant_simplicial_group((5,), 3, ring="Z")
    N = normalized_chains(A)
    assert N.coeffs[0] == (5,)
    for n in range(1, 4):
        assert N.rank(n) == 0


def test_gamma_counts():
    # Z in degree 1: level ranks 0, 1, 2 (surjection counts)
    C = free_complex("Z", (1, 1), {1: 1}, {})
    A = dold_kan_gamma(C, 2)
    assert [A.rank(n) for n in range(3)] == [0, 1, 2]
    # Z in degree 0: constant rank 1
    C0 = free_complex("Z", (0, 0), {0: 1}, {})
    A0 = dold_kan_gamma(C0, 3)
    assert [A0.rank(n) for n in range(4)] == [1, 1, 1, 1]


def test_gamma_rejects_negative_degrees():
    C = free_complex("Z", (-1, 0), {-1: 1, 0: 1}, {0: Mat(1, 1, [[0]])})
    with pytest.raises(InputError):
        dold_kan_gamma(C, 2)


def test_gamma_rejects_negative_truncation():
    C = free_complex("Z", (0, 0), {0: 1}, {})
    with pytest.raises(InputError) as direct:
        dold_kan_gamma(C, -1)
    # a simplicial-group document truncated below 0 is refused alike
    with pytest.raises(InputError) as loaded:
        formats.simplicial_ab_from_dict({
            "kind": "simplicial-abelian-group", "ring": "Z",
            "truncation": -1, "coefficients": {}, "faces": {},
            "degeneracies": {}})
    assert str(loaded.value) == str(direct.value) == "negative truncation"


def random_complex(rng, modulus=0, max_rank=3, lo=0, span=3, free=False):
    hi = lo + rng.randint(0, span)
    ranks = {n: rng.randint(0, max_rank) for n in range(lo, hi + 1)}
    coeffs = {}
    for n in range(lo, hi + 1):
        cs = []
        for _ in range(ranks[n]):
            if free:
                cs.append(modulus)
            elif modulus:
                cs.append(rng.choice([modulus, modulus, 2]
                                     if modulus % 2 == 0 else [modulus]))
            else:
                cs.append(rng.choice([0, 0, 0, 2, 3]))
        coeffs[n] = tuple(cs)
    diff = {}
    prev = None
    for n in range(lo + 1, hi + 1):
        rows, cols = len(coeffs[n - 1]), len(coeffs[n])
        # draw d until it respects annihilators and d.d = 0
        attempts = 0
        while True:
            attempts += 1
            F = Mat(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                 for _ in range(rows)])
            if not map_respects_relations(F, coeffs[n], coeffs[n - 1]):
                if attempts > 200:
                    F = Mat(rows, cols)
                    break
                continue
            if prev is not None:
                square = prev * F
                if not square.reduced(coeffs[n - 2]).is_zero():
                    if attempts > 200:
                        F = Mat(rows, cols)
                        break
                    continue
            break
        diff[n] = F
        prev = F
    C = ChainComplex(modulus, (lo, hi), coeffs, diff)
    C.validate()
    return C


def test_dold_kan_roundtrip_random():
    rng = random.Random(20240809)
    count = 0
    for trial in range(12):
        modulus = rng.choice([0, 0, 4, 5])
        C = random_complex(rng, modulus=modulus, max_rank=2, span=2)
        assert dold_kan_roundtrip(C), C.as_dict()
        count += 1
    assert count == 12


@st.composite
def small_complexes(draw):
    """Complexes in a window inside 0..2 with at most two generators per
    degree: free over Z, over Z with annihilators 0, 2 and 3, or over Z/4
    with annihilators 4 and 2.  A generator maps only onto the cycles of
    the degree below, so d.d = 0, with entries that respect annihilators
    (c * e = 0 in Z/b for an entry e from annihilator c to b)."""
    modulus, annihilator = draw(st.sampled_from([
        (0, st.just(0)), (0, st.sampled_from((0, 2, 3))),
        (4, st.sampled_from((4, 2)))]))
    lo, hi = sorted(draw(st.lists(st.integers(0, 2), min_size=2,
                                  max_size=2)))
    coeffs, diff, cycles_below = {}, {}, []
    for n in range(lo, hi + 1):
        rank = draw(st.sampled_from((1, 2, 0)))
        cs = [draw(annihilator) for _ in range(rank)]
        d = Mat(len(coeffs.get(n - 1, ())), len(cs))
        cycles = []
        for j, c in enumerate(cs):
            # most generators above a cycle map onto it
            if cycles_below and draw(st.integers(0, 3)):
                for i in cycles_below:
                    b = coeffs[n - 1][i]
                    e = draw(st.sampled_from((1, -1, 2, -3, 0)))
                    d.data[i][j] = e * (b // gcd(c, b)) % b if b else \
                        (0 if c else e)
            if not any(row[j] for row in d.data):
                cycles.append(j)
        coeffs[n] = cs
        if n > lo:
            diff[n] = d
        cycles_below = cycles
    return ChainComplex(modulus, (lo, hi), coeffs, diff).validate()


@settings(deadline=None, max_examples=40)
@given(small_complexes())
def test_dold_kan_roundtrip_and_homology_on_generated_complexes(C):
    assert dold_kan_roundtrip(C), C.as_dict()
    N = normalized_chains(dold_kan_gamma(C, C.hi + 1))
    assert homology(N, range(C.lo, C.hi + 1)) == homology(C), C.as_dict()


def test_is_presented_iso_decides_each_condition():
    one, two = Mat(1, 1, [[1]]), Mat(1, 1, [[2]])
    assert is_presented_iso(one, (2,), (2,))
    assert is_presented_iso(Mat(2, 2, [[0, 1], [1, 0]]), (0, 3), (3, 0))
    # not well defined: Z/2 -> Z
    assert not is_presented_iso(one, (2,), (0,))
    # not surjective: 2 on Z
    assert not is_presented_iso(two, (0,), (0,))
    # surjective with a kernel outside the source relations
    assert not is_presented_iso(one, (0,), (2,))
    assert not is_presented_iso(one, (4,), (2,))
    assert is_presented_iso(Mat(1, 2, [[1, 0]]), (0, 1), (0,))


def test_dold_kan_roundtrip_torsion_over_z():
    C = ChainComplex(0, (0, 1), {0: (2,), 1: (0,)},
                     {1: Mat(1, 1, [[1]])})
    C.validate()
    assert dold_kan_roundtrip(C)


def test_universal_coefficients_consistency():
    # for complexes of free Z-modules:
    # dim_p H_n(C x F_p) = rank H_n(C) + #(p-torsion in H_n) +
    # #(p-torsion in H_{n-1})
    rng = random.Random(7)
    for trial in range(10):
        C = random_complex(rng, modulus=0, max_rank=3, span=3, free=True)
        H = homology(C)
        for p in (2, 3):
            coeffs_p = {n: tuple(p for _ in C.coeffs[n])
                        for n in range(C.lo, C.hi + 1)}
            Cp = ChainComplex(p, C.window, coeffs_p,
                              {n: C.diff[n]
                               for n in range(C.lo + 1, C.hi + 1)})
            Cp.validate()
            Hp = homology(Cp)
            for n in range(C.lo, C.hi + 1):
                want = H[n].rank + sum(1 for f in H[n].torsion
                                       if f % p == 0)
                if n - 1 >= C.lo:
                    want += sum(1 for f in H[n - 1].torsion if f % p == 0)
                got = sum(1 for f in Hp[n].invariant_factors)
                assert got == want, (n, p, H, Hp)


@st.composite
def block_and_changed_complexes(draw):
    """(C, C'): C over Z a direct sum of one-generator terms and two-term
    blocks, free or with annihilators 0, 2 and 3 mixed, in a window that
    starts anywhere in -2..2, some degrees of rank 0; C' is C after a
    unimodular base change of each degree that keeps the annihilators
    diagonal (swaps, and adding a multiple of one generator to another
    with the same annihilator)."""
    lo = draw(st.integers(-2, 2))
    hi = lo + draw(st.integers(0, 3))
    annihilator = st.just(0) if draw(st.booleans()) else \
        st.sampled_from((0, 0, 2, 3))
    coeffs = {n: [] for n in range(lo, hi + 1)}
    entries = {n: {} for n in range(lo + 1, hi + 1)}
    for _ in range(draw(st.integers(0, 7))):
        n = draw(st.integers(lo, hi))
        c = draw(annihilator)
        coeffs[n].append(c)
        if n < hi and draw(st.booleans()):
            # a generator of degree n + 1 onto this one, times e, with
            # c_up * e = 0 in Z/c
            c_up = draw(annihilator)
            e = draw(st.integers(-4, 4))
            if c == 0 and c_up:
                e = 0
            elif c:
                e *= c // gcd(c_up, c)
            entries[n + 1][(len(coeffs[n]) - 1, len(coeffs[n + 1]))] = e
            coeffs[n + 1].append(c_up)
    diff = {}
    for n, block in entries.items():
        d = Mat(len(coeffs[n - 1]), len(coeffs[n]))
        for (i, j), e in block.items():
            d.data[i][j] = e
        diff[n] = d
    C = ChainComplex(0, (lo, hi), coeffs, diff).validate()
    U, Uinv, changed = {}, {}, {}
    for n, cs in coeffs.items():
        g = len(cs)
        U[n], Uinv[n], changed[n] = Mat.identity(g), Mat.identity(g), list(cs)
        for _ in range(draw(st.integers(0, 6)) if g > 1 else 0):
            i, j = draw(st.lists(st.integers(0, g - 1), min_size=2,
                                 max_size=2, unique=True))
            E, Einv = Mat.identity(g), Mat.identity(g)
            if changed[n][i] == changed[n][j] and draw(st.booleans()):
                k = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
                E.data[i][j], Einv.data[i][j] = k, -k
            else:
                for M in (E, Einv):
                    M.data[i], M.data[j] = M.data[j], M.data[i]
                changed[n][i], changed[n][j] = changed[n][j], changed[n][i]
            U[n], Uinv[n] = E * U[n], Uinv[n] * Einv
    C2 = ChainComplex(0, (lo, hi), changed,
                      {n: U[n - 1] * d * Uinv[n] for n, d in diff.items()})
    return C, C2.validate()


@settings(deadline=None, max_examples=60)
@given(block_and_changed_complexes())
def test_homology_is_the_quotient_of_cycles_by_boundaries(complexes):
    # one Smith form per differential at free degrees, the lattice
    # quotient elsewhere: both agree with the lattice quotient everywhere
    for C in complexes:
        H = homology(C)
        assert list(H) == list(range(C.lo, C.hi + 1))
        for n in range(C.lo, C.hi + 1):
            want = FGAbGroup(quotient_invariant_factors(
                cycles_matrix(C, n), boundaries_matrix(C, n)))
            assert H[n] == homology_at(C, n) == want, (n, C.as_dict())


@settings(deadline=None, max_examples=60)
@given(block_and_changed_complexes())
def test_homology_is_invariant_under_unimodular_base_change(complexes):
    C, changed = complexes
    assert homology(changed) == homology(C)
    degrees = list(range(C.hi, C.lo - 2, -1))
    assert homology(changed, degrees) == homology(C, degrees)


def test_kan_fill_constant():
    A = constant_simplicial_group((2,), 3, ring="Z")
    u = simplicial_group_kan_fill(A, {0: (1,), 2: (1,)}, 2, 1)
    assert len(u) == 1


def test_kan_fill_zero_faces():
    FA = free_simplicial_abelian_group(sset.standard_simplex(1), 3)
    zero = tuple(0 for _ in range(FA.rank(1)))
    u = simplicial_group_kan_fill(FA, {1: zero, 2: zero}, 2, 0)
    assert all(v == 0 for v in u)


def test_kan_fill_random_horns():
    rng = random.Random(5)
    FA = free_simplicial_abelian_group(sset.standard_simplex(1), 3)
    for trial in range(30):
        n = rng.choice([1, 2, 3])
        k = rng.randint(0, n)
        # consistent horn data: faces of a random chain
        w = [rng.randint(-3, 3) for _ in range(FA.rank(n))]
        faces = {}
        for i in range(n + 1):
            if i != k:
                faces[i] = tuple(FA.d(n, i).apply(w))
        u = simplicial_group_kan_fill(FA, faces, n, k)
        for i in range(n + 1):
            if i != k:
                assert tuple(FA.d(n, i).apply(list(u))) == faces[i]


def test_kan_fill_on_gamma_and_torsion_groups():
    rng = random.Random(17)
    C = free_complex("Z", (0, 2), {0: 1, 1: 1, 2: 1},
                     {1: Mat(1, 1, [[2]]), 2: Mat(1, 1, [[0]])})
    groups = [dold_kan_gamma(C, 3),
              constant_simplicial_group((4,), 3, ring="Z/4")]
    for A in groups:
        for trial in range(15):
            n = rng.choice([1, 2, 3])
            k = rng.randint(0, n)
            w = [rng.randint(-3, 3) for _ in range(A.rank(n))]
            faces = {i: tuple(A.d(n, i).apply(w))
                     for i in range(n + 1) if i != k}
            u = simplicial_group_kan_fill(A, faces, n, k)
            for i in range(n + 1):
                if i != k:
                    got = tuple(
                        v % c if c else v
                        for v, c in zip(A.d(n, i).apply(list(u)),
                                        A.coeffs[n - 1]))
                    want = tuple(
                        v % c if c else v
                        for v, c in zip(faces[i], A.coeffs[n - 1]))
                    assert got == want


def test_kan_fill_rejects_inconsistent():
    FA = free_simplicial_abelian_group(sset.standard_simplex(1), 3)
    v = tuple(1 for _ in range(FA.rank(1)))
    zero = tuple(0 for _ in range(FA.rank(1)))
    with pytest.raises(InputError):
        simplicial_group_kan_fill(FA, {0: v, 2: zero}, 2, 1)


@pytest.mark.parametrize("kind, key, message", [
    ("face", (2, 0), "face identity fails at n=2 i=0 j=1"),
    ("face", (1, 0), "face identity fails at n=2 i=0 j=1"),
    ("face", (3, 1), "face identity fails at n=3 i=0 j=1"),
    ("degen", (1, 1), "degeneracy identity fails at n=0 i=0 j=0"),
    ("degen", (2, 2), "degeneracy identity fails at n=1 i=0 j=1"),
    ("degen", (0, 0), "mixed identity fails at n=0 i=0 j=0")])
def test_simplicial_ab_group_names_the_first_identity_that_fails(
        kind, key, message):
    # the free group on Delta^2 with the first and last columns of one
    # structure map swapped; identities are checked face, degeneracy,
    # mixed, each by n, j, i, and an identity that composes the swapped
    # map on both sides on the right still holds
    FA = free_simplicial_abelian_group(sset.standard_simplex(2), 3)
    FA.validate()  # valid before the swap
    tables = {"face": dict(FA.face), "degen": dict(FA.degen)}
    M = tables[kind][key]
    tables[kind][key] = Mat(M.rows, M.cols, [row[-1:] + row[1:-1] + row[:1]
                                             for row in M.data])
    with pytest.raises(InputError) as info:
        SimplicialAbGroup(FA.ring, 3, FA.coeffs, tables["face"],
                          tables["degen"]).validate()
    assert str(info.value) == message


def test_maps_equal_over_free_and_torsion_targets():
    F = Mat(2, 2, [[1, 4], [0, -3]])
    G = Mat(2, 2, [[1, 4], [0, 3]])
    # a free target compares the entries as they are
    assert maps_equal(F, F, (0, 0))
    assert not maps_equal(F, G, (0, 0))
    # Z/6 on the second row identifies -3 with 3
    assert maps_equal(F, G, (0, 6))
    assert not maps_equal(F, G, (0, 4))
    for coeffs in [(0,), (0, 0, 0), (2,)]:
        with pytest.raises(InputError, match="need one modulus per row"):
            maps_equal(F, G, coeffs)
    with pytest.raises(InputError, match="need one modulus per row"):
        maps_equal(F, Mat(3, 2), (0, 0))
