import random

import pytest

from simpcat import formats, sset
from simpcat.doldkan import (ChainComplex, FGAbGroup,
                             constant_simplicial_group, dold_kan_gamma,
                             dold_kan_roundtrip, free_complex,
                             free_simplicial_abelian_group, homology,
                             normalized_chains, simplicial_group_kan_fill)
from simpcat.errors import InputError
from simpcat.intlinalg import Mat


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
    g = sset.SimplicialMap(A, sset.point(), [
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
        F = Mat(rows, cols)
        for j in range(cols):
            # build d so that d.d = 0 and annihilators are respected:
            # compose a random map through the previous differential's
            # kernel is overkill at this scale; instead draw randomly and
            # retry until the two conditions hold
            pass
        attempts = 0
        while True:
            attempts += 1
            F = Mat(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                 for _ in range(rows)])
            from simpcat.doldkan import map_respects_relations, maps_equal
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
        assert dold_kan_roundtrip(C), "roundtrip failed on %r" % C
        count += 1
    assert count == 12


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
