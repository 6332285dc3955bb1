import pytest
from hypothesis import given, strategies as st

from simpcat import delta
from simpcat.delta import (DeltaError, all_injections, all_maps,
                           all_surjections, degeneracy,
                           degeneracy_decomposition, face,
                           face_decomposition, opposite, tcompose,
                           tfactorize, tidentity)


def generator(kind, n, i):
    """Dispatch on kind in {'face', 'degeneracy'}."""
    if kind == "face":
        return face(n, i)
    if kind == "degeneracy":
        return degeneracy(n, i)
    raise DeltaError("unknown generator kind %r" % (kind,))


def compose_word(word):
    """Compose a list of value tuples given outermost-first."""
    result = word[0]
    for f in word[1:]:
        result = tcompose(result, f)
    return result


def is_injective(f):
    return all(a < b for a, b in zip(f, f[1:]))


def is_surjective(f, n):
    return set(f) == set(range(n + 1))


@st.composite
def ordinal_maps(draw, max_source=5, max_target=5):
    """A pair (f, n): the value tuple of a monotone map [m] -> [n] and
    its target."""
    m = draw(st.integers(0, max_source))
    n = draw(st.integers(0, max_target))
    values = sorted(draw(st.lists(st.integers(0, n), min_size=m + 1,
                                  max_size=m + 1)))
    return tuple(values), n


def test_generator_examples():
    assert face(2, 1) == (0, 2)
    assert degeneracy(2, 0) == (0, 0, 1)
    assert face(1, 0) == (1,)
    assert generator("face", 2, 1) == face(2, 1)
    assert generator("degeneracy", 2, 0) == degeneracy(2, 0)


def test_generator_range_errors():
    with pytest.raises(DeltaError):
        face(2, 3)
    with pytest.raises(DeltaError):
        face(0, 0)
    with pytest.raises(DeltaError):
        degeneracy(2, 2)
    with pytest.raises(DeltaError):
        generator("bogus", 1, 0)


def test_invalid_tables_rejected():
    # a value tuple's source is its length; its target is checked where
    # it is given, and the decompositions reject malformed tables
    with pytest.raises(DeltaError):
        face_decomposition((1, 0), 1)  # decreasing
    with pytest.raises(DeltaError):
        degeneracy_decomposition((1, 0))  # decreasing
    with pytest.raises(DeltaError):
        face_decomposition((0, 2), 1)  # exceeds target
    with pytest.raises(DeltaError):
        face_decomposition((0, 0), 1)  # not injective
    with pytest.raises(DeltaError):
        degeneracy_decomposition((0, 2))  # not surjective


def test_compose_examples():
    # delta^j . delta^i = delta^i . delta^{j-1} for i < j, at i=1, j=2
    lhs = tcompose(face(3, 2), face(2, 1))
    rhs = tcompose(face(3, 1), face(2, 1))
    assert lhs == rhs == (0, 3)
    f = (0, 2, 2)  # [2] -> [4]
    assert tcompose(tidentity(4), f) == f
    assert tcompose(f, tidentity(2)) == f
    assert tcompose(degeneracy(1, 0), face(1, 0)) == tidentity(0)


def test_compose_mismatch():
    # tcompose does not validate, but an inner map with values outside
    # the outer map's source cannot be composed
    with pytest.raises(IndexError):
        tcompose(face(2, 0), face(3, 0))


@pytest.mark.parametrize("target", [
    ("a", "b", "c"), ["a", "b", "c"], {0: "a", 1: "b", 2: "c"}])
def test_compose_index_tables_of_every_length(target):
    # itemgetter takes at least one item and returns one entry bare, so
    # lengths 0 and 1 are built apart; every length gives a tuple
    for table, want in [((), ()), ((2,), ("c",)), ([1], ("b",)),
                        ((2, 0), ("c", "a")), ([0, 0, 2, 1], "aacb"),
                        (range(3), "abc")]:
        got = tcompose(target, table)
        assert type(got) is tuple
        assert got == tuple(want) == tuple(target[v] for v in table)


def test_compose_index_tables_raises_as_lookups_do():
    for target, table, error in [(("a",), (0, 1), IndexError),
                                 (("a",), (1,), IndexError),
                                 ({"x": 0}, ("x", "y"), KeyError),
                                 ({"x": 0}, ("y",), KeyError),
                                 ({"x": 0}, ("x", ["y"]), TypeError),
                                 ({"x": 0}, ([],), TypeError)]:
        with pytest.raises(error):
            tcompose(target, table)


def _delta_map(word, n):
    """The map of the simplex category that the word of generators acts
    by on X_n: a simplicial object turns composites around."""
    out = tidentity(n)
    for is_face, k, i in reversed(word):
        out = tcompose(out, face(k, i) if is_face else degeneracy(k + 1, i))
    return out


def test_listed_simplicial_identities_hold_in_delta():
    # each listed identity is an equation of maps in the simplex category,
    # each word composes (every generator lands where the next one
    # starts), and the list runs face, degeneracy, mixed, then n, j, i
    for top in range(6):
        listed = list(delta.simplicial_identities(top))
        for kind, n, i, j, lhs, rhs in listed:
            for word in (lhs, rhs):
                level = n
                for is_face, k, _ in reversed(word):
                    assert k == level and 0 <= k <= top
                    level = k - 1 if is_face else k + 1
                    assert 0 <= level <= top
            assert _delta_map(lhs, n) == _delta_map(rhs, n), (kind, n, i, j)
        kinds = ("face", "degeneracy", "mixed")
        keys = [(kinds.index(kind), n, j, i)
                for kind, n, i, j, _, _ in listed]
        assert keys == sorted(set(keys))
        # d_i d_j for i < j, s_i s_j for i <= j, d_i s_j for every i, j
        assert [len([x for x in listed if x[0] == kind]) for kind in kinds] \
            == [sum(n * (n + 1) // 2 for n in range(2, top + 1)),
                sum((n + 1) * (n + 2) // 2 for n in range(top - 1)),
                sum((n + 1) * (n + 2) for n in range(top))]


def face_face_identity_holds(n):
    # delta^j . delta^i = delta^i . delta^{j-1}, 0 <= i < j <= n; the
    # composites are maps [n-2] -> [n] so n >= 2 is needed.
    if n < 2:
        return True
    for j in range(1, n + 1):
        for i in range(j):
            if tcompose(face(n, j), face(n - 1, i)) != \
               tcompose(face(n, i), face(n - 1, j - 1)):
                return False
    return True


def simplicial_identities_hold(n):
    """All five generator identity families at top ordinal n."""
    if not face_face_identity_holds(n):
        return False
    # sigma^j . sigma^i = sigma^i . sigma^{j+1}, i <= j
    if n >= 2:
        for i in range(n - 1):
            for j in range(i, n - 1):
                if tcompose(degeneracy(n - 1, j), degeneracy(n, i)) != \
                   tcompose(degeneracy(n - 1, i), degeneracy(n, j + 1)):
                    return False
    # mixed identities, composites [n-1] -> [n] -> [n-1]
    for i in range(n + 1):
        for j in range(n):
            got = tcompose(degeneracy(n, j), face(n, i))
            if i < j:
                want = tcompose(face(n - 1, i), degeneracy(n - 1, j - 1))
            elif i in (j, j + 1):
                want = tidentity(n - 1)
            else:
                want = tcompose(face(n - 1, i - 1), degeneracy(n - 1, j))
            if got != want:
                return False
    return True


def test_simplicial_identities_small():
    for n in range(1, 6):
        assert simplicial_identities_hold(n)


def test_epi_mono_examples():
    epi, mono = tfactorize((0, 0))  # [1] -> [2]
    assert epi == degeneracy(1, 0)
    assert mono == (0,)
    f = (1, 3)  # injective [1] -> [3]
    assert tfactorize(f) == (tidentity(1), f)
    g = (0, 1, 1)  # surjective [2] -> [1]
    assert tfactorize(g) == (g, tidentity(1))


def test_epi_mono_exhaustive_roundtrip():
    # factorizing mono . epi reproduces the pair exactly
    for m in range(5):
        for k in range(m + 1):
            for n in range(k, 5):
                for epi in all_surjections(m, k):
                    for mono in all_injections(k, n):
                        assert tfactorize(tcompose(mono, epi)) == \
                            (epi, mono)


def test_epi_mono_uniqueness_small():
    # direct uniqueness: exactly one (epi, mono) pair composes to f
    for m in range(4):
        for n in range(4):
            pairs = {}
            for k in range(min(m, n) + 1):
                for epi in all_surjections(m, k):
                    for mono in all_injections(k, n):
                        f = tcompose(mono, epi)
                        pairs.setdefault(f, []).append((epi, mono))
            for f in all_maps(m, n):
                assert len(pairs[f]) == 1


def test_opposite_examples():
    assert opposite(face(2, 0), 2) == face(2, 2)
    assert opposite(tidentity(3), 3) == tidentity(3)


@given(ordinal_maps())
def test_opposite_involution(fn):
    f, n = fn
    assert opposite(opposite(f, n), n) == f


@given(ordinal_maps(max_source=4, max_target=4), st.data())
def test_opposite_functorial(gn, data):
    g, n = gn
    k = len(g) - 1
    f, _ = data.draw(ordinal_maps(max_target=k))
    assert opposite(tcompose(g, f), n) == \
        tcompose(opposite(g, n), opposite(f, k))


@given(ordinal_maps(max_source=4, max_target=4))
def test_epi_mono_property(fn):
    f, n = fn
    epi, mono = tfactorize(f)
    assert is_surjective(epi, len(mono) - 1)
    assert is_injective(mono) and mono[-1] <= n
    assert tcompose(mono, epi) == f


def test_decompositions_exhaustive():
    # every injection is a composite of faces, every surjection of
    # degeneracies, with the canonical index ordering
    for m in range(7):
        for n in range(7):
            for f in all_injections(m, n):
                word = face_decomposition(f, n)
                if f == tidentity(n):
                    assert word == []
                    continue
                indices = [i for (_, i) in word]
                assert indices == sorted(indices, reverse=True)
                assert compose_word([face(*a) for a in word]) == f
            for f in all_surjections(m, n):
                word = degeneracy_decomposition(f)
                if f == tidentity(n):
                    assert word == []
                    continue
                indices = [i for (_, i) in word]
                assert indices == sorted(indices)
                assert compose_word([degeneracy(*a) for a in word]) == f


def test_map_counts():
    # |Hom([m],[n])| = binom(m+n+1, m+1)
    from math import comb
    for m in range(5):
        for n in range(5):
            assert len(all_maps(m, n)) == comb(m + n + 1, m + 1)
    assert len(all_surjections(3, 5)) == 0
    assert len(all_injections(3, 2)) == 0
