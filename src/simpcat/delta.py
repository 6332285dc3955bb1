"""The combinatorial simplex category: finite ordinals and monotone maps.

Ordinals are 0-indexed, [n] = {0, ..., n} has n+1 elements.  A monotone
map [m] -> [n] is its value tuple (f(0), ..., f(m)); the source is
len - 1, and a target the tuple does not determine is passed as an
explicit argument.  Maps are never stored as generator words;
face/degeneracy decompositions are computed on demand.
"""

from functools import lru_cache
from itertools import combinations
from operator import itemgetter


class DeltaError(ValueError):
    """Raised on malformed ordinal maps or generator arguments."""


def tidentity(n):
    return tuple(range(n + 1))


def tcompose(g, f):
    """Value tuple of g after f, the tuple g[f[x]] for each x; no
    validation.  This is the one composition of index tables: f is a
    sequence, and g any container its entries index (a tuple, a list, a
    dict keyed by them)."""
    if len(f) > 1:
        return itemgetter(*f)(g)
    # itemgetter() raises, and itemgetter(v) returns g[v] bare
    return tuple([g[v] for v in f])


def tfactorize(values):
    """The unique epi-mono factorization f = mono . epi.

    Returns (epi, image): epi collapses [m] onto the image of f, and the
    sorted image is the value tuple of the mono."""
    image = sorted(set(values))
    index = {v: j for j, v in enumerate(image)}
    return tuple(index[v] for v in values), tuple(image)


@lru_cache(maxsize=None)
def face(n, i):
    """The injection [n-1] -> [n] missing the value i."""
    if n < 1 or not 0 <= i <= n:
        raise DeltaError("face(%d, %d) out of range" % (n, i))
    return tuple(v for v in range(n + 1) if v != i)


@lru_cache(maxsize=None)
def degeneracy(n, i):
    """The surjection [n] -> [n-1] repeating the value i."""
    if n < 1 or not 0 <= i <= n - 1:
        raise DeltaError("degeneracy(%d, %d) out of range" % (n, i))
    return tuple(v if v <= i else v - 1 for v in range(n + 1))


def opposite(f, n):
    """Order reversal of f: [m] -> [n]; carries faces d_i to d_{n-i}."""
    return tuple(n - v for v in reversed(f))


def face_decomposition(f, n):
    """Write an injection f: [m] -> [n] as a composite of faces,
    outermost first, indices strictly decreasing.  Returns the list of
    (n, i) arguments so that f = face(n_1, i_1) . face(n_2, i_2) . ...
    applied right to left."""
    if any(a >= b for a, b in zip(f, f[1:])) or f[0] < 0 or f[-1] > n:
        raise DeltaError("face decomposition needs an injection into [%d]"
                         % n)
    missing = sorted(set(range(n + 1)) - set(f), reverse=True)
    # Stripping the largest missing value first keeps later indices valid
    # without shifting.
    return [(n - t, i) for t, i in enumerate(missing)]


def degeneracy_decomposition(f):
    """Write a surjection as a composite of degeneracies, outermost first,
    indices strictly increasing: f = deg(n_1, i_1) . deg(n_2, i_2) . ..."""
    if f[0] != 0 or any(b - a not in (0, 1) for a, b in zip(f, f[1:])):
        raise DeltaError("degeneracy decomposition needs a surjective map")
    doubled = [j for j in range(len(f) - 1) if f[j] == f[j + 1]]
    # sigma^{j_1} . ... . sigma^{j_s} with j_1 < ... < j_s, outermost first.
    return [(f[-1] + 1 + t, i) for t, i in enumerate(doubled)]


def simplicial_identities(top):
    """The simplicial identities of a simplicial object truncated at level
    top, generated as (kind, n, i, j, lhs, rhs): the words lhs and rhs
    are equal maps out of X_n.

    A word is a tuple of generators (is_face, k, i), the face d_i: X_k ->
    X_{k-1} or the degeneracy s_i: X_k -> X_{k+1}, written as a composite
    (the last acts first); the empty word is the identity of X_n.  kind
    is "face" for d_i d_j = d_{j-1} d_i (i < j), "degeneracy" for s_i s_j
    = s_{j+1} s_i (i <= j) and "mixed" for d_i s_j = s_{j-1} d_i (i < j),
    1 (i = j, j + 1) or s_j d_{i-1} (i > j + 1).  The face identities come
    first, then the degeneracy and the mixed ones, each by n, then j,
    then i.  Nothing is kept between calls."""
    for n in range(2, top + 1):
        for i, j, lhs, rhs in face_identities(n):
            yield "face", n, i, j, lhs, rhs
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield ("degeneracy", n, i, j,
                       ((False, n + 1, i), (False, n, j)),
                       ((False, n + 1, j + 1), (False, n, i)))
    for n in range(top):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = ((False, n - 1, j - 1), (True, n, i))
                elif i <= j + 1:
                    rhs = ()
                else:
                    rhs = ((False, n - 1, j), (True, n, i - 1))
                yield ("mixed", n, i, j,
                       ((True, n + 1, i), (False, n, j)), rhs)


def face_identities(n):
    """The face identities out of X_n, n >= 2, generated as (i, j, lhs,
    rhs) by j, then i: the words of d_i d_j = d_{j-1} d_i for i < j, as
    simplicial_identities lists them."""
    for j in range(1, n + 1):
        for i in range(j):
            yield (i, j, ((True, n - 1, i), (True, n, j)),
                   ((True, n - 1, j - 1), (True, n, i)))


def all_maps(m, n):
    """All monotone maps [m] -> [n], in lexicographic order of values."""
    # weakly increasing sequences of length m+1 in [0, n] correspond to
    # (m+1)-subsets of [0, m+n] via values[j] = comb[j] - j
    return tuple(tuple(c - j for j, c in enumerate(comb))
                 for comb in combinations(range(m + n + 1), m + 1))


@lru_cache(maxsize=None)
def all_surjections(m, n):
    """All surjective monotone maps [m] ->> [n], lexicographic."""
    if not 0 <= n <= m:
        return ()
    out = []
    # the doubled positions j (f(j) = f(j+1)) run through the (m-n)-subsets
    # of [0, m-1] in lexicographic order, which orders the maps the same way
    for doubled in combinations(range(m), m - n):
        values = []
        v = 0
        for j in range(m + 1):
            values.append(v)
            if j not in doubled:
                v += 1
        out.append(tuple(values))
    return tuple(out)


def all_injections(m, n):
    """All injective monotone maps [m] -> [n], lexicographic."""
    return tuple(combinations(range(n + 1), m + 1))
