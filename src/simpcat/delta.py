"""The combinatorial simplex category: finite ordinals and monotone maps.

Ordinals are 0-indexed, [n] = {0, ..., n} has n+1 elements.  A monotone
map [m] -> [n] is its value tuple (f(0), ..., f(m)); the source is
len - 1, and a target the tuple does not determine is passed as an
explicit argument.  Maps are never stored as generator words;
face/degeneracy decompositions are computed on demand.
"""

from functools import lru_cache
from itertools import combinations


class DeltaError(ValueError):
    """Raised on malformed ordinal maps or generator arguments."""


def tidentity(n):
    return tuple(range(n + 1))


def tcompose(g, f):
    """Value tuple of g after f; no validation."""
    return tuple(g[v] for v in f)


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


def join(f, n, g):
    """The ordinal join [m]*[m'] = [m+m'+1] applied to f: [m] -> [n] and
    g: f on the initial block, g shifted onto the final block."""
    return f + tuple(v + n + 1 for v in g)


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


def normalize_ordered_set(labels):
    """The canonical isomorphism from a finite totally ordered set of
    labels to an ordinal: returns (n, label -> position)."""
    labels = list(labels)
    if not labels:
        raise DeltaError("ordinals are nonempty")
    if len(set(labels)) != len(labels):
        raise DeltaError("labels must be distinct")
    return len(labels) - 1, {lab: i for i, lab in enumerate(labels)}


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
