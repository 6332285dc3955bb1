"""Finite simplicial sets in Eilenberg-Zilber normal form.

Only nondegenerate simplices are stored.  A (possibly degenerate) n-simplex
is a pair ``(s, i)`` where ``s`` is the value tuple of a surjection
[n] ->> [k] and ``i`` indexes a nondegenerate k-cell; the cell dimension k
is recoverable as ``s[-1]``.  Face data of a nondegenerate cell is stored
as one such pair per face index.

Everything downstream (horn classification, nerves, hom spaces, rows of
bisimplicial sets) reduces to ``SimplicialSet.apply``, which evaluates an
arbitrary operator of the simplex category on an E-Z pair.
"""

from itertools import combinations

from .delta import (all_surjections, degeneracy, face, tcompose, tfactorize,
                    tidentity)
from .errors import InputError


def simplex_dim(simplex):
    return len(simplex[0]) - 1


def is_degenerate(simplex):
    s, _ = simplex
    return len(s) - 1 > s[-1]


class SimplicialSet:
    """A finite or dimension-truncated simplicial set.

    truncation: None when the listed nondegenerate cells are all there
    are; an integer D when data above dimension D is unknown (implicitly
    degenerate only up to D).
    """

    def __init__(self, truncation, names, faces, validate=True):
        self.truncation = truncation
        self.names = [tuple(level) for level in names]
        self.faces = [list(level) for level in faces]
        while self.names and not self.names[-1] and \
                (truncation is None or len(self.names) - 1 > truncation):
            self.names.pop()
            self.faces.pop()
        self._index = [
            {name: j for j, name in enumerate(level)} for level in self.names]
        self._apply_cache = {}
        self._simplices_cache = {}
        self._face_index_cache = {}
        if validate:
            self.validate()

    # -- basic queries ---------------------------------------------------

    @property
    def dim_max(self):
        for k in range(len(self.names) - 1, -1, -1):
            if self.names[k]:
                return k
        return -1

    def n_cells(self, k):
        return len(self.names[k]) if 0 <= k < len(self.names) else 0

    def cells(self, k):
        return self.names[k] if 0 <= k < len(self.names) else ()

    def cell_index(self, k, name):
        return self._index[k][name]

    def cell_simplex(self, k, name_or_idx):
        idx = name_or_idx if isinstance(name_or_idx, int) \
            else self._index[k][name_or_idx]
        return (tidentity(k), idx)

    def available_dim(self):
        """Largest n for which the set of n-simplices is known."""
        return self.truncation if self.truncation is not None else None

    def _require_dim(self, n):
        if self.truncation is not None and n > self.truncation:
            raise InputError(
                "need simplices of dimension %d but object is truncated "
                "at %d" % (n, self.truncation))

    def face_entry(self, k, idx, i):
        return self.faces[k][idx][i]

    # -- operator action -------------------------------------------------

    def apply(self, alpha, simplex):
        """alpha^*(x) for alpha: [m] -> [n] (a value tuple) and x an
        n-simplex in E-Z form."""
        key = (alpha, simplex)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        s, idx = simplex
        epi, image = tfactorize(tcompose(s, alpha))
        u, w = self._restrict(image, s[-1], idx)
        result = (tcompose(u, epi), w)
        self._apply_cache[key] = result
        return result

    def _restrict(self, image, k, idx):
        """mu^*(y) in E-Z form for the injection mu: [p] -> [k] with the
        given image tuple and y the nondegenerate k-cell idx.

        Strips the largest missing value i, so that mu factors as
        face(k, i) composed with a smaller injection, and reroutes through
        the stored face d_i(y)."""
        if len(image) == k + 1:
            return (tidentity(k), idx)
        i = k
        present = set(image)
        while i in present:
            i -= 1
        rest = tuple(v if v < i else v - 1 for v in image)
        t, sub = self.faces[k][idx][i]
        epi, image2 = tfactorize(tcompose(t, rest))
        u, w = self._restrict(image2, t[-1], sub)
        return (tcompose(u, epi), w)

    def simplices(self, n):
        """All n-simplices (E-Z pairs), degenerate included."""
        cached = self._simplices_cache.get(n)
        if cached is not None:
            return cached
        self._require_dim(n)
        out = []
        for k in range(min(n, len(self.names) - 1) + 1):
            for s in all_surjections(n, k):
                for idx in range(len(self.names[k])):
                    out.append((s, idx))
        out = tuple(out)
        self._simplices_cache[n] = out
        return out

    def simplex_faces(self, simplex):
        n = simplex_dim(simplex)
        return tuple(self.apply(face(n, i), simplex)
                     for i in range(n + 1))

    def face_index(self, n):
        """Map from face tuples to the n-simplices with those faces."""
        cached = self._face_index_cache.get(n)
        if cached is not None:
            return cached
        index = {}
        for w in self.simplices(n):
            index.setdefault(self.simplex_faces(w), []).append(w)
        self._face_index_cache[n] = index
        return index

    def describe(self, simplex):
        s, idx = simplex
        name = self.names[s[-1]][idx]
        if len(s) - 1 == s[-1]:
            return name
        return "s%s(%s)" % ("".join(str(v) for v in s), name)

    def vertices(self, simplex):
        n = simplex_dim(simplex)
        return tuple(self.apply((j,), simplex) for j in range(n + 1))

    # -- verification ----------------------------------------------------

    def validate(self):
        if self.truncation is not None and self.truncation < 0:
            raise InputError("negative truncation")
        if self.truncation is not None and \
                len(self.names) > self.truncation + 1:
            raise InputError("cells above the declared truncation")
        if len(self.faces) != len(self.names):
            raise InputError("face table does not match cell table")
        for k, level in enumerate(self.names):
            if len(set(level)) != len(level):
                raise InputError("duplicate cell names in dimension %d" % k)
            if len(self.faces[k]) != len(level):
                raise InputError("face entries missing in dimension %d" % k)
            if k == 0:
                for entry in self.faces[0]:
                    if entry != ():
                        raise InputError("vertices cannot have faces")
                continue
            for idx, entry in enumerate(self.faces[k]):
                if len(entry) != k + 1:
                    raise InputError("cell %s needs %d faces"
                                     % (level[idx], k + 1))
                for s, sub in entry:
                    p = s[-1]
                    ok = (len(s) == k and s[0] == 0 and all(
                        0 <= b - a <= 1 for a, b in zip(s, s[1:])))
                    if not ok:
                        raise InputError("face entry %r is not a surjection"
                                         % (s,))
                    if not 0 <= sub < self.n_cells(p):
                        raise InputError("face of %s points at a missing "
                                         "cell" % (level[idx],))
        self.check_identities()

    def check_identities(self):
        """d_i d_j = d_{j-1} d_i for i < j, expanded through E-Z pairs."""
        for k in range(2, len(self.names)):
            for idx in range(len(self.names[k])):
                x = (tidentity(k), idx)
                for j in range(1, k + 1):
                    dj = self.apply(face(k, j), x)
                    for i in range(j):
                        di = self.apply(face(k, i), x)
                        lhs = self.apply(face(k - 1, i), dj)
                        rhs = self.apply(face(k - 1, j - 1), di)
                        if lhs != rhs:
                            raise InputError(
                                "simplicial identity fails at cell %s "
                                "(i=%d, j=%d)" % (self.names[k][idx], i, j))

    # -- helpers ---------------------------------------------------------

    def as_dict(self):
        cells = {str(k): list(self.names[k]) for k in range(len(self.names))}
        faces = {}
        for k in range(1, len(self.names)):
            for idx, entry in enumerate(self.faces[k]):
                faces["%d:%s" % (k, self.names[k][idx])] = [
                    [list(s), self.names[s[-1]][sub]] for s, sub in entry]
        return {"truncation": self.truncation, "cells": cells,
                "faces": faces}

    def __repr__(self):
        counts = ",".join(str(self.n_cells(k))
                          for k in range(len(self.names)))
        t = "inf" if self.truncation is None else str(self.truncation)
        return "SimplicialSet(cells=[%s], truncation=%s)" % (counts, t)


# ---------------------------------------------------------------------------
# presheaf normalizer


def from_presheaf(D, levels, action, name_fn=None, truncation="auto"):
    """Build the E-Z normal form of a truncated simplicial set presented
    by abstract level sets.

    levels: list of iterables, levels[n] the n-simplices (hashable).
    action(alpha, x): the contravariant action, alpha a value tuple
    [m] -> [n] and x in levels[n]; returns an element of levels[m].

    Elements that are degeneracies are identified by the retraction test
    x == s_i(d_i(x)) and collapsed greedily.
    """
    levels = [list(lv) for lv in levels]
    nondeg = []
    index = []
    for n in range(D + 1):
        nd = []
        for x in levels[n]:
            if _degeneracy_collapse(action, n, x) is None:
                nd.append(x)
        nondeg.append(nd)
        index.append({x: j for j, x in enumerate(nd)})

    names = []
    faces = []
    for n in range(D + 1):
        if name_fn is None:
            names.append(tuple(str(j) for j in range(len(nondeg[n]))))
        else:
            names.append(tuple(name_fn(n, x) for x in nondeg[n]))
        level_faces = []
        for x in nondeg[n]:
            if n == 0:
                level_faces.append(())
                continue
            entry = []
            for i in range(n + 1):
                y = action(face(n, i), x)
                entry.append(_normalize_element(action, index, n - 1, y))
            level_faces.append(tuple(entry))
        faces.append(level_faces)
    if truncation == "auto":
        truncation = D
    return SimplicialSet(truncation, names, faces)


def _degeneracy_collapse(action, n, x):
    """Return (i, d_i(x)) for the smallest i with x = s_i(d_i(x)), or
    None when x is nondegenerate."""
    for i in range(n):
        y = action(face(n, i), x)
        if action(degeneracy(n, i), y) == x:
            return i, y
    return None


def _normalize_element(action, index, n, x):
    """E-Z normal form (s, idx) of an element x of abstract level n.

    Greedy collapse: while x = s_i(y), pass to y and precompose the word
    with sigma^i, so the accumulated word is the E-Z surjection."""
    word = tidentity(n)
    while True:
        hit = _degeneracy_collapse(action, n, x)
        if hit is None:
            return (word, index[n][x])
        i, y = hit
        word = tcompose(degeneracy(n, i), word)
        n -= 1
        x = y


# ---------------------------------------------------------------------------
# standard objects


def _subset_name(verts):
    return "-".join(str(v) for v in verts)


def _subset_complex(n, keep, truncation=None):
    """Simplicial subset of the standard n-simplex spanned by the vertex
    subsets for which keep(verts) is true."""
    names = []
    faces = []
    index = []
    for j in range(n + 1):
        level = [c for c in combinations(range(n + 1), j + 1) if keep(c)]
        index.append({c: i for i, c in enumerate(level)})
        names.append(tuple(_subset_name(c) for c in level))
        entry = []
        for c in level:
            if j == 0:
                entry.append(())
                continue
            row = []
            for i in range(j + 1):
                sub = c[:i] + c[i + 1:]
                row.append((tidentity(j - 1), index[j - 1][sub]))
            entry.append(tuple(row))
        faces.append(entry)
    while names and not names[-1]:
        names.pop()
        faces.pop()
    return SimplicialSet(truncation, names, faces)


def standard_simplex(n):
    return _subset_complex(n, lambda c: True)


def boundary(n):
    if n < 1:
        raise InputError("boundary needs n >= 1")
    return _subset_complex(n, lambda c: len(c) <= n)


def horn(n, k):
    if n < 1:
        raise InputError("horn needs n >= 1")
    if not 0 <= k <= n:
        raise InputError("horn index %d out of range for n=%d" % (k, n))
    full = tuple(range(n + 1))
    omit_k = tuple(v for v in full if v != k)

    def keep(c):
        return c != full and c != omit_k
    return _subset_complex(n, keep)


def spine(n):
    def keep(c):
        if len(c) == 1:
            return True
        return len(c) == 2 and c[1] == c[0] + 1
    return _subset_complex(n, keep)


def standard_object(kind, n, k=None):
    """Dispatch on kind in {simplex, boundary, horn, spine}."""
    if kind == "simplex":
        return standard_simplex(n)
    if kind == "boundary":
        return boundary(n)
    if kind == "horn":
        if k is None:
            raise InputError("horn needs the index k")
        return horn(n, k)
    if kind == "spine":
        return spine(n)
    raise InputError("unknown standard object %r" % (kind,))


def empty_sset():
    return SimplicialSet(None, [()], [[]])


def point():
    return standard_simplex(0)


def discrete_sset(names):
    """The discrete simplicial set on a finite vertex set."""
    names = tuple(names)
    return SimplicialSet(None, [names], [[() for _ in names]])


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A map of simplicial sets, recorded on nondegenerate source cells.

    assignment[k][idx] is the E-Z image of the k-cell idx in the target.
    """

    def __init__(self, source, target, assignment, validate=True):
        self.source = source
        self.target = target
        self.assignment = tuple(tuple(level) for level in assignment)
        if validate:
            self.validate()

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source is other.source
                and self.target is other.target
                and self.assignment == other.assignment)

    def __hash__(self):
        return hash(self.assignment)

    def __repr__(self):
        return "SimplicialMap(%r -> %r)" % (self.source, self.target)

    def cell_image(self, k, idx):
        return self.assignment[k][idx]

    def apply(self, simplex):
        """Image of an arbitrary E-Z simplex of the source."""
        s, idx = simplex
        t, w = self.assignment[s[-1]][idx]
        return (tcompose(t, s), w)

    def validate(self):
        src, tgt = self.source, self.target
        if len(self.assignment) < len(src.names):
            raise InputError("assignment misses source dimensions")
        for k in range(len(src.names)):
            if len(self.assignment[k]) != src.n_cells(k):
                raise InputError("assignment misses cells in dim %d" % k)
            for idx in range(src.n_cells(k)):
                value = self.assignment[k][idx]
                s, w = value
                if len(s) != k + 1:
                    raise InputError("image of a %d-cell has dimension %d"
                                     % (k, len(s) - 1))
                if not 0 <= w < tgt.n_cells(s[-1]):
                    raise InputError("image cell missing from target")
                for i in range(k + 1) if k else ():
                    fs, fsub = src.faces[k][idx][i]
                    expected = self.apply((fs, fsub))
                    got = tgt.apply(face(k, i), value)
                    if expected != got:
                        raise InputError(
                            "map does not commute with face %d of %s"
                            % (i, src.names[k][idx]))

    def is_injective(self):
        for k in range(len(self.source.names)):
            seen = set()
            for idx in range(self.source.n_cells(k)):
                s, w = self.assignment[k][idx]
                if len(s) - 1 != s[-1]:
                    return False
                if (s, w) in seen:
                    return False
                seen.add((s, w))
        return True


def identity_map(X):
    assignment = [[(tidentity(k), idx) for idx in range(X.n_cells(k))]
                  for k in range(len(X.names))]
    return SimplicialMap(X, X, assignment, validate=False)


def compose_maps(g, f):
    if f.target is not g.source:
        raise InputError("maps do not compose")
    assignment = [[g.apply(f.assignment[k][idx])
                   for idx in range(f.source.n_cells(k))]
                  for k in range(len(f.source.names))]
    return SimplicialMap(f.source, g.target, assignment, validate=False)


def inclusion_by_names(A, X):
    """The inclusion of A into X matching cells by name."""
    assignment = []
    for k in range(len(A.names)):
        level = []
        for name in A.names[k]:
            if name not in X._index[k]:
                raise InputError("cell %s not present in ambient object"
                                 % name)
            level.append((tidentity(k), X.cell_index(k, name)))
        assignment.append(level)
    return SimplicialMap(A, X, assignment)


def map_from_cells(A, X, images, validate=True):
    """Build a map from a dict {(dim, name): target simplex}."""
    assignment = []
    for k in range(len(A.names)):
        level = []
        for name in A.names[k]:
            level.append(images[(k, name)])
        assignment.append(level)
    return SimplicialMap(A, X, assignment, validate=validate)


# ---------------------------------------------------------------------------
# constructions


def product(X, Y, truncation=None):
    """Pointwise product, E-Z normalized by shuffle analysis."""
    if truncation is None:
        if X.truncation is None and Y.truncation is None:
            truncation = X.dim_max + Y.dim_max if X.dim_max >= 0 and \
                Y.dim_max >= 0 else 0
        else:
            candidates = [t for t in (X.truncation, Y.truncation)
                          if t is not None]
            truncation = min(candidates)
    X._require_dim(truncation)
    Y._require_dim(truncation)
    D = truncation
    levels = [[(a, b) for a in X.simplices(n) for b in Y.simplices(n)]
              for n in range(D + 1)]

    def action(alpha, pair):
        a, b = pair
        return (X.apply(alpha, a), Y.apply(alpha, b))

    def name_fn(n, pair):
        a, b = pair
        return "(%s|%s)" % (X.describe(a), Y.describe(b))

    result_trunc = None if (X.truncation is None and Y.truncation is None
                            and D >= X.dim_max + Y.dim_max) else D
    P = from_presheaf(D, levels, action, name_fn=name_fn,
                      truncation=result_trunc)
    legs = _product_projections(P, X, Y, levels)
    return P, legs


def _product_projections(P, X, Y, levels):
    proj_x = []
    proj_y = []
    # P's cells are jointly nondegenerate pairs; recover them by matching
    # names, which embed the describe() of both components.
    lookup = {}
    for n, level in enumerate(levels):
        for pair in level:
            a, b = pair
            lookup[(n, "(%s|%s)" % (X.describe(a), Y.describe(b)))] = pair
    for k in range(len(P.names)):
        lx, ly = [], []
        for name in P.names[k]:
            a, b = lookup[(k, name)]
            lx.append(a)
            ly.append(b)
        proj_x.append(lx)
        proj_y.append(ly)
    return (SimplicialMap(P, X, proj_x, validate=False),
            SimplicialMap(P, Y, proj_y, validate=False))


def disjoint_union(X, Y):
    if X.truncation is None and Y.truncation is None:
        trunc = None
    else:
        trunc = min(t if t is not None else 10 ** 9
                    for t in (X.truncation, Y.truncation))
    D = max(len(X.names), len(Y.names))
    names = []
    faces = []
    for k in range(D):
        xs = X.cells(k)
        ys = Y.cells(k)
        names.append(tuple("X.%s" % n for n in xs)
                     + tuple("Y.%s" % n for n in ys))
        entry = []
        for idx in range(len(xs)):
            entry.append(tuple(X.faces[k][idx]) if k else ())
        off = [len(X.cells(j)) for j in range(D)]
        for idx in range(len(ys)):
            if k == 0:
                entry.append(())
            else:
                entry.append(tuple((s, sub + off[s[-1]])
                                   for s, sub in Y.faces[k][idx]))
        faces.append(entry)
    return SimplicialSet(trunc, names, faces)


def pushout(f, g):
    """Pushout of X <-f- A -g-> Y along an injective f.

    Only the first leg has to be injective on nondegenerate cells (a
    subobject inclusion); the second may collapse.  Returns the pushout
    with its two legs from X and Y.
    """
    if f.source is not g.source:
        raise InputError("pushout legs must share their source")
    if not f.is_injective():
        raise InputError("the first pushout leg must be injective on "
                         "nondegenerate cells")
    A, X, Y = f.source, f.target, g.target
    if X.truncation is None and Y.truncation is None:
        trunc = None
    else:
        trunc = min(t for t in (X.truncation, Y.truncation)
                    if t is not None)
    # image of A in X, per dimension
    image = []
    preim = []
    for k in range(len(X.names)):
        img = {}
        if k < len(A.names):
            for idx in range(A.n_cells(k)):
                s, w = f.assignment[k][idx]
                img[w] = idx
        image.append(img)
        preim.append(img)
    D = max(len(X.names), len(Y.names))
    names = []
    keep_x = []  # per dim, list of kept X indices
    for k in range(D):
        kept = [idx for idx in range(X.n_cells(k))
                if idx not in image[k]] if k < len(X.names) else []
        keep_x.append(kept)
        names.append(tuple("Y.%s" % n for n in Y.cells(k))
                     + tuple("X.%s" % X.names[k][idx] for idx in kept))
    new_x_index = [
        {idx: len(Y.cells(k)) + j for j, idx in enumerate(keep_x[k])}
        for k in range(D)]

    def reroute(simplex):
        """Image in the pushout of an E-Z simplex of X."""
        s, w = simplex
        k = s[-1]
        if w in image[k]:
            a = image[k][w]
            t, z = g.assignment[k][a]
            return (tcompose(t, s), z)  # a Y-simplex, Y cells come first
        return (s, new_x_index[k][w])

    faces = []
    for k in range(D):
        entry = []
        for idx in range(Y.n_cells(k)):
            entry.append(tuple(Y.faces[k][idx]) if k else ())
        for idx in keep_x[k]:
            if k == 0:
                entry.append(())
            else:
                entry.append(tuple(reroute(e) for e in X.faces[k][idx]))
        faces.append(entry)
    P = SimplicialSet(trunc, names, faces)
    leg_y = SimplicialMap(Y, P, [
        [(tidentity(k), idx) for idx in range(Y.n_cells(k))]
        for k in range(len(Y.names))], validate=False)
    leg_x_assign = []
    for k in range(len(X.names)):
        level = []
        for idx in range(X.n_cells(k)):
            level.append(reroute((tidentity(k), idx)))
        leg_x_assign.append(level)
    leg_x = SimplicialMap(X, P, leg_x_assign, validate=False)
    return P, leg_x, leg_y


def skeleton(X, n):
    """The simplicial subset spanned by cells of dimension <= n."""
    if X.truncation is not None and n > X.truncation:
        raise InputError("skeleton degree above truncation")
    names = [X.cells(k) for k in range(min(n, X.dim_max) + 1)]
    faces = [list(X.faces[k]) for k in range(min(n, X.dim_max) + 1)]
    return SimplicialSet(None, names, faces)


def opposite(X, D=None):
    """The opposite simplicial set: faces d_i become d_{n-i}."""
    if D is None:
        D = X.truncation if X.truncation is not None else X.dim_max
    levels = [X.simplices(n) for n in range(D + 1)]

    def action(alpha, simplex):
        m, n = len(alpha) - 1, simplex_dim(simplex)
        opp = tuple(n - alpha[m - k] for k in range(m + 1))
        return X.apply(opp, simplex)

    def name_fn(n, simplex):
        return X.describe(simplex)

    return from_presheaf(D, levels, action, name_fn=name_fn,
                         truncation=X.truncation if X.truncation is None
                         else D)


def pi0(X):
    """Vertex classes under edge connectivity; returns a list of frozen
    vertex-name sets."""
    parent = list(range(X.n_cells(0)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in range(X.n_cells(1)):
        x = (tidentity(1), idx)
        (s0, v0), (s1, v1) = X.apply((0,), x), X.apply((1,), x)
        ra, rb = find(v0), find(v1)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for v in range(X.n_cells(0)):
        classes.setdefault(find(v), []).append(X.names[0][v])
    return sorted(frozenset(v) for v in classes.values())


# ---------------------------------------------------------------------------
# lifting / extension engine


def lift_extensions(i, f, limit=None, _candidate_order=None):
    """All extensions g: B -> X of f: A -> X along an injective
    i: A -> B, in a deterministic order; at most `limit` of them.

    Backtracking over the nondegenerate cells of B outside i(A) in
    dimension order; candidate images are filtered by the already-forced
    faces through an index of X's simplices by face tuple.
    """
    if limit is not None and limit <= 0:
        raise InputError("limit must be positive (or None for all)")
    if not i.is_injective():
        raise InputError("extension problems need an injective inclusion")
    if i.source is not f.source:
        raise InputError("inclusion and partial map must share a source")
    A, B, X = i.source, i.target, f.target
    X._require_dim(B.dim_max)
    assigned = {}
    for k in range(len(A.names)):
        for idx in range(A.n_cells(k)):
            s, w = i.assignment[k][idx]
            assigned[(k, w)] = f.assignment[k][idx]
    todo = [(k, idx) for k in range(len(B.names))
            for idx in range(B.n_cells(k)) if (k, idx) not in assigned]
    todo.sort()
    results = []

    def candidates_for(k, idx, current):
        if k == 0:
            cands = X.simplices(0)
        else:
            forced = []
            for s, sub in B.faces[k][idx]:
                t, w = current[(s[-1], sub)]
                forced.append((tcompose(t, s), w))
            cands = X.face_index(k).get(tuple(forced), ())
        if _candidate_order is not None:
            cands = list(cands)
            _candidate_order.shuffle(cands)
        return cands

    def extend(pos, current):
        if limit is not None and len(results) >= limit:
            return
        if pos == len(todo):
            assignment = [
                [current[(k, idx)] for idx in range(B.n_cells(k))]
                for k in range(len(B.names))]
            results.append(SimplicialMap(B, X, assignment, validate=False))
            return
        k, idx = todo[pos]
        for w in candidates_for(k, idx, current):
            current[(k, idx)] = w
            extend(pos + 1, current)
            del current[(k, idx)]
            if limit is not None and len(results) >= limit:
                return

    extend(0, dict(assigned))
    return results


def enumerate_maps(B, X, limit=None, pin_vertices=None):
    """All simplicial maps B -> X, optionally pinning named vertices of B
    to vertex simplices of X."""
    A = empty_sset()
    if pin_vertices:
        pins = sorted(pin_vertices.items())
        names = [tuple(name for name, _ in pins)]
        A = SimplicialSet(None, names, [[() for _ in pins]])
        incl = SimplicialMap(A, B, [
            [(tidentity(0), B.cell_index(0, name)) for name, _ in pins]],
            validate=False)
        part = SimplicialMap(A, X, [[v for _, v in pins]], validate=False)
        return lift_extensions(incl, part, limit=limit)
    incl = SimplicialMap(A, B, [[]], validate=False)
    part = SimplicialMap(A, X, [[]], validate=False)
    return lift_extensions(incl, part, limit=limit)


def find_isomorphism(X, Y):
    """Search for a levelwise bijection commuting with faces; None when
    the objects are not isomorphic.  Cells are matched dimension by
    dimension with face-constraint filtering."""
    if X.truncation != Y.truncation and not (
            X.truncation is None and Y.truncation is None):
        if X.truncation is None or Y.truncation is None:
            return None
    dims = max(len(X.names), len(Y.names))
    for k in range(dims):
        if X.n_cells(k) != Y.n_cells(k):
            return None
    assign = {}
    used = [set() for _ in range(dims)]

    todo = [(k, idx) for k in range(dims) for idx in range(X.n_cells(k))]

    def forced_faces(k, idx):
        out = []
        for s, sub in X.faces[k][idx]:
            t, w = assign[(s[-1], sub)]
            out.append((tcompose(t, s), w))
        return tuple(out)

    def search(pos):
        if pos == len(todo):
            return True
        k, idx = todo[pos]
        if k == 0:
            cands = [j for j in range(Y.n_cells(0)) if j not in used[0]]
        else:
            want = forced_faces(k, idx)
            cands = []
            for j in range(Y.n_cells(k)):
                if j in used[k]:
                    continue
                if tuple(Y.simplex_faces((tidentity(k), j))) == want:
                    cands.append(j)
        for j in cands:
            assign[(k, idx)] = (tidentity(k), j)
            used[k].add(j)
            if search(pos + 1):
                return True
            used[k].remove(j)
            del assign[(k, idx)]
        return False

    if not search(0):
        return None
    assignment = [[assign[(k, idx)] for idx in range(X.n_cells(k))]
                  for k in range(len(X.names))]
    return SimplicialMap(X, Y, assignment, validate=False)


def is_isomorphic(X, Y):
    return find_isomorphism(X, Y) is not None
