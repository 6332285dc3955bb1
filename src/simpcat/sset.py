"""Finite simplicial sets in Eilenberg-Zilber normal form.

Only nondegenerate simplices are stored.  A (possibly degenerate) n-simplex
is a pair ``(s, i)`` where ``s`` is the value tuple of a surjection
[n] ->> [k] and ``i`` indexes a nondegenerate k-cell; the cell dimension k
is recoverable as ``s[-1]``.  Face data of a nondegenerate cell is stored
as one such pair per face index.

Everything downstream (horn classification, nerves, hom spaces, rows of
bisimplicial sets) reduces to ``SimplicialSet.face_of``, one face of an
E-Z pair read off the stored faces, and ``SimplicialSet.apply``, which
evaluates an arbitrary operator of the simplex category through face
steps.  Validation and the horn search read faces a block at a time:
the m-simplices with one surjection s form a block, and each face of a
whole block is one index range or one column of stored faces
(``SimplicialSet.face_block``).
"""

from functools import lru_cache
from itertools import accumulate, chain, combinations
from operator import add, itemgetter

from .delta import all_surjections, face, tcompose, tfactorize, tidentity
from .errors import InputError


def simplex_dim(simplex):
    return len(simplex[0]) - 1


def is_degenerate(simplex):
    s, _ = simplex
    return len(s) - 1 > s[-1]


def _written_alike(names):
    """Whether two of names are written alike by str, as documents
    write names in keys: 1 and "1", or "[f|g]" twice."""
    return len(set(map(str, names))) != len(names)


class SimplicialSet:
    """A finite or dimension-truncated simplicial set.

    truncation: None when the listed nondegenerate cells are all there
    are; an integer D when data above dimension D is unknown (implicitly
    degenerate only up to D).

    The constructor checks nothing: the loaders in formats, and a
    caller who writes the tables by hand, call validate(), which raises
    InputError or returns the object, as it does on every class here.
    """

    def __init__(self, truncation, names, faces):
        self.truncation = truncation
        self.names = [tuple(level) for level in names]
        self.faces = [list(level) for level in faces]
        while self.names and not self.names[-1] and \
                (truncation is None or len(self.names) - 1 > truncation):
            self.names.pop()
            self.faces.pop()
        self._index = [
            {name: j for j, name in enumerate(level)} for level in self.names]
        self._memo = {}

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
        if not 0 <= k < len(self._index) or name not in self._index[k]:
            raise InputError("no %d-cell named %r" % (k, name))
        return self._index[k][name]

    def cell_simplex(self, k, name):
        """The k-cell called name (an integer name too) as a simplex."""
        return (tidentity(k), self.cell_index(k, name))

    def _require_dim(self, n):
        if self.truncation is not None and n > self.truncation:
            raise InputError(
                "need simplices of dimension %d but object is truncated "
                "at %d" % (n, self.truncation))

    # -- operator action -------------------------------------------------

    def face_of(self, i, simplex):
        """d_i of an n-simplex (s, idx) in E-Z form, n >= 1.

        Dropping position i of s leaves a surjection when the value s[i]
        occurs twice; otherwise the result is the stored face d_{s[i]} of
        the cell, degenerated along s with that value removed
        (Eilenberg-Zilber; Goerss-Jardine, Simplicial Homotopy Theory,
        IV.1)."""
        s, idx = simplex
        v, rest = _dropped(s, i)
        if v < 0:
            return (rest, idx)
        t, sub = self.faces[s[-1]][idx][v]
        if t[-1] == len(t) - 1:
            return (rest, sub)
        return (tuple([t[u] for u in rest]), sub)

    def apply(self, alpha, simplex):
        """alpha^*(x) for alpha: [m] -> [n] (a value tuple) and x an
        n-simplex in E-Z form: one face step per value alpha misses,
        then the surjective part of alpha."""
        epi, missing = _factored(alpha, len(simplex[0]) - 1)
        for i in missing:
            simplex = self.face_of(i, simplex)
        s, idx = simplex
        if len(epi) == len(s):
            return simplex
        return (tcompose(s, epi), idx)

    def simplices(self, n):
        """All n-simplices (E-Z pairs), degenerate included."""
        self._require_dim(n)
        return self.memo(("simplices", n), lambda X: tuple(
            (s, idx) for k in range(min(n, len(X.names) - 1) + 1)
            for s in all_surjections(n, k)
            for idx in range(len(X.names[k]))))

    def simplex_faces(self, simplex):
        return tuple(self.face_of(i, simplex) for i in range(len(simplex[0])))

    def face_table(self, n):
        """{w: simplex_faces(w)} over all n-simplices w, n >= 1."""
        return self.memo(("faces", n), lambda X: {
            w: X.simplex_faces(w) for w in X.simplices(n)})

    def face_index(self, n):
        """Map from face tuples to the n-simplices with those faces."""
        def build(X):
            index = {}
            for w, fw in X.face_table(n).items():
                index.setdefault(fw, []).append(w)
            return index
        return self.memo(("face_index", n), build)

    def block_bases(self, m):
        """{s: rank of (s, 0)} over the surjections s: [m] ->> [k], k at
        most the top dimension, in sorted order.  The simplex (s, idx)
        has rank base[s] + idx in the sorted order of the m-simplices."""
        def build(X):
            sizes = list(map(len, X.names))
            surjections, dims = _sorted_surjections(m, len(sizes) - 1)
            return dict(zip(surjections, accumulate(
                map(sizes.__getitem__, dims), initial=0)))
        return self.memo(("bases", m), build)

    def face_block(self, s):
        """The faces of the block of s: [m] ->> [k], m >= 1, as columns:
        cols[i][idx] is the rank of d_i (s, idx) among the (m-1)-simplices.

        When s[i] occurs twice the column is one index range; otherwise
        it is the stored face d_{s[i]} of each k-cell composed with s
        lowered past s[i] (see face_of)."""
        def build(X):
            below = X.block_bases(len(s) - 2)
            n = len(X.names[s[-1]])
            stored = list(zip(*X.faces[s[-1]]))  # stored[v][idx] = d_v idx
            cols = []
            for i in range(len(s)):
                v, rest = _dropped(s, i)
                if v < 0:
                    b = below[rest]
                    cols.append(range(b, b + n))
                else:
                    ts, subs = zip(*stored[v])
                    if rest[-1] == len(rest) - 1:  # s is an identity
                        base = below.__getitem__
                    else:
                        base = {t: below[tuple([t[u] for u in rest])]
                                for t in set(ts)}.__getitem__
                    cols.append(list(map(add, map(base, ts), subs)))
            return cols
        return self.memo(("block", s), build)

    def ranked(self, m):
        """The m-simplices on dense ids: (order, faces, natural).

        order lists them in sorted E-Z order, one block after another;
        faces[i][r] is the rank of d_i order[r] among the (m-1)-simplices;
        natural lists the ranks in simplices(m) order."""
        self._require_dim(m)

        def build(X):
            bases = X.block_bases(m)
            sizes = list(map(len, X.names))
            order = [(s, idx) for s in bases for idx in range(sizes[s[-1]])]
            faces = []
            if m:
                blocks = [X.face_block(s) for s in bases if sizes[s[-1]]]
                for i in range(m + 1):
                    col = []
                    for cols in blocks:
                        col.extend(cols[i])
                    faces.append(col)
            natural = [r for k in range(min(m, len(sizes) - 1) + 1)
                       for s in all_surjections(m, k)
                       for r in range(bases[s], bases[s] + sizes[k])]
            return order, faces, natural
        return self.memo(("ranked", m), build)

    def memo(self, key, build):
        """build(self), computed once and kept on this object."""
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]

    def describe(self, simplex):
        s, idx = simplex
        name = self.names[s[-1]][idx]
        if len(s) - 1 == s[-1]:
            return name
        return "s%s(%s)" % ("".join(str(v) for v in s), name)

    # -- verification ----------------------------------------------------

    def validate(self):
        if self.truncation is not None and self.truncation < 0:
            raise InputError("negative truncation")
        if self.truncation is not None and \
                len(self.names) > self.truncation + 1:
            raise InputError("cells above the declared truncation")
        if len(self.faces) != len(self.names):
            raise InputError("face table does not match cell table")
        sizes = [len(level) for level in self.names]
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
            accepted = set()  # surjections [k-1] ->> [p] already checked
            for idx, entry in enumerate(self.faces[k]):
                if len(entry) != k + 1:
                    raise InputError("cell %s needs %d faces"
                                     % (level[idx], k + 1))
                for s, sub in entry:
                    if s not in accepted:
                        if not (len(s) == k and s[0] == 0 and all(
                                0 <= b - a <= 1 for a, b in zip(s, s[1:]))):
                            raise InputError(
                                "face entry %r is not a surjection" % (s,))
                        accepted.add(s)
                    if not 0 <= sub < sizes[s[-1]]:
                        raise InputError("face of %s points at a missing "
                                         "cell" % (level[idx],))
        self.check_identities()
        return self

    def check_identities(self):
        """d_i d_j = d_{j-1} d_i for i < j, a whole column at a time.

        Per dimension k, the surjections among the stored faces of the
        k-cells are numbered block by block, so each stored face d_j is a
        column of numbers and d_i of each numbered (k-1)-simplex is read
        off its face block.  Each identity is one comparison of two
        columns; on a failure the cells are searched in order, then j,
        then i, for the first one that fails."""
        for k in range(2, len(self.names)):
            entries = self.faces[k]
            if not entries:
                continue
            columns = [tuple(zip(*col)) for col in zip(*entries)]
            occurring = set(chain.from_iterable(ss for ss, _ in columns))
            if len(occurring) == 1:  # its block is numbered as the cells
                down = self.face_block(occurring.pop())
                stored = [subs for _, subs in columns]
            else:
                first = {}  # surjection -> the number of its first simplex
                down = [[] for _ in range(k)]  # down[i][number]: d_i
                for s in occurring:
                    first[s] = len(down[0])
                    for col, block in zip(down, self.face_block(s)):
                        col.extend(block)
                stored = [list(map(add, map(first.__getitem__, ss), subs))
                          for ss, subs in columns]
            gather = [itemgetter(*col) for col in stored]
            if all(gather[j](down[i]) == gather[i](down[j - 1])
                   for j in range(1, k + 1) for i in range(j)):
                continue
            for idx in range(len(entries)):
                for j in range(1, k + 1):
                    for i in range(j):
                        if down[i][stored[j][idx]] != \
                                down[j - 1][stored[i][idx]]:
                            raise InputError(
                                "simplicial identity fails at cell %s "
                                "(i=%d, j=%d)" % (self.names[k][idx], i, j))

    # -- helpers ---------------------------------------------------------

    def as_dict(self):
        """The document form.  It keys faces by the cell names written
        through str, and so refuses names that str writes alike in one
        dimension: built from a caller's names (nerve, product, hom_space),
        two cells can get one name."""
        for k, level in enumerate(self.names):
            if _written_alike(level):
                raise InputError("duplicate cell names in dimension %d" % k)
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


@lru_cache(maxsize=4096)
def _dropped(s, i):
    """(v, rest) for the surjection s without position i: v = -1 when the
    value s[i] occurs twice, else v = s[i] and rest is lowered past it."""
    v = s[i]
    rest = s[:i] + s[i + 1:]
    if v in rest:
        return -1, rest
    return v, tuple(u if u < v else u - 1 for u in rest)


@lru_cache(maxsize=None)
def _sorted_surjections(m, top):
    """The surjections s: [m] ->> [k], k <= top, in sorted order, and
    the k of each."""
    surjections = sorted(s for k in range(min(m, top) + 1)
                         for s in all_surjections(m, k))
    return tuple(surjections), tuple(s[-1] for s in surjections)


@lru_cache(maxsize=4096)
def _factored(alpha, n):
    """alpha: [m] -> [n] as (epi, missing): its surjective part and the
    values of [n] it misses, largest first."""
    epi, image = tfactorize(alpha)
    present = set(image)
    return epi, tuple(i for i in range(n, -1, -1) if i not in present)


# ---------------------------------------------------------------------------
# presheaf normalizer


def from_presheaf(D, levels, action, name_fn=None, truncation="auto"):
    """Build the E-Z normal form of a truncated simplicial set presented
    by abstract level sets.

    levels: list of iterables, levels[n] the n-simplices (hashable).
    action(alpha, x): the contravariant action, alpha a value tuple
    [m] -> [n] and x in levels[n]; returns an element of levels[m].

    Level n pushes every nondegenerate k-cell y, k < n, along every
    surjection s: [n] ->> [k] and records s^*(y) as (s, y).  By the
    Eilenberg-Zilber lemma each degenerate element is recorded exactly
    once, so the unrecorded elements are the nondegenerate n-cells (kept
    in level order) and each face is normalized by one lookup.  That is
    one action per degenerate element and one per face of a
    nondegenerate cell; the tables are local to the call.  A caller
    with an action of its own calls validate() on the result.
    """
    names = []
    faces = []
    nondeg = []
    below = None  # E-Z form of every element of level n - 1
    for n in range(D + 1):
        table = {}
        for k in range(n):
            for s in all_surjections(n, k):
                for j, y in enumerate(nondeg[k]):
                    table[action(s, y)] = (s, j)
        nd = [x for x in levels[n] if x not in table]
        ident = tidentity(n)
        table.update((x, (ident, j)) for j, x in enumerate(nd))
        nondeg.append(nd)
        if name_fn is None:
            names.append(tuple(str(j) for j in range(len(nd))))
        else:
            names.append(tuple(name_fn(n, x) for x in nd))
        faces.append([tuple(below[action(face(n, i), x)]
                            for i in range(n + 1)) if n else ()
                      for x in nd])
        below = table
    if truncation == "auto":
        truncation = D
    if truncation is not None and truncation < 0:
        raise InputError("negative truncation")
    return SimplicialSet(truncation, names, faces)


# ---------------------------------------------------------------------------
# standard objects


def _subset_name(verts):
    return "-".join(str(v) for v in verts)


def _subset_complex(n, keep):
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
    return SimplicialSet(None, names, faces)


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
    """The discrete simplicial set on a finite vertex set, which must
    name each vertex once."""
    names = tuple(names)
    return SimplicialSet(None, [names], [[() for _ in names]]).validate()


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A map of simplicial sets, recorded on nondegenerate source cells.

    assignment[k][idx] is the E-Z image of the k-cell idx in the target.
    Like SimplicialSet, a record that validate() checks.
    """

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = tuple(tuple(level) for level in assignment)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source is other.source
                and self.target is other.target
                and self.assignment == other.assignment)

    def __hash__(self):
        return hash(self.assignment)

    def __repr__(self):
        return "SimplicialMap(%r -> %r)" % (self.source, self.target)

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
                    expected = self.apply(src.faces[k][idx][i])
                    got = tgt.face_of(i, value)
                    if expected != got:
                        raise InputError(
                            "map does not commute with face %d of %s"
                            % (i, src.names[k][idx]))
        return self

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
    return SimplicialMap(X, X, assignment)


def inclusion_by_names(A, X):
    """The inclusion of A into X matching cells by name, checked to be a
    map."""
    assignment = []
    for k in range(len(A.names)):
        level = []
        for name in A.names[k]:
            if name not in X._index[k]:
                raise InputError("cell %s not present in ambient object"
                                 % name)
            level.append((tidentity(k), X.cell_index(k, name)))
        assignment.append(level)
    return SimplicialMap(A, X, assignment).validate()


def map_from_cells(A, X, images):
    """Build a map from a dict {(dim, name): target simplex}."""
    assignment = []
    for k in range(len(A.names)):
        level = []
        for name in A.names[k]:
            level.append(images[(k, name)])
        assignment.append(level)
    return SimplicialMap(A, X, assignment)


# ---------------------------------------------------------------------------
# constructions


def product(X, Y, truncation=None):
    """Pointwise product, built directly in Eilenberg-Zilber form.

    A pair of n-simplices (s, x), (t, y) is nondegenerate exactly when s
    and t share no doubled index; the face (d_i a, d_i b) normalizes by
    splitting off the coarsest common surjection (Goerss-Jardine,
    Simplicial Homotopy Theory, IV.1).  Cells are named "(a|b)" and
    listed in the order of X.simplices(n) x Y.simplices(n).  Returns the
    product with its two projections.

    Each factor simplex's faces and name are read once per level, and
    each pair of face surjections is split once per call.  The cell
    ((s, x), (t, y)) of a level sits at start + x * width + y, with
    start and width fixed by (s, t), so a face is found by arithmetic."""
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
    names, faces, cells = [], [], []
    starts = []  # per level, (s, t) -> (position of ((s, 0), (t, 0)), width)
    split = {}   # (s, t) -> (sigma, start, width) of their split pair
    for n in range(D + 1):
        yblocks = _doubled_blocks(Y, n)
        ycells = {}  # the Y blocks read so far, by mask
        start, level, level_names, level_faces = {}, [], [], []
        for xmask, xs in _doubled_blocks(X, n):
            row = []
            for ymask, ys in yblocks:
                if not xmask & ymask:
                    if ymask not in ycells:
                        ycells[ymask] = _named_with_faces(Y, ys)
                    row.append((ys[0][0], ycells[ymask]))
            width = sum(len(block) for _, block in row)
            offset = len(level)
            for t, block in row:
                start[(xs[0][0], t)] = (offset, width)
                offset += len(block)
            for a, aname, fa in _named_with_faces(X, xs) if row else ():
                for _, block in row:
                    for b, bname, fb in block:
                        level.append((a, b))
                        level_names.append("(%s|%s)" % (aname, bname))
                        if not n:
                            level_faces.append(())
                            continue
                        entry = []
                        for (s, x), (t, y) in zip(fa, fb):
                            found = split.get((s, t))
                            if found is None:
                                sigma, s2, t2 = _split_common(s, t)
                                found = split[(s, t)] = (
                                    sigma,) + starts[sigma[-1]][(s2, t2)]
                            sigma, first, w = found
                            entry.append((sigma, first + x * w + y))
                        level_faces.append(tuple(entry))
        starts.append(start)
        cells.append(level)
        names.append(level_names)
        faces.append(level_faces)
    result_trunc = None if (X.truncation is None and Y.truncation is None
                            and D >= X.dim_max + Y.dim_max) else D
    if result_trunc is not None and result_trunc < 0:
        raise InputError("negative truncation")
    P = SimplicialSet(result_trunc, names, faces)
    cells = cells[:len(P.names)]
    return P, (SimplicialMap(P, X, [[a for a, _ in lv] for lv in cells]),
               SimplicialMap(P, Y, [[b for _, b in lv] for lv in cells]))


def _named_with_faces(X, simplices):
    """Each simplex of X with its name and, above dimension 0, its
    faces."""
    return [(x, X.describe(x), X.simplex_faces(x) if len(x[0]) > 1 else ())
            for x in simplices]


def _doubled(s):
    """Bit mask of the indices i with s(i) = s(i+1)."""
    return sum(1 << i for i in range(len(s) - 1) if s[i] == s[i + 1])


def _doubled_blocks(X, q):
    """The q-simplices of X as (doubled-index mask, simplices) blocks, one
    per surjection, in the order of simplices(q)."""
    def build(X):
        blocks = {}
        for x in X.simplices(q):
            blocks.setdefault(_doubled(x[0]), []).append(x)
        return list(blocks.items())
    return X.memo(("doubled_blocks", q), build)


def _split_common(s, t):
    """Factor the surjections s and t through their coarsest common
    surjection sigma: returns (sigma, s', t') with s = s' sigma and
    t = t' sigma, where s' and t' share no doubled index."""
    sigma, starts = [], []
    for j in range(len(s)):
        if j == 0 or s[j - 1] != s[j] or t[j - 1] != t[j]:
            starts.append(j)
        sigma.append(len(starts) - 1)
    return (tuple(sigma), tuple(s[j] for j in starts),
            tuple(t[j] for j in starts))


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
        for k in range(len(Y.names))])
    leg_x_assign = []
    for k in range(len(X.names)):
        level = []
        for idx in range(X.n_cells(k)):
            level.append(reroute((tidentity(k), idx)))
        leg_x_assign.append(level)
    leg_x = SimplicialMap(X, P, leg_x_assign)
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
        (s0, v0), (s1, v1) = X.face_of(1, x), X.face_of(0, x)
        ra, rb = find(v0), find(v1)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for v in range(X.n_cells(0)):
        classes.setdefault(find(v), []).append(X.names[0][v])
    return sorted(frozenset(v) for v in classes.values())


# ---------------------------------------------------------------------------
# maps that commute with faces


def _placements(B, X, fixed, iso):
    """Every way to send the nondegenerate cells of B to simplices of X,
    commuting with faces and extending fixed ({(k, idx): E-Z image}),
    as {(k, idx): image} dicts in search order.

    Each cell is placed right after the last cell under its faces, which
    prunes a wrong vertex choice early, and its candidates are one
    X.face_index(k) lookup by the images of its faces.  With iso, images
    are nondegenerate and pairwise distinct."""
    # a cell is ready once every cell under its faces is placed
    cofaces, missing = {}, {}
    for k in range(1, len(B.names)):
        for idx in range(B.n_cells(k)):
            under = {(s[-1], sub) for s, sub in B.faces[k][idx]}
            missing[(k, idx)] = len(under)
            for c in under:
                cofaces.setdefault(c, []).append((k, idx))
    order = []
    for v in range(B.n_cells(0)):
        stack = [(0, v)]
        while stack:
            c = stack.pop()
            if c not in fixed:
                order.append(c)
            for d in reversed(cofaces.get(c, ())):
                missing[d] -= 1
                if not missing[d]:
                    stack.append(d)

    # per placement: the cell, the index its candidates come from, and
    # its faces as (surjection, cell under the face)
    steps = [((k, idx), X.face_index(k) if k else None,
              [(s, (s[-1], sub)) for s, sub in B.faces[k][idx]] if k else ())
             for k, idx in order]
    assign = dict(fixed)
    used = set()
    pending = [None] * len(order)
    pos = 0
    while pos >= 0:
        if pos == len(order):
            yield dict(assign)
            pos -= 1
            continue
        cell, index, under = steps[pos]
        if pending[pos] is None:
            if index is None:
                cands = X.simplices(0)
            else:
                want = []
                for s, c in under:
                    t, w = assign[c]
                    want.append((tcompose(t, s), w))
                cands = index.get(tuple(want), ())
            pending[pos] = iter(cands)
        elif iso:
            used.discard(assign[cell])
        for w in pending[pos]:
            if iso and (w[0][-1] != cell[0] or w in used):
                continue
            assign[cell] = w
            if iso:
                used.add(w)
            pos += 1
            break
        else:
            pending[pos] = None
            pos -= 1


def lift_extensions(i, f):
    """All extensions g: B -> X of f: A -> X along an injective
    i: A -> B, ordered lexicographically by the images of B's cells in
    (k, idx) order, each image by its position in X.simplices(k)."""
    if not i.is_injective():
        raise InputError("extension problems need an injective inclusion")
    if i.source is not f.source:
        raise InputError("inclusion and partial map must share a source")
    A, B, X = i.source, i.target, f.target
    X._require_dim(B.dim_max)
    fixed = {}
    for k in range(len(A.names)):
        for idx in range(A.n_cells(k)):
            s, w = i.assignment[k][idx]
            fixed[(k, w)] = f.assignment[k][idx]
    found = [[[p[(k, idx)] for idx in range(B.n_cells(k))]
              for k in range(len(B.names))]
             for p in _placements(B, X, fixed, False)]
    # X.simplices(k) lists (t, w) by cell dimension, then t, then w
    found.sort(key=lambda a: [(t[-1], t, w) for level in a for t, w in level])
    return [SimplicialMap(B, X, a) for a in found]


def enumerate_maps(B, X):
    """All simplicial maps B -> X, in the order of lift_extensions."""
    A = empty_sset()
    return lift_extensions(SimplicialMap(A, B, [[]]),
                           SimplicialMap(A, X, [[]]))


def find_isomorphism(X, Y):
    """Search for a levelwise bijection commuting with faces; None when
    the objects are not isomorphic."""
    if (X.truncation is None) != (Y.truncation is None):
        return None
    dims = max(len(X.names), len(Y.names))
    if any(X.n_cells(k) != Y.n_cells(k) for k in range(dims)):
        return None
    p = next(_placements(X, Y, {}, True), None)
    if p is None:
        return None
    assignment = [[p[(k, idx)] for idx in range(X.n_cells(k))]
                  for k in range(len(X.names))]
    return SimplicialMap(X, Y, assignment)


def is_isomorphic(X, Y):
    return find_isomorphism(X, Y) is not None
