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
(``SimplicialSet.face_block``).  Simplices are looked up by their faces
in one index on those ranks (``SimplicialSet.face_index``).
"""

from functools import lru_cache
from itertools import accumulate, chain
from operator import add, le

from .delta import (all_surjections, face, face_identities,
                    opposite as reversal, tcompose, tfactorize, tidentity)
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
            (s, idx) for k, level in enumerate(X.names[:n + 1]) if level
            for s in all_surjections(n, k)
            for idx in range(len(level))))

    def simplex_faces(self, simplex):
        return tuple(self.face_of(i, simplex) for i in range(len(simplex[0])))

    def face_index(self, m, positions):
        """{(d_i w for i in positions): the ranks of the m-simplices w
        with those faces, ascending}, m >= 1 and positions nonempty; w
        and its faces are ranks of ranked(m) and ranked(m - 1).  The one
        index of simplices by their faces: the map search, the horn
        search, Ho(X) and nerve_cat.category_from_nerve read it."""
        def build(X):
            faces = X.ranked(m)[1]
            index = {}
            for w, key in enumerate(zip(*[faces[i] for i in positions])):
                index.setdefault(key, []).append(w)
            return index
        return self.memo(("face_index", m, positions), build)

    def block_bases(self, m):
        """{s: rank of (s, 0)} over the surjections s: [m] ->> [k] onto
        the levels k that have cells, in sorted order.  The simplex
        (s, idx) has rank base[s] + idx in the sorted order of the
        m-simplices."""
        def build(X):
            sizes = list(map(len, X.names))
            surjections, dims = _sorted_surjections(m, tuple(
                k for k, size in enumerate(sizes[:m + 1]) if size))
            return dict(zip(surjections, accumulate(
                tcompose(sizes, dims), initial=0)))
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
            stored = X.face_columns(s[-1])
            cols = []
            for i in range(len(s)):
                v, rest = _dropped(s, i)
                if v < 0:
                    b = below[rest]
                    cols.append(range(b, b + n))
                else:
                    ts, subs = stored[v]
                    if rest[-1] == len(rest) - 1:  # s is an identity
                        base = below
                    else:
                        base = {t: below[tcompose(t, rest)]
                                for t in set(ts)}
                    cols.append(list(map(add, tcompose(base, ts), subs)))
            return cols
        return self.memo(("block", s), build)

    def face_columns(self, k):
        """The stored faces of the k-cells, k >= 1, as columns:
        columns[v] = (ts, subs) with (ts[idx], subs[idx]) = d_v of the
        cell idx."""
        return self.memo(("columns", k), lambda X: [
            tuple(zip(*col)) for col in zip(*X.faces[k])])

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
                blocks = list(map(X.face_block, bases))
                for i in range(m + 1):
                    col = []
                    for cols in blocks:
                        col.extend(cols[i])
                    faces.append(col)
            natural = [r for k, size in enumerate(sizes[:m + 1]) if size
                       for s in all_surjections(m, k)
                       for r in range(bases[s], bases[s] + size)]
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
        """The face identities d_i d_j = d_{j-1} d_i for i < j, as
        delta.face_identities lists them, a whole column at a time.

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
            columns = self.face_columns(k)
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
                stored = [list(map(add, tcompose(first, ss), subs))
                          for ss, subs in columns]
            # d_a d_b = d_c d_e, read off the words of each identity
            identities = [(i, j, a, b, c, e) for i, j, ((_, _, a), (_, _, b)),
                          ((_, _, c), (_, _, e)) in face_identities(k)]
            if all(tcompose(down[a], stored[b]) == tcompose(down[c], stored[e])
                   for _, _, a, b, c, e in identities):
                continue
            for idx in range(len(entries)):
                for i, j, a, b, c, e in identities:
                    if down[a][stored[b][idx]] != down[c][stored[e][idx]]:
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


@lru_cache(maxsize=256)
def _sorted_surjections(m, dims):
    """The surjections s: [m] ->> [k], k in dims, in sorted order, and
    the k of each."""
    surjections = sorted(s for k in dims for s in all_surjections(m, k))
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


def from_presheaf(D, levels, action, name_fn, truncation="auto"):
    """Build the E-Z normal form of a truncated simplicial set presented
    by abstract level sets.

    levels: list of iterables, levels[n] the n-simplices (hashable).
    action(alpha, x): the contravariant action, alpha a value tuple
    [m] -> [n] and x in levels[n]; returns an element of levels[m].
    name_fn(n, x): the name of the nondegenerate n-cell x.

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
            for s in all_surjections(n, k) if nondeg[k] else ():
                for j, y in enumerate(nondeg[k]):
                    table[action(s, y)] = (s, j)
        nd = [x for x in levels[n] if x not in table]
        ident = tidentity(n)
        table.update((x, (ident, j)) for j, x in enumerate(nd))
        nondeg.append(nd)
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


def chain_nerve(elements, leq, keep=None):
    """(levels, index, faces) of the nerve of a finite poset listed in
    order, on the strict chains that keep accepts (every chain when keep
    is None; keep must accept each face of a chain it accepts): levels[k]
    lists the kept chains of k + 1 elements, each chain of levels[k - 1]
    followed by its kept extensions in element order; index[k] finds a
    chain's cell and faces[k] holds the face entries.  For range(n + 1)
    the chains come in lexicographic order."""
    above = {a: [b for b in elements if a != b and leq(a, b)]
             for a in elements}
    levels = []
    level = [(e,) for e in elements]
    while True:
        if keep is not None:
            level = list(filter(keep, level))
        if not level:
            break
        levels.append(level)
        level = [c + (e,) for c in level for e in above[c[-1]]]
    index = [{c: j for j, c in enumerate(level)} for level in levels]
    faces = [[()] * len(level) for level in levels[:1]]
    for k in range(1, len(levels)):
        ident, below = tidentity(k - 1), index[k - 1]
        faces.append([tuple((ident, below[c[:i] + c[i + 1:]])
                            for i in range(k + 1)) for c in levels[k]])
    return levels, index, faces


def _subset_complex(n, keep):
    """Simplicial subset of the standard n-simplex spanned by the vertex
    subsets for which keep(verts) is true (all of them when keep is
    None)."""
    levels, _, faces = chain_nerve(range(n + 1), le, keep)
    return SimplicialSet(None, [tuple(map(_subset_name, level))
                                for level in levels], faces)


def standard_simplex(n):
    return _subset_complex(n, None)


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


def empty_sset():
    return SimplicialSet(None, [()], [[]])


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

    def apply(self, simplex):
        """Image of an arbitrary E-Z simplex of the source: the stored
        image itself for a nondegenerate one."""
        s, idx = simplex
        image = self.assignment[s[-1]][idx]
        if len(s) - 1 == s[-1]:
            return image
        return (tcompose(image[0], s), image[1])

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
        truncation = _least_truncation(X, Y)
    if truncation is None:
        truncation = X.dim_max + Y.dim_max if X.dim_max >= 0 and \
            Y.dim_max >= 0 else 0
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
    per surjection s: [q] ->> [k] onto a level with cells, in the order
    of simplices(q): the block of s is (s, idx) for every k-cell idx."""
    def build(X):
        X._require_dim(q)
        return [(_doubled(s), [(s, idx) for idx in range(len(level))])
                for k, level in enumerate(X.names[:q + 1]) if level
                for s in all_surjections(q, k)]
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


def _least_truncation(X, Y):
    """The lesser truncation of X and Y, or None when neither is
    truncated."""
    return min((t for t in (X.truncation, Y.truncation) if t is not None),
               default=None)


def _union_truncation(X, Y):
    """The truncation of a set holding every cell of X and of Y: their
    lesser truncation, refused when either has cells above it."""
    trunc = _least_truncation(X, Y)
    if trunc is not None and max(len(X.names), len(Y.names)) > trunc + 1:
        raise InputError("cells above the least truncation %d" % trunc)
    return trunc


def disjoint_union(X, Y):
    trunc = _union_truncation(X, Y)
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
    trunc = _union_truncation(X, Y)
    # image of A in X, per dimension
    image = []
    for k in range(len(X.names)):
        img = {}
        if k < len(A.names):
            for idx in range(A.n_cells(k)):
                s, w = f.assignment[k][idx]
                img[w] = idx
        image.append(img)
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
        return X.apply(reversal(alpha, simplex_dim(simplex)), simplex)

    def name_fn(n, simplex):
        return X.describe(simplex)

    return from_presheaf(D, levels, action, name_fn=name_fn,
                         truncation=X.truncation if X.truncation is None
                         else D)


def union_find(parent, pairs):
    """Merge the classes of each pair (a, b) in turn, putting the root of
    a's class under the root of b's, and return find, which gives the
    root of a key's class.  parent maps each key to its parent (a root to
    itself) and is updated in place."""
    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return find


def pi0(X):
    """Vertex classes under edge connectivity; returns a list of frozen
    vertex-name sets."""
    edges = [(tidentity(1), idx) for idx in range(X.n_cells(1))]
    find = union_find(list(range(X.n_cells(0))),
                      [(X.face_of(1, x)[1], X.face_of(0, x)[1])
                       for x in edges])
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
    X.face_index lookup by the ranks of the images of its faces, in
    ascending rank.  With iso, images are nondegenerate and pairwise
    distinct."""
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

    # per placement above dimension 0: the cell, its faces as
    # (surjection, cell under the face), the index its candidates come
    # from, the block bases that rank a face image and the simplices by
    # rank
    steps = [((k, idx), [(s, (s[-1], sub)) for s, sub in B.faces[k][idx]],
              X.face_index(k, tuple(range(k + 1))).get, X.block_bases(k - 1),
              X.ranked(k)[0]) if k else ((k, idx), (), None, None, None)
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
        cell, under, index, bases, simplices = steps[pos]
        if pending[pos] is None:
            if index is None:
                pending[pos] = iter(X.simplices(0))
            else:
                want = []
                for s, c in under:
                    t, w = assign[c]
                    want.append(bases[tcompose(t, s)] + w)
                pending[pos] = map(simplices.__getitem__,
                                   index(tuple(want), ()))
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
