"""Level-finite bisimplicial sets: discrete/constant embeddings, strict
Segal checks, Rezk classification diagrams of relative categories, and an
exact completeness decision on the nerve-of-groupoid-rows subclass.

Index convention: a cell sits in bidegree (p, q) with p the outer
(category) direction carrying the Segal condition and q the inner
(space) direction; row p is the simplicial set q -> X_{p,q}.
"""

from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, sub

from . import sset
from .delta import (all_maps, degeneracy, degeneracy_decomposition, face,
                    face_decomposition, simplicial_identities, tcompose,
                    tfactorize)
from .errors import InputError, NotDecidable
from .nerve_cat import (Functor, _name_key, category_from_nerve, chains,
                        full_subcategory, generated, nerve)
from .quasicat import classify


class BisimplicialSet:
    """Bidegree-truncated levelwise-finite presheaf on a product of two
    simplex categories, stored as cell names per level with generator
    maps on cell indices.

    cells[(p, q)] is the tuple of cell names at bidegree (p, q).  Each
    structure map h_face[(p, q, i)], h_degen[(p, q, i)], v_face[(p, q, j)]
    and v_degen[(p, q, j)] holds one entry per cell at (p, q): the index
    of its image in the target level.  The constructor takes such index
    sequences (None for a table known to be broken) and keeps each table
    inside the truncation as a tuple of indices (None for a broken
    table), and raises nothing: the loader in formats calls validate(),
    as must a caller who writes tables by hand.  Names come back in
    h_map, v_map, row and as_dict, and from_names reads what as_dict
    writes.
    """

    def __init__(self, m_trunc, n_trunc, cells, h_face, h_degen, v_face,
                 v_degen):
        self.m_trunc = m_trunc
        self.n_trunc = n_trunc
        self.cells = {k: tuple(v) for k, v in cells.items()}
        self._index = {k: dict(zip(v, range(len(v))))
                       for k, v in self.cells.items()}
        self._keep_tables(_indexed, self.cells,
                          (h_face, h_degen, v_face, v_degen))

    @classmethod
    def from_names(cls, m_trunc, n_trunc, cells, h_face, h_degen, v_face,
                   v_degen):
        """The set as_dict writes, whose name tables key the cells at
        (p, q) by their names written through str and name their images.
        A table that misses a cell or names a boolean (True == 1 would
        find the cell 1) or an unhashable value is broken.  Raises only
        for two cells written alike on a level with an integer name."""
        X = cls(m_trunc, n_trunc, cells, {}, {}, {}, {})
        # a string is its own key, so only a level with an integer name
        # is written through str
        keys = dict(X.cells)
        for (p, q), names in X.cells.items():
            if int in set(map(type, names)):
                if sset._written_alike(names):
                    raise InputError("duplicate cells at (%d, %d)" % (p, q))
                keys[(p, q)] = tuple(map(str, names))
        X._keep_tables(_read_names, keys, (h_face, h_degen, v_face, v_degen))
        return X

    def level(self, p, q):
        return self.cells.get((p, q), ())

    def h_map(self, alpha, p, q, x):
        """Action of alpha: [m] -> [p] on the outer index of x at (p, q)."""
        j = self._index[(p, q)][x]
        for table in self._steps(alpha, True, p, q):
            j = table[j]
        return self.cells[(len(alpha) - 1, q)][j]

    def v_map(self, alpha, p, q, x):
        """Action of alpha: [m] -> [q] on the inner index of x at (p, q)."""
        j = self._index[(p, q)][x]
        for table in self._steps(alpha, False, p, q):
            j = table[j]
        return self.cells[(p, len(alpha) - 1)][j]

    def _steps(self, alpha, horizontal, p, q):
        """The index tables that apply alpha to the cells at (p, q), in
        the outer direction when horizontal, in the order they act."""
        if horizontal:
            return [(self.h_face if is_face else self.h_degen)[(k, q, i)]
                    for is_face, k, i in _generator_walk(alpha, p)]
        return [(self.v_face if is_face else self.v_degen)[(p, k, j)]
                for is_face, k, j in _generator_walk(alpha, q)]

    def _table(self, alpha, horizontal, p, q):
        """alpha, not an identity, on every cell at (p, q) as one index
        table: the composite of its generator steps."""
        table, *steps = self._steps(alpha, horizontal, p, q)
        for step in steps:
            table = tcompose(step, table)
        return table

    def row(self, p):
        """Row p as a SimplicialSet (inner direction)."""
        # an element of the row is (q, index of the cell at (p, q))
        levels = [[(q, j) for j in range(len(self.level(p, q)))]
                  for q in range(self.n_trunc + 1)]

        steps = {}  # (alpha, q) -> its index tables on the row

        def action(alpha, x):
            q, j = x
            walk = steps.get((alpha, q))
            if walk is None:
                walk = steps[(alpha, q)] = self._steps(alpha, False, p, q)
            for table in walk:
                j = table[j]
            return (len(alpha) - 1, j)

        return sset.from_presheaf(
            self.n_trunc, levels, action,
            name_fn=lambda q, x: self.cells[(p, q)][x[1]])

    def validate(self):
        if self.m_trunc < 0 or self.n_trunc < 0:
            raise InputError("negative truncation")
        for p in range(self.m_trunc + 1):
            for q in range(self.n_trunc + 1):
                if (p, q) not in self.cells:
                    raise InputError("missing level (%d, %d)" % (p, q))
                if len(self._index[(p, q)]) != len(self.cells[(p, q)]):
                    raise InputError("duplicate cells at (%d, %d)"
                                     % (p, q))
        self._validate_direction(True, self.h_face, self.h_degen)
        self._validate_direction(False, self.v_face, self.v_degen)
        # the two directions commute, on faces and degeneracies alike:
        # for each (p, q) the squares a[b[x]] == c[d[x]] to check, in the
        # order (i, j, faces / degeneracies / mixed); a failure names the
        # square that fails on the first cell, as a cell-by-cell scan
        # would
        M, N = self.m_trunc, self.n_trunc
        hf, hd, vf, vd = self.h_face, self.h_degen, self.v_face, self.v_degen
        for p in range(M + 1):
            for q in range(N + 1):
                squares = []
                for i in range(p + 1):
                    for j in range(q + 1):
                        if p >= 1 and q >= 1:
                            squares.append((
                                vf[(p - 1, q, j)], hf[(p, q, i)],
                                hf[(p, q - 1, i)], vf[(p, q, j)],
                                "face directions do not commute"))
                        if p < M and q < N:
                            squares.append((
                                vd[(p + 1, q, j)], hd[(p, q, i)],
                                hd[(p, q + 1, i)], vd[(p, q, j)],
                                "degeneracy directions do not commute"))
                        if p >= 1 and q < N:
                            squares.append((
                                vd[(p - 1, q, j)], hf[(p, q, i)],
                                hf[(p, q + 1, i)], vd[(p, q, j)],
                                "mixed structure maps do not commute"))
                        if p < M and q >= 1:
                            squares.append((
                                vf[(p + 1, q, j)], hd[(p, q, i)],
                                hd[(p, q - 1, i)], vf[(p, q, j)],
                                "mixed structure maps do not commute"))
                first = None  # (cell, message) of the first failure
                for a, b, c, d, what in squares:
                    left, right = tcompose(a, b), tcompose(c, d)
                    if left != right:
                        x = next(x for x, (u, v) in enumerate(
                            zip(left, right)) if u != v)
                        if first is None or x < first[0]:
                            first = (x, what)
                if first is not None:
                    raise InputError("%s at (%d, %d)" % (first[1], p, q))
        return self

    def _keep_tables(self, read, sources, tables):
        """Keep as h_face, h_degen, v_face and v_degen the four tables
        inside the truncation, each from the cells at (p, q) to those at
        (p + dp, q + dq), as read(table, sources[(p, q)], the index of
        the target level) gives it."""
        def inside(p, q):
            return 0 <= p <= self.m_trunc and 0 <= q <= self.n_trunc
        self.h_face, self.h_degen, self.v_face, self.v_degen = (
            {(p, q, i): read(table, sources.get((p, q), ()),
                             self._index.get((p + dp, q + dq), {}))
             for (p, q, i), table in maps.items()
             if inside(p, q) and inside(p + dp, q + dq)
             and 0 <= i <= (p if dq == 0 else q)}
            for maps, (dp, dq) in zip(tables, _DIRECTIONS))

    def _validate_direction(self, horizontal, faces, degens):
        """Check the face and degeneracy tables of one direction and its
        simplicial identities."""
        M = self.m_trunc if horizontal else self.n_trunc
        N = self.n_trunc if horizontal else self.m_trunc

        for other in range(N + 1):
            def pos(p):
                return (p, other) if horizontal else (other, p)

            # the tables of this row or column: maps[(True, p, i)] and
            # maps[(False, p, i)] are the face and degeneracy i at pos(p)
            maps = {}
            for p in range(1, M + 1):
                for i in range(p + 1):
                    key = pos(p) + (i,)
                    if key not in faces:
                        raise InputError("missing face table")
                    if faces[key] is None:
                        raise InputError("face table broken at level %d"
                                         % p)
                    maps[(True, p, i)] = faces[key]
            for p in range(M):
                for i in range(p + 1):
                    key = pos(p) + (i,)
                    if key not in degens:
                        raise InputError("missing degeneracy table")
                    if degens[key] is None:
                        raise InputError("degeneracy table broken")
                    maps[(False, p, i)] = degens[key]

            # the simplicial identities, each compared as whole tables
            def table(word, p):
                if not word:
                    return tuple(range(len(self.cells[pos(p)])))
                *outer, first = word
                out = maps[first]
                for g in reversed(outer):
                    out = tcompose(maps[g], out)
                return out
            for kind, p, _, _, lhs, rhs in simplicial_identities(M):
                if table(lhs, p) != table(rhs, p):
                    raise InputError("%s identity fails" % kind)

    def as_dict(self):
        """The document form, whose tables key cells by their names
        written through str: no two cells at one (p, q) may be written
        alike."""
        keys = {k: tuple(map(str, v)) for k, v in self.cells.items()}
        for p, q in sorted(keys):
            if len(set(keys[(p, q)])) != len(keys[(p, q)]):
                raise InputError("duplicate cells at (%d, %d)" % (p, q))

        def tbl(tables, dp, dq):
            return {"%d,%d,%d" % (p, q, i): dict(zip(
                keys[(p, q)], tcompose(self.cells[(p + dp, q + dq)], table)))
                for (p, q, i), table in sorted(tables.items())}
        return {
            "truncation": [self.m_trunc, self.n_trunc],
            "cells": {"%d,%d" % k: list(v)
                      for k, v in sorted(self.cells.items())},
            "h_faces": tbl(self.h_face, -1, 0),
            "h_degens": tbl(self.h_degen, 1, 0),
            "v_faces": tbl(self.v_face, 0, -1),
            "v_degens": tbl(self.v_degen, 0, 1),
        }


# the step (dp, dq) of h_face, h_degen, v_face and v_degen
_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@lru_cache(maxsize=None)
def _generator_walk(alpha, n):
    """The generator steps (is_face, level, index) that apply alpha:
    [m] -> [n] to a cell at level n, in the order they act: the faces of
    the image inclusion, then the degeneracies of the collapse."""
    epi, image = tfactorize(alpha)
    return tuple([(True, k, i) for k, i in face_decomposition(image, n)]
                 + [(False, k - 1, j)
                    for k, j in degeneracy_decomposition(epi)])


def _indexed(table, cells, target):
    """table as a tuple of indices, one per cell, each a position in the
    target level; None when it is None or does not hold one int below
    len(target) per cell."""
    if table is None:
        return None
    table = tuple(table)
    fits = (len(table) == len(cells) and set(map(type, table)) <= {int}
            and (not table or 0 <= min(table) <= max(table) < len(target)))
    return table if fits else None


def _read_names(table, keys, target):
    """The name table read on keys, those of the cells at its source,
    through target, the index of its target level (cell name ->
    position), or None when it is broken."""
    try:
        values = tcompose(table, keys)
        if bool in set(map(type, values)):
            return None
        return tcompose(target, values)
    except (KeyError, TypeError):  # a cell missing, an unhashable value
        return None


# ---------------------------------------------------------------------------
# embeddings


def embed(kind, X, N):
    """d(X): rows are the discrete sets of simplices of X; c(X): every
    row is X itself."""
    M = X.truncation if X.truncation is not None else X.dim_max
    if kind == "discrete":
        return _bisimplicial(M, N, lambda p, q: X.simplices(p), X.apply,
                             lambda alpha, x: x, X.describe)
    if kind == "constant":
        return _bisimplicial(N, M, lambda p, q: X.simplices(q),
                             lambda alpha, x: x, X.apply, X.describe)
    raise InputError("embed kind must be 'discrete' or 'constant'")


def standard_bisimplex(m, n, M, N):
    """The representable presheaf at ([m], [n]), truncated at (M, N):
    cells (p, q) are pairs of monotone maps, acted on by precomposition."""
    def name(fg):
        return "%s|%s" % tuple("".join(map(str, h)) for h in fg)
    return _bisimplicial(
        M, N, lambda p, q: [(f, g) for f in all_maps(p, m)
                            for g in all_maps(q, n)],
        lambda alpha, fg: (tcompose(fg[0], alpha), fg[1]),
        lambda alpha, fg: (fg[0], tcompose(fg[1], alpha)), name)


def _bisimplicial(M, N, level, h_act, v_act, name):
    """The bisimplicial set truncated at (M, N) whose cells at (p, q) are
    the hashable elements level(p, q), named by name: the outer operator
    alpha sends x to h_act(alpha, x) and the inner one to v_act(alpha,
    x).  Each table holds the positions of the images of one face or
    degeneracy."""
    if M < 0 or N < 0:
        raise InputError("negative truncation")
    elems = {(p, q): level(p, q) for p in range(M + 1) for q in range(N + 1)}
    index = {k: {x: j for j, x in enumerate(xs)} for k, xs in elems.items()}
    tables = ({}, {}, {}, {})  # h_face, h_degen, v_face, v_degen
    for (p, q), xs in elems.items():
        for table, (dp, dq) in zip(tables, _DIRECTIONS):
            target = index.get((p + dp, q + dq))
            k, act = (p, h_act) if dp else (q, v_act)
            for i in range(k + 1) if target is not None else ():
                alpha = face(k, i) if dp + dq < 0 else degeneracy(k + 1, i)
                table[(p, q, i)] = tcompose(target,
                                            [act(alpha, x) for x in xs])
    cells = {k: tuple(map(name, xs)) for k, xs in elems.items()}
    return BisimplicialSet(M, N, cells, *tables)


# ---------------------------------------------------------------------------
# Rezk nerve


def rezk_nerve(R, M, N):
    """The classification diagram of a relative category: a (p, q) cell
    is a commuting grid of p-chains stacked q+1 deep with vertical legs
    in the weak subcategory."""
    if M < 0 or N < 0:
        raise InputError("negative truncation")
    C = R.category
    if not R.is_composition_closed():
        raise InputError("weak arrows must be closed under composition "
                         "for the classification diagram")
    W = R.weak

    # A row is a p-chain (source, arrows), numbered densely within its
    # level p.  An edge of level p is a commuting tuple of W-verticals
    # from one row (top) to another (bottom), numbered densely in the
    # order the cells at (p, 1) are listed: a (p, 0) cell is a row id, a
    # (p, q) cell for q >= 1 a q-tuple of edge ids, each edge's bottom
    # the next one's top.  The structure maps act edge by edge, through
    # per-edge arrays built once; every table lives only in this call.
    # Names are made last.

    # rows[p] lists the rows that extend each row of level p - 1 by one
    # arrow, together and in the order of the rows they extend:
    # extensions[p - 1][r] is the range of those extending row r
    rows, extensions = chains(C, M)
    row_id = [{row: r for r, row in enumerate(level)} for level in rows]
    vertices = [[(row[0],) + tuple(C.dst[a] for a in row[1])
                 for row in level] for level in rows]
    # row_face[p][i][r] and row_degen[p][i][r]: the row ids of the i-th
    # face and degeneracy of row r at level p
    row_face = [None] + [
        [[row_id[p - 1][_chain_face(C, row, vx, i)]
          for row, vx in zip(rows[p], vertices[p])]
         for i in range(p + 1)] for p in range(1, M + 1)]
    row_degen = [
        [[row_id[p + 1][(row[0], row[1][:i] + (C.ident[vx[i]],)
                         + row[1][i:])]
          for row, vx in zip(rows[p], vertices[p])]
         for i in range(p + 1)] for p in range(M)]
    comp = C.comp  # (g, f) -> g after f
    weak_homs, closing = {}, {}

    def weak_hom(a, b):
        if (a, b) not in weak_homs:
            weak_homs[(a, b)] = [w for w in C.hom(a, b) if w in W]
        return weak_homs[(a, b)]

    def closers(a, y):
        """{h: the W-arrows w into y with w after a equal to h, in order,
        each as a 1-tuple}"""
        if (a, y) not in closing:
            by = closing[(a, y)] = {}
            for w in weak_hom(C.dst[a], y):
                by.setdefault(comp[(w, a)], []).append((w,))
        return closing[(a, y)]

    # per level p: each edge's top row, bottom row and verticals, the id
    # of each (top, bottom, verticals), the edges leaving each row, and
    # the identity edge of each row.  The verticals from top to bottom
    # are those between the rows they extend, each followed by every
    # last W-arrow w that closes the last square; listed for each top,
    # bottom by bottom, they come in the order the cells at (p, 1) do.
    tops, bottoms, verts, edge_id, leaving, id_edge = [], [], [], [], [], []
    below = None  # the level before: top -> [(bottom, its verticals)]
    for p in range(M + 1 if N >= 1 else 0):
        top_p, bottom_p, vert_p, out_p, below_p = [], [], [], [], []
        for top, (x, path) in enumerate(rows[p]):
            start = len(vert_p)
            found = []
            if p == 0:
                pairs = [(bottom, [(w,) for w in weak_hom(x, y)])
                         for bottom, y in enumerate(C.objects)]
            else:
                a = path[-1]
                pairs = []
                for prev, accs in below[row_face[p][p][top]]:
                    for bottom in extensions[p - 1][prev]:
                        b = rows[p][bottom][1][-1]
                        by = closers(a, C.dst[b])
                        vs = []
                        for acc in accs:
                            for w in by.get(comp[(b, acc[-1])], ()):
                                vs.append(acc + w)
                        pairs.append((bottom, vs))
            for bottom, vs in pairs:
                if vs:
                    found.append((bottom, vs))
                    top_p.extend([top] * len(vs))
                    bottom_p.extend([bottom] * len(vs))
                    vert_p.extend(vs)
            below_p.append(found)
            out_p.append(range(start, len(vert_p)))
        ids = dict(zip(zip(top_p, bottom_p, vert_p), range(len(vert_p))))
        tops.append(top_p)
        bottoms.append(bottom_p)
        verts.append(vert_p)
        edge_id.append(ids)
        leaving.append(out_p)
        id_edge.append([ids[(r, r, tuple(C.ident[v] for v in vx))]
                        for r, vx in enumerate(vertices[p])])
        below = below_p
    # edge_face[p][i][e] and edge_degen[p][i][e]: the edge ids of the
    # i-th face and degeneracy of edge e at level p, which drop or repeat
    # the i-th vertical; vert_cols[p][k] lists the k-th vertical of each
    # edge
    vert_cols = [list(zip(*vs)) for vs in verts]

    def edges_through(rows_to, p, verticals, q):
        """The ids at level q of the edges that run, for each edge at
        level p, between the rows rows_to sends its ends to, with the
        columns of verticals given."""
        return tcompose(edge_id[q], list(zip(
            tcompose(rows_to, tops[p]), tcompose(rows_to, bottoms[p]),
            zip(*verticals))))
    edge_face = [None] + [
        [edges_through(rf, p, vert_cols[p][:i] + vert_cols[p][i + 1:], p - 1)
         for i, rf in enumerate(row_face[p])] for p in range(1, len(verts))]
    edge_degen = [
        [edges_through(rd, p, vert_cols[p][:i + 1] + vert_cols[p][i:], p + 1)
         for i, rd in enumerate(row_degen[p])]
        for p in range(min(M, len(verts)))]

    # the cells of each bidegree in enumeration order, a (p, q) cell for
    # q >= 1 held by columns: cols[(p, q)][k] lists the k-th edge of each
    # cell.  A cell at (p, q), q >= 2, extends a cell x at (p, q - 1) by
    # an edge e leaving the bottom row of x; the cells extending x come
    # together, in the order of those edges, which are numbered densely,
    # so the cell sits at base[(p, q)][x] + e.  At q = 1 the edge id is
    # the index
    sizes, cols, base = {}, {}, {}
    for p in range(M + 1):
        sizes[(p, 0)] = len(rows[p])
        if N >= 1:
            sizes[(p, 1)] = len(verts[p])
            cols[(p, 1)] = [range(len(verts[p]))]
        for q in range(2, N + 1):
            below = cols[(p, q - 1)]
            ends = tcompose(bottoms[p], below[-1])
            first = tcompose([edges.start for edges in leaving[p]], ends)
            nexts = tcompose(leaving[p], ends)
            counts = list(map(len, nexts))
            cols[(p, q)] = [list(chain.from_iterable(map(repeat, c, counts)))
                            for c in below] + [
                list(chain.from_iterable(nexts))]
            sizes[(p, q)] = len(cols[(p, q)][-1])
            base[(p, q)] = list(map(sub, accumulate(counts, initial=0),
                                    first))

    def lookup(p, q, columns):
        """The indices at (p, q), q >= 1, of the cells whose edges are
        given by columns."""
        index = columns[0]
        for k in range(2, q + 1):
            index = list(map(add, tcompose(base[(p, k)], index),
                             columns[k - 1]))
        return index

    # composite[p][x]: the id of the edge that composes the two stacked
    # edges of the cell x at (p, 2); it runs from the top of the first to
    # the bottom of the second, its k-th vertical the k-th of the second
    # after the k-th of the first
    composite = {}
    for p in range(M + 1 if N >= 2 else 0):
        firsts, seconds = cols[(p, 2)]
        composed = zip(*[tcompose(comp, list(zip(
            tcompose(vs, seconds), tcompose(vs, firsts))))
            for vs in vert_cols[p]])
        composite[p] = tcompose(edge_id[p], list(zip(
            tcompose(tops[p], firsts), tcompose(bottoms[p], seconds),
            composed)))

    # a level without cells has no tables
    h_face, h_degen, v_face, v_degen = {}, {}, {}, {}
    for (p, q), size in sizes.items():
        if not size:
            continue
        if q == 0:
            for i in range(p + 1):
                if p >= 1:
                    h_face[(p, 0, i)] = row_face[p][i]
                if p < M:
                    h_degen[(p, 0, i)] = row_degen[p][i]
            if N >= 1:
                v_degen[(p, 0, 0)] = id_edge[p]
            continue
        # the horizontal maps send each edge through a per-edge array
        level = cols[(p, q)]
        for i in range(p + 1):
            if p >= 1:
                h_face[(p, q, i)] = lookup(p - 1, q, [
                    tcompose(edge_face[p][i], c) for c in level])
            if p < M:
                h_degen[(p, q, i)] = lookup(p + 1, q, [
                    tcompose(edge_degen[p][i], c) for c in level])
        # drop the top or bottom row, or compose the verticals on either
        # side of row j
        top_p, bottom_p = tops[p], bottoms[p]
        v_face[(p, q, 0)] = bottom_p if q == 1 else \
            lookup(p, q - 1, level[1:])
        v_face[(p, q, q)] = top_p if q == 1 else \
            lookup(p, q - 1, level[:-1])
        for j in range(1, q):
            merged = tcompose(composite[p], lookup(p, 2, level[j - 1:j + 1]))
            v_face[(p, q, j)] = lookup(p, q - 1, level[:j - 1] + [merged]
                                       + level[j + 1:])
        if q < N:
            # insert the identity edge of row j: the top row of edge 0,
            # or the bottom row of edge j - 1
            for j in range(q + 1):
                ends, k = (top_p, 0) if j == 0 else (bottom_p, j - 1)
                v_degen[(p, q, j)] = lookup(p, q + 1, level[:j] + [
                    tcompose(id_edge[p], tcompose(ends, level[k]))]
                    + level[j:])

    # names last, in enumeration order: "[rows|verticals]", rows joined
    # by ";" as "source:arrows", each vertical tuple joined by ","
    cells = {}
    for p in range(M + 1):
        row_names = ["%s:%s" % (x, ",".join(map(str, path)))
                     for x, path in rows[p]]
        cells[(p, 0)] = tuple("[%s|]" % name for name in row_names)
        if N < 1:
            continue
        lower_names = [";" + row_names[b] for b in bottoms[p]]
        vert_names = list(map(",".join, zip(*[map(str, c)
                                              for c in vert_cols[p]])))
        for q in range(1, N + 1):
            level = cols[(p, q)]
            cells[(p, q)] = tuple(map("[%s%s|%s]".__mod__, zip(
                tcompose(row_names, tcompose(tops[p], level[0])),
                map("".join, zip(*[tcompose(lower_names, c)
                                   for c in level])),
                map(";".join, zip(*[tcompose(vert_names, c)
                                    for c in level])))))
    return BisimplicialSet(M, N, cells, h_face, h_degen, v_face, v_degen)


def _chain_face(C, row, vertices, i):
    """The i-th face of the chain row = (source, arrows) of a category C:
    drop the first or last vertex, or compose across vertex i."""
    x, chain = row
    if i == 0:
        return (vertices[1], chain[1:])
    if i == len(chain):
        return (x, chain[:-1])
    return (x, chain[:i - 1] + (C.compose(chain[i], chain[i - 1]),)
            + chain[i + 1:])


# ---------------------------------------------------------------------------
# Segal and completeness checks


class SegalReport:
    def __init__(self, verdict, failures):
        self.verdict = verdict
        self.failures = failures


def strict_segal_check(X):
    """Levelwise bijectivity of the spine-restriction map on rows, for
    2 <= p <= outer truncation."""
    if X.m_trunc < 2:
        raise InputError("need outer truncation >= 2")
    failures = []
    for p in range(2, X.m_trunc + 1):
        for q in range(X.n_trunc + 1):
            # the spine of each cell: its p edges (i, i + 1), as indices
            # at (1, q), one composed table per edge
            spines = list(zip(*[X._table((i, i + 1), True, p, q)
                                for i in range(p)]))
            image = set(spines)
            if len(image) != len(spines):
                failures.append({"p": p, "q": q, "reason": "not injective"})
                continue
            for combo in _spine_tuples(X, p, q):
                if combo not in image:
                    failures.append({"p": p, "q": q,
                                     "reason": "not surjective"})
                    break
    return SegalReport(not failures, failures)


def _spine_tuples(X, p, q):
    """All compatible p-tuples of level-(1, q) cells, as indices,
    generated lazily in lexicographic order."""
    source = X._table((0,), True, 1, q)
    target = X._table((1,), True, 1, q)
    by_source = {}
    for e, v in enumerate(source):
        by_source.setdefault(v, []).append(e)
    # a chain of generators, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep its tables
    # alive until the cyclic garbage collector runs
    tuples = ((e,) for e in range(len(source)))
    for _ in range(p - 1):
        tuples = (t + (e,) for t in tuples
                  for e in by_source.get(target[t[-1]], ()))
    return tuples


class CompletenessReport:
    def __init__(self, verdict, reason, details=None):
        self.verdict = verdict
        self.reason = reason
        self.details = details or {}

    def __bool__(self):
        return bool(self.verdict)


def _row_category(row, d):
    """(category, None) when the row is the nerve of a category up to
    dimension d, with the levelwise count check; (None, reason)
    otherwise."""
    if not classify(row, d, "inner").all_unique():
        return None, "row is not nerve-like (inner fillers not unique)"
    try:
        C = category_from_nerve(row)
    except InputError as e:
        return None, "row does not assemble to a category: %s" % e
    NC = nerve(C, d)
    for q in range(d + 1):
        if len(NC.simplices(q)) != len(row.simplices(q)):
            return None, "row disagrees with the nerve of its category"
    return C, None


def completeness_check(X):
    """Exact completeness decision for bisimplicial sets whose rows 0
    and 1 are nerves of finite groupoids: compute the equivalence
    subobject of row 1 through the strict homotopy category, then decide
    whether the degeneracy from row 0 is an equivalence of groupoids."""
    segal = strict_segal_check(X)
    if not segal.verdict:
        return NotDecidable("strict Segal condition fails: %r"
                            % segal.failures[:1])
    if X.n_trunc < 2:
        return NotDecidable("inner truncation below 2")
    row0 = X.row(0)
    row1 = X.row(1)
    C0, why = _row_category(row0, min(3, row0.truncation))
    if C0 is None:
        return NotDecidable("row 0: %s" % why)
    if not C0.is_groupoid():
        return NotDecidable("row 0: row category is not a groupoid")
    # homotopy category of the Segal object: objects X_{0,0}, arrows
    # pi_0 of the strict mapping fibers inside row 1; cells are indices
    vertices1 = X.level(1, 0)
    source, target = (X._table((k,), True, 1, 0) for k in (0, 1))
    # fiber edges: inner edges of row 1 whose horizontal faces are
    # vertically degenerate edges of row 0 (identity shadows)
    degenerate_edges0 = set(X.v_degen[(0, 0, 0)])
    h1, h0, f1, g1 = (X._table((k,), horizontal, 1, 1)
                      for horizontal in (True, False) for k in (0, 1))
    find = sset.union_find(list(range(len(vertices1))), [
        (f1[e], g1[e]) for e in range(len(X.level(1, 1)))
        if h1[e] in degenerate_edges0 and h0[e] in degenerate_edges0])
    # composition through the strict Segal bijection at (2, 0)
    comp_table = {}
    for f, g, h in zip(*[X._table(a, True, 2, 0)
                         for a in ((0, 1), (1, 2), (0, 2))]):
        if comp_table.setdefault((find(f), find(g)), find(h)) != find(h):
            return NotDecidable("composition not single-valued on "
                                "homotopy classes")
    # the class category: every composable pair of class roots is the
    # spine of a 2-cell by strict Segal at (2, 0), so comp_table holds
    # each composite; identities are the classes of degenerate vertices
    ident = [find(f) for f in X.h_degen[(0, 0, 0)]]
    Ho = generated(
        range(len(ident)),
        [(c, source[c], target[c], c)
         for c in sorted({find(f) for f in range(len(vertices1))})],
        dict(enumerate(ident)), lambda g, f: comp_table[(f, g)])
    invertible = {c for c in Ho.arrows if Ho.is_iso(c)}
    equivalence_vertices = {vertices1[f] for f in range(len(vertices1))
                            if find(f) in invertible}
    # row-1 category and its full subcategory on equivalence vertices
    C1, why = _row_category(row1, 2)
    if C1 is None:
        return NotDecidable("row 1: %s" % why)
    E = full_subcategory(C1, sorted(equivalence_vertices, key=_name_key))
    if not E.is_groupoid():
        return NotDecidable("equivalence subobject is not a groupoid")
    # the degeneracy functor row0 -> E
    obj_map = {}
    for x in C0.objects:
        obj_map[x] = X.h_map((0, 0), 0, 0, x)
        if obj_map[x] not in E.objects:
            return NotDecidable("degeneracy image is not an equivalence")

    arr_map = {}
    for a in C0.arrows:
        if C0.is_identity(a):
            arr_map[a] = E.ident[obj_map[C0.src[a]]]
            continue
        # the outer degeneracy of a nondegenerate edge is nondegenerate in
        # row 1 (a mixed identity), so an arrow of C1
        arr_map[a] = X.h_map((0, 0), 0, 1, a)
    try:
        Functor(C0, E, obj_map, arr_map).validate()
    except InputError as e:
        return NotDecidable("degeneracy is not a functor: %s" % e)
    # essential surjectivity: E is a groupoid, so any arrow is an iso
    for y in E.objects:
        if not any(E.hom(obj_map[x], y) for x in C0.objects):
            return CompletenessReport(
                False, "object class %s not hit up to isomorphism" % y,
                {"witness": y})
    # fully faithful
    for x in C0.objects:
        for y in C0.objects:
            dom = C0.hom(x, y)
            cod = E.hom(obj_map[x], obj_map[y])
            images = [arr_map[a] for a in dom]
            if len(set(images)) != len(dom) or set(images) != set(cod):
                return CompletenessReport(
                    False, "degeneracy not fully faithful at (%s, %s)"
                    % (x, y), {"hom_source": len(dom),
                               "hom_target": len(cod)})
    return CompletenessReport(True, "degeneracy is an equivalence of "
                              "groupoids")
