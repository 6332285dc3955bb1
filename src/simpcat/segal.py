"""Level-finite bisimplicial sets: discrete/constant embeddings, strict
Segal checks, Rezk classification diagrams of relative categories, and an
exact completeness decision on the nerve-of-groupoid-rows subclass.

Index convention: a cell sits in bidegree (p, q) with p the outer
(category) direction carrying the Segal condition and q the inner
(space) direction; row p is the simplicial set q -> X_{p,q}.
"""

from functools import lru_cache

from . import sset
from .delta import (all_maps, degeneracy, degeneracy_decomposition, face,
                    face_decomposition, tcompose, tfactorize)
from .errors import InputError, NotDecidable
from .nerve_cat import (FinCategory, Functor, category_from_nerve,
                        full_subcategory, nerve)
from .quasicat import classify


class BisimplicialSet:
    """Bidegree-truncated levelwise-finite presheaf on a product of two
    simplex categories, stored as cell names per level with generator
    maps on cell indices.

    cells[(p, q)] is the tuple of cell names at bidegree (p, q).  Each
    structure map h_face[(p, q, i)], h_degen[(p, q, i)], v_face[(p, q, j)]
    and v_degen[(p, q, j)] holds one entry per cell at (p, q): the index
    of its image in the target level.  The constructor takes such index
    sequences or name tables (dicts from cell names to cell names) and
    keeps each table inside the truncation as a tuple of indices (None
    for a broken name table), and checks nothing: the loader in formats calls
    validate(), as must a caller who writes tables by hand.  Names come
    back in h_map, v_map, row and as_dict.
    """

    def __init__(self, m_trunc, n_trunc, cells, h_face, h_degen, v_face,
                 v_degen):
        self.m_trunc = m_trunc
        self.n_trunc = n_trunc
        self.cells = {k: tuple(v) for k, v in cells.items()}
        self._index = {k: dict(zip(v, range(len(v))))
                       for k, v in self.cells.items()}
        self.h_face = self._indexed_tables(h_face, -1, 0)
        self.h_degen = self._indexed_tables(h_degen, 1, 0)
        self.v_face = self._indexed_tables(v_face, 0, -1)
        self.v_degen = self._indexed_tables(v_degen, 0, 1)

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
            table = list(map(step.__getitem__, table))
        return table

    def row(self, p):
        """Row p as a SimplicialSet (inner direction)."""
        # an element of the row is (q, index of the cell at (p, q))
        levels = [[(q, j) for j in range(len(self.level(p, q)))]
                  for q in range(self.n_trunc + 1)]

        def action(alpha, x):
            q, j = x
            for table in self._steps(alpha, False, p, q):
                j = table[j]
            return (len(alpha) - 1, j)

        return sset.from_presheaf(
            self.n_trunc, levels, action,
            name_fn=lambda q, x: str(self.cells[(p, q)][x[1]]))

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
                first = None  # (cell, message) of the first failure
                for a, b, c, d, what in squares:
                    left = list(map(a.__getitem__, b))
                    right = list(map(c.__getitem__, d))
                    if left != right:
                        x = next(x for x, (u, v) in enumerate(
                            zip(left, right)) if u != v)
                        if first is None or x < first[0]:
                            first = (x, what)
                if first is not None:
                    raise InputError("%s at (%d, %d)" % (first[1], p, q))
        return self

    def _indexed_tables(self, tables, dp, dq):
        """The tables inside the truncation, each from the cells at (p, q)
        to those at (p + dp, q + dq), as _indexed keeps them."""
        def inside(p, q):
            return 0 <= p <= self.m_trunc and 0 <= q <= self.n_trunc
        return {(p, q, i): _indexed(table, self.cells.get((p, q), ()),
                                    self._index.get((p + dp, q + dq), {}))
                for (p, q, i), table in tables.items()
                if inside(p, q) and inside(p + dp, q + dq)
                and 0 <= i <= (p if dq == 0 else q)}

    def _validate_direction(self, horizontal, faces, degens):
        """Check the face and degeneracy tables of one direction and its
        simplicial identities."""
        M = self.m_trunc if horizontal else self.n_trunc
        N = self.n_trunc if horizontal else self.m_trunc

        for other in range(N + 1):
            def pos(p):
                return (p, other) if horizontal else (other, p)

            # the tables of this row or column: d[(p, i)] and s[(p, i)]
            # are the face and degeneracy i at pos(p)
            d, s = {}, {}
            for p in range(1, M + 1):
                cells, target = self.cells[pos(p)], self.cells[pos(p - 1)]
                for i in range(p + 1):
                    key = pos(p) + (i,)
                    if key not in faces:
                        raise InputError("missing face table")
                    if not _fits(faces[key], cells, target):
                        raise InputError("face table broken at level %d"
                                         % p)
                    d[(p, i)] = faces[key]
            for p in range(M):
                cells, target = self.cells[pos(p)], self.cells[pos(p + 1)]
                for i in range(p + 1):
                    key = pos(p) + (i,)
                    if key not in degens:
                        raise InputError("missing degeneracy table")
                    if not _fits(degens[key], cells, target):
                        raise InputError("degeneracy table broken")
                    s[(p, i)] = degens[key]
            # simplicial identities, each compared as whole tables
            for p in range(2, M + 1):
                for j in range(1, p + 1):
                    for i in range(j):
                        if not _commutes(d[(p - 1, i)], d[(p, j)],
                                         d[(p - 1, j - 1)], d[(p, i)]):
                            raise InputError("face identity fails")
            for p in range(M - 1):
                for j in range(p + 1):
                    for i in range(j + 1):
                        if not _commutes(s[(p + 1, i)], s[(p, j)],
                                         s[(p + 1, j + 1)], s[(p, i)]):
                            raise InputError("degeneracy identity fails")
            for p in range(M):
                identity = list(range(len(self.cells[pos(p)])))
                for j in range(p + 1):
                    for i in range(p + 2):
                        di, sj = d[(p + 1, i)], s[(p, j)]
                        if i == j or i == j + 1:
                            ok = list(map(di.__getitem__, sj)) == identity
                        elif i < j:
                            ok = _commutes(di, sj, s[(p - 1, j - 1)],
                                           d[(p, i)])
                        else:
                            ok = _commutes(di, sj, s[(p - 1, j)],
                                           d[(p, i - 1)])
                        if not ok:
                            raise InputError("mixed identity fails")

    def as_dict(self):
        """The document form, whose tables key cells by name: no two
        cells at one (p, q) may be written alike by str."""
        for p, q in sorted(self.cells):
            if sset._written_alike(self.cells[(p, q)]):
                raise InputError("duplicate cells at (%d, %d)" % (p, q))

        def tbl(tables, dp, dq):
            return {"%d,%d,%d" % (p, q, i): dict(zip(
                self.cells[(p, q)],
                map(self.cells[(p + dp, q + dq)].__getitem__, table)))
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

    def __repr__(self):
        return "BisimplicialSet(%dx%d)" % (self.m_trunc, self.n_trunc)


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
    """table as a tuple of indices.  A name table (a dict) is read on
    cells through target, the index of the target level (cell name ->
    position), and gives None when it misses a cell or names a boolean,
    as True == 1 would find the cell 1, or an unhashable value; an index
    table is kept as given, for _fits to check."""
    if not isinstance(table, dict):
        return tuple(table)
    try:
        values = list(map(table.__getitem__, cells))
        if bool in set(map(type, values)):
            return None
        return tuple(map(target.__getitem__, values))
    except (KeyError, TypeError):  # a cell missing, an unhashable value
        return None


def _fits(table, cells, target):
    """Whether table, as _indexed keeps it, holds one int per cell that
    is a position in the target level."""
    return (table is not None and len(table) == len(cells)
            and set(map(type, table)) <= {int}
            and (not table or 0 <= min(table) <= max(table) < len(target)))


def _commutes(a, b, c, d):
    """Whether a[b[x]] == c[d[x]] for every cell x, b and d being index
    tables on the same cells."""
    return list(map(a.__getitem__, b)) == list(map(c.__getitem__, d))


# ---------------------------------------------------------------------------
# embeddings


def embed(kind, X, N):
    """d(X): rows are the discrete sets of simplices of X; c(X): every
    row is X itself."""
    if kind == "discrete":
        M = X.truncation if X.truncation is not None else X.dim_max
        if M < 0 or N < 0:
            raise InputError("negative truncation")
        cells = {}
        h_face = {}
        h_degen = {}
        v_face = {}
        v_degen = {}
        for p in range(M + 1):
            names = [X.describe(s) for s in X.simplices(p)]
            for q in range(N + 1):
                cells[(p, q)] = tuple(names)
                for j in range(q + 1):
                    if q >= 1:
                        v_face[(p, q, j)] = {n: n for n in names}
                    if q < N:
                        v_degen[(p, q, j)] = {n: n for n in names}
            for q in range(N + 1):
                if p >= 1:
                    for i in range(p + 1):
                        h_face[(p, q, i)] = {
                            X.describe(s): X.describe(
                                X.face_of(i, s))
                            for s in X.simplices(p)}
                if p < M:
                    for i in range(p + 1):
                        h_degen[(p, q, i)] = {
                            X.describe(s): X.describe(
                                X.apply(degeneracy(p + 1, i), s))
                            for s in X.simplices(p)}
        return BisimplicialSet(M, N, cells, h_face, h_degen, v_face,
                               v_degen)
    if kind == "constant":
        return _transposed(embed("discrete", X, N))
    raise InputError("embed kind must be 'discrete' or 'constant'")


def _transposed(X):
    """X with its two directions swapped: the cell at (p, q) moves to
    (q, p), and the horizontal tables trade places with the vertical
    ones.  The transpose of a bisimplicial set is one."""
    def swap(table):
        return {(q, p, i): m for (p, q, i), m in table.items()}
    return BisimplicialSet(
        X.n_trunc, X.m_trunc, {(q, p): c for (p, q), c in X.cells.items()},
        swap(X.v_face), swap(X.v_degen), swap(X.h_face), swap(X.h_degen))


def standard_bisimplex(m, n, M, N):
    """The representable presheaf at ([m], [n]), truncated at (M, N):
    cells (p, q) are pairs of monotone maps."""
    if M < 0 or N < 0:
        raise InputError("negative truncation")
    cells = {}
    h_face = {}
    h_degen = {}
    v_face = {}
    v_degen = {}

    def name(fg):
        f, g = fg
        return "%s|%s" % ("".join(str(v) for v in f),
                          "".join(str(v) for v in g))

    level_elems = {}
    for p in range(M + 1):
        for q in range(N + 1):
            elems = [(f, g) for f in all_maps(p, m) for g in all_maps(q, n)]
            level_elems[(p, q)] = elems
            cells[(p, q)] = tuple(name(e) for e in elems)
    for p in range(M + 1):
        for q in range(N + 1):
            for (f, g) in level_elems[(p, q)]:
                if p >= 1:
                    for i in range(p + 1):
                        nf = tcompose(f, face(p, i))
                        h_face.setdefault((p, q, i), {})[
                            name((f, g))] = name((nf, g))
                if p < M:
                    for i in range(p + 1):
                        nf = tcompose(f, degeneracy(p + 1, i))
                        h_degen.setdefault((p, q, i), {})[
                            name((f, g))] = name((nf, g))
                if q >= 1:
                    for j in range(q + 1):
                        ng = tcompose(g, face(q, j))
                        v_face.setdefault((p, q, j), {})[
                            name((f, g))] = name((f, ng))
                if q < N:
                    for j in range(q + 1):
                        ng = tcompose(g, degeneracy(q + 1, j))
                        v_degen.setdefault((p, q, j), {})[
                            name((f, g))] = name((f, ng))
    return BisimplicialSet(M, N, cells, h_face, h_degen, v_face, v_degen)


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
    rows = [[(x, ()) for x in C.objects]]
    extensions = []
    for p in range(1, M + 1):
        level, spans = [], []
        for x, chain in rows[-1]:
            tail = C.dst[chain[-1]] if chain else x
            start = len(level)
            level.extend((x, chain + (a,)) for a in C.arrows
                         if C.src[a] == tail)
            spans.append(range(start, len(level)))
        rows.append(level)
        extensions.append(spans)
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
    weak_homs = {}

    def weak_hom(a, b):
        if (a, b) not in weak_homs:
            weak_homs[(a, b)] = [w for w in C.hom(a, b) if w in W]
        return weak_homs[(a, b)]

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
        for top, (x, chain) in enumerate(rows[p]):
            start = len(vert_p)
            found = []
            if p == 0:
                pairs = [(bottom, [(w,) for w in weak_hom(x, y)])
                         for bottom, y in enumerate(C.objects)]
            else:
                a = chain[-1]
                pairs = []
                for prev, accs in below[row_face[p][p][top]]:
                    for bottom in extensions[p - 1][prev]:
                        b = rows[p][bottom][1][-1]
                        ws = weak_hom(C.dst[a], C.dst[b])
                        vs = []
                        for acc in accs:
                            closes = comp[(b, acc[-1])]
                            vs.extend(acc + (w,) for w in ws
                                      if comp[(w, a)] == closes)
                        pairs.append((bottom, vs))
            for bottom, vs in pairs:
                if vs:
                    found.append((bottom, vs))
                    top_p.extend([top] * len(vs))
                    bottom_p.extend([bottom] * len(vs))
                    vert_p.extend(vs)
            below_p.append(found)
            out_p.append(range(start, len(vert_p)))
        ids = {key: e for e, key in enumerate(zip(top_p, bottom_p, vert_p))}
        tops.append(top_p)
        bottoms.append(bottom_p)
        verts.append(vert_p)
        edge_id.append(ids)
        leaving.append(out_p)
        id_edge.append([ids[(r, r, tuple(C.ident[v] for v in vx))]
                        for r, vx in enumerate(vertices[p])])
        below = below_p
    # edge_face[p][i][e] and edge_degen[p][i][e]: the edge ids of the
    # i-th face and degeneracy of edge e at level p
    edge_face = [None] + [
        [[edge_id[p - 1][(rf[t], rf[b], v[:i] + v[i + 1:])]
          for t, b, v in zip(tops[p], bottoms[p], verts[p])]
         for i, rf in enumerate(row_face[p])] for p in range(1, len(verts))]
    edge_degen = [
        [[edge_id[p + 1][(rd[t], rd[b], v[:i + 1] + v[i:])]
          for t, b, v in zip(tops[p], bottoms[p], verts[p])]
         for i, rd in enumerate(row_degen[p])]
        for p in range(min(M, len(verts)))]

    # the cells of each bidegree in enumeration order, and for q >= 2 the
    # index of each cell's edge tuple; at q = 1 the edge id is the index
    grids, index = {}, {}
    for p in range(M + 1):
        grids[(p, 0)] = range(len(rows[p]))
        if N >= 1:
            grids[(p, 1)] = [(e,) for e in range(len(verts[p]))]
        for q in range(2, N + 1):
            out_p, bottom_p = leaving[p], bottoms[p]
            grids[(p, q)] = [c + (e,) for c in grids[(p, q - 1)]
                             for e in out_p[bottom_p[c[-1]]]]
            index[(p, q)] = dict(zip(grids[(p, q)],
                                     range(len(grids[(p, q)]))))

    def lookup(p, q, cells):
        """The indices at (p, q), q >= 1, of cells given as edge tuples."""
        if q == 1:
            return [c[0] for c in cells]
        return list(map(index[(p, q)].__getitem__, cells))

    def edgewise(per_edge, p, q, level):
        """The indices at (p, q) of the cells of level, q >= 1, with each
        edge sent through the array per_edge."""
        if q == 1:
            return per_edge
        return lookup(p, q, [tuple(map(per_edge.__getitem__, c))
                             for c in level])

    # a level without cells has no tables
    h_face, h_degen, v_face, v_degen = {}, {}, {}, {}
    composite = [{} for _ in verts]  # (edge, edge below) -> composite
    for (p, q), level in grids.items():
        if not level:
            continue
        if p >= 1:
            for i in range(p + 1):
                h_face[(p, q, i)] = row_face[p][i] if q == 0 else \
                    edgewise(edge_face[p][i], p - 1, q, level)
        if p < M:
            for i in range(p + 1):
                h_degen[(p, q, i)] = row_degen[p][i] if q == 0 else \
                    edgewise(edge_degen[p][i], p + 1, q, level)
        if q >= 1:
            # drop the top or bottom row, or compose the verticals on
            # either side of row j
            top_p, bottom_p, vert_p = tops[p], bottoms[p], verts[p]
            for j in range(q + 1):
                if j == 0:
                    v_face[(p, q, j)] = bottom_p if q == 1 else \
                        lookup(p, q - 1, [c[1:] for c in level])
                    continue
                if j == q:
                    v_face[(p, q, j)] = top_p if q == 1 else \
                        lookup(p, q - 1, [c[:-1] for c in level])
                    continue
                faces = []
                for c in level:
                    pair = c[j - 1:j + 1]
                    if pair not in composite[p]:
                        e1, e2 = pair
                        composite[p][pair] = edge_id[p][(
                            top_p[e1], bottom_p[e2], tuple(map(
                                comp.__getitem__,
                                zip(vert_p[e2], vert_p[e1]))))]
                    faces.append(c[:j - 1] + (composite[p][pair],)
                                 + c[j + 1:])
                v_face[(p, q, j)] = lookup(p, q - 1, faces)
        if q < N:
            # insert the identity edge of row j: the top row of edge 0,
            # or the bottom row of edge j - 1
            for j in range(q + 1):
                if q == 0:
                    v_degen[(p, 0, 0)] = id_edge[p]
                    continue
                ends, k = (tops[p], 0) if j == 0 else (bottoms[p], j - 1)
                v_degen[(p, q, j)] = lookup(p, q + 1, [
                    c[:j] + (id_edge[p][ends[c[k]]],) + c[j:]
                    for c in level])

    # names last, in enumeration order: "[rows|verticals]", rows joined
    # by ";" as "source:arrows", each vertical tuple joined by ","
    cells = {}
    for p in range(M + 1):
        row_names = ["%s:%s" % (x, ",".join(map(str, chain)))
                     for x, chain in rows[p]]
        cells[(p, 0)] = tuple("[%s|]" % name for name in row_names)
        if N < 1:
            continue
        lower_names = [";" + row_names[b] for b in bottoms[p]]
        vert_names = [",".join(map(str, v)) for v in verts[p]]
        top_p = tops[p]
        for q in range(1, N + 1):
            cells[(p, q)] = tuple(
                "[%s%s|%s]" % (row_names[top_p[c[0]]],
                               "".join(map(lower_names.__getitem__, c)),
                               ";".join(map(vert_names.__getitem__, c)))
                for c in grids[(p, q)])
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


def chain_transformation_category(R, n):
    """Independent construction of Fun([n], (C, W)): objects are the
    n-chains, arrows the pointwise-W transformations."""
    C = R.category
    W = R.weak
    objects = []
    chain_of = {}
    frontier = [(x, ()) for x in C.objects]
    for _ in range(n):
        nxt = []
        for x, chain in frontier:
            tail = C.dst[chain[-1]] if chain else x
            for a in C.arrows:
                if C.src[a] == tail:
                    nxt.append((x, chain + (a,)))
        frontier = nxt
    for x, chain in frontier:
        name = "%s:%s" % (x, ",".join(map(str, chain)))
        objects.append(name)
        chain_of[name] = (x, chain)

    def vertices(rc):
        x, chain = rc
        out = [x]
        for a in chain:
            out.append(C.dst[a])
        return out

    arrows = []
    src = {}
    dst = {}
    data = {}
    for n1 in objects:
        for n2 in objects:
            tv = vertices(chain_of[n1])
            bv = vertices(chain_of[n2])
            top = chain_of[n1]
            bottom = chain_of[n2]

            def rec(i, acc):
                if i == n + 1:
                    yield tuple(acc)
                    return
                for w in C.hom(tv[i], bv[i]):
                    if w not in W:
                        continue
                    if i > 0:
                        if C.compose(w, top[1][i - 1]) != \
                                C.compose(bottom[1][i - 1], acc[-1]):
                            continue
                    yield from rec(i + 1, acc + [w])

            for tr in rec(0, []):
                a = "%s=>%s:%s" % (n1, n2, ",".join(map(str, tr)))
                arrows.append(a)
                src[a] = n1
                dst[a] = n2
                data[a] = tr
    comp = {}
    for a2 in arrows:
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            tr = tuple(C.compose(w2, w1)
                       for w1, w2 in zip(data[a1], data[a2]))
            comp[(a2, a1)] = "%s=>%s:%s" % (src[a1], dst[a2],
                                            ",".join(map(str, tr)))
    ident = {}
    for n1 in objects:
        tv = vertices(chain_of[n1])
        ident[n1] = "%s=>%s:%s" % (n1, n1, ",".join(
            str(C.ident[v]) for v in tv))
    return FinCategory(objects, arrows, src, dst, comp, ident)


# ---------------------------------------------------------------------------
# Segal and completeness checks


class SegalReport:
    def __init__(self, verdict, failures):
        self.verdict = verdict
        self.failures = failures

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return "SegalReport(%s, failures=%r)" % (self.verdict,
                                                 self.failures)


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

    def __repr__(self):
        return "CompletenessReport(%r, %r)" % (self.verdict, self.reason)


def _recognize_groupoid_nerve(row, bound=3):
    """(category, None) when the row is the nerve of a groupoid up to
    the available truncation; (None, reason) otherwise."""
    d = min(bound, row.truncation if row.truncation is not None
            else max(2, row.dim_max))
    if d < 2:
        return None, "row truncated below 2"
    report = classify(row, d, "inner")
    if not report.all_unique():
        return None, "row is not nerve-like (inner fillers not unique)"
    try:
        C = category_from_nerve(row)
    except InputError as e:
        return None, "row does not assemble to a category: %s" % e
    # levelwise count check against the nerve of the recognized category
    NC = nerve(C, d)
    for q in range(d + 1):
        if len(NC.simplices(q)) != len(row.simplices(q)):
            return None, "row disagrees with the nerve of its category"
    if not C.is_groupoid():
        return None, "row category is not a groupoid"
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
    C0, why = _recognize_groupoid_nerve(row0)
    if C0 is None:
        return NotDecidable("row 0: %s" % why)
    # homotopy category of the Segal object: objects X_{0,0}, arrows
    # pi_0 of the strict mapping fibers inside row 1; cells are indices
    vertices1 = X.level(1, 0)
    source, target = (X._table((k,), True, 1, 0) for k in (0, 1))
    parent = list(range(len(vertices1)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # fiber edges: inner edges of row 1 whose horizontal faces are
    # vertically degenerate edges of row 0 (identity shadows)
    degenerate_edges0 = set(X.v_degen[(0, 0, 0)])
    h1, h0, f1, g1 = (X._table((k,), horizontal, 1, 1)
                      for horizontal in (True, False) for k in (0, 1))
    for e in range(len(X.level(1, 1))):
        if h1[e] in degenerate_edges0 and h0[e] in degenerate_edges0:
            ra, rb = find(f1[e]), find(g1[e])
            if ra != rb:
                parent[ra] = rb
    # composition through the strict Segal bijection at (2, 0)
    comp_table = {}
    for f, g, h in zip(*[X._table(a, True, 2, 0)
                         for a in ((0, 1), (1, 2), (0, 2))]):
        key = (find(f), find(g))
        if key in comp_table and comp_table[key] != find(h):
            return NotDecidable("composition not single-valued on "
                                "homotopy classes")
        comp_table[key] = find(h)
    classes = sorted({find(f) for f in range(len(vertices1))})
    # identities: classes of degenerate vertices
    ident_class = [find(f) for f in X.h_degen[(0, 0, 0)]]
    invertible = set()
    for c in classes:
        sc, tc = source[c], target[c]
        for d in classes:
            sd, td = source[d], target[d]
            if sd != tc or td != sc:
                continue
            if comp_table.get((c, d)) == ident_class[sc] and \
                    comp_table.get((d, c)) == ident_class[sd]:
                invertible.add(c)
                break
    equivalence_vertices = {vertices1[f] for f in range(len(vertices1))
                            if find(f) in invertible}
    # row-1 category and its full subcategory on equivalence vertices
    C1, why = category_or_reason(row1)
    if C1 is None:
        return NotDecidable("row 1: %s" % why)
    E = full_subcategory(C1, sorted(equivalence_vertices))
    if not E.is_groupoid():
        return NotDecidable("equivalence subobject is not a groupoid")
    # the degeneracy functor row0 -> E
    obj_map = {}
    for x in C0.objects:
        obj_map[x] = X.h_map((0, 0), 0, 0, x)
        if obj_map[x] not in E.objects:
            return NotDecidable("degeneracy image is not an equivalence")

    def row1_arrow_of(element):
        """Translate a level-(1,1) element to an arrow of C1: the cell
        name when nondegenerate, the identity at its vertex otherwise."""
        if element in C1.arrows:
            return element
        vertex = X.v_map((0,), 1, 1, element)
        return C1.ident[vertex]

    arr_map = {}
    for a in C0.arrows:
        if C0.is_identity(a) and a not in row0.cells(1):
            arr_map[a] = E.ident[obj_map[C0.src[a]]]
        else:
            arr_map[a] = row1_arrow_of(X.h_map((0, 0), 0, 1, a))
    try:
        Functor(C0, E, obj_map, arr_map).validate()
    except InputError as e:
        return NotDecidable("degeneracy is not a functor: %s" % e)
    # essential surjectivity
    for y in E.objects:
        if not any(E.hom(obj_map[x], y) and
                   any(E.is_iso(a) for a in E.hom(obj_map[x], y))
                   for x in C0.objects):
            return CompletenessReport(
                False, "object class %s not hit up to isomorphism" % y,
                {"witness": y})
    # fully faithful
    for x in C0.objects:
        for y in C0.objects:
            dom = C0.hom(x, y)
            cod = E.hom(obj_map[x], obj_map[y])
            images = [arr_map[a] for a in dom]
            if len(set(images)) != len(dom) or \
                    sorted(set(images)) != sorted(cod):
                return CompletenessReport(
                    False, "degeneracy not fully faithful at (%s, %s)"
                    % (x, y), {"hom_source": len(dom),
                               "hom_target": len(cod)})
    return CompletenessReport(True, "degeneracy is an equivalence of "
                              "groupoids")


def category_or_reason(row):
    """Recognize a row as the nerve of a category (not necessarily a
    groupoid), with the levelwise count check."""
    d = min(2, row.truncation if row.truncation is not None else 2)
    try:
        report = classify(row, d, "inner")
    except InputError as e:
        return None, str(e)
    if not report.all_unique():
        return None, "not nerve-like"
    try:
        C = category_from_nerve(row)
    except InputError as e:
        return None, str(e)
    NC = nerve(C, d)
    for q in range(d + 1):
        if len(NC.simplices(q)) != len(row.simplices(q)):
            return None, "row disagrees with the nerve of its category"
    return C, None
