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
    simplex categories, stored as raw cell sets with generator maps."""

    def __init__(self, m_trunc, n_trunc, cells, h_face, h_degen, v_face,
                 v_degen, validate=True):
        self.m_trunc = m_trunc
        self.n_trunc = n_trunc
        self.cells = {k: tuple(v) for k, v in cells.items()}
        self.h_face = {k: dict(v) for k, v in h_face.items()}
        self.h_degen = {k: dict(v) for k, v in h_degen.items()}
        self.v_face = {k: dict(v) for k, v in v_face.items()}
        self.v_degen = {k: dict(v) for k, v in v_degen.items()}
        if validate:
            self.validate()

    def level(self, p, q):
        return self.cells.get((p, q), ())

    def h_map(self, alpha, p, q, x):
        """Action of alpha: [m] -> [p] on the outer index of x at (p, q)."""
        for is_face, k, i in _generator_walk(alpha, p):
            x = (self.h_face if is_face else self.h_degen)[(k, q, i)][x]
        return x

    def v_map(self, alpha, p, q, x):
        """Action of alpha: [m] -> [q] on the inner index of x at (p, q)."""
        for is_face, k, j in _generator_walk(alpha, q):
            x = (self.v_face if is_face else self.v_degen)[(p, k, j)][x]
        return x

    def row(self, p):
        """Row p as a SimplicialSet (inner direction)."""
        levels = [list(self.level(p, q)) for q in range(self.n_trunc + 1)]
        position = {}
        for q in range(self.n_trunc + 1):
            for x in self.level(p, q):
                position[x] = q

        def action(alpha, x):
            return self.v_map(alpha, p, position[x], x)

        return sset.from_presheaf(self.n_trunc, levels, action,
                                  name_fn=lambda q, x: str(x))

    def validate(self):
        if self.m_trunc < 0 or self.n_trunc < 0:
            raise InputError("negative truncation")
        members = {}  # (p, q) -> set of the cells there, for O(1) lookups
        for p in range(self.m_trunc + 1):
            for q in range(self.n_trunc + 1):
                if (p, q) not in self.cells:
                    raise InputError("missing level (%d, %d)" % (p, q))
                level = self.cells[(p, q)]
                members[(p, q)] = set(level)
                if len(members[(p, q)]) != len(level):
                    raise InputError("duplicate cells at (%d, %d)"
                                     % (p, q))
        self._validate_direction(True, members)
        self._validate_direction(False, members)
        # the two directions commute, on faces and degeneracies alike:
        # for each (p, q) the squares a[b[x]] == c[d[x]] to check, in the
        # order (i, j, faces / degeneracies / mixed), then every cell
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
                for x in self.cells[(p, q)]:
                    for a, b, c, d, what in squares:
                        if a[b[x]] != c[d[x]]:
                            raise InputError("%s at (%d, %d)"
                                             % (what, p, q))

    def _validate_direction(self, horizontal, members):
        faces = self.h_face if horizontal else self.v_face
        degens = self.h_degen if horizontal else self.v_degen
        M = self.m_trunc if horizontal else self.n_trunc
        N = self.n_trunc if horizontal else self.m_trunc

        for other in range(N + 1):
            def pos(p):
                return (p, other) if horizontal else (other, p)

            # the tables of this row or column, fetched once: d[(p, i)]
            # and s[(p, i)] are the face and degeneracy i at pos(p)
            d, s = {}, {}
            for p in range(1, M + 1):
                cells, target = self.cells[pos(p)], members[pos(p - 1)]
                for i in range(p + 1):
                    table = d[(p, i)] = faces.get(pos(p) + (i,))
                    if table is None:
                        raise InputError("missing face table")
                    if not _maps_into(table, cells, target):
                        raise InputError("face table broken at level %d"
                                         % p)
            for p in range(M):
                cells, target = self.cells[pos(p)], members[pos(p + 1)]
                for i in range(p + 1):
                    table = s[(p, i)] = degens.get(pos(p) + (i,))
                    if table is None:
                        raise InputError("missing degeneracy table")
                    if not _maps_into(table, cells, target):
                        raise InputError("degeneracy table broken")
            # simplicial identities via the tables directly
            for p in range(2, M + 1):
                cells = self.cells[pos(p)]
                for j in range(1, p + 1):
                    for i in range(j):
                        if not _commutes(d[(p - 1, i)], d[(p, j)],
                                         d[(p - 1, j - 1)], d[(p, i)],
                                         cells):
                            raise InputError("face identity fails")
            for p in range(M - 1):
                cells = self.cells[pos(p)]
                for j in range(p + 1):
                    for i in range(j + 1):
                        if not _commutes(s[(p + 1, i)], s[(p, j)],
                                         s[(p + 1, j + 1)], s[(p, i)],
                                         cells):
                            raise InputError("degeneracy identity fails")
            for p in range(M):
                cells = self.cells[pos(p)]
                for j in range(p + 1):
                    for i in range(p + 2):
                        di, sj = d[(p + 1, i)], s[(p, j)]
                        if i == j or i == j + 1:
                            ok = all(di[sj[x]] == x for x in cells)
                        elif i < j:
                            ok = _commutes(di, sj, s[(p - 1, j - 1)],
                                           d[(p, i)], cells)
                        else:
                            ok = _commutes(di, sj, s[(p - 1, j)],
                                           d[(p, i - 1)], cells)
                        if not ok:
                            raise InputError("mixed identity fails")

    def as_dict(self):
        def tbl(d):
            return {"%d,%d,%d" % k: dict(v) for k, v in sorted(d.items())}
        return {
            "truncation": [self.m_trunc, self.n_trunc],
            "cells": {"%d,%d" % k: list(v)
                      for k, v in sorted(self.cells.items())},
            "h_faces": tbl(self.h_face),
            "h_degens": tbl(self.h_degen),
            "v_faces": tbl(self.v_face),
            "v_degens": tbl(self.v_degen),
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


def _maps_into(table, cells, target):
    """Whether table sends every cell to a member of target.  A boolean
    is refused, as True == 1 would find the cell 1, and so is an
    unhashable value."""
    try:
        return all(type(table[x]) is not bool and table[x] in target
                   for x in cells)
    except (KeyError, TypeError):  # a cell missing, an unhashable value
        return False


def _commutes(a, b, c, d, cells):
    """Whether the tables agree on every cell: a[b[x]] == c[d[x]]."""
    return all(a[b[x]] == c[d[x]] for x in cells)


# ---------------------------------------------------------------------------
# embeddings


def embed(kind, X, N):
    """d(X): rows are the discrete sets of simplices of X; c(X): every
    row is X itself."""
    if kind == "discrete":
        M = X.truncation if X.truncation is not None else X.dim_max
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
    ones.  The transpose of a bisimplicial set is one, so it is not
    validated again."""
    def swap(table):
        return {(q, p, i): m for (p, q, i), m in table.items()}
    return BisimplicialSet(
        X.n_trunc, X.m_trunc, {(q, p): c for (p, q), c in X.cells.items()},
        swap(X.v_face), swap(X.v_degen), swap(X.h_face), swap(X.h_degen),
        validate=False)


def standard_bisimplex(m, n, M, N):
    """The representable presheaf at ([m], [n]), truncated at (M, N):
    cells (p, q) are pairs of monotone maps."""
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
    C = R.category
    if not R.is_composition_closed():
        raise InputError("weak arrows must be closed under composition "
                         "for the classification diagram")
    W = R.weak

    # A row is a p-chain (source, arrows); a grid is (rows, verts): rows
    # are q+1 rows, verts one tuple of W-arrows (one per column) for each
    # gap between consecutive rows.  Everything a grid's structure maps
    # need is computed once per row or per pair of rows, in the memo
    # dicts below, which live only as long as this call.
    rows = [[(x, ()) for x in C.objects]]
    for p in range(1, M + 1):
        rows.append([(x, chain + (a,)) for x, chain in rows[-1]
                     for a in C.arrows
                     if C.src[a] == (C.dst[chain[-1]] if chain else x)])
    vertices = {row: (row[0],) + tuple(C.dst[a] for a in row[1])
                for level in rows for row in level}
    # per row and index i: the row's i-th face and i-th degeneracy
    row_faces = {row: tuple(_chain_face(C, row, vertices[row], i)
                            for i in range(p + 1))
                 for p in range(1, M + 1) for row in rows[p]}
    row_degens = {row: tuple((row[0], row[1][:i] + (C.ident[v],)
                              + row[1][i:])
                             for i, v in enumerate(vertices[row]))
                  for level in rows[:M] for row in level}
    id_verts = {row: tuple(C.ident[v] for v in vx)
                for row, vx in vertices.items()}
    weak_homs = {}

    def compatible_verticals(top, bottom):
        """All W-vertical tuples making the squares commute."""
        partial = [()]
        for i, (a, b) in enumerate(zip(vertices[top], vertices[bottom])):
            if (a, b) not in weak_homs:
                weak_homs[(a, b)] = [w for w in C.hom(a, b) if w in W]
            partial = [acc + (w,) for acc in partial
                       for w in weak_homs[(a, b)]
                       if i == 0 or C.compose(w, top[1][i - 1])
                       == C.compose(bottom[1][i - 1], acc[-1])]
        return partial

    def gname(grid):
        rs, vs = grid
        row_part = ";".join("%s:%s" % (x, ",".join(chain))
                            for x, chain in rs)
        vert_part = ";".join(",".join(v) for v in vs)
        return "[%s|%s]" % (row_part, vert_part)

    names = {}  # (p, q) -> {grid: its cell name}, in enumeration order
    for p in range(M + 1):
        level = [((row,), ()) for row in rows[p]]
        names[(p, 0)] = {g: gname(g) for g in level}
        if N < 1:
            continue
        below = {top: [(bottom, vert) for bottom in rows[p]
                       for vert in compatible_verticals(top, bottom)]
                 for top in rows[p]}
        for q in range(1, N + 1):
            level = [(rs + (bottom,), vs + (vert,))
                     for rs, vs in level for bottom, vert in below[rs[-1]]]
            names[(p, q)] = {g: gname(g) for g in level}

    def h_face_of(grid, i):
        rs, vs = grid
        return (tuple(row_faces[r][i] for r in rs),
                tuple(v[:i] + v[i + 1:] for v in vs))

    def h_degen_of(grid, i):
        rs, vs = grid
        return (tuple(row_degens[r][i] for r in rs),
                tuple(v[:i + 1] + v[i:] for v in vs))

    def v_face_of(grid, q, j):
        rs, vs = grid
        if j == 0:
            vs = vs[1:]
        elif j == q:
            vs = vs[:-1]
        else:
            merged = tuple(C.compose(b, a)
                           for a, b in zip(vs[j - 1], vs[j]))
            vs = vs[:j - 1] + (merged,) + vs[j + 1:]
        return (rs[:j] + rs[j + 1:], vs)

    def v_degen_of(grid, j):
        rs, vs = grid
        return (rs[:j + 1] + rs[j:], vs[:j] + (id_verts[rs[j]],) + vs[j:])

    cells = {key: tuple(named.values()) for key, named in names.items()}
    h_face = {}
    h_degen = {}
    v_face = {}
    v_degen = {}
    for (p, q), named in names.items():
        if not named:
            continue
        if p >= 1:
            target = names[(p - 1, q)]
            for i in range(p + 1):
                h_face[(p, q, i)] = {n: target[h_face_of(g, i)]
                                     for g, n in named.items()}
        if p < M:
            target = names[(p + 1, q)]
            for i in range(p + 1):
                h_degen[(p, q, i)] = {n: target[h_degen_of(g, i)]
                                      for g, n in named.items()}
        if q >= 1:
            target = names[(p, q - 1)]
            for j in range(q + 1):
                v_face[(p, q, j)] = {n: target[v_face_of(g, q, j)]
                                     for g, n in named.items()}
        if q < N:
            target = names[(p, q + 1)]
            for j in range(q + 1):
                v_degen[(p, q, j)] = {n: target[v_degen_of(g, j)]
                                      for g, n in named.items()}
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
        name = "%s:%s" % (x, ",".join(chain))
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
                a = "%s=>%s:%s" % (n1, n2, ",".join(tr))
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
                                            ",".join(tr))
    ident = {}
    for n1 in objects:
        tv = vertices(chain_of[n1])
        ident[n1] = "%s=>%s:%s" % (n1, n1,
                                   ",".join(C.ident[v] for v in tv))
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
        spine_maps = [(i, i + 1) for i in range(p)]
        for q in range(X.n_trunc + 1):
            image = {}
            injective = True
            for x in X.level(p, q):
                key = tuple(X.h_map(a, p, q, x) for a in spine_maps)
                if key in image:
                    failures.append({"p": p, "q": q,
                                     "reason": "not injective"})
                    injective = False
                    break
                image[key] = x
            if not injective:
                continue
            for combo in _spine_tuples(X, p, q):
                if combo not in image:
                    failures.append({"p": p, "q": q,
                                     "reason": "not surjective"})
                    break
    return SegalReport(not failures, failures)


def _spine_tuples(X, p, q):
    """All compatible p-tuples of level-(1, q) cells, generated lazily
    in lexicographic order."""
    level1 = X.level(1, q)
    by_source = {}
    for e in level1:
        by_source.setdefault(X.h_map((0,), 1, q, e), []).append(e)
    # a chain of generators, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep X alive until
    # the cyclic garbage collector runs
    tuples = ((e,) for e in level1)
    for _ in range(p - 1):
        tuples = (t + (e,) for t in tuples
                  for e in by_source.get(X.h_map((1,), 1, q, t[-1]), ()))
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
    # pi_0 of the strict mapping fibers inside row 1
    vertices1 = X.level(1, 0)
    endpoints = {f: (X.h_map((0,), 1, 0, f), X.h_map((1,), 1, 0, f))
                 for f in vertices1}
    parent = {f: f for f in vertices1}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # fiber edges: inner edges of row 1 whose horizontal faces are
    # vertically degenerate edges of row 0 (identity shadows)
    degenerate_edges0 = set(X.v_degen[(0, 0, 0)].values())
    for e in X.level(1, 1):
        h1 = X.h_map((0,), 1, 1, e)
        h0 = X.h_map((1,), 1, 1, e)
        if h1 in degenerate_edges0 and h0 in degenerate_edges0:
            f = X.v_map((0,), 1, 1, e)
            g = X.v_map((1,), 1, 1, e)
            ra, rb = find(f), find(g)
            if ra != rb:
                parent[ra] = rb
    # composition through the strict Segal bijection at (2, 0)
    comp_table = {}
    for sigma in X.level(2, 0):
        f = X.h_map((0, 1), 2, 0, sigma)
        g = X.h_map((1, 2), 2, 0, sigma)
        h = X.h_map((0, 2), 2, 0, sigma)
        key = (find(f), find(g))
        if key in comp_table and comp_table[key] != find(h):
            return NotDecidable("composition not single-valued on "
                                "homotopy classes")
        comp_table[key] = find(h)
    classes = sorted({find(f) for f in vertices1})
    # identities: classes of degenerate vertices
    ident_class = {}
    for x in X.level(0, 0):
        ident_class[x] = find(X.h_degen[(0, 0, 0)][x])
    invertible = set()
    for c in classes:
        sc, tc = endpoints[c]
        for d in classes:
            sd, td = endpoints[d]
            if sd != tc or td != sc:
                continue
            if comp_table.get((c, d)) == ident_class[sc] and \
                    comp_table.get((d, c)) == ident_class[sd]:
                invertible.add(c)
                break
    equivalence_vertices = {f for f in vertices1
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
        obj_map[x] = X.h_degen[(0, 0, 0)][x]
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
            arr_map[a] = row1_arrow_of(X.h_degen[(0, 1, 0)][a])
    try:
        S = Functor(C0, E, obj_map, arr_map)
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
