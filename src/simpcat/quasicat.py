"""Lifting-property classifiers and the homotopy machinery of a finite
quasicategory: horn reports, Ho(X), equivalences, the maximal Kan subset,
right/left mapping spaces, and combinatorial homotopy groups.

All verdicts are bounded by an explicit dimension d; nothing here claims
unbounded lifting.
"""

from . import sset
from .delta import tidentity
from .errors import InputError
from .nerve_cat import FinCategory, bg, find_category_isomorphism
from .sset import is_degenerate, simplex_dim

MODES = {
    "inner": lambda n: range(1, n),
    "kan": lambda n: range(0, n + 1),
    "left": lambda n: range(0, n),
    "right": lambda n: range(1, n + 1),
}


class LiftingObstruction(Exception):
    """A required lifting property failed; carries the witness horn."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class HornReport:
    """Filler statistics for all horn maps up to a dimension bound.

    stats[(n, k)] = (tested, unfillable, nonunique)."""

    def __init__(self, mode, dimension_bound, stats, witnesses):
        self.mode = mode
        self.dimension_bound = dimension_bound
        self.stats = dict(stats)
        self.witnesses = dict(witnesses)

    def is_quasicategory(self):
        return all(u == 0 for (n, k), (t, u, m) in self.stats.items()
                   if 0 < k < n)

    def is_nerve_like(self):
        return self.is_quasicategory() and all(
            m == 0 for (n, k), (t, u, m) in self.stats.items() if 0 < k < n)

    def passed(self):
        return all(u == 0 for (t, u, m) in self.stats.values())

    def all_unique(self):
        return all(u == 0 and m == 0 for (t, u, m) in self.stats.values())

    def first_witness(self):
        for key in sorted(self.witnesses):
            return self.witnesses[key]
        return None

    def as_dict(self):
        return {
            "mode": self.mode,
            "dimension_bound": self.dimension_bound,
            "stats": {"%d,%d" % key: list(val)
                      for key, val in sorted(self.stats.items())},
            "passed": self.passed(),
            "witness": self.first_witness(),
        }

    def __repr__(self):
        return "HornReport(mode=%s, d=%d, passed=%s)" % (
            self.mode, self.dimension_bound, self.passed())


def _join_index(X, m, positions):
    """{(d_i w for i in positions): the ranks w, ascending} over the
    m-simplices w of X."""
    def build(X):
        faces = X.ranked(m)[1]
        index = {}
        for w, key in enumerate(zip(*[faces[i] for i in positions])):
            index.setdefault(key, []).append(w)
        return index
    return X.memo(("join", m, positions), build)


def _horn_stats(X, n, k):
    """(tested, unfillable, nonunique, first unfillable horn) over the
    horn maps Lambda^n_k -> X, n >= 2.

    A horn is the tuple of its facet images (d_j for j != k), pairwise
    compatible: d_i w_j = d_{j-1} w_i for i < j.  The first facet runs
    over simplices(n-1); each later facet j is one join-index lookup
    keyed by the faces d_{j-1} of the facets already chosen, and its
    candidates come in ascending rank.  Horns are counted against the
    fillers as their last facet comes, never listed."""
    J = [j for j in range(n + 1) if j != k]
    order, faces, natural = X.ranked(n - 1)
    steps = [(faces[J[p] - 1].__getitem__,
              _join_index(X, n - 1, tuple(J[:p])).get)
             for p in range(1, n)]
    # fillers[facets but the last] = {last facet: number of n-simplices}
    fillers = {}
    top = X.ranked(n)[1]
    for key, w in zip(zip(*[top[j] for j in J[:-1]]), top[J[-1]]):
        row = fillers.setdefault(key, {})
        row[w] = row.get(w, 0) + 1
    face_last, join_last = steps[-1]
    tested = unfillable = nonunique = 0
    witness = None
    chosen = []

    def search(p, cands):
        # chooses facet p among cands, then looks the next one up
        nonlocal tested, unfillable, nonunique, witness
        if p < n - 2:
            face, join = steps[p]
            for w in cands:
                chosen.append(w)
                after = join(tuple(map(face, chosen)))
                if after:
                    search(p + 1, after)
                chosen.pop()
            return
        for w in cands:
            chosen.append(w)
            last = join_last(tuple(map(face_last, chosen)))
            if last:
                tested += len(last)
                row = fillers.get(tuple(chosen), {})
                for x in last:
                    c = row.get(x, 0)
                    if c == 0:
                        unfillable += 1
                        if witness is None:
                            witness = tuple(order[v] for v in chosen + [x])
                    elif c > 1:
                        nonunique += 1
            chosen.pop()

    search(0, natural)
    return tested, unfillable, nonunique, witness


def _witness(X, n, k, facets):
    if n == 1:
        # the horn Lambda^1_k is the single vertex k
        v = facets[0]
        return {"n": n, "k": k,
                "cells": {str(k): [list(v[0]), X.names[0][v[1]]]}}
    J = [j for j in range(n + 1) if j != k]
    cells = {}
    for j, w in zip(J, facets):
        s, idx = w
        cells[str(j)] = [list(s), X.names[s[-1]][idx]]
    return {"n": n, "k": k, "cells": cells}


def classify(X, d, mode):
    """Exhaustively enumerate horn maps Lambda^n_k -> X for n <= d (k per
    mode) and their fillers; returns a HornReport."""
    if mode not in MODES:
        raise InputError("unknown mode %r" % (mode,))
    if d < 1:
        raise InputError("dimension bound must be >= 1")
    X._require_dim(d)
    stats = {}
    witnesses = {}
    for n in range(1, d + 1):
        for k in MODES[mode](n):
            if n == 1:
                tested = unfillable = nonunique = 0
                fillers = {}
                for e in X.simplices(1):
                    key = X.face_of(1 - k, e)  # vertex k of e
                    fillers[key] = fillers.get(key, 0) + 1
                for idx in range(X.n_cells(0)):
                    v = (tidentity(0), idx)
                    tested += 1
                    c = fillers.get(v, 0)
                    if c == 0:
                        unfillable += 1
                        witnesses.setdefault(
                            (n, k), _witness(X, n, k, (v,)))
                    elif c > 1:
                        nonunique += 1
                stats[(n, k)] = (tested, unfillable, nonunique)
                continue
            tested, unfillable, nonunique, first = _horn_stats(X, n, k)
            if first is not None:
                witnesses[(n, k)] = _witness(X, n, k, first)
            stats[(n, k)] = (tested, unfillable, nonunique)
    return HornReport(mode, d, stats, witnesses)


def witness_to_map(X, witness):
    """Rebuild the witness horn map as a SimplicialMap Lambda^n_k -> X,
    for replaying a failure through the lifting engine; a witness that
    is no map fails validate()."""
    n, k = witness["n"], witness["k"]
    L = sset.horn(n, k)
    cells = {name: (tuple(s), X.cell_index(tuple(s)[-1], nm))
             for name, (s, nm) in witness["cells"].items()}
    images = {}
    if n == 1:
        (name, simplex), = cells.items()
        images[(0, name)] = simplex
        return sset.map_from_cells(L, X, images).validate()
    facet_names = {}
    for j_str, simplex in cells.items():
        j = int(j_str)
        verts = tuple(v for v in range(n + 1) if v != j)
        facet_names["-".join(str(v) for v in verts)] = simplex
    for dim in range(len(L.names)):
        for name in L.cells(dim):
            verts = tuple(int(v) for v in name.split("-"))
            # find a facet containing these vertices
            for fname, simplex in facet_names.items():
                fverts = tuple(int(v) for v in fname.split("-"))
                if set(verts) <= set(fverts):
                    alpha = tuple(fverts.index(v) for v in verts)
                    images[(dim, name)] = X.apply(alpha, simplex)
                    break
            else:
                raise InputError("witness cell %s lies in no facet" % name)
    return sset.map_from_cells(L, X, images).validate()


def count_extensions(X, witness):
    """Number of fillers of a witness horn, via the generic engine."""
    f = witness_to_map(X, witness)
    n, k = witness["n"], witness["k"]
    incl = sset.inclusion_by_names(f.source, sset.standard_simplex(n))
    return len(sset.lift_extensions(incl, f))


def require_quasicategory(X, d=3):
    report = classify(X, d, "inner")
    if not report.is_quasicategory():
        raise LiftingObstruction(
            "not a quasicategory up to dimension %d" % d,
            report.first_witness())
    return report


# ---------------------------------------------------------------------------
# homotopy category


def _edge_endpoints(X, e):
    return X.face_of(1, e), X.face_of(0, e)


def _ho_classes(X):
    """Equivalence classes of 1-simplices under the 2-simplex relation:
    f ~ g when some u in X_2 has d_0 u = f, d_1 u = g and degenerate
    d_2 u.  Verified to be an equivalence relation."""
    edges = list(X.simplices(1))
    related = {e: {e} for e in edges}
    for u in X.simplices(2):
        if is_degenerate(X.face_of(2, u)):
            f = X.face_of(0, u)
            g = X.face_of(1, u)
            related[f].add(g)
    # the raw relation must already be symmetric and transitive on a
    # quasicategory; check rather than assume
    for f in edges:
        for g in related[f]:
            if f not in related[g]:
                raise LiftingObstruction(
                    "homotopy relation is not symmetric", None)
            for h in related[g]:
                if h not in related[f]:
                    raise LiftingObstruction(
                        "homotopy relation is not transitive", None)
    classes = {}
    for e in edges:
        rep = min(related[e])
        classes[e] = rep
    return classes


def _lambda21_fillers(X, f, g):
    """All u in X_2 with d_2 u = f and d_0 u = g, in enumeration order."""
    return X.memo("lambda21", _lambda21_table).get((f, g), [])


def _lambda21_table(X):
    table = {}
    for u in X.simplices(2):
        pair = (X.face_of(2, u), X.face_of(0, u))
        table.setdefault(pair, []).append(u)
    return table


def homotopy_category(X, _return_classes=False):
    """Ho(X) for a quasicategory presented up to dimension >= 3: objects
    are the vertices, arrows are homotopy classes of 1-simplices,
    composition via inner-horn fillers (first filler used, all fillers
    checked to agree)."""
    if X.truncation is not None and X.truncation < 3:
        raise InputError("homotopy category needs a 3-truncation")
    require_quasicategory(X, 3)
    classes = _ho_classes(X)
    reps = sorted(set(classes.values()))
    by_rep = {}
    for e, rep in classes.items():
        by_rep.setdefault(rep, []).append(e)
    objects = list(X.cells(0))
    arrow_name = {rep: "[%s]" % X.describe(rep) for rep in reps}
    src = {}
    dst = {}
    for rep in reps:
        s, t = _edge_endpoints(X, rep)
        # source of an edge is its vertex 0 (the d_1 face), target vertex 1
        src[arrow_name[rep]] = X.names[0][s[1]]
        dst[arrow_name[rep]] = X.names[0][t[1]]
    # degenerate edge at a vertex represents the identity
    ident = {}
    for idx, x in enumerate(objects):
        e = ((0, 0), idx)
        ident[x] = arrow_name[classes[e]]
    comp = {}
    for grep in reps:
        for frep in reps:
            if src[arrow_name[grep]] != dst[arrow_name[frep]]:
                continue
            value = None
            for f in by_rep[frep]:
                for g in by_rep[grep]:
                    for u in _lambda21_fillers(X, f, g):
                        c = classes[X.face_of(1, u)]
                        if value is None:
                            value = c
                        elif c != value:
                            raise LiftingObstruction(
                                "composition not well defined on homotopy "
                                "classes", None)
            if value is None:
                raise LiftingObstruction(
                    "no inner-horn filler for a composable pair", None)
            comp[(arrow_name[grep], arrow_name[frep])] = arrow_name[value]
    # the tables above are keyed by arrow names made from the caller's:
    # an edge named "s00(a)" and the identity of a clash
    if sset._written_alike(list(arrow_name.values())):
        raise InputError("duplicate arrow names")
    Ho = FinCategory(objects, [arrow_name[r] for r in reps], src, dst,
                     comp, ident)
    if _return_classes:
        return Ho, classes, arrow_name
    return Ho


def equivalences(X):
    """The 1-simplices whose homotopy class is invertible in Ho(X);
    closure under two-out-of-three on 2-simplices is checked."""
    Ho, classes, arrow_name = homotopy_category(X, _return_classes=True)
    iso_arrows = {a for a in Ho.arrows if Ho.is_iso(a)}
    eqs = {e for e, rep in classes.items() if arrow_name[rep] in iso_arrows}
    for u in X.simplices(2):
        sides = X.simplex_faces(u)
        flags = [e in eqs for e in sides]
        if sum(flags) == 2:
            if not all(flags):
                raise LiftingObstruction(
                    "two-out-of-three fails on a 2-simplex", None)
    return eqs


def max_kan_subset(X):
    """The simplicial subset spanned by simplices all of whose edges are
    equivalences.

    Every edge of a k-cell, k >= 2, is an edge of one of its faces, so
    a vertex is always kept, an edge when it is an equivalence, and a
    higher cell when the cells under all its stored faces are kept."""
    eqs = equivalences(X)
    new_index, names, faces = [], [], []
    for k in range(len(X.names)):
        if k == 0:
            keep = range(X.n_cells(0))
        elif k == 1:
            keep = [idx for idx in range(X.n_cells(1))
                    if (tidentity(1), idx) in eqs]
        else:
            keep = [idx for idx, entry in enumerate(X.faces[k])
                    if all(sub in new_index[s[-1]] for s, sub in entry)]
        new_index.append({idx: j for j, idx in enumerate(keep)})
        names.append(tuple(X.names[k][idx] for idx in keep))
        faces.append([tuple((s, new_index[s[-1]][sub])
                            for s, sub in X.faces[k][idx])
                      for idx in keep])
    return sset.SimplicialSet(X.truncation, names, faces)


# ---------------------------------------------------------------------------
# mapping spaces


def hom_space(X, x, y, side, d):
    """Hom^R(x, y) (or Hom^L via op-duality) as a d-truncated simplicial
    set; n-cells are (n+1)-simplices h with the long face at x degenerate
    and final vertex y."""
    if side == "left":
        return hom_space(sset.opposite(X), y, x, "right", d)
    if side != "right":
        raise InputError("side must be 'left' or 'right'")
    X._require_dim(d + 1)
    xi = X.cell_index(0, x)
    yi = X.cell_index(0, y)
    levels = []
    for n in range(d + 1):
        level = []
        x_deg = (tuple(0 for _ in range(n + 1)), xi)
        for h in X.simplices(n + 1):
            if X.apply(tuple(range(n + 1)), h) != x_deg:
                continue
            if X.apply((n + 1,), h) != ((0,), yi):
                continue
            level.append(h)
        levels.append(level)

    def action(alpha, h):
        n = simplex_dim(h) - 1
        return X.apply(tuple(alpha) + (n + 1,), h)

    def name_fn(n, h):
        return X.describe(h)

    return sset.from_presheaf(d, levels, action, name_fn=name_fn)


# ---------------------------------------------------------------------------
# homotopy groups


class SetReport:
    def __init__(self, classes):
        self.classes = list(classes)
        self.count = len(self.classes)

    def __repr__(self):
        return "SetReport(count=%d)" % self.count


class GroupPresentation:
    """A finite group read off a multiplication table of homotopy
    classes, plus a recognized-structure tag."""

    def __init__(self, elements, unit, table, verified=True):
        self.elements = list(elements)
        self.unit = unit
        self.table = dict(table)
        self.verified = verified
        self.structure = self._recognize()

    @property
    def order(self):
        return len(self.elements)

    def is_group(self):
        """Whether the table is a group law with unit self.unit: its
        delooping is a category whose one identity is self.unit and
        whose arrows are all invertible."""
        try:
            G = bg(self.table, self.elements)
        except InputError:
            return False
        return G.ident["*"] == self.unit and G.is_groupoid()

    def is_abelian(self):
        return all(self.table[(a, b)] == self.table[(b, a)]
                   for a in self.elements for b in self.elements)

    def element_order(self, a):
        k = 1
        acc = a
        while acc != self.unit:
            acc = self.table[(acc, a)]
            k += 1
        return k

    def _recognize(self):
        if not self.is_group():
            return "unrecognized"
        n = self.order
        if n == 1:
            return "trivial"
        if any(self.element_order(a) == n for a in self.elements):
            return "cyclic order %d" % n
        if n == 6 and not self.is_abelian():
            return "symmetric-3"
        return "unrecognized"

    def isomorphic_to_table(self, table):
        """Whether this group is isomorphic to the monoid of another
        multiplication table, given as a dict on pairs of names: an
        isomorphism of the two deloopings."""
        return find_category_isomorphism(
            bg(self.table, self.elements), bg(table)) is not None

    def __repr__(self):
        return "GroupPresentation(order=%d, %s)" % (self.order,
                                                    self.structure)


def homotopy_group(X, x, n, budget=100000):
    """pi_n(X, x) for a finite Kan object: n = 0 gives the set of vertex
    classes; n >= 1 gives homotopy classes of spheres with horn-filler
    multiplication.  Kan-ness up to dimension n+2 is certified first."""
    if n < 0:
        raise InputError("pi_%d: the degree must be nonnegative" % n)
    if n == 0:
        return SetReport(sset.pi0(X))
    bound = n + 2
    if X.truncation is not None and X.truncation < bound:
        raise InputError("pi_%d needs truncation >= %d" % (n, bound))
    report = classify(X, bound, "kan")
    if not report.passed():
        raise LiftingObstruction("not Kan up to dimension %d" % bound,
                                 report.first_witness())
    xi = X.cell_index(0, x)
    deg = (tuple(0 for _ in range(n)), xi)
    spheres = []
    for z in X.simplices(n):
        if all(f == deg for f in X.simplex_faces(z)):
            spheres.append(z)
    # homotopy relation via (n+1)-simplices, then symmetric-transitive
    # closure
    parent = {z: z for z in spheres}

    def find(z):
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    deg_up = (tuple(0 for _ in range(n + 1)), xi)
    candidates = X.simplices(n + 1)
    if len(candidates) > budget:
        raise InputError("candidate budget exceeded: %d > %d; raise the "
                         "budget to compute this group"
                         % (len(candidates), budget))
    products = {}
    for u in candidates:
        fu = X.simplex_faces(u)
        # relation: faces below n degenerate, relate d_n and d_{n+1}
        if all(fu[i] == deg_up for i in range(n)):
            a, b = fu[n], fu[n + 1]
            if a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        # multiplication: faces below n-1 degenerate, d_{n-1} = a,
        # d_{n+1} = b, product = d_n
        if all(fu[i] == deg_up for i in range(n - 1)):
            a, b, c = fu[n - 1], fu[n + 1], fu[n]
            if a in parent and b in parent and c in parent:
                products.setdefault((a, b), c)
    classes = sorted({find(z) for z in spheres})
    label = {rep: "[%s]" % X.describe(rep) for rep in classes}
    table = {}
    ok = True
    for a in classes:
        for b in classes:
            got = None
            for (p, q), c in products.items():
                if find(p) == a and find(q) == b:
                    if got is None:
                        got = find(c)
                    elif find(c) != got:
                        raise LiftingObstruction(
                            "homotopy multiplication ill-defined", None)
            if got is None:
                ok = False
            else:
                table[(label[a], label[b])] = label[got]
    # the degenerate sphere at the basepoint is the unit
    unit = label[find((tuple(0 for _ in range(n + 1)), xi))]
    return GroupPresentation([label[c] for c in classes], unit, table,
                             verified=ok)
