"""Lifting-property classifiers and the homotopy machinery of a finite
quasicategory: horn reports, Ho(X), equivalences, the maximal Kan subset,
right/left mapping spaces, and combinatorial homotopy groups.

All verdicts are bounded by an explicit dimension d; nothing here claims
unbounded lifting.
"""

from . import sset
from .delta import face, tidentity
from .errors import InputError
from .nerve_cat import FinCategory
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


def _facet_tuples(X, n, k):
    """All horn maps Lambda^n_k -> X for n >= 2, each given by the tuple
    of its facet images (d_j for j != k), pairwise compatible."""
    J = [j for j in range(n + 1) if j != k]
    simp = X.simplices(n - 1)
    faces_of = {w: X.simplex_faces(w) for w in simp}
    index = {}
    for w in simp:
        for i, v in enumerate(faces_of[w]):
            index.setdefault((i, v), set()).add(w)
    results = []
    assignment = {}

    def rec(p):
        if p == len(J):
            results.append(tuple(assignment[j] for j in J))
            return
        j = J[p]
        cands = None
        for q in range(p):
            i = J[q]
            # d_i(w_j) = d_{j-1}(w_i) for i < j
            want = faces_of[assignment[i]][j - 1]
            got = index.get((i, want), set())
            cands = set(got) if cands is None else cands & got
            if not cands:
                break
        pool = simp if cands is None else sorted(cands)
        for w in pool:
            assignment[j] = w
            rec(p + 1)
            del assignment[j]

    rec(0)
    return J, results


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
                    key = X.apply((k,), e)
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
            J, horns = _facet_tuples(X, n, k)
            counter = {}
            for w in X.simplices(n):
                fw = X.simplex_faces(w)
                key = tuple(fw[j] for j in J)
                counter[key] = counter.get(key, 0) + 1
            tested = len(horns)
            unfillable = nonunique = 0
            for h in horns:
                c = counter.get(h, 0)
                if c == 0:
                    unfillable += 1
                    witnesses.setdefault((n, k), _witness(X, n, k, h))
                elif c > 1:
                    nonunique += 1
            stats[(n, k)] = (tested, unfillable, nonunique)
    return HornReport(mode, d, stats, witnesses)


def witness_to_map(X, witness):
    """Rebuild the witness horn map as a SimplicialMap Lambda^n_k -> X,
    for replaying a failure through the lifting engine."""
    n, k = witness["n"], witness["k"]
    L = sset.horn(n, k)
    cells = {name: (tuple(s), X.cell_index(tuple(s)[-1], nm))
             for name, (s, nm) in witness["cells"].items()}
    images = {}
    if n == 1:
        (name, simplex), = cells.items()
        images[(0, name)] = simplex
        return sset.map_from_cells(L, X, images)
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
    return sset.map_from_cells(L, X, images)


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
    return X.apply((0,), e), X.apply((1,), e)


def _ho_classes(X):
    """Equivalence classes of 1-simplices under the 2-simplex relation:
    f ~ g when some u in X_2 has d_0 u = f, d_1 u = g and degenerate
    d_2 u.  Verified to be an equivalence relation."""
    edges = list(X.simplices(1))
    related = {e: {e} for e in edges}
    for u in X.simplices(2):
        if is_degenerate(X.apply(face(2, 2), u)):
            f = X.apply(face(2, 0), u)
            g = X.apply(face(2, 1), u)
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


_filler_index_cache = {}


def _lambda21_fillers(X, f, g):
    """All u in X_2 with d_2 u = f and d_0 u = g, in enumeration order."""
    key = id(X)
    index = _filler_index_cache.get(key)
    if index is None or index[0] is not X:
        table = {}
        for u in X.simplices(2):
            pair = (X.apply(face(2, 2), u),
                    X.apply(face(2, 0), u))
            table.setdefault(pair, []).append(u)
        index = (X, table)
        _filler_index_cache[key] = index
    return index[1].get((f, g), [])


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
                        c = classes[X.apply(face(2, 1), u)]
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
        sides = [X.apply(face(2, i), u) for i in range(3)]
        flags = [e in eqs for e in sides]
        if sum(flags) == 2:
            if not all(flags):
                raise LiftingObstruction(
                    "two-out-of-three fails on a 2-simplex", None)
    return eqs


def max_kan_subset(X):
    """The simplicial subset spanned by simplices all of whose edges are
    equivalences."""
    eqs = equivalences(X)

    def cell_ok(k, idx):
        cell = (tidentity(k), idx)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                if X.apply((i, j), cell) not in eqs:
                    return False
        return True

    keep = []
    for k in range(len(X.names)):
        keep.append([idx for idx in range(X.n_cells(k)) if cell_ok(k, idx)])
    new_index = [{idx: j for j, idx in enumerate(level)} for level in keep]
    names = [tuple(X.names[k][idx] for idx in keep[k])
             for k in range(len(keep))]
    faces = []
    for k in range(len(keep)):
        entry = []
        for idx in keep[k]:
            if k == 0:
                entry.append(())
            else:
                entry.append(tuple((s, new_index[s[-1]][sub])
                                   for s, sub in X.faces[k][idx]))
        faces.append(entry)
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
    classes; generators and table-relations, plus a recognized-structure
    tag."""

    def __init__(self, elements, unit, table, verified=True):
        self.elements = list(elements)
        self.unit = unit
        self.table = dict(table)
        self.verified = verified
        self.generators = [e for e in self.elements if e != unit]
        self.relations = ["%s*%s=%s" % (a, b, c)
                          for (a, b), c in sorted(self.table.items())]
        self.structure = self._recognize()

    @property
    def order(self):
        return len(self.elements)

    def multiply(self, a, b):
        return self.table[(a, b)]

    def is_group(self):
        els = self.elements
        for a in els:
            if self.table[(a, self.unit)] != a or \
                    self.table[(self.unit, a)] != a:
                return False
            if not any(self.table[(a, b)] == self.unit and
                       self.table[(b, a)] == self.unit for b in els):
                return False
        for a in els:
            for b in els:
                for c in els:
                    if self.table[(self.table[(a, b)], c)] != \
                            self.table[(a, self.table[(b, c)])]:
                        return False
        return True

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
        """Search for a table isomorphism onto another multiplication
        table given as a dict on pairs of names."""
        other_els = sorted({a for a, _ in table})
        if len(other_els) != self.order:
            return False
        unit2 = None
        for e in other_els:
            if all(table[(e, g)] == g and table[(g, e)] == g
                   for g in other_els):
                unit2 = e
        orders2 = {}
        for a in other_els:
            k, acc = 1, a
            while acc != unit2:
                acc = table[(acc, a)]
                k += 1
            orders2[a] = k

        mine = sorted(self.elements, key=lambda a: (self.element_order(a),
                                                    str(a)))

        def rec(pos, mapping, used):
            if pos == len(mine):
                return True
            a = mine[pos]
            for b in other_els:
                if b in used or orders2[b] != self.element_order(a):
                    continue
                mapping[a] = b
                used.add(b)
                ok = all(
                    table.get((mapping[p], mapping[q]))
                    == mapping.get(self.table[(p, q)], None)
                    for p in mapping for q in mapping
                    if self.table[(p, q)] in mapping)
                if ok and rec(pos + 1, mapping, used):
                    return True
                used.remove(b)
                del mapping[a]
            return False

        return rec(0, {}, set())

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
        if all(X.apply(face(n, i), z) == deg for i in range(n + 1)):
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
