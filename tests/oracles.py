"""Independent oracles for cross-checking fast library paths.

Each oracle computes the same object as a library function by a
different route, and must not call the code it checks.
"""

from itertools import combinations, product

from simpcat.delta import degeneracy, face, tcompose, tfactorize, tidentity
from simpcat.doldkan import boundaries_matrix, cycles_matrix
from simpcat.errors import InputError
from simpcat.fibrations import fiber_category
from simpcat.formats import sset_to_dict
from simpcat.hcnerve import SimplicialCategory, simplicial_functors
from simpcat.intlinalg import Mat, from_columns, kernel_basis, solve_matrix
from simpcat.nerve_cat import FinCategory, Functor, ordinal_category
from simpcat.quasicat import equivalences
from simpcat.segal import BisimplicialSet
from simpcat.sset import (SimplicialMap, SimplicialSet, empty_sset,
                          enumerate_maps)


def from_presheaf_by_collapse(D, levels, action, name_fn=None,
                              truncation="auto"):
    """The E-Z normal form of a truncated presheaf by retraction tests:
    an element x of level n is degenerate when x == s_i(d_i(x)) for some
    i, and a face is normalized by collapsing greedily.  Same arguments
    and result as sset.from_presheaf."""
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
    return SimplicialSet(truncation, names, faces).validate()


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


def product_by_presheaf(X, Y, truncation):
    """X x Y through the collapse normalizer: every pair of
    n-simplices, degenerate ones included, is collapsed by retraction
    tests, and the legs are recovered by matching the "(a|b)" names."""
    levels = [[(a, b) for a in X.simplices(n) for b in Y.simplices(n)]
              for n in range(truncation + 1)]

    def action(alpha, pair):
        a, b = pair
        return (X.apply(alpha, a), Y.apply(alpha, b))

    def name(pair):
        a, b = pair
        return "(%s|%s)" % (X.describe(a), Y.describe(b))

    full = (X.truncation is None and Y.truncation is None
            and truncation >= X.dim_max + Y.dim_max)
    P = from_presheaf_by_collapse(truncation, levels, action,
                                  name_fn=lambda n, pair: name(pair),
                                  truncation=None if full else truncation)
    lookup = {(n, name(pair)): pair
              for n, level in enumerate(levels) for pair in level}
    pairs = [[lookup[(k, cell)] for cell in P.names[k]]
             for k in range(len(P.names))]
    legs = (SimplicialMap(P, X, [[a for a, _ in lv] for lv in pairs]),
            SimplicialMap(P, Y, [[b for _, b in lv] for lv in pairs]))
    for leg in legs:
        leg.validate()
    return P, legs


def apply_by_factorization(X, alpha, simplex):
    """alpha^*(x) for an E-Z simplex x = (s, idx) of X: factor s . alpha
    into epi and mono, restrict the cell along the mono, then precompose
    the epi.  Reads only the stored faces X.faces."""
    s, idx = simplex
    epi, image = tfactorize(tcompose(s, alpha))
    u, w = _restrict(X, image, s[-1], idx)
    return (tcompose(u, epi), w)


def _restrict(X, image, k, idx):
    """mu^*(y) in E-Z form for the injection mu: [p] -> [k] with the
    given image tuple and y the nondegenerate k-cell idx.

    Strips the largest missing value i, so that mu factors as face(k, i)
    composed with a smaller injection, reroutes through the stored face
    d_i(y) and factors again."""
    if len(image) == k + 1:
        return (tidentity(k), idx)
    i = k
    present = set(image)
    while i in present:
        i -= 1
    rest = tuple(v if v < i else v - 1 for v in image)
    t, sub = X.faces[k][idx][i]
    epi, image2 = tfactorize(tcompose(t, rest))
    u, w = _restrict(X, image2, t[-1], sub)
    return (tcompose(u, epi), w)


# -- faces of every simplex, one face_of at a time


def check_identities_by_cells(X):
    """SimplicialSet.check_identities one cell at a time: the faces of
    each stored face (the stored tuple of a nondegenerate face, one
    face_of per index of a degenerate one) are compared per identity
    d_i d_j = d_{j-1} d_i, i < j, in the order cell, j, i."""
    for k in range(2, len(X.names)):
        below = X.faces[k - 1]
        for idx, entry in enumerate(X.faces[k]):
            ff = [below[sub] if s[-1] == k - 1
                  else X.simplex_faces((s, sub)) for s, sub in entry]
            for j in range(1, k + 1):
                for i in range(j):
                    if ff[j][i] != ff[i][j - 1]:
                        raise InputError(
                            "simplicial identity fails at cell %s "
                            "(i=%d, j=%d)" % (X.names[k][idx], i, j))


def ranked_by_face_of(X, m):
    """SimplicialSet.ranked(m) by sorting X.simplices(m) and ranking one
    face_of per simplex per face: (order, faces, natural)."""
    simplices = X.simplices(m)
    order = sorted(simplices)
    rank = {w: r for r, w in enumerate(order)}
    faces = []
    if m:
        below = {w: r for r, w in enumerate(sorted(X.simplices(m - 1)))}
        faces = [[below[X.face_of(i, w)] for w in order]
                 for i in range(m + 1)]
    return order, faces, [rank[w] for w in simplices]


def face_index_by_face_of(X, m, positions):
    """SimplicialSet.face_index(m, positions) by sorting X.simplices(m)
    and X.simplices(m - 1), as ranked_by_face_of does, and reading one
    face_of per simplex per position."""
    below = {w: r for r, w in enumerate(sorted(X.simplices(m - 1)))}
    index = {}
    for r, w in enumerate(sorted(X.simplices(m))):
        key = tuple(below[X.face_of(i, w)] for i in positions)
        index.setdefault(key, []).append(r)
    return index


# -- blocks of simplices by grouping every simplex


def doubled_blocks_by_grouping(X, q):
    """sset._doubled_blocks by grouping every q-simplex of X by the mask
    of its doubled indices, in order of first appearance."""
    blocks = {}
    for s, idx in X.simplices(q):
        mask = sum(1 << i for i in range(q) if s[i] == s[i + 1])
        blocks.setdefault(mask, []).append((s, idx))
    return list(blocks.items())


# -- simplices by their faces, one face_of per face


def faces_by_simplex(X, n):
    """{w: (d_0 w, ..., d_n w)} over the n-simplices w of X, n >= 1,
    kept on X under a key of its own."""
    return X.memo(("faces_by_simplex", n), lambda X: {
        w: tuple(X.face_of(i, w) for i in range(n + 1))
        for w in X.simplices(n)})


def simplices_by_faces(X, n):
    """{face tuple: the n-simplices with those faces, in simplices(n)
    order}, kept on X under a key of its own."""
    def build(X):
        index = {}
        for w, fw in faces_by_simplex(X, n).items():
            index.setdefault(fw, []).append(w)
        return index
    return X.memo(("simplices_by_faces", n), build)


# -- horn search: candidates by intersecting single-face indexes


def facet_tuples_by_intersection(X, n, k):
    """All horn maps Lambda^n_k -> X for n >= 2, each given by the tuple
    of its facet images (d_j for j != k), pairwise compatible."""
    J = [j for j in range(n + 1) if j != k]
    faces_of = faces_by_simplex(X, n - 1)
    index = X.memo(("cofaces", n - 1), lambda X: _coface_index(faces_of))
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
        pool = faces_of if cands is None else sorted(cands)
        for w in pool:
            assignment[j] = w
            rec(p + 1)
            del assignment[j]

    rec(0)
    return J, results


def _coface_index(faces_of):
    """{(i, v): the set of simplices w with d_i w = v}."""
    index = {}
    for w, fw in faces_of.items():
        for i, v in enumerate(fw):
            index.setdefault((i, v), set()).add(w)
    return index


def horn_stats_by_intersection(X, n, k):
    """(tested, unfillable, nonunique, first unfillable horn) for the
    horn maps Lambda^n_k -> X, n >= 2: every horn from
    facet_tuples_by_intersection, its fillers counted through the index
    of n-simplices by face tuple.  Same result as quasicat._horn_stats."""
    J, horns = facet_tuples_by_intersection(X, n, k)
    counter = {}
    for fw, ws in simplices_by_faces(X, n).items():
        key = tuple(fw[j] for j in J)
        counter[key] = counter.get(key, 0) + len(ws)
    unfillable = nonunique = 0
    first = None
    for h in horns:
        c = counter.get(h, 0)
        if c == 0:
            unfillable += 1
            if first is None:
                first = h
        elif c > 1:
            nonunique += 1
    return len(horns), unfillable, nonunique, first


# -- coherent nerve: composition checked on every pair of simplices


def simplicial_functors_all_pairs(F, C):
    """hcnerve.simplicial_functors by filtering every choice of map-space
    maps, with the composition law checked on every pair (g, f) of
    simplices up to the level bound, degenerate ones included."""
    n = len(F.objects) - 1
    pairs = sorted(((i, j) for i in range(n + 1) for j in range(i + 1, n + 1)),
                   key=lambda p: (p[1] - p[0], p[0]))
    out = []
    for objs in product(C.objects, repeat=n + 1):
        choices = [enumerate_maps(F.mapspaces[(str(i), str(j))],
                                  C.mapspaces[(objs[i], objs[j])])
                   for i, j in pairs]
        for maps in product(*choices):
            images = {(pair, k, idx): value
                      for pair, m in zip(pairs, maps)
                      for k, level in enumerate(m.assignment)
                      for idx, value in enumerate(level)}
            if all(_check_triple(F, C, objs, images, a, b, c)
                   for a, b, c in combinations(range(n + 1), 3)):
                out.append((objs, images))
    return out


def _functor_apply(images, pair, simplex):
    s, idx = simplex
    t, w = images[(pair, s[-1], idx)]
    return (tcompose(t, s), w)


def _check_triple(F, C, objs, images, a, b, c):
    gspace = F.mapspaces[(str(b), str(c))]
    fspace = F.mapspaces[(str(a), str(b))]
    bound = min(C.level_bound, F.level_bound)
    for q in range(bound + 1):
        for g in gspace.simplices(q):
            for f in fspace.simplices(q):
                h = F.compose(str(a), str(b), str(c), g, f)
                lhs = _functor_apply(images, (a, c), h)
                rhs = C.compose(
                    objs[a], objs[b], objs[c],
                    _functor_apply(images, (b, c), g),
                    _functor_apply(images, (a, b), f))
                if lhs != rhs:
                    return False
    return True


# -- standard objects: subcomplexes of a simplex by vertex subsets


def subset_complex_by_combinations(n, keep):
    """The simplicial subset of the standard n-simplex spanned by the
    vertex subsets keep accepts, listed level by level in the order of
    combinations, each face looked up among the subsets one level down."""
    names = []
    faces = []
    index = []
    for j in range(n + 1):
        level = [c for c in combinations(range(n + 1), j + 1) if keep(c)]
        index.append({c: i for i, c in enumerate(level)})
        names.append(tuple("-".join(str(v) for v in c) for c in level))
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


# -- frak_c and the coherent nerve: one poset nerve per pair of objects


def poset_nerve_by_chains(elements, leq, name_of):
    """The finite nerve of a poset: k-cells are strict chains, each
    extended by every element in name order; returns the nerve, the
    chain index of each level and the chains."""
    elements = sorted(elements, key=name_of)
    levels = []
    index = []
    level0 = [tuple([e]) for e in elements]
    levels.append(level0)
    while levels[-1]:
        nxt = []
        for c in levels[-1]:
            for e in elements:
                if c[-1] != e and leq(c[-1], e):
                    nxt.append(c + (e,))
        if not nxt:
            break
        levels.append(nxt)
    names = []
    faces = []
    for k, level in enumerate(levels):
        index.append({c: j for j, c in enumerate(level)})
        names.append(tuple("<".join(name_of(e) for e in c) for c in level))
        entry = []
        for c in level:
            if k == 0:
                entry.append(())
            else:
                entry.append(tuple(
                    (tidentity(k - 1), index[k - 1][c[:i] + c[i + 1:]])
                    for i in range(k + 1)))
        faces.append(entry)
    return SimplicialSet(None, names, faces), index, levels


def _chain_of_simplex(levels, simplex):
    """Expand an E-Z simplex of a poset nerve to its weak chain."""
    s, idx = simplex
    strict = levels[s[-1]][idx]
    return tuple(strict[v] for v in s)


def _simplex_of_chain(index, chain):
    """E-Z normal form of a weak chain in a poset nerve."""
    strict = []
    word = []
    for e in chain:
        if strict and strict[-1] == e:
            word.append(word[-1])
        else:
            strict.append(e)
            word.append(len(strict) - 1)
    return (tuple(word), index[len(strict) - 1][tuple(strict)])


def _subset_name(U):
    return "".join(str(v) for v in sorted(U))


def pair_subsets(i, j):
    """The subsets of {i..j} containing both ends, i <= j, as frozensets
    in order of size, then of their sorted points."""
    if i == j:
        return [frozenset([i])]
    elements = [frozenset(U) | {i, j} for r in range(j - i)
                for U in combinations(range(i + 1, j), r)]
    return sorted(set(elements), key=lambda U: (len(U), sorted(U)))


def frak_c_by_pairs(n):
    """hcnerve.frak_c with one poset nerve of subsets per pair (i, j) and
    each composite the union of the two chains of subsets, per triple.
    Keeps chains[(i, j)] = (levels, index) of Map(i, j) for
    coherent_nerve_by_pairs."""
    if n < 0:
        raise InputError("need n >= 0")
    objects = [str(j) for j in range(n + 1)]
    mapspaces = {}
    chains = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                mapspaces[(str(i), str(j))] = empty_sset()
                continue
            space, index, levels = poset_nerve_by_chains(
                pair_subsets(i, j), lambda a, b: a <= b, _subset_name)
            mapspaces[(str(i), str(j))] = space
            chains[(str(i), str(j))] = (levels, index)

    def compose_fn(x, y, z, q, g, f):
        gc = _chain_of_simplex(chains[(y, z)][0], g)
        fc = _chain_of_simplex(chains[(x, y)][0], f)
        union = tuple(a | b for a, b in zip(gc, fc))
        return _simplex_of_chain(chains[(x, z)][1], union)

    identities = {str(j): _subset_name(frozenset([j]))
                  for j in range(n + 1)}
    F = SimplicialCategory(objects, mapspaces, identities, compose_fn,
                           level_bound=max(1, n - 1))
    F.chains = chains
    return F


def coherent_nerve_by_pairs(C, d):
    """hcnerve.coherent_nerve over the gadgets frak_c_by_pairs(0..d),
    each built on its own, with frak_c(alpha) read off the chains of
    subsets: a cell's chain goes to the chain of its images under alpha.
    The simplicial functors come from hcnerve.simplicial_functors."""
    gadgets = [frak_c_by_pairs(n) for n in range(d + 1)]
    cells = [[((i, j), k, idx)
              for i in range(n + 1) for j in range(i + 1, n + 1)
              for k, level in enumerate(
                  F.mapspaces[(str(i), str(j))].names)
              for idx in range(len(level))]
             for n, F in enumerate(gadgets)]
    position = [{key: p for p, key in enumerate(c)} for c in cells]
    levels = [[(objs, tuple(images[key] for key in cells[n]))
               for objs, images in simplicial_functors(gadgets[n], C)]
              for n in range(d + 1)]

    def action(alpha, element):
        objs, images = element
        n = len(objs) - 1
        out = []
        for (i, j), k, idx in cells[len(alpha) - 1]:
            ti, tj = alpha[i], alpha[j]
            if ti == tj:
                out.append(C.identity_simplex(objs[ti], k))
                continue
            chain = gadgets[len(alpha) - 1].chains[(str(i), str(j))][0]
            _, index = gadgets[n].chains[(str(ti), str(tj))]
            s, w = _simplex_of_chain(index, [
                frozenset([alpha[v] for v in U]) for U in chain[k][idx]])
            t, u = images[position[n][((ti, tj), s[-1], w)]]
            out.append((tcompose(t, s), u))
        return tuple(objs[v] for v in alpha), tuple(out)

    index = [{x: j for j, x in enumerate(level)} for level in levels]
    return from_presheaf_by_collapse(
        d, levels, action, name_fn=lambda n, x: "F%d" % index[n][x])


# -- simplicial categories: composition tabulated and checked on every pair


class SimplicialCategoryAllPairs:
    """hcnerve.SimplicialCategory with compose_fn tabulated on every pair
    (g, f) of q-simplices, degenerate ones included, and validated on
    all of them by validate(): q+1 face and q+1 degeneracy checks per
    pair, and associativity on every triple.  Same arguments as the
    library class, and like it a record."""

    def __init__(self, objects, mapspaces, identities, compose_fn,
                 level_bound):
        self.objects = tuple(objects)
        self.mapspaces = dict(mapspaces)
        self.identities = dict(identities)
        self.level_bound = level_bound
        self.comp = {}
        for x in self.objects:
            for y in self.objects:
                for z in self.objects:
                    gspace = self.mapspaces[(y, z)]
                    fspace = self.mapspaces[(x, y)]
                    if gspace.n_cells(0) == 0 or fspace.n_cells(0) == 0:
                        continue
                    table = {}
                    for q in range(level_bound + 1):
                        for g in gspace.simplices(q):
                            for f in fspace.simplices(q):
                                table[(g, f)] = compose_fn(x, y, z, q, g, f)
                    self.comp[(x, y, z)] = table

    def mapspace(self, x, y):
        return self.mapspaces[(x, y)]

    def compose(self, x, y, z, g, f):
        return self.comp[(x, y, z)][(g, f)]

    def identity_simplex(self, x, q):
        """The identity of x, degenerated up to level q."""
        space = self.mapspaces[(x, x)]
        idx = space.cell_index(0, self.identities[x])
        return (tuple(0 for _ in range(q + 1)), idx)

    def validate(self):
        for x in self.objects:
            space = self.mapspaces.get((x, x))
            if space is None or self.identities.get(x) not in space.cells(0):
                raise InputError("object %s lacks an identity vertex" % x)
        B = self.level_bound
        for (x, y, z), table in self.comp.items():
            gspace = self.mapspaces[(y, z)]
            fspace = self.mapspaces[(x, y)]
            hspace = self.mapspaces[(x, z)]
            for (g, f), h in table.items():
                q = len(g[0]) - 1
                # unit laws
                if x == y and f == self.identity_simplex(x, q):
                    if h != g:
                        raise InputError("right unit law fails at %s"
                                         % (g,))
                if y == z and g == self.identity_simplex(y, q):
                    if h != f:
                        raise InputError("left unit law fails at %s"
                                         % (f,))
                # simpliciality on faces and degeneracies
                if q >= 1:
                    for i in range(q + 1):
                        lhs = hspace.face_of(i, h)
                        rhs = table[(gspace.face_of(i, g),
                                     fspace.face_of(i, f))]
                        if lhs != rhs:
                            raise InputError(
                                "composition is not simplicial at level %d"
                                % q)
                if q < B:
                    for i in range(q + 1):
                        alpha = degeneracy(q + 1, i)
                        lhs = hspace.apply(alpha, h)
                        rhs = table[(gspace.apply(alpha, g),
                                     fspace.apply(alpha, f))]
                        if lhs != rhs:
                            raise InputError(
                                "composition is not simplicial at level %d"
                                % q)
        # associativity: for f: w->x, g: x->y, h: y->z compare
        # (h.g).f with h.(g.f)
        for w in self.objects:
            for x in self.objects:
                for y in self.objects:
                    for z in self.objects:
                        t_gf = self.comp.get((w, x, y))
                        t_hg = self.comp.get((x, y, z))
                        t_h_gf = self.comp.get((w, y, z))
                        t_hg_f = self.comp.get((w, x, z))
                        if None in (t_gf, t_hg, t_h_gf, t_hg_f):
                            continue
                        for q in range(B + 1):
                            for h in self.mapspaces[(y, z)].simplices(q):
                                for g in self.mapspaces[(x, y)].simplices(q):
                                    for f in self.mapspaces[(w, x)] \
                                            .simplices(q):
                                        if t_hg_f[(t_hg[(h, g)], f)] != \
                                                t_h_gf[(h, t_gf[(g, f)])]:
                                            raise InputError(
                                                "composition is not "
                                                "associative at level %d"
                                                % q)
        return self

    def __repr__(self):
        return "SimplicialCategoryAllPairs(%d objects, level_bound=%d)" % (
            len(self.objects), self.level_bound)


def all_pairs_to_dict(C):
    """formats.simplicial_category_to_dict for SimplicialCategoryAllPairs:
    every stored entry written as it is, in sorted order."""
    comp = {}
    for (x, y, z), table in sorted(C.comp.items()):
        entries = []
        for (g, f), h in sorted(table.items()):
            entries.append([[list(g[0]), g[1]], [list(f[0]), f[1]],
                            [list(h[0]), h[1]]])
        comp["%s|%s|%s" % (x, y, z)] = entries
    return {
        "kind": "simplicial-category",
        "objects": list(C.objects),
        "level_bound": C.level_bound,
        "map_spaces": {"%s|%s" % k: sset_to_dict(v)
                       for k, v in sorted(C.mapspaces.items())},
        "identities": dict(C.identities),
        "compositions": comp,
    }


# -- cocartesian analysis: definition unfolding through base changes


def base_change_to_ordinal(F, chain):
    """Pullback of F along the functor [k] -> D picking a composable
    chain of base arrows; returns (category, projection-to-[k]-functor,
    object embedding map).  Each arrow (g@i->j) keeps (g, i, j) in a
    table, so arrows of F's source may be named by integers."""
    C, D = F.source, F.target
    k = len(chain)
    if not chain:
        raise InputError("base chain must be nonempty")
    vs = [D.src[chain[0]]]
    for a in chain:
        vs.append(D.dst[a])

    def seg(i, j):
        if i == j:
            return D.ident[vs[i]]
        out = chain[i]
        for t in range(i + 1, j):
            out = D.compose(chain[t], out)
        return out

    objects = []
    src = {}
    dst = {}
    arrows = []
    omap = {}
    lifted = {}  # arrow name -> (g, i, j)
    for i in range(k + 1):
        for c in C.objects:
            if F.obj_map[c] == vs[i]:
                name = "(%s@%d)" % (c, i)
                objects.append(name)
                omap[name] = (c, i)
    for n1 in objects:
        c1, i1 = omap[n1]
        for n2 in objects:
            c2, i2 = omap[n2]
            if i1 > i2:
                continue
            for g in C.hom(c1, c2):
                if F.arr_map[g] == seg(i1, i2):
                    a = "(%s@%d->%d)" % (g, i1, i2)
                    arrows.append(a)
                    src[a] = n1
                    dst[a] = n2
                    lifted[a] = (g, i1, i2)
    comp = {}
    for a2 in arrows:
        g2, _, i2 = lifted[a2]
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            g1, i1, _ = lifted[a1]
            comp[(a2, a1)] = "(%s@%d->%d)" % (C.compose(g2, g1), i1, i2)
    ident = {}
    for n1 in objects:
        c1, i1 = omap[n1]
        ident[n1] = "(%s@%d->%d)" % (C.ident[c1], i1, i1)
    P = FinCategory(objects, arrows, src, dst, comp, ident)
    P.validate()
    proj = Functor(P, ordinal_category(k),
                   {n: str(omap[n][1]) for n in objects},
                   {a: "%d<=%d" % lifted[a][1:] for a in arrows})
    proj.validate()
    return P, proj, omap


def locally_cocartesian_oracle(F, alpha):
    """Definition unfolding: alpha is locally cocartesian iff in the
    base change over [1] its target corepresents lifting-with-shadow:
    maps out of the target biject with maps out of the source lying over
    the unique composite.  Enumerated as raw sets, independently of the
    Hom-square route."""
    C, D = F.source, F.target
    falpha = F.arr_map[alpha]
    x, y = C.src[alpha], C.dst[alpha]
    if D.is_identity(falpha):
        fiber = fiber_category(F, D.src[falpha])
        for z in fiber.objects:
            pairs = {}
            for c in fiber.hom(y, z):
                comp = fiber.compose(c, alpha)
                pairs.setdefault(comp, []).append(c)
            hom_xz = fiber.hom(x, z)
            if sorted(pairs) != sorted(hom_xz):
                return False
            if any(len(v) != 1 for v in pairs.values()):
                return False
        return True
    P, proj, omap = base_change_to_ordinal(F, [falpha])
    a_lift = "(%s@0->1)" % alpha
    x1 = P.src[a_lift]
    y1 = P.dst[a_lift]
    # objects of the fiber over 1
    fiber1 = [o for o in P.objects if omap[o][1] == 1]
    for z in fiber1:
        mapping = {}
        for c in P.hom(y1, z):
            mapping.setdefault(P.compose(c, a_lift), []).append(c)
        hom_xz = P.hom(x1, z)
        if sorted(mapping) != sorted(hom_xz):
            return False
        if any(len(v) != 1 for v in mapping.values()):
            return False
    return True


def cocart_analyze_oracle(F):
    """Independent re-derivation of the analysis: per-arrow local flags
    via the raw unique-lifting unfolding above, cocartesian fibration
    via the base-change-to-[2] criterion: every base change over a
    composable pair must be a locally cocartesian fibration whose
    flagged arrows are closed under composition."""
    C, D = F.source, F.target
    local_flags = {a: locally_cocartesian_oracle(F, a) for a in C.arrows}
    loc_fib = True
    for x in C.objects:
        fx = F.obj_map[x]
        for phi in D.arrows:
            if D.src[phi] != fx:
                continue
            if not any(C.src[a] == x and F.arr_map[a] == phi and
                       local_flags[a] for a in C.arrows):
                loc_fib = False
    coc_fib = loc_fib
    if loc_fib:
        for b, a in D.composable_pairs():
            P, proj, omap = base_change_to_ordinal(F, [a, b])
            flags = {ar: locally_cocartesian_oracle(proj, ar)
                     for ar in P.arrows}
            for o in P.objects:
                i = omap[o][1]
                for j in range(i, 3):
                    base_arrow = "%d<=%d" % (i, j)
                    if not any(P.src[ar] == o and
                               proj.arr_map[ar] == base_arrow and
                               flags[ar] for ar in P.arrows):
                        coc_fib = False
            for g, f in P.composable_pairs():
                if flags[g] and flags[f] and \
                        not flags[P.compose(g, f)]:
                    coc_fib = False
            if not coc_fib:
                break
    return {"locally_cocartesian_arrows":
            sorted(a for a, v in local_flags.items() if v),
            "is_locally_cocartesian_fibration": loc_fib,
            "is_cocartesian_fibration": coc_fib}


# -- quasi-isomorphisms: the induced map on homology


def _h_map_surjective(f, n):
    X, Y = f.source, f.target
    ZX = cycles_matrix(X, n)
    ZY = cycles_matrix(Y, n)
    if ZY.cols == 0:
        return True
    F = f.at(n)
    cols = [F.apply(ZX.column(j)) for j in range(ZX.cols)] + \
        boundaries_matrix(Y, n).columns()
    span = from_columns(cols, Y.rank(n)) if cols else Mat(Y.rank(n), 0)
    return solve_matrix(span, ZY) is not None


def _h_map_injective(f, n):
    X, Y = f.source, f.target
    ZX = cycles_matrix(X, n)
    if ZX.cols == 0:
        return True
    BX = boundaries_matrix(X, n)
    BY = boundaries_matrix(Y, n)
    F = f.at(n)
    fZ = from_columns([F.apply(ZX.column(j)) for j in range(ZX.cols)],
                      Y.rank(n))
    big = fZ.hstack(BY) if BY.cols else fZ
    for col in kernel_basis(big):
        x = ZX.apply(col[:ZX.cols])
        if not any(x):
            continue
        target = from_columns([x], X.rank(n))
        if BX.cols == 0 or solve_matrix(BX, target) is None:
            return False
    return True


def quasi_iso_by_homology_comparison(f):
    """Independent verdict via direct kernel/image computation: the
    induced map on homology must be surjective in degrees lo+2 .. hi-1
    and injective in degrees lo+1 .. hi-2, the exact content (by the
    cone long exact sequence) of cone vanishing on its determined
    range."""
    X = f.source
    lo, hi = X.lo, X.hi
    for n in range(lo + 2, hi):
        if not _h_map_surjective(f, n):
            return False
    for n in range(lo + 1, hi - 1):
        if not _h_map_injective(f, n):
            return False
    return True


# -- natural isomorphisms of functors


def functors_naturally_isomorphic(F, G):
    """Search for a natural isomorphism between two parallel functors;
    returns the component dict or None."""
    if F.source is not G.source or F.target is not G.target:
        return None
    A, B = F.source, F.target
    objs = list(A.objects)

    def rec(pos, eta):
        if pos == len(objs):
            return dict(eta)
        x = objs[pos]
        for comp in B.hom(F.obj_map[x], G.obj_map[x]):
            if not B.is_iso(comp):
                continue
            eta[x] = comp
            ok = True
            for a in A.arrows:
                sx, tx = A.src[a], A.dst[a]
                if sx in eta and tx in eta:
                    if B.compose(G.arr_map[a], eta[sx]) != \
                            B.compose(eta[tx], F.arr_map[a]):
                        ok = False
                        break
            if ok:
                result = rec(pos + 1, eta)
                if result is not None:
                    return result
            del eta[x]
        return None

    return rec(0, {})


# -- isomorphisms of categories by backtracking


def category_isomorphism_by_backtracking(C, D):
    """Search for an isomorphism of categories object by object, then
    arrow by arrow within the matching hom-sets; returns the functor or
    None."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return None
    objs = list(C.objects)

    def try_obj(pos, omap, used):
        if pos == len(objs):
            return match_arrows(omap)
        x = objs[pos]
        for y in D.objects:
            if y in used:
                continue
            omap[x] = y
            used.add(y)
            result = try_obj(pos + 1, omap, used)
            if result is not None:
                return result
            used.remove(y)
            del omap[x]
        return None

    def match_arrows(omap):
        amap = {}
        order = sorted(C.arrows)

        def rec(pos):
            if pos == len(order):
                F = Functor(C, D, dict(omap), dict(amap))
                try:
                    F.validate()
                except InputError:
                    return None
                return F if F.is_isomorphism() else None
            a = order[pos]
            want = (omap[C.src[a]], omap[C.dst[a]])
            for b in D.hom(*want):
                if b in amap.values():
                    continue
                if C.is_identity(a) != D.is_identity(b):
                    continue
                amap[a] = b
                result = rec(pos + 1)
                if result is not None:
                    return result
                del amap[a]
            return None

        return rec(0)

    return try_obj(0, {}, set())


# -- maps and extensions by backtracking in dimension order


def lift_extensions_by_dimension_order(i, f):
    """sset.lift_extensions by recursing over the cells of B outside
    i(A) in (k, idx) order, each candidate image looked up by the images
    of its faces in simplices_by_faces(X, k), in the order listed
    there."""
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
            return X.simplices(0)
        forced = []
        for s, sub in B.faces[k][idx]:
            t, w = current[(s[-1], sub)]
            forced.append((tcompose(t, s), w))
        return simplices_by_faces(X, k).get(tuple(forced), ())

    def extend(pos, current):
        if pos == len(todo):
            assignment = [
                [current[(k, idx)] for idx in range(B.n_cells(k))]
                for k in range(len(B.names))]
            results.append(SimplicialMap(B, X, assignment))
            return
        k, idx = todo[pos]
        for w in candidates_for(k, idx, current):
            current[(k, idx)] = w
            extend(pos + 1, current)
            del current[(k, idx)]

    extend(0, dict(assigned))
    return results


def maps_by_dimension_order(B, X):
    """sset.enumerate_maps: the extensions along the empty subobject."""
    A = empty_sset()
    return lift_extensions_by_dimension_order(
        SimplicialMap(A, B, [[]]), SimplicialMap(A, X, [[]]))


# -- functors by backtracking over objects, then arrows


def all_functors_by_backtracking(C, D):
    """nerve_cat.all_functors by backtracking over objects and then the
    sorted non-identity arrows, keeping the assignments that validate."""
    objs = list(C.objects)
    arrows = sorted(C.nonidentity_arrows())
    out = []

    def close(omap, amap, pos):
        if pos == len(arrows):
            full = dict(amap)
            for x in objs:
                full[C.ident[x]] = D.ident[omap[x]]
            F = Functor(C, D, dict(omap), full)
            try:
                F.validate()
            except InputError:
                return
            out.append(F)
            return
        a = arrows[pos]
        for b in D.hom(omap[C.src[a]], omap[C.dst[a]]):
            amap[a] = b
            close(omap, amap, pos + 1)
            del amap[a]

    def pick(pos, omap):
        if pos == len(objs):
            close(omap, {}, 0)
            return
        for y in D.objects:
            omap[objs[pos]] = y
            pick(pos + 1, omap)
            del omap[objs[pos]]

    pick(0, {})
    return out


# -- the maximal Kan subset by testing every edge of every cell


def max_kan_subset_by_edges(X):
    """The simplicial subset of the cells all of whose edges, each
    restricted by apply, are equivalences."""
    eqs = equivalences(X)

    def cell_ok(k, idx):
        cell = (tidentity(k), idx)
        return all(X.apply((i, j), cell) in eqs
                   for i in range(k + 1) for j in range(i + 1, k + 1))

    keep = [[idx for idx in range(X.n_cells(k)) if cell_ok(k, idx)]
            for k in range(len(X.names))]
    new_index = [{idx: j for j, idx in enumerate(level)} for level in keep]
    names = [tuple(X.names[k][idx] for idx in level)
             for k, level in enumerate(keep)]
    faces = [[tuple((s, new_index[s[-1]][sub]) for s, sub in X.faces[k][idx])
              for idx in level] for k, level in enumerate(keep)]
    return SimplicialSet(X.truncation, names, faces).validate()


def smith_normal_form_all_transforms(A):
    """(D, S, T, Sinv, Tinv) with D = S * A * T diagonal in divisor-chain
    form, S and T unimodular, and their inverses tracked alongside.  The
    full-scan elimination that builds and updates all four transforms on
    every step; intlinalg.smith_normal_form must agree with it on D and
    on every transform it is asked for."""
    D = A.copy()
    m, n = D.rows, D.cols
    S = Mat.identity(m)
    Sinv = Mat.identity(m)
    T = Mat.identity(n)
    Tinv = Mat.identity(n)

    def swap_rows(i, j):
        D.data[i], D.data[j] = D.data[j], D.data[i]
        S.data[i], S.data[j] = S.data[j], S.data[i]
        for r in Sinv.data:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in D.data:
            r[i], r[j] = r[j], r[i]
        for r in T.data:
            r[i], r[j] = r[j], r[i]
        Tinv.data[i], Tinv.data[j] = Tinv.data[j], Tinv.data[i]

    def add_row(i, j, k):
        # row_i += k * row_j ; inverse: column j of Sinv -= k * column i
        D.data[i] = [a + k * b for a, b in zip(D.data[i], D.data[j])]
        S.data[i] = [a + k * b for a, b in zip(S.data[i], S.data[j])]
        for r in Sinv.data:
            r[j] -= k * r[i]

    def add_col(j, i, k):
        # col_j += k * col_i ; inverse: row i of Tinv -= k * row j
        for r in D.data:
            r[j] += k * r[i]
        for r in T.data:
            r[j] += k * r[i]
        Tinv.data[i] = [a - k * b
                        for a, b in zip(Tinv.data[i], Tinv.data[j])]

    def negate_row(i):
        D.data[i] = [-a for a in D.data[i]]
        S.data[i] = [-a for a in S.data[i]]
        for r in Sinv.data:
            r[i] = -r[i]

    s = 0
    while s < min(m, n):
        # find pivot of least absolute value
        piv = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                a = D.data[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != s:
            swap_rows(s, i)
        if j != s:
            swap_cols(s, j)
        # clear the pivot row and column
        dirty = False
        for i in range(s + 1, m):
            a = D.data[i][s]
            if a:
                add_row(i, s, -(a // D.data[s][s]))
                if D.data[i][s]:
                    dirty = True
        for j in range(s + 1, n):
            a = D.data[s][j]
            if a:
                add_col(j, s, -(a // D.data[s][s]))
                if D.data[s][j]:
                    dirty = True
        if dirty:
            continue
        if any(D.data[i][s] for i in range(s + 1, m)) or \
                any(D.data[s][j] for j in range(s + 1, n)):
            continue
        # enforce divisibility of the remaining block by the pivot
        p = D.data[s][s]
        offender = None
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if D.data[i][j] % p != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            add_row(s, offender[0], 1)
            continue
        if p < 0:
            negate_row(s)
        s += 1
    return D, S, T, Sinv, Tinv


# -- Rezk nerves on grids of arrow names, every table entry looked up by grid


def chain_transformation_category(R, n):
    """Fun([n], (C, W)) built directly: objects are the n-chains, arrows
    the pointwise-W transformations.  Each row p of segal.rezk_nerve(R)
    is the nerve of this category at n = p."""
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


def strict_segal_check_by_enumeration(X):
    """The failures of segal.strict_segal_check, found on cell names:
    each spine read through h_map, and every p-tuple of edges ending
    where the next one starts listed and looked up among the spines."""
    failures = []
    for p in range(2, X.m_trunc + 1):
        for q in range(X.n_trunc + 1):
            spines = [tuple(X.h_map((i, i + 1), p, q, x) for i in range(p))
                      for x in X.level(p, q)]
            if len(set(spines)) != len(spines):
                failures.append({"p": p, "q": q, "reason": "not injective"})
                continue
            ends = {e: (X.h_map((0,), 1, q, e), X.h_map((1,), 1, q, e))
                    for e in X.level(1, q)}
            chains = [(e,) for e in X.level(1, q)]
            for _ in range(p - 1):
                chains = [c + (e,) for c in chains for e in X.level(1, q)
                          if ends[c[-1]][1] == ends[e][0]]
            if not set(chains) <= set(spines):
                failures.append({"p": p, "q": q, "reason": "not surjective"})
    return failures


def rezk_nerve_by_grids(R, M, N):
    """segal.rezk_nerve by hashing grids: a (p, q) cell is kept as its
    grid (rows, verticals) of arrow names, named as it is enumerated, and
    every table entry looks its target's name up by grid."""
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
    row_faces = {row: tuple(_chain_face_by_grids(C, row, vertices[row], i)
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
    # each grid's position in its level
    position = {key: {g: x for x, g in enumerate(named)}
                for key, named in names.items()}
    h_face = {}
    h_degen = {}
    v_face = {}
    v_degen = {}
    for (p, q), named in names.items():
        if not named:
            continue
        if p >= 1:
            target = position[(p - 1, q)]
            for i in range(p + 1):
                h_face[(p, q, i)] = [target[h_face_of(g, i)]
                                     for g in named]
        if p < M:
            target = position[(p + 1, q)]
            for i in range(p + 1):
                h_degen[(p, q, i)] = [target[h_degen_of(g, i)]
                                      for g in named]
        if q >= 1:
            target = position[(p, q - 1)]
            for j in range(q + 1):
                v_face[(p, q, j)] = [target[v_face_of(g, q, j)]
                                     for g in named]
        if q < N:
            target = position[(p, q + 1)]
            for j in range(q + 1):
                v_degen[(p, q, j)] = [target[v_degen_of(g, j)]
                                      for g in named]
    return BisimplicialSet(M, N, cells, h_face, h_degen, v_face,
                           v_degen).validate()


def _chain_face_by_grids(C, row, vertices, i):
    """The i-th face of the chain row = (source, arrows) of a category C:
    drop the first or last vertex, or compose across vertex i."""
    x, chain = row
    if i == 0:
        return (vertices[1], chain[1:])
    if i == len(chain):
        return (x, chain[:-1])
    return (x, chain[:i - 1] + (C.compose(chain[i], chain[i - 1]),)
            + chain[i + 1:])


# -- document loaders that shape-check every item ------------------------------
#
# The loaders of simplicial sets, bisimplicial sets and simplicial
# categories as they were when formats checked the shape of every item of
# a document before the constructor validated the same values again.
# formats must agree with them: both raise InputError, or both build
# equal objects.  They accept any key made of decimal digits ("01",
# "٢"), where formats wants canonical integers.


def sset_from_dict_by_shape_check(d):
    if d.get("kind") not in (None, "simplicial-set"):
        raise InputError("expected a simplicial-set document")
    cells, face_doc = d.get("cells"), d.get("faces", {})
    truncation = d.get("truncation")
    if not (isinstance(cells, dict) and isinstance(face_doc, dict) and all(
            k.isdecimal() and _is_names(v) for k, v in cells.items()) and (
                truncation is None or type(truncation) is int)):
        raise InputError("malformed simplicial-set document: cells must "
                         "map dimensions to name lists, faces must be an "
                         "object, truncation an integer or null")
    # the levels SimplicialSet keeps: up to the last nonempty one, or up
    # to the truncation when that is higher and the document lists them
    depth = max([int(k) + 1 for k, v in cells.items() if v], default=0)
    if truncation is not None and cells:
        depth = max(depth, min(truncation, max(map(int, cells))) + 1)
    names = [tuple(cells.get(str(k), ())) for k in range(depth)]
    index = [{n: i for i, n in enumerate(level)} for level in names]
    faces = [[()] * len(level) for level in names]
    for k in range(1, depth):
        for idx, name in enumerate(names[k]):
            key = "%d:%s" % (k, name)
            entry = face_doc.get(key)
            if not isinstance(entry, list) or \
                    not all(_is_face(item, index) for item in entry):
                raise InputError("missing or malformed face entry for %s"
                                 % key)
            faces[k][idx] = tuple((tuple(s), index[s[-1]][sub])
                                  for s, sub in entry)
    return SimplicialSet(truncation, names, faces).validate()


def _is_name(v):
    """Whether v can name a cell, an object or an arrow; JSON booleans
    cannot."""
    return isinstance(v, str) or type(v) is int


def _is_names(v):
    return isinstance(v, list) and all(map(_is_name, v))


def _is_ints(v):
    """Whether v is a list of integers; JSON booleans are not."""
    return isinstance(v, list) and all(type(n) is int for n in v)


def _index_key(key, n):
    """The n nonnegative integers of a table key "a,b,...", or None."""
    parts = key.split(",")
    if len(parts) != n or not all(part.isdecimal() for part in parts):
        return None
    return tuple(map(int, parts))


def _is_face(item, index):
    """Whether item is [surjection values, name of a cell they reach]."""
    return (isinstance(item, list) and len(item) == 2
            and isinstance(item[0], list) and len(item[0]) > 0
            and all(type(v) is int for v in item[0])
            and (isinstance(item[1], str) or type(item[1]) is int)
            and 0 <= item[0][-1] < len(index)
            and item[1] in index[item[0][-1]])


def bisimplicial_from_dict_by_shape_check(d):
    if d.get("kind") not in (None, "bisimplicial-set"):
        raise InputError("expected a bisimplicial-set document")
    truncation, cell_doc = d.get("truncation"), d.get("cells")
    table_keys = ("h_faces", "h_degens", "v_faces", "v_degens")
    if not (_is_ints(truncation) and len(truncation) == 2
            and isinstance(cell_doc, dict)
            and all(_index_key(k, 2) and _is_names(v)
                    for k, v in cell_doc.items())
            and all(isinstance(d.get(t), dict) and all(
                _index_key(k, 3) and isinstance(m, dict)
                and all(map(_is_name, m.values()))
                for k, m in d[t].items()) for t in table_keys)):
        raise InputError("malformed bisimplicial-set document: truncation "
                         "must be two integers, cells an object from "
                         "\"p,q\" to name lists, and %s objects from "
                         "\"p,q,i\" to name tables" % ", ".join(table_keys))
    cells = {_index_key(k, 2): v for k, v in cell_doc.items()}
    for (p, q), names in sorted(cells.items()):
        if len({str(c) for c in names}) < len(names):
            raise InputError("duplicate cells at (%d, %d)" % (p, q))
    # table keys are cell names written through str; each table becomes
    # the positions of its values in the target level, or None when it
    # misses a cell or names one that is not there
    position = {k: {c: x for x, c in enumerate(v)} for k, v in cells.items()}

    def positions(key, m, dp, dq):
        p, q, _ = key
        target = position.get((p + dp, q + dq), {})
        names = [m.get(str(c)) for c in cells.get((p, q), ())]
        if not all(n in target for n in names):
            return None
        return [target[n] for n in names]
    h_face, h_degen, v_face, v_degen = (
        {_index_key(k, 3): positions(_index_key(k, 3), m, dp, dq)
         for k, m in d[t].items()}
        for t, (dp, dq) in zip(table_keys, [(-1, 0), (1, 0), (0, -1),
                                            (0, 1)]))
    return BisimplicialSet(truncation[0], truncation[1], cells, h_face,
                           h_degen, v_face, v_degen).validate()


def simplicial_category_from_dict_by_shape_check(d):
    if d.get("kind") != "simplicial-category":
        raise InputError("expected a simplicial-category document")
    space_doc, comp_doc = d.get("map_spaces"), d.get("compositions")
    objects = d.get("objects")
    if not (isinstance(objects, list)
            and all(isinstance(x, str) for x in objects)
            and type(d.get("level_bound")) is int
            and isinstance(d.get("identities"), dict)
            and all(map(_is_name, d["identities"].values()))
            and isinstance(space_doc, dict)
            and all(k.count("|") == 1 and isinstance(v, dict)
                    for k, v in space_doc.items())
            and isinstance(comp_doc, dict)
            and all(k.count("|") == 2 and isinstance(entries, list)
                    and all(isinstance(e, list) and len(e) == 3
                            and all(map(_is_simplex, e)) for e in entries)
                    for k, entries in comp_doc.items())):
        raise InputError("malformed simplicial-category document: objects "
                         "must be a string list, level_bound an integer, "
                         "identities an object of names, map_spaces an "
                         "object from \"x|y\" to simplicial-set documents, "
                         "compositions an object from \"x|y|z\" to lists "
                         "of [g, f, g.f] simplex triples")
    for pair in (x + "|" + y for x in d["objects"] for y in d["objects"]):
        if pair not in space_doc:
            raise InputError("the map space %s is missing" % pair)
    mapspaces = {}
    for k, sub in space_doc.items():
        x, y = k.split("|")
        mapspaces[(x, y)] = sset_from_dict_by_shape_check(sub)
    tables = {}
    for k, entries in comp_doc.items():
        x, y, z = k.split("|")
        tables[(x, y, z)] = {
            ((tuple(g[0]), g[1]), (tuple(f[0]), f[1])):
            (tuple(h[0]), h[1]) for g, f, h in entries}
    # every pair up to the level bound must be listed; the degenerate
    # ones are compared with the composites the nondegenerate ones fix
    listed = []
    for x, y, z in product(d["objects"], repeat=3):
        gspace, fspace = mapspaces[(y, z)], mapspaces[(x, y)]
        if gspace.n_cells(0) == 0 or fspace.n_cells(0) == 0:
            continue
        table = tables.get((x, y, z), {})
        for q in range(d["level_bound"] + 1):
            for g in gspace.simplices(q):
                for f in fspace.simplices(q):
                    h = table.get((g, f))
                    if h is None:
                        raise InputError(
                            "the composition table %s|%s|%s lacks the "
                            "entry for g = %s, f = %s" % (
                                x, y, z, [list(g[0]), g[1]],
                                [list(f[0]), f[1]]))
                    listed.append(((x, y, z), g, f, h))
    C = SimplicialCategory(
        d["objects"], mapspaces, d["identities"],
        lambda x, y, z, q, g, f: tables[(x, y, z)][(g, f)],
        d["level_bound"]).validate()
    for key, g, f, h in listed:
        if (g, f) not in C.comp[key] and C.compose(*key, g, f) != h:
            raise InputError("composition is not simplicial at level %d"
                             % (len(g[0]) - 1))
    return C


def _is_simplex(v):
    """Whether v is [surjection values, cell index], a simplex in E-Z
    form as compositions are written."""
    return (isinstance(v, list) and len(v) == 2 and _is_ints(v[0])
            and len(v[0]) > 0 and type(v[1]) is int)
