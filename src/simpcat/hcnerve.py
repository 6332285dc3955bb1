"""Finite simplicial categories, the cosimplicial simplicial category of
necklace posets, the homotopy-coherent nerve at bounded dimension, and the
pi_0 homotopy category of a simplicial category.
"""

from itertools import combinations, product

from . import sset
from .delta import tcompose, tidentity
from .errors import InputError
from .nerve_cat import FinCategory
from .sset import SimplicialSet


class CompositionInconsistency(Exception):
    """Induced composition on classes is not single-valued; carries a
    witness pair."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class SimplicialCategory:
    """A category enriched in truncated simplicial sets with strictly
    associative composition.

    Composition Map(y, z) x Map(x, y) -> Map(x, z) is a simplicial map
    out of a product, so it is fixed by its values on the product's
    nondegenerate cells: the pairs (g, f) of q-simplices whose
    surjections share no doubled index (Eilenberg-Zilber; Goerss-Jardine,
    Simplicial Homotopy Theory, IV.1).  comp holds compose_fn on those
    pairs, q <= level_bound, in the order of simplices(q) x simplices(q).
    Any other pair is sigma^*(g', f') for a nondegenerate (g', f') and
    the common surjection sigma, and composes to sigma^*(g'.f').  The
    constructor checks nothing: the loader in formats, and a caller with
    a compose_fn of its own, call validate()."""

    def __init__(self, objects, mapspaces, identities, compose_fn,
                 level_bound):
        self.objects = tuple(objects)
        self.mapspaces = dict(mapspaces)
        self.identities = dict(identities)
        self.level_bound = level_bound
        self.comp = {}
        for x, y, z in product(self.objects, repeat=3):
            gspace = self.mapspaces[(y, z)]
            fspace = self.mapspaces[(x, y)]
            if gspace.n_cells(0) == 0 or fspace.n_cells(0) == 0:
                continue
            self.comp[(x, y, z)] = {
                (g, f): compose_fn(x, y, z, q, g, f)
                for q in range(level_bound + 1)
                for g, f in _nondegenerate_pairs(gspace, fspace, q)}
        # every composite computed so far; filled only by compose, with
        # values fixed by comp
        self._composites = {key: dict(table)
                            for key, table in self.comp.items()}

    def mapspace(self, x, y):
        return self.mapspaces[(x, y)]

    def compose(self, x, y, z, g, f):
        table = self._composites[(x, y, z)]
        h = table.get((g, f))
        if h is None:
            sigma, s, t = sset._split_common(g[0], f[0])
            u, w = table[((s, g[1]), (t, f[1]))]
            h = table[(g, f)] = (tcompose(u, sigma), w)
        return h

    def identity_simplex(self, x, q):
        """The identity of x, degenerated up to level q."""
        space = self.mapspaces[(x, x)]
        idx = space.cell_index(0, self.identities[x])
        return (tuple(0 for _ in range(q + 1)), idx)

    def validate(self):
        """Identity vertices, then on the nondegenerate pairs that each
        composite is a simplex of its map space, the unit laws and the
        faces d_i, then associativity on the nondegenerate triples (no
        index doubled in all three).  Degeneracies commute with
        composition by construction."""
        for x in self.objects:
            space = self.mapspaces.get((x, x))
            if space is None or self.identities.get(x) not in space.cells(0):
                raise InputError("object %s lacks an identity vertex" % x)
        for (x, y, z), table in self.comp.items():
            gspace = self.mapspaces[(y, z)]
            fspace = self.mapspaces[(x, y)]
            hspace = self.mapspaces[(x, z)]
            for (g, f), h in table.items():
                q = len(g[0]) - 1
                if h not in _simplex_set(hspace, q):
                    raise InputError(
                        "the composite of %s and %s is not a %d-simplex "
                        "of Map(%s, %s)" % (g, f, q, x, z))
                if x == y and f == self.identity_simplex(x, q):
                    if h != g:
                        raise InputError("right unit law fails at %s"
                                         % (g,))
                if y == z and g == self.identity_simplex(y, q):
                    if h != f:
                        raise InputError("left unit law fails at %s"
                                         % (f,))
                if q == 0:
                    continue
                for i in range(q + 1):
                    if hspace.face_of(i, h) != self.compose(
                            x, y, z, gspace.face_of(i, g),
                            fspace.face_of(i, f)):
                        raise InputError(
                            "composition is not simplicial at level %d" % q)
        # for f: w->x, g: x->y, h: y->z compare (h.g).f with h.(g.f)
        compose = self.compose
        for w, x, y, z in product(self.objects, repeat=4):
            if not {(w, x, y), (x, y, z), (w, y, z), (w, x, z)} <= \
                    self.comp.keys():
                continue
            hspace = self.mapspaces[(y, z)]
            gspace = self.mapspaces[(x, y)]
            fspace = self.mapspaces[(w, x)]
            for q in range(self.level_bound + 1):
                fblocks = sset._doubled_blocks(fspace, q)
                for hmask, hs in sset._doubled_blocks(hspace, q):
                    for gmask, gs in sset._doubled_blocks(gspace, q):
                        both = hmask & gmask
                        for fmask, fs in fblocks:
                            if both & fmask:
                                continue
                            for h in hs:
                                for g in gs:
                                    hg = compose(x, y, z, h, g)
                                    for f in fs:
                                        if compose(w, x, z, hg, f) != \
                                                compose(w, y, z, h, compose(
                                                    w, x, y, g, f)):
                                            raise InputError(
                                                "composition is not "
                                                "associative at level %d"
                                                % q)
        return self

    def __repr__(self):
        return "SimplicialCategory(%d objects, level_bound=%d)" % (
            len(self.objects), self.level_bound)


def _simplex_set(space, q):
    """The q-simplices of space, as a set."""
    return space.memo(("simplex_set", q),
                      lambda X: frozenset(X.simplices(q)))


def _nondegenerate_pairs(gspace, fspace, q):
    """The nondegenerate q-simplices (g, f) of gspace x fspace, in the
    order of simplices(q) x simplices(q)."""
    fblocks = sset._doubled_blocks(fspace, q)
    return [(g, f) for gmask, gs in sset._doubled_blocks(gspace, q)
            for g in gs
            for fmask, fs in fblocks if not gmask & fmask
            for f in fs]


# ---------------------------------------------------------------------------
# poset nerves and the cosimplicial simplicial category


def poset_nerve(elements, leq, name_of):
    """The finite nerve of a poset: k-cells are strict chains."""
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
    return SimplicialSet(None, names, faces), \
        [dict((c, j) for c, j in idx.items()) for idx in index], levels


def _chain_of_simplex(levels, simplex):
    """Expand an E-Z simplex of a poset nerve to its weak chain."""
    s, idx = simplex
    strict = levels[s[-1]][idx]
    return tuple(strict[v] for v in s)


def _simplex_of_chain(index, chain):
    """E-Z normal form of a weak chain in a poset nerve."""
    strict = []
    word = []
    for j, e in enumerate(chain):
        if strict and strict[-1] == e:
            word.append(word[-1])
        else:
            strict.append(e)
            word.append(len(strict) - 1)
    return (tuple(word), index[len(strict) - 1][tuple(strict)])


def _subset_name(U):
    return "".join(str(v) for v in sorted(U))


def frak_c(n):
    """The simplicial category with objects 0..n and Map(i, j) the nerve
    of the poset of subsets of {i..j} containing both endpoints;
    composition is union of subsets.

    The result keeps chains[(i, j)] = (levels, index), the strict chains
    of subsets that poset_nerve returned for Map(i, j): levels[k][idx] is
    the k-cell idx, and index[k] finds a chain's cell."""
    if n < 0:
        raise InputError("need n >= 0")
    objects = [str(j) for j in range(n + 1)]
    mapspaces = {}
    chains = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                mapspaces[(str(i), str(j))] = sset.empty_sset()
                continue
            elements = [frozenset(U) | {i, j}
                        for r in range(j - i)
                        for U in combinations(range(i + 1, j), r)]
            if i == j:
                elements = [frozenset([i])]
            elements = sorted(set(elements), key=lambda U: (len(U),
                                                            sorted(U)))
            space, index, levels = poset_nerve(
                elements, lambda a, b: a <= b, _subset_name)
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


def horn_mapspace(n, i):
    """The inclusion Pi^{n-1}_{i,1} into the (n-1)-cube: the boundary of
    the cube with the closed face {x_i = 1} removed.

    The cube is the nerve of the poset {0,1}^{n-1}; a chain lies in the
    subobject when some coordinate is constantly 0, or some coordinate
    other than i is constantly 1."""
    if not 0 < i < n:
        raise InputError("inner index required: 0 < i < n")
    m = n - 1
    vectors = list(product((0, 1), repeat=m))

    def leq(a, b):
        return all(p <= q for p, q in zip(a, b))

    def name_of(v):
        return "".join(str(b) for b in v) if v else "()"

    ambient, _, levels = poset_nerve(vectors, leq, name_of)

    def in_sub(chain):
        for j in range(m):
            if all(v[j] == 0 for v in chain):
                return True
            if j != i - 1 and all(v[j] == 1 for v in chain):
                return True
        return False

    names = []
    faces = []
    keep = []
    for level in levels:
        keep.append([idx for idx, chain in enumerate(level)
                     if in_sub(chain)])
    new_index = [{idx: j for j, idx in enumerate(level)} for level in keep]
    for k in range(len(keep)):
        names.append(tuple(ambient.names[k][idx] for idx in keep[k]))
        entry = []
        for idx in keep[k]:
            if k == 0:
                entry.append(())
            else:
                entry.append(tuple((s, new_index[s[-1]][sub])
                                   for s, sub in ambient.faces[k][idx]))
        faces.append(entry)
    sub = SimplicialSet(None, names, faces)
    incl = sset.inclusion_by_names(sub, ambient)
    return sub, ambient, incl


# ---------------------------------------------------------------------------
# coherent nerve


def simplicial_functors(F, C):
    """All simplicial functors from frak_c(n) (given) to C, as pairs
    (object assignment, cell image dict).

    The pairs (i, j) are assigned in order of length, one map of map
    spaces each; a triple a < b < c is checked once its last pair (a, c)
    is assigned, on its generating pairs only (_generating_pairs): the
    composites F(g.f) and F(g).F(f) are simplicial maps out of Map(b, c)
    x Map(a, b), so they agree once they agree there."""
    n = len(F.objects) - 1
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    pairs.sort(key=lambda p: (p[1] - p[0], p[0]))
    bound = min(C.level_bound, F.level_bound)
    checks = {(a, c): [(b, _generating_pairs(F, a, b, c, bound))
                       for b in range(a + 1, c)] for a, c in pairs}
    out = []
    map_cache = {}
    images = {}  # (i, j) -> the assignment of the map chosen for Map(i, j)

    def space_maps(i, j, x, y):
        key = (i, j, x, y)
        if key not in map_cache:
            maps = sset.enumerate_maps(F.mapspaces[(str(i), str(j))],
                                       C.mapspaces[(x, y)])
            map_cache[key] = [m.assignment for m in maps]
        return map_cache[key]

    def composition_ok(objs, a, c):
        """Check the triples a < b < c, whose pairs are all assigned."""
        x, z = objs[a], objs[c]
        hmap = images[(a, c)]
        for b, generating in checks[(a, c)]:
            y = objs[b]
            gmap, fmap = images[(b, c)], images[(a, b)]
            for g, f, h in generating:
                if _map_apply(hmap, h) != C.compose(
                        x, y, z, _map_apply(gmap, g), _map_apply(fmap, f)):
                    return False
        return True

    def assign_pairs(pos, objs):
        if pos == len(pairs):
            out.append((objs, {(pair, k, idx): value for pair in pairs
                               for k, level in enumerate(images[pair])
                               for idx, value in enumerate(level)}))
            return
        i, j = pairs[pos]
        if C.mapspaces[(objs[i], objs[j])].n_cells(0) == 0:
            return
        for assignment in space_maps(i, j, objs[i], objs[j]):
            images[(i, j)] = assignment
            if composition_ok(objs, i, j):
                assign_pairs(pos + 1, objs)
        del images[(i, j)]

    for objs in product(C.objects, repeat=n + 1):
        assign_pairs(0, objs)
    return out


def _generating_pairs(F, a, b, c, bound):
    """(g, f, g.f) for the generating pairs (g, f) of Map(b, c) x Map(a, b)
    in F = frak_c(n) up to level bound: the nondegenerate pairs of level
    <= bound that are no face of another such pair, in the order of
    F.comp.  Every nondegenerate pair up to the bound is an iterated face
    of a generating one, and every other pair a degeneracy of one."""
    gspace = F.mapspaces[(str(b), str(c))]
    fspace = F.mapspaces[(str(a), str(b))]
    table = F.comp[(str(a), str(b), str(c))]
    faces = set()
    for g, f in table:
        if 0 < len(g[0]) - 1 <= bound:
            faces.update(zip(gspace.simplex_faces(g), fspace.simplex_faces(f)))
    return [(g, f, h) for (g, f), h in table.items()
            if len(g[0]) <= bound + 1 and (g, f) not in faces]


def _map_apply(assignment, simplex):
    """Image of a possibly degenerate simplex under a simplicial map
    recorded by its nondegenerate cell images."""
    s, idx = simplex
    t, w = assignment[s[-1]][idx]
    return (tcompose(t, s), w)


def _gadget_cells(F):
    """The nondegenerate map-space cells ((i, j), k, idx) of frak_c(n),
    i < j, in the order an n-cell lists their images."""
    n = len(F.objects) - 1
    return [((i, j), k, idx)
            for i in range(n + 1) for j in range(i + 1, n + 1)
            for k, level in enumerate(F.mapspaces[(str(i), str(j))].names)
            for idx in range(len(level))]


def coherent_nerve(C, d):
    """The homotopy-coherent nerve, truncated at dimension d: n-cells are
    simplicial functors from frak_c(n) to C.

    An n-cell is held as (objects, images), with images listing the
    image of each cell of _gadget_cells(frak_c(n)) in that order.
    frak_c(alpha) for alpha: [m] -> [n] is tabulated once per (alpha, n)
    on the cells of frak_c(m), so the action is one lookup and one
    tcompose per cell."""
    if d < 0:
        raise InputError("truncation must be nonnegative")
    needed = max(0, d - 1)
    if C.level_bound < needed:
        raise InputError("map-space composition tables must extend to "
                         "level %d" % needed)
    for (x, y), space in C.mapspaces.items():
        if space.truncation is not None and space.truncation < needed:
            raise InputError("map space (%s, %s) truncated below %d"
                             % (x, y, needed))
    gadgets = [frak_c(n) for n in range(d + 1)]
    cells = [_gadget_cells(F) for F in gadgets]
    position = [{key: p for p, key in enumerate(c)} for c in cells]
    levels = [[(objs, tuple(images[key] for key in cells[n]))
               for objs, images in simplicial_functors(gadgets[n], C)]
              for n in range(d + 1)]
    tables = {}
    units = {}

    def table(alpha, n):
        """Rows (t_i, k, s, p) for the cells ((i, j), k, idx) of
        frak_c(m): the cell goes to the simplex (s, cell p) of
        frak_c(n), with s None when it is the identity, or, when t_i =
        alpha[i] = alpha[j], to the point Map(t_i, t_i) (s and p are
        None)."""
        if (alpha, n) not in tables:
            Fm = gadgets[len(alpha) - 1]
            rows = []
            for (i, j), k, idx in cells[len(alpha) - 1]:
                ti, tj = alpha[i], alpha[j]
                if ti == tj:
                    rows.append((ti, k, None, None))
                    continue
                chains, _ = Fm.chains[(str(i), str(j))]
                _, index = gadgets[n].chains[(str(ti), str(tj))]
                s, w = _simplex_of_chain(index, [
                    frozenset([alpha[v] for v in U])
                    for U in chains[k][idx]])
                p = position[n][((ti, tj), s[-1], w)]
                rows.append((ti, k, None if s[-1] == k else s, p))
            tables[(alpha, n)] = rows
        return tables[(alpha, n)]

    def action(alpha, element):
        objs, images = element
        out = []
        for ti, k, s, p in table(alpha, len(objs) - 1):
            if p is None:
                x = objs[ti]
                if (x, k) not in units:
                    units[(x, k)] = C.identity_simplex(x, k)
                out.append(units[(x, k)])
            elif s is None:
                out.append(images[p])
            else:
                t, w = images[p]
                out.append((tcompose(t, s), w))
        return tuple(objs[v] for v in alpha), tuple(out)

    index = [{x: j for j, x in enumerate(level)} for level in levels]
    return sset.from_presheaf(d, levels, action,
                              name_fn=lambda n, x: "F%d" % index[n][x])


# ---------------------------------------------------------------------------
# constructors


def from_fincategory(C, level_bound=2):
    """The simplicial category with discrete map spaces Hom_C(x, y)."""
    mapspaces = {}
    for x in C.objects:
        for y in C.objects:
            mapspaces[(x, y)] = sset.discrete_sset(C.hom(x, y))

    def compose_fn(x, y, z, q, g, f):
        gname = mapspaces[(y, z)].names[0][g[1]]
        fname = mapspaces[(x, y)].names[0][f[1]]
        c = C.compose(gname, fname)
        return (g[0], mapspaces[(x, z)].cell_index(0, c))

    identities = {x: C.ident[x] for x in C.objects}
    return SimplicialCategory(C.objects, mapspaces, identities, compose_fn,
                              level_bound)


def one_object_from_abelian_group(table, trunc=3, level_bound=2):
    """One object whose endomorphism space is the nerve of the delooping
    of an abelian group, with entrywise multiplication as composition;
    validate() decides whether the table makes one."""
    from .nerve_cat import bg, nerve
    B = bg(table)
    N = nerve(B, trunc)

    def expand(simplex):
        q = len(simplex[0]) - 1
        out = []
        for j in range(1, q + 1):
            e = N.apply((j - 1, j), simplex)
            out.append(B.ident["*"] if sset.is_degenerate(e)
                       else N.names[1][e[1]])
        return out

    def compress(chain):
        from .nerve_cat import _nerve_simplex_of_chain
        return _nerve_simplex_of_chain(B, N, tuple(chain), "*")

    def compose_fn(x, y, z, q, g, f):
        gc, fc = expand(g), expand(f)
        prod = [B.compose(a, b) for a, b in zip(gc, fc)]
        if q == 0:
            return (g[0], N.cell_index(0, "*"))
        return compress(prod)

    return SimplicialCategory(("*",), {("*", "*"): N}, {"*": "*"},
                              compose_fn, level_bound).validate()


def two_object_arrow_space(space, level_bound=2):
    """Two objects 0, 1 with Map(0, 1) a given simplicial set, points as
    endomorphism spaces, and no maps back."""
    mapspaces = {
        ("0", "0"): sset.discrete_sset(["id0"]),
        ("1", "1"): sset.discrete_sset(["id1"]),
        ("0", "1"): space,
        ("1", "0"): sset.empty_sset(),
    }

    def compose_fn(x, y, z, q, g, f):
        if x == y:
            return g
        return f

    return SimplicialCategory(("0", "1"), mapspaces,
                              {"0": "id0", "1": "id1"}, compose_fn,
                              level_bound)


# ---------------------------------------------------------------------------
# pi_0 category


def pi0_category(C):
    """The category with the same objects and Hom = pi_0 of the map
    spaces; induced composition checked to be single-valued on classes."""
    classes = {}
    class_of_vertex = {}
    for (x, y), space in C.mapspaces.items():
        comps = sset.pi0(space)
        classes[(x, y)] = comps
        for comp in comps:
            for vname in comp:
                class_of_vertex[(x, y, vname)] = min(comp)
    arrows = []
    src = {}
    dst = {}
    name_of = {}
    for (x, y), comps in sorted(classes.items()):
        for comp in comps:
            rep = min(comp)
            nm = "pi0[%s->%s:%s]" % (x, y, rep)
            name_of[(x, y, rep)] = nm
            arrows.append(nm)
            src[nm] = x
            dst[nm] = y
    comp_table = {}
    for (x, y, z), table in C.comp.items():
        gspace = C.mapspaces[(y, z)]
        fspace = C.mapspaces[(x, y)]
        hspace = C.mapspaces[(x, z)]
        for gi in range(gspace.n_cells(0)):
            for fi in range(fspace.n_cells(0)):
                g = (tidentity(0), gi)
                f = (tidentity(0), fi)
                h = table[(g, f)]
                gn = class_of_vertex[(y, z, gspace.names[0][gi])]
                fn = class_of_vertex[(x, y, fspace.names[0][fi])]
                hn = class_of_vertex[(x, z, hspace.names[0][h[1]])]
                key = (name_of[(y, z, gn)], name_of[(x, y, fn)])
                existing = comp_table.get(key)
                if existing is not None and existing != name_of[(x, z, hn)]:
                    raise CompositionInconsistency(
                        "composition is not single-valued on pi_0 classes",
                        witness=(key, existing, name_of[(x, z, hn)]))
                comp_table[key] = name_of[(x, z, hn)]
    ident = {}
    for x in C.objects:
        rep = class_of_vertex[(x, x, C.identities[x])]
        ident[x] = name_of[(x, x, rep)]
    return FinCategory(C.objects, arrows, src, dst, comp_table, ident)
