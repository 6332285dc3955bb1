"""Finite simplicial categories, the cosimplicial simplicial category of
necklace posets, the homotopy-coherent nerve at bounded dimension, and the
pi_0 homotopy category of a simplicial category.
"""

from itertools import accumulate, chain, product
from operator import le

from . import sset
from .delta import tcompose, tidentity
from .errors import InputError
from .nerve_cat import (_nerve_cells, _nerve_simplex_of_chain, bg, generated,
                        nerve)
from .sset import SimplicialSet


class CompositionInconsistency(Exception):
    """Induced composition on classes is not single-valued; the message
    names the pair of classes and its two composites."""


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
    a compose_fn of its own, call validate().  A _CubeFamily as compose_fn
    hands out the comp table and composite cache of each triple, shared
    by the triples (and categories) of one cube shape."""

    def __init__(self, objects, mapspaces, identities, compose_fn,
                 level_bound):
        self.objects = tuple(objects)
        self.mapspaces = dict(mapspaces)
        self.identities = dict(identities)
        self.level_bound = level_bound
        self.comp = {}
        # every composite computed so far; filled only by compose (and
        # by a family's compose_fn), with values fixed by comp
        self._composites = {}
        for x, y, z in product(self.objects, repeat=3):
            gspace = self.mapspaces[(y, z)]
            fspace = self.mapspaces[(x, y)]
            if gspace.n_cells(0) == 0 or fspace.n_cells(0) == 0:
                continue
            key = (x, y, z)
            if isinstance(compose_fn, _CubeFamily):
                self.comp[key], self._composites[key] = compose_fn.tables(
                    x, y, z)
                continue
            self.comp[key] = {
                (g, f): compose_fn(x, y, z, q, g, f)
                for q in range(level_bound + 1)
                for g, f in _nondegenerate_pairs(gspace, fspace, q)}
            self._composites[key] = dict(self.comp[key])

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


def _simplex_set(space, q):
    """The q-simplices of space, as a set."""
    return space.memo(("simplex_set", q),
                      lambda X: frozenset(X.simplices(q)))


def _nondegenerate_pairs(gspace, fspace, q):
    """The nondegenerate q-simplices (g, f) of gspace x fspace, in the
    order of simplices(q) x simplices(q)."""
    fblocks = sset._doubled_blocks(fspace, q)
    pairs = []
    for gmask, gs in sset._doubled_blocks(gspace, q):
        free = [fs for fmask, fs in fblocks if not gmask & fmask]
        pairs.extend((g, f) for g in gs for fs in free for f in fs)
    return pairs


# ---------------------------------------------------------------------------
# poset nerves and the cosimplicial simplicial category


def poset_nerve(elements, leq, name_of, keep=None):
    """The finite nerve of a poset: k-cells are the strict chains keep
    accepts, listed as sset.chain_nerve lists them with the elements
    sorted by name, each named by its elements' names joined by "<"."""
    label = {e: name_of(e) for e in elements}
    elements = sorted(elements, key=label.get)
    levels, _, faces = sset.chain_nerve(elements, leq, keep)
    names = [tuple(["<".join(tcompose(label, c)) for c in level])
             for level in levels]
    return SimplicialSet(None, names, faces)


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


def _pair_key(i, j):
    """Map(i, j) and Map(i', j') list their cells in one order and have
    one face table when they share this key: the length j - i while
    j <= 9, else the pair itself.  Cells are ordered by name, and names
    of one-digit points compare like the points ("0123" < "013"); with
    two digits they do not ("81011" < "811")."""
    return j - i if j <= 9 else (i, j)


def _vertex_names(i, j):
    """The vertices of Map(i, j), i <= j, as {bit mask: name}: the
    subset of {i..j} containing both ends with bit b standing for the
    point i + 1 + b."""
    inner = j - i - 1
    return {m: _subset_name({i, j} | {i + 1 + b for b in range(inner)
                                      if m >> b & 1})
            for m in range(1 << max(0, inner))}


class _CubeFamily:
    """The map spaces and compositions of frak_c(0), frak_c(1), ...,
    built for one frak_c or coherent_nerve call and shared by every
    category it makes (see frak_c).  Called as compose_fn, it is one."""

    def __init__(self):
        self.cubes = {}    # _pair_key -> chain_nerve of the cube's masks
        self.spaces = {}   # (i, j) -> Map(i, j)
        self.cache = {}    # shape -> {(g, f): g.f}, every composite found
        self.comps = {}    # shape -> {(g, f): g.f} on the nondegenerate pairs
        self.triples = {}  # (x, y, z) -> what compose_fn reads for it

    def cube(self, i, j):
        key = _pair_key(i, j)
        if key not in self.cubes:
            names = _vertex_names(i, j)
            self.cubes[key] = sset.chain_nerve(
                sorted(names, key=names.get), lambda a, b: a & b == a)
        return self.cubes[key]

    def mapspace(self, i, j):
        """Map(i, j): the cube's face table under the pair's own names."""
        if (i, j) not in self.spaces:
            if i > j:
                self.spaces[(i, j)] = sset.empty_sset()
            else:
                levels, _, faces = self.cube(i, j)
                names = _vertex_names(i, j)
                self.spaces[(i, j)] = SimplicialSet(None, [
                    tuple(["<".join(tcompose(names, c)) for c in level])
                    for level in levels], faces)
        return self.spaces[(i, j)]

    def _triple(self, x, y, z):
        """(shape, cache, chains of Map(j, k), chains of Map(i, j), index
        of Map(i, k), shift, middle bit) for the triple i <= j <= k.  The
        triples of one shape (j - i, k - j) compose alike, while k has
        one digit (_pair_key); past it the shape is (i, j, k)."""
        found = self.triples.get((x, y, z))
        if found is None:
            i, j, k = int(x), int(y), int(z)
            p = j - i
            shape = (p, k - j) if k <= 9 else (i, j, k)
            found = self.triples[(x, y, z)] = (
                shape, self.cache.setdefault(shape, {}), self.cube(j, k)[0],
                self.cube(i, j)[0], self.cube(i, k)[1], p,
                1 << (p - 1) if p and k > j else 0)
        return found

    def compose_fn(self, x, y, z, q, g, f):
        """g.f, computed once per shape: on cube coordinates the vertex
        masks of g sit above a 1 at j above those of f, so a nondegenerate
        pair goes to the strict chain of the combined masks."""
        _, table, gcells, fcells, index, p, mid = self._triple(x, y, z)
        h = table.get((g, f))
        if h is None:
            (s, a), (t, b) = g, f
            gc, fc = gcells[s[-1]][a], fcells[t[-1]][b]
            vertices = tuple([fc[u] | gc[v] << p | mid
                              for v, u in zip(s, t)])
            w = index[q].get(vertices) if q < len(index) else None
            h = table[(g, f)] = (tidentity(q), w) if w is not None \
                else _simplex_of_chain(index, vertices)
        return h

    __call__ = compose_fn

    def tables(self, x, y, z):
        """(comp table, composite cache) of the triple x <= y <= z, shared
        by the triples of its shape.  A nondegenerate pair of Map(j, k) x
        Map(i, j) has level at most dim Map(j, k) + dim Map(i, j) <=
        max(0, k - i - 1), which the level bound max(1, n - 1) of
        frak_c(n) never falls below, so one table serves every gadget."""
        shape, cache = self._triple(x, y, z)[:2]
        if shape not in self.comps:
            gspace = self.mapspace(int(y), int(z))
            fspace = self.mapspace(int(x), int(y))
            self.comps[shape] = {
                (g, f): self.compose_fn(x, y, z, q, g, f)
                for q in range(gspace.dim_max + fspace.dim_max + 1)
                for g, f in _nondegenerate_pairs(gspace, fspace, q)}
        return self.comps[shape], cache

    def category(self, n):
        """frak_c(n), n >= 0."""
        objects = [str(j) for j in range(n + 1)]
        mapspaces = {(str(i), str(j)): self.mapspace(i, j)
                     for i in range(n + 1) for j in range(n + 1)}
        return SimplicialCategory(objects, mapspaces,
                                  {x: x for x in objects}, self,
                                  level_bound=max(1, n - 1))


def frak_c(n):
    """The simplicial category with objects 0..n and Map(i, j) the nerve
    of the poset of subsets of {i..j} containing both endpoints;
    composition is union of subsets.

    Map(i, j) is the nerve of the cube (Delta^1)^(j - i - 1), and union
    puts the cube coordinates of g: j -> k above a 1 at j above those of
    f: i -> j (Lurie, Higher Topos Theory, 1.1.5).  So the cube nerves
    are built once per length, each pair naming the cells of its length's
    nerve, and each composite is computed once per shape (j - i, k - j),
    on vertex bit masks, while the endpoints have one digit (_pair_key)."""
    if n < 0:
        raise InputError("need n >= 0")
    return _CubeFamily().category(n)


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
        return all(map(le, a, b))

    def name_of(v):
        return "".join(str(b) for b in v) if v else "()"

    def in_sub(chain):
        for j in range(m):
            if all(v[j] == 0 for v in chain):
                return True
            if j != i - 1 and all(v[j] == 1 for v in chain):
                return True
        return False

    ambient = poset_nerve(vectors, leq, name_of)
    sub = poset_nerve(vectors, leq, name_of, keep=in_sub)
    return sub, ambient, sset.inclusion_by_names(sub, ambient)


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
    return [(objs, {(pair, k, idx): value for pair, levels in images.items()
                    for k, level in enumerate(levels)
                    for idx, value in enumerate(level)})
            for objs, images in _functors(F, C, {})]


def _functors(F, C, map_cache):
    """The simplicial functors F -> C as pairs (object assignment,
    {(i, j): the assignment of the map of Map(i, j)}), reading and
    filling map_cache: the simplicial maps Map(i, j) -> Map(x, y) of C,
    keyed by (_pair_key(i, j), x, y), so one call of coherent_nerve
    enumerates them once for all its gadgets.

    For each object assignment the partial functors are extended one
    pair at a time, all of them at once and in order, so the functors
    come in the order of a depth-first search over the pairs."""
    n = len(F.objects) - 1
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    pairs.sort(key=lambda p: (p[1] - p[0], p[0]))
    where = {pair: p for p, pair in enumerate(pairs)}
    bound = min(C.level_bound, F.level_bound)
    # checks[p] for pairs[p] = (a, c): (b, the positions of (b, c) and
    # (a, b), the generating pairs) for each a < b < c
    checks = [[(b, where[(b, c)], where[(a, b)],
                _generating_pairs(F, a, b, c, bound))
               for b in range(a + 1, c)] for a, c in pairs]
    out = []
    for objs in product(C.objects, repeat=n + 1):
        partial = [()]  # the maps chosen for the pairs before pairs[p]
        for p, (i, j) in enumerate(pairs):
            x, y = objs[i], objs[j]
            if not partial or C.mapspaces[(x, y)].n_cells(0) == 0:
                partial = []
                break
            key = (_pair_key(i, j), x, y)
            if key not in map_cache:
                map_cache[key] = sset.enumerate_maps(
                    F.mapspaces[(str(i), str(j))], C.mapspaces[(x, y)])
            partial = [chosen + (h,) for chosen in partial
                       for h in map_cache[key]
                       if _commutes(C, objs, i, j, h, chosen, checks[p])]
        out.extend((objs, {pair: f.assignment
                           for pair, f in zip(pairs, chosen)})
                   for chosen in partial)
    return out


def _commutes(C, objs, a, c, h, chosen, checks):
    """Whether h, the map chosen for Map(a, c), agrees with the
    composites of the maps chosen for Map(b, c) and Map(a, b), on the
    generating pairs of each triple a < b < c."""
    x, z = objs[a], objs[c]
    for b, bc, ab, generating in checks:
        y = objs[b]
        gmap, fmap = chosen[bc], chosen[ab]
        for g, f, gf in generating:
            if h.apply(gf) != C.compose(x, y, z, gmap.apply(g),
                                        fmap.apply(f)):
                return False
    return True


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


def coherent_nerve(C, d):
    """The homotopy-coherent nerve, truncated at dimension d: n-cells are
    simplicial functors from frak_c(n) to C.

    An n-cell is held as (objects, images), with images listing the
    images of the cells of Map(i, j), 0 <= i < j <= n, pair after pair
    and level after level.  The gadgets frak_c(0..d) are one
    _CubeFamily: they share their map spaces, composition tables and
    maps of map spaces into C.  frak_c(alpha) for alpha: [m] -> [n]
    sends a vertex of Map(i, j) to the image of its subset under alpha;
    it is tabulated once per (alpha, n) on the cells of frak_c(m), so
    the action is one lookup and one tcompose per cell."""
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
    family = _CubeFamily()
    gadgets = [family.category(n) for n in range(d + 1)]
    pairs = [[(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
             for n in range(d + 1)]
    map_cache = {}
    levels = [[(objs, tuple(chain.from_iterable(chain.from_iterable(
                   images[pair]) for pair in pairs[n])))
               for objs, images in _functors(gadgets[n], C, map_cache)]
              for n in range(d + 1)]
    starts = []  # starts[n][(i, j)]: the position of its first image
    for n in range(d + 1):
        sizes = [sum(map(len, family.cube(i, j)[0])) for i, j in pairs[n]]
        starts.append(dict(zip(pairs[n], accumulate(sizes, initial=0))))
    pair_rows = {}
    tables = {}
    units = {}

    def rows_of(i, j, values):
        """(k, s, offset) for the cells (k, idx) of Map(i, j) in order,
        under the map sending each point v to values[v - i]: the cell
        goes to the simplex (s, cell offset) of Map(values[0],
        values[-1]), with s None when it is the identity.  Computed once
        per _pair_key of both pairs and shape of the map."""
        ti, tj = values[0], values[-1]
        key = (_pair_key(i, j), _pair_key(ti, tj),
               tuple([v - ti for v in values]))
        if key not in pair_rows:
            target_levels, index, _ = family.cube(ti, tj)
            firsts = list(accumulate(map(len, target_levels), initial=0))
            # bit b of Map(i, j) is the point i + 1 + b, which goes to a
            # bit of Map(ti, tj) unless it hits an end; image[mask] is
            # the mask of a vertex's image
            image = [0]
            for v in values[1:-1]:
                bit = 1 << (v - ti - 1) if ti < v < tj else 0
                image += [m | bit for m in image]
            rows = []
            for k, level in enumerate(family.cube(i, j)[0]):
                for c in level:
                    s, w = _simplex_of_chain(index, [image[m] for m in c])
                    rows.append((k, None if s[-1] == k else s,
                                 firsts[s[-1]] + w))
            pair_rows[key] = rows
        return pair_rows[key]

    def table(alpha, n):
        """Rows (t_i, k, s, p) for the cells ((i, j), k, idx) of
        frak_c(m): the cell goes to the simplex (s, cell p) of
        frak_c(n), with s None when it is the identity, or, when t_i =
        alpha[i] = alpha[j], to the point Map(t_i, t_i) (s and p are
        None)."""
        if (alpha, n) not in tables:
            rows = []
            for i, j in pairs[len(alpha) - 1]:
                ti, tj = alpha[i], alpha[j]
                if ti == tj:
                    rows.extend((ti, k, None, None) for k, level in
                                enumerate(family.cube(i, j)[0])
                                for _ in level)
                else:
                    start = starts[n][(ti, tj)]
                    rows.extend((ti, k, s, start + offset)
                                for k, s, offset in rows_of(
                                    i, j, alpha[i:j + 1]))
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


def one_object_from_abelian_group(table, level_bound=2):
    """One object whose endomorphism space is the nerve of the delooping
    of an abelian group, truncated at 3, with entrywise multiplication as
    composition; validate() decides whether the table makes one."""
    B = bg(table)
    N, cells = nerve(B, 3), _nerve_cells(B, 3)

    def expand(simplex):
        q = len(simplex[0]) - 1
        out = []
        for j in range(1, q + 1):
            e = N.apply((j - 1, j), simplex)
            out.append(B.ident["*"] if sset.is_degenerate(e)
                       else N.names[1][e[1]])
        return out

    def compress(chain):
        return _nerve_simplex_of_chain(B, cells, "*", tuple(chain))

    def compose_fn(x, y, z, q, g, f):
        gc, fc = expand(g), expand(f)
        prod = [B.compose(a, b) for a, b in zip(gc, fc)]
        if q == 0:
            return (g[0], N.cell_index(0, "*"))
        return compress(prod)

    return SimplicialCategory(("*",), {("*", "*"): N}, {"*": "*"},
                              compose_fn, level_bound).validate()


def two_object_arrow_space(space):
    """Two objects 0, 1 with Map(0, 1) a given simplicial set, points as
    endomorphism spaces, and no maps back, composing up to level 2."""
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
                              {"0": "id0", "1": "id1"}, compose_fn, 2)


# ---------------------------------------------------------------------------
# pi_0 category


def pi0_category(C):
    """The category with the same objects and Hom = pi_0 of the map
    spaces; induced composition checked to be single-valued on classes.
    An arrow's data is (x, y, the vertex indices of its class)."""
    arrows = []
    name_at = {}  # (x, y): the arrow name of each vertex of Map(x, y)
    for x, y in sorted(C.mapspaces):
        space = C.mapspaces[(x, y)]
        name_at[(x, y)] = names = [None] * space.n_cells(0)
        for comp in sset.pi0(space):
            nm = "pi0[%s->%s:%s]" % (x, y, min(comp))
            cells = sorted(space.cell_index(0, v) for v in comp)
            for i in cells:
                names[i] = nm
            arrows.append((nm, x, y, (x, y, cells)))

    def compose(g, f):
        (y, z, gcells), (x, _, fcells) = g, f
        table, names = C.comp[(x, y, z)], name_at[(x, z)]
        # the distinct composites, in the order the vertex pairs give them
        values = list(dict.fromkeys(
            names[table[((tidentity(0), gi), (tidentity(0), fi))][1]]
            for gi, fi in product(gcells, fcells)))
        if len(values) > 1:
            raise CompositionInconsistency(
                "composition is not single-valued on pi_0 classes: "
                "%s . %s is both %s and %s"
                % (name_at[(y, z)][gcells[0]], name_at[(x, y)][fcells[0]],
                   values[0], values[1]))
        return values[0]

    return generated(C.objects, arrows,
                     {x: name_at[(x, x)][C.identity_simplex(x, 0)[1]]
                      for x in C.objects}, compose)
