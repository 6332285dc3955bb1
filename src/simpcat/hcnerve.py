"""Finite simplicial categories, the cosimplicial simplicial category of
necklace posets, the homotopy-coherent nerve at bounded dimension, and the
pi_0 homotopy category of a simplicial category.
"""

from itertools import combinations

from . import sset
from .delta import degeneracy, face, tcompose, tidentity
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
    associative composition, stored as levelwise tables on simplices."""

    def __init__(self, objects, mapspaces, identities, compose_fn,
                 level_bound, validate=True):
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
        if validate:
            self.validate()

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
                        alpha = face(q, i)
                        lhs = hspace.apply(alpha, h)
                        rhs = table[(gspace.apply(alpha, g),
                                     fspace.apply(alpha, f))]
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

    def __repr__(self):
        return "SimplicialCategory(%d objects, level_bound=%d)" % (
            len(self.objects), self.level_bound)


# ---------------------------------------------------------------------------
# poset nerves and the cosimplicial simplicial category


def poset_nerve(elements, leq, name_of):
    """The finite nerve of a poset: k-cells are strict chains."""
    elements = list(elements)
    levels = []
    index = []
    level0 = [tuple([e]) for e in sorted(elements, key=name_of)]
    levels.append(level0)
    while levels[-1]:
        nxt = []
        for c in levels[-1]:
            for e in sorted(elements, key=name_of):
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
    composition is union of subsets."""
    if n < 0:
        raise InputError("need n >= 0")
    objects = [str(j) for j in range(n + 1)]
    mapspaces = {}
    indexes = {}
    chain_levels = {}
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
            indexes[(str(i), str(j))] = index
            chain_levels[(str(i), str(j))] = levels

    def compose_fn(x, y, z, q, g, f):
        gc = _chain_of_simplex(chain_levels[(y, z)], g)
        fc = _chain_of_simplex(chain_levels[(x, y)], f)
        union = tuple(a | b for a, b in zip(gc, fc))
        return _simplex_of_chain(indexes[(x, z)], union)

    identities = {str(j): _subset_name(frozenset([j]))
                  for j in range(n + 1)}
    return SimplicialCategory(objects, mapspaces, identities, compose_fn,
                              level_bound=max(1, n - 1))


def horn_mapspace(n, i):
    """The inclusion Pi^{n-1}_{i,1} into the (n-1)-cube: the boundary of
    the cube with the closed face {x_i = 1} removed.

    The cube is the nerve of the poset {0,1}^{n-1}; a chain lies in the
    subobject when some coordinate is constantly 0, or some coordinate
    other than i is constantly 1."""
    if not 0 < i < n:
        raise InputError("inner index required: 0 < i < n")
    m = n - 1
    vectors = [tuple(v) for v in _all_vectors(m)]

    def leq(a, b):
        return all(p <= q for p, q in zip(a, b))

    def name_of(v):
        return "".join(str(b) for b in v) if v else "()"

    ambient, _, _ = poset_nerve(vectors, leq, name_of)

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
    for k in range(len(ambient.names)):
        level_keep = []
        for idx, name in enumerate(ambient.cells(k)):
            chain = [tuple(int(c) for c in part)
                     for part in name.split("<")]
            if m == 0:
                chain = [()]
            if in_sub(chain):
                level_keep.append(idx)
        keep.append(level_keep)
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


def _all_vectors(m):
    if m == 0:
        return [()]
    out = []
    for v in _all_vectors(m - 1):
        out.append(v + (0,))
        out.append(v + (1,))
    return sorted(out)


# ---------------------------------------------------------------------------
# coherent nerve


def _functor_key(objs, images):
    return (tuple(objs), tuple(sorted(images.items())))


def simplicial_functors(F, C):
    """All simplicial functors from frak_c(n) (given) to C, as pairs
    (object assignment, cell image dict)."""
    n = len(F.objects) - 1
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    pairs.sort(key=lambda p: (p[1] - p[0], p[0]))
    out = []
    obj_names = list(C.objects)
    map_cache = {}

    def space_maps(i, j, x, y):
        key = (i, j, x, y)
        if key not in map_cache:
            maps = sset.enumerate_maps(F.mapspaces[(str(i), str(j))],
                                       C.mapspaces[(x, y)])
            map_cache[key] = [m.assignment for m in maps]
        return map_cache[key]

    def assign_objects(pos, objs):
        if pos == n + 1:
            assign_pairs(0, objs, {})
            return
        for o in obj_names:
            assign_objects(pos + 1, objs + [o])

    def assign_pairs(pos, objs, images):
        if pos == len(pairs):
            out.append((tuple(objs), dict(images)))
            return
        i, j = pairs[pos]
        source = F.mapspaces[(str(i), str(j))]
        if C.mapspaces[(objs[i], objs[j])].n_cells(0) == 0:
            return
        for assignment in space_maps(i, j, objs[i], objs[j]):
            images2 = dict(images)
            for k in range(len(source.names)):
                for idx in range(source.n_cells(k)):
                    images2[((i, j), k, idx)] = assignment[k][idx]
            if _composition_ok(F, C, objs, images2, pos, pairs):
                assign_pairs(pos + 1, objs, images2)

    assign_objects(0, [])
    return out


def _functor_apply(images, pair, simplex):
    """Image of a possibly degenerate map-space simplex under a functor
    recorded by its nondegenerate cell images."""
    s, idx = simplex
    t, w = images[(pair, s[-1], idx)]
    return (tcompose(t, s), w)


def _composition_ok(F, C, objs, images, pos, pairs):
    """Check every composition constraint whose participating pairs are
    all assigned (those at positions <= pos)."""
    done = set(pairs[:pos + 1])
    i, j = pairs[pos]
    for k in range(len(F.objects)):
        for trip in [(i, j, k), (k, i, j), (i, k, j)]:
            a, b, c = trip
            if not (a < b < c):
                continue
            if (a, b) not in done or (b, c) not in done or \
                    (a, c) not in done:
                continue
            if not _check_triple(F, C, objs, images, a, b, c):
                return False
    return True


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


def coherent_nerve(C, d):
    """The homotopy-coherent nerve, truncated at dimension d: n-cells are
    simplicial functors from frak_c(n) to C."""
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
    levels = []
    for n in range(d + 1):
        fs = simplicial_functors(gadgets[n], C)
        levels.append([_functor_key(objs, images) for objs, images in fs])

    def action(alpha, element):
        m = len(alpha) - 1
        n = len(element[0]) - 1
        objs, images = element
        images = dict(images)
        Fm = gadgets[m]
        new_objs = tuple(objs[alpha[j]] for j in range(m + 1))
        new_images = {}
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                source = Fm.mapspaces[(str(i), str(j))]
                ti, tj = alpha[i], alpha[j]
                for k in range(len(source.names)):
                    for idx in range(source.n_cells(k)):
                        chain = _chain_from_name(source.names[k][idx])
                        mapped = tuple(frozenset(alpha[v] for v in U)
                                       for U in chain)
                        if ti == tj:
                            # target map space is a point; the image is
                            # the identity, possibly degenerate
                            value = C.identity_simplex(new_objs[i], k)
                        else:
                            simplex = _poset_simplex_of_chain(
                                gadgets[n], ti, tj, mapped)
                            value = _functor_apply(images, (ti, tj),
                                                   simplex)
                        new_images[((i, j), k, idx)] = value
        return _functor_key(new_objs, new_images)

    def name_fn(n, element):
        return "F%d" % levels[n].index(element)

    result = sset.from_presheaf(d, levels, action, name_fn=name_fn)
    return result


def _chain_from_name(name):
    return tuple(frozenset(int(ch) for ch in part)
                 for part in name.split("<"))


def _poset_simplex_of_chain(F, i, j, chain):
    """E-Z simplex of Map(i, j) in a frak_c gadget from a weak chain of
    subsets."""
    space = F.mapspaces[(str(i), str(j))]
    strict = []
    word = []
    for U in chain:
        if strict and strict[-1] == U:
            word.append(word[-1])
        else:
            strict.append(U)
            word.append(len(strict) - 1)
    name = "<".join(_subset_name(U) for U in strict)
    return (tuple(word), space.cell_index(len(strict) - 1, name))


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
    of an abelian group, with entrywise multiplication as composition."""
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
                              compose_fn, level_bound)


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
