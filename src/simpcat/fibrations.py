"""Conventional fibration analysis of finite functors: left fibrations,
(locally) cocartesian arrows via Hom-square cartesianness, both
directions of the Grothendieck construction, ordinal joins, and twisted
arrow categories.
"""

from .errors import InputError
from .nerve_cat import Functor, generated, product_category, subcategory


class LeftFibrationReport:
    def __init__(self, verdict, witnesses):
        self.verdict = verdict
        self.witnesses = witnesses


def is_left_fibration(F):
    """A functor is a left fibration when every arrow out of an image
    object lifts with prescribed source, and lifts against the outer
    2-horn are in bijection with their shadows."""
    C, D = F.source, F.target
    witnesses = [{"kind": "no-lift", "object": x, "base_arrow": phi}
                 for (x, phi), lifts in _lifts(F).items() if not lifts]
    for a in C.arrows:
        for b in C.arrows:
            if C.src[a] != C.src[b]:
                continue
            y, z = C.dst[a], C.dst[b]
            fillers = [c for c in C.hom(y, z) if C.compose(c, a) == b]
            shadows = [cb for cb in D.hom(F.obj_map[y], F.obj_map[z])
                       if D.compose(cb, F.arr_map[a]) == F.arr_map[b]]
            image = [F.arr_map[c] for c in fillers]
            if sorted(image) != sorted(set(image)) or \
                    sorted(set(image)) != sorted(shadows):
                witnesses.append({"kind": "horn-bijection-fails",
                                  "a": a, "b": b,
                                  "fillers": sorted(fillers),
                                  "shadows": sorted(shadows)})
    return LeftFibrationReport(not witnesses, witnesses)


def _lifts(F):
    """{(x, phi): the arrows out of x over phi, in C's order} for each
    object x of C and each arrow phi of D out of F(x), in that order."""
    C, D = F.source, F.target
    lifts = {(x, phi): [] for x in C.objects for phi in D.arrows
             if D.src[phi] == F.obj_map[x]}
    for a in C.arrows:
        lifts.get((C.src[a], F.arr_map[a]), []).append(a)
    return lifts


# ---------------------------------------------------------------------------
# cocartesian analysis


def is_cocartesian_arrow(F, alpha):
    """The Hom-square against every object is cartesian: composition
    with alpha is a bijection onto pairs (u, shadow) that agree over the
    base."""
    C, D = F.source, F.target
    x, y = C.src[alpha], C.dst[alpha]
    falpha = F.arr_map[alpha]
    for z in C.objects:
        fz = F.obj_map[z]
        pullback = [(u, vbar)
                    for u in C.hom(x, z)
                    for vbar in D.hom(F.obj_map[y], fz)
                    if F.arr_map[u] == D.compose(vbar, falpha)]
        image = [(C.compose(c, alpha), F.arr_map[c])
                 for c in C.hom(y, z)]
        if len(image) != len(set(image)):
            return False
        if sorted(image) != sorted(pullback):
            return False
    return True


def is_locally_cocartesian_arrow(F, alpha):
    """alpha: x -> y is locally cocartesian when, for every z with F(z)
    = F(y), composing with alpha is a bijection from the arrows y -> z
    over the identity of F(y) onto the arrows x -> z over F(alpha): it is
    cocartesian after base change along F(alpha) viewed as a functor
    from [1], or from [0] for an arrow over an identity."""
    C, D = F.source, F.target
    x, y = C.src[alpha], C.dst[alpha]
    falpha, fy = F.arr_map[alpha], F.obj_map[y]
    unit = D.ident[fy]
    for z in C.objects:
        if F.obj_map[z] != fy:
            continue
        image = [C.compose(c, alpha) for c in C.hom(y, z)
                 if F.arr_map[c] == unit]
        over = {u for u in C.hom(x, z) if F.arr_map[u] == falpha}
        if len(image) != len(set(image)) or set(image) != over:
            return False
    return True


def fiber_category(F, d):
    """The subcategory over an object d: objects mapping to d, arrows
    mapping to its identity."""
    C, D = F.source, F.target
    objects = [c for c in C.objects if F.obj_map[c] == d]
    return subcategory(C, objects, [
        a for a in C.arrows
        if F.arr_map[a] == D.ident[d] and C.src[a] in objects])


class CocartAnalysis:
    def __init__(self, functor, arrow_flags, pair_flags, verdicts,
                 lift_tables):
        self.functor = functor
        self.arrow_flags = arrow_flags
        self.pair_flags = pair_flags
        self.verdicts = verdicts
        self.lift_tables = lift_tables

    @property
    def is_cocartesian_fibration(self):
        return self.verdicts["is_cocartesian_fibration"]

    @property
    def is_locally_cocartesian_fibration(self):
        return self.verdicts["is_locally_cocartesian_fibration"]

    @property
    def is_left_fibration(self):
        return self.verdicts["is_left_fibration"]

    def locally_cocartesian_arrows(self):
        return sorted(a for a, flags in self.arrow_flags.items()
                      if flags["locally_cocartesian"])

    def as_dict(self):
        return {
            "arrows": {a: dict(flags)
                       for a, flags in sorted(self.arrow_flags.items())},
            "composable_pairs": {"%s;%s" % pair: flag
                                 for pair, flag in
                                 sorted(self.pair_flags.items())},
            "verdicts": dict(self.verdicts),
        }


def cocart_analyze(F):
    """Flag every arrow of the source as (locally) cocartesian, check
    closure of locally cocartesian arrows under composition, and decide
    the three fibration verdicts."""
    C = F.source
    arrow_flags = {}
    for a in C.arrows:
        coc = is_cocartesian_arrow(F, a)
        loc = coc or is_locally_cocartesian_arrow(F, a)
        arrow_flags[a] = {"cocartesian": coc, "locally_cocartesian": loc}
    pair_flags = {}
    for g, f in C.composable_pairs():
        if arrow_flags[f]["locally_cocartesian"] and \
                arrow_flags[g]["locally_cocartesian"]:
            comp = C.compose(g, f)
            pair_flags[(g, f)] = arrow_flags[comp]["locally_cocartesian"]
    lift_tables = {"cocartesian": {}, "locally_cocartesian": {}}
    coc_fib = True
    loc_fib = True
    for key, lifts in _lifts(F).items():
        coc_lifts = [a for a in lifts if arrow_flags[a]["cocartesian"]]
        loc_lifts = [a for a in lifts
                     if arrow_flags[a]["locally_cocartesian"]]
        lift_tables["cocartesian"][key] = sorted(coc_lifts)
        lift_tables["locally_cocartesian"][key] = sorted(loc_lifts)
        if not coc_lifts:
            coc_fib = False
        if not loc_lifts:
            loc_fib = False
    left = is_left_fibration(F).verdict
    verdicts = {
        "is_cocartesian_fibration": coc_fib,
        "is_locally_cocartesian_fibration": loc_fib,
        "is_left_fibration": left,
    }
    return CocartAnalysis(F, arrow_flags, pair_flags, verdicts,
                          lift_tables)


# ---------------------------------------------------------------------------
# Grothendieck construction


class SplitFunctorToCat:
    """Strictly functorial fiber data over a base: one category per base
    object, one transport functor per base arrow, with transport of a
    composite equal to the composite of transports on the nose."""

    def __init__(self, base, fibers, transports):
        self.base = base
        self.fibers = dict(fibers)
        self.transports = dict(transports)
        self.validate()

    def validate(self):
        for d in self.base.objects:
            if d not in self.fibers:
                raise InputError("fiber missing over %s" % d)
        for phi in self.base.arrows:
            T = self.transports.get(phi)
            if T is None:
                raise InputError("transport missing for %s" % phi)
            if T.source is not self.fibers[self.base.src[phi]] or \
                    T.target is not self.fibers[self.base.dst[phi]]:
                raise InputError("transport for %s has wrong endpoints"
                                 % phi)
        for d in self.base.objects:
            T = self.transports[self.base.ident[d]]
            fib = self.fibers[d]
            if any(T.obj_map[x] != x for x in fib.objects) or \
                    any(T.arr_map[a] != a for a in fib.arrows):
                raise InputError("identity transport is not the identity")
        for psi, phi in self.base.composable_pairs():
            Tc = self.transports[self.base.compose(psi, phi)]
            T2 = self.transports[psi]
            T1 = self.transports[phi]
            for x in self.fibers[self.base.src[phi]].objects:
                if Tc.obj_map[x] != T2.obj_map[T1.obj_map[x]]:
                    raise InputError("splitness fails on objects at "
                                     "(%s, %s)" % (psi, phi))
            for a in self.fibers[self.base.src[phi]].arrows:
                if Tc.arr_map[a] != T2.arr_map[T1.arr_map[a]]:
                    raise InputError("splitness fails on arrows at "
                                     "(%s, %s)" % (psi, phi))


def grothendieck_build(S):
    """Total category of split fiber data: objects are pairs (d, x);
    morphisms (d, x) -> (d', y) are pairs (phi, alpha) with alpha from
    the transported object to y.  Returns the projection functor."""
    B = S.base
    objects = []
    locate = {}
    for d in B.objects:
        for x in S.fibers[d].objects:
            name = "(%s|%s)" % (d, x)
            objects.append(name)
            locate[name] = (d, x)

    def arrow(phi, alpha, n1, n2):
        return "(%s|%s:%s->%s)" % (phi, alpha, n1, n2)

    # an arrow's data is (phi, alpha, source, target)
    arrows = []
    for n1 in objects:
        d, x = locate[n1]
        for phi in B.arrows:
            if B.src[phi] != d:
                continue
            d2 = B.dst[phi]
            tx = S.transports[phi].obj_map[x]
            for n2 in objects:
                d2b, y = locate[n2]
                if d2b != d2:
                    continue
                for alpha in S.fibers[d2].hom(tx, y):
                    arrows.append((arrow(phi, alpha, n1, n2), n1, n2,
                                   (phi, alpha, n1, n2)))

    def compose(g, f):
        phi2, alpha2, _, n3 = g
        phi1, alpha1, n1, _ = f
        alpha = S.fibers[B.dst[phi2]].compose(
            alpha2, S.transports[phi2].arr_map[alpha1])
        return arrow(B.compose(phi2, phi1), alpha, n1, n3)

    ident = {}
    for n1 in objects:
        d, x = locate[n1]
        ident[n1] = arrow(B.ident[d], S.fibers[d].ident[x], n1, n1)
    total = generated(objects, arrows, ident, compose)
    proj = Functor(total, B,
                   {n: locate[n][0] for n in objects},
                   {a: phi for a, _, _, (phi, _, _, _) in arrows})
    return proj


class GrothendieckReadout:
    def __init__(self, fibers, transports, thetas, all_theta_iso):
        self.fibers = fibers
        self.transports = transports
        self.thetas = thetas
        self.all_theta_iso = all_theta_iso


def grothendieck_read(F):
    """Fibers, transports (first locally cocartesian lifts in sorted
    arrow order), and all comparison maps theta_{a,b}: (ba)_! -> b_! a_!
    with the isomorphism verdict, cross-checked against cocart_analyze."""
    analysis = cocart_analyze(F)
    if not analysis.is_locally_cocartesian_fibration:
        bad = [key for key, lifts in
               analysis.lift_tables["locally_cocartesian"].items()
               if not lifts]
        raise InputError("not a locally cocartesian fibration; no lift "
                         "for %s" % (bad[:1],))
    C, D = F.source, F.target
    fibers = {d: fiber_category(F, d) for d in D.objects}
    chosen = {}
    for (x, phi), lifts in sorted(
            analysis.lift_tables["locally_cocartesian"].items()):
        chosen[(x, phi)] = lifts[0]
    transports = {}
    for phi in D.arrows:
        d, d2 = D.src[phi], D.dst[phi]
        obj_map = {}
        arr_map = {}
        for x in fibers[d].objects:
            obj_map[x] = C.dst[chosen[(x, phi)]]
        for u in fibers[d].arrows:
            x, x2 = C.src[u], C.dst[u]
            lift_x = chosen[(x, phi)]
            lift_x2 = chosen[(x2, phi)]
            want = C.compose(lift_x2, u)
            sols = [v for v in fibers[d2].hom(obj_map[x], obj_map[x2])
                    if C.compose(v, lift_x) == want]
            if len(sols) != 1:
                raise InputError("transport of %s along %s is not "
                                 "uniquely determined" % (u, phi))
            arr_map[u] = sols[0]
        transports[phi] = Functor(fibers[d], fibers[d2], obj_map, arr_map)
    thetas = {}
    all_iso = True
    for b, a in D.composable_pairs():
        ba = D.compose(b, a)
        d0 = D.src[a]
        comps = {}
        for x in fibers[d0].objects:
            lift_ba = chosen[(x, ba)]
            lift_a = chosen[(x, a)]
            lift_b = chosen[(C.dst[lift_a], b)]
            composite = C.compose(lift_b, lift_a)
            target_fiber = fibers[D.dst[b]]
            sols = [w for w in target_fiber.hom(
                        C.dst[lift_ba], C.dst[composite])
                    if C.compose(w, lift_ba) == composite]
            if len(sols) != 1:
                raise InputError("theta component at %s not uniquely "
                                 "determined" % x)
            comps[x] = sols[0]
            if not target_fiber.is_iso(sols[0]):
                all_iso = False
        # naturality of theta
        T_ba = transports[ba]
        T_b_a = {x: transports[b].obj_map[transports[a].obj_map[x]]
                 for x in fibers[d0].objects}
        for u in fibers[d0].arrows:
            x, x2 = C.src[u], C.dst[u]
            lhs = fibers[D.dst[b]].compose(
                transports[b].arr_map[transports[a].arr_map[u]], comps[x])
            rhs = fibers[D.dst[b]].compose(comps[x2], T_ba.arr_map[u])
            if lhs != rhs:
                raise InputError("theta is not natural at %s along "
                                 "(%s, %s)" % (u, b, a))
        thetas[(b, a)] = comps
    if all_iso != analysis.is_cocartesian_fibration:
        raise InputError("theta verdict disagrees with the Hom-square "
                         "analysis")
    return GrothendieckReadout(fibers, transports, thetas, all_iso)


# ---------------------------------------------------------------------------
# joins and twisted arrows


def join(C, D):
    """C * D: both categories side by side plus exactly one arrow from
    each C-object to each D-object."""
    objects = ["L.%s" % x for x in C.objects] + \
              ["R.%s" % y for y in D.objects]
    # an arrow's data is ("L", arrow of C), ("R", arrow of D) or
    # ("X", (x, y)); arrow names may be integers, so they are never read
    # back from names
    arrows = [("%s.%s" % (side, a), "%s.%s" % (side, K.src[a]),
               "%s.%s" % (side, K.dst[a]), (side, a))
              for side, K in (("L", C), ("R", D)) for a in K.arrows]
    arrows += [("X.%s->%s" % (x, y), "L.%s" % x, "R.%s" % y, ("X", (x, y)))
               for x in C.objects for y in D.objects]

    def compose(g, f):
        (gside, ga), (fside, fa) = g, f
        if gside == fside == "L":
            return "L.%s" % C.compose(ga, fa)
        if gside == fside == "R":
            return "R.%s" % D.compose(ga, fa)
        if gside == "X":  # a cross arrow after an arrow of C
            return "X.%s->%s" % (C.src[fa], ga[1])
        return "X.%s->%s" % (fa[0], D.dst[ga])  # D's after a cross arrow

    ident = {"L.%s" % x: "L.%s" % C.ident[x] for x in C.objects}
    ident.update({"R.%s" % y: "R.%s" % D.ident[y] for y in D.objects})
    return generated(objects, arrows, ident, compose)


def twisted_arrows(C):
    """Tw(C): objects are the arrows of C; a morphism f -> g is a pair
    (u, v) with g = v . f . u, contravariant in u.  Returns Tw(C) and
    the projection to C^op x C sending f: x -> y to (x, y)."""
    objects = ["tw[%s]" % f for f in C.arrows]
    # an arrow's data is (u, v, f)
    arrows = []
    for f in C.arrows:
        for u in C.arrows:
            if C.dst[u] != C.src[f]:
                continue
            for v in C.arrows:
                if C.src[v] != C.dst[f]:
                    continue
                g = C.compose(v, C.compose(f, u))
                arrows.append(("(%s|%s)@%s" % (u, v, f), "tw[%s]" % f,
                               "tw[%s]" % g, (u, v, f)))
    ident = {"tw[%s]" % f: "(%s|%s)@%s" % (C.ident[C.src[f]],
                                          C.ident[C.dst[f]], f)
             for f in C.arrows}
    Tw = generated(objects, arrows, ident, lambda g, f: "(%s|%s)@%s" % (
        C.compose(f[0], g[0]), C.compose(g[1], f[1]), f[2]))
    Cop = C.opposite()
    base = product_category(Cop, C)
    proj = Functor(Tw, base,
                   {("tw[%s]" % f): "(%s,%s)" % (C.src[f], C.dst[f])
                    for f in C.arrows},
                   {a: "(%s,%s)" % (u, v) for a, _, _, (u, v, _) in arrows})
    return Tw, proj
