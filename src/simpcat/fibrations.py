"""Conventional fibration analysis of finite functors: left fibrations,
(locally) cocartesian arrows via Hom-square cartesianness, both
directions of the Grothendieck construction, ordinal joins, and twisted
arrow categories.
"""

from .errors import InputError
from .nerve_cat import FinCategory, Functor, product_category


class LeftFibrationReport:
    def __init__(self, verdict, witnesses):
        self.verdict = verdict
        self.witnesses = witnesses

    def __bool__(self):
        return self.verdict

    def as_dict(self):
        return {"verdict": self.verdict, "witnesses": self.witnesses}

    def __repr__(self):
        return "LeftFibrationReport(%s)" % self.verdict


def is_left_fibration(F):
    """A functor is a left fibration when every arrow out of an image
    object lifts with prescribed source, and lifts against the outer
    2-horn are in bijection with their shadows."""
    C, D = F.source, F.target
    witnesses = []
    for x in C.objects:
        fx = F.obj_map[x]
        for phi in D.arrows:
            if D.src[phi] != fx:
                continue
            lifts = [a for a in C.arrows
                     if C.src[a] == x and F.arr_map[a] == phi]
            if not lifts:
                witnesses.append({"kind": "no-lift", "object": x,
                                  "base_arrow": phi})
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
    arrows = [a for a in C.arrows
              if F.arr_map[a] == D.ident[d] and C.src[a] in objects]
    comp = {(g, f): c for (g, f), c in C.comp.items()
            if g in arrows and f in arrows}
    return FinCategory(objects, arrows,
                       {a: C.src[a] for a in arrows},
                       {a: C.dst[a] for a in arrows},
                       comp, {x: C.ident[x] for x in objects})


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

    def __repr__(self):
        return "CocartAnalysis(%r)" % (self.verdicts,)


def cocart_analyze(F):
    """Flag every arrow of the source as (locally) cocartesian, check
    closure of locally cocartesian arrows under composition, and decide
    the three fibration verdicts."""
    C, D = F.source, F.target
    arrow_flags = {}
    for a in C.arrows:
        coc = is_cocartesian_arrow(F, a)
        loc = coc or is_locally_cocartesian_arrow(F, a)
        if coc and not loc:
            raise InputError("cocartesian arrow fails to be locally "
                             "cocartesian: %s" % a)
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
    for x in C.objects:
        fx = F.obj_map[x]
        for phi in D.arrows:
            if D.src[phi] != fx:
                continue
            lifts = [a for a in C.arrows
                     if C.src[a] == x and F.arr_map[a] == phi]
            coc_lifts = [a for a in lifts
                         if arrow_flags[a]["cocartesian"]]
            loc_lifts = [a for a in lifts
                         if arrow_flags[a]["locally_cocartesian"]]
            lift_tables["cocartesian"][(x, phi)] = sorted(coc_lifts)
            lift_tables["locally_cocartesian"][(x, phi)] = \
                sorted(loc_lifts)
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
    arrows = []
    src = {}
    dst = {}
    data = {}
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
                    a = "(%s|%s:%s->%s)" % (phi, alpha, n1, n2)
                    arrows.append(a)
                    src[a] = n1
                    dst[a] = n2
                    data[a] = (phi, alpha)
    comp = {}
    for a2 in arrows:
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            phi1, alpha1 = data[a1]
            phi2, alpha2 = data[a2]
            phi = B.compose(phi2, phi1)
            mid = S.fibers[B.dst[phi2]]
            alpha = mid.compose(alpha2,
                                S.transports[phi2].arr_map[alpha1])
            comp[(a2, a1)] = "(%s|%s:%s->%s)" % (phi, alpha, src[a1],
                                                 dst[a2])
    ident = {}
    for n1 in objects:
        d, x = locate[n1]
        ident[n1] = "(%s|%s:%s->%s)" % (B.ident[d],
                                        S.fibers[d].ident[x], n1, n1)
    total = FinCategory(objects, arrows, src, dst, comp, ident)
    proj = Functor(total, B,
                   {n: locate[n][0] for n in objects},
                   {a: data[a][0] for a in arrows})
    return proj


class GrothendieckReadout:
    def __init__(self, fibers, transports, thetas, all_theta_iso):
        self.fibers = fibers
        self.transports = transports
        self.thetas = thetas
        self.all_theta_iso = all_theta_iso


def grothendieck_read(F, analysis=None):
    """Fibers, transports (first locally cocartesian lifts in sorted
    arrow order), and all comparison maps theta_{a,b}: (ba)_! -> b_! a_!
    with the isomorphism verdict, cross-checked against the analysis."""
    if analysis is None:
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
    arrows = []
    src = {}
    dst = {}
    # new name -> ("L", arrow of C), ("R", arrow of D) or ("X", (x, y));
    # arrow names may be integers, so they are never read back from names
    origin = {}
    for side, K in (("L", C), ("R", D)):
        for a in K.arrows:
            name = "%s.%s" % (side, a)
            arrows.append(name)
            src[name] = "%s.%s" % (side, K.src[a])
            dst[name] = "%s.%s" % (side, K.dst[a])
            origin[name] = (side, a)
    for x in C.objects:
        for y in D.objects:
            a = "X.%s->%s" % (x, y)
            arrows.append(a)
            src[a] = "L.%s" % x
            dst[a] = "R.%s" % y
            origin[a] = ("X", (x, y))
    comp = {}
    for g in arrows:
        gside, ga = origin[g]
        for f in arrows:
            if dst[f] != src[g]:
                continue
            fside, fa = origin[f]
            if gside == fside == "L":
                comp[(g, f)] = "L.%s" % C.compose(ga, fa)
            elif gside == fside == "R":
                comp[(g, f)] = "R.%s" % D.compose(ga, fa)
            elif gside == "X" and fside == "L":
                comp[(g, f)] = "X.%s->%s" % (C.src[fa], ga[1])
            elif gside == "R" and fside == "X":
                comp[(g, f)] = "X.%s->%s" % (fa[0], D.dst[ga])
    ident = {}
    for x in C.objects:
        ident["L.%s" % x] = "L.%s" % C.ident[x]
    for y in D.objects:
        ident["R.%s" % y] = "R.%s" % D.ident[y]
    return FinCategory(objects, arrows, src, dst, comp, ident)


def twisted_arrows(C):
    """Tw(C): objects are the arrows of C; a morphism f -> g is a pair
    (u, v) with g = v . f . u, contravariant in u.  Returns Tw(C) and
    the projection to C^op x C sending f: x -> y to (x, y)."""
    objects = ["tw[%s]" % f for f in C.arrows]
    arrows = []
    src = {}
    dst = {}
    data = {}
    for f in C.arrows:
        for u in C.arrows:
            if C.dst[u] != C.src[f]:
                continue
            for v in C.arrows:
                if C.src[v] != C.dst[f]:
                    continue
                g = C.compose(v, C.compose(f, u))
                name = "(%s|%s)@%s" % (u, v, f)
                arrows.append(name)
                src[name] = "tw[%s]" % f
                dst[name] = "tw[%s]" % g
                data[name] = (u, v, f, g)
    comp = {}
    for a2 in arrows:
        for a1 in arrows:
            if dst[a1] != src[a2]:
                continue
            u1, v1, f1, g1 = data[a1]
            u2, v2, f2, g2 = data[a2]
            comp[(a2, a1)] = "(%s|%s)@%s" % (C.compose(u1, u2),
                                             C.compose(v2, v1), f1)
    ident = {}
    for f in C.arrows:
        ident["tw[%s]" % f] = "(%s|%s)@%s" % (C.ident[C.src[f]],
                                              C.ident[C.dst[f]], f)
    Tw = FinCategory(objects, arrows, src, dst, comp, ident)
    Cop = C.opposite()
    base = product_category(Cop, C)
    proj = Functor(Tw, base,
                   {("tw[%s]" % f): "(%s,%s)" % (C.src[f], C.dst[f])
                    for f in C.arrows},
                   {a: "(%s,%s)" % (data[a][0], data[a][1])
                    for a in arrows})
    return Tw, proj
