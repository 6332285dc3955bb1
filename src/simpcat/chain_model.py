"""Executable content of the projective model structure on bounded
complexes: quasi-isomorphism testing via mapping cones, joining
variables, and the two factorization constructions (split-acyclic middle
summand; staged cycle-killing toward a trivial fibration).
"""

from .doldkan import (ChainComplex, boundaries_matrix, cycles_matrix,
                      homology_at, map_respects_relations, maps_equal,
                      relation_matrix)
from .errors import FuelExhausted, InputError
from .intlinalg import Mat, from_columns, kernel_basis, solve_matrix


class ChainMap:
    """A map of complexes over a shared ring and window; like
    ChainComplex, a record that validate() checks."""

    def __init__(self, source, target, components):
        if source.modulus != target.modulus:
            raise InputError("ring mismatch")
        if source.window != target.window:
            raise InputError("window mismatch")
        self.source = source
        self.target = target
        self.components = dict(components)

    def at(self, n):
        return self.components[n]

    def reduced(self):
        """The same map with each component of the window reduced modulo
        the target's annihilators: the form of a loaded map and of the
        maps composition, join_variable and factor_trivcofib_fib build.
        The staged maps of factor_cofib_trivfib keep their matrices as
        given, and their documents show them so."""
        return ChainMap(self.source, self.target, {
            n: self.at(n).reduced(self.target.coeffs[n])
            for n in range(self.source.lo, self.source.hi + 1)})

    def validate(self):
        """Each component is present, shaped and respects annihilators;
        the components commute with the differentials."""
        X, Y = self.source, self.target
        for n in range(X.lo, X.hi + 1):
            F = self.components.get(n)
            if F is None:
                raise InputError("component %d missing" % n)
            if F.rows != Y.rank(n) or F.cols != X.rank(n):
                raise InputError("component %d misshaped" % n)
            if not map_respects_relations(F, X.coeffs[n], Y.coeffs[n]):
                raise InputError("component %d ignores annihilators" % n)
        for n in range(X.lo + 1, X.hi + 1):
            lhs = Y.differential(n) * self.components[n]
            rhs = self.components[n - 1] * X.differential(n)
            if not maps_equal(lhs, rhs, Y.coeffs[n - 1]):
                raise InputError("map does not commute with d at degree %d"
                                 % n)
        return self

    def __repr__(self):
        return "ChainMap(%r -> %r)" % (self.source, self.target)


def identity_chain_map(C):
    return ChainMap(C, C, {n: Mat.identity(C.rank(n))
                           for n in range(C.lo, C.hi + 1)})


def compose_chain_maps(g, f):
    if f.target.window != g.source.window or \
            f.target.modulus != g.source.modulus:
        raise InputError("chain maps do not compose")
    return ChainMap(f.source, g.target,
                    {n: g.at(n) * f.at(n)
                     for n in range(f.source.lo, f.source.hi + 1)}).reduced()


def extend_window(C, lo, hi):
    """The same complex viewed in a larger window, zero outside."""
    if lo > C.lo or hi < C.hi:
        raise InputError("extension must enlarge the window")
    coeffs = {n: C.coeffs.get(n, ()) for n in range(lo, hi + 1)}
    diff = {n: C.diff[n] for n in range(C.lo + 1, C.hi + 1)}
    return ChainComplex(C.modulus, (lo, hi), coeffs, diff)


def extend_map(f, lo, hi):
    src = extend_window(f.source, lo, hi)
    dst = extend_window(f.target, lo, hi)
    comps = {}
    for n in range(lo, hi + 1):
        if f.source.lo <= n <= f.source.hi:
            comps[n] = f.at(n)
        else:
            comps[n] = Mat(dst.rank(n), src.rank(n))
    return ChainMap(src, dst, comps)


def mapping_cone(f):
    """Cone(f)_n = Y_n + X_{n-1} with d(y, x) = (dy + fx, -dx)."""
    X, Y = f.source, f.target
    lo, hi = X.lo, X.hi + 1
    coeffs = {}
    for n in range(lo, hi + 1):
        cy = Y.coeffs.get(n, ())
        cx = X.coeffs.get(n - 1, ())
        coeffs[n] = tuple(cy) + tuple(cx)
    diff = {}
    for n in range(lo + 1, hi + 1):
        ry = len(Y.coeffs.get(n - 1, ()))
        cy = len(Y.coeffs.get(n, ()))
        cx = len(X.coeffs.get(n - 1, ()))
        M = Mat(len(coeffs[n - 1]), cy + cx)
        dY = Y.differential(n)
        for i in range(dY.rows):
            for j in range(dY.cols):
                M.data[i][j] = dY.data[i][j]
        if X.lo <= n - 1 <= X.hi:
            F = f.at(n - 1)
            for i in range(F.rows):
                for j in range(F.cols):
                    M.data[i][cy + j] = F.data[i][j]
        dX = X.differential(n - 1)
        for i in range(dX.rows):
            for j in range(dX.cols):
                M.data[ry + i][cy + j] = -dX.data[i][j]
        diff[n] = M
    return ChainComplex(X.modulus, (lo, hi), coeffs, diff)


class QuasiIsoReport:
    """Cone-homology verdict: vanishing in the window interior decides;
    degrees touching the window edge are reported inconclusive."""

    def __init__(self, verdict, cone_homology, conclusive, inconclusive):
        self.verdict = verdict
        self.cone_homology = cone_homology
        self.conclusive_degrees = conclusive
        self.inconclusive_degrees = inconclusive

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return "QuasiIsoReport(verdict=%s, inconclusive=%s)" % (
            self.verdict, self.inconclusive_degrees)

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "cone_homology": {str(n): list(H.invariant_factors)
                              for n, H in self.cone_homology.items()},
            "inconclusive_degrees": list(self.inconclusive_degrees),
        }


def is_quasi_iso(f):
    """True iff the mapping cone has vanishing homology at every degree
    fully determined by the window.

    With both complexes known only on [lo, hi], the cone and its two
    neighboring differentials are fully known at degrees lo+2 .. hi-1 of
    the cone window [lo, hi+1]; everything nearer either edge is
    reported inconclusive rather than assumed zero."""
    cone = mapping_cone(f)
    conclusive = list(range(cone.lo + 2, cone.hi - 1))
    inconclusive = [n for n in range(cone.lo, cone.hi + 1)
                    if n not in conclusive]
    hom = {n: homology_at(cone, n) for n in range(cone.lo, cone.hi + 1)}
    verdict = all(hom[n].is_trivial() for n in conclusive)
    return QuasiIsoReport(verdict, hom, conclusive, inconclusive)


# ---------------------------------------------------------------------------
# joining variables


def join_variable(X, z, n, annihilator=None):
    """X<u; du = z> for a cycle z in degree n: one new generator in
    degree n+1, free unless annihilator is given, in which case
    validate() decides whether d respects it.  Returns (extended complex,
    inclusion chain map); the window grows upward when needed."""
    if not X.lo <= n <= X.hi:
        raise InputError("degree %d outside the window" % n)
    z = list(z)
    if len(z) != X.rank(n):
        raise InputError("cycle has wrong length")
    dz = X.differential(n).apply(z)
    moduli = X.coeffs.get(n - 1, ())
    for v, c in zip(dz, moduli):
        if (c and v % c != 0) or (not c and v != 0):
            raise InputError("du must be a cycle: d(z) is nonzero")
    lo, hi = X.lo, max(X.hi, n + 1)
    Xe = extend_window(X, lo, hi) if hi > X.hi else X
    coeff_new = X.modulus if annihilator is None else annihilator
    coeffs = {m: Xe.coeffs[m] for m in range(lo, hi + 1)}
    coeffs[n + 1] = coeffs[n + 1] + (coeff_new,)
    diff = {}
    for m in range(lo + 1, hi + 1):
        base = Xe.differential(m)
        if m == n + 1:
            M = Mat(base.rows, base.cols + 1, [r + [0] for r in base.data])
            for i in range(len(z)):
                M.data[i][base.cols] = z[i]
            diff[m] = M
        elif m == n + 2:
            M = Mat(base.rows + 1, base.cols,
                    [list(r) for r in base.data] + [[0] * base.cols])
            diff[m] = M
        else:
            diff[m] = base
    E = ChainComplex(X.modulus, (lo, hi), coeffs, diff).validate()
    incl = {}
    for m in range(lo, hi + 1):
        M = Mat(E.rank(m), Xe.rank(m))
        for j in range(M.cols):
            M.data[j][j] = 1
        incl[m] = M
    return E, ChainMap(Xe, E, incl).reduced()


# ---------------------------------------------------------------------------
# factorizations


class FactorizationCertificate:
    """A factorization f = second . first with the middle complex, the
    staged construction log, and the property checks that were run."""

    def __init__(self, kind, middle, first, second, stages, checks):
        self.kind = kind
        self.middle = middle
        self.first = first
        self.second = second
        self.stages = stages
        self.checks = dict(checks)

    def composite_equals(self, f):
        """second . first agrees with f on f's window (zero outside)."""
        lo, hi = self.middle.lo, self.middle.hi
        for n in range(lo, hi + 1):
            lhs = self.second.at(n) * self.first.at(n)
            if f.source.lo <= n <= f.source.hi:
                want = f.at(n)
            else:
                want = Mat(lhs.rows, lhs.cols)
            if lhs.rows != want.rows or lhs.cols != want.cols:
                return False
            moduli = self.second.target.coeffs.get(n, ())
            if not maps_equal(lhs, want, moduli):
                return False
        return True

    def as_dict(self):
        return {
            "kind": self.kind,
            "middle": self.middle.as_dict(),
            "first": {str(n): self.first.at(n).data
                      for n in range(self.middle.lo, self.middle.hi + 1)},
            "second": {str(n): self.second.at(n).data
                       for n in range(self.middle.lo, self.middle.hi + 1)},
            "stages": self.stages,
            "checks": self.checks,
        }

    def __repr__(self):
        return "FactorizationCertificate(%s, stages=%d)" % (
            self.kind, len(self.stages))


def is_standard_extension(X, M):
    """Is the block inclusion of X into M an iterated variable join?

    The first rank(X_n) generators of each degree of M must be X's, and
    the differentials of the added generators must form an acyclic
    dependency graph among themselves (each added generator's boundary
    involves only X and other added generators that can come earlier),
    which is exactly reachability by successive join_variable steps."""
    added = []
    for n in range(M.lo, M.hi + 1):
        rx = X.rank(n) if X.lo <= n <= X.hi else 0
        if M.coeffs[n][:rx] != tuple(X.coeffs.get(n, ())):
            return False
        for j in range(rx, M.rank(n)):
            added.append((n, j))
        # X's differentials must be the upper-left blocks
        if X.lo < n <= X.hi:
            dM = M.differential(n)
            dX = X.differential(n)
            for i in range(dX.rows):
                for j in range(dX.cols):
                    if dM.data[i][j] != dX.data[i][j]:
                        return False
            rx1 = X.rank(n - 1)
            for i in range(rx1, M.rank(n - 1)):
                for j in range(dX.cols):
                    if dM.data[i][j] != 0:
                        return False
    # dependency edges between added generators
    index = {g: t for t, g in enumerate(added)}
    deps = {g: set() for g in added}
    for (n, j) in added:
        dM = M.differential(n)
        for i in range(dM.rows):
            if dM.data[i][j] == 0:
                continue
            rx1 = X.rank(n - 1) if X.lo <= n - 1 <= X.hi else 0
            if i >= rx1:
                deps[(n, j)].add((n - 1, i))
    state = {}

    def acyclic(g):
        if state.get(g) == "done":
            return True
        if state.get(g) == "busy":
            return False
        state[g] = "busy"
        for h in deps[g]:
            if h in index and not acyclic(h):
                return False
        state[g] = "done"
        return True

    return all(acyclic(g) for g in added)


def degreewise_surjective(p):
    Y = p.target
    for n in range(Y.lo, Y.hi + 1):
        if Y.rank(n) == 0:
            continue
        F = p.at(n)
        R = relation_matrix(Y.coeffs[n])
        solver = F.hstack(R) if R.cols else F
        if solve_matrix(solver, Mat.identity(Y.rank(n))) is None:
            return False
    return True


def surjective_on_cycles(p):
    X, Y = p.source, p.target
    for n in range(Y.lo, Y.hi + 1):
        ZY = cycles_matrix(Y, n)
        if ZY.cols == 0:
            continue
        ZX = cycles_matrix(X, n)
        F = p.at(n)
        cols = [F.apply(ZX.column(j)) for j in range(ZX.cols)] + \
            relation_matrix(Y.coeffs[n]).columns()
        span = from_columns(cols, Y.rank(n)) if cols else Mat(Y.rank(n), 0)
        if solve_matrix(span, ZY) is None:
            return False
    return True


def factor_trivcofib_fib(f):
    """f = p . i with i the split inclusion of the source into
    source + (one acyclic two-term summand per generator of the target)
    and p degreewise surjective.

    The summand for a generator y of Y_n is free on u_y (degree n,
    p(u_y) = y) and v_y = d(u_y) (degree n-1, p(v_y) = dy); the window
    grows one step down to hold the lowest v's."""
    X, Y = f.source, f.target
    lo = min(X.lo, Y.lo - 1)
    hi = max(X.hi, Y.hi)
    Xe = extend_window(X, lo, hi)
    Ye = extend_window(Y, lo, hi)
    fe = extend_map(f, lo, hi)
    free = X.modulus
    coeffs = {}
    for n in range(lo, hi + 1):
        coeffs[n] = tuple(Xe.coeffs[n]) \
            + tuple(free for _ in Ye.coeffs.get(n, ())) \
            + tuple(free for _ in Ye.coeffs.get(n + 1, ()))
    diff = {}
    for n in range(lo + 1, hi + 1):
        rows = len(coeffs[n - 1])
        cols = len(coeffs[n])
        M = Mat(rows, cols)
        dX = Xe.differential(n)
        for i in range(dX.rows):
            for j in range(dX.cols):
                M.data[i][j] = dX.data[i][j]
        # u_y block of degree n (indexed by gens of Y_n) maps to the v
        # block of degree n-1, which is also indexed by gens of Y_n
        rx = Xe.rank(n)
        rx1 = Xe.rank(n - 1)
        ru1 = Ye.rank(n - 1)
        for j in range(Ye.rank(n)):
            M.data[rx1 + ru1 + j][rx + j] = 1
        diff[n] = M
    middle = ChainComplex(X.modulus, (lo, hi), coeffs, diff)
    first = {}
    second = {}
    for n in range(lo, hi + 1):
        rx = Xe.rank(n)
        ru = Ye.rank(n)
        rv = Ye.rank(n + 1)
        inc = Mat(len(coeffs[n]), rx)
        for j in range(rx):
            inc.data[j][j] = 1
        first[n] = inc
        P = Mat(Ye.rank(n), len(coeffs[n]))
        F = fe.at(n)
        for i in range(F.rows):
            for j in range(F.cols):
                P.data[i][j] = F.data[i][j]
        for j in range(ru):
            P.data[j][rx + j] = 1
        dY = Ye.differential(n + 1)
        for i in range(dY.rows):
            for j in range(dY.cols):
                P.data[i][rx + ru + j] = dY.data[i][j]
        second[n] = P
    i_map = ChainMap(Xe, middle, first).reduced()
    p_map = ChainMap(middle, Ye, second).reduced()
    added = _added_summand_complex(Ye, lo, hi)
    checks = {
        "second_degreewise_surjective": degreewise_surjective(p_map),
        "added_summand_acyclic": all(
            homology_at(added, n).is_trivial()
            for n in range(added.lo, added.hi + 1)),
        "first_is_standard_extension": is_standard_extension(Xe, middle),
    }
    cert = FactorizationCertificate(
        "trivial-cofibration-then-fibration", middle, i_map, p_map,
        stages=[{"stage": "acyclic-summands",
                 "added": sum(Ye.rank(n) for n in range(lo, hi + 1))}],
        checks=checks)
    if not cert.composite_equals(f):
        raise InputError("factorization lost the original map")
    return cert


def _added_summand_complex(Ye, lo, hi):
    free = Ye.modulus
    coeffs = {}
    for n in range(lo, hi + 1):
        coeffs[n] = tuple(free for _ in Ye.coeffs.get(n, ())) \
            + tuple(free for _ in Ye.coeffs.get(n + 1, ()))
    diff = {}
    for n in range(lo + 1, hi + 1):
        ru1 = Ye.rank(n - 1)
        M = Mat(len(coeffs[n - 1]), len(coeffs[n]))
        for j in range(Ye.rank(n)):
            M.data[ru1 + j][j] = 1
        diff[n] = M
    return ChainComplex(Ye.modulus, (lo, hi), coeffs, diff)


class _Stage:
    """Mutable staging state for the cycle-killing factorization."""

    def __init__(self, base, f):
        self.M = base.middle
        self.p = {n: base.second.at(n)
                  for n in range(self.M.lo, self.M.hi + 1)}
        self.i = {n: base.first.at(n)
                  for n in range(self.M.lo, self.M.hi + 1)}
        self.Y0 = f.target
        self.X0 = f.source
        self.joins = []

    def Y(self):
        return extend_window(self.Y0, self.M.lo, self.M.hi)

    def p_map(self):
        return ChainMap(self.M, self.Y(), self.p)

    def i_map(self):
        lo, hi = self.M.lo, self.M.hi
        return ChainMap(extend_window(self.X0, lo, hi), self.M, self.i)

    def add_generator(self, n, z, eta_degree, eta):
        """Join u in degree n+1 with du = z (a cycle in M_n) and
        p(u) = eta in Y_{eta_degree} (= n+1)."""
        E, incl = join_variable(self.M, z, n)
        new_p = {}
        new_i = {}
        for m in range(E.lo, E.hi + 1):
            yr = self.Y0.rank(m) if self.Y0.lo <= m <= self.Y0.hi else 0
            P = Mat(yr, E.rank(m))
            base = self.p.get(m)
            if base is not None:
                for r in range(base.rows):
                    for c in range(base.cols):
                        P.data[r][c] = base.data[r][c]
            if m == eta_degree:
                for r in range(yr):
                    P.data[r][E.rank(m) - 1] = eta[r]
            new_p[m] = P
            xr = self.X0.rank(m) if self.X0.lo <= m <= self.X0.hi else 0
            I = Mat(E.rank(m), xr)
            base = self.i.get(m)
            if base is not None:
                for r in range(base.rows):
                    for c in range(base.cols):
                        I.data[r][c] = base.data[r][c]
            new_i[m] = I
        self.M = E
        self.p = new_p
        self.i = new_i
        self.joins.append((n + 1, list(z)))


def factor_cofib_trivfib(f, fuel):
    """f = (standard cofibration) . p, built in stages: make p surjective
    (acyclic summands), make it surjective on cycles (free cycle
    generators), then repeatedly join variables killing homology classes
    of cycles whose image bounds.  Stops when p is a trivial fibration on
    the window interior; one fuel unit per killing round."""
    if fuel <= 0:
        raise InputError("fuel must be positive")
    base = factor_trivcofib_fib(f)
    state = _Stage(base, f)
    stages = [dict(base.stages[0])]

    # cycle surjectivity: add free cycle generators hitting the missing
    # generators of Z(Y)
    joined = 0
    Y = state.Y()
    for n in range(Y.lo, Y.hi + 1):
        ZY = cycles_matrix(Y, n)
        if ZY.cols == 0:
            continue
        for j in range(ZY.cols):
            zeta = ZY.column(j)
            ZM = cycles_matrix(state.M, n)
            F = state.p[n]
            cols = [F.apply(ZM.column(q)) for q in range(ZM.cols)] + \
                relation_matrix(Y.coeffs[n]).columns()
            span = from_columns(cols, Y.rank(n)) if cols else \
                Mat(Y.rank(n), 0)
            if solve_matrix(span, from_columns([zeta], Y.rank(n))) \
                    is not None:
                continue
            # join u in degree n with du = 0 and p(u) = zeta
            state.add_generator(n - 1, [0] * state.M.rank(n - 1), n, zeta)
            joined += 1
    stages.append({"stage": "cycle-surjectivity", "joined": joined})

    for round_no in range(1, fuel + 1):
        p_map = state.p_map()
        if _trivial_fibration_reached(p_map):
            checks = {
                "second_degreewise_surjective":
                    degreewise_surjective(p_map),
                "second_surjective_on_cycles":
                    surjective_on_cycles(p_map),
                "second_quasi_iso_interior": True,
                "first_is_standard_extension": is_standard_extension(
                    extend_window(state.X0, state.M.lo, state.M.hi),
                    state.M),
            }
            cert = FactorizationCertificate(
                "cofibration-then-trivial-fibration", state.M,
                state.i_map(), p_map, stages=stages, checks=checks)
            if not cert.composite_equals(f):
                raise InputError("factorization lost the original map")
            return cert
        killed = 0
        Y = state.Y()
        for n in range(state.M.lo, state.M.hi):
            ZM = cycles_matrix(state.M, n)
            if ZM.cols == 0:
                continue
            yr = Y.rank(n)
            F = state.p[n]
            fz = from_columns([F.apply(ZM.column(j))
                               for j in range(ZM.cols)], yr) \
                if yr else Mat(0, ZM.cols)
            BY = boundaries_matrix(Y, n) if yr else Mat(0, 0)
            big = fz.hstack(BY) if BY.cols else fz
            for col in kernel_basis(big):
                a = col[:ZM.cols]
                z = ZM.apply(a)
                if not any(z):
                    continue
                BM = boundaries_matrix(state.M, n)
                if BM.cols and solve_matrix(
                        BM, from_columns([z], state.M.rank(n))) is not None:
                    continue
                pz = state.p[n].apply(z)
                eta = _preimage_boundary(Y, n, pz)
                state.add_generator(n, z, n + 1, eta)
                killed += 1
                ZM = cycles_matrix(state.M, n)
                F = state.p[n]
        stages.append({"stage": "kill-cycles", "round": round_no,
                       "joined": killed})
    cert = FactorizationCertificate(
        "cofibration-then-trivial-fibration-partial", state.M,
        state.i_map(), state.p_map(), stages=stages,
        checks={"second_quasi_iso_interior": False})
    return FuelExhausted("cycle-killing still productive after %d rounds"
                         % fuel, partial=cert)


def _trivial_fibration_reached(p):
    if not degreewise_surjective(p):
        return False
    if not surjective_on_cycles(p):
        return False
    cone = mapping_cone(p)
    return all(homology_at(cone, n).is_trivial()
               for n in range(cone.lo + 1, cone.hi))


def _preimage_boundary(Y, n, target):
    """eta with d_{n+1}(eta) = target modulo relations."""
    dY = Y.differential(n + 1)
    R = relation_matrix(Y.coeffs[n])
    solver = dY.hstack(R) if R.cols else dY
    sol = solve_matrix(solver, from_columns([list(target)], Y.rank(n)))
    if sol is None:
        raise InputError("image cycle is not a boundary after all")
    return [sol.data[i][0] for i in range(dY.cols)]
