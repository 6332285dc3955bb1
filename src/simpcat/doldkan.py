"""Simplicial abelian groups, normalized (Moore) chains, the inverse
equivalence built from surjection-indexed summands, homology via Smith
normal form, and the constructive filler for horns in simplicial groups.

Modules are presented with diagonal relations: a term is a direct sum of
cyclic pieces, one annihilator per generator (0 = infinite cyclic).  Over
the ring Z/m every annihilator divides m; the ring Z is modulus 0.
"""

from . import delta
from .errors import InputError
from .intlinalg import (Mat, from_columns, kernel_basis, preimage_lattice,
                        quotient_invariant_factors, smith_normal_form,
                        solve_matrix)


def parse_ring(ring):
    """0 for "Z", m for "Z/m" with m written as str writes it: "Z/02"
    and "Z/٢" would name Z/2 too."""
    if ring == "Z":
        return 0
    digits = ring[2:] if ring.startswith("Z/") else ""
    if digits.isdecimal() and str(int(digits)) == digits:
        m = int(digits)
        if m < 2:
            raise InputError("modulus must be >= 2")
        return m
    raise InputError("unknown ring %r (use 'Z' or 'Z/m')" % (ring,))


def ring_name(modulus):
    return "Z" if modulus == 0 else "Z/%d" % modulus


def _normalize_coeffs(coeffs, modulus):
    out = []
    for c in coeffs:
        if c < 0:
            raise InputError("negative annihilator")
        if modulus:
            if c == 0:
                c = modulus
            if modulus % c != 0:
                raise InputError("annihilator %d does not divide %d"
                                 % (c, modulus))
        out.append(c)
    return tuple(out)


def _reduce_vec(vec, coeffs):
    return tuple(a % c if c else a for a, c in zip(vec, coeffs))


def relation_matrix(coeffs):
    """Columns c_i * e_i for the nonzero annihilators."""
    cols = []
    n = len(coeffs)
    for i, c in enumerate(coeffs):
        if c:
            col = [0] * n
            col[i] = c
            cols.append(col)
    return from_columns(cols, n) if cols else Mat(n, 0)


def maps_equal(F, G, target_coeffs):
    return F.reduced(target_coeffs) == G.reduced(target_coeffs)


def map_respects_relations(F, src_coeffs, dst_coeffs):
    """c * F(e_i) must vanish in the target for each annihilator c."""
    for i, c in enumerate(src_coeffs):
        if c == 0:
            continue
        for j in range(F.rows):
            d = dst_coeffs[j]
            v = c * F.data[j][i]
            if (d and v % d != 0) or (not d and v != 0):
                return False
    return True


class FGAbGroup:
    """A finitely generated abelian group in invariant-factor form."""

    def __init__(self, factors):
        from .intlinalg import normalize_factors
        self.invariant_factors = tuple(normalize_factors(list(factors)))

    @property
    def rank(self):
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def torsion(self):
        return tuple(f for f in self.invariant_factors if f)

    def is_trivial(self):
        return not self.invariant_factors

    @property
    def order(self):
        if self.rank:
            return 0
        out = 1
        for f in self.torsion:
            out *= f
        return out

    def __eq__(self, other):
        return (isinstance(other, FGAbGroup)
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        if self.is_trivial():
            return "0"
        parts = ["Z/%d" % f for f in self.torsion]
        if self.rank:
            parts.append("Z^%d" % self.rank)
        return "+".join(parts)


class ChainComplex:
    """A bounded complex of presented modules, homological indexing:
    diff[n] maps degree n to degree n-1.  The constructor normalizes
    annihilators and reduces differentials, and checks nothing else: the
    loader in formats, and a caller who writes matrices, call validate()."""

    def __init__(self, ring, window, coeffs, diff):
        self.modulus = parse_ring(ring) if isinstance(ring, str) else ring
        self.lo, self.hi = window
        if self.lo > self.hi:
            raise InputError("empty window")
        self.coeffs = {}
        for n in range(self.lo, self.hi + 1):
            self.coeffs[n] = _normalize_coeffs(coeffs.get(n, ()),
                                               self.modulus)
        self.diff = {}
        for n in range(self.lo + 1, self.hi + 1):
            d = diff.get(n)
            if d is None:
                d = Mat(self.rank(n - 1), self.rank(n))
            self.diff[n] = d.reduced(self.coeffs[n - 1])

    @property
    def ring(self):
        return ring_name(self.modulus)

    @property
    def window(self):
        return (self.lo, self.hi)

    def rank(self, n):
        return len(self.coeffs.get(n, ()))

    def differential(self, n):
        """d_n: C_n -> C_{n-1}; zero when either side leaves the
        window."""
        if self.lo < n <= self.hi:
            return self.diff[n]
        src = self.rank(n) if self.lo <= n <= self.hi else 0
        dst = self.rank(n - 1) if self.lo <= n - 1 <= self.hi else 0
        return Mat(dst, src)

    def validate(self):
        for n in range(self.lo + 1, self.hi + 1):
            d = self.diff[n]
            if d.rows != self.rank(n - 1) or d.cols != self.rank(n):
                raise InputError("differential %d has shape %dx%d, want "
                                 "%dx%d" % (n, d.rows, d.cols,
                                            self.rank(n - 1),
                                            self.rank(n)))
            if not map_respects_relations(d, self.coeffs[n],
                                          self.coeffs[n - 1]):
                raise InputError("differential %d ignores annihilators"
                                 % n)
        for n in range(self.lo + 2, self.hi + 1):
            square = self.diff[n - 1] * self.diff[n]
            if not square.reduced(self.coeffs[n - 2]).is_zero():
                raise InputError("d.d is nonzero at degree %d" % n)
        return self

    def as_dict(self):
        return {
            "ring": self.ring,
            "window": [self.lo, self.hi],
            "ranks": {str(n): self.rank(n)
                      for n in range(self.lo, self.hi + 1)},
            "coefficients": {str(n): list(self.coeffs[n])
                             for n in range(self.lo, self.hi + 1)},
            "differentials": {str(n): self.diff[n].data
                              for n in range(self.lo + 1, self.hi + 1)},
        }

    def __repr__(self):
        return "ChainComplex(%s, [%d..%d], ranks=%s)" % (
            self.ring, self.lo, self.hi,
            [self.rank(n) for n in range(self.lo, self.hi + 1)])


def free_complex(ring, window, ranks, diff):
    """A complex of free modules given by ranks per degree, checked to
    be a complex."""
    modulus = parse_ring(ring) if isinstance(ring, str) else ring
    coeffs = {n: tuple(0 for _ in range(r)) for n, r in ranks.items()}
    return ChainComplex(modulus, window, coeffs, diff).validate()


# ---------------------------------------------------------------------------
# homology


def homology(C, degrees=None):
    """Per-degree invariant factors, treating the complex as zero outside
    its window."""
    out = {}
    if degrees is None:
        degrees = range(C.lo, C.hi + 1)
    for n in degrees:
        out[n] = homology_at(C, n)
    return out


def cycles_matrix(C, n):
    """Columns generating the lattice {x : d_n x = 0 modulo relations}
    inside the degree-n coordinate module."""
    g = C.rank(n)
    d_n = C.differential(n)
    rel_below = relation_matrix(C.coeffs[n - 1]) if n - 1 >= C.lo else \
        Mat(d_n.rows, 0)
    stacked = d_n.hstack(rel_below) if rel_below.cols else d_n
    K = kernel_basis(stacked)
    zcols = [col[:g] for col in K]
    return from_columns(zcols, g) if zcols else Mat(g, 0)


def boundaries_matrix(C, n):
    """Columns generating boundaries plus relations at degree n."""
    g = C.rank(n)
    d_up = C.differential(n + 1)
    bcols = d_up.columns() + relation_matrix(C.coeffs[n]).columns()
    return from_columns(bcols, g) if bcols else Mat(g, 0)


def homology_at(C, n):
    if C.rank(n) == 0:
        return FGAbGroup([])
    Z = cycles_matrix(C, n)
    B = boundaries_matrix(C, n)
    return FGAbGroup(quotient_invariant_factors(Z, B))


# ---------------------------------------------------------------------------
# simplicial abelian groups


class SimplicialAbGroup:
    """A truncated simplicial object in presented abelian groups; face
    and degeneracy homomorphisms are matrices.  Like ChainComplex, a
    record once normalized, that validate() checks."""

    def __init__(self, ring, truncation, coeffs, face, degen):
        self.modulus = parse_ring(ring) if isinstance(ring, str) else ring
        self.truncation = truncation
        self.coeffs = {n: _normalize_coeffs(coeffs.get(n, ()),
                                            self.modulus)
                       for n in range(truncation + 1)}
        self.face = {k: v.reduced(self.coeffs[k[0] - 1])
                     for k, v in face.items()}
        self.degen = {k: v.reduced(self.coeffs[k[0] + 1])
                      for k, v in degen.items()}

    @property
    def ring(self):
        return ring_name(self.modulus)

    def rank(self, n):
        return len(self.coeffs.get(n, ()))

    def d(self, n, i):
        return self.face[(n, i)]

    def s(self, n, i):
        return self.degen[(n, i)]

    def validate(self):
        D = self.truncation
        if D < 0:
            raise InputError("negative truncation")
        for n in range(1, D + 1):
            for i in range(n + 1):
                F = self.face.get((n, i))
                if F is None or F.rows != self.rank(n - 1) or \
                        F.cols != self.rank(n):
                    raise InputError("face (%d, %d) missing or misshaped"
                                     % (n, i))
                if not map_respects_relations(F, self.coeffs[n],
                                              self.coeffs[n - 1]):
                    raise InputError("face (%d, %d) ignores annihilators"
                                     % (n, i))
        for n in range(D):
            for i in range(n + 1):
                S = self.degen.get((n, i))
                if S is None or S.rows != self.rank(n + 1) or \
                        S.cols != self.rank(n):
                    raise InputError("degeneracy (%d, %d) missing or "
                                     "misshaped" % (n, i))
                if not map_respects_relations(S, self.coeffs[n],
                                              self.coeffs[n + 1]):
                    raise InputError("degeneracy (%d, %d) ignores "
                                     "annihilators" % (n, i))
        eq = maps_equal
        # d_i d_j = d_{j-1} d_i for i < j
        for n in range(2, D + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = self.d(n - 1, i) * self.d(n, j)
                    rhs = self.d(n - 1, j - 1) * self.d(n, i)
                    if not eq(lhs, rhs, self.coeffs[n - 2]):
                        raise InputError(
                            "face identity fails at n=%d i=%d j=%d"
                            % (n, i, j))
        # s_i s_j = s_{j+1} s_i for i <= j
        for n in range(D - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = self.s(n + 1, i) * self.s(n, j)
                    rhs = self.s(n + 1, j + 1) * self.s(n, i)
                    if not eq(lhs, rhs, self.coeffs[n + 2]):
                        raise InputError(
                            "degeneracy identity fails at n=%d i=%d j=%d"
                            % (n, i, j))
        # mixed identities
        for n in range(D):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.d(n + 1, i) * self.s(n, j)
                    if i < j:
                        rhs = self.s(n - 1, j - 1) * self.d(n, i)
                    elif i in (j, j + 1):
                        rhs = Mat.identity(self.rank(n))
                    else:
                        rhs = self.s(n - 1, j) * self.d(n, i - 1)
                    if not eq(lhs, rhs, self.coeffs[n]):
                        raise InputError(
                            "mixed identity fails at n=%d i=%d j=%d"
                            % (n, i, j))
        return self

    def __repr__(self):
        return "SimplicialAbGroup(%s, ranks=%s)" % (
            self.ring, [self.rank(n)
                        for n in range(self.truncation + 1)])


def free_simplicial_abelian_group(X, D, ring="Z"):
    """The levelwise-free simplicial module on the simplices of a
    simplicial set."""
    if D < 0:
        raise InputError("negative truncation")
    X._require_dim(D)
    modulus = parse_ring(ring) if isinstance(ring, str) else ring
    bases = [list(X.simplices(n)) for n in range(D + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in bases]

    def operator_matrix(alpha, n_from, n_to):
        M = Mat(len(bases[n_to]), len(bases[n_from]))
        for j, s in enumerate(bases[n_from]):
            M.data[index[n_to][X.apply(alpha, s)]][j] = 1
        return M

    face = {}
    degen = {}
    for n in range(1, D + 1):
        for i in range(n + 1):
            face[(n, i)] = operator_matrix(
                delta.face(n, i), n, n - 1)
    for n in range(D):
        for i in range(n + 1):
            degen[(n, i)] = operator_matrix(
                delta.degeneracy(n + 1, i), n, n + 1)
    coeffs = {n: tuple(0 for _ in bases[n]) for n in range(D + 1)}
    return SimplicialAbGroup(modulus, D, coeffs, face, degen)


def constant_simplicial_group(coeffs, D, ring="Z"):
    """The constant simplicial module on one presented module."""
    if D < 0:
        raise InputError("negative truncation")
    modulus = parse_ring(ring) if isinstance(ring, str) else ring
    r = len(coeffs)
    face = {(n, i): Mat.identity(r)
            for n in range(1, D + 1) for i in range(n + 1)}
    degen = {(n, i): Mat.identity(r)
             for n in range(D) for i in range(n + 1)}
    return SimplicialAbGroup(modulus, D, {n: tuple(coeffs)
                                          for n in range(D + 1)},
                             face, degen)


# ---------------------------------------------------------------------------
# normalized chains (Moore kernels) and the inverse construction


def normalized_chains(A, return_inclusions=False):
    """The Moore complex: degree n is the intersection of the kernels of
    d_1..d_n, with differential the restriction of d_0.

    Each kernel is re-presented with diagonal annihilators via Smith
    reduction of its relation lattice; inclusion matrices into the
    ambient levels witness the construction."""
    D = A.truncation
    new_coeffs = {}
    inclusions = {}
    for n in range(D + 1):
        g = A.rank(n)
        if n == 0:
            L = Mat.identity(g)
        else:
            blocks = [A.d(n, i) for i in range(1, n + 1)]
            total_rows = sum(b.rows for b in blocks)
            F = Mat(total_rows, g)
            r0 = 0
            for b in blocks:
                for i in range(b.rows):
                    F.data[r0 + i] = list(b.data[i])
                r0 += b.rows
            # relations of the stacked target
            rel_coeffs = []
            for _ in range(n):
                rel_coeffs.extend(A.coeffs[n - 1])
            R_target = relation_matrix(tuple(rel_coeffs))
            stacked = F.hstack(R_target) if R_target.cols else F
            K = kernel_basis(stacked)
            cols = [col[:g] for col in K]
            L = from_columns(cols, g) if cols else Mat(g, 0)
        # present L / (ambient relations) with diagonal annihilators
        R_n = relation_matrix(A.coeffs[n])
        if L.cols == 0:
            new_coeffs[n] = ()
            inclusions[n] = Mat(g, 0)
            continue
        rel_big = preimage_lattice(L, R_n)
        if rel_big is None:
            raise InputError("level relations escape the Moore kernel")
        Dm, _, _, Pinv = smith_normal_form(rel_big, sinv=True)
        gens = L * Pinv
        factors = []
        for i in range(L.cols):
            d = Dm.data[i][i] if i < min(Dm.rows, Dm.cols) else 0
            factors.append(abs(d))
        keep = [i for i, f in enumerate(factors) if f != 1]
        new_coeffs[n] = tuple(factors[i] for i in keep)
        inclusions[n] = from_columns([gens.column(i) for i in keep], g) \
            if keep else Mat(g, 0)
    diff = {}
    for n in range(1, D + 1):
        image = A.d(n, 0) * inclusions[n]
        target_rels = relation_matrix(A.coeffs[n - 1])
        solver = inclusions[n - 1].hstack(target_rels) \
            if target_rels.cols else inclusions[n - 1]
        G = solve_matrix(solver, image)
        if G is None:
            raise InputError("d_0 does not restrict to the Moore complex")
        diff[n] = Mat(len(new_coeffs[n - 1]), len(new_coeffs[n]),
                      G.data[:len(new_coeffs[n - 1])])
    C = ChainComplex(A.modulus, (0, D), new_coeffs, diff)
    if return_inclusions:
        return C, inclusions
    return C


def dold_kan_gamma(C, D, return_layout=False):
    """The simplicial module with level n the direct sum over surjections
    [n] ->> [k] of the degree-k terms.

    The operator action routes a summand eta through the epi-mono
    factorization of eta . alpha: identities act as identities, the face
    missing 0 acts by the differential, all other injections act by
    zero."""
    if C.lo < 0:
        raise InputError("terms in negative degrees")
    if D < 0:
        raise InputError("negative truncation")
    summands = {}
    offsets = {}
    coeffs = {}
    for n in range(D + 1):
        level = []
        for k in range(C.lo, min(n, C.hi) + 1):
            for s in delta.all_surjections(n, k):
                level.append((s, k))
        level.sort(key=lambda t: (t[1], t[0]))
        summands[n] = level
        offs = {}
        pos = 0
        cs = []
        for eta, k in level:
            offs[(eta, k)] = pos
            pos += C.rank(k)
            cs.extend(C.coeffs[k])
        offsets[n] = offs
        coeffs[n] = tuple(cs)

    def structure_matrix(alpha_values, m, n):
        M = Mat(len(coeffs[m]), len(coeffs[n]))
        for eta, k in summands[n]:
            col0 = offsets[n][(eta, k)]
            comp = delta.tcompose(eta, alpha_values)
            epi_vals, image = delta.tfactorize(comp)
            kp = len(image) - 1
            if (epi_vals, kp) not in offsets[m]:
                continue
            row0 = offsets[m][(epi_vals, kp)]
            if kp == k:
                block = Mat.identity(C.rank(k))
            elif kp == k - 1 and image == tuple(range(1, k + 1)):
                block = C.differential(k)
            else:
                continue
            for i in range(block.rows):
                for j in range(block.cols):
                    if block.data[i][j]:
                        M.data[row0 + i][col0 + j] = block.data[i][j]
        return M

    face = {}
    degen = {}
    for n in range(1, D + 1):
        for i in range(n + 1):
            face[(n, i)] = structure_matrix(
                delta.face(n, i), n - 1, n)
    for n in range(D):
        for i in range(n + 1):
            degen[(n, i)] = structure_matrix(
                delta.degeneracy(n + 1, i), n + 1, n)
    A = SimplicialAbGroup(C.modulus, D, coeffs, face, degen)
    if return_layout:
        return A, offsets
    return A


def is_presented_iso(F, src_coeffs, dst_coeffs):
    """Exact isomorphism test for a map of presented modules:
    well-defined, surjective (every target generator hit modulo
    relations), injective (kernel inside the source relations)."""
    if not map_respects_relations(F, src_coeffs, dst_coeffs):
        return False
    R_dst = relation_matrix(dst_coeffs)
    solver = F.hstack(R_dst) if R_dst.cols else F
    if solve_matrix(solver, Mat.identity(len(dst_coeffs))) is None:
        return False
    # kernel of F as a module map
    K = kernel_basis(solver)
    R_src = relation_matrix(src_coeffs)
    for col in K:
        x = col[:len(src_coeffs)]
        if any(x):
            if R_src.cols == 0:
                if any(x):
                    return False
            elif solve_matrix(R_src, from_columns([x], len(src_coeffs))) \
                    is None:
                return False
    return True


def dold_kan_roundtrip(C):
    """Verify that the Moore complex of the surjection-sum construction
    on C is naturally isomorphic to C: build the unit map (inclusion of
    the identity-indexed summand), express it in the Moore presentation,
    and check it is a degreewise isomorphism commuting with the
    differentials.  The Moore complex must also vanish one level above
    the window."""
    levels = C.hi + 1
    A, offsets = dold_kan_gamma(C, levels, return_layout=True)
    N, incl = normalized_chains(A, return_inclusions=True)
    comparison = {}
    for n in range(0, levels + 1):
        rank_c = C.rank(n) if C.lo <= n <= C.hi else 0
        if rank_c == 0:
            # a zero term of C must give a zero Moore term
            if len(N.coeffs.get(n, ())) != 0:
                return False
            comparison[n] = Mat(0, 0)
            continue
        iota = Mat(A.rank(n), rank_c)
        off = offsets[n][(delta.tidentity(n), n)]
        for j in range(rank_c):
            iota.data[off + j][j] = 1
        R_amb = relation_matrix(A.coeffs[n])
        solver = incl[n].hstack(R_amb) if R_amb.cols else incl[n]
        G = solve_matrix(solver, iota)
        if G is None:
            return False
        G = Mat(len(N.coeffs[n]), rank_c, G.data[:len(N.coeffs[n])])
        if not is_presented_iso(G, C.coeffs[n], N.coeffs[n]):
            return False
        comparison[n] = G
    for n in range(1, levels + 1):
        rank_n = C.rank(n) if C.lo <= n <= C.hi else 0
        rank_dn = C.rank(n - 1) if C.lo <= n - 1 <= C.hi else 0
        dC = C.differential(n) if rank_n and rank_dn else \
            Mat(rank_dn, rank_n)
        lhs = N.differential(n) * comparison[n]
        rhs = comparison[n - 1] * dC
        if not maps_equal(lhs, rhs, N.coeffs[n - 1]):
            return False
    return True


# ---------------------------------------------------------------------------
# Kan filling in simplicial groups


def simplicial_group_kan_fill(A, horn_faces, n, k):
    """An explicit filler for a horn in a simplicial module: given
    compatible faces y_i (i != k), produce u with d_i u = y_i for all
    i != k, by the classical two-sweep degeneracy correction."""
    if n < 1 or n > A.truncation:
        raise InputError("horn dimension out of range")
    if not 0 <= k <= n:
        raise InputError("horn index out of range")
    faces = {}
    for i in range(n + 1):
        if i == k:
            continue
        if i not in horn_faces:
            raise InputError("face %d missing from horn data" % i)
        v = tuple(horn_faces[i])
        if len(v) != A.rank(n - 1):
            raise InputError("face %d has wrong length" % i)
        faces[i] = _reduce_vec(v, A.coeffs[n - 1])
    # compatibility: d_i y_j = d_{j-1} y_i for i < j, both != k
    for j in sorted(faces):
        for i in sorted(faces):
            if i >= j:
                continue
            lhs = _reduce_vec(A.d(n - 1, i).apply(list(faces[j])),
                              A.coeffs[n - 2]) if n >= 2 else None
            rhs = _reduce_vec(A.d(n - 1, j - 1).apply(list(faces[i])),
                              A.coeffs[n - 2]) if n >= 2 else None
            if n >= 2 and lhs != rhs:
                raise InputError("horn faces are incompatible at (%d, %d)"
                                 % (i, j))
    u = tuple(0 for _ in range(A.rank(n)))

    def add(vec1, vec2):
        return _reduce_vec([a + b for a, b in zip(vec1, vec2)],
                           A.coeffs[n])

    def correct(u, r, use_index):
        y = faces[r]
        du = _reduce_vec(A.d(n, r).apply(list(u)), A.coeffs[n - 1])
        delta_vec = [a - b for a, b in zip(y, du)]
        lifted = A.s(n - 1, use_index).apply(delta_vec)
        return add(u, lifted)

    for r in range(k):
        u = correct(u, r, r)
    for r in range(n, k, -1):
        u = correct(u, r, r - 1)
    for i in sorted(faces):
        got = _reduce_vec(A.d(n, i).apply(list(u)), A.coeffs[n - 1])
        if got != faces[i]:
            raise InputError("constructed filler fails face %d" % i)
    return u
