"""Simplicial abelian groups, normalized (Moore) chains, the inverse
equivalence built from surjection-indexed summands, homology via Smith
normal form, and the constructive filler for horns in simplicial groups.

Modules are presented with diagonal relations: a term is a direct sum of
cyclic pieces, one annihilator per generator (0 = infinite cyclic).  Over
the ring Z/m every annihilator divides m; the ring Z is modulus 0.
"""

from . import delta
from .errors import InputError
from .intlinalg import (Mat, block_matrix, from_columns, kernel_modulo,
                        preimage_lattice, quotient_invariant_factors,
                        relation_matrix, smith_normal_form, solve_modulo)


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


def maps_equal(F, G, target_coeffs):
    """Whether F and G agree modulo the target's annihilators, one per
    row."""
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

    def __eq__(self, other):
        return (isinstance(other, FGAbGroup)
                and self.invariant_factors == other.invariant_factors)

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
    its window.

    At a degree n where C_n and C_{n-1} carry no annihilators, H_n is
    Z^(g_n - rank d_n - rank d_{n+1}) plus Z/e for each invariant factor
    e > 1 of d_{n+1}: a generator of C_{n+1} with an annihilator has a
    zero image in the free C_n.  Each differential this needs gets one
    Smith form without transforms, shared by the two degrees it touches
    and dropped when the call returns.  Other degrees take the quotient
    of the cycle lattice by the boundary lattice."""
    if degrees is None:
        degrees = range(C.lo, C.hi + 1)
    divisors = {}

    def divisors_of(k):
        # the nonzero diagonal of the Smith form of d_k
        if k not in divisors:
            D = smith_normal_form(C.differential(k))[0]
            diagonal = (D.data[i][i] for i in range(min(D.rows, D.cols)))
            divisors[k] = [e for e in diagonal if e]
        return divisors[k]

    out = {}
    for n in degrees:
        g = C.rank(n)
        if g == 0:
            factors = []
        elif any(C.coeffs[n]) or any(C.coeffs.get(n - 1, ())):
            factors = quotient_invariant_factors(cycles_matrix(C, n),
                                                 boundaries_matrix(C, n))
        else:
            below, above = divisors_of(n), divisors_of(n + 1)
            factors = above + [0] * (g - len(below) - len(above))
        out[n] = FGAbGroup(factors)
    return out


def cycles_matrix(C, n):
    """Columns generating the lattice {x : d_n x = 0 modulo relations}
    inside the degree-n coordinate module."""
    return kernel_modulo(C.differential(n), C.coeffs.get(n - 1, ()))


def boundaries_matrix(C, n):
    """Columns generating boundaries plus relations at degree n."""
    return C.differential(n + 1).hstack(relation_matrix(C.coeffs[n]))


def homology_at(C, n):
    return homology(C, [n])[n]


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
        # a document may list tables outside the truncation; they name
        # no structure map and are dropped
        self.face = {(n, i): v.reduced(self.coeffs[n - 1])
                     for (n, i), v in face.items()
                     if 1 <= n <= truncation and 0 <= i <= n}
        self.degen = {(n, i): v.reduced(self.coeffs[n + 1])
                      for (n, i), v in degen.items()
                      if 0 <= n < truncation and 0 <= i <= n}

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
        # the simplicial identities, each side a product of matrices,
        # compared modulo the annihilators of the level it lands in
        def matrix(word, n):
            if not word:
                return Mat.identity(self.rank(n))
            (is_face, k, i), *inner = word
            out = (self.d if is_face else self.s)(k, i)
            for is_face, k, i in inner:
                out = out * (self.d if is_face else self.s)(k, i)
            return out
        for kind, n, i, j, lhs, rhs in delta.simplicial_identities(D):
            is_face, k, _ = lhs[0]
            target = k - 1 if is_face else k + 1
            if not maps_equal(matrix(lhs, n), matrix(rhs, n),
                              self.coeffs[target]):
                raise InputError("%s identity fails at n=%d i=%d j=%d"
                                 % (kind, n, i, j))
        return self


def free_simplicial_abelian_group(X, D):
    """Z[X]: the levelwise-free simplicial abelian group on the
    simplices of a simplicial set."""
    if D < 0:
        raise InputError("negative truncation")
    X._require_dim(D)
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
    return SimplicialAbGroup(0, D, coeffs, face, degen)


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


def normalized_chains(A):
    """The Moore complex: degree n is the intersection of the kernels of
    d_1..d_n, with differential the restriction of d_0."""
    return _moore_complex(A)[0]


def _moore_complex(A):
    """The Moore complex of A and, by degree, the inclusion matrices of
    its generators into the levels of A.

    Each kernel is re-presented with diagonal annihilators via Smith
    reduction of its relation lattice; the inclusions witness the
    construction."""
    D = A.truncation
    new_coeffs = {}
    inclusions = {}
    for n in range(D + 1):
        g = A.rank(n)
        if n == 0:
            L = Mat.identity(g)
        else:
            h = A.rank(n - 1)
            F = block_matrix(n * h, g, [((i - 1) * h, 0, A.d(n, i))
                                        for i in range(1, n + 1)])
            L = kernel_modulo(F, A.coeffs[n - 1] * n)
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
        inclusions[n] = from_columns([gens.column(i) for i in keep], g)
    diff = {}
    for n in range(1, D + 1):
        diff[n] = solve_modulo(inclusions[n - 1], A.coeffs[n - 1],
                               A.d(n, 0) * inclusions[n])
        if diff[n] is None:
            raise InputError("d_0 does not restrict to the Moore complex")
    return ChainComplex(A.modulus, (0, D), new_coeffs, diff), inclusions


def dold_kan_gamma(C, D):
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
        blocks = []
        for eta, k in summands[n]:
            col0 = offsets[n][(eta, k)]
            comp = delta.tcompose(eta, alpha_values)
            epi_vals, image = delta.tfactorize(comp)
            kp = len(image) - 1
            if (epi_vals, kp) not in offsets[m]:
                continue
            row0 = offsets[m][(epi_vals, kp)]
            if kp == k:
                blocks.append((row0, col0, Mat.identity(C.rank(k))))
            elif kp == k - 1 and image == tuple(range(1, k + 1)):
                blocks.append((row0, col0, C.differential(k)))
        return block_matrix(len(coeffs[m]), len(coeffs[n]), blocks)

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
    return SimplicialAbGroup(C.modulus, D, coeffs, face, degen)


def is_presented_iso(F, src_coeffs, dst_coeffs):
    """Exact isomorphism test for a map of presented modules:
    well-defined, surjective (every target generator hit modulo
    relations), injective (kernel inside the source relations)."""
    if not map_respects_relations(F, src_coeffs, dst_coeffs):
        return False
    if solve_modulo(F, dst_coeffs, Mat.identity(len(dst_coeffs))) is None:
        return False
    # the kernel of F as a module map lies in the source relations
    return kernel_modulo(F, dst_coeffs).reduced(src_coeffs).is_zero()


def dold_kan_roundtrip(C):
    """Verify that the Moore complex of the surjection-sum construction
    on C is naturally isomorphic to C: build the unit map (inclusion of
    the identity-indexed summand), express it in the Moore presentation,
    and check it is a degreewise isomorphism commuting with the
    differentials.  The Moore complex must also vanish one level above
    the window."""
    levels = C.hi + 1
    A = dold_kan_gamma(C, levels)
    N, incl = _moore_complex(A)
    comparison = {}
    for n in range(0, levels + 1):
        rank_c = C.rank(n)
        if rank_c == 0:
            # a zero term of C must give a zero Moore term
            if len(N.coeffs.get(n, ())) != 0:
                return False
            comparison[n] = Mat(0, 0)
            continue
        # a level lists its summands by (k, s), so the identity summand
        # of degree n comes last
        iota = block_matrix(A.rank(n), rank_c,
                            [(A.rank(n) - rank_c, 0, Mat.identity(rank_c))])
        G = solve_modulo(incl[n], A.coeffs[n], iota)
        if G is None or not is_presented_iso(G, C.coeffs[n], N.coeffs[n]):
            return False
        comparison[n] = G
    for n in range(1, levels + 1):
        lhs = N.differential(n) * comparison[n]
        rhs = comparison[n - 1] * C.differential(n)
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
