"""Exact integer matrix routines: Smith normal form with transforms,
integer linear solving, kernels, and lattice quotients.

Matrices carry their shape explicitly (zero-rank degrees of complexes
make empty matrices routine).  All arithmetic is exact big-integer.
"""

from .errors import InputError


class Mat:
    """A rows x cols integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(r) for r in data]
            if len(self.data) != rows or any(len(r) != cols
                                             for r in self.data):
                raise InputError("matrix data does not match shape "
                                 "%dx%d" % (rows, cols))

    @classmethod
    def identity(cls, n):
        M = cls(n, n)
        for i in range(n):
            M.data[i][i] = 1
        return M

    def copy(self):
        return Mat(self.rows, self.cols, self.data)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise InputError("shape mismatch in product")
            out = Mat(self.rows, other.cols)
            # both factors are mostly zero: walk the nonzero entries only
            support = [[(j, b) for j, b in enumerate(brow) if b]
                       for brow in other.data]
            for row, orow in zip(self.data, out.data):
                for a, bsupp in zip(row, support):
                    if a:
                        for j, b in bsupp:
                            orow[j] += a * b
            return out
        raise TypeError

    def is_zero(self):
        return all(a == 0 for r in self.data for a in r)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def apply(self, vec):
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        return [sum(self.data[i][j] * vec[j] for j in range(self.cols))
                for i in range(self.rows)]

    def hstack(self, other):
        if self.rows != other.rows:
            raise InputError("row mismatch in hstack")
        return Mat(self.rows, self.cols + other.cols,
                   [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def reduced(self, moduli):
        """Rows reduced modulo per-row annihilators (0 = no reduction):
        the matrix itself when every annihilator is 0, a new one
        otherwise.  No caller writes to the result."""
        if len(moduli) != self.rows:
            raise InputError("need one modulus per row")
        if not any(moduli):
            return self
        return Mat(self.rows, self.cols,
                   [[a % m if m else a for a in row]
                    for row, m in zip(self.data, moduli)])


def from_columns(cols, rows):
    M = Mat(rows, len(cols))
    for j, c in enumerate(cols):
        if len(c) != rows:
            raise InputError("column length mismatch")
        for i in range(rows):
            M.data[i][j] = c[i]
    return M


def block_matrix(rows, cols, blocks):
    """The rows x cols matrix holding each block B of (i, j, B) with its
    top-left entry at (i, j), and zeros elsewhere.  A block that does not
    fit is refused: slice assignment would grow the row instead."""
    M = Mat(rows, cols)
    for i, j, B in blocks:
        if i < 0 or j < 0 or i + B.rows > rows or j + B.cols > cols:
            raise InputError("a %dx%d block at (%d, %d) does not fit a "
                             "%dx%d matrix" % (B.rows, B.cols, i, j,
                                               rows, cols))
        for row, brow in zip(M.data[i:], B.data):
            row[j:j + B.cols] = brow
    return M


def relation_matrix(moduli):
    """Columns c_i * e_i for the nonzero annihilators."""
    n = len(moduli)
    return from_columns([[c if k == i else 0 for k in range(n)]
                         for i, c in enumerate(moduli) if c], n)


def solve_modulo(A, moduli, B):
    """X with A X = B modulo the per-row annihilators (0 = none), or
    None: the first A.cols rows of a solution of [A | relations] Y = B."""
    Y = solve_matrix(A.hstack(relation_matrix(moduli)), B)
    if Y is None:
        return None
    return Mat(A.cols, B.cols, Y.data[:A.cols])


def kernel_modulo(A, moduli):
    """Columns generating {x : A x = 0 modulo the per-row annihilators}:
    the first A.cols entries of each kernel column of [A | relations]."""
    K = kernel_basis(A.hstack(relation_matrix(moduli)))
    return from_columns([col[:A.cols] for col in K], A.cols)


def smith_normal_form(A, s=False, t=False, sinv=False):
    """(D, S, T, Sinv) with D = S * A * T diagonal in divisor-chain form
    and S, T unimodular.  Only the transforms asked for (s, t, sinv) are
    built and updated; the others are returned as None.

    The pivot at each step is an entry of least absolute value, first in
    row-major order, so D and every transform do not depend on which
    transforms are asked for.  The scan stops at the first unit, and a
    unit pivot skips the divisibility scan."""
    m, n = A.rows, A.cols
    D = A.copy()
    d = D.data
    S = Mat.identity(m) if s else None
    Sinv = Mat.identity(m) if sinv else None
    T = Mat.identity(n) if t else None
    sd = S.data if s else None
    sid = Sinv.data if sinv else None
    td = T.data if t else None
    # rows and columns before the step index are zero off the diagonal,
    # so the operations on D only touch rows and columns from it on
    k = 0
    while k < min(m, n):
        piv = _pivot(d, k, m)
        if piv is None:
            break
        i, j = piv
        if i != k:
            d[i], d[k] = d[k], d[i]
            if s:
                sd[i], sd[k] = sd[k], sd[i]
            if sinv:
                for r in sid:
                    r[i], r[k] = r[k], r[i]
        if j != k:
            for r in d[k:]:
                r[j], r[k] = r[k], r[j]
            if t:
                for r in td:
                    r[j], r[k] = r[k], r[j]
        # clear the pivot column: row_i -= q * row_k
        dk = d[k]
        p = dk[k]
        support = [(c, dk[c]) for c in range(k, n) if dk[c]]
        dirty = False
        for i in range(k + 1, m):
            di = d[i]
            a = di[k]
            if a:
                q = a // p
                for c, b in support:
                    di[c] -= q * b
                if di[k]:
                    dirty = True
                if s:
                    sd[i] = [x - q * y for x, y in zip(sd[i], sd[k])]
                if sinv:
                    for r in sid:
                        if r[i]:
                            r[k] += q * r[i]
        # clear the pivot row: col_j -= q * col_k
        below = [r for r in d[k:] if r[k]]
        tbelow = [r for r in td if r[k]] if t else None
        for j in range(k + 1, n):
            a = dk[j]
            if a:
                q = a // p
                for r in below:
                    r[j] -= q * r[k]
                if dk[j]:
                    dirty = True
                if t:
                    for r in tbelow:
                        r[j] -= q * r[k]
        if dirty:
            continue
        if p != 1 and p != -1:
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(k + 1, m):
                di = d[i]
                for j in range(k + 1, n):
                    if di[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                # row_k += row_offender
                do = d[offender]
                for c in range(k, n):
                    dk[c] += do[c]
                if s:
                    sd[k] = [x + y for x, y in zip(sd[k], sd[offender])]
                if sinv:
                    for r in sid:
                        r[offender] -= r[k]
                continue
        if p < 0:
            dk[k] = -p
            if s:
                sd[k] = [-x for x in sd[k]]
            if sinv:
                for r in sid:
                    r[k] = -r[k]
        k += 1
    return D, S, T, Sinv


def _pivot(d, k, m):
    """(i, j) of an entry of least absolute value in the block from
    (k, k) on, first in row-major order; None when the block is zero.
    The scan stops at the first row holding a unit."""
    # entries left of column k are zero in these rows
    best = 0
    for i in range(k, m):
        b = min(map(abs, filter(None, d[i])), default=0)
        if b and (not best or b < best):
            best, bi = b, i
            if b == 1:
                break
    if not best:
        return None
    row = d[bi]
    return bi, min(row.index(v) for v in (best, -best) if v in row)


def solve_matrix(A, B):
    """Integer X with A X = B, or None.  Uses D = S A T."""
    D, S, T, _ = smith_normal_form(A, s=True, t=True)
    return _solve(D, S, T, B)


def _solve(D, S, T, B):
    """solve_matrix(A, B) from the Smith form D = S A T."""
    rows, cols = D.rows, D.cols
    if rows != B.rows:
        raise InputError("shape mismatch in solve")
    SB = S * B
    Y = Mat(cols, B.cols)
    r = min(rows, cols)
    for j in range(B.cols):
        for i in range(rows):
            d = D.data[i][i] if i < r else 0
            v = SB.data[i][j]
            if d == 0:
                if v != 0:
                    return None
            else:
                if v % d != 0:
                    return None
                if i < cols:
                    Y.data[i][j] = v // d
    return T * Y


def kernel_basis(A):
    """Columns generating the integer kernel of A."""
    D, _, T, _ = smith_normal_form(A, t=True)
    return _kernel(D, T)


def _kernel(D, T):
    """kernel_basis(A) from the Smith form D = S A T."""
    r = min(D.rows, D.cols)
    free = [j for j in range(D.cols)
            if j >= r or D.data[j][j] == 0]
    return [T.column(j) for j in free]


def preimage_lattice(G, N):
    """Columns spanning {x : G x in span(N)}: the solutions of G X = N
    followed by a kernel basis of G, both read off one Smith form of G.
    None when some column of N is not in the column span of G."""
    if G.rows != N.rows:
        raise InputError("shape mismatch in solve")
    D, S, T, _ = smith_normal_form(G, s=bool(N.cols), t=True)
    if N.cols:
        X = _solve(D, S, T, N)
        if X is None:
            return None
    else:
        X = Mat(G.cols, 0)
    K = _kernel(D, T)
    if X.cols + len(K) == 0:
        return Mat(G.cols, 0)
    return from_columns(X.columns() + K, G.cols)


def quotient_invariant_factors(G, N):
    """Invariant factors of span(G)/span(N) for integer column-span
    lattices with span(N) contained in span(G) inside Z^k.

    Returns the normalized factor list: torsion entries > 1 in divisor
    order, then one 0 per free rank."""
    if G.cols == 0:
        if N.cols and not N.is_zero():
            raise InputError("relations outside the lattice")
        return []
    R = preimage_lattice(G, N)
    if R is None:
        raise InputError("relation lattice is not inside the module "
                         "lattice")
    D = smith_normal_form(R)[0]
    r = min(D.rows, D.cols)
    factors = []
    for i in range(G.cols):
        d = D.data[i][i] if i < r else 0
        factors.append(abs(d))
    return normalize_factors(factors)


def normalize_factors(factors):
    """Drop units, keep torsion in divisor order then zeros (free)."""
    torsion = sorted(f for f in factors if f not in (0, 1))
    zeros = [0] * sum(1 for f in factors if f == 0)
    return torsion + zeros
