"""Exact rational linear algebra kernel.

Everything downstream (boundary matrices, induced maps, duality operators,
the witness search) reduces to the routines in this module.  All arithmetic
is over ``fractions.Fraction``; no floating point anywhere.

One elimination, ``_rref``, run by one object, ``Solver``: rank, pivot
columns, kernel, image and solves are read off a single reduction, and the
module-level functions of the same names are one-line views on it.
``dense_inv`` reads the inverse from the same reduction's transform.

Elimination produces the canonical reduced row echelon form: pivot columns
are chosen left to right, and within the forced pivot column the row with
the fewest nonzero entries wins (Markowitz-style fill control), ties broken
by lowest row index.  Because the RREF itself is canonical, every derived
basis (kernel, image, homology representatives) is reproducible no matter
how the pivot rows were picked.

Linear-programming feasibility is decided by exact Gaussian elimination of
the equality constraints followed by Fourier-Motzkin elimination of the
inequality system; the certificate of feasibility is an explicit rational
point.
"""

from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def qstr(x: Fraction) -> str:
    """Serialize a rational exactly, as ``p`` or ``p/q``."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    Entries are held in a dict keyed by (row, col); zeros are never stored.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of range")
                v = Fraction(v)
                if v != 0:
                    self.entries[(i, j)] = v

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ent = {}
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    ent[(i, j)] = Fraction(v)
        return cls(rows, cols, ent)

    @classmethod
    def from_columns(cls, columns, rows: int):
        ent = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    ent[(i, j)] = Fraction(v)
        return cls(rows, len(columns), ent)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), ZERO)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def apply(self, vec):
        """Matrix-vector product, vec indexed by columns."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [ZERO] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return tuple(out)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows_of_other = {}
        for (i, j), v in other.entries.items():
            rows_of_other.setdefault(i, []).append((j, v))
        ent = {}
        for (i, k), a in self.entries.items():
            for j, b in rows_of_other.get(k, ()):
                key = (i, j)
                s = ent.get(key, ZERO) + a * b
                if s:
                    ent[key] = s
                elif key in ent:
                    del ent[key]
        return SparseMatrix(self.rows, other.cols, ent)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        ent = dict(self.entries)
        for key, v in other.entries.items():
            s = ent.get(key, ZERO) + v
            if s:
                ent[key] = s
            elif key in ent:
                del ent[key]
        return SparseMatrix(self.rows, self.cols, ent)

    def scale(self, c) -> "SparseMatrix":
        c = Fraction(c)
        if c == 0:
            return SparseMatrix(self.rows, self.cols)
        return SparseMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def to_dense(self):
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def _row_dicts(m: SparseMatrix):
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _rref(rows, ncols, transform=False, nrows=None):
    """Reduce a list of row dicts to canonical RREF in place.

    Returns (pivot list of (row, col), transform rows or None).  Pivot
    columns are scanned left to right; the pivot row is the candidate with
    fewest nonzeros, ties by lowest index.
    """
    if nrows is None:
        nrows = len(rows)
    tr = [{i: ONE} for i in range(nrows)] if transform else None
    pivots = []
    used = set()
    for col in range(ncols):
        best = None
        for i in range(nrows):
            if i in used:
                continue
            v = rows[i].get(col)
            if v:
                key = (len(rows[i]), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        p = best[1]
        used.add(p)
        pv = rows[p][col]
        if pv != 1:
            rows[p] = {j: v / pv for j, v in rows[p].items()}
            if transform:
                tr[p] = {j: v / pv for j, v in tr[p].items()}
        prow = rows[p]
        for i in range(nrows):
            if i == p:
                continue
            f = rows[i].get(col)
            if not f:
                continue
            ri = rows[i]
            for j, v in prow.items():
                s = ri.get(j, ZERO) - f * v
                if s:
                    ri[j] = s
                elif j in ri:
                    del ri[j]
            if transform:
                ti = tr[i]
                for j, v in tr[p].items():
                    s = ti.get(j, ZERO) - f * v
                    if s:
                        ti[j] = s
                    elif j in ti:
                        del ti[j]
        pivots.append((p, col))
    return pivots, tr


class Solver:
    """The one elimination of a matrix, and everything read off it.

    ``_rref`` runs once; the transform is kept only when the solver will
    solve, so repeated ``solve`` calls (class extraction does many) cost
    only a sparse substitution each.  Rank, pivot columns, kernel and image
    all come from the same canonical reduction.
    """

    def __init__(self, m: SparseMatrix, transform=True):
        self.m = m
        rows = _row_dicts(m)
        self.pivots, self.transform = _rref(rows, m.cols, transform=transform)
        self.rref_rows = rows
        self.rank = len(self.pivots)
        self.pivot_cols = [c for (_, c) in self.pivots]
        pivot_rows = {r for (r, _) in self.pivots}
        self.zero_rows = [i for i in range(m.rows) if i not in pivot_rows]

    def kernel(self):
        """Canonical basis of the null space, one vector per free column."""
        pivot_cols = set(self.pivot_cols)
        basis = []
        for f in range(self.m.cols):
            if f in pivot_cols:
                continue
            v = [ZERO] * self.m.cols
            v[f] = ONE
            for (r, c) in self.pivots:
                coeff = self.rref_rows[r].get(f)
                if coeff:
                    v[c] = -coeff
            basis.append(tuple(v))
        return basis

    def image(self):
        """Original columns of M sitting at the RREF pivot positions."""
        slot = {c: k for k, c in enumerate(self.pivot_cols)}
        cols = [[ZERO] * self.m.rows for _ in slot]
        for (i, j), v in self.m.entries.items():
            if j in slot:
                cols[slot[j]][i] = v
        return [tuple(col) for col in cols]

    def solve(self, b):
        """Exact particular solution of M x = b, or None if inconsistent."""
        if len(b) != self.m.rows:
            raise ValueError("rhs length does not match row count")
        c = []
        for i in range(self.m.rows):
            s = ZERO
            for j, v in self.transform[i].items():
                if b[j]:
                    s += v * b[j]
            c.append(s)
        for i in self.zero_rows:
            if c[i] != 0:
                return None
        x = [ZERO] * self.m.cols
        for (r, col) in self.pivots:
            # RREF row r reads: x[col] + sum(free terms) = c[r]; free vars are 0.
            x[col] = c[r]
        return tuple(x)


def rank(m: SparseMatrix) -> int:
    return Solver(m, transform=False).rank


def pivot_columns(m: SparseMatrix):
    """Columns of the canonical RREF that carry pivots, in order."""
    return Solver(m, transform=False).pivot_cols


def kernel_basis(m: SparseMatrix):
    return Solver(m, transform=False).kernel()


def image_basis(m: SparseMatrix):
    return Solver(m, transform=False).image()


def solve(m: SparseMatrix, b):
    """One-shot exact solve; returns a particular solution or None."""
    return Solver(m).solve(b)


# ---------------------------------------------------------------------------
# small dense helpers for Betti-sized matrices (graded maps, pairings)
# ---------------------------------------------------------------------------


def dense_identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def dense_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    if a and len(a[0]) != inner:
        raise ValueError("shape mismatch in dense product")
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(inner)), ZERO)
            for j in range(cols)
        )
        for i in range(rows)
    )


def dense_vec(a, v):
    return tuple(
        sum((a[i][k] * v[k] for k in range(len(v))), ZERO) for i in range(len(a))
    )


def dense_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def dense_inv(a):
    """Exact inverse, or None when singular.

    One ``Solver`` elimination of ``a``: the RREF of an invertible matrix is
    a row permutation of the identity, so the transform row of the pivot in
    column c is row c of the inverse (pivots come in column order).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    s = Solver(SparseMatrix.from_dense(a))
    if s.rank < n:
        return None
    return tuple(tuple(s.transform[r].get(j, ZERO) for j in range(n)) for r, _ in s.pivots)


def dense_eq(a, b):
    if len(a) != len(b):
        return False
    return all(tuple(ra) == tuple(rb) for ra, rb in zip(a, b))


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vec_is_zero(v):
    return all(a == 0 for a in v)


# ---------------------------------------------------------------------------
# exact linear programming feasibility
# ---------------------------------------------------------------------------

LE = "<="
GE = ">="
EQ = "=="


def lp_feasible(constraints, nvars: int):
    """Exact feasibility for a finite rational constraint system.

    ``constraints`` is a list of (coeffs, op, rhs) with op one of "<=",
    ">=", "==".  Returns a feasible point as a tuple of Fractions, or None
    when the system is infeasible.  Equalities are eliminated by exact
    Gaussian substitution, the residual inequalities by Fourier-Motzkin.
    """
    eqs = []
    ineqs = []  # stored as (coeffs list, rhs) meaning coeffs . x <= rhs
    for coeffs, op, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != nvars:
            raise ValueError("constraint arity does not match nvars")
        rhs = Fraction(rhs)
        if op == EQ:
            eqs.append((coeffs, rhs))
        elif op == LE:
            ineqs.append((coeffs, rhs))
        elif op == GE:
            ineqs.append(([-c for c in coeffs], -rhs))
        else:
            raise ValueError(f"unknown relation {op!r}")

    # Eliminate equalities: substitution map pivot var -> affine expr in the rest.
    subs = {}  # var -> (coeffs over all vars with zeros at solved vars, const)
    for coeffs, rhs in eqs:
        coeffs = list(coeffs)
        const = rhs
        for v, (expr, c0) in subs.items():
            f = coeffs[v]
            if f:
                coeffs[v] = ZERO
                for j in range(nvars):
                    coeffs[j] += f * expr[j]
                const -= f * c0
        pivot = None
        for j in range(nvars):
            if coeffs[j] and j not in subs:
                pivot = j
                break
        if pivot is None:
            if const != 0:
                return None
            continue
        pv = coeffs[pivot]
        expr = [-c / pv if j != pivot else ZERO for j, c in enumerate(coeffs)]
        c0 = const / pv
        # Re-normalize previous substitutions against the new one.
        for v, (e, k) in list(subs.items()):
            f = e[pivot]
            if f:
                e = list(e)
                e[pivot] = ZERO
                for j in range(nvars):
                    e[j] += f * expr[j]
                subs[v] = (e, k + f * c0)
        subs[pivot] = (expr, c0)

    solved = sorted(subs)
    free = [j for j in range(nvars) if j not in subs]
    index = {v: k for k, v in enumerate(free)}

    reduced = []  # rows over free vars: (coeffs, rhs)
    for coeffs, rhs in ineqs:
        coeffs = list(coeffs)
        const = rhs
        for v in solved:
            f = coeffs[v]
            if f:
                expr, c0 = subs[v]
                coeffs[v] = ZERO
                for j in range(nvars):
                    coeffs[j] += f * expr[j]
                const -= f * c0
        row = [ZERO] * len(free)
        for j in range(nvars):
            if coeffs[j]:
                row[index[j]] = coeffs[j]
        reduced.append((row, const))

    point = _fourier_motzkin(reduced, len(free))
    if point is None:
        return None

    full = [ZERO] * nvars
    for k, v in enumerate(free):
        full[v] = point[k]
    for v in solved:
        expr, c0 = subs[v]
        full[v] = c0 + sum((expr[j] * full[j] for j in range(nvars)), ZERO)
    return tuple(full)


def _fourier_motzkin(rows, nvars):
    """Feasible point of a pure <= system, or None."""
    if nvars == 0:
        for _, rhs in rows:
            if rhs < 0:
                return None
        return ()
    systems = [rows]
    for k in range(nvars - 1, -1, -1):
        nxt = []
        cur = systems[-1]
        lowers = []
        uppers = []
        for coeffs, rhs in cur:
            c = coeffs[k]
            if c == 0:
                nxt.append((coeffs, rhs))
            elif c > 0:
                uppers.append(([v / c for v in coeffs], rhs / c))
            else:
                lowers.append(([v / c for v in coeffs], rhs / c))
        for lo_c, lo_r in lowers:  # x_k >= lo_r - sum
            for up_c, up_r in uppers:  # x_k <= up_r - sum
                coeffs = [up - lo for up, lo in zip(up_c, lo_c)]
                coeffs[k] = ZERO
                nxt.append((coeffs, up_r - lo_r))
        systems.append(nxt)
    # Last system has no variables left with nonzero support below index 0.
    for coeffs, rhs in systems[-1]:
        if all(c == 0 for c in coeffs) and rhs < 0:
            return None
    point = [ZERO] * nvars
    # Back-substitute from x_0 up, reading bounds off the saved systems.
    for k in range(nvars):
        cur = systems[nvars - 1 - k]
        lo = None
        hi = None
        for coeffs, rhs in cur:
            c = coeffs[k]
            if c == 0:
                if all(x == 0 for x in coeffs) and rhs < 0:
                    return None
                continue
            rest = sum((coeffs[j] * point[j] for j in range(k)), ZERO)
            bound = (rhs - rest) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            point[k] = lo
        elif hi is not None:
            point[k] = hi if hi < 0 else ZERO
    return tuple(point)
