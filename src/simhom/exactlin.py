"""Exact rational linear algebra kernel.

Everything downstream (boundary matrices, induced maps, duality operators,
the witness search) reduces to the routines in this module.  All arithmetic
is exact, with no floating point anywhere: elimination works on ``int``
while entries are integral and makes a ``Fraction`` only when dividing by a
pivot leaves a remainder.  Every entry of a vector or dense matrix the
module returns (kernel, image, solve, dense_inv, dense_mul, dense_vec) is a
``fractions.Fraction``.  ``Solver.rref_kernel``, which the homology layer
reads its representatives from, hands out the RREF's own values, and
the matrices' ``apply`` and ``pull`` keep their operands' values, so
``int`` chain maps push ``int`` chains.

Three matrix types.  ``SparseMatrix`` is a dict keyed by (row, col): map
matrices, Betti-sized work and the rows ``Solver`` reduces.
``ColumnMatrix`` holds a chain map, one entry per column.  ``FacetTable``
holds a simplicial boundary d_q as one flat array of facet ids, q + 1 per
column, the sign (-1)^i of slot i implied, and its rows, built once on
first use.  Every reader (``lines`` for ``Solver``, ``ends`` for
``SignedForest``, ``apply``, ``pull`` and their support-only forms) walks
those arrays; a table's ``entries`` is a dict view made on demand for the
tests and the transposed copy ``ChainComplex.coboundary`` makes.

The dense products multiply in ``int`` after scaling each operand by the
lcm of its denominators, and make one Fraction per result entry.

One elimination, ``_rref``, run by one object, ``Solver``: rank, pivot
columns, kernel and image are read off a single reduction, and the
module-level functions of the same names are one-line views on it.
Solving and inversion read the same reduction of an augmented matrix:
``solve`` the RREF of [M | b], ``dense_inv`` that of [A | I].  M^T is
reduced from M's own entries, read by columns (``lines``), so no
transposed copy is made, and ``Reductions`` holds the one reduction of M
and of M^T, each built once, on first use.

A signed graph's incidence matrix needs no elimination: ``Reductions``
reads its RREF off the graph (the tree-cotree decomposition; Eppstein,
"Dynamic generators of topologically embedded graphs", SODA 2003).  Its
entries are +-1 and the lines of one direction, columns or rows, hold at
most two, so each line is an edge between the lines of the other
direction, a one-entry line an edge to ground.  One signed union-find,
``SignedForest``, passes over these edges in order and marks each
component grounded or not, and balanced or not: balanced when signs on its
vertices make every edge +-(e_a - e_b) (Zaslavsky, "Signed graphs",
Discrete Appl. Math. 1982).  With the edges as columns and every component
balanced, the pivot columns are the spanning forest and the kernel vector
of a free column is its signed fundamental cycle.  With the edges as rows,
every column is a pivot but the last of each balanced, ungrounded
component, whose kernel vector is that component's signs.  M's columns are
M^T's rows, so the forest of M's columns gives M's column form and M^T's
row form, and the forest of M's rows the other two.  The RREF is unique,
so these are ``_rref``'s values, as ``int``.  Any other orientation is
left to ``Solver``.  The same routine decides the orientation and the
connectivity of a complex (``complex._analyse``), over d_n's rows, where
``FacetTable.ends`` leaves out a row of more than two entries, a facet
that is no link of the dual graph.

Elimination produces the canonical reduced row echelon form: pivot columns
are chosen left to right, and within the forced pivot column the row with
the fewest nonzero entries wins (Markowitz-style fill control), ties broken
by lowest row index.  An index from each column to the rows holding it
limits the pivot search and the elimination to those rows.  The forward
pass clears a pivot column only from the rows not yet chosen, and one back
substitution, in reverse pivot order, then clears the pivot columns above
each pivot: unlike Gauss-Jordan, no finished pivot row is rewritten at
every later pivot.  Because the RREF itself is canonical, every derived
basis (kernel, image, homology representatives) is reproducible no matter
how the pivot rows were picked or in which order they were reduced.

Linear-programming feasibility reads the equality constraints off the same
reduction of [A | b] that ``solve`` makes, substitutes each pivot
variable's RREF row into the inequalities, and decides what is left by
Fourier-Motzkin elimination over the free variables; the certificate of
feasibility is an explicit rational point.
"""

from array import array
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(v):
    """``v`` as a Fraction: elimination works on ints, callers get Fractions."""
    return v if type(v) is Fraction else Fraction(v)


def qstr(x: Fraction) -> str:
    """Serialize a rational exactly, as ``p`` or ``p/q``."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    Entries are held in a dict keyed by (row, col); zeros are never stored.
    Each entry is an ``int`` or a ``Fraction``.  The constructor, the
    products, sums and scalings store ``Fraction``; a builder that fills
    ``entries`` itself, such as the subdivision chain map with its int
    signs, may store ``int``, and ``transpose``, ``lines``, ``apply`` and
    ``pull`` keep the values they are given.  ``_rref``
    takes int entries as they are.
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
    def identity(cls, n: int):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), ZERO)

    def transpose(self) -> "SparseMatrix":
        """The transpose, each entry keeping its own value."""
        m = SparseMatrix(self.cols, self.rows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def lines(self, by_column=False, only=None):
        """M's rows, or its columns (M^T's rows) when ``by_column``, as dicts
        {index: entry} filled in the order of M's entries; with ``only``,
        just the lines it lists, in its order."""
        out = [{} for _ in range(self.cols if by_column else self.rows)]
        if by_column:
            for (i, j), v in self.entries.items():
                out[j][i] = v
        else:
            for (i, j), v in self.entries.items():
                out[i][j] = v
        return out if only is None else [out[i] for i in only]

    def ends(self, by_column):
        """Each line's (first index, its sign, second index, its sign), or None.

        A line is a column (``by_column``) or a row; an index is the entry's
        row or column.  A missing entry has index -1 and sign 0.  None when an
        entry is not +-1 or a line has more than two entries.
        """
        n = self.cols if by_column else self.rows
        a, av, b, bv = [-1] * n, [0] * n, [-1] * n, [0] * n
        for (i, j), v in self.entries.items():
            if v == 1:  # kept as an int, whatever the entry's type
                v = 1
            elif v == -1:
                v = -1
            else:
                return None
            if not by_column:
                i, j = j, i
            if a[j] < 0:
                a[j], av[j] = i, v
            elif b[j] < 0:
                b[j], bv[j] = i, v
            else:
                return None
        return a, av, b, bv

    def apply(self, vec):
        """Matrix-vector product, vec indexed by columns.

        Accumulated from ``0`` in the operands' own values: ``int`` entries
        on an ``int`` vector give an ``int`` vector.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return tuple(out)

    def pull(self, vec):
        """M^T vec, read off M's entries as ``apply`` reads them."""
        if len(vec) != self.rows:
            raise ValueError("vector length does not match row count")
        out = [0] * self.cols
        for (i, j), v in self.entries.items():
            c = vec[i]
            if c:
                out[j] += v * c
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


class ColumnMatrix:
    """A matrix with at most one entry, an int +-1, per column, kept by
    column: column j holds ``sign[j]`` in row ``row[j]``, or sign 0.

    A simplicial map's chain map is one: a simplex has one image or none.
    ``apply`` pushes a vector forward and ``pull`` pulls one back,
    (M^T c)_j = sign[j] c[row[j]], one product per column and no transposed
    copy, each accumulating in the operands' own values as
    ``SparseMatrix.apply`` does.  ``row`` and ``sign`` are flat arrays, a
    few bytes per column where a SparseMatrix keeps a keyed entry.
    """

    __slots__ = ("rows", "cols", "row", "sign")

    def __init__(self, rows: int, row=(), sign=()):
        self.rows = rows
        self.cols = len(row)
        self.row = row
        self.sign = sign

    def apply(self, vec):
        """M vec; vec is indexed by columns."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for i, s, c in zip(self.row, self.sign, vec):
            if s and c:
                out[i] += s * c
        return tuple(out)

    def pull(self, vec):
        """M^T vec, read off the columns; vec is indexed by rows."""
        if len(vec) != self.rows:
            raise ValueError("vector length does not match row count")
        out = [0] * self.cols
        for j, (i, s) in enumerate(zip(self.row, self.sign)):
            if s and vec[i]:  # an empty column's row may not exist
                out[j] = s * vec[i]
        return tuple(out)


class FacetTable:
    """The matrix of a simplicial boundary d_q, kept as its facets.

    ``facets`` is one flat ``array('i')``: column j holds the ids of its
    ``width`` = q + 1 facets in slot order, ``facets[j * width + i]`` being
    the facet that drops vertex i, and slot i carries the entry (-1)^i,
    which is not stored.  A quotient marks a dropped facet with -1.  That
    is four bytes an entry, where a ``SparseMatrix`` keeps a keyed dict
    entry of about a hundred.

    Only this class reads the layout, and every reader walks the array:
    ``apply``, ``pull``, ``apply_support``, ``pull_support``, ``lines``
    (for ``Solver``), ``ends`` (for ``SignedForest``), ``column``,
    ``restricted`` (a quotient's table), ``row_sizes`` and ``empty_rows``; ``@`` pushes the other matrix's columns through it in
    ``int``.  The rows are ``cofaces``, built once, on first use: per row
    an offset into one array of column ids and one of signs, in column
    order.  ``entries`` is a dict view made on every
    call, for the tests and for the transposed copy
    ``ChainComplex.coboundary`` makes.
    """

    __slots__ = ("rows", "cols", "width", "facets", "full", "_cofaces")

    def __init__(self, rows: int, cols: int, width: int, facets):
        self.rows = rows
        self.cols = cols
        self.width = width
        self.facets = facets
        self.full = -1 not in facets  # no facet dropped
        self._cofaces = None

    def column(self, j):
        """The facet ids of column j in slot order, -1 where one is dropped."""
        w = self.width
        return self.facets[j * w : j * w + w]

    def restricted(self, rows, renumber, columns):
        """The table of ``columns`` alone, in that order, each facet f
        renumbered ``renumber[f]`` (-1 drops it), over ``rows`` rows."""
        facets = array("i", [renumber[f] for j in columns for f in self.column(j)])
        return FacetTable(rows, len(columns), self.width, facets)

    def cofaces(self):
        """The rows, as (start, ids, signs): row r's entries are the
        signs[k] in the columns ids[k], k in range(start[r], start[r + 1]),
        in column order."""
        if self._cofaces is None:
            fac, w = self.facets, self.width
            count = [0] * (self.rows + 1)
            for f in fac:
                count[f + 1] += 1  # a dropped facet counts at 0
            count[0] = 0
            start = array("i", accumulate(count))
            fill = start.tolist()
            ids = array("i", [0]) * start[-1]
            signs = array("b", [1]) * start[-1]
            for p, f in enumerate(fac):
                if f >= 0:
                    k = fill[f]
                    fill[f] = k + 1
                    ids[k] = p // w
                    if p % w & 1:
                        signs[k] = -1
            self._cofaces = start, ids, signs
        return self._cofaces

    def row_sizes(self):
        """The number of entries of each row."""
        start = self.cofaces()[0]
        return [e - k for k, e in zip(start, start[1:])]

    def empty_rows(self):
        """The rows holding no entry, in order."""
        covered = set(self.facets)
        covered.discard(-1)
        if len(covered) == self.rows:
            return []
        return [r for r in range(self.rows) if r not in covered]

    @property
    def entries(self):
        """The dict {(row, col): +-1} of the entries, in column order, made
        anew on every call."""
        w = self.width
        return {(f, p // w): -1 if p % w & 1 else 1 for p, f in enumerate(self.facets) if f >= 0}

    def lines(self, by_column=False, only=None):
        """M's rows, or its columns when ``by_column``, as dicts {index: +-1}
        in index order, as ``SparseMatrix.lines`` gives them; with ``only``,
        just the lines it lists, in its order."""
        w, fac = self.width, self.facets
        if not by_column:
            start, ids, signs = self.cofaces()
            return [
                dict(zip(ids[start[r] : start[r + 1]], signs[start[r] : start[r + 1]]))
                for r in (range(self.rows) if only is None else only)
            ]
        signs = [-1 if i & 1 else 1 for i in range(w)]
        lines = []
        for j in range(self.cols) if only is None else only:
            line = dict(zip(fac[j * w : j * w + w], signs))
            if not self.full:
                line.pop(-1, None)
            lines.append(line)
        return lines

    def ends(self, by_column, skip=False):
        """Each line's (first index, its sign, second index, its sign), or None
        when a line has more than two entries; for rows, ``skip`` leaves such
        a row out, as an empty one, instead.  A missing entry has index -1
        and sign 0.  The values of ``SparseMatrix.ends`` on the same entries:
        a full d_1's columns are two slices."""
        w, fac = self.width, self.facets
        n = self.cols if by_column else self.rows
        if not fac:  # no entry at all
            return [-1] * n, [0] * n, [-1] * n, [0] * n
        if by_column and self.full:
            if w == 2:
                return fac[0::2].tolist(), [1] * n, fac[1::2].tolist(), [-1] * n
            if w > 2:
                return None
        a, av, b, bv = [-1] * n, [0] * n, [-1] * n, [0] * n
        if by_column:
            for j in range(n):
                at = [i for i in range(w) if fac[j * w + i] >= 0]
                if len(at) > 2:
                    return None
                if at:
                    a[j], av[j] = fac[j * w + at[0]], -1 if at[0] & 1 else 1
                if len(at) == 2:
                    b[j], bv[j] = fac[j * w + at[1]], -1 if at[1] & 1 else 1
            return a, av, b, bv
        if not skip and len(fac) > 2 * n and self.full:  # a row holds three
            return None
        start, ids, signs = self.cofaces()
        if start == array("i", range(0, 2 * n + 1, 2)):  # two entries a row
            a, b = ids[0::2].tolist(), ids[1::2].tolist()
            return a, signs[0::2].tolist(), b, signs[1::2].tolist()
        for r in range(n):
            k, e = start[r], start[r + 1]
            if e - k > 2:
                if skip:
                    continue
                return None
            if e > k:
                a[r], av[r] = ids[k], signs[k]
                if e - k == 2:
                    b[r], bv[r] = ids[k + 1], signs[k + 1]
        return a, av, b, bv

    def apply(self, vec):
        """M vec; vec is indexed by columns.  Accumulated from ``0`` in the
        vector's own values, as ``SparseMatrix.apply`` does."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(self.apply_support({j: c for j, c in enumerate(vec) if c}))

    def pull(self, vec):
        """M^T vec, read off the rows; vec is indexed by rows."""
        if len(vec) != self.rows:
            raise ValueError("vector length does not match row count")
        return tuple(self.pull_support({r: c for r, c in enumerate(vec) if c}))

    def apply_support(self, support):
        """M x as a list over the rows, x given by its support {column: value}:
        only those columns are read."""
        w, fac = self.width, self.facets
        out = [0] * self.rows
        for j, c in support.items():
            for i in range(w):
                f = fac[j * w + i]
                if f >= 0:
                    out[f] += -c if i & 1 else c
        return out

    def pull_support(self, support):
        """M^T x as a list over the columns, x given by its support {row:
        value}: only those rows' cofaces are read."""
        start, ids, signs = self.cofaces()
        out = [0] * self.cols
        for r, c in support.items():
            for k in range(start[r], start[r + 1]):
                out[ids[k]] += c if signs[k] > 0 else -c
        return out

    def __matmul__(self, other) -> "SparseMatrix":
        """M B, B's columns pushed through M's facets in ``int``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        w, fac = self.width, self.facets
        ent = {}
        for j, col in enumerate(other.lines(True)):
            out = {}
            for k, c in col.items():
                for i in range(w):
                    f = fac[k * w + i]
                    if f >= 0:
                        out[f] = out.get(f, 0) + (-c if i & 1 else c)
            ent.update(((f, j), v) for f, v in out.items() if v)
        return SparseMatrix(self.rows, other.cols, ent)

    def is_zero(self) -> bool:
        return max(self.facets, default=-1) < 0

    def __eq__(self, other):
        return (
            isinstance(other, (FacetTable, SparseMatrix))
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    __hash__ = None

    # M^T as a new SparseMatrix, and the dense matrix, read off the dict view
    transpose = SparseMatrix.transpose
    to_dense = SparseMatrix.to_dense

    def __repr__(self):
        return f"FacetTable({self.rows}x{self.cols}, width={self.width})"


def _div(v, p):
    """v / p, an ``int`` when both are ints and p divides v."""
    if type(v) is int and type(p) is int:
        q, r = divmod(v, p)
        return Fraction(v, p) if r else q
    return v / p


def _subtract(row, f, other):
    """row -= f * other, on row dicts, dropping the entries that cancel."""
    for j, v in other.items():
        s = row.get(j, 0) - f * v
        if s:
            row[j] = s
        else:
            del row[j]


def _rref(rows, ncols):
    """Reduce a list of row dicts to canonical RREF in place.

    Returns the pivot list of (row, col), in column order.  Pivot columns
    are scanned left to right; the pivot row is the candidate with fewest
    nonzeros, ties by lowest index.

    Forward elimination, then one back substitution.  A row leaves
    ``holders`` when it becomes a pivot row, and the forward pass never
    touches it again: a pivot column is eliminated only from the rows not
    yet chosen.  Then, in reverse pivot order, each pivot row is reduced
    against the later pivot rows, which are already reduced, so each
    subtraction clears one pivot column and adds entries only at free
    columns.

    The result is Gauss-Jordan's value for value, although Gauss-Jordan
    also rewrites every finished pivot row at each later pivot.  A row not
    yet chosen gets the same updates in both: each pivot row eliminates
    its column in the state it had when chosen, and until then it was a
    row not yet chosen.  So the pivot rule picks the same rows, and the
    zero rows are the same.  The RREF rows are unique.

    Integral entries are turned into ``int`` first and the arithmetic stays
    in ``int`` until a division by a non-unit pivot leaves a remainder, so an
    integer matrix whose pivots are units, as boundary matrices' mostly are,
    is reduced without a single ``Fraction``.  ``holders[j]`` is the set of
    unchosen rows with a nonzero in column j, kept up to date through
    fill-in and cancellation, so a column's pivot search and elimination
    visit only those rows.  Rows come back holding ``int`` and
    ``Fraction`` values; ``Solver`` hands out only ``Fraction``.
    """
    if not rows:
        return []
    holders = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            if type(v) is not int and v.denominator == 1:
                row[j] = v.numerator
            holders[j].add(i)
    pivots = []
    for col in range(ncols):
        candidates = holders[col]
        if not candidates:
            continue
        # the fewest nonzeros, ties by lowest index; a lone candidate at once
        it = iter(candidates)
        p = next(it)
        best = len(rows[p])
        for i in it:
            k = len(rows[i])
            if k < best or (k == best and i < p):
                p, best = i, k
        prow = rows[p]
        for j in prow:
            holders[j].discard(p)
        pv = prow[col]
        if pv != 1:
            for j, v in prow.items():
                prow[j] = _div(v, pv)
        for i in list(candidates):
            ri = rows[i]
            f = ri[col]
            for j, v in prow.items():
                s = ri.get(j, 0) - f * v
                if s:
                    if j not in ri:
                        holders[j].add(i)
                    ri[j] = s
                else:
                    del ri[j]
                    holders[j].remove(i)
        pivots.append((p, col))
    pivot_row = {c: r for r, c in pivots}
    for p, col in reversed(pivots):
        prow = rows[p]
        for c in [j for j in prow if j != col and j in pivot_row]:
            _subtract(prow, prow[c], rows[pivot_row[c]])
    return pivots


class Solver:
    """The one elimination of a matrix, and everything read off it.

    ``_rref`` runs once, on M's rows, or with ``transposed`` on M's
    columns, which are M^T's rows; ``image`` and ``solve`` read M itself, so
    they then raise.  Rank, pivot columns, kernel and image all come from
    the same canonical reduction.

    ``basis``, when given, lists rows of the reduced matrix that span its
    row space, and only those rows are reduced.  The RREF depends only on
    the row space (Kaczynski-Mischaikow-Mrozek, Computational Homology,
    2004), so every value read off it is the same; the pivots then index
    ``rref_rows``, not the matrix's rows.  The rows of M^T at the pivot
    columns of M are such a basis of M^T, which is how one reduction of a
    wide matrix gives the tall transpose's RREF from rank(M) rows.
    """

    def __init__(self, m: SparseMatrix, basis=None, transposed=False):
        self.m, self.transposed = m, transposed
        rows = m.lines(transposed, basis)
        self.ncols = m.rows if transposed else m.cols
        self.pivots = _rref(rows, self.ncols)
        self.rref_rows = rows
        self.rank = len(self.pivots)
        self.pivot_cols = [c for (_, c) in self.pivots]

    def free_cols(self):
        """Columns of the canonical RREF without a pivot, in order."""
        pivot_cols = set(self.pivot_cols)
        return [f for f in range(self.ncols) if f not in pivot_cols]

    def kernel(self, free=None):
        """Canonical basis of the null space, one vector per free column.

        ``rref_kernel``'s vectors, with every entry a Fraction.
        """
        return [
            tuple(_fraction(v) if v else ZERO for v in vec)
            for vec in self.rref_kernel(free)
        ]

    def rref_kernel(self, free=None):
        """The canonical kernel vectors in the RREF's own values.

        The vector of free column f has 1 at f and -r[f] at the pivot
        column of each RREF row r, so one pass over the pivot rows fills
        every vector: off its pivot, an RREF row is nonzero only at free
        columns.  Entries are the RREF's own: ``int`` while the elimination
        stayed integral, Fractions once a non-unit pivot left a remainder.
        ``free`` picks some of the free columns, in the order given; all of
        them by default.
        """
        n = self.ncols
        if free is None:
            free = self.free_cols()
        slot = {f: k for k, f in enumerate(free)}
        basis = [[0] * n for _ in free]
        for k, f in enumerate(free):
            basis[k][f] = 1
        for r, c in self.pivots:
            for j, v in self.rref_rows[r].items():
                k = slot.get(j)
                if k is not None:
                    basis[k][c] = -v
        return [tuple(v) for v in basis]

    def rref_entries(self, free):
        """The pivot rows' RREF entries at the free columns ``free``.

        (pivot column, free column, entry) for each nonzero entry there, in
        the RREF's own values.
        """
        want = set(free)
        return [
            (c, j, v) for r, c in self.pivots for j, v in self.rref_rows[r].items() if j in want
        ]

    def image(self):
        """Original columns of M sitting at the RREF pivot positions."""
        if self.transposed:
            raise ValueError("a Solver of M^T has no image read off M")
        slot = {c: k for k, c in enumerate(self.pivot_cols)}
        cols = [[ZERO] * self.m.rows for _ in slot]
        for (i, j), v in self.m.entries.items():
            if j in slot:
                cols[slot[j]][i] = _fraction(v)
        return [tuple(col) for col in cols]

    def solve(self, b):
        """Exact particular solution of M x = b, or None if inconsistent."""
        if self.transposed:
            raise ValueError("a Solver of M^T solves no system of M")
        return solve(self.m, b)


class GraphReduction:
    """The canonical RREF of a signed graph's incidence matrix, read off
    its graph with no elimination.

    Built by ``Reductions``.  It answers what the homology layer reads from
    a ``Solver`` (``pivot_cols``, ``free_cols``, ``rref_kernel`` and
    ``rref_entries``) with the same values and types: every entry of the
    RREF of such a matrix is 0 or an ``int`` +-1.  ``cycle`` maps a free
    column f to the support of its kernel vector, {column: +-1} with 1 at
    f; the RREF entry of f in the row of pivot c is minus its value at c.
    ``forest`` is the ``SignedForest`` of the columns of a column form,
    whose ``joins`` are its pivot columns, and None for a row form.
    """

    def __init__(self, ncols, pivot_cols, cycle, forest=None):
        self.ncols = ncols
        self.pivot_cols = pivot_cols
        self._cycle = cycle
        self.forest = forest

    free_cols = Solver.free_cols

    def rref_kernel(self, free=None):
        if free is None:
            free = self.free_cols()
        basis = []
        for f in free:
            vec = [0] * self.ncols
            for j, v in self._cycle(f).items():
                vec[j] = v
            basis.append(tuple(vec))
        return basis

    def rref_entries(self, free):
        return [(c, f, -v) for f in free for c, v in self._cycle(f).items() if c != f]


def _find(parent, sign, x):
    """Root of x and x's sign relative to it, compressing the path.

    ``sign[x]`` is x's sign relative to ``parent[x]``: a union-find that
    also keeps the parity of each element against its root.  A root's own
    sign is 1.
    """
    root, s = x, 1
    while parent[root] != root:
        s *= sign[root]
        root = parent[root]
    t = s
    while parent[x] != root:
        up, su = parent[x], sign[x]
        parent[x], sign[x] = root, t
        t *= su
        x = up
    return root, s


class SignedForest:
    """One pass of a union-find with signs over ``n`` vertices and the
    edges (a[j], av[j], b[j], bv[j]) of a matrix's ``ends``, in edge order.

    An edge with b[j] = -1 joins a[j] to an implicit ground vertex, and
    one with a[j] = -1 is a loop.  Signs s on the vertices balance an edge
    when s_a av = -s_b bv, and each vertex gets a sign relative to its
    root that balances every edge of the forest.  ``joins`` lists the edges
    that join two components, not both grounded, or ground one: the
    spanning forest of the graph with ground, built greedily in edge
    order.  Per root, ``grounded`` says that an edge reaches ground,
    ``balanced`` that no edge closes a cycle its signs cannot balance, and
    ``last`` is the component's highest vertex.  A non-root keeps the
    flags it had as a root, so all(balanced) says that every component is
    balanced.  ``source`` is the (matrix, by_column) that ``of`` read the
    forest off, and None for a forest of ends given by hand.
    """

    def __init__(self, n, a, av, b, bv):
        self.source = None
        self.ends = a, av, b, bv
        self.parent = parent = list(range(n))
        self.sign = sign = [1] * n
        self.grounded = grounded = [False] * n
        self.balanced = balanced = [True] * n
        self.last = last = list(range(n))
        self.joins = joins = []
        size = [1] * n
        for j in range(len(a) if n else 0):  # with no vertex every edge is a loop
            x, y = a[j], b[j]
            if x < 0:
                continue
            # a root or a root's child, as most vertices are, needs no call
            p = parent[x]
            rx, sx = (p, sign[x]) if parent[p] == p else _find(parent, sign, x)
            if y < 0:
                if not grounded[rx]:
                    grounded[rx] = True
                    joins.append(j)
                continue
            p = parent[y]
            ry, sy = (p, sign[y]) if parent[p] == p else _find(parent, sign, y)
            rel = -av[j] * bv[j]  # s_x s_y on a balanced edge
            if rx == ry:
                if sx * sy != rel:
                    balanced[rx] = False
                continue
            if not (grounded[rx] and grounded[ry]):
                joins.append(j)
            if size[rx] < size[ry]:
                rx, ry = ry, rx
            parent[ry], sign[ry] = rx, rel * sx * sy
            size[rx] += size[ry]
            grounded[rx] |= grounded[ry]
            balanced[rx] &= balanced[ry]
            if last[ry] > last[rx]:
                last[rx] = last[ry]

    @classmethod
    def of(cls, m, by_column):
        """The forest of M's columns (``by_column``) or rows, or None when
        an entry is not +-1 or a line has more than two entries."""
        ends = m.ends(by_column)
        if ends is None:
            return None
        forest = cls(m.rows if by_column else m.cols, *ends)
        forest.source = m, by_column
        return forest

    def flatten(self):
        """Each vertex's root and its sign relative to that root, as two
        lists indexed by vertex: ``parent`` and ``sign`` once every path is
        compressed.  They are the forest's own lists, to be read only."""
        parent, sign = self.parent, self.sign
        for x in range(len(parent)):
            if parent[parent[x]] != parent[x]:
                _find(parent, sign, x)
        return parent, sign


def _column_form(forest):
    """The ``GraphReduction`` of a matrix from the forest of its columns,
    or None when there is none or a component is unbalanced.

    When every component is balanced, signs on the rows make each
    two-entry column +-(e_a - e_b), so the matrix is an incidence matrix up
    to those signs: its pivot columns are the forest's ``joins``, and the
    kernel vector of a free column is its fundamental cycle.  An unbalanced
    cycle makes the matroid non-graphic.
    """
    if forest is None or not all(forest.balanced):
        return None
    a, av, b, bv = forest.ends
    pivot_cols = forest.joins
    nrows = len(forest.parent)
    tree = []  # depth, parent row and parent column of each row; ground last

    def cycle(f):
        if not tree:
            tree.extend(_rooted_forest(nrows, pivot_cols, a, b))
        depth, up, via = tree
        out = {f: 1}
        # walk both ends to where their paths meet, each tree column
        # cancelling the entry left at the row it leaves
        x, rx, y, ry = a[f], av[f], b[f], bv[f]
        while x != y:
            if depth[x] < depth[y]:
                x, rx, y, ry = y, ry, x, rx
            j = via[x]
            here, there = (av[j], bv[j]) if a[j] == x else (bv[j], av[j])
            out[j] = v = -rx * here
            x, rx = up[x], v * there
        return out

    return GraphReduction(len(a), pivot_cols, cycle, forest)


def _rooted_forest(nrows, pivot_cols, a, b):
    """Depth, parent row and parent column of each row in the forest of
    ``pivot_cols``, rooted at ground (index -1, the lists' last slot) and
    elsewhere at each tree's first row."""
    adjacent = [[] for _ in range(nrows + 1)]
    for j in pivot_cols:
        adjacent[a[j]].append((b[j], j))
        adjacent[b[j]].append((a[j], j))
    depth = [-1] * (nrows + 1)
    up = [-1] * (nrows + 1)
    via = [-1] * (nrows + 1)
    for root in (-1, *range(nrows)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        level = [root]
        while level:
            nxt = []
            for x in level:
                for y, j in adjacent[x]:
                    if depth[y] < 0:
                        depth[y], up[y], via[y] = depth[x] + 1, x, j
                        nxt.append(y)
            level = nxt
    return depth, up, via


def _row_form(forest):
    """The ``GraphReduction`` of a matrix from the forest of its rows, or
    None when there is no forest.

    The rows are the edges between the columns.  A kernel vector x
    balances every two-entry row and vanishes where a one-entry row is, so
    on a balanced component without ground it is a multiple of the
    forest's signs, and it is 0 on any other component.  So the last column
    of each balanced, ungrounded component is free, with kernel vector
    s_c s_last on its component, and every other column is a pivot.
    """
    if forest is None:
        return None
    parent, last = forest.parent, forest.last
    n = len(parent)
    ungrounded = (r for r in range(n) if parent[r] == r and not forest.grounded[r])
    free = {last[r] for r in ungrounded if forest.balanced[r]}
    pivot_cols = [c for c in range(n) if c not in free]
    members = {f: [] for f in free}  # free column -> the columns of its component

    def cycle(f):
        if not members[f]:  # the first call fills every component
            root, _ = forest.flatten()
            for c in range(n):
                component = members.get(last[root[c]])
                if component is not None:
                    component.append(c)
        sign = forest.sign  # relative to the root, once flattened
        return {c: sign[c] * sign[f] for c in members[f]}

    return GraphReduction(n, pivot_cols, cycle)


class Reductions:
    """The reductions of M and of M^T, each built once, on first use, from
    M's own entries: ``of(transposed)``.

    A graph orientation is read in its column form off the ``SignedForest``
    of its columns (M's columns, or M's rows for M^T), else in its row form
    off the other forest; each forest is built at most once, and both
    orientations share it.  Any other orientation goes to ``Solver``: the
    wide one (at least as many columns as rows; M when square) in full,
    the tall one on the rank(M) of its rows at the wide one's pivot
    columns, which span its row space.  They go in reverse pivot order:
    the RREF is the same, but the pivot rule's ties then fall on the later
    rows, which on genus-2 Sd^4's d_2 (44063 rows), when it was still
    eliminated, took 0.55 s instead of 13.2 s in ascending order (Python
    3.11, 2-vCPU VM).

    ``forest``, a ``SignedForest`` a caller already holds, stands in for
    one of M's own only when ``of`` read it off this very matrix: its
    ``source`` is checked by identity, and it serves the orientation it
    was built in.  Any other forest is ignored.
    """

    def __init__(self, m, forest=None):
        self.m = m
        self._forests = {}  # by_column -> SignedForest or None
        self._reductions = {}  # transposed -> GraphReduction or Solver
        if forest is not None and forest.source and forest.source[0] is m:
            self._forests[forest.source[1]] = forest

    def _forest(self, by_column):
        if by_column not in self._forests:
            self._forests[by_column] = SignedForest.of(self.m, by_column)
        return self._forests[by_column]

    def of(self, transposed=False):
        """The reduction of M, or of M^T when ``transposed``."""
        red = self._reductions.get(transposed)
        if red is None:
            red = _column_form(self._forest(not transposed)) or _row_form(self._forest(transposed))
            if red is None:
                wide = (self.m.cols >= self.m.rows) != transposed
                basis = None if wide else self.of(not transposed).pivot_cols[::-1]
                red = Solver(self.m, basis, transposed)
            self._reductions[transposed] = red
        return red

    def column_forest(self, transposed=False):
        """The forest whose column form is the reduction of M (of M^T when
        ``transposed``), or None when that reduction is a row form or an
        elimination."""
        red = self.of(transposed)
        return red.forest if isinstance(red, GraphReduction) else None


def rank(m: SparseMatrix) -> int:
    return Solver(m).rank


def pivot_columns(m: SparseMatrix):
    """Columns of the canonical RREF that carry pivots, in order."""
    return Solver(m).pivot_cols


def kernel_basis(m: SparseMatrix):
    return Solver(m).kernel()


def image_basis(m: SparseMatrix):
    return Solver(m).image()


def _reduce_augmented(m: SparseMatrix, b):
    """The ``Solver`` of [M | b], or None when M x = b is inconsistent.

    b is in the column space iff its column, ``m.cols``, gets no pivot.
    The RREF row of pivot c then reads x_c = r[m.cols] - sum of r[j] x_j
    over the free columns j.
    """
    if len(b) != m.rows:
        raise ValueError("rhs length does not match row count")
    n = m.cols
    aug = SparseMatrix(m.rows, n + 1)
    aug.entries.update(m.entries)
    for i, v in enumerate(b):
        if v:
            aug.entries[(i, n)] = _fraction(v)
    s = Solver(aug)
    return None if n in s.pivot_cols else s


def solve(m: SparseMatrix, b):
    """Exact particular solution of M x = b, or None if inconsistent.

    One elimination of [M | b].  With the free variables 0, x at each
    pivot column c is the last entry of the RREF row of pivot c.
    """
    s = _reduce_augmented(m, b)
    if s is None:
        return None
    x = [ZERO] * m.cols
    for r, c in s.pivots:
        x[c] = _fraction(s.rref_rows[r].get(m.cols, ZERO))
    return tuple(x)


# ---------------------------------------------------------------------------
# small dense helpers for Betti-sized matrices (graded maps, pairings)
# ---------------------------------------------------------------------------


def dense_identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def _integral(rows):
    """``rows`` scaled to ``int`` by the lcm s of their denominators, and s."""
    s = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (s // v.denominator) for v in row] for row in rows], s


def dense_mul(a, b):
    """A B of two dense matrices, every entry a Fraction.

    Each operand is scaled to ``int`` by the lcm of its denominators, the
    product is taken in ``int``, and each entry is divided by the two
    scales as it becomes a Fraction.
    """
    inner = len(b)
    if a and len(a[0]) != inner:
        raise ValueError("shape mismatch in dense product")
    (ia, sa), (ib, sb) = _integral(a), _integral(b)
    columns = list(zip(*ib))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), sa * sb) for col in columns) for row in ia
    )


def dense_vec(a, v):
    """A v of a dense matrix and a vector, every entry a Fraction, as ``dense_mul``."""
    (ia, sa), ((iv,), sv) = _integral(a), _integral((v,))
    return tuple(Fraction(sum(map(mul, row, iv)), sa * sv) for row in ia)


def dense_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def dense_inv(a):
    """Exact inverse, or None when singular.

    One elimination of [A | I]: A is singular iff a pivot falls at or past
    column n.  Otherwise the RREF is [I | A^-1], so the right halves of the
    pivot rows, in pivot (column) order, are the rows of the inverse.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    aug = SparseMatrix(n, 2 * n)
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v:
                aug.entries[(i, j)] = _fraction(v)
        aug.entries[(i, n + i)] = ONE
    s = Solver(aug)
    if any(c >= n for c in s.pivot_cols):
        return None
    return tuple(
        tuple(_fraction(s.rref_rows[r].get(n + j, ZERO)) for j in range(n))
        for r, _ in s.pivots
    )


def dense_eq(a, b):
    if len(a) != len(b):
        return False
    return all(tuple(ra) == tuple(rb) for ra, rb in zip(a, b))


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


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
    when the system is infeasible.  The equalities A x = b are reduced
    once, as [A | b] is for ``solve``: the RREF row of each pivot variable
    gives it in terms of the free variables, and substituting those rows
    into the inequalities leaves a system over the free variables alone,
    which Fourier-Motzkin elimination decides.
    """
    eqs = {}  # (row, col) -> coefficient of the equality constraints
    rhs_eq = []
    ineqs = []  # stored as (coeffs list, rhs) meaning coeffs . x <= rhs
    for coeffs, op, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != nvars:
            raise ValueError("constraint arity does not match nvars")
        rhs = Fraction(rhs)
        if op == EQ:
            eqs.update(((len(rhs_eq), j), c) for j, c in enumerate(coeffs) if c)
            rhs_eq.append(rhs)
        elif op == LE:
            ineqs.append((coeffs, rhs))
        elif op == GE:
            ineqs.append(([-c for c in coeffs], -rhs))
        else:
            raise ValueError(f"unknown relation {op!r}")

    s = _reduce_augmented(SparseMatrix(len(rhs_eq), nvars, eqs), rhs_eq)
    if s is None:
        return None
    subs = {c: s.rref_rows[r] for r, c in s.pivots}  # pivot var -> its RREF row
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
                coeffs[v] = ZERO
                for j, e in subs[v].items():
                    if j == nvars:
                        const -= f * e
                    elif j != v:
                        coeffs[j] -= f * e
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
        rest = sum((e * full[j] for j, e in subs[v].items() if j != v and j != nvars), ZERO)
        full[v] = subs[v].get(nvars, ZERO) - rest
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
