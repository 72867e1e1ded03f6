"""Exact linear algebra over the rationals and prime fields.

Everything downstream (representations, hom spaces, endomorphism rings)
reduces to row reduction of exact matrices.  Scalars are
``fractions.Fraction`` by default; rank/kernel-type operations also work
over a prime field GF(p).  All values are immutable and all operations
are pure, so concurrent reads are safe.

Every elimination (``rref``, ``kernel_basis``, ``solve``, ``invert``,
``Mat.rank`` and, through the kernel, ``intersect``) runs one sparse
Gauss-Jordan kernel, ``_eliminate``.  Its rows are dicts ``column ->
nonzero``.  Rows are folded in one at a time: each is reduced against the
pivot rows found so far, which are kept fully reduced, and its smallest
column becomes its pivot, so the pivot rows sorted by pivot are exactly
the canonical reduced row echelon form.  A column -> pivot-row index
limits back-substitution to the rows that hold the new pivot column, so
the work follows the nonzeros rather than rows x columns.  Inside the
kernel, integral rationals are plain ``int`` (a pivot other than +-1 is
inverted as ``Fraction(1, pivot)``) and GF(p) elements are their
residues mod p; values are converted back at the boundary, so callers
see ``Fraction`` over the rationals and ``GFElement`` over GF(p).
``sparse_kernel`` is the entry point for systems that are sparse from the
start (the hom systems): it takes and returns dicts of field scalars, so
no dense row is ever built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction


class LinalgError(ValueError):
    pass


def scalar_to_str(x) -> str:
    """Serialize a scalar as "p/q", or "p" when the denominator is 1."""
    if isinstance(x, GFElement):
        return str(x.value)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    return Fraction(s)


class GFElement:
    """An element of the prime field GF(p).

    Supports the arithmetic the row-reduction routines need; anything
    requiring characteristic zero (trace-form radicals) must reject
    these.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise LinalgError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise LinalgError(f"denominator divisible by {self.p}")
            return GFElement(other.numerator * pow(other.denominator, -1, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return GFElement(self.value + other.value, self.p) if other is not NotImplemented else other

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return GFElement(self.value - other.value, self.p) if other is not NotImplemented else other

    def __rsub__(self, other):
        other = self._coerce(other)
        return GFElement(other.value - self.value, self.p) if other is not NotImplemented else other

    def __mul__(self, other):
        other = self._coerce(other)
        return GFElement(self.value * other.value, self.p) if other is not NotImplemented else other

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.value:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, (int, Fraction)):
            coerced = self._coerce(other)
            return self.value == coerced.value
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


class RationalField:
    characteristic = 0
    name = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        if isinstance(v, str):
            return Fraction(v)
        return Fraction(v)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    name_prefix = "fp"

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise LinalgError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)
        self.name = f"fp:{p}"

    def of(self, v) -> GFElement:
        if isinstance(v, GFElement):
            if v.p != self.p:
                raise LinalgError("wrong characteristic")
            return v
        if isinstance(v, str):
            v = Fraction(v)
        if isinstance(v, Fraction):
            return GFElement(v.numerator * pow(v.denominator, -1, self.p), self.p)
        return GFElement(int(v), self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field flag: "q" for the rationals, "fp:<p>" for GF(p)."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise LinalgError(f"unknown field {name!r}")


class Mat:
    """Immutable dense matrix with exact entries.

    Entries are Fractions (or GFElements); rows are stored as tuples.
    Zero-row and zero-column shapes are allowed.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, entries: Iterable[Iterable], rows: int | None = None, cols: int | None = None):
        ent = tuple(tuple(r) for r in entries)
        if rows is None:
            rows = len(ent)
        if cols is None:
            cols = len(ent[0]) if ent else 0
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise LinalgError("ragged or mis-shaped entry grid")
        self.rows = rows
        self.cols = cols
        self.entries = ent
        self._hash = None

    @classmethod
    def zeros(cls, rows: int, cols: int, field=QQ) -> "Mat":
        z = field.zero
        return cls([[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        z, o = field.zero, field.one
        return cls([[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ncols: int | None = None) -> "Mat":
        rows = [list(r) for r in rows]
        if not rows and ncols is None:
            raise LinalgError("column count needed for empty matrix")
        return cls(rows, len(rows), ncols if ncols is not None else len(rows[0]))

    @classmethod
    def column(cls, vec: Sequence) -> "Mat":
        return cls([[v] for v in vec], len(vec), 1)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "Mat":
        return Mat([self.col(j) for j in range(self.cols)], self.cols, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} + {other.shape}")
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} - {other.shape}")
        return Mat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.entries], self.rows, self.cols)

    def scale(self, c) -> "Mat":
        return Mat([[c * a for a in r] for r in self.entries], self.rows, self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch {self.shape} @ {other.shape}")
        # skip zero terms; the matrices around here are mostly sparse
        out = [[None] * other.cols for _ in range(self.rows)]
        oent = other.entries
        zero = _zero_like(self, other)
        for i, arow in enumerate(self.entries):
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = oent[k]
                    acc = [s + a * b if b else s for s, b in zip(acc, brow)]
            out[i] = acc
        return Mat(out, self.rows, other.cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        zero = _zero_like(self)
        out = []
        for row in self.entries:
            s = zero
            for a, v in zip(row, vec):
                if a and v:
                    s = s + a * v
            out.append(s)
        return tuple(out)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinalgError("row count mismatch in hstack")
        return Mat(
            [ra + rb for ra, rb in zip(self.entries, other.entries)],
            self.rows,
            self.cols + other.cols,
        )

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LinalgError("column count mismatch in vstack")
        return Mat(self.entries + other.entries, self.rows + other.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.entries)

    def rank(self) -> int:
        zero = _zero_like(self)
        return len(_eliminate(_sparse_rows(self.entries, zero), _modulus(zero)))

    def trace(self):
        if self.rows != self.cols:
            raise LinalgError("trace of non-square matrix")
        if self.rows == 0:
            return Fraction(0)
        s = self.entries[0][0]
        for i in range(1, self.rows):
            s = s + self.entries[i][i]
        return s

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(scalar_to_str(a) for a in r) for r in self.entries)
        return f"Mat[{body}]"


def _zero_like(*mats: Mat):
    for m in mats:
        for row in m.entries:
            for a in row:
                if isinstance(a, GFElement):
                    return GFElement(0, a.p)
                return Fraction(0)
    return Fraction(0)


# -- the elimination kernel ----------------------------------------------------
# Kernel values: ints or Fractions over the rationals (modulus 0), residues
# mod p over GF(p).  ``zero`` (the field's zero scalar) names the field at
# the boundary.


def _modulus(zero) -> int:
    return zero.p if isinstance(zero, GFElement) else 0


def _raw_row(items: Iterable[tuple], zero) -> dict:
    """The kernel row of ``(column, scalar)`` pairs; zero scalars are dropped."""
    if isinstance(zero, GFElement):
        return {j: (x if isinstance(x, GFElement) else zero + x).value for j, x in items if x}
    return {j: x.numerator if x.denominator == 1 else x for j, x in items if x}


def _scalar(x, zero):
    """The field scalar of a kernel value (the inverse of ``_raw_row``)."""
    if isinstance(zero, GFElement):
        return GFElement(x, zero.p)
    return x if isinstance(x, Fraction) else Fraction(x)


def _sparse_rows(vectors: Iterable[Sequence], zero) -> list[dict]:
    return [_raw_row(enumerate(vec), zero) for vec in vectors]


def _dense(row: dict, ncols: int, zero) -> list:
    out = [zero] * ncols
    for j, x in row.items():
        out[j] = _scalar(x, zero)
    return out


def _subtract(dst: dict, f, src: dict, skip: int, p: int, holders=None, owner=None):
    """dst -= f * src on the columns of src other than ``skip``.

    With ``holders``, keep the column index of the pivot row ``owner``
    (which is ``dst``) up to date.
    """
    for j, v in src.items():
        if j == skip:
            continue
        old = dst.get(j)
        if old is None:
            # f and v are nonzero field elements, so their product is too
            dst[j] = -f * v % p if p else -f * v
            if holders is not None:
                holders.setdefault(j, set()).add(owner)
            continue
        x = old - f * v
        if p:
            x %= p
        if x:
            dst[j] = x
        else:
            del dst[j]
            if holders is not None:
                holders[j].discard(owner)


def _eliminate(rows: Iterable[dict], p: int) -> dict[int, dict]:
    """Reduced row echelon form of sparse kernel rows (which it consumes).

    Returns ``{pivot column: row}``.  Each row has a 1 at its pivot, its
    smallest column, and no entry at any other pivot column; sorted by
    pivot, the rows are the canonical RREF of the row space.
    """
    reduced: dict[int, dict] = {}
    holders: dict[int, set] = {}  # column -> pivots of the rows with an entry there
    for row in rows:
        # pivot rows vanish on each other's pivots, so one pass clears them all
        for c in [c for c in row if c in reduced]:
            _subtract(row, row.pop(c), reduced[c], c, p)
        if not row:
            continue
        piv = min(row)
        pv = row[piv]
        if pv != 1:
            if p:
                inv = pow(pv, -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            else:
                inv = -1 if pv == -1 else Fraction(1, pv)
                row = {j: v * inv for j, v in row.items()}
        for q in holders.pop(piv, ()):
            target = reduced[q]
            _subtract(target, target.pop(piv), row, piv, p, holders, q)
        reduced[piv] = row
        for j in row:
            if j != piv:
                holders.setdefault(j, set()).add(piv)
    return reduced


def _sorted_rows(reduced: dict[int, dict]) -> list[dict]:
    return [reduced[c] for c in sorted(reduced)]


def _kernel_rows(rows: Iterable[dict], ncols: int, p: int) -> list[dict]:
    """The right kernel of sparse kernel rows, as the RREF rows of its canonical basis."""
    reduced = _eliminate(rows, p)
    free = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for q, row in reduced.items():
        for j, v in row.items():
            if j != q:
                free[j][q] = -v % p if p else -v
    return _sorted_rows(_eliminate(free.values(), p))


def sparse_kernel(equations: Iterable[dict], ncols: int, field) -> list[dict]:
    """The right kernel of sparse equations ``{column: scalar}`` over ``field``.

    Zero entries and empty equations are allowed.  Returns the canonical
    basis (the RREF rows of the kernel) as dicts ``{column: nonzero scalar}``.
    """
    zero = field.zero
    rows = [_raw_row(eq.items(), zero) for eq in equations]
    return [{j: _scalar(x, zero) for j, x in vec.items()} for vec in _kernel_rows(rows, ncols, _modulus(zero))]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    zero = _zero_like(m)
    reduced = _eliminate(_sparse_rows(m.entries, zero), _modulus(zero))
    pivots = sorted(reduced)
    rows = [_dense(reduced[c], m.cols, zero) for c in pivots]
    rows += [[zero] * m.cols for _ in range(m.rows - len(pivots))]
    return Mat(rows, m.rows, m.cols), pivots


def kernel_basis(m: Mat, field=None) -> "Subspace":
    """Basis of the right kernel {x : m @ x = 0}.

    ``field`` fixes the scalars when ``m`` has no entries to tell them.
    """
    zero = field.zero if field is not None else _zero_like(m)
    vecs = _kernel_rows(_sparse_rows(m.entries, zero), m.cols, _modulus(zero))
    return Subspace._from_rref(m.cols, vecs, zero)


def invert(m: Mat) -> Mat | None:
    """The exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise LinalgError("inverse of non-square matrix")
    n = m.rows
    if n == 0:
        return m
    zero = _zero_like(m)
    rows = _sparse_rows(m.entries, zero)
    for i, row in enumerate(rows):
        row[n + i] = 1
    reduced = _eliminate(rows, _modulus(zero))
    # [m | 1] always has rank n; m is invertible iff no pivot lies in the identity half
    if max(reduced) >= n:
        return None
    return Mat(
        [_dense({j - n: x for j, x in reduced[i].items() if j >= n}, n, zero) for i in range(n)], n, n
    )


def solve(m: Mat, b: Sequence) -> tuple | None:
    """Some particular solution of m @ x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise LinalgError("right-hand side length mismatch")
    zero = _zero_like(m, Mat.column(b))
    rows = _sparse_rows([(*r, bv) for r, bv in zip(m.entries, b)], zero)
    reduced = _eliminate(rows, _modulus(zero))
    if m.cols in reduced:
        return None
    x = [zero] * m.cols
    for c, row in reduced.items():
        if m.cols in row:
            x[c] = _scalar(row[m.cols], zero)
    return tuple(x)


class Subspace:
    """A linear subspace of K^n, held as a canonical column basis.

    The basis matrix is normalized so that its transpose is in reduced
    row echelon form; two subspaces are equal iff their canonical bases
    coincide, which gives a deterministic normal form for comparisons.
    """

    __slots__ = ("ambient_dim", "basis", "_hash")

    def __init__(self, ambient_dim: int, basis: Mat):
        if basis.rows != ambient_dim:
            raise LinalgError("basis rows must equal ambient dimension")
        zero = _zero_like(basis)
        reduced = _eliminate(_sparse_rows(zip(*basis.entries), zero), _modulus(zero))
        self._set(ambient_dim, _sorted_rows(reduced), zero)

    @classmethod
    def _from_rref(cls, ambient_dim: int, rows: list[dict], zero) -> "Subspace":
        """The subspace whose canonical basis has these (kernel-value) RREF rows."""
        sub = cls.__new__(cls)
        sub._set(ambient_dim, rows, zero)
        return sub

    def _set(self, ambient_dim: int, rows: list[dict], zero):
        grid = [[zero] * len(rows) for _ in range(ambient_dim)]
        for k, row in enumerate(rows):
            for i, x in row.items():
                grid[i][k] = _scalar(x, zero)
        self.ambient_dim = ambient_dim
        self.basis = Mat(grid, ambient_dim, len(rows))
        self._hash = None

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat([[] for _ in range(ambient_dim)], ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int, field=QQ) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim, field))

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if not vecs:
            return cls.zero(ambient_dim)
        cols = Mat([[v[i] for v in vecs] for i in range(ambient_dim)], ambient_dim, len(vecs))
        return cls(ambient_dim, cols)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self) -> list[tuple]:
        return [self.basis.col(j) for j in range(self.basis.cols)]

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        if not any(vec):
            return True
        if self.dim == 0:
            return False
        return solve(self.basis, vec) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        return all(self.contains(v) for v in other.vectors())

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        return Subspace(self.ambient_dim, self.basis.hstack(other.basis))

    def image(self, m: Mat) -> "Subspace":
        """The image of this subspace under the linear map m."""
        if m.cols != self.ambient_dim:
            raise LinalgError("map domain mismatch")
        return Subspace(m.rows, m @ self.basis)

    def preimage(self, m: Mat) -> "Subspace":
        """{x : m @ x lies in this subspace}."""
        if m.rows != self.ambient_dim:
            raise LinalgError("map codomain mismatch")
        ann = _left_annihilator(self.basis)
        return kernel_basis(ann @ m)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def _left_annihilator(basis: Mat) -> Mat:
    """Rows q with q @ basis = 0; i.e. equations cutting out the column span."""
    ker = kernel_basis(basis.transpose())
    return ker.basis.transpose()


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Basis of a ∩ b, by the kernel of the stacked basis matrix [A | -B]."""
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError(f"ambient mismatch {a.ambient_dim} vs {b.ambient_dim}")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = a.basis.hstack(-b.basis)
    ker = kernel_basis(stacked)
    if ker.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # kernel columns are (u, v) with A u = B v; the intersection is A @ u
    u = Mat([list(ker.basis.row(i)) for i in range(a.dim)], a.dim, ker.dim)
    return Subspace(a.ambient_dim, a.basis @ u)


def intersect_all(subs: Sequence[Subspace]) -> Subspace:
    if not subs:
        raise LinalgError("empty intersection needs an ambient dimension")
    out = subs[0]
    for s in subs[1:]:
        out = intersect(out, s)
    return out
