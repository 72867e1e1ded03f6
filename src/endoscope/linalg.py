"""Exact linear algebra over the rationals and prime fields.

Everything downstream (representations, hom spaces, endomorphism rings)
reduces to row reduction of exact matrices.  Every ``Mat`` and
``Subspace`` names its field, and the field is part of its identity:
``==`` and ``hash`` include it, and combining objects over two fields
raises ``LinalgError``.  Values have one format everywhere: over the
rationals (``QQ``) a value is an ``int``, or a ``fractions.Fraction``
when it is not integral; over GF(p) (``PrimeField(p)``) it is an ``int``
residue in ``range(p)``.  ``field.of`` turns an int, a Fraction or a
"p/q" string into a value of the field.  All values are immutable and
all operations are pure, so concurrent reads are safe.

Every elimination (``rref``, ``kernel_basis``, ``solve``, ``invert``,
``Mat.rank`` and, through the kernel, ``intersect``) runs one sparse
Gauss-Jordan kernel, ``_eliminate``.  Its rows are dicts ``column ->
nonzero value``, read straight off the matrix entries.  Rows are folded
in one at a time: each is reduced against the pivot rows found so far,
which are kept fully reduced, and its smallest column becomes its pivot,
so the pivot rows sorted by pivot are exactly the canonical reduced row
echelon form.  A column -> pivot-row index limits back-substitution to
the rows that hold the new pivot column, so the work follows the
nonzeros rather than rows x columns.  A pivot other than +-1 is inverted
as ``Fraction(1, pivot)`` over the rationals and by ``pow(pivot, -1, p)``
over GF(p).  ``sparse_kernel`` is the entry point for systems that are
sparse from the start (the hom systems): it takes and returns dicts of
values, so no dense row is ever built.
"""

from __future__ import annotations

import operator
from itertools import chain
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction  # a value over either kind of field


class LinalgError(ValueError):
    pass


def scalar_to_str(x) -> str:
    """Serialize a value as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    return Fraction(s)


class RationalField:
    characteristic = 0
    name = "q"

    zero = 0
    one = 1

    def of(self, v):
        """The value of an int, Fraction or "p/q" string: an int when integral."""
        x = Fraction(v)
        return x.numerator if x.denominator == 1 else x

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017), arXiv 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < ``_MR_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    name_prefix = "fp"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise LinalgError(f"{p} is beyond the deterministic primality bound {_MR_BOUND}")
        if not _is_prime(p):
            raise LinalgError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"fp:{p}"

    def of(self, v) -> int:
        """The residue of an int, Fraction or "p/q" string."""
        if type(v) is int:
            return v % self.p
        x = Fraction(v)
        if x.denominator % self.p == 0:
            raise LinalgError(f"{v} has a denominator divisible by {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

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
        try:
            p = int(name[3:])
        except ValueError:
            raise LinalgError(f"bad field {name!r}: fp:<p> needs an integer p") from None
        return PrimeField(p)
    raise LinalgError(f"unknown field {name!r}")


def _common_field(a, b):
    """The field of two objects; raises if they lie over different fields."""
    if a.field != b.field:
        raise LinalgError(f"mixed fields {a.field!r} and {b.field!r}")
    return a.field


class Mat:
    """Immutable dense matrix over ``field``.

    Rows are tuples of values of the field (see the module docstring);
    ``field.of`` makes them from other numbers, and over GF(p) anything
    but a residue is refused.  Zero-row and zero-column shapes are
    allowed.
    """

    __slots__ = ("rows", "cols", "entries", "field", "_hash")

    def __init__(
        self, entries: Iterable[Iterable], rows: int | None = None, cols: int | None = None, field=QQ
    ):
        ent = tuple(tuple(r) for r in entries)
        if rows is None:
            rows = len(ent)
        if cols is None:
            cols = len(ent[0]) if ent else 0
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise LinalgError("ragged or mis-shaped entry grid")
        p = field.characteristic
        if p and not all(type(x) is int and 0 <= x < p for x in set(chain.from_iterable(ent))):
            raise LinalgError(f"entries over {field!r} must be int residues in range({p}); field.of makes them")
        self.rows = rows
        self.cols = cols
        self.entries = ent
        self.field = field
        self._hash = None

    @classmethod
    def zeros(cls, rows: int, cols: int, field=QQ) -> "Mat":
        return _mat(((0,) * cols,) * rows, rows, cols, field)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        return _mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n, n, field)

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
        ent = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return _mat(ent, self.cols, self.rows, self.field)

    def _entrywise(self, other: "Mat", f) -> "Mat":
        field = _common_field(self, other)
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")
        p = field.characteristic
        ent = tuple(_values(map(f, ra, rb), p) for ra, rb in zip(self.entries, other.entries))
        return _mat(ent, self.rows, self.cols, field)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        p = self.field.characteristic
        if p:
            c = self.field.of(c)
        ent = tuple(_values([c * a for a in r], p) for r in self.entries)
        return _mat(ent, self.rows, self.cols, self.field)

    def __matmul__(self, other: "Mat") -> "Mat":
        field = _common_field(self, other)
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch {self.shape} @ {other.shape}")
        p = field.characteristic
        # only nonzero products are formed; the matrices around here are mostly sparse
        nonzero = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.entries]
        out = []
        for arow in self.entries:
            acc = [0] * other.cols
            for k, a in enumerate(arow):
                if a:
                    for j, b in nonzero[k]:
                        acc[j] += a * b
            out.append(_values(acc, p))
        return _mat(tuple(out), self.rows, other.cols, field)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        p = self.field.characteristic
        out = []
        for row in self.entries:
            s = 0
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(s)
        return _values(out, p)

    def hstack(self, other: "Mat") -> "Mat":
        field = _common_field(self, other)
        if self.rows != other.rows:
            raise LinalgError("row count mismatch in hstack")
        ent = tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        return _mat(ent, self.rows, self.cols + other.cols, field)

    def vstack(self, other: "Mat") -> "Mat":
        field = _common_field(self, other)
        if self.cols != other.cols:
            raise LinalgError("column count mismatch in vstack")
        return _mat(self.entries + other.entries, self.rows + other.rows, self.cols, field)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.entries)

    def rank(self) -> int:
        p = self.field.characteristic
        return len(_eliminate(_rows(map(enumerate, self.entries), p), p))

    def trace(self):
        if self.rows != self.cols:
            raise LinalgError("trace of non-square matrix")
        p = self.field.characteristic
        s = sum(self.entries[i][i] for i in range(self.rows))
        return s % p if p else _qq(s)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.field, self.entries))
        return self._hash

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Mat({self.rows}x{self.cols} over {self.field!r})"
        body = "; ".join(" ".join(scalar_to_str(a) for a in r) for r in self.entries)
        return f"Mat[{body}]" if self.field == QQ else f"Mat[{body}] over {self.field!r}"


def _values(xs: Iterable, p: int) -> tuple:
    """Results of arithmetic on values, in value format: residues mod p, or
    over the rationals with integral Fractions turned into ints."""
    if p:
        return tuple(x % p for x in xs)
    return tuple(x.numerator if x.denominator == 1 else x for x in xs)


def _mat(entries: tuple, rows: int, cols: int, field) -> Mat:
    """A Mat from a tuple of row tuples already of the given shape; not checked."""
    m = Mat.__new__(Mat)
    m.entries = entries
    m.rows = rows
    m.cols = cols
    m.field = field
    m._hash = None
    return m


# -- the elimination kernel ----------------------------------------------------
# Kernel rows are dicts column -> nonzero value; ``p`` is the characteristic
# (0 for the rationals).  Over the rationals every value the kernel makes
# goes through ``_qq``, so it computes with ints wherever it can and its
# results are in value format.


def _qq(x):
    """A rational in value format: an integral Fraction becomes an int."""
    return x.numerator if x.denominator == 1 else x


def _rows(rows: Iterable[Iterable[tuple]], p: int) -> list[dict]:
    """Kernel rows from ``(column, value)`` pairs, zeros dropped."""
    if p:
        return [{j: x for j, x in row if x} for row in rows]
    return [{j: _qq(x) for j, x in row if x} for row in rows]


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
            dst[j] = -f * v % p if p else _qq(-f * v)
            if holders is not None:
                holders.setdefault(j, set()).add(owner)
            continue
        x = (old - f * v) % p if p else _qq(old - f * v)
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
                row = {j: _qq(v * inv) for j, v in row.items()}
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


def _span_rows(vectors: Iterable[Sequence], p: int) -> list[dict]:
    """The RREF rows of the canonical basis of the span of dense vectors."""
    return _sorted_rows(_eliminate(_rows(map(enumerate, vectors), p), p))


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
    """The right kernel of sparse equations ``{column: value}`` over ``field``.

    Zero entries and empty equations are allowed.  Returns the canonical
    basis (the RREF rows of the kernel) as dicts ``{column: nonzero value}``.
    """
    p = field.characteristic
    return _kernel_rows(_rows((eq.items() for eq in equations), p), ncols, p)


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    p = m.field.characteristic
    reduced = _eliminate(_rows(map(enumerate, m.entries), p), p)
    pivots = sorted(reduced)
    rows = [tuple(reduced[c].get(j, 0) for j in range(m.cols)) for c in pivots]
    rows += [(0,) * m.cols] * (m.rows - len(pivots))
    return _mat(tuple(rows), m.rows, m.cols, m.field), pivots


def kernel_basis(m: Mat) -> "Subspace":
    """Basis of the right kernel {x : m @ x = 0}."""
    p = m.field.characteristic
    vecs = _kernel_rows(_rows(map(enumerate, m.entries), p), m.cols, p)
    return Subspace._from_rref(m.cols, vecs, m.field)


def invert(m: Mat) -> Mat | None:
    """The exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise LinalgError("inverse of non-square matrix")
    n = m.rows
    if n == 0:
        return m
    p = m.field.characteristic
    rows = _rows(map(enumerate, m.entries), p)
    for i, row in enumerate(rows):
        row[n + i] = 1
    reduced = _eliminate(rows, p)
    # [m | 1] always has rank n; m is invertible iff no pivot lies in the identity half
    if max(reduced) >= n:
        return None
    ent = tuple(tuple(reduced[i].get(n + j, 0) for j in range(n)) for i in range(n))
    return _mat(ent, n, n, m.field)


def solve(m: Mat, b: Sequence) -> tuple | None:
    """Some particular solution of m @ x = b, or None if inconsistent.

    ``b`` holds values of ``m.field``.
    """
    if len(b) != m.rows:
        raise LinalgError("right-hand side length mismatch")
    p = m.field.characteristic
    rows = _rows(map(enumerate, ((*r, bv) for r, bv in zip(m.entries, b))), p)
    reduced = _eliminate(rows, p)
    if m.cols in reduced:
        return None
    x = [0] * m.cols
    for c, row in reduced.items():
        if m.cols in row:
            x[c] = row[m.cols]
    return tuple(x)


class Subspace:
    """A linear subspace of K^n, held as a canonical column basis.

    The basis matrix is normalized so that its transpose is in reduced
    row echelon form; two subspaces are equal iff their fields and
    canonical bases coincide, which gives a deterministic normal form
    for comparisons.  The field is that of the basis matrix.
    """

    __slots__ = ("ambient_dim", "basis", "_hash")

    def __init__(self, ambient_dim: int, basis: Mat):
        if basis.rows != ambient_dim:
            raise LinalgError("basis rows must equal ambient dimension")
        self._set(ambient_dim, _span_rows(zip(*basis.entries), basis.field.characteristic), basis.field)

    @classmethod
    def _from_rref(cls, ambient_dim: int, rows: list[dict], field) -> "Subspace":
        """The subspace whose canonical basis has these RREF rows."""
        sub = cls.__new__(cls)
        sub._set(ambient_dim, rows, field)
        return sub

    def _set(self, ambient_dim: int, rows: list[dict], field):
        grid = [[0] * len(rows) for _ in range(ambient_dim)]
        for k, row in enumerate(rows):
            for i, x in row.items():
                grid[i][k] = x
        self.ambient_dim = ambient_dim
        self.basis = _mat(tuple(map(tuple, grid)), ambient_dim, len(rows), field)
        self._hash = None

    @property
    def field(self):
        return self.basis.field

    @classmethod
    def zero(cls, ambient_dim: int, field=QQ) -> "Subspace":
        return cls._from_rref(ambient_dim, [], field)

    @classmethod
    def full(cls, ambient_dim: int, field=QQ) -> "Subspace":
        return cls._from_rref(ambient_dim, [{i: 1} for i in range(ambient_dim)], field)

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence], field=QQ) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise LinalgError("spanning vector length differs from the ambient dimension")
        return cls._from_rref(ambient_dim, _span_rows(vecs, field.characteristic), field)

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
        _common_field(self, other)
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
        # the rows q with q @ basis = 0 cut out the column span
        ann = kernel_basis(self.basis.transpose()).basis.transpose()
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
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim} over {self.field!r})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Basis of a ∩ b, by the kernel of the stacked basis matrix [A | -B]."""
    field = _common_field(a, b)
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError(f"ambient mismatch {a.ambient_dim} vs {b.ambient_dim}")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, field)
    ker = kernel_basis(a.basis.hstack(-b.basis))
    # kernel columns are (u, v) with A u = B v; the intersection is A @ u
    u = _mat(ker.basis.entries[: a.dim], a.dim, ker.dim, field)
    return Subspace(a.ambient_dim, a.basis @ u)


def intersect_all(subs: Sequence[Subspace]) -> Subspace:
    if not subs:
        raise LinalgError("empty intersection needs an ambient dimension")
    out = subs[0]
    for s in subs[1:]:
        out = intersect(out, s)
    return out
