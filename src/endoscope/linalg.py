"""Exact linear algebra over the rationals and prime fields.

Everything downstream (representations, hom spaces, endomorphism rings)
reduces to row reduction of exact matrices.  Every ``Mat`` and
``Subspace`` names its field, which is part of its identity (``==`` and
``hash``); combining objects over two fields raises ``LinalgError``.
Values have one format: over the rationals (``QQ``) an ``int``, or a
``fractions.Fraction`` when not integral; over GF(p) (``PrimeField(p)``)
an ``int`` residue in ``range(p)``.  ``field.of`` makes a value from an
int, a Fraction or a "p/q" string and refuses floats and bools.  Values
are immutable and operations pure, so concurrent reads are safe.
Values are checked where they enter: ``Mat(...)``, ``Mat.sparse``,
``Subspace.span``, ``Subspace.contains`` (``_checked``), ``Mat.scale``
and ``field.of``.  Each value computed inside (by the kernel, ``spin``,
``reps.composite_flats``) is made in format where it is computed, with
``% p`` or ``_qq``; ``_eliminate`` and the flat decoders of ``reps`` never check it.

A ``Mat`` stores one dict ``{column: nonzero value}`` per row, the rows
the elimination kernel reads and writes, and never a zero, so equal
matrices have equal rows.  ``@``, ``+``, ``transpose``, ``hstack`` and
``vstack`` cost O(nonzeros), not rows x columns.  Matrices are built
from a dense grid (``Mat``), from sparse rows (``Mat.sparse``) or from
placed blocks (``assemble``) and read through ``row``; ``entries`` is a
dense view computed on demand.  A ``Subspace`` keeps the reduced row
echelon rows of its canonical basis in the same format.

Every elimination (``rref``, ``kernel_basis``, ``solve``, ``invert``,
``Mat.rank``, ``Subspace``, ``intersect``) runs one sparse Gauss-Jordan
kernel, ``_eliminate``.  Rows are folded in one at a time, each reduced
against the pivot rows so far, which are kept fully reduced; its
smallest column becomes its pivot, so the pivot rows sorted by pivot are
the canonical reduced row echelon form.  A column -> pivot-row index
limits back-substitution to the rows holding the new pivot column, so
the work follows the nonzeros.  Given a bound on the rank, such as the
width, it draws no row once it holds that many pivots, so a kernel
(``_kernel_rows``) stops reading a lazy row stream once it is zero.
``_free_rows`` reads a kernel basis off the RREF, one solution per free
column, for callers that need only the kernel's span or its dimension
(the hom systems of ``spin``).  A pivot other than +-1 is inverted as
``Fraction(1, pivot)`` over the rationals and by ``pow(pivot, -1, p)``
over GF(p).  ``Subspace.is_stable`` tests m(S) ⊆ S on the annihilator of
S, read by columns.  ``primitive_row`` scales a rational row to coprime
ints, for callers that only need its span and want int products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Scalar = int | Fraction  # a value over either kind of field


class LinalgError(ValueError):
    pass


def scalar_to_str(x) -> str:
    """Serialize a value as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    return Fraction(s)


def _fraction(v) -> Fraction:
    """An int, Fraction or "p/q" string as a Fraction; a float or bool is refused,
    since a binary float is rarely the rational its writer meant."""
    if isinstance(v, (bool, float)):
        raise LinalgError(f'{v!r} is not exact: write an integer or a "p/q" string')
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise LinalgError(f'{v!r} is not an integer, a Fraction or a "p/q" string') from None


class RationalField:
    characteristic = 0
    name = "q"

    zero = 0
    one = 1

    def of(self, v):
        """The value of an int, Fraction or "p/q" string: an int when integral."""
        if type(v) is int:
            return v
        x = _fraction(v)
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
        x = _fraction(v)
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


def _checked(rows: Iterable[Iterable[tuple]], cols: int, field) -> tuple:
    """Stored rows from an entry point's ``(column, value)`` pairs, zeros
    dropped; refuses a column outside ``range(cols)`` and any value not in
    the field's format, except that an integral Fraction is stored as an int."""
    p = field.characteristic
    out = []
    for row in rows:
        kept = {}
        for j, x in row:
            if type(x) is Fraction and not p:
                x = _qq(x)
            elif type(x) is not int or p and not 0 <= x < p:
                kind = f"int residues in range({p})" if p else "ints or Fractions"
                raise LinalgError(f"entries over {field!r} must be {kind}, not {x!r}; field.of makes them")
            if not 0 <= j < cols:
                raise LinalgError(f"column {j} outside range({cols})")
            if x:
                kept[j] = x
        out.append(kept)
    return tuple(out)


class Mat:
    """Immutable matrix over ``field``, stored as sparse rows.

    Row i is a dict ``{column: nonzero value}`` of values of the field
    (see the module docstring).  ``Mat(entries, rows, cols, field)``
    reads a dense grid of values, which ``field.of`` makes from other
    numbers, and refuses anything else; ``entries`` is that grid again,
    computed on demand.  Zero-row and zero-column shapes are allowed.
    """

    __slots__ = ("rows", "cols", "field", "_data", "_hash")

    def __init__(self, entries: Iterable[Iterable], rows: int | None = None, cols: int | None = None, field=QQ):
        ent = [tuple(r) for r in entries]
        if rows is None:
            rows = len(ent)
        if cols is None:
            cols = len(ent[0]) if ent else 0
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise LinalgError("ragged or mis-shaped entry grid")
        self._set(_checked(map(enumerate, ent), cols, field), rows, cols, field)

    def _set(self, data: tuple, rows: int, cols: int, field):
        self._data = data
        self.rows = rows
        self.cols = cols
        self.field = field
        self._hash = None

    @classmethod
    def sparse(cls, rows: Sequence[Mapping], cols: int, field=QQ) -> "Mat":
        """The matrix whose row i has the entries ``rows[i]`` = {column: value};
        values are checked as by ``Mat`` and zeros dropped."""
        return _mat(_checked((r.items() for r in rows), cols, field), len(rows), cols, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field=QQ) -> "Mat":
        return _mat(tuple({} for _ in range(rows)), rows, cols, field)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        return _mat(tuple({i: 1} for i in range(n)), n, n, field)

    @property
    def entries(self) -> tuple:
        """The dense grid: a tuple of row tuples, zeros included."""
        return tuple(tuple(r.get(j, 0) for j in range(self.cols)) for r in self._data)

    def __getitem__(self, idx):
        i, j = idx
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside range({self.cols})")
        return self._data[i].get(j, 0)

    def row(self, i: int) -> Mapping:
        """The nonzero entries of row i, as a read-only {column: value} mapping."""
        return MappingProxyType(self._data[i])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "Mat":
        out = tuple({} for _ in range(self.cols))
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return _mat(out, self.cols, self.rows, self.field)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")
        return assemble(self.rows, self.cols, [(0, 0, self), (0, 0, other)], self.field)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        if not c:
            return Mat.zeros(self.rows, self.cols, self.field)
        out = tuple(_subtract({}, -c, r, -1, self.field.characteristic) for r in self._data)  # 0 - (-c) r
        return _mat(out, self.rows, self.cols, self.field)

    def __matmul__(self, other: "Mat") -> "Mat":
        field = _common_field(self, other)
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch {self.shape} @ {other.shape}")
        p = field.characteristic
        b = other._data
        out = []
        for arow in self._data:
            acc = {}
            for k, a in arow.items():
                for j, x in b[k].items():
                    acc[j] = acc.get(j, 0) + a * x
            if p:
                out.append({j: r for j, v in acc.items() if (r := v % p)})
            else:
                out.append({j: _qq(v) for j, v in acc.items() if v})
        return _mat(tuple(out), self.rows, other.cols, field)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product of dense vectors."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        p = self.field.characteristic
        out = (sum(a * vec[j] for j, a in row.items()) for row in self._data)
        return tuple(x % p for x in out) if p else tuple(map(_qq, out))

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinalgError("row count mismatch in hstack")
        return assemble(self.rows, self.cols + other.cols, [(0, 0, self), (0, self.cols, other)], self.field)

    def vstack(self, other: "Mat") -> "Mat":
        field = _common_field(self, other)
        if self.cols != other.cols:
            raise LinalgError("column count mismatch in vstack")
        return _mat(self._data + other._data, self.rows + other.rows, self.cols, field)

    def is_zero(self) -> bool:
        return not any(self._data)

    def rank(self) -> int:
        return len(_eliminate(self._copy(), self.field.characteristic))

    def trace(self):
        if self.rows != self.cols:
            raise LinalgError("trace of non-square matrix")
        p = self.field.characteristic
        s = sum(r.get(i, 0) for i, r in enumerate(self._data))
        return s % p if p else _qq(s)

    def _copy(self) -> list[dict]:
        """Fresh copies of the rows, for the kernel to consume."""
        return [dict(r) for r in self._data]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.field == other.field
            and self._data == other._data
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.field, _key(self._data)))
        return self._hash

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Mat({self.rows}x{self.cols} over {self.field!r})"
        body = "; ".join(" ".join(scalar_to_str(a) for a in r) for r in self.entries)
        return f"Mat[{body}]" if self.field == QQ else f"Mat[{body}] over {self.field!r}"


def _mat(data: tuple, rows: int, cols: int, field) -> Mat:
    """A Mat from stored rows already of the given shape and format; not checked."""
    m = Mat.__new__(Mat)
    m._set(data, rows, cols, field)
    return m


def _key(rows: Iterable[dict]) -> tuple:
    """A hashable form of stored rows; equal rows give equal keys."""
    return tuple(frozenset(r.items()) for r in rows)


def assemble(rows: int, cols: int, blocks: Iterable[tuple[int, int, Mat]], field=QQ) -> Mat:
    """The rows x cols matrix that is the sum of the ``blocks``: each
    ``(row_off, col_off, block)`` has its (0, 0) entry at (row_off, col_off).
    Overlapping entries add; every block must lie over ``field`` and fit."""
    p = field.characteristic
    out = tuple({} for _ in range(rows))
    for roff, coff, block in blocks:
        if block.field != field:
            raise LinalgError(f"mixed fields {block.field!r} and {field!r}")
        if roff < 0 or coff < 0 or roff + block.rows > rows or coff + block.cols > cols:
            raise LinalgError(f"{block.shape} block at ({roff}, {coff}) outside a {rows}x{cols} matrix")
        for i, src in enumerate(block._data):
            _subtract(out[roff + i], -1, {coff + j: x for j, x in src.items()}, -1, p)
    return _mat(out, rows, cols, field)


# -- the elimination kernel ----------------------------------------------------
# Kernel rows are dicts column -> nonzero value, the rows a Mat stores;
# ``p`` is the characteristic (0 for the rationals).  Over the rationals
# every value the kernel makes goes through ``_qq``, so it computes with
# ints wherever it can; a row it does not reduce is kept as it came.
# ``_reduce``, which every row drawn and every membership test runs,
# reads only the columns a row shares with the pivots, once, and writes
# its subtraction once per characteristic; ``_subtract`` is the generic
# form, which keeps the column index of the back-substitution.


def _qq(x):
    """A rational in value format: an integral Fraction becomes an int."""
    return x.numerator if x.denominator == 1 else x


def _subtract(dst: dict, f, src: dict, skip: int, p: int, holders=None, owner=None) -> dict:
    """dst -= f * src on the columns of src other than ``skip``; returns dst.

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
    return dst


def _reduce(row: dict, reduced: dict[int, dict], p: int) -> dict:
    """Reduce ``row`` in place against fully reduced pivot rows ``{pivot: row}``.

    The pivot rows vanish on each other's pivots, so subtracting one
    never makes an entry at another pivot: one walk over the columns
    ``row`` shares with the pivots clears them all, each with the
    multiple it had at the start, and the 1 at the pivot clears the
    column itself.  The row left over is zero iff ``row`` was in their span.
    """
    if p:
        for c in row.keys() & reduced.keys():
            f = row[c]
            for j, v in reduced[c].items():
                if x := (row.get(j, 0) - f * v) % p:
                    row[j] = x
                else:
                    del row[j]
    else:
        for c in row.keys() & reduced.keys():
            f = row[c]
            for j, v in reduced[c].items():
                if x := row.get(j, 0) - f * v:
                    row[j] = x if type(x) is int else _qq(x)
                else:
                    del row[j]
    return row


def _eliminate(rows: Iterable[dict], p: int, ncols: int | None = None) -> dict[int, dict]:
    """Reduced row echelon form of sparse kernel rows (which it consumes).

    Returns ``{pivot column: row}``.  Each row has a 1 at its pivot, its
    smallest column, and no entry at any other pivot column; sorted by
    pivot, the rows are the canonical RREF of the row space.  Given ``ncols``, any
    bound on the rank (the width is one), it draws no row once it holds ``ncols``
    pivots, as every later row would reduce to zero: a lazy ``rows`` is left unread.
    """
    reduced: dict[int, dict] = {}
    holders: dict[int, set] = {}  # column -> pivots of the rows with an entry there
    if ncols == 0:
        return reduced
    for row in rows:
        _reduce(row, reduced, p)
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
        if len(reduced) == ncols:
            break
        for j in row:
            if j != piv:
                holders.setdefault(j, set()).add(piv)
    return reduced


def _free_rows(reduced: dict[int, dict], ncols: int, p: int) -> list[dict]:
    """A basis of the right kernel of RREF rows ``{pivot: row}`` of width
    ``ncols``: for each free column f, the solution that is 1 at f, 0 at
    the other free columns and -row[f] at each pivot."""
    free = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for q, row in reduced.items():
        for j, v in row.items():
            if j != q:
                free[j][q] = -v % p if p else -v
    return list(free.values())


def _kernel_rows(rows: Iterable[dict], ncols: int, p: int) -> dict[int, dict]:
    """The right kernel of sparse kernel rows, as the RREF rows of its canonical
    basis; no row is drawn once the kernel is zero."""
    return _eliminate(_free_rows(_eliminate(rows, p, ncols), ncols, p), p)


def primitive_row(row: Mapping, field) -> dict:
    """A nonzero multiple of the sparse row ``{column: nonzero value}`` with
    coprime int entries, for work where only the row's span matters.

    Over the rationals the row is multiplied by the lcm of its
    denominators and divided by the gcd of the numerators, a positive
    factor, so the signs are kept.  Over GF(p) the values are already
    ints and every nonzero one is a unit, so the row comes back as it
    is.  The empty row stays empty.
    """
    if field.characteristic or not row:
        return dict(row)
    den = math.lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = math.gcd(*ints.values())
    return {j: v // g for j, v in ints.items()}


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    reduced = _eliminate(m._copy(), m.field.characteristic)
    pivots = sorted(reduced)
    rows = tuple(reduced[c] for c in pivots) + tuple({} for _ in range(m.rows - len(pivots)))
    return _mat(rows, m.rows, m.cols, m.field), pivots


def kernel_basis(m: Mat) -> "Subspace":
    """Basis of the right kernel {x : m @ x = 0}."""
    return Subspace._from_rref(m.cols, _kernel_rows(m._copy(), m.cols, m.field.characteristic), m.field)


def invert(m: Mat) -> Mat | None:
    """The exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise LinalgError("inverse of non-square matrix")
    n = m.rows
    if n == 0:
        return m
    reduced = _eliminate(m.hstack(Mat.identity(n, m.field))._data, m.field.characteristic)
    # [m | 1] always has rank n; m is invertible iff no pivot lies in the identity half
    if max(reduced) >= n:
        return None
    inv = tuple({j - n: x for j, x in reduced[i].items() if j >= n} for i in range(n))
    return _mat(inv, n, n, m.field)


def solve(m: Mat, b: Sequence) -> tuple | None:
    """Some particular solution of m @ x = b, or None if inconsistent.

    ``b`` holds values of ``m.field``.
    """
    if len(b) != m.rows:
        raise LinalgError("right-hand side length mismatch")
    n = m.cols
    augmented = m.hstack(Mat([[x] for x in b], m.rows, 1, m.field))
    reduced = _eliminate(augmented._data, m.field.characteristic)
    if n in reduced:
        return None
    x = [0] * n
    for c, row in reduced.items():
        x[c] = row.get(n, 0)
    return tuple(x)


class Subspace:
    """A linear subspace of K^n, held as its canonical basis.

    The canonical basis is the set of reduced row echelon rows of any
    spanning set, stored sparse as the kernel makes them; two subspaces
    are equal iff their fields and canonical bases coincide, which gives
    a deterministic normal form for comparisons.  ``basis`` is the
    n x dim matrix with these vectors as columns, built on demand.
    """

    __slots__ = ("ambient_dim", "field", "_rows", "_hash")

    def __init__(self, ambient_dim: int, basis: Mat):
        """The span of the columns of ``basis``."""
        if basis.rows != ambient_dim:
            raise LinalgError("basis rows must equal ambient dimension")
        rows = basis.transpose()._data  # fresh dicts, for the kernel to consume
        self._set(ambient_dim, _eliminate(rows, basis.field.characteristic), basis.field)

    @classmethod
    def _from_rref(cls, ambient_dim: int, reduced: dict[int, dict], field) -> "Subspace":
        """The subspace whose canonical basis has these RREF rows ``{pivot: row}``."""
        sub = cls.__new__(cls)
        sub._set(ambient_dim, reduced, field)
        return sub

    def _set(self, ambient_dim: int, reduced: dict[int, dict], field):
        self.ambient_dim = ambient_dim
        self.field = field
        self._rows = {c: reduced[c] for c in sorted(reduced)}
        self._hash = None

    @classmethod
    def zero(cls, ambient_dim: int, field=QQ) -> "Subspace":
        return cls._from_rref(ambient_dim, {}, field)

    @classmethod
    def full(cls, ambient_dim: int, field=QQ) -> "Subspace":
        return cls._from_rref(ambient_dim, {i: {i: 1} for i in range(ambient_dim)}, field)

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence], field=QQ) -> "Subspace":
        rows = Mat(vectors, None, ambient_dim, field)._data  # checked; a fresh Mat's rows
        return cls._from_rref(ambient_dim, _eliminate(rows, field.characteristic), field)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _row_mat(self) -> Mat:
        """The dim x n matrix whose rows are the canonical basis."""
        return _mat(tuple(self._rows.values()), self.dim, self.ambient_dim, self.field)

    @property
    def basis(self) -> Mat:
        return self._row_mat().transpose()

    def vectors(self) -> list[tuple]:
        return [tuple(r.get(i, 0) for i in range(self.ambient_dim)) for r in self._rows.values()]

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        row = _checked([enumerate(vec)], self.ambient_dim, self.field)[0]
        return not _reduce(row, self._rows, self.field.characteristic)

    def contains_subspace(self, other: "Subspace") -> bool:
        p = _common_field(self, other).characteristic
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        return not any(_reduce(dict(r), self._rows, p) for r in other._rows.values())

    def is_stable(self, maps: Iterable[Mat]) -> bool:
        """True iff m(S) ⊆ S for every n x n matrix m in ``maps``.

        Tested on the annihilator: q m s = 0 for all s in S iff q @ m lies
        in Ann(S), so no image subspace is built.  The annihilator's
        canonical rows are read by columns, so a map costs work only at
        its nonzero rows k, each added into the products of the rows q
        with q[k] != 0, and the products are reduced against the rows.
        The zero and full subspaces need no products, but every map is
        still checked for its field and shape.
        """
        n = self.ambient_dim
        ann = None
        for m in maps:
            field = _common_field(self, m)
            if m.shape != (n, n):
                raise LinalgError(f"map of shape {m.shape} on K^{n}")
            if ann is None:
                p = field.characteristic
                ann = _kernel_rows([dict(r) for r in self._rows.values()], n, p) if 0 < self.dim < n else {}
                columns = {}  # k -> [(i, q_i[k])] over the annihilator rows q_i
                for i, q in enumerate(ann.values()):
                    for k, x in q.items():
                        columns.setdefault(k, []).append((i, x))
            if not ann:
                continue
            products = {}  # i -> q_i @ m
            for k, row in enumerate(m._data):
                if row:
                    for i, x in columns.get(k, ()):
                        _subtract(products.setdefault(i, {}), -x, row, -1, p)  # += x * m[k]
            if any(_reduce(r, ann, p) for r in products.values()):
                return False
        return True

    def coordinates(self, m: Mat) -> Mat | None:
        """The matrix c with ``basis @ c == m``, or None if a column of m lies outside.

        A canonical basis vector is 1 at its pivot and 0 at the other pivots,
        so a vector of the span has its coordinates at the pivots."""
        if m.rows != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        c = _mat(tuple(m._data[i] for i in self._rows), self.dim, m.cols, _common_field(self, m))
        return c if self.basis @ c == m else None

    def add(self, other: "Subspace") -> "Subspace":
        """The span of both canonical bases, eliminated as they are stored."""
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient mismatch")
        p = _common_field(self, other).characteristic
        rows = [dict(r) for s in (self, other) for r in s._rows.values()]  # copies, for the kernel to consume
        return Subspace._from_rref(self.ambient_dim, _eliminate(rows, p), self.field)

    def image(self, m: Mat) -> "Subspace":
        """The image of this subspace under the linear map m."""
        if m.cols != self.ambient_dim:
            raise LinalgError("map domain mismatch")
        return Subspace(m.rows, m @ self.basis)

    def annihilator(self) -> Mat:
        """A matrix whose kernel is this subspace: its rows q have q @ basis = 0."""
        return kernel_basis(self._row_mat())._row_mat()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.field, _key(self._rows.values())))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim} over {self.field!r})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b, the common kernel of their annihilators."""
    _common_field(a, b)
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError(f"ambient mismatch {a.ambient_dim} vs {b.ambient_dim}")
    return kernel_basis(a.annihilator().vstack(b.annihilator()))


def intersect_all(subs: Sequence[Subspace]) -> Subspace:
    if not subs:
        raise LinalgError("empty intersection needs an ambient dimension")
    out = subs[0]
    for s in subs[1:]:
        out = intersect(out, s)
    return out
