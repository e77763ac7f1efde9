"""Exact linear algebra over Q.

Everything downstream runs on Fraction scalars: dense matrices, 3-index
structure-constant tensors, rational Gaussian elimination, and a small
multivariate polynomial container used to report quadratic residuals of
linear solution families.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction.  Floats are refused:
    they carry rounding error and have no place in exact computations."""
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Canonical string form: 'p/q' in lowest terms, or 'p' for integers."""
    return str(q)


# -- vectors ---------------------------------------------------------------

def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vunit(n: int, i: int) -> Vec:
    """Standard basis vector e_i (0-based) in dimension n."""
    return tuple(ONE if j == i else ZERO for j in range(n))


# -- matrices --------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major.

    Convention used throughout: a linear map f is stored with row i equal
    to the coordinates of f(e_i), so evaluation is the row-vector product
    apply(v) = v . M.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
        return cls(nr, nc, tuple(rat(x) for r in rows for x in r))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO
                               for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.rows:
            raise ValueError("vector length does not match row count")
        return tuple(
            sum((v[i] * self.at(i, j) for i in range(self.rows)), ZERO)
            for j in range(self.cols)
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ent = []
        for i in range(self.rows):
            for j in range(other.cols):
                ent.append(sum((self.at(i, k) * other.at(k, j)
                                for k in range(self.cols)), ZERO))
        return Matrix(self.rows, other.cols, tuple(ent))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sum")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in difference")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j)
                            for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    grid = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if grid[i][c] != 0), None)
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        inv = ONE / grid[r][c]
        grid[r] = [inv * x for x in grid[r]]
        for i in range(m.rows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix.from_rows(grid) if m.rows else m, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _integer_row(v) -> tuple[int, ...]:
    # the primitive integer multiple of a rational row, sign kept
    den = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def nullspace(m: Matrix) -> list[Vec]:
    """Exact basis of the right nullspace {v : m v = 0}.

    Basis vectors are primitive integer vectors with the free coordinate
    equal to +1, ordered by free column index.

    Each row is cleared to a primitive integer vector, and zero and
    repeated rows are dropped; neither changes the row space, so the
    reduced echelon form is unchanged.  Fraction-free Gauss-Jordan over
    the integers then divides every updated row by its content, which
    keeps the entries small.
    """
    if m.cols == 0:
        return []
    rows = (m.row(i) for i in range(m.rows))
    grid = [list(row) for row in
            dict.fromkeys(_integer_row(row) for row in rows if any(row))]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == len(grid):
            break
        pr = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        prow = grid[r]
        p = prow[c]
        for i, row in enumerate(grid):
            f = row[c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                grid[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for row, pc in zip(grid, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(Fraction(x) for x in _integer_row(v)))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError for non-square or singular input."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = Matrix(n, 2 * n, tuple(
        m.at(i, j) if j < n else (ONE if j - n == i else ZERO)
        for i in range(n) for j in range(2 * n)))
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(red.at(i, n + j)
                              for i in range(n) for j in range(n)))


# -- structure-constant tensors --------------------------------------------

@dataclass(frozen=True)
class Tensor3:
    """Dense 3-index tensor of rationals.

    A bilinear map b : A x B -> C lives here as entries[i][j][k] =
    coefficient of the k-th basis vector of C in b(a_i, b_j).
    """

    dims: tuple[int, int, int]
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        d1, d2, d3 = self.dims
        if len(self.entries) != d1 * d2 * d3:
            raise ValueError("entry count does not match dims")

    @classmethod
    def zero(cls, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls((d1, d2, d3), (ZERO,) * (d1 * d2 * d3))

    @classmethod
    def from_map(cls, d1, d2, d3, mapping) -> "Tensor3":
        """Build from a {(i, j, k): coefficient} mapping, 0-based indices."""
        ent = [ZERO] * (d1 * d2 * d3)
        for (i, j, k), c in mapping.items():
            if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
                raise ValueError(f"index out of range: {(i, j, k)}")
            ent[(i * d2 + j) * d3 + k] = rat(c)
        return cls((d1, d2, d3), tuple(ent))

    def at(self, i: int, j: int, k: int) -> Fraction:
        d1, d2, d3 = self.dims
        return self.entries[(i * d2 + j) * d3 + k]

    def combine(self, u: Vec, v: Vec) -> Vec:
        """Evaluate the bilinear map: combine(u, v)[k] = sum u_i v_j t_ijk."""
        d1, d2, d3 = self.dims
        if len(u) != d1 or len(v) != d2:
            raise ValueError("argument length does not match dims")
        out = [ZERO] * d3
        for i in range(d1):
            if u[i] == 0:
                continue
            for j in range(d2):
                if v[j] == 0:
                    continue
                c = u[i] * v[j]
                for k in range(d3):
                    e = self.at(i, j, k)
                    if e != 0:
                        out[k] += c * e
        return tuple(out)

    def slice_entry(self, i: int, j: int) -> Vec:
        """The value of the bilinear map on the basis pair (i, j), 0-based."""
        d1, d2, d3 = self.dims
        base = (i * d2 + j) * d3
        return self.entries[base:base + d3]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


# -- small multivariate polynomials ----------------------------------------

@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in named variables; terms maps exponent tuples to
    coefficients, stored sorted by exponent tuple descending with no zero
    coefficients."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def from_terms(cls, variables, mapping) -> "MultiPoly":
        variables = tuple(variables)
        nv = len(variables)
        clean = {}
        for exps, coeff in mapping.items():
            exps = tuple(exps)
            if len(exps) != nv:
                raise ValueError("exponent vector length mismatch")
            coeff = rat(coeff)
            if coeff != 0:
                clean[exps] = clean.get(exps, ZERO) + coeff
        items = tuple(sorted(((e, c) for e, c in clean.items() if c != 0),
                             key=lambda t: t[0], reverse=True))
        return cls(variables, items)

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls.from_terms(variables, {})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> Fraction:
        point = [rat(p) for p in point]
        if len(point) != len(self.variables):
            raise ValueError("point length mismatch")
        total = ZERO
        for exps, coeff in self.terms:
            val = coeff
            for p, e in zip(point, exps):
                val *= p ** e
            total += val
        return total

    def normalized(self) -> "MultiPoly":
        """Scale to primitive integer coefficients with positive leading
        coefficient.  Canonical representative of the scalar multiple class."""
        if not self.terms:
            return self
        ints = _integer_row([c for _, c in self.terms])
        sign = -1 if ints[0] < 0 else 1
        return MultiPoly(self.variables, tuple(
            (e, Fraction(sign * x)) for (e, _), x in zip(self.terms, ints)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = rat_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([rat_str(mag)] + factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def poly_expand_quadratic(mats, constraint="square-is-zero") -> list[MultiPoly]:
    """Quadratic residuals of a parametrized family M(t) = sum t_i B_i.

    constraint is either the string "square-is-zero", meaning the condition
    M(t) M(t) = 0 for every t, or a callable f(A, B) -> Matrix that is
    bilinear in its arguments, meaning f(M(t), M(t)) = 0 for every t.
    Returns the distinct nonzero residual polynomials in t1..tk whose
    simultaneous vanishing is equivalent to the constraint, normalized and
    deduplicated, in a deterministic order.
    """
    mats = list(mats)
    if not mats:
        return []
    shape = (mats[0].rows, mats[0].cols)
    for b in mats:
        if (b.rows, b.cols) != shape:
            raise ValueError("family matrices must share dimensions")
    if constraint == "square-is-zero":
        if shape[0] != shape[1]:
            raise ValueError("square-is-zero needs square matrices")
        f = lambda a, b: a.mul(b)
    elif callable(constraint):
        f = constraint
    else:
        raise ValueError(f"unknown constraint: {constraint!r}")

    k = len(mats)
    variables = tuple(f"t{i + 1}" for i in range(k))
    # bilinearity: f(M(t), M(t)) = sum_i t_i^2 f(B_i,B_i)
    #                            + sum_{i<j} t_i t_j (f(B_i,B_j) + f(B_j,B_i))
    pieces = []
    for i in range(k):
        exps = tuple(2 if a == i else 0 for a in range(k))
        pieces.append((exps, f(mats[i], mats[i])))
    for i in range(k):
        for j in range(i + 1, k):
            exps = tuple(1 if a in (i, j) else 0 for a in range(k))
            pieces.append((exps, f(mats[i], mats[j]).add(f(mats[j], mats[i]))))

    out_shape = pieces[0][1]
    residuals = []
    seen = set()
    for pos in range(out_shape.rows * out_shape.cols):
        coeffs = {}
        for exps, mat in pieces:
            c = mat.entries[pos]
            if c != 0:
                coeffs[exps] = c
        poly = MultiPoly.from_terms(variables, coeffs).normalized()
        if poly.is_zero() or poly.terms in seen:
            continue
        seen.add(poly.terms)
        residuals.append(poly)
    residuals.sort(key=lambda p: p.terms)
    return residuals
