"""Zinbiel algebras over structure constants and their basic predicates.

An Algebra is a free module over Q with a bilinear product given by a
structure-constant tensor.  Nothing here assumes the product satisfies the
Zinbiel identity; `is_zinbiel` decides that.  All verification runs on basis
tuples only, which suffices by multilinearity, and failure witnesses report
the lexicographically first bad tuple so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    Matrix,
    Tensor3,
    Vec,
    inverse,
    rank,
    vadd,
    vunit,
)


class ConsistencyError(RuntimeError):
    """Two routes that must agree by theorem produced different answers.
    This is never a valid outcome; it flags a bug in the implementation."""


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra: e_i . e_j = sum_k mult[i][j][k] e_k."""

    dim: int
    mult: Tensor3
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.mult.dims != (self.dim, self.dim, self.dim):
            raise ValueError("multiplication tensor dims must equal (dim, dim, dim)")
        if self.names is not None and len(self.names) != self.dim:
            raise ValueError("names length must equal dim")

    @classmethod
    def from_products(cls, dim, products, names=None) -> "Algebra":
        """Build from a sparse {(i, j): {k: coeff}} table, 1-based indices."""
        mapping = {}
        for (i, j), row in products.items():
            for k, c in row.items():
                mapping[(i - 1, j - 1, k - 1)] = c
        return cls(dim, Tensor3.from_map(dim, dim, dim, mapping),
                   tuple(names) if names is not None else None)

    def product(self, u: Vec, v: Vec) -> Vec:
        return self.mult.combine(u, v)

    def basis_product(self, i: int, j: int) -> Vec:
        """e_i . e_j as a coordinate vector, 0-based indices."""
        return self.mult.slice_entry(i, j)

    def unit(self, i: int) -> Vec:
        return vunit(self.dim, i)


@dataclass(frozen=True)
class Witness:
    """Substitution that breaks a condition: which basis tuple, and the two
    sides' coordinate vectors."""

    basis_tuple: tuple[int, ...]
    lhs_value: Vec
    rhs_value: Vec


@dataclass(frozen=True)
class ConditionResult:
    label: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    condition_results: tuple[ConditionResult, ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def from_results(cls, results, notes=()) -> "CheckReport":
        results = tuple(results)
        return cls(all(r.passed for r in results), results, tuple(notes))

    def failing(self) -> tuple[ConditionResult, ...]:
        return tuple(r for r in self.condition_results if not r.passed)


def condition_over_tuples(label, arity_dims, lhs, rhs) -> ConditionResult:
    """Check lhs(t) == rhs(t) over the lexicographic product of basis index
    ranges; the first failing tuple becomes the witness (1-based)."""
    def walk(prefix, dims):
        if not dims:
            yield prefix
            return
        for i in range(dims[0]):
            yield from walk(prefix + (i,), dims[1:])

    for t in walk((), tuple(arity_dims)):
        left = lhs(*t)
        right = rhs(*t)
        if left != right:
            one_based = tuple(i + 1 for i in t)
            return ConditionResult(label, False, Witness(one_based, left, right))
    return ConditionResult(label, True)


def is_zinbiel(a: Algebra) -> CheckReport:
    """Does (x.y).z = x.(y.z + z.y) hold?  Checked on all basis triples."""
    n = a.dim

    def lhs(i, j, k):
        return a.product(a.basis_product(i, j), a.unit(k))

    def rhs(i, j, k):
        inner = vadd(a.basis_product(j, k), a.basis_product(k, j))
        return a.product(a.unit(i), inner)

    return CheckReport.from_results([condition_over_tuples("zinbiel", (n, n, n), lhs, rhs)])


def in_span(rows: list[Vec], v: Vec) -> bool:
    m = Matrix.from_rows(list(rows))
    return rank(Matrix.from_rows(list(rows) + [list(v)])) == rank(m)


def subspace_check(a: Algebra, basis: Matrix, mode: str) -> bool:
    """Closure of a spanned subspace: subalgebra mode closes products among
    the spanning vectors, ideal mode closes products against the whole
    algebra on both sides."""
    if mode not in ("subalgebra", "ideal"):
        raise ValueError(f"unknown mode: {mode!r}")
    if basis.cols != a.dim:
        raise ValueError("basis vectors must live in the algebra")
    rows = [basis.row(i) for i in range(basis.rows)]
    if rank(basis) != basis.rows:
        raise ValueError("dependent basis rows")
    if mode == "subalgebra":
        others = rows
    else:
        others = [a.unit(i) for i in range(a.dim)]
    for u in rows:
        for w in others:
            if not in_span(rows, a.product(u, w)):
                return False
            if not in_span(rows, a.product(w, u)):
                return False
    return True


def is_homomorphism(a: Algebra, b: Algebra, phi: Matrix) -> CheckReport:
    """Does phi(x.y) = phi(x).phi(y) hold on all basis pairs of a?"""
    if (phi.rows, phi.cols) != (a.dim, b.dim):
        raise ValueError("map shape must be dim(a) x dim(b)")

    def lhs(i, j):
        return phi.apply(a.basis_product(i, j))

    def rhs(i, j):
        return b.product(phi.apply(a.unit(i)), phi.apply(a.unit(j)))

    n = a.dim
    return CheckReport.from_results([condition_over_tuples("hom", (n, n), lhs, rhs)])


def is_isomorphism(a: Algebra, b: Algebra, phi: Matrix) -> CheckReport:
    """Homomorphism check plus invertibility of the supplied map."""
    hom = is_homomorphism(a, b, phi)
    invertible = a.dim == b.dim and phi.rows == phi.cols and rank(phi) == phi.rows
    inv_result = ConditionResult("invertible", invertible)
    return CheckReport.from_results(list(hom.condition_results) + [inv_result])


def change_of_basis(a: Algebra, p: Matrix) -> Algebra:
    """Transport structure constants along p, whose rows are the new basis
    vectors written in the old coordinates."""
    if (p.rows, p.cols) != (a.dim, a.dim):
        raise ValueError("basis change must be dim x dim")
    pinv = inverse(p)
    mapping = {}
    for i in range(a.dim):
        for j in range(a.dim):
            old = a.product(p.row(i), p.row(j))
            new = pinv.apply(old)
            for k, c in enumerate(new):
                if c != 0:
                    mapping[(i, j, k)] = c
    return Algebra(a.dim, Tensor3.from_map(a.dim, a.dim, a.dim, mapping), a.names)
