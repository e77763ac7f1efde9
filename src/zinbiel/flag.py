"""One-dimensional extensions of a base algebra Z, described by a flag
datum (x0, k0, mu, D, T).

The extension lives on Z + <u> with products

    x o y = x.y          x o u = T(x)
    u o x = D(x) + mu(x) u          u o u = x0 + k0 u

and is Zinbiel exactly when the conditions F1..F8b below hold.  They are
the specialization of the general datum conditions to dim V = 1; F8
splits into its Z-component (F8a) and u-component (F8b), and F4x is the
cross condition that the transformed system would otherwise silently
assume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (Algebra, CheckReport, ConsistencyError,
                   condition_over_tuples, is_zinbiel)
from .exactlin import (Matrix, MultiPoly, Tensor3, Vec, ZERO, nullspace,
                       poly_expand_quadratic, rat, vadd, vscale, vsub, vzero)
from .extending import (ExtendingDatum, MorphismPair, build_unified,
                        datums_equivalent)

FLAG_LABELS = ("F1", "F2", "F3", "F4", "F4x", "F5", "F6", "F7", "F8a", "F8b")

SOLVE_MODES = ("D", "T")


@dataclass(frozen=True)
class FlagDatum:
    """The data of a candidate one-dimensional extension of base.

    mu is a linear functional on the base (length-n tuple), D and T are
    n x n matrices in the row convention, x0 a vector in the base, k0 a
    scalar.
    """

    base: Algebra
    x0: Vec
    k0: Fraction
    mu: Vec
    D: Matrix
    T: Matrix

    def __post_init__(self):
        n = self.base.dim
        if len(self.x0) != n:
            raise ValueError("x0 must be a base coordinate vector")
        if len(self.mu) != n:
            raise ValueError("mu must be a length-n functional")
        for name in ("D", "T"):
            m = getattr(self, name)
            if (m.rows, m.cols) != (n, n):
                raise ValueError(f"{name} must be an n x n matrix")

    @classmethod
    def zero(cls, base: Algebra) -> "FlagDatum":
        n = base.dim
        return cls(base, vzero(n), ZERO, vzero(n),
                   Matrix.zero(n, n), Matrix.zero(n, n))

    def mu_at(self, v: Vec) -> Fraction:
        return sum((c * m for c, m in zip(v, self.mu)), ZERO)


def verify_flag(fd: FlagDatum) -> CheckReport:
    """Check F1..F8b on basis elements and pairs.

    Scalar conditions report their two sides as length-1 vectors in the
    witness.
    """
    if not is_zinbiel(fd.base).passed:
        raise ValueError("base algebra must be Zinbiel")
    n = fd.base.dim
    e = fd.base.unit
    prod = fd.base.product
    mu = fd.mu_at
    d = fd.D.apply
    t = fd.T.apply
    x0, k0 = fd.x0, fd.k0
    two = rat(2)

    conds = [
        # F1: mu(x.y) + mu(y.x) = mu(x) mu(y)
        ("F1", (n, n),
         lambda i, j: (mu(prod(e(i), e(j))) + mu(prod(e(j), e(i))),),
         lambda i, j: (mu(e(i)) * mu(e(j)),)),
        # F2: mu(D(x) + T(x)) = 0
        ("F2", (n,),
         lambda i: (mu(vadd(d(e(i)), t(e(i)))),),
         lambda i: (ZERO,)),
        # F3: D(x.y) + D(y.x) = D(x).y + mu(x) D(y)
        ("F3", (n, n),
         lambda i, j: vadd(d(prod(e(i), e(j))), d(prod(e(j), e(i)))),
         lambda i, j: vadd(prod(d(e(i)), e(j)), vscale(mu(e(i)), d(e(j))))),
        # F4: T(x.y) = T(x).y
        ("F4", (n, n),
         lambda i, j: t(prod(e(i), e(j))),
         lambda i, j: prod(t(e(i)), e(j))),
        # F4x: T(x).y = x.(D(y) + T(y)) + mu(y) T(x)
        ("F4x", (n, n),
         lambda i, j: prod(t(e(i)), e(j)),
         lambda i, j: vadd(prod(e(i), vadd(d(e(j)), t(e(j)))),
                           vscale(mu(e(j)), t(e(i))))),
        # F5: T(T(x)) = 2 x.x0 + 2 k0 T(x)
        ("F5", (n,),
         lambda i: t(t(e(i))),
         lambda i: vadd(vscale(two, prod(e(i), x0)),
                        vscale(two * k0, t(e(i))))),
        # F6: D(D(x)) = T(D(x)) - D(T(x))
        ("F6", (n,),
         lambda i: d(d(e(i))),
         lambda i: vsub(t(d(e(i))), d(t(e(i))))),
        # F7: x0.x + k0 D(x) = D(D(x)) + D(T(x)) + mu(x) x0
        ("F7", (n,),
         lambda i: vadd(prod(x0, e(i)), vscale(k0, d(e(i)))),
         lambda i: vadd(vadd(d(d(e(i))), d(t(e(i)))),
                        vscale(mu(e(i)), x0))),
        # F8a: T(x0) = 2 D(x0) + k0 x0
        ("F8a", (),
         lambda: t(x0),
         lambda: vadd(vscale(two, d(x0)), vscale(k0, x0))),
        # F8b: 0 = 2 mu(x0) + k0^2
        ("F8b", (),
         lambda: (ZERO,),
         lambda: (two * mu(x0) + k0 * k0,)),
    ]
    return CheckReport.from_results(
        [condition_over_tuples(label, dims, lhs, rhs)
         for label, dims, lhs, rhs in conds])


def flag_to_datum(fd: FlagDatum) -> ExtendingDatum:
    """The flag datum as a general extending datum with dim V = 1.

    No validity check here; the result can feed the forced unified build
    to inspect a broken candidate.
    """
    n = fd.base.dim
    act_l = {(0, j, 0): fd.mu[j] for j in range(n)}
    proj_l = {(i, 0, k): fd.T.at(i, k) for i in range(n) for k in range(n)}
    proj_r = {(0, j, k): fd.D.at(j, k) for j in range(n) for k in range(n)}
    omega = {(0, 0, k): fd.x0[k] for k in range(n)}
    return ExtendingDatum(
        fd.base, 1,
        Tensor3.from_map(1, n, 1, act_l),
        Tensor3.zero(n, 1, 1),
        Tensor3.from_map(n, 1, n, proj_l),
        Tensor3.from_map(1, n, n, proj_r),
        Tensor3.from_map(1, 1, n, omega),
        Tensor3.from_map(1, 1, 1, {(0, 0, 0): fd.k0}))


def build_flag_extension(fd: FlagDatum) -> tuple[ExtendingDatum, Algebra]:
    """The one-dimensional extension of a verified flag datum.

    Raises ValueError naming the failing conditions when the datum does
    not verify.
    """
    report = verify_flag(fd)
    if not report.passed:
        bad = ", ".join(r.label for r in report.failing())
        raise ValueError(f"flag conditions fail: {bad}")
    d = flag_to_datum(fd)
    return d, build_unified(d, force=True)


@dataclass(frozen=True)
class SolutionFamily:
    """Solutions of a reduced one-map system: the linear solution space
    as a basis of matrices, plus the quadratic residual polynomials in
    the family parameters t1..tp.  A concrete solution is sum(t_i B_i)
    with every residual vanishing at t."""

    linear_basis: tuple[Matrix, ...]
    residuals: tuple[MultiPoly, ...]

    @property
    def dim(self) -> int:
        return len(self.linear_basis)


def _reduced_system(z: Algebra, mu: Vec, mode: str) -> Matrix:
    # Every condition is linear in the unknown X, so its coefficients are
    # read straight off the structure constants.  Rows: mu(X(e_i)) = 0 for
    # each i, then the two pair families, each at (i, j, k) for the k-th
    # coordinate of the condition on (e_i, e_j).  X_ab sits in column
    # a n + b.
    n = z.dim
    mult = [[z.basis_product(i, j) for j in range(n)] for i in range(n)]

    def image(v, k):            # X(v)_k
        return ((b * n + k, v[b]) for b in range(n))

    def left(i, j, k):          # (X(e_i).e_j)_k
        return ((i * n + b, mult[b][j][k]) for b in range(n))

    def right(i, j, k):         # (e_i.X(e_j))_k
        return ((j * n + b, mult[i][b][k]) for b in range(n))

    def row(plus=(), minus=()):
        out = [ZERO] * (n * n)
        for col, c in plus:
            if c:
                out[col] += c
        for col, c in minus:
            if c:
                out[col] -= c
        return out

    rows = [row((i * n + b, mu[b]) for b in range(n)) for i in range(n)]
    first, second = [], []
    for i, j, k in itertools.product(range(n), repeat=3):
        if mode == "D":
            # x.D(y) = 0
            first.append(row(right(i, j, k)))
            # F3: D(x.y) + D(y.x) = D(x).y + mu(x) D(y)
            second.append(row(
                itertools.chain(image(mult[i][j], k), image(mult[j][i], k)),
                itertools.chain(left(i, j, k), [(j * n + k, mu[i])])))
        else:
            # F4: T(x.y) = T(x).y
            first.append(row(image(mult[i][j], k), left(i, j, k)))
            # F4x: T(x).y = x.T(y) + mu(y) T(x)
            second.append(row(
                left(i, j, k),
                itertools.chain(right(i, j, k), [(i * n + k, mu[j])])))
    rows += first + second
    return Matrix(len(rows), n * n, tuple(itertools.chain.from_iterable(rows)))


def solve_reduced(z: Algebra, mu, mode: str) -> SolutionFamily:
    """Reduced flag-datum system for a single unknown map on z.

    mode "D": solve for D with T = 0, x0 = 0, k0 = 0.  Linear part:
    mu(D(x)) = 0, x.D(y) = 0, and D(x.y) + D(y.x) = D(x).y + mu(x) D(y),
    on all basis pairs; quadratic part D^2 = 0.

    mode "T": solve for T with D = 0, x0 = 0, k0 = 0.  Linear part:
    mu(T(x)) = 0, T(x.y) = T(x).y, and T(x).y = x.T(y) + mu(y) T(x);
    quadratic part T^2 = 0.

    mu is taken as given and is not itself checked here; feed it to
    mu_constraints to see what F1 demands of it.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    if not is_zinbiel(z).passed:
        raise ValueError("base algebra must be Zinbiel")
    n = z.dim
    mu = tuple(rat(c) for c in mu)
    if len(mu) != n:
        raise ValueError("mu must be a length-n functional")
    system = _reduced_system(z, mu, mode)
    basis = [Matrix.from_rows([list(v[i * n:(i + 1) * n]) for i in range(n)])
             for v in nullspace(system)]
    residuals = poly_expand_quadratic(basis, "square-is-zero")
    return SolutionFamily(tuple(basis), tuple(residuals))


def mu_constraints(z: Algebra) -> list[MultiPoly]:
    """What F1 demands of mu on z: for each basis pair, the polynomial
    mu(e_i.e_j) + mu(e_j.e_i) - mu_i mu_j in variables mu1..mun,
    normalized, with zeros and duplicates dropped."""
    if not is_zinbiel(z).passed:
        raise ValueError("base algebra must be Zinbiel")
    n = z.dim
    variables = tuple(f"mu{i + 1}" for i in range(n))
    out = []
    seen = set()
    for i in range(n):
        for j in range(n):
            terms = {}
            both = vadd(z.basis_product(i, j), z.basis_product(j, i))
            for k, c in enumerate(both):
                if c != 0:
                    exps = tuple(1 if a == k else 0 for a in range(n))
                    terms[exps] = terms.get(exps, ZERO) + c
            sq = tuple((2 if a == i else 0) if i == j else
                       (1 if a in (i, j) else 0) for a in range(n))
            terms[sq] = terms.get(sq, ZERO) - rat(1)
            poly = MultiPoly.from_terms(variables, terms).normalized()
            if poly.is_zero() or poly.terms in seen:
                continue
            seen.add(poly.terms)
            out.append(poly)
    return out


@dataclass(frozen=True)
class FlagEquivalenceWitness:
    """The data of an equivalence of one-dimensional extensions fixing
    the base pointwise: s(u) = q u with q nonzero, r(u) = r_vec in Z."""

    q: Fraction
    r_vec: Vec

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")


def flag_equivalent(fd: FlagDatum, fd2: FlagDatum,
                    w: FlagEquivalenceWitness) -> bool:
    """Are two flag datums on the same base equivalent through w?

    Checks the specialized relations (writing r for w.r_vec, q for w.q,
    primes for fd2):

        mu = mu'
        D(x) = q D'(x) + r.x - mu(x) r
        T(x) = q T'(x) + x.r
        k0 = q k0' + mu'(r)
        x0 = q^2 x0' + r.r - k0 r + q T'(r) + q D'(r)

    and cross-checks the verdict against the general datum equivalence
    on the induced extending datums; a disagreement between the two is a
    ConsistencyError, never a valid outcome.
    """
    if fd.base != fd2.base:
        raise ValueError("flag datums must share the base algebra")
    n = fd.base.dim
    q, r = w.q, w.r_vec
    if len(r) != n:
        raise ValueError("r_vec must be a base coordinate vector")
    e = fd.base.unit
    prod = fd.base.product
    mu2_r = fd2.mu_at(r)

    ok = fd.mu == fd2.mu
    if ok:
        for i in range(n):
            want_d = vadd(vscale(q, fd2.D.apply(e(i))),
                          vsub(prod(r, e(i)), vscale(fd.mu[i], r)))
            want_t = vadd(vscale(q, fd2.T.apply(e(i))), prod(e(i), r))
            if fd.D.apply(e(i)) != want_d or fd.T.apply(e(i)) != want_t:
                ok = False
                break
    if ok:
        ok = fd.k0 == q * fd2.k0 + mu2_r
    if ok:
        want_x0 = vadd(vscale(q * q, fd2.x0), prod(r, r))
        want_x0 = vsub(want_x0, vscale(fd.k0, r))
        want_x0 = vadd(want_x0, vscale(q, fd2.T.apply(r)))
        want_x0 = vadd(want_x0, vscale(q, fd2.D.apply(r)))
        ok = fd.x0 == want_x0

    pair = MorphismPair(Matrix.from_rows([list(r)]), Matrix.from_rows([[q]]))
    general = datums_equivalent(flag_to_datum(fd), flag_to_datum(fd2), pair)
    if general != ok:
        raise ConsistencyError(
            "specialized flag relations disagree with the general datum "
            f"equivalence: {ok} vs {general}")
    return ok
