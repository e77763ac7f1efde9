import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinbiel.catalog import get_base_algebra
from zinbiel.core import Algebra, change_of_basis, is_zinbiel
from zinbiel.exactlin import (Matrix, Tensor3, poly_expand_quadratic, rat,
                              rref, vadd, vscale, vsub, vzero)
from zinbiel.extending import build_unified
from zinbiel.flag import (FLAG_LABELS, FlagDatum, FlagEquivalenceWitness,
                          SolutionFamily, build_flag_extension,
                          _reduced_system, flag_equivalent, flag_to_datum,
                          mu_constraints, solve_reduced, verify_flag)

A1 = get_base_algebra("A1")
A2 = get_base_algebra("A2")
A3 = get_base_algebra("A3")
A4 = get_base_algebra("A4")
A6 = get_base_algebra("A6")


def a5(lam=1):
    return get_base_algebra("A5", {"lambda": lam})


def fd_on(base, x0=None, k0=0, mu=None, d_rows=None, t_rows=None):
    n = base.dim
    zero_rows = [[0] * n for _ in range(n)]
    return FlagDatum(
        base,
        tuple(rat(c) for c in (x0 or [0] * n)),
        rat(k0),
        tuple(rat(c) for c in (mu or [0] * n)),
        Matrix.from_rows(d_rows or zero_rows),
        Matrix.from_rows(t_rows or zero_rows),
    )


def d1_instance(mu1=2, a21=3):
    # the a21-family on A1: D(e2) = a21 e1 - (2 a21 / mu1) e3
    mu1, a21 = rat(mu1), rat(a21)
    return fd_on(A1, mu=[mu1, 0, mu1 * mu1 / 2],
                 d_rows=[[0, 0, 0], [a21, 0, -2 * a21 / mu1], [0, 0, 0]])


E13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
E23 = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
ID3 = Matrix.identity(3)


class TestVerifyFlag:
    def test_zero_datum_passes(self):
        report = verify_flag(FlagDatum.zero(A1))
        assert report.passed
        assert tuple(r.label for r in report.condition_results) == FLAG_LABELS

    def test_base_must_be_zinbiel(self):
        bad = Algebra(1, Tensor3.from_map(1, 1, 1, {(0, 0, 0): 1}))
        with pytest.raises(ValueError, match="base algebra must be Zinbiel"):
            verify_flag(FlagDatum.zero(bad))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="x0"):
            FlagDatum(A1, (0,), rat(0), vzero(3),
                      Matrix.zero(3, 3), Matrix.zero(3, 3))
        with pytest.raises(ValueError, match="mu"):
            FlagDatum(A1, vzero(3), rat(0), vzero(2),
                      Matrix.zero(3, 3), Matrix.zero(3, 3))
        with pytest.raises(ValueError, match="D"):
            FlagDatum(A1, vzero(3), rat(0), vzero(3),
                      Matrix.zero(2, 3), Matrix.zero(3, 3))

    def test_d1_instance_failure_detail(self):
        # The a21-family instance at mu1=2, a21=3 is not a flag datum:
        # F1, F3, and the cross condition all break, and the failures
        # match the extension not being Zinbiel.
        report = verify_flag(d1_instance())
        assert not report.passed
        failing = {r.label: r.witness for r in report.failing()}
        assert set(failing) == {"F1", "F3", "F4x"}
        assert failing["F1"].basis_tuple == (1, 3)
        assert failing["F1"].lhs_value == (0,)
        assert failing["F1"].rhs_value == (4,)
        assert failing["F3"].basis_tuple == (1, 2)
        assert failing["F3"].lhs_value == (0, 0, 0)
        assert failing["F3"].rhs_value == (6, 0, -6)
        assert failing["F4x"].basis_tuple == (1, 2)
        assert failing["F4x"].rhs_value == (0, 0, 3)
        ext = build_unified(flag_to_datum(d1_instance()), force=True)
        assert not is_zinbiel(ext).passed

    @pytest.mark.xfail(
        strict=True,
        reason="recorded as a valid family instance, but the conditions "
               "genuinely fail and its extension is not Zinbiel")
    def test_d1_instance_recorded_as_passing(self):
        assert verify_flag(d1_instance()).passed

    def test_f1_counterexample(self):
        report = verify_flag(fd_on(A1, mu=[2, 0, 1]))
        f1 = report.condition_results[0]
        assert f1.label == "F1"
        assert not f1.passed
        assert f1.witness.basis_tuple == (1, 1)
        assert f1.witness.lhs_value == (2,)
        assert f1.witness.rhs_value == (4,)

    def test_oracle_equivalence_random(self):
        # verify_flag must agree with the Zinbiel check on the built
        # extension, datum by datum.
        rng = random.Random(20260822)
        bases = [A1, A2, A3, A4, a5(1), A6, Algebra(3, Tensor3.zero(3, 3, 3))]
        values = [rat(0), rat(0), rat(1), rat(-1), Fraction(1, 2), rat(2)]

        def vec(n):
            return tuple(rng.choice(values) for _ in range(n))

        def sparse(n):
            rows = [[rat(0)] * n for _ in range(n)]
            for _ in range(rng.randrange(4)):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(values)
            return Matrix.from_rows(rows)

        datums = [FlagDatum.zero(b) for b in bases]
        datums.append(fd_on(a5(1), d_rows=[[0, 0, 1], [0, 0, 2], [0, 0, 0]]))
        for _ in range(120):
            base = rng.choice(bases)
            n = base.dim
            datums.append(FlagDatum(base, vec(n), rng.choice(values), vec(n),
                                    sparse(n), sparse(n)))
        passed = 0
        for fd in datums:
            flag_ok = verify_flag(fd).passed
            ext_ok = is_zinbiel(build_unified(flag_to_datum(fd), force=True)).passed
            assert flag_ok == ext_ok
            passed += flag_ok
        assert 0 < passed < len(datums)


class TestBuildExtension:
    def test_zero_datum_gives_null_line(self):
        d, alg = build_flag_extension(FlagDatum.zero(A1))
        assert alg.dim == 4
        assert alg.mult == Tensor3.from_map(4, 4, 4, {(0, 0, 2): 1})
        assert d.dimV == 1

    def test_d5_instance(self):
        fd = fd_on(a5(1), d_rows=[[0, 0, 1], [0, 0, 2], [0, 0, 0]])
        d, alg = build_flag_extension(fd)
        expected = Tensor3.from_map(4, 4, 4, {
            (0, 0, 2): 1, (0, 1, 2): 1, (1, 1, 2): 1,   # A5 at lambda=1
            (3, 0, 2): 1, (3, 1, 2): 2,                 # u o x = D(x)
        })
        assert alg.mult == expected
        assert is_zinbiel(alg).passed

    def test_datum_components(self):
        fd = fd_on(A6, x0=[0, 1, 0], k0=5, mu=[1, 2, 3],
                   t_rows=[[0, 0, 0], [7, 0, 0], [0, 0, 0]],
                   d_rows=[[0, 4, 0], [0, 0, 0], [0, 0, 0]])
        d = flag_to_datum(fd)
        assert d.actL.at(0, 0, 0) == 1
        assert d.actL.at(0, 2, 0) == 3
        assert d.actR.is_zero()
        assert d.projL.at(1, 0, 0) == 7      # e2 -| u = T(e2) = 7 e1
        assert d.projR.at(0, 0, 1) == 4      # u |- e1 = D(e1) = 4 e2
        assert d.omega.at(0, 0, 1) == 1
        assert d.star.at(0, 0, 0) == 5

    def test_invalid_datum_rejected(self):
        with pytest.raises(ValueError, match="flag conditions fail:.*F3"):
            build_flag_extension(d1_instance())

    @pytest.mark.xfail(
        strict=True,
        reason="the recorded 4-dimensional family cannot be built from a "
               "verified datum; its defining data fails the conditions")
    def test_recorded_4dim_family_instance_builds(self):
        _, alg = build_flag_extension(d1_instance())
        assert alg.dim == 4


class TestSolveReduced:
    def test_d_case_a1(self):
        fam = solve_reduced(A1, (2, 0, 2), "D")
        assert fam.linear_basis == ()
        assert fam.residuals == ()
        assert fam.dim == 0

    def test_d_case_a2(self):
        fam = solve_reduced(A2, (1, 0, Fraction(1, 2)), "D")
        assert fam.dim == 0 and fam.residuals == ()

    def test_d_case_a3(self):
        assert solve_reduced(A3, (0, 1, 1), "D").dim == 0

    def test_d_case_a4(self):
        assert solve_reduced(A4, (1, 1, 1), "D").dim == 0
        assert solve_reduced(A4, (0, 1, 0), "D").dim == 0

    @pytest.mark.parametrize("lam", [1, 2, Fraction(-7, 3)])
    def test_d_case_a5(self, lam):
        fam = solve_reduced(a5(lam), (0, 0, 0), "D")
        assert fam.linear_basis == (E13, E23)
        assert fam.residuals == ()

    def test_d_case_a6(self):
        assert solve_reduced(A6, (1, Fraction(1, 2), Fraction(1, 3)), "D").dim == 0

    def test_t_case_a1(self):
        fam = solve_reduced(A1, (1, 0, Fraction(1, 2)), "T")
        assert fam.dim == 0

    def test_t_case_a5(self):
        fam = solve_reduced(a5(1), (0, 0, 0), "T")
        assert fam.linear_basis == (E13, E23, ID3)
        assert [str(p) for p in fam.residuals] == ["t3^2", "t2*t3", "t1*t3"]

    def test_t_case_a6(self):
        assert solve_reduced(A6, (1, Fraction(1, 2), Fraction(1, 3)), "T").dim == 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="mode"):
            solve_reduced(A1, (0, 0, 0), "X")
        with pytest.raises(ValueError, match="length"):
            solve_reduced(A1, (0, 0), "D")
        bad = Algebra(1, Tensor3.from_map(1, 1, 1, {(0, 0, 0): 1}))
        with pytest.raises(ValueError, match="Zinbiel"):
            solve_reduced(bad, (0,), "D")

    @pytest.mark.parametrize("point", [(1, 2), (-3, 5), (Fraction(7, 2), 0)])
    def test_d_case_a5_points_lift(self, point):
        fam = solve_reduced(a5(1), (0, 0, 0), "D")
        mat = fam.linear_basis[0].scale(rat(point[0])).add(
            fam.linear_basis[1].scale(rat(point[1])))
        fd = FlagDatum(a5(1), vzero(3), rat(0), vzero(3), mat, Matrix.zero(3, 3))
        assert verify_flag(fd).passed

    def test_t_case_a5_residuals_gate_lifts(self):
        fam = solve_reduced(a5(1), (0, 0, 0), "T")

        def lift(point):
            mat = Matrix.zero(3, 3)
            for c, b in zip(point, fam.linear_basis):
                mat = mat.add(b.scale(rat(c)))
            return FlagDatum(a5(1), vzero(3), rat(0), vzero(3),
                             Matrix.zero(3, 3), mat)

        good, bad = (2, -1, 0), (0, 0, 1)
        assert all(p.evaluate(good) == 0 for p in fam.residuals)
        assert verify_flag(lift(good)).passed
        assert [p.evaluate(bad) for p in fam.residuals] == [1, 0, 0]
        assert not verify_flag(lift(bad)).passed


def elementary_system(z, mu, mode):
    """Reference assembly: every linear condition of the reduced system
    evaluated at each elementary matrix E_ab gives column a n + b."""
    n = z.dim
    e, prod = z.unit, z.product
    pairs = list(itertools.product(range(n), range(n)))

    def mu_comp(m):
        return [sum((c * w for c, w in zip(m.apply(e(i)), mu)), Fraction(0))
                for i in range(n)]

    def left_mult(m):       # x.D(y) = 0
        return [c for i, j in pairs for c in prod(e(i), m.apply(e(j)))]

    def f3(m):              # D(x.y) + D(y.x) = D(x).y + mu(x) D(y)
        return [c for i, j in pairs for c in vsub(
            vadd(m.apply(prod(e(i), e(j))), m.apply(prod(e(j), e(i)))),
            vadd(prod(m.apply(e(i)), e(j)), vscale(mu[i], m.apply(e(j)))))]

    def f4(m):              # T(x.y) = T(x).y
        return [c for i, j in pairs for c in vsub(
            m.apply(prod(e(i), e(j))), prod(m.apply(e(i)), e(j)))]

    def f4x(m):             # T(x).y = x.T(y) + mu(y) T(x)
        return [c for i, j in pairs for c in vsub(
            prod(m.apply(e(i)), e(j)),
            vadd(prod(e(i), m.apply(e(j))), vscale(mu[j], m.apply(e(i)))))]

    conds = (mu_comp, left_mult, f3) if mode == "D" else (mu_comp, f4, f4x)
    columns = []
    for a, b in pairs:
        unit = Matrix.from_rows([[int((r, c) == (a, b)) for c in range(n)]
                                 for r in range(n)])
        columns.append([v for cond in conds for v in cond(unit)])
    return Matrix.from_rows(list(zip(*columns)))


def reference_family(z, mu, mode):
    """Reference solve: elementary-matrix assembly, then the nullspace
    read off rref and scaled to primitive integer vectors."""
    n = z.dim
    system = elementary_system(z, mu, mode)
    red, pivots = rref(system)
    basis = []
    for fc in (c for c in range(n * n) if c not in pivots):
        v = [Fraction(0)] * (n * n)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        basis.append(Matrix(n, n, tuple(Fraction(x // g) for x in ints)))
    return system, basis, poly_expand_quadratic(basis)


def free_zinbiel(n):
    """F_n: e_i.e_j = C(i+j-1, i-1) e_{i+j} for i + j <= n."""
    return Algebra(n, Tensor3.from_map(n, n, n, {
        (i - 1, j - 1, i + j - 1): comb(i + j - 1, i - 1)
        for i in range(1, n) for j in range(1, n + 1 - i)}))


ORACLE_BASES = [A1, A2, A3, A4, a5(1), a5(Fraction(-7, 3)), A6,
                free_zinbiel(3), free_zinbiel(4), free_zinbiel(5)]


@st.composite
def reduced_systems(draw):
    """A base in a basis of random signs, a functional (zero half the
    time) and a mode."""
    base = draw(st.sampled_from(ORACLE_BASES))
    n = base.dim
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    z = change_of_basis(base, Matrix.from_rows(
        [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    mu = draw(st.one_of(st.just((Fraction(0),) * n),
                        st.tuples(*[values] * n)))
    return z, mu, draw(st.sampled_from(["D", "T"]))


@given(reduced_systems())
@settings(max_examples=40, deadline=None)
def test_solve_reduced_matches_elementary_matrix_route(case):
    z, mu, mode = case
    system, basis, residuals = reference_family(z, mu, mode)
    assert _reduced_system(z, mu, mode) == system
    fam = solve_reduced(z, mu, mode)
    assert fam.linear_basis == tuple(basis)
    assert fam.residuals == tuple(residuals)


class TestMuConstraints:
    def test_null_algebra(self):
        z = Algebra(3, Tensor3.zero(3, 3, 3))
        assert [str(p) for p in mu_constraints(z)] == [
            "mu1^2", "mu1*mu2", "mu1*mu3", "mu2^2", "mu2*mu3", "mu3^2"]

    def test_a1(self):
        assert [str(p) for p in mu_constraints(A1)] == [
            "mu1^2 - 2*mu3", "mu1*mu2", "mu1*mu3", "mu2^2", "mu2*mu3", "mu3^2"]

    def test_a3_forces_mu1_mu2(self):
        strings = [str(p) for p in mu_constraints(A3)]
        assert "mu1*mu2" in strings
        # the antisymmetric products cancel in the symmetrized sum, so
        # the system coincides with the null-product one
        assert strings == [
            "mu1^2", "mu1*mu2", "mu1*mu3", "mu2^2", "mu2*mu3", "mu3^2"]

    def test_only_zero_solves_a1(self):
        polys = mu_constraints(A1)
        assert all(p.evaluate((0, 0, 0)) == 0 for p in polys)
        values = [p.evaluate((2, 0, 2)) for p in polys]
        assert any(v != 0 for v in values)

    def test_base_must_be_zinbiel(self):
        bad = Algebra(1, Tensor3.from_map(1, 1, 1, {(0, 0, 0): 1}))
        with pytest.raises(ValueError, match="Zinbiel"):
            mu_constraints(bad)

    @pytest.mark.xfail(
        strict=True,
        reason="the recorded family functionals do not all satisfy the "
               "product constraint system; only the zero functional does "
               "on these bases")
    def test_recorded_family_functionals_satisfy_constraints(self):
        half = Fraction(1, 2)
        recorded = [
            (A1, (2, 0, 2)),
            (A2, (1, 0, half)),
            (A3, (0, 1, 1)),
            (A3, (1, 0, 1)),
            (A4, (1, 1, 1)),
            (a5(1), (0, 0, 0)),
            (A6, (1, half, Fraction(1, 3))),
        ]
        for z, mu in recorded:
            assert all(p.evaluate(mu) == 0 for p in mu_constraints(z))


def transport(fd2, q, r_vec):
    """Build the datum equivalent to fd2 through (q, r)."""
    base = fd2.base
    n = base.dim
    q = rat(q)
    r = tuple(rat(c) for c in r_vec)
    e = base.unit
    prod = base.product
    d_rows = [vadd(vscale(q, fd2.D.apply(e(i))),
                   vsub(prod(r, e(i)), vscale(fd2.mu[i], r)))
              for i in range(n)]
    t_rows = [vadd(vscale(q, fd2.T.apply(e(i))), prod(e(i), r))
              for i in range(n)]
    k0 = q * fd2.k0 + fd2.mu_at(r)
    x0 = vadd(vscale(q * q, fd2.x0), prod(r, r))
    x0 = vsub(x0, vscale(k0, r))
    x0 = vadd(x0, vscale(q, fd2.T.apply(r)))
    x0 = vadd(x0, vscale(q, fd2.D.apply(r)))
    return FlagDatum(base, x0, k0, fd2.mu,
                     Matrix.from_rows([list(v) for v in d_rows]),
                     Matrix.from_rows([list(v) for v in t_rows]))


class TestFlagEquivalent:
    def test_reflexive(self):
        w = FlagEquivalenceWitness(rat(1), vzero(3))
        for fd in [FlagDatum.zero(A1), d1_instance(),
                   fd_on(A6, x0=[1, 0, 2], k0=3, mu=[0, 1, 0],
                         t_rows=[[1, 0, 0], [0, 0, 0], [0, 2, 0]])]:
            assert flag_equivalent(fd, fd, w)

    def test_null_base_any_scale(self):
        z = Algebra(1, Tensor3.zero(1, 1, 1))
        fd = FlagDatum.zero(z)
        assert flag_equivalent(fd, fd, FlagEquivalenceWitness(rat(2), (rat(0),)))

    def test_a21_scaling(self):
        w = FlagEquivalenceWitness(rat(2), vzero(3))
        assert flag_equivalent(d1_instance(a21=6), d1_instance(a21=3), w)
        assert not flag_equivalent(d1_instance(a21=3), d1_instance(a21=6), w)

    def test_witness_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            FlagEquivalenceWitness(rat(0), vzero(3))
        with pytest.raises(ValueError, match="r_vec"):
            flag_equivalent(FlagDatum.zero(A1), FlagDatum.zero(A1),
                            FlagEquivalenceWitness(rat(1), vzero(2)))

    def test_bases_must_match(self):
        with pytest.raises(ValueError, match="share the base"):
            flag_equivalent(FlagDatum.zero(A1), FlagDatum.zero(A2),
                            FlagEquivalenceWitness(rat(1), vzero(3)))

    def test_transported_datums_are_equivalent(self):
        rng = random.Random(7)
        values = [rat(0), rat(1), rat(-1), rat(2), Fraction(1, 2)]
        qs = [rat(1), rat(-1), rat(2), Fraction(2, 3)]
        bases = [A1, A3, a5(1), A6]
        for _ in range(40):
            base = rng.choice(bases)
            n = base.dim
            fd2 = FlagDatum(
                base,
                tuple(rng.choice(values) for _ in range(n)),
                rng.choice(values),
                tuple(rng.choice(values) for _ in range(n)),
                Matrix.from_rows([[rng.choice(values) for _ in range(n)]
                                  for _ in range(n)]),
                Matrix.from_rows([[rng.choice(values) for _ in range(n)]
                                  for _ in range(n)]))
            q = rng.choice(qs)
            r = tuple(rng.choice(values) for _ in range(n))
            w = FlagEquivalenceWitness(q, r)
            fd = transport(fd2, q, r)
            assert flag_equivalent(fd, fd2, w)
            bumped = FlagDatum(base, vadd(fd.x0, base.unit(0)), fd.k0,
                               fd.mu, fd.D, fd.T)
            assert not flag_equivalent(bumped, fd2, w)
