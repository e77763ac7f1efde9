"""Built-in fixtures.

Six 3-dimensional Zinbiel algebras A1..A6, the one-dimensional flag-datum
families over them (D*, T*), and the derived 4-dimensional extensions
(DA*, TA*) constructed from those datums.  Parameters are supplied as a
{name: rational} map; every required parameter must be given explicitly.

The flag families are transcriptions of a published classification and
are kept exactly as recorded, parameters, functionals and all.  Many of
them do not actually satisfy the flag conditions (verify_flag rejects
every family whose functional is nonzero), so the derived DA/TA algebras
are built through the forced unified product rather than the checked
constructor; the check reports remain available to anyone who asks.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Algebra
from .exactlin import Matrix, rat, vzero
from .extending import ExtendingDatum, build_unified
from .flag import FlagDatum, flag_to_datum


class FixtureError(ValueError):
    """Unknown fixture id, missing parameter, or parameter out of range."""


def _params(raw, required):
    raw = dict(raw or {})
    out = {}
    for name in required:
        if name not in raw:
            raise FixtureError(f"missing parameter {name!r}")
        out[name] = rat(raw.pop(name))
    if raw:
        unknown = ", ".join(sorted(raw))
        raise FixtureError(f"unknown parameter(s): {unknown}")
    return out


def _alg(products):
    return Algebra.from_products(3, products)


HALF = Fraction(1, 2)

_ALGEBRA_BUILDERS = {
    "A1": ((), lambda p: _alg({(1, 1): {3: 1}})),
    "A2": ((), lambda p: _alg({(1, 1): {3: 1}, (2, 2): {3: 1}})),
    "A3": ((), lambda p: _alg({(1, 2): {3: HALF}, (2, 1): {3: -HALF}})),
    "A4": ((), lambda p: _alg({(2, 1): {3: 1}})),
    "A5": (("lambda",), lambda p: _alg(
        {(1, 1): {3: 1}, (1, 2): {3: 1}, (2, 2): {3: p["lambda"]}})),
    "A6": ((), lambda p: _alg(
        {(1, 1): {2: 1}, (1, 2): {3: HALF}, (2, 1): {3: 1}})),
}


def base_algebra_ids() -> list[str]:
    return sorted(_ALGEBRA_BUILDERS)


def get_base_algebra(fixture_id: str, params=None) -> Algebra:
    if fixture_id not in _ALGEBRA_BUILDERS:
        raise FixtureError(f"unknown algebra id: {fixture_id}")
    required, build = _ALGEBRA_BUILDERS[fixture_id]
    p = _params(params, required)
    if fixture_id == "A5" and p["lambda"] == 0:
        raise FixtureError("A5 requires lambda != 0")
    return build(p)


def _require_nonzero(p, *names):
    for name in names:
        if p[name] == 0:
            raise FixtureError(f"{name} must be nonzero here")


def _rows(n, entries):
    rows = [[rat(0)] * n for _ in range(n)]
    for (i, j), c in entries.items():
        rows[i - 1][j - 1] = c
    return Matrix.from_rows(rows)


def _flag(base_id, base_params, mu, d_entries=None, t_entries=None):
    base = get_base_algebra(base_id, base_params)
    n = base.dim
    return FlagDatum(base, vzero(n), rat(0), tuple(rat(c) for c in mu),
                     _rows(n, d_entries or {}), _rows(n, t_entries or {}))


# One builder per family: required parameter names, then the datum.  The
# functionals and map entries are kept exactly as recorded; parameters
# appearing in a denominator must be nonzero.
def _d1(p):
    _require_nonzero(p, "mu1")
    m1, a = p["mu1"], p["a21"]
    return _flag("A1", None, (m1, 0, m1 * m1 / 2),
                 d_entries={(2, 1): a, (2, 3): -2 * a / m1})


def _d2(p):
    m1 = p["mu1"]
    return _flag("A2", None, (m1, 0, m1 * m1 / 2))


def _d31(p):
    return _flag("A3", None, (0, p["mu2"], p["mu3"]),
                 d_entries={(2, 1): p["a21"], (3, 1): p["a31"]})


def _d32(p):
    return _flag("A3", None, (p["mu1"], 0, p["mu3"]),
                 d_entries={(1, 2): p["a12"], (3, 2): p["a32"]})


def _d41(p):
    return _flag("A4", None, (p["mu1"], p["mu2"], p["mu1"] * p["mu2"]),
                 d_entries={(2, 1): p["a21"], (2, 3): p["a23"]})


def _d42(p):
    m2, a = p["mu2"], p["a12"]
    return _flag("A4", None, (p["mu1"], m2, p["mu1"] * m2),
                 d_entries={(1, 2): a, (3, 2): m2 * a})


def _d5(p):
    return _flag("A5", {"lambda": p["lambda"]}, (0, 0, 0),
                 d_entries={(1, 3): p["a13"], (2, 3): p["a23"]})


def _d6(p):
    m1 = p["mu1"]
    return _flag("A6", None, (m1, m1 * m1 / 2, m1 ** 3 / 3))


def _t11(p):
    _require_nonzero(p, "mu1")
    m1, b = p["mu1"], p["b21"]
    return _flag("A1", None, (m1, p["mu2"], m1 * m1 / 2),
                 t_entries={(2, 1): b, (2, 3): -2 * b / m1})


def _t12(p):
    _require_nonzero(p, "mu1")
    m1, m2, b = p["mu1"], p["mu2"], p["b12"]
    return _flag("A1", None, (m1, m2, m1 * m1 / 2),
                 t_entries={(1, 2): b, (1, 3): -2 * m2 * b / (m1 * m1)})


def _t21(p):
    _require_nonzero(p, "mu1")
    m1, b = p["mu1"], p["b21"]
    return _flag("A2", None, (m1, m1, m1 * m1 / 2),
                 t_entries={(2, 1): b, (2, 3): -2 * b / m1})


def _t22(p):
    _require_nonzero(p, "mu1")
    m1, b = p["mu1"], p["b12"]
    return _flag("A2", None, (m1, m1, m1 * m1 / 2),
                 t_entries={(1, 2): b, (1, 3): -2 * b / m1})


def _t31(p):
    return _flag("A3", None, (0, p["mu2"], p["mu3"]),
                 t_entries={(2, 1): p["b21"]})


def _t32(p):
    _require_nonzero(p, "mu3")
    m2, m3, b = p["mu2"], p["mu3"], p["b12"]
    return _flag("A3", None, (0, m2, m3),
                 t_entries={(1, 2): b, (1, 3): -m2 * b / m3})


def _t33(p):
    _require_nonzero(p, "mu3")
    m1, m3, b = p["mu1"], p["mu3"], p["b21"]
    return _flag("A3", None, (m1, 0, m3),
                 t_entries={(2, 1): b, (2, 3): -m1 * b / m3})


def _t34(p):
    return _flag("A3", None, (p["mu1"], 0, p["mu3"]),
                 t_entries={(1, 2): p["b12"]})


def _t41(p):
    _require_nonzero(p, "mu2")
    m2, b = p["mu2"], p["b21"]
    return _flag("A4", None, (p["mu1"], m2, p["mu1"] * m2),
                 t_entries={(2, 1): b, (2, 3): -b / m2})


def _t42(p):
    _require_nonzero(p, "mu1", "mu2")
    m1, m2 = p["mu1"], p["mu2"]
    b11, b12 = p["b11"], p["b12"]
    return _flag("A4", None, (m1, m2, m1 * m2),
                 t_entries={(1, 1): b11, (1, 2): b12,
                            (1, 3): -(b11 / m2 + b12 / m1)})


def _t51(p):
    return _flag("A5", {"lambda": p["lambda"]}, (0, 0, 0),
                 t_entries={(2, 3): p["b23"]})


def _t52(p):
    m1 = p["mu1"]
    return _flag("A5", {"lambda": p["lambda"]}, (m1, m1 / 2, m1 * m1 / 2))


def _t6(p):
    m1 = p["mu1"]
    return _flag("A6", None, (m1, m1 * m1 / 2, m1 ** 3 / 3))


_FLAG_BUILDERS = {
    "D1": (("mu1", "a21"), _d1),
    "D2": (("mu1",), _d2),
    "D31": (("mu2", "mu3", "a21", "a31"), _d31),
    "D32": (("mu1", "mu3", "a12", "a32"), _d32),
    "D41": (("mu1", "mu2", "a21", "a23"), _d41),
    "D42": (("mu1", "mu2", "a12"), _d42),
    "D5": (("lambda", "a13", "a23"), _d5),
    "D6": (("mu1",), _d6),
    "T11": (("mu1", "mu2", "b21"), _t11),
    "T12": (("mu1", "mu2", "b12"), _t12),
    "T21": (("mu1", "b21"), _t21),
    "T22": (("mu1", "b12"), _t22),
    "T31": (("mu2", "mu3", "b21"), _t31),
    "T32": (("mu2", "mu3", "b12"), _t32),
    "T33": (("mu1", "mu3", "b21"), _t33),
    "T34": (("mu1", "mu3", "b12"), _t34),
    "T41": (("mu1", "mu2", "b21"), _t41),
    "T42": (("mu1", "mu2", "b11", "b12"), _t42),
    "T51": (("lambda", "b23"), _t51),
    "T52": (("lambda", "mu1"), _t52),
    "T6": (("mu1",), _t6),
}


def flag_family_ids() -> list[str]:
    return sorted(_FLAG_BUILDERS)


def extension_ids() -> list[str]:
    return sorted("DA" + f[1:] if f.startswith("D") else "TA" + f[1:]
                  for f in _FLAG_BUILDERS)


def required_params(fixture_id: str) -> tuple[str, ...]:
    if fixture_id in _ALGEBRA_BUILDERS:
        return tuple(_ALGEBRA_BUILDERS[fixture_id][0])
    key = _flag_key(fixture_id)
    if key is None:
        raise FixtureError(f"unknown fixture id: {fixture_id}")
    return tuple(_FLAG_BUILDERS[key][0])


def _flag_key(fixture_id: str):
    if fixture_id in _FLAG_BUILDERS:
        return fixture_id
    if fixture_id.startswith(("DA", "TA")):
        key = fixture_id[0] + fixture_id[2:]
        if key in _FLAG_BUILDERS:
            return key
    return None


def get_flag_datum(fixture_id: str, params=None) -> FlagDatum:
    key = _flag_key(fixture_id)
    if key is None:
        raise FixtureError(f"unknown flag-family id: {fixture_id}")
    required, build = _FLAG_BUILDERS[key]
    return build(_params(params, required))


def get_extension_datum(fixture_id: str, params=None) -> ExtendingDatum:
    return flag_to_datum(get_flag_datum(fixture_id, params))


def get_algebra(fixture_id: str, params=None) -> Algebra:
    """Any catalog algebra: a base A*, or a 4-dimensional DA*/TA*.

    The extensions are built from their flag datums through the forced
    unified product; whether the result is Zinbiel is the datum's
    problem, not the constructor's.
    """
    if fixture_id in _ALGEBRA_BUILDERS:
        return get_base_algebra(fixture_id, params)
    if fixture_id.startswith(("DA", "TA")):
        return build_unified(get_extension_datum(fixture_id, params), force=True)
    raise FixtureError(f"unknown fixture id: {fixture_id}")


def all_ids() -> list[str]:
    return base_algebra_ids() + flag_family_ids() + extension_ids()
