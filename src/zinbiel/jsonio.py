"""JSON layouts for every structure the command line reads or writes.

Conventions, uniform across all payloads:

  * rationals are strings "p/q" or "p" in lowest terms; ints are accepted
    on input; floats are refused outright (they carry rounding error)
  * indices are 1-based, matching the e1, e2, ... basis naming
  * trilinear maps are sparse: {"i,j": {"k": "p/q"}}, omitted entries zero
  * structure fields that hold an all-zero map may be omitted entirely

Emitters build dicts in a fixed key order and drop zero entries, so the
serialized form of equal objects is identical and `dumps` output is byte
stable.  Parsers raise FormatError with a dotted field path naming the
offending spot.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Algebra, CheckReport
from .exactlin import Matrix, Tensor3, rat, rat_str, vzero
from .extending import ExtendingDatum
from .flag import FlagDatum, SolutionFamily
from .products import Bimodule, CrossedSystem, MatchedPair


class FormatError(ValueError):
    """The document is valid JSON but does not match the documented layout."""

    def __init__(self, path: str, message: str):
        self.path = path or "(top level)"
        super().__init__(f"{self.path}: {message}")


def dumps(data) -> str:
    """Canonical text form: two-space indent, keys in construction order."""
    return json.dumps(data, indent=2) + "\n"


# -- scalars and shapes ----------------------------------------------------

# Python's default limit on int-to-str conversion: a longer numerator or
# denominator could be read but not printed back.
MAX_DIGITS = 4300


def _digits(s: str) -> int:
    """An upper bound on the digits of Fraction(s), found without building
    it: the digits written plus the size of a decimal exponent."""
    mantissa, _, exponent = s.lower().partition("e")
    written = sum(c.isdecimal() for c in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not exponent.isdecimal():
        return written
    return written + (int(exponent) if len(exponent) <= 9 else 10 ** 9)


def _rational(x, path) -> Fraction:
    if isinstance(x, float):
        raise FormatError(path, "floats are not exact; write \"%r\" as a "
                          "rational string instead" % x)
    if isinstance(x, str) and _digits(x) > MAX_DIGITS:
        raise FormatError(path, f"more than {MAX_DIGITS} digits")
    try:
        return rat(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(path, f"not a rational: {exc}") from None


def _int(x, path, low=0) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(path, f"expected an integer, got {x!r}")
    if x < low:
        raise FormatError(path, f"must be at least {low}")
    return x


def _dict(x, path) -> dict:
    if not isinstance(x, dict):
        raise FormatError(path, f"expected an object, got {type(x).__name__}")
    return x


def _list(x, path) -> list:
    if not isinstance(x, list):
        raise FormatError(path, f"expected an array, got {type(x).__name__}")
    return x


def _index(key, path, upper) -> int:
    try:
        i = int(key)
    except (TypeError, ValueError):
        raise FormatError(path, f"index key {key!r} is not an integer") from None
    if not 1 <= i <= upper:
        raise FormatError(path, f"index {i} outside 1..{upper}")
    return i - 1


def _vector(data, n, path):
    items = _list(data, path)
    if len(items) != n:
        raise FormatError(path, f"expected {n} entries, got {len(items)}")
    return tuple(_rational(c, f"{path}[{k}]") for k, c in enumerate(items))


def _sparse_vector(data, n, path):
    out = list(vzero(n))
    for key, val in _dict(data, path).items():
        out[_index(key, path, n)] = _rational(val, f"{path}.{key}")
    return tuple(out)


def _matrix(data, rows, cols, path) -> Matrix:
    items = _list(data, path)
    if len(items) != rows:
        raise FormatError(path, f"expected {rows} rows, got {len(items)}")
    return Matrix.from_rows(
        [list(_vector(row, cols, f"{path}[{k}]")) for k, row in enumerate(items)])


def _tensor(data, dims, path) -> Tensor3:
    d1, d2, d3 = dims
    mapping = {}
    for key, inner in _dict(data, path).items():
        parts = str(key).split(",")
        if len(parts) != 2:
            raise FormatError(path, f"key {key!r} is not of the form \"i,j\"")
        i = _index(parts[0].strip(), path, d1)
        j = _index(parts[1].strip(), path, d2)
        here = f"{path}.{key}"
        for kk, val in _dict(inner, here).items():
            k = _index(kk, here, d3)
            c = _rational(val, f"{here}.{kk}")
            if c != 0:
                mapping[(i, j, k)] = c
    return Tensor3.from_map(d1, d2, d3, mapping)


def vector_json(v) -> list:
    return [rat_str(c) for c in v]


def sparse_vector_json(v) -> dict:
    return {str(i + 1): rat_str(c) for i, c in enumerate(v) if c != 0}


def matrix_json(m: Matrix) -> list:
    return [vector_json(m.row(i)) for i in range(m.rows)]


def tensor_json(t: Tensor3) -> dict:
    d1, d2, _ = t.dims
    out = {}
    for i in range(d1):
        for j in range(d2):
            row = {str(k + 1): rat_str(c)
                   for k, c in enumerate(t.slice_entry(i, j)) if c != 0}
            if row:
                out[f"{i + 1},{j + 1}"] = row
    return out


def _field(data, name, path):
    if name not in data:
        raise FormatError(path, f"missing field {name!r}")
    return data[name]


def _sub(path, name):
    return f"{path}.{name}" if path else name


# -- algebra ---------------------------------------------------------------

def algebra_to_json(a: Algebra) -> dict:
    out = {"dim": a.dim}
    if a.names is not None:
        out["names"] = list(a.names)
    out["products"] = tensor_json(a.mult)
    return out


def algebra_from_json(data, path="") -> Algebra:
    data = _dict(data, path)
    n = _int(_field(data, "dim", path), _sub(path, "dim"), low=1)
    names = None
    if "names" in data:
        raw = _list(data["names"], _sub(path, "names"))
        if len(raw) != n or not all(isinstance(s, str) for s in raw):
            raise FormatError(_sub(path, "names"), f"expected {n} strings")
        names = tuple(raw)
    mult = _tensor(data.get("products", {}), (n, n, n), _sub(path, "products"))
    return Algebra(n, mult, names)


# -- extending datum -------------------------------------------------------

_DATUM_DIMS = {
    "actL": lambda n, m: (m, n, m),
    "actR": lambda n, m: (n, m, m),
    "projL": lambda n, m: (n, m, n),
    "projR": lambda n, m: (m, n, n),
    "omega": lambda n, m: (m, m, n),
    "star": lambda n, m: (m, m, m),
}


def datum_to_json(d: ExtendingDatum) -> dict:
    out = {"base": algebra_to_json(d.base), "dimV": d.dimV}
    for name in _DATUM_DIMS:
        out[name] = tensor_json(getattr(d, name))
    return out


def datum_from_json(data, path="") -> ExtendingDatum:
    data = _dict(data, path)
    base = algebra_from_json(_field(data, "base", path), _sub(path, "base"))
    m = _int(_field(data, "dimV", path), _sub(path, "dimV"), low=1)
    tensors = {
        name: _tensor(data.get(name, {}), dims(base.dim, m), _sub(path, name))
        for name, dims in _DATUM_DIMS.items()
    }
    return ExtendingDatum(base, m, **tensors)


# -- bimodule --------------------------------------------------------------

def bimodule_to_json(b: Bimodule) -> dict:
    return {
        "base": algebra_to_json(b.base),
        "dimV": b.dimV,
        "actR": tensor_json(b.actR),
        "actL": tensor_json(b.actL),
    }


def bimodule_from_json(data, path="") -> Bimodule:
    data = _dict(data, path)
    base = algebra_from_json(_field(data, "base", path), _sub(path, "base"))
    m = _int(_field(data, "dimV", path), _sub(path, "dimV"), low=1)
    n = base.dim
    return Bimodule(
        base, m,
        _tensor(data.get("actR", {}), (n, m, m), _sub(path, "actR")),
        _tensor(data.get("actL", {}), (m, n, m), _sub(path, "actL")))


# -- crossed system and matched pair ---------------------------------------

def crossed_to_json(cs: CrossedSystem) -> dict:
    return {
        "base": algebra_to_json(cs.base),
        "top": algebra_to_json(cs.top),
        "projR": tensor_json(cs.projR),
        "projL": tensor_json(cs.projL),
        "omega": tensor_json(cs.omega),
    }


def crossed_from_json(data, path="") -> CrossedSystem:
    data = _dict(data, path)
    base = algebra_from_json(_field(data, "base", path), _sub(path, "base"))
    top = algebra_from_json(_field(data, "top", path), _sub(path, "top"))
    n, w = base.dim, top.dim
    return CrossedSystem(
        base, top,
        _tensor(data.get("projR", {}), (w, n, n), _sub(path, "projR")),
        _tensor(data.get("projL", {}), (n, w, n), _sub(path, "projL")),
        _tensor(data.get("omega", {}), (w, w, n), _sub(path, "omega")))


def matched_to_json(mp: MatchedPair) -> dict:
    return {
        "base": algebra_to_json(mp.base),
        "top": algebra_to_json(mp.top),
        "actL": tensor_json(mp.actL),
        "projR": tensor_json(mp.projR),
        "projL": tensor_json(mp.projL),
        "actR": tensor_json(mp.actR),
    }


def matched_from_json(data, path="") -> MatchedPair:
    data = _dict(data, path)
    base = algebra_from_json(_field(data, "base", path), _sub(path, "base"))
    top = algebra_from_json(_field(data, "top", path), _sub(path, "top"))
    n, w = base.dim, top.dim
    return MatchedPair(
        base, top,
        _tensor(data.get("actL", {}), (w, n, w), _sub(path, "actL")),
        _tensor(data.get("projR", {}), (w, n, n), _sub(path, "projR")),
        _tensor(data.get("projL", {}), (n, w, n), _sub(path, "projL")),
        _tensor(data.get("actR", {}), (n, w, w), _sub(path, "actR")))


# -- flag datum ------------------------------------------------------------

def flag_datum_to_json(fd: FlagDatum) -> dict:
    return {
        "base": algebra_to_json(fd.base),
        "x0": sparse_vector_json(fd.x0),
        "k0": rat_str(fd.k0),
        "mu": vector_json(fd.mu),
        "D": matrix_json(fd.D),
        "T": matrix_json(fd.T),
    }


def flag_datum_from_json(data, path="") -> FlagDatum:
    data = _dict(data, path)
    base = algebra_from_json(_field(data, "base", path), _sub(path, "base"))
    n = base.dim
    zero_rows = [["0"] * n for _ in range(n)]
    return FlagDatum(
        base,
        _sparse_vector(data.get("x0", {}), n, _sub(path, "x0")),
        _rational(data.get("k0", 0), _sub(path, "k0")),
        _vector(data.get("mu", ["0"] * n), n, _sub(path, "mu")),
        _matrix(data.get("D", zero_rows), n, n, _sub(path, "D")),
        _matrix(data.get("T", zero_rows), n, n, _sub(path, "T")))


# -- solver and check output (emit only) -----------------------------------

def family_to_json(fam: SolutionFamily) -> dict:
    return {
        "linear_basis": [matrix_json(m) for m in fam.linear_basis],
        "residuals": [str(p) for p in fam.residuals],
    }


def report_to_json(report: CheckReport) -> dict:
    conds = []
    for r in report.condition_results:
        entry = {"label": r.label, "passed": r.passed}
        if r.witness is not None:
            entry["witness"] = {
                "basis_tuple": list(r.witness.basis_tuple),
                "lhs": vector_json(r.witness.lhs_value),
                "rhs": vector_json(r.witness.rhs_value),
            }
        conds.append(entry)
    out = {"passed": report.passed, "conditions": conds}
    if report.notes:
        out["notes"] = list(report.notes)
    return out
