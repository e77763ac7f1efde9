"""Inputs, requests and independent checks of the three workloads.

Every workload is a closed loop with one client.  Its requests come in
rounds: round r is a fixed function of (seed, r).  Each request fills a
slot, and every round of a workload has the same slots, so a run that
stops after any whole number of rounds sees the same mix of work.  The
seed and the round pick signs and values; what decides a request's cost
(dimension, mode, which structure constant a perturbation hits) depends on
the slot only, so that different seeds and rounds cost about the same.

Input family: F_n, the truncated free Zinbiel algebra on one generator,
e_i . e_j = C(i+j-1, i-1) e_{i+j} for i + j <= n, written in a seeded
basis e'_i = s_i e_i with s_i = +-1, so that requests do not repeat while
their cost stays that of F_n.  Two datums on it are valid in closed form,
so no solver call produces them: the regular-bimodule datum (actL = actR =
mult, dimV = n) and the flag datum D = c E_{1,n} with every other map zero
(dimV = 1).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from zinbiel import catalog, cli
from zinbiel.acceptance import verify_paper
from zinbiel.core import Algebra, is_zinbiel
from zinbiel.exactlin import Matrix, Tensor3
from zinbiel.extending import ExtendingDatum, build_unified
from zinbiel.flag import FlagDatum, flag_to_datum, verify_flag
from zinbiel.jsonio import algebra_to_json, datum_to_json, dumps


@dataclasses.dataclass(frozen=True)
class Request:
    """One request: `call()` runs it and returns (exit code, output text);
    `check(code, out)` decides by an independent route whether the answer
    is right.  `key` names the request and its input bytes; `slot` is the
    same for the matching request of every round."""

    slot: str
    key: str
    call: object
    check: object
    datum: ExtendingDatum | None = None
    bytes_in: int = 0


# -- input family ------------------------------------------------------------

def free_zinbiel(n, scales=None):
    """F_n in the basis e'_i = s_i e_i (all s_i = 1 when scales is None)."""
    s = scales or (1,) * n
    mapping = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            mapping[(i - 1, j - 1, i + j - 1)] = (
                Fraction(comb(i + j - 1, i - 1) * s[i - 1] * s[j - 1], s[i + j - 1]))
    return Algebra(n, Tensor3.from_map(n, n, n, mapping))


def seeded_free_zinbiel(n, rng):
    return free_zinbiel(n, tuple(rng.choice((1, -1)) for _ in range(n)))


def regular_datum(a):
    n = a.dim
    zero = Tensor3.zero(n, n, n)
    return ExtendingDatum(a, n, a.mult, a.mult, zero, zero, zero, zero)


def corner(n, c=1):
    """c E_{1,n}: the map e_1 -> c e_n, every other basis vector -> 0."""
    return Matrix.from_rows([[c if (i, j) == (0, n - 1) else 0 for j in range(n)]
                             for i in range(n)])


def flag_datum(a, c):
    n = a.dim
    zero = (Fraction(0),) * n
    return flag_to_datum(FlagDatum(a, zero, Fraction(0), zero, corner(n, c),
                                   Matrix.zero(n, n)))


def nonzero(rng):
    q = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return -q if rng.random() < 0.5 else q


def small(rng):
    return rng.choice((1, -1, 2, -2, 3, -3))


def perturb(d, where, rng):
    """The datum with one structure constant of one of its six maps, picked
    by the `where` generator, changed by a seeded nonzero amount."""
    names = [f.name for f in dataclasses.fields(d)
             if isinstance(getattr(d, f.name), Tensor3)]
    name = where.choice(names)
    t = getattr(d, name)
    pos = where.randrange(len(t.entries))
    entries = list(t.entries)
    entries[pos] += small(rng)
    return dataclasses.replace(d, **{name: Tensor3(t.dims, tuple(entries))})


def require_zinbiel(a):
    if not is_zinbiel(a).passed:
        raise RuntimeError(f"generated F_{a.dim} is not Zinbiel")


# -- independent checks ------------------------------------------------------

def rank(rows):
    """Rank over Q by plain Gaussian elimination, independent of exactlin."""
    grid = [list(r) for r in rows]
    r = 0
    for c in range(len(grid[0]) if grid else 0):
        pivot = next((i for i in range(r, len(grid)) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        for i in range(r + 1, len(grid)):
            f = grid[i][c] / grid[r][c]
            if f:
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        r += 1
    return r


def solution_ok(base, mu, mode, out, known=None):
    """Each basis matrix, placed in a flag datum with the other map zero,
    passes F2, F3, F4x (mode D) or F2, F4, F4x (mode T); the basis is
    independent; and a known solution lies in its span."""
    n = base.dim
    fam = json.loads(out)
    basis = [Matrix.from_rows(rows) for rows in fam["linear_basis"]]
    labels = ("F2", "F3", "F4x") if mode == "D" else ("F2", "F4", "F4x")
    zero_v, zero_m = (Fraction(0),) * n, Matrix.zero(n, n)
    for b in basis:
        d, t = (b, zero_m) if mode == "D" else (zero_m, b)
        report = verify_flag(FlagDatum(base, zero_v, Fraction(0), mu, d, t))
        if not all(r.passed for r in report.condition_results if r.label in labels):
            return False
    flat = [m.entries for m in basis]
    if rank(flat) != len(basis):
        return False
    return known is None or rank(flat + [known.entries]) == len(basis)


def oracle(d):
    return is_zinbiel(build_unified(d, force=True)).passed


# -- workloads -----------------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class Workload:
    """Round r of a workload is `round(r)`; round 0 is made in set-up."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._first = self.make_round(0)

    def round(self, r):
        return self._first if r == 0 else self.make_round(r)

    def rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def write(self, r, k, doc):
        """Write request k's input file; returns its path, a tag naming its
        bytes, and its size."""
        data = dumps(doc).encode()
        path = self.workdir / f"r{r}-{k}.json"
        path.write_bytes(data)
        return str(path), f"sha256={hashlib.sha256(data).hexdigest()[:16]}", len(data)


class Paper(Workload):
    """One request is verify_paper(only=[c], rng_seed=s), c cycling 1..10
    over successive seeds s."""

    name = "paper"

    def make_round(self, r):
        reqs = []
        for c in range(1, 11):
            s = self.seed * 1_000_000 + r * 10 + c - 1
            reqs.append(Request(f"c={c}", f"paper c={c} s={s}", self._call(c, s),
                                self._check(c)))
        return reqs

    @staticmethod
    def _call(c, s):
        def call():
            summary = verify_paper(only=[c], rng_seed=s)
            crits = [{k: v for k, v in crit.items() if k != "seconds"}
                     for crit in summary["criteria"]]
            return (0 if summary["passed"] else 1), json.dumps(crits)
        return call

    @staticmethod
    def _check(c):
        def check(code, out):
            crits = json.loads(out)
            return (code == 0 and len(crits) == 1 and crits[0]["criterion"] == c
                    and crits[0]["passed"] is True)
        return check


class Check(Workload):
    """One request is `zinbiel check datum <file> --json`, in process.  Per
    round and per n in 3..9: the regular datum on F_n as is and with one
    structure constant changed, and the flag datum as is and with two
    different constants changed; 35 slots in all."""

    name = "check"
    SIZES = range(3, 10)

    def make_round(self, r):
        rng = self.rng(r)
        where = random.Random(self.name)  # the same constants in every round
        reqs = []
        for n in self.SIZES:
            a = seeded_free_zinbiel(n, rng)
            require_zinbiel(a)
            reg, fl = regular_datum(a), flag_datum(a, small(rng))
            for slot, datum in ((f"n={n} regular as-is", reg),
                                (f"n={n} regular perturbed", perturb(reg, where, rng)),
                                (f"n={n} flag as-is", fl),
                                (f"n={n} flag perturbed#1", perturb(fl, where, rng)),
                                (f"n={n} flag perturbed#2", perturb(fl, where, rng))):
                path, tag, size = self.write(r, len(reqs), datum_to_json(datum))
                reqs.append(Request(slot, f"check {slot} {tag}", self._call(path),
                                    self._check(datum), datum, size))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _call(path):
        return lambda: run_cli(["check", "datum", path, "--json"])

    @staticmethod
    def _check(datum):
        def check(code, out):
            return (code in (0, 1) and (code == 0) == oracle(datum)
                    and json.loads(out)["passed"] == (code == 0))
        return check


class Solve(Workload):
    """One request is `zinbiel solve flag <file> --mode M --mu ...`, in
    process.  Per round: the 21 recorded families at seeded parameters
    (their base, functional and mode); F_3..F_5 in all four variants (mode
    D or T, mu zero or seeded nonzero); F_6 and F_7 in one each; 35 slots."""

    name = "solve"
    VARIANTS = (("D", False), ("T", False), ("D", True), ("T", True))
    # n = 6 and 7 cost 2 s and 4 s a request, so they take one variant each.
    LARGE = ((6, "D", False), (7, "T", False))

    def make_round(self, r):
        rng = self.rng(r)
        jobs = []
        for fid in catalog.flag_family_ids():
            params = {p: nonzero(rng) for p in catalog.required_params(fid)}
            fd = catalog.get_flag_datum(fid, params)
            jobs.append((fid, fd.base, fd.mu, fid[0], None))
        picks = [(n, m, mu) for n in (3, 4, 5) for m, mu in self.VARIANTS]
        for n, mode, with_mu in picks + list(self.LARGE):
            slot = f"F{n} {mode} mu={'seeded' if with_mu else 0}"
            a = seeded_free_zinbiel(n, rng)
            require_zinbiel(a)
            mu = tuple(small(rng) for _ in range(n)) if with_mu else (0,) * n
            # c E_{1,n} solves both modes at mu = 0.
            jobs.append((slot, a, mu, mode, None if with_mu else corner(n)))
        reqs = []
        for slot, base, mu, mode, known in jobs:
            path, tag, size = self.write(r, len(reqs), algebra_to_json(base))
            mu_arg = ",".join(str(c) for c in mu)
            argv = ["solve", "flag", path, "--mode", mode, f"--mu={mu_arg}"]
            reqs.append(Request(slot, f"solve {slot} mode={mode} mu={mu_arg} {tag}",
                                lambda argv=argv: run_cli(argv),
                                self._check(base, mu, mode, known), bytes_in=size))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _check(base, mu, mode, known):
        return lambda code, out: code == 0 and solution_ok(base, mu, mode, out, known)


WORKLOADS = {w.name: w for w in (Paper, Check, Solve)}
