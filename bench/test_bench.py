"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from zinbiel import cli, core, extending, flag  # noqa: E402


def keys(wl, rounds=2):
    return [req.key for r in range(rounds) for req in wl.round(r)]


def digest(reqs):
    out = run.Outcomes()
    for req in reqs:
        out.record(req, run.execute(req))
    assert out.failed == 0, out.errors
    return out.digest.hexdigest()


def cheap(wl):
    """A few fast requests of round 0, the same ones for the same seed."""
    reqs = wl.round(0)
    if wl.name == "paper":
        return [q for q in reqs if q.key.startswith(("paper c=1 ", "paper c=5 "))]
    return sorted(reqs, key=lambda q: (q.bytes_in, q.key))[:6]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_and_digest(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b = make(7, tmp_path / "a"), make(7, tmp_path / "b")
    assert keys(a) == keys(b)
    assert keys(a) != keys(make(8, tmp_path / "c"))
    assert digest(cheap(a)) == digest(cheap(b))


def test_every_round_has_the_same_slots(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        a, b = make(1, tmp_path / f"{name}1"), make(2, tmp_path / f"{name}2")
        slots = sorted(q.slot for q in a.round(0))
        assert len(set(slots)) == len(slots)
        assert slots == sorted(q.slot for q in a.round(1)) == sorted(q.slot for q in b.round(0))


def test_free_zinbiel_and_closed_form_datums():
    for n in (3, 6):
        a = workloads.free_zinbiel(n, tuple(range(1, n + 1)))
        assert core.is_zinbiel(a).passed
        assert extending.verify_datum(workloads.regular_datum(a)).passed
        assert extending.verify_datum(workloads.flag_datum(a, 3)).passed
    f4 = workloads.free_zinbiel(4)
    assert f4.basis_product(0, 1) == (0, 0, 1, 0)  # e1.e2 = C(2, 0) e3
    assert f4.basis_product(1, 0) == (0, 0, 2, 0)  # e2.e1 = C(2, 1) e3
    assert f4.basis_product(1, 1) == (0, 0, 0, 3)  # e2.e2 = C(3, 1) e4
    assert f4.basis_product(0, 3) == (0, 0, 0, 0)  # truncated


def traced_work(t):
    a = workloads.free_zinbiel(4)
    with t:
        idx = t.begin("request")
        rng = workloads.random.Random(3)
        extending.verify_datum(workloads.perturb(workloads.regular_datum(a), rng, rng))
        flag.solve_reduced(a, (0,) * 4, "T")
        t.end(idx)


def test_child_time_never_exceeds_parent():
    t = tracing.Tracer()
    traced_work(t)
    assert len(t.spans) > 20
    covered = t.child_time()
    for idx, (name, start, end, parent) in enumerate(t.spans):
        assert start <= end
        assert covered.get(idx, 0.0) <= end - start
        if parent >= 0:
            _, p_start, p_end, _ = t.spans[parent]
            assert p_start <= start and end <= p_end
    for calls, total, own in t.summary().values():
        assert 0.0 <= own <= total


def test_tracer_sees_imported_names_and_restores_them():
    originals = (core.is_zinbiel, cli.verify_datum, flag.is_zinbiel,
                 workloads.Tensor3.combine)
    with tracing.Tracer():
        # the defining module and the importing modules hold one wrapper
        assert cli.verify_datum is extending.verify_datum
        assert cli.verify_datum is not originals[1]
        assert flag.is_zinbiel is core.is_zinbiel is cli.is_zinbiel
        assert core.is_zinbiel is not originals[0]
        assert workloads.Tensor3.combine is not originals[3]
    assert (core.is_zinbiel, cli.verify_datum, flag.is_zinbiel,
            workloads.Tensor3.combine) == originals


def test_counts_repeat_exactly():
    a, b = tracing.Tracer(), tracing.Tracer()
    traced_work(a)
    traced_work(b)
    assert a.counts == b.counts
    assert a.counts["core.condition_over_tuples.failed"] >= 1
    assert [s[0] for s in a.spans] == [s[0] for s in b.spans]
    names = {s[0] for s in a.spans}
    assert {"extending.verify_datum", "core.condition_over_tuples",
            "flag.solve_reduced", "exactlin.rref"} <= names


def test_benchmark_json_names_match_the_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
