"""Tests of the benchmark itself (not of prymdice).

    python3 -m pytest perfbench/test_perfbench.py

They check that inputs follow the seed, that a wrong answer is counted as
a failure, that tracing leaves the library exactly as it found it, and
that a name the library lost is reported as absent.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import segre_cli  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

STREAMS = (
    "equiv_stream.e5_accept",
    "equiv_stream.reject",
    "prym_census.k5_cover",
    "prym_census.sparse_cover",
)


class Tampered:
    """A workload whose outcomes are altered after the library returns them."""

    def __init__(self, workload, tamper):
        self.workload, self.tamper = workload, tamper

    def run(self, inp):
        return self.tamper(self.workload.run(inp))

    def check(self, inp, outcome):
        return self.workload.check(inp, outcome)


def first_items(name, count=1, seed=0):
    workload, inputs, problem = worker.make_inputs(name, seed)
    assert problem is None
    return workload, inputs[:count]


def failures(workload, inputs):
    durations, failed, reasons = worker.closed_loop(workload, inputs, count=len(inputs))
    assert len(durations) == len(inputs)
    return failed, reasons


@pytest.mark.parametrize("name", STREAMS)
def test_same_seed_same_digest_other_seed_other_digest(name):
    digests = [worker.digest(worker.make_inputs(name, seed)[1]) for seed in (7, 7, 8)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_roundtrip_corpus_follows_the_seed():
    first = worker.make_inputs("jacobian_sweep.roundtrip", 3)
    again = worker.make_inputs("jacobian_sweep.roundtrip", 3)
    other = worker.make_inputs("jacobian_sweep.roundtrip", 4)
    assert first[2] is None
    assert worker.digest(first[1]) == worker.digest(again[1]) != worker.digest(other[1])


@pytest.mark.parametrize("name", STREAMS)
def test_untouched_answers_pass(name):
    workload, inputs = first_items(name, count=3)
    assert failures(workload, inputs) == (0, [])


def test_tampered_equivalence_witness_is_a_failure():
    workload, inputs = first_items("equiv_stream.e5_accept")

    def flip_a_sign(outcome):
        a, eq = outcome
        (target, sign), *rest = eq.column_map
        return a, dataclasses.replace(eq, column_map=((target, -sign), *rest))

    failed, reasons = failures(Tampered(workload, flip_a_sign), inputs)
    assert failed == 1 and "column 0" in reasons[0]


def test_tampered_rejection_verdict_is_a_failure():
    workload, inputs = first_items("equiv_stream.reject")
    accept, scrambles = first_items("equiv_stream.e5_accept")
    fake = accept.run(scrambles[0])[1]
    failed, _ = failures(Tampered(workload, lambda outcome: (outcome[0], fake)), inputs)
    assert failed == 1


def test_tampered_tu_verdict_and_minor_are_failures():
    from prymdice.unimod import TUCertificate

    workload, inputs = first_items("prym_census.sparse_cover")
    wrong_minor = TUCertificate(False, ((0,), (0,), 7))
    failed, reasons = failures(Tampered(workload, lambda o: (o[0], wrong_minor)), inputs)
    assert failed == 1 and "determinant" in reasons[0]

    dicing = worker.make_inputs("jacobian_sweep.roundtrip", 0)  # cheap graphs, real dicings
    graphs = [g for g in dicing[1] if len(g["edges"]) >= len(g["vertices"])][:2]
    from workloads import DicingSweep

    def refute(outcome):
        system, _ = outcome
        return system, TUCertificate(False, ((0,), (0,), system.matrix.entries[0]))

    failed, reasons = failures(Tampered(DicingSweep(), refute), graphs)
    assert failed == 2 and "not TU" in reasons[0]


def test_tampered_segre_report_is_a_failure():
    outcome = segre_cli.run_inprocess()
    assert segre_cli.check_inprocess(outcome) is None
    f, basis, report = outcome
    eq = report.equivalence
    bad_u = dataclasses.replace(eq.U, entries=(2,) + eq.U.entries[1:])
    bad = dataclasses.replace(report, equivalence=dataclasses.replace(eq, U=bad_u))
    assert "unimodular" in segre_cli.check_inprocess((f, basis, bad))
    cographic = dataclasses.replace(report.e5_cographic, is_cographic=True)
    assert "non-cographic" in segre_cli.check_inprocess(
        (f, basis, dataclasses.replace(report, e5_cographic=cographic))
    )
    calls = worker.CliCalls()
    good = json.dumps({"result": {}}).encode()
    assert calls.check(None, good) is not None  # a report without its facts
    assert calls.check(None, good + b" ") == "stdout differs from the run's first call"


def test_independent_checks_recompute_the_answers():
    assert checks.det([r[:5] for r in checks.E5_ROWS]) == 1
    assert checks.det([[2, 1], [1, 2]]) == 3
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    column_map = [(j, 1) for j in range(10)]
    assert checks.equivalence_witness(checks.E5_ROWS, checks.E5_ROWS, identity, column_map) is None
    assert checks.violating_minor([[1, 1], [-1, 1]], ((0, 1), (0, 1), 2)) is None
    assert checks.violating_minor([[1, 1], [-1, 1]], ((0, 1), (0, 1), 3)) is not None


def library_globals():
    import prymdice

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "prymdice"]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}, prymdice


def test_wrapping_then_unwrapping_restores_identical_objects():
    before, prymdice = library_globals()
    init = vars(prymdice.exactmat.IntMatrix)["__init__"]
    det = prymdice.exactmat.det
    tracer = Tracer()
    with tracer.installed():
        assert prymdice.unimod.det is not det
        assert prymdice.exactmat.det is prymdice.unimod.det
        assert vars(prymdice.exactmat.IntMatrix)["__init__"] is not init
        tracer.item = 0
        prymdice.unimod.is_totally_unimodular(prymdice.unimod.e5())
    after, _ = library_globals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(prymdice.exactmat.IntMatrix)["__init__"] is init
    assert tracer.absent == []
    summary = tracer.summary()
    assert [s[1] for s in summary["spans"]] == ["unimod.is_totally_unimodular"]
    parents = {(name, parent) for _, name, parent, *_ in summary["counters"]}
    assert ("exactmat.det", "unimod.is_totally_unimodular") in parents


def test_restores_even_when_the_traced_call_raises():
    before, prymdice = library_globals()
    with pytest.raises(ValueError):
        with Tracer().installed():
            prymdice.unimod.matroid_equivalent(prymdice.unimod.e5(), prymdice.unimod.bond_system(
                prymdice.graph.MultiGraph(["a", "b"], [("e", "a", "b")])))
    after, _ = library_globals()
    assert all(after[k] is before[k] for k in before)


def test_missing_public_name_is_reported_absent(monkeypatch):
    import prymdice.unimod

    monkeypatch.delattr(prymdice.unimod, "matroid_equivalent")
    tracer = Tracer(constructed=("exactmat.IntMatrix", "exactmat.NoSuchMatrix"))
    with tracer.installed():
        pass
    assert "unimod.matroid_equivalent" in tracer.absent
    assert "exactmat.NoSuchMatrix" in tracer.absent
    given = {"items": 1, "import_s": 0.1, "cpu_s": 1.0, "wait_s": 0.0, "overhead_frac": 0.0}
    metrics, absent = per_layer_metrics(tracer.summary(), given)
    assert {"unimod.matroid_equivalent.calls", "unimod.matroid_equivalent.s"} <= set(absent)
    assert metrics["unimod.matroid_equivalent.calls"]["value"] == 0
    assert "unimod.is_cographic.calls" not in absent
