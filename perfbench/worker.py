"""One fresh interpreter per run: set up, run the closed loop, check, report.

Started by run.py, never by hand; prints one JSON object as its last line
of standard output.  Modes:

  setup       import prymdice and generate the inputs, timed, nothing else
  run         set up, then run the items twice over --seconds, each call
              timed, calibrated and checked
  trace       set up traced, then alternate blocks of items untraced and
              the same items traced; the difference is the tracing overhead
  segre-item  one in-process segre pipeline, for segre_cli's traced run
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import segre_cli
from tracing import Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_out"
MAX_REASONS = 5
BLOCK_S = 1.0  # length of each untraced block in a traced run


# Other tenants of a shared machine slow every process on it, by up to
# about 1.8x for seconds to minutes at a time, and CPU time slows with wall
# time.  A fixed piece of pure-Python work, timed between blocks of items,
# measures the machine's current speed; calibrated times are scaled to the
# speed at which that work takes REFERENCE_S.
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.1


def reference_work() -> int:
    total, table = 0, {}
    for i in range(10_000):
        total += i * i % 7
        table[i & 63] = total
    return total


def reference_s() -> float:
    """The best of three timings of ``reference_work``."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference_work()
        best = min(best, perf_counter() - start)
    return best


def digest(inputs) -> str:
    data = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def library_env() -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def import_library() -> float:
    """Import prymdice from this checkout and return the seconds it took."""
    start = perf_counter()
    import prymdice

    elapsed = perf_counter() - start
    if Path(prymdice.__file__).resolve().parent != ROOT / "src" / "prymdice":
        raise SystemExit(f"prymdice imported from {prymdice.__file__}, not from this checkout")
    return elapsed


def set_up(name: str, seed: int, tracer: Tracer | None = None) -> dict:
    """Fresh-interpreter import plus input generation, timed together.

    ``setup_s`` is calibrated by reference timings taken just before and
    just after.
    """
    before = reference_s()
    start = perf_counter()
    import_s = import_library()
    if name == "segre_cli":
        # the fixture is built into the library; the seed is unused
        workload, inputs, problem = None, [list(segre_cli.COMMAND)], None
    elif tracer is None:
        workload, inputs, problem = make_inputs(name, seed)
    else:
        tracer.phase = "setup"
        with tracer.installed():
            workload, inputs, problem = make_inputs(name, seed)
        tracer.phase = "items"
    elapsed = perf_counter() - start
    calibrated = elapsed * REFERENCE_S / ((before + reference_s()) / 2)
    return {"setup_s": calibrated, "import_s": import_s, "workload": workload,
            "inputs": inputs, "problem": problem}


def make_inputs(name: str, seed: int):
    """The workload object, its inputs from ``seed`` alone, and any set-up problem."""
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs, problem = workload.generate(random.Random(f"{name}/{seed}"))
    return workload, inputs, problem


def closed_loop(workload, inputs, seconds=None, count=None, first=0, tracer=None, calibrate=False):
    """Items one after another, from item ``first``, until ``seconds`` pass or ``count`` are done.

    With ``calibrate`` the durations returned are calibrated: each block of
    about CALIBRATE_EVERY_S is scaled by the mean of the reference timings
    taken before and after it.
    """
    durations, reasons, failed = [], [], 0
    calibrated = []
    refs = [reference_s()] if calibrate else []

    def calibrate_block():
        refs.append(reference_s())
        factor = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
        calibrated.extend(d * factor for d in durations[len(calibrated):])

    start = block_start = perf_counter()
    i = first
    while (i - first < count) if count is not None else (perf_counter() - start < seconds):
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            outcome = workload.run(inp)
            problem = None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        durations.append(perf_counter() - t0)
        if problem is None:
            try:
                problem = workload.check(inp, outcome)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"item {i}: {problem}")
        i += 1
        if calibrate and perf_counter() - block_start >= CALIBRATE_EVERY_S:
            calibrate_block()
            block_start = perf_counter()
    if calibrate and len(calibrated) < len(durations):
        calibrate_block()
    return (calibrated if calibrate else durations), failed, reasons


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class CliCalls:
    """segre_cli's timed run: each item is one fresh ``python -m prymdice --json segre``."""

    def __init__(self):
        self.first: bytes | None = None
        self.first_problem: str | None = None

    def run(self, command) -> bytes:
        proc = subprocess.run([sys.executable, *command], cwd=ROOT, env=library_env(),
                              capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout

    def check(self, _command, stdout: bytes) -> str | None:
        if self.first is None:
            self.first, self.first_problem = stdout, segre_cli.check_stdout(stdout)
        elif stdout != self.first:
            return "stdout differs from the run's first call"
        return self.first_problem


def mode_run(args) -> dict:
    if args.workload == "segre_cli":
        # the CLI imports the library in each child; set-up is timed by the setup probes
        setup = {"setup_s": None, "workload": CliCalls(), "inputs": [list(segre_cli.COMMAND)],
                 "problem": None}
        rss = resource.RUSAGE_CHILDREN
    else:
        setup = set_up(args.workload, args.seed)
        rss = resource.RUSAGE_SELF
    # Two calibrated passes over the same items, half a run apart; an
    # item's time is the faster of its two, which filters out contention
    # too brief for the calibration between blocks to catch.
    workload, inputs = setup["workload"], setup["inputs"]
    first, failed, reasons = closed_loop(workload, inputs, seconds=args.seconds / 2, calibrate=True)
    second, failed_again, more = closed_loop(workload, inputs, count=len(first), calibrate=True)
    return {"setup_s": setup["setup_s"], "digest": digest(setup["inputs"]),
            "inputs": len(setup["inputs"]), "durations": [min(a, b) for a, b in zip(first, second)],
            "attempted": 2 * len(first), "failed": failed + failed_again,
            "reasons": (reasons + more)[:MAX_REASONS], "setup_problem": setup["problem"],
            "peak_rss_mb": resource.getrusage(rss).ru_maxrss / 1024}


def write_spans(args, spans) -> str:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
    fields = ["name", "start", "end", "parent", "item", "phase"]
    path.write_text(json.dumps({"fields": fields, "spans": spans}))
    return str(path.relative_to(ROOT))


class SegreWorkers:
    """segre_cli's traced run: each item is a fresh worker making the CLI handler's calls.

    A child process cannot be traced from here, so each worker traces
    itself when ``traced`` is set and sends back its summary and spans.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.traced = False
        self.outcomes: list[dict] = []

    @contextmanager
    def tracing(self):
        self.traced = True
        try:
            yield
        finally:
            self.traced = False

    def run(self, _inp) -> dict:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--mode", "segre-item",
               "--workload", "segre_cli", "--seed", str(self.seed), "--traced", str(int(self.traced))]
        proc = subprocess.run(cmd, cwd=ROOT, env=library_env(), capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace")[-300:])
        outcome = json.loads(proc.stdout.decode().splitlines()[-1])
        outcome["traced"] = self.traced
        self.outcomes.append(outcome)
        return outcome

    def check(self, _inp, outcome) -> str | None:
        return outcome["problem"]


def alternate(workload, inputs, seconds, tracing, tracer=None, who=resource.RUSAGE_SELF) -> dict:
    """Blocks of about BLOCK_S run untraced, each followed by the same items traced.

    Alternating keeps both sides under the same machine load, so their
    difference is the tracing overhead and not drift between two phases.
    """
    plain, traced, failed, reasons = [], [], 0, []
    cpu = wall = 0.0
    start = perf_counter()
    while perf_counter() - start < seconds:
        cpu0, wall0 = cpu_seconds(who), perf_counter()
        block, f1, r1 = closed_loop(workload, inputs, seconds=BLOCK_S, first=len(plain))
        cpu += cpu_seconds(who) - cpu0
        wall += perf_counter() - wall0
        with tracing():
            again, f2, r2 = closed_loop(workload, inputs, count=len(block), first=len(plain),
                                        tracer=tracer)
        plain += block
        traced += again
        failed += f1 + f2
        reasons += r1 + r2
    return {"items": len(traced), "untraced_s": sum(plain), "traced_s": sum(traced),
            "cpu_s": cpu, "wait_s": wall - cpu, "attempted": len(plain) + len(traced),
            "failed": failed, "reasons": reasons[:MAX_REASONS]}


def mode_trace(args) -> dict:
    if args.workload == "segre_cli":
        workload = SegreWorkers(args.seed)
        inputs = [list(segre_cli.COMMAND)]
        result = alternate(workload, inputs, args.seconds, workload.tracing,
                           who=resource.RUSAGE_CHILDREN)
        traced = [o for o in workload.outcomes if o["traced"]]
        spans = [[*s[:4], k, s[5]] for k, o in enumerate(traced) for s in o["spans"]]
        result.update(import_s=statistics.median(o["import_s"] for o in workload.outcomes),
                      summary=merge(o["summary"] for o in traced))
    else:
        tracer = Tracer()
        setup = set_up(args.workload, args.seed, tracer)
        inputs = setup["inputs"]
        result = alternate(setup["workload"], inputs, args.seconds, tracer.installed, tracer)
        spans = tracer.spans
        result.update(import_s=setup["import_s"], summary=tracer.summary())
        if setup["problem"]:
            result["attempted"] += 1
            result["failed"] += 1
            result["reasons"].insert(0, setup["problem"])
    result["digest"] = digest(inputs)
    result["spans_file"] = write_spans(args, spans)
    return result


def mode_segre_item(args) -> dict:
    import_s = import_library()
    tracer = Tracer()
    tracer.item = 0
    start = perf_counter()
    if args.traced:
        with tracer.installed():
            outcome = segre_cli.run_inprocess()
    else:
        outcome = segre_cli.run_inprocess()
    duration = perf_counter() - start
    return {"import_s": import_s, "duration": duration, "problem": segre_cli.check_inprocess(outcome),
            "summary": tracer.summary(), "spans": tracer.spans}


def pin_to_one_cpu() -> None:
    """Keep this worker, its reference timings and its children on one CPU.

    The two CPUs of a shared machine can be contended differently; only on
    one CPU does the reference work measure the speed the items ran at.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here; calibration is then coarser


def main() -> None:
    pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "segre-item"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup = set_up(args.workload, args.seed)
        result = {"setup_s": setup["setup_s"], "digest": digest(setup["inputs"]),
                  "problem": setup["problem"]}
    else:
        result = {"run": mode_run, "trace": mode_trace, "segre-item": mode_segre_item}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
