"""prymdice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a prymdice checkout; the library is imported from
that checkout's src/ directory and nothing is installed.  Every run starts
fresh interpreters and runs at most one worker at a time (a closed loop
with one client).  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the same figures for people.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracing import per_layer_metrics
from worker import library_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = (
    "segre_cli",
    "jacobian_sweep.dicing",
    "jacobian_sweep.roundtrip",
    "equiv_stream.e5_accept",
    "equiv_stream.reject",
    "prym_census.k5_cover",
    "prym_census.sparse_cover",
)

# Fresh set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3

# Every run ends within this many seconds, or fails.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def worker(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=library_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def end_to_end(args, deadline: float) -> dict:
    probes = [worker(args, "setup", deadline)
              for _ in range(SETUP_SAMPLES - (args.workload != "segre_cli"))]
    run = worker(args, "run", deadline)
    setups = [p["setup_s"] for p in probes] + ([run["setup_s"]] if run["setup_s"] is not None else [])
    durations = run["durations"]
    quantiles = statistics.quantiles(durations, n=10, method="inclusive") if len(durations) > 1 else durations * 9
    # every set-up makes the same inputs, so report each problem once
    problems = list(dict.fromkeys(
        [p["problem"] for p in probes if p["problem"]] + [run["setup_problem"]] * bool(run["setup_problem"])
    ))
    digests = {p["digest"] for p in probes} | {run["digest"]}
    if len(digests) != 1:
        problems.append(f"set-ups made different inputs from one seed: {sorted(digests)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(durations) / sum(durations), "1/s"),
        "item_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "item_p90_ms": (quantiles[8] * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    print(f"inputs: {run['inputs']} generated, sha256 {run['digest']}")
    print(f"items: {len(durations)} run twice, {run['failed']} of {run['attempted']} calls failed; "
          f"the faster calibrated times sum to {sum(durations):.2f} s")
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    return {
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["attempted"] + len(problems),
        "failed": run["failed"] + len(problems),
        "reasons": problems + run["reasons"],
        "metrics": metrics,
    }


def traced(args, deadline: float) -> dict:
    result = worker(args, "trace", deadline)
    given = {
        "items": result["items"],
        "import_s": result["import_s"],
        "cpu_s": result["cpu_s"],
        "wait_s": result["wait_s"],
        "overhead_frac": result["traced_s"] / result["untraced_s"] - 1,
    }
    layer, absent = per_layer_metrics(result["summary"], given)
    print(f"inputs sha256 {result['digest']}; {result['items']} items run untraced "
          f"({result['untraced_s']:.3f} s) then traced ({result['traced_s']:.3f} s)")
    print(f"tracing overhead: {result['traced_s'] - result['untraced_s']:+.3f} s "
          f"({given['overhead_frac']:+.1%}); spans in {result['spans_file']}")
    for name, m in layer.items():
        mark = "  absent: the library has no such name" if name in absent else ""
        print(f"  {name:<52} {m['value']:14.6g} {m['unit']}{mark}")
    print("kernel calls by enclosing span (items phase):")
    for phase, name, parent, calls, busy, yielded in result["summary"]["counters"]:
        if phase == "items":
            print(f"  {name:<52} under {parent:<34} {calls:>9} calls {busy:9.4f} s {yielded:>9} yielded")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "reasons": result["reasons"],
        "metrics": {name: (m["value"], m["unit"]) for name, m in layer.items()},
    }


def stop(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through worker(), which kills its process group


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description="prymdice benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "prymdice" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a prymdice checkout (no src/prymdice)", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    try:
        report = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in report["reasons"]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
