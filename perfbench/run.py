"""Benchmark of ``memfabric run`` followed by ``memfabric verify``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One closed loop: this process generates the workload's scenario from
the seed, then starts one fresh child process (``child.py``) at a time
and waits for it before starting the next, until ``--seconds`` have
passed. With ``--trace 0`` every child is untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced children
alternate and the per-layer metrics are reported. Every time is host
time. Every iteration is checked: both commands exit 0, the oracle
finds no problem, and the trace and report bytes and the simulated
statistics equal those recorded in ``expected.json`` (at the
workload's default seed) or those of this run's first iteration (at
any other seed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list the same metrics for a reader. ``--record`` instead runs one
iteration at the default seed and stores its outputs in
``expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

# Other tenants of the host slow it, and the program, by 10-35 % for
# tens of seconds at a time. Each child therefore times a fixed loop
# (child.calibrate) before and after each measurement, and every time is
# reported at reference speed: measured x CALIBRATION_REF_S / the mean
# of the two calibrations around it. CALIBRATION_REF_S is the loop's
# usual time on the reference machine (2-core VM, Python 3.11.7).
CALIBRATION_REF_S = 0.02

# The whole benchmark must end within this many seconds of its start.
DEADLINE_S = 170
# At least two iterations, so that output is always compared across runs.
MIN_ITERATIONS = 2
# Operations per iteration: the run, the verify, and the output check.
OPS_PER_ITERATION = 3


def scale(seconds: float, result: dict, k: int) -> float:
    """A time measured between calibrations k and k + 1, at reference speed."""
    around = result["calibration_s"][k:k + 2]
    return seconds * CALIBRATION_REF_S / (sum(around) / len(around))


def outputs(workdir: Path, events: int) -> dict:
    """Hashes of the output files and the simulated statistics they show."""
    trace = (workdir / "out.trace.jsonl").read_bytes()
    report_bytes = (workdir / "out.report.json").read_bytes()
    report = json.loads(report_bytes)
    return {
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "sim.final_tick": report["final_tick"],
        "sim.events": events,
        "sim.records": trace.count(b"\n"),
        "sim.learned_pairs": len(report["learned"]),
    }


def run_child(mode: str, scenario: Path, workdir: Path, run_id: str, timeout: float) -> dict:
    out = workdir / f"{mode}.json"
    for stale in (out, workdir / "out.trace.jsonl", workdir / "out.report.json"):
        stale.unlink(missing_ok=True)
    # A fixed hash seed keeps dict and set layouts the same in every child;
    # -S skips site-packages, which the child does not use.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-S", str(HERE / "child.py"), mode, str(scenario), str(workdir), str(out), run_id],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        return {}
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store outputs in expected.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "memfabric" / "__init__.py").is_file():
        print(f"error: no memfabric package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    default_seed = WORKLOADS[args.workload][1]
    seed = default_seed if args.seed is None else args.seed
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    text = generate(args.workload, seed)
    scenario = workdir / "scenario.scn"
    scenario.write_text(text, encoding="utf-8")

    expected_all = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    reference = None
    if seed == default_seed and not args.record:
        reference = dict(expected_all.get(args.workload, {}))
        if reference.pop("seed", None) != seed:
            print(f"error: {EXPECTED.name} has no entry for {args.workload} at seed {seed}",
                  file=sys.stderr)
            return 2

    modes = ["plain", "traced"] if args.trace else ["plain"]
    plain, traced = [], []
    attempted = failed = 0
    while True:
        n = attempted // OPS_PER_ITERATION
        elapsed = time.perf_counter() - started
        if n >= MIN_ITERATIONS and (elapsed >= args.seconds or args.record):
            break
        mode = modes[n % len(modes)]
        try:
            result = run_child(
                mode, scenario, workdir, f"{args.workload}-{seed}-{n}", max(1, DEADLINE_S - elapsed)
            )
        except subprocess.TimeoutExpired:
            print(f"error: iteration {n} did not finish in time", file=sys.stderr)
            result = {}
        attempted += OPS_PER_ITERATION
        if not result:
            failed += OPS_PER_ITERATION
            break
        failed += result["rc_run"] != 0
        failed += result["rc_verify"] != 0 or result["problems"] != 0
        got = outputs(workdir, result["events"]) if result["rc_run"] == 0 else None
        if reference is None:
            reference = got
        if got is None or got != reference:
            failed += 1
            print(f"error: iteration {n} ({mode}) output {got} differs from {reference}",
                  file=sys.stderr)
        (plain if mode == "plain" else traced).append(result)

    if args.record:
        if failed or seed != default_seed:
            print("error: not recorded", file=sys.stderr)
            return 1
        expected_all[args.workload] = {"seed": seed, **reference}
        EXPECTED.write_text(json.dumps(expected_all, indent=2, sort_keys=True) + "\n")
        return 0

    if reference is None or not plain or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    run_s = statistics.median(scale(r["run_s"], r, 0) for r in plain)
    if args.trace:
        metrics = {}
        for name in sorted(traced[0]["layers"]):
            power = {"s": 1, "us": 1, "1/s": -1}.get(units.get(name), 0)
            metrics[name] = statistics.median(
                r["layers"][name] * (scale(1.0, r, 0) ** power) for r in traced
            )
        metrics["bench.trace_overhead_s"] = (
            statistics.median(scale(r["traced_run_s"], r, 0) for r in traced) - run_s
        )
    else:
        metrics = {
            "run_s": run_s,
            "verify_s": statistics.median(scale(r["verify_s"], r, 1) for r in plain),
            "setup_s": statistics.median(scale(r["setup_s"], r, 2) for r in plain),
            "events_per_s": reference["sim.events"] / run_s,
            "records_per_s": reference["sim.records"] / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if set(units) != set(metrics):
        print(f"error: metrics differ from {SPEC.name}: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {seed} iterations {len(plain)} plain "
          f"{len(traced)} traced, host time")
    for name, value in metrics.items():
        print(f"  {name:32} {value:14.6g} {units[name]}")
    for name in ("run_s", "verify_s", "setup_s"):
        raw = [r[name] for r in plain]
        print(f"  {name + ' unscaled':32} {statistics.median(raw):14.6g} s "
              f"(median of {len(raw)}, fastest {min(raw):.6g} s)")
    calibration = [c for r in plain + traced for c in r["calibration_s"]]
    print(f"  {'calibration_s':32} {statistics.median(calibration):14.6g} s "
          f"(median of {len(calibration)}, reference {CALIBRATION_REF_S} s)")
    print(f"  {'failed_ratio':32} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    if reference:
        for key in sorted(reference):
            print(f"  {key:32} {reference[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
