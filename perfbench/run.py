"""lyaplab benchmark: fixed workloads through the public CLI entry point.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one workload at a time: each repetition is a fresh child
process (BLAS/OpenMP threads 1) that sets up lyaplab from ./src and runs
the workload's command lines (short pieces), timing each.  Repetitions
continue until --seconds is spent, at least MIN_REPS of them.  Every output
is checked against the workload's exact answers and must be byte-identical
across repetitions.

norm_wall_s is the workload's wall time corrected for the host's speed.
The shared hosts this runs on change speed by a third or more over minutes,
so a fixed kernel is timed every 50 ms inside each repetition (hostref.py)
and each piece is timed in kernel units: its wall time, less the sampler's
share, over the mean kernel time sampled during it, less its fastest and
slowest tenth.  norm_wall_s is the sum
over pieces of the median of that ratio over the repetitions, times the
kernel's time on a quiet host (KERNEL_NOMINAL_S), so it reads as seconds on
a quiet host.  The raw wall time, wall_s, is printed beside it.
Each repetition is a fresh process, so a piece can never reuse a result
cached by an earlier repetition.

setup_s, the time from spawning a child to the end of its set-up, is
corrected the same way, by the mean of 20 warm kernel calls made right after
set-up.

--trace 0 reports the end-to-end metrics (norm_wall_s and setup_s as above,
and peak memory, each a median over repetitions);
--trace 1 alternates traced and untraced repetitions and reports the
per-layer split, the tracing overhead and the accuracy metrics.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
exit code is 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run (then no JSON is printed).
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

from hostref import KERNEL_NOMINAL_S
from tracing import EXACT_COUNTS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
MIN_REPS = {0: 3, 1: 4}  # trace 1: traced and untraced, alternating
MIN_SETUPS = 10
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s

UNITS = {
    "norm_wall_s": "s", "wall_s": "s", "setup_s": "s", "flow_per_s": "1/s",
    "tts_1e-3_s": "s",
    "accuracy_z": "sigma", "calib_rel_err": "1", "peak_rss_mb": "MB",
    "failed_frac": "1", "trace.overhead": "1",
}
LAYER_UNITS = {"_s": "s", "_us_per_crossing": "us"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(name, seed, mode, deadline):
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, ROOT, name, str(seed), mode],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} repetition timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} {mode} repetition exited {proc.returncode}")
    rep = json.loads(lines[-1])
    raw_setup = rep["ready"] - spawned
    rep.update(mode=mode, raw_setup_s=raw_setup,
               setup_s=raw_setup * KERNEL_NOMINAL_S / rep["ready_kernel_s"],
               elapsed=time.monotonic() - spawned)
    return rep


MIN_SAMPLES = 3  # a piece with fewer kernel samples uses its repetition's


def trimmed_mean(times):
    """Mean without the fastest and slowest tenth (pre-empted calls)."""
    times = sorted(times)
    cut = len(times) // 10
    return statistics.fmean(times[cut:len(times) - cut])


def kernel_mean(rep):
    """Kernel time over a whole repetition (nominal if it had none)."""
    times = [t for samples in rep["refs"] for t in samples]
    return trimmed_mean(times) if times else KERNEL_NOMINAL_S


def norm_wall(reps):
    """Sum over the pieces of the median host-normalized piece time, in s."""
    ratios = []
    for r in reps:
        whole = kernel_mean(r)
        ratios.append([wall / (trimmed_mean(samples)
                               if len(samples) >= MIN_SAMPLES else whole)
                       for wall, samples in zip(r["walls"], r["refs"])])
    return KERNEL_NOMINAL_S * sum(statistics.median(piece) for piece in zip(*ratios))


def host_scale(rep, name):
    """Factor that brings the time metric `name` of `rep` to a quiet host."""
    if not name.endswith(tuple(LAYER_UNITS)):
        return 1.0
    return KERNEL_NOMINAL_S / kernel_mean(rep)


def measure(w, seed, seconds, trace, deadline):
    """Run repetitions for `seconds`; return them and the set-up times."""
    start = time.monotonic()
    modes = itertools.cycle(("traced", "plain") if trace else ("plain",))
    reps = []
    while (len(reps) < MIN_REPS[trace]
           or time.monotonic() - start + reps[-1]["elapsed"] <= seconds):
        reps.append(run_child(w.name, seed, next(modes), deadline))
    setups = [(r["setup_s"], r["raw_setup_s"]) for r in reps]
    while not trace and len(setups) < MIN_SETUPS:
        r = run_child(w.name, seed, "setup", deadline)
        setups.append((r["setup_s"], r["raw_setup_s"]))
    return reps, setups


def rep_checks(w, rep):
    """Correctness checks of one repetition as (description, passed) pairs."""
    if rep["error"] or any(code != 0 for code in rep["codes"]):
        return [(f"ran: error {rep['error']}, exit codes {rep['codes']}", False)]
    try:
        return w.evaluate(w, rep["csvs"], rep["wall_s"])[0]
    except (KeyError, ValueError, IndexError, StopIteration) as exc:
        return [(f"output parses ({exc!r})", False)]


def check_reps(w, reps):
    """Check every repetition; return (failed repetitions, report lines)."""
    failed, lines = 0, []
    for i, rep in enumerate(reps):
        checks = rep_checks(w, rep)
        if i > 0:
            checks.append(("CSV byte-identical to repetition 0",
                           rep["csvs"] == reps[0]["csvs"]))
        bad = [what for what, ok in checks if not ok]
        failed += bool(bad)
        if i == 0:
            lines += [f"{'ok  ' if ok else 'FAIL'} {what}" for what, ok in checks]
        else:
            lines += [f"FAIL repetition {i}: {what}" for what in bad]
    if failed == 0:
        lines.append(f"ok   CSV byte-identical over {len(reps)} repetitions")
    return failed, lines


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "1" if name.endswith(("ratio", "factor")) else "count"


def run_workload(w, seed, seconds, trace, deadline):
    reps, setups = measure(w, seed, seconds, trace, deadline)
    failed, lines = check_reps(w, reps)
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    wall = norm_wall(plain)
    if failed == 0:  # then the outputs of all repetitions are identical
        quality = w.evaluate(w, reps[0]["csvs"], wall)[1]
    elif any(r["error"] for r in reps):  # e.g. orbit truncation (ResourceError)
        quality = {"failed_frac": 1.0}
    else:
        quality = {}

    env = reps[0]["env"]
    print(f"== {w.name}  seed {seed}  {len(plain)} untraced + {len(traced)} traced "
          f"repetitions, closed loop, 1 process at a time")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, BLAS/OpenMP threads 1")
    e2e = {
        "norm_wall_s": wall,
        "setup_s": statistics.median(norm for norm, _ in setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024.0,
    }
    shown = dict(e2e, **quality)
    walls = [r["wall_s"] for r in plain]
    shown["wall_s"] = statistics.median(walls)
    kernel = [t for r in plain for samples in r["refs"] for t in samples]
    notes = {
        "norm_wall_s": f"median over {len(walls)} per piece, kernel units x "
                       f"{KERNEL_NOMINAL_S} s",
        "wall_s": f"median of {len(walls)}, min {min(walls):.3f}, max {max(walls):.3f}",
        "setup_s": f"median of {len(setups)}; raw median "
                   f"{statistics.median(raw for _, raw in setups):.3f} s",
    }
    if kernel:
        print(f"host: {len(kernel)} kernel samples, mean {statistics.fmean(kernel) * 1e3:.3f}"
              f" ms, min {min(kernel) * 1e3:.3f} ms, quiet host "
              f"{KERNEL_NOMINAL_S * 1e3:.3f} ms")
    for name in ("norm_wall_s", "wall_s", "setup_s", "flow_per_s", "tts_1e-3_s",
                 "accuracy_z", "calib_rel_err", "peak_rss_mb", "failed_frac"):
        value = shown.get(name)
        text = "n/a" if value is None else f"{value:.6g} {UNITS[name]}"
        print(f"  {name:<16}{text:<22}{notes.get(name, '')}")

    if trace:
        layers = {k: statistics.median(r["layers"][k] * host_scale(r, k) for r in traced)
                  for k in traced[0]["layers"]}
        unequal = [k for k in EXACT_COUNTS if len({r["layers"][k] for r in traced}) > 1]
        for k in unequal:
            lines.append(f"FAIL count {k} differs between traced repetitions: "
                         f"{sorted(r['layers'][k] for r in traced)}")
        if unequal:  # the second traced repetition disagrees with the first
            failed = min(len(reps), failed + 1)
        else:
            layers.update({k: traced[0]["layers"][k] for k in EXACT_COUNTS})
            lines.append(f"ok   exact counts repeat over {len(traced)} traced repetitions")
        layers["trace.overhead"] = norm_wall(traced) / wall
        layers["wall_s"] = shown["wall_s"]
        for k, v in quality.items():
            layers[k] = 0.0 if v is None else v  # 0: metric does not apply here
        metrics = {k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)}
                   for k, v in layers.items()}
        print("per-layer split (median over traced repetitions, times at the "
              "quiet-host speed):")
        for k, m in metrics.items():
            print(f"  {k:<36}{m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    for line in lines:
        print(f"  {line}")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "lyaplab", "cli.py")):
            raise BenchError(f"no lyaplab sources under {ROOT}/src")
        results = {}
        for name in names:
            w = WORKLOADS[name]
            # numpy seeds must be nonnegative
            seed = w.default_seed if args.seed is None else args.seed % 2**32
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(w, seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
