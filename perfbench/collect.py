"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload NAME --seeds 1,2,3 [--seconds S]
                                 [--trace 0|1] [--out FILE.json]

Prints, per metric, the median, the quartiles and the spread (q3 - q1) /
median over the runs, computed with statistics.quantiles(values, n=4).
With --out, also writes the raw values, the summary and the environment
line of the first run as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    runs, env = [], None
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        env = env or next((ln for ln in proc.stdout.splitlines() if ln.startswith("env:")), None)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for k, m in runs[0]["metrics"].items():
        summary[k] = {"unit": m["unit"],
                      **summarise([r["metrics"][k]["value"] for r in runs])}
        s = summary[k]
        print(f"{k:<36} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "env": env, "runs": runs, "summary": summary},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
