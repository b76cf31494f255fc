"""The fixed benchmark workloads: lyaplab command lines, set-up inputs and
the exact answers their outputs are checked against.

Each workload is a list of short ``lyaplab`` command lines (pieces) run
through ``lyaplab.cli.main`` in one process.  A piece is kept short so the
benchmark can time it several times and keep the fastest (see run.py).
Random workloads repeat one command ``copies`` times with distinct seeds:
copy j of benchmark seed S runs with ``--seed S * COPY_STRIDE + j``, so its
samples are new geodesics and no copy repeats another's work.  Orbit
counting has no random input, so that workload reads the same for every
seed.

``evaluate(w, csvs, wall_s)`` pools the outputs of all pieces and returns
the correctness checks as (description, passed) pairs, and the accuracy and
failure metrics; a metric that does not apply to the workload is None.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

LAMBDA1_TOL = 0.02  # |lambda1 - 1| on the uniformizing representation (C1)
CALIB_TOL = 0.10  # relative error of the orbit-count calibration (C6)
FINITE_LOCUS_TOL = 1e-3  # err of a developing map with a finite bad locus
TTS_STDERR = 1e-3  # target stderr of the time-to-stderr figure of merit
COPY_STRIDE = 100  # copy j of seed S runs with --seed S * COPY_STRIDE + j


@dataclass(frozen=True)
class Workload:
    name: str
    group: str  # group spec built during set-up
    rep: str  # representation source resolved during set-up
    default_seed: int
    argvs: tuple  # command lines; "{seed}" is replaced by the copy's seed
    copies: int  # times the command lines run, each copy with its own seed
    units: int  # Monte-Carlo samples, sweep rows or counting calls per copy
    flow_length: float  # geodesic flow attempted per run (0: no tracing)
    evaluate: Callable

    def commands(self, seed):
        """The pieces of one repetition, in the order they run."""
        return [[a.replace("{seed}", str(seed * COPY_STRIDE + j)) for a in argv]
                for j in range(self.copies) for argv in self.argvs]


def covolume(group):
    """Hyperbolic area of the fundamental domain of a group spec (Gauss-Bonnet)."""
    kind, _, params = group.partition(":")
    nums = [int(v) for v in params.split(",")]
    if kind == "triangle":
        return 2.0 * math.pi * (1.0 - sum(1.0 / v for v in nums))
    return 4.0 * math.pi * (nums[0] - 1)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _summary(text):
    """key=value pairs of the '# err=...' line that ends a count CSV."""
    line = next(ln for ln in text.splitlines() if ln.startswith("# err="))
    return dict(tok.split("=") for tok in line[2:].split())


def _spectrum(w, csvs, wall_s):
    """Pool the copies: the sample-weighted mean and its standard error."""
    pieces = [_rows(text) for text in csvs]
    counts = [int(rows[0]["samples"]) for rows in pieces]
    kept = sum(counts)
    lam = [sum(n * float(rows[i]["lambda"]) for n, rows in zip(counts, pieces)) / kept
           for i in range(len(pieces[0]))]
    se = [math.sqrt(sum((n * float(rows[i]["stderr"])) ** 2
                        for n, rows in zip(counts, pieces))) / kept
          for i in range(len(pieces[0]))]
    exact = (1.0, -1.0)
    zero_sum_tol = 3.0 * math.sqrt(sum(s * s for s in se)) + 1e-12
    checks = [
        ("two exponents in every copy",
         all(len(rows) == len(exact) for rows in pieces)),
        (f"|lambda1 - 1| = {abs(lam[0] - 1.0):.2e} <= {LAMBDA1_TOL}",
         abs(lam[0] - 1.0) <= LAMBDA1_TOL),
        (f"|sum lambda| = {abs(sum(lam)):.2e} <= 3 stderr", abs(sum(lam)) <= zero_sum_tol),
    ]
    return checks, {
        "flow_per_s": w.flow_length / wall_s,
        "tts_1e-3_s": wall_s * (se[0] / TTS_STDERR) ** 2,
        "accuracy_z": max(abs(v - e) / s for v, e, s in zip(lam, exact, se)),
        "calib_rel_err": None,
        "failed_frac": (w.copies * w.units - kept) / (w.copies * w.units),
    }


def _sweep(w, csvs, wall_s):
    """Pool the tau = 0 rows of the copies (equal sample counts)."""
    pieces = [_rows(text) for text in csvs]
    rows = [r for rows in pieces for r in rows]
    zeros = [r for r in rows if float(r["parameter"]) == 0.0]
    lam0 = sum(float(r["lambda1"]) for r in zeros) / len(zeros)
    se0 = math.sqrt(sum(float(r["stderr"]) ** 2 for r in zeros)) / len(zeros)
    failed_rows = sum(r["status"] != "ok" for r in rows)
    checks = [
        (f"{w.units} sweep rows in every copy",
         all(len(rows) == w.units for rows in pieces)),
        (f"tau=0: |lambda1 - 1| = {abs(lam0 - 1.0):.2e} <= {LAMBDA1_TOL}",
         all(r["status"] == "ok" for r in zeros) and abs(lam0 - 1.0) <= LAMBDA1_TOL),
    ]
    return checks, {
        "flow_per_s": w.flow_length / wall_s,
        "tts_1e-3_s": None,
        "accuracy_z": abs(lam0 - 1.0) / se0,
        "calib_rel_err": None,
        "failed_frac": failed_rows / len(rows),
    }


def _orbit(w, csvs, wall_s):
    """Every orbit count calibrates to pi/covolume; the last piece is err."""
    target = math.pi / covolume(w.group)
    calibs = [abs(float(_summary(text)["err"]) - target) / target for text in csvs[:-1]]
    calib = max(calibs)
    finite = float(_summary(csvs[-1])["err"])
    checks = [
        (f"{len(calibs)} orbit counts", len(calibs) == len(ORBIT_COUNTS)),
        (f"orbit calibration rel. err {calib:.4f} <= {CALIB_TOL} (worst center)",
         calib <= CALIB_TOL),
        (f"finite-locus err {finite:.2e} < {FINITE_LOCUS_TOL}", finite < FINITE_LOCUS_TOL),
    ]
    return checks, {
        "flow_per_s": None,
        "tts_1e-3_s": None,
        "accuracy_z": None,
        "calib_rel_err": calib,
        "failed_frac": 0.0,  # truncation raises ResourceError: a failed repetition
    }


# one orbit count per center: the domain's interior point, then three
# generic points; t = 8 keeps each count short (about 1 s)
ORBIT_COUNTS = tuple(
    ("orbit-count", "--group", "triangle:3,3,4", "--tmax", "8", *center)
    for center in ((), ("--center=0.1,1.2",), ("--center=0.3,1.5",),
                   ("--center=0.2,2.0",))
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spectrum-c1",
            group="triangle:3,3,4",
            rep="builtin:fuchsian",
            default_seed=42,
            argvs=(("spectrum", "--group", "triangle:3,3,4", "--rep",
                    "builtin:fuchsian", "--time", "1000", "--samples", "4",
                    "--seed", "{seed}"),),
            copies=8,
            units=4,
            flow_length=8 * 4 * 1000.0,
            evaluate=_spectrum,
        ),
        Workload(
            name="sweep-bend",
            group="surface:2",
            rep="builtin:fuchsian",
            default_seed=9,
            argvs=(("sweep", "--group", "surface:2", "--axis", "imag",
                    "--grid", "0:2:11", "--time", "500", "--samples", "4",
                    "--seed", "{seed}"),),
            copies=4,
            units=11,
            flow_length=4 * 11 * 4 * 500.0,
            evaluate=_sweep,
        ),
        Workload(
            name="orbit-calib",
            group="triangle:3,3,4",
            rep="builtin:fuchsian",
            default_seed=0,
            argvs=(*ORBIT_COUNTS,
                   ("err", "--dev", "veronese:3", "--covector", "1 0 1",
                    "--center", "0,2", "--tmax", "2000")),
            copies=1,
            units=len(ORBIT_COUNTS) + 1,
            flow_length=0.0,
            evaluate=_orbit,
        ),
    )
}
