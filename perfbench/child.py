"""One benchmark repetition in a fresh interpreter.

Usage: child.py ROOT WORKLOAD SEED MODE, with MODE one of
  setup   set up only (import, group build, representation, relation gate)
  plain   set up, then run the workload's command lines untraced
  traced  the same with per-layer spans installed after set-up

Prints one JSON object: the monotonic time set-up ended (the parent took
the spawn time on the same clock), the wall time of each command (piece)
less the time the host-speed sampler took in it, the sampler's kernel
times during each piece (see hostref.py), the CSV text of every command, the exit codes, ru_maxrss, versions and, when traced, the
per-layer metrics.  lyaplab is imported from ROOT/src only.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import hostref
import workloads


def main(root, name, seed, mode):
    import numpy as np
    from lyaplab import cli, fuchsian, linrep

    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        raise SystemExit(f"lyaplab imported from {cli.__file__}, not {src}")

    w = workloads.WORKLOADS[name]
    spec = fuchsian.parse_group_spec(w.group)
    bundle = fuchsian.build_group(spec)
    linrep.check_relations(cli.resolve_rep(w.rep, bundle))
    out = {"ready": time.monotonic(), "ready_kernel_s": hostref.warm_kernel_s()}
    if mode == "setup":
        return out

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    csvs, codes, error, walls, refs = [], [], None, [], []
    with hostref.Sampler() as sampler:
        for argv in w.commands(seed):
            buf = io.StringIO()
            first, spent = len(sampler.samples), sampler.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    codes.append(cli.main(argv))
            except Exception as exc:  # a failed call is reported, not fatal
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
                break
            finally:
                walls.append(time.perf_counter() - start - (sampler.spent - spent))
                refs.append(sampler.samples[first:])
            csvs.append(buf.getvalue())
    out.update(
        walls=walls,
        refs=refs,
        wall_s=sum(walls),
        csvs=csvs,
        codes=codes,
        error=error,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(np),
            "nproc": os.cpu_count(),
        },
    )
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(
            tracer, bundle[0], workloads.covolume(w.group)
        )
    return out


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    root_arg, name_arg, seed_arg, mode_arg = sys.argv[1:]
    print(json.dumps(main(root_arg, name_arg, int(seed_arg), mode_arg)))
