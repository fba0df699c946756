"""Child processes of the benchmark runner (bench/run.py).

    worker.py probe
        Set up as a workload process does, print `ready`, exit.
    worker.py loop WORKLOAD SEED SECONDS TRACE WORKDIR RESULT
        Set up, print `ready`, then run WORKLOAD as a closed loop with one
        caller for about SECONDS (see _closed_loop); write latencies,
        outputs and peak RSS to RESULT (JSON).  With TRACE = 1 every op runs
        twice on the same inputs, untraced and traced in alternating order;
        outputs must match bit for bit and the traced run feeds the layer
        totals.
    worker.py check WORKLOAD SEED WORKDIR OP DIGEST RESULT
        Oracle check, outside the timed loop: compare outputs of the run
        with the independent references in tests/oracles.py.

Set-up is interpreter start, `import vdwgrating.cli` (which imports every
module of the package) and loading both shipped configs.  The runner
times it from process start to the `ready` line.
"""

import contextlib
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import vdwgrating.cli  # noqa: F401  (set-up: the whole package)

import workloads
from tracer import Tracer, merge_totals

TRACER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "tracer.py")
CLI_TIMEOUT_S = 120


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _closed_loop(run_op, seconds, pass_len):
    """Run ops 0, 1, ... one at a time, in whole passes of pass_len ops.

    A pass starts only if, at the median pass time so far, it would end by
    `seconds`; the first always runs.  Returns (ops attempted, seconds).
    """
    pass_times = []
    start = time.perf_counter()
    i = 0
    while not pass_times or (time.perf_counter() - start
                             + statistics.median(pass_times) <= seconds):
        t0 = time.perf_counter()
        for _ in range(pass_len):
            run_op(i)
            i += 1
        pass_times.append(time.perf_counter() - t0)
    return i, time.perf_counter() - start


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _sides(trace, i):
    """Untraced (False) and, when tracing, traced (True) runs of op i, in
    alternating order so that neither side always runs on warm caches."""
    if not trace:
        return (False,)
    return (False, True) if i % 2 == 0 else (True, False)


def loop_in_process(workload, seed, seconds, trace, workdir, cfgs):
    op = workloads.IN_PROCESS_OPS[workload]
    tracer = Tracer()
    paths = {False: os.path.join(workdir, "plain.csv"),
             True: os.path.join(workdir, "traced.csv")}
    out = {"latencies": [], "traced_latencies": [], "errors": [],
           "completed": [], "digests": [], "fits": [], "identical": True}

    def run_op(i):
        spec = workloads.draw(seed, i)
        try:
            dts, digests, results = {}, {}, {}
            for traced in _sides(trace, i):
                with tracer.installed() if traced else contextlib.nullcontext():
                    dts[traced], results[traced] = _timed(
                        op, spec, cfgs, paths[traced])
                digests[traced] = workloads.digest(
                    workload, results[traced], paths[traced])
        except Exception:  # an op that raises is a failed op; keep going
            out["errors"].append(f"op {i}: {traceback.format_exc()}")
            return
        if trace:
            out["traced_latencies"].append(dts[True])
            out["identical"] &= digests[True] == digests[False]
        out["latencies"].append(dts[False])
        out["completed"].append(i)
        out["digests"].append(digests[False])
        if workload == "orders":
            fit = results[False][1]
            out["fits"].append([spec["c3"], fit.c3, fit.uncertainty])

    out["attempted"], out["loop_s"] = _closed_loop(
        run_op, seconds, 1 if trace else workloads.PASS)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["layers"] = tracer.totals()
    return out


def _outputs(argv):
    return [argv[j + 1] for j, a in enumerate(argv)
            if a in ("--out", "--dump-eps")]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _run_cli(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CLI_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr}")
    return dt


def loop_cli(seed, seconds, trace, workdir):
    dirs = {False: os.path.join(workdir, "plain"),
            True: os.path.join(workdir, "traced")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    stats_path = os.path.join(workdir, "stats.json")
    out = {"latencies": [], "traced_latencies": [], "subcommands": [],
           "errors": [], "completed": [], "identical": True, "layers": {}}

    def run_op(i):
        cycle, pos = divmod(i, workloads.CLI_CYCLE)
        argvs = {traced: workloads.cli_cycle(seed, cycle, d, dirs[False])[pos]
                 for traced, d in dirs.items()}
        sub = argvs[False][0]
        cmds = {False: [sys.executable, "-m", "vdwgrating.cli",
                        *argvs[False][1]],
                True: [sys.executable, TRACER_SCRIPT, stats_path,
                       *argvs[True][1]]}
        try:
            dts = {traced: _run_cli(cmds[traced])
                   for traced in _sides(trace, i)}
            if trace:
                with open(stats_path, encoding="utf-8") as fh:
                    merge_totals(out["layers"], json.load(fh))
                out["identical"] &= all(
                    _read(a) == _read(b) for a, b in
                    zip(_outputs(argvs[False][1]), _outputs(argvs[True][1])))
        except (RuntimeError, OSError, subprocess.TimeoutExpired):
            out["errors"].append(f"op {i} ({sub}): {traceback.format_exc()}")
            return
        if trace:
            out["traced_latencies"].append(dts[True])
        out["latencies"].append(dts[False])
        out["subcommands"].append(sub)
        out["completed"].append(i)

    out["attempted"], out["loop_s"] = _closed_loop(
        run_op, seconds, 1 if trace else workloads.CLI_PASS)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


def main(argv):
    mode = argv[0]
    if mode == "check":
        import check

        workload, seed, workdir, op, digest, result_path = argv[1:]
        out = check.run(workload, int(seed), workdir, int(op), digest)
    else:
        cfgs = workloads.load_configs()
        print("ready", flush=True)
        if mode == "probe":
            return 0
        workload, seed, seconds, trace, workdir, result_path = argv[1:]
        seed, seconds, trace = int(seed), float(seconds), trace == "1"
        if workload == "cli":
            out = loop_cli(seed, seconds, trace, workdir)
        else:
            out = loop_in_process(workload, seed, seconds, trace, workdir,
                                  cfgs)
        out["versions"] = _versions()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
