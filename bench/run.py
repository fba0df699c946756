"""Benchmark of vdwgrating: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload {orders,scan,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout it sits in, builds nothing
and imports the package from src/.  Workloads (see bench/workloads.py):

    orders  velocity average + noise + fit_c3 per op; the slit quadrature's
            wall-phase panels do most of the work
    scan    synthesize_scan over 801 angles + save_scan_csv per op; the
            slit quadrature's cos-dot does most of the work
    cli     one cold-start command-line run per op (theory kk, theory
            one-osc, synth, simulate, fit, on both shipped configs); import
            does most of the work

Each workload runs in a child process as a closed loop with one caller:
an op starts when the previous one ends.  Untraced runs hold whole passes
of ops (12 draws, or two 10-run CLI cycles), and a pass starts only if, at
the median pass time so far, it would end within S seconds; the first pass
always runs.  Children use one BLAS thread, so that a run on a shared host
measures the same work every time.

Output, on stdout: a `provenance` line (commit or source hash, versions,
BLAS, nproc, seed, src line count), a `report` line with every metric and
the check details, then the result as one JSON object on the last line:

    --trace 0  end-to-end metrics: setup_s (median of SETUP_SAMPLES
               process starts up to `ready`), ops_per_s, op_p50_s,
               op_tail_s (latency at the highest percentile with at least
               ten ops beyond it, or the fastest op when there are not
               eleven; the report gives its percentile and count) and
               peak_rss_mb (the workload process; for cli the largest CLI
               child).  The report adds failed_frac, max_dev_tol and, for
               orders, c3_pull_rms.
    --trace 1  per-layer metrics: every op runs untraced and traced on the
               same inputs; outputs must be bit-identical, layer totals come
               from the traced runs and are given per op, and
               trace.ops_per_s_delta is untraced minus traced ops_per_s.

After the loop, bench/check.py compares the run's outputs with
tests/oracles.py in a process of its own.  The run is `correct` when no op
failed, every checked output is within its tolerance and traced outputs
match untraced ones.  Exit status is 0 when a result was printed.
"""

import argparse
import glob
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("orders", "scan", "cli")
SETUP_SAMPLES = 4  # the loop worker's own start is one of them
RUN_LIMIT_S = 170  # whole run, so that it ends within 180 s
PROBE_LIMIT_S = 30
CHECK_LIMIT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# layer metric -> (tracer layer, total) for totals divided per op
LAYER_TOTALS = {
    "grating._slit_integrals.s": ("grating._slit_integrals", "s"),
    "grating._slit_integrals.calls": ("grating._slit_integrals", "calls"),
    "grating._slit_integrals.b_values": ("grating._slit_integrals",
                                         "b_values"),
    "grating.velocity_averaged_intensities.s": (
        "grating.velocity_averaged_intensities", "s"),
    "grating.velocity_averaged_intensities.self_s": (
        "grating.velocity_averaged_intensities", "self_s"),
    "grating.angular_pattern.s": ("grating.angular_pattern", "s"),
    "grating.angular_pattern.self_s": ("grating.angular_pattern", "self_s"),
    "inference.fit_c3.s": ("inference.fit_c3", "s"),
    "inference.fit_c3.self_s": ("inference.fit_c3", "self_s"),
    "inference.fit_c3.evaluations": ("inference.fit_c3", "evaluations"),
    "inference.intensities_for_orders.calls": (
        "inference.intensities_for_orders", "calls"),
    "lifshitz.CachedDielectric.s": ("lifshitz.CachedDielectric", "s"),
    "lifshitz.c3_lifshitz.s": ("lifshitz.c3_lifshitz", "s"),
    "lifshitz.eps_imaginary_axis.calls": ("lifshitz.eps_imaginary_axis",
                                          "calls"),
    "config.load_config.s": ("config.load_config", "s"),
    "dataio.load_orders_csv.s": ("dataio.load_orders_csv", "s"),
    "dataio.save_orders_csv.s": ("dataio.save_orders_csv", "s"),
    "dataio.save_scan_csv.s": ("dataio.save_scan_csv", "s"),
    "dataio.write_report.s": ("dataio.write_report", "s"),
}
# cumulative import time (python -X importtime) of these modules
IMPORTS = ("vdwgrating", "vdwgrating.grating", "vdwgrating.inference",
           "vdwgrating.lifshitz", "vdwgrating.cli", "scipy.optimize",
           "scipy.interpolate")
CLI_SUBCOMMANDS = ("theory", "synth", "simulate", "fit")


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = {name: "count" if name.endswith(
        (".calls", ".b_values", ".evaluations")) else "s"
        for name in LAYER_TOTALS}
    units.update({f"import.{mod}.s": "s" for mod in IMPORTS})
    units.update({f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS})
    units["trace.ops_per_s_delta"] = "1/s"
    return units


class RunError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = _child_env()

    def _left(self, limit):
        left = min(limit, self.deadline - time.monotonic())
        if left <= 0:
            raise RunError("run time limit reached")
        return left

    def _start(self, argv, log_name, importtime=False):
        """Start a worker; return (process, set-up seconds)."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        log = open(os.path.join(self.workdir, log_name), "w",
                   encoding="utf-8")
        t0 = time.perf_counter()
        with log:
            # a session of its own, so that _kill also ends its CLI children
            proc = subprocess.Popen(cmd + [WORKER] + argv, cwd=ROOT,
                                    env=self.env, stdout=subprocess.PIPE,
                                    stderr=log, text=True,
                                    start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        self._left(PROBE_LIMIT_S))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RunError(
                    f"worker did not start: {self._log(log_name)[-4000:]}")
        except BaseException:
            _kill(proc)
            raise
        return proc, setup

    def _finish(self, proc, limit, log_name):
        try:
            proc.communicate(timeout=self._left(limit))
        except BaseException:
            _kill(proc)
            raise
        if proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}: "
                           f"{self._log(log_name)[-4000:]}")

    def _log(self, log_name):
        with open(os.path.join(self.workdir, log_name), encoding="utf-8") as fh:
            return fh.read()

    def setup_probes(self):
        """Set-up times of SETUP_SAMPLES - 1 probes, and import times."""
        setups, imports = [], {mod: [] for mod in IMPORTS}
        for k in range(SETUP_SAMPLES - 1):
            log_name = f"probe{k}.log"
            proc, setup = self._start(["probe"], log_name,
                                      importtime=self.args.trace)
            self._finish(proc, PROBE_LIMIT_S, log_name)
            setups.append(setup)
            if self.args.trace:
                cumulative = _import_times(self._log(log_name))
                for mod in IMPORTS:
                    imports[mod].append(cumulative[mod])
        return setups, imports

    def loop(self):
        a = self.args
        result_path = os.path.join(self.workdir, "loop.json")
        loop_dir = os.path.join(self.workdir, "loop")
        os.makedirs(loop_dir)
        argv = ["loop", a.workload, str(a.seed), repr(a.seconds),
                str(int(a.trace)), loop_dir, result_path]
        proc, setup = self._start(argv, "loop.log")
        self._finish(proc, RUN_LIMIT_S, "loop.log")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), setup, loop_dir

    def check(self, loop_dir, out):
        a = self.args
        # seeded choice of the replayed op, among those that completed
        k = a.seed % len(out["completed"])
        op = out["completed"][k]
        digest = out["digests"][k] if "digests" in out else ""
        result_path = os.path.join(self.workdir, "check.json")
        cmd = [sys.executable, WORKER, "check", a.workload, str(a.seed),
               loop_dir, str(op), digest, result_path]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=self._left(CHECK_LIMIT_S))
        if proc.returncode != 0:
            raise RunError(f"oracle check exited {proc.returncode}: "
                           f"{proc.stderr[-4000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


def _kill(proc):
    """Kill a worker with its whole session, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _import_times(stderr):
    """Cumulative import seconds of IMPORTS from `-X importtime` output.

    A submodule loaded by `from package import submodule` gets no line of
    its own (scipy.optimize, imported that way by inference); it is then
    given the sum over its outermost submodules' lines.
    """
    rows = []  # (depth, name, cumulative seconds)
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(parts[1]) * 1e-6))
    out = {}
    for mod in IMPORTS:
        own = [t for _, name, t in rows if name == mod]
        subs = [(d, t) for d, name, t in rows if name.startswith(mod + ".")]
        if own:
            out[mod] = own[0]
        elif subs:
            top = min(d for d, _ in subs)
            out[mod] = sum(t for d, t in subs if d == top)
        else:
            out[mod] = 0.0
    return out


def _tail(latencies):
    """(latency, percentile, ops beyond) at the highest percentile with at
    least ten ops beyond it; the fastest op when there are not eleven."""
    xs = sorted(latencies)
    n = len(xs)
    j = max(n - 11, 0)
    return xs[j], 100.0 * (j + 1) / n, n - 1 - j


def _provenance(args, versions):
    src = sorted(glob.glob(os.path.join(ROOT, "src", "vdwgrating", "*.py")))
    h = hashlib.sha256()
    lines = 0
    for path in src:
        with open(path, "rb") as fh:
            body = fh.read()
        h.update(os.path.basename(path).encode() + b"\0" + body)
        lines += body.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }


def _end_to_end(out, setups):
    lat = out["latencies"]
    tail, pct, beyond = _tail(lat)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(out["completed"]) / out["loop_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mb": out["peak_rss_mb"],
    }, {"op_tail_pct": pct, "op_tail_ops_beyond": beyond, "ops": len(lat)}


def _per_layer(out, imports):
    n = len(out["completed"])
    layers = out["layers"]
    values = {name: layers.get(layer, {}).get(key, 0.0) / n
              for name, (layer, key) in LAYER_TOTALS.items()}
    values.update({f"import.{mod}.s": statistics.median(times)
                   for mod, times in imports.items()})
    subs = out.get("subcommands", [])
    for sub in CLI_SUBCOMMANDS:
        times = [t for s, t in zip(subs, out["latencies"]) if s == sub]
        values[f"cli.{sub}.s"] = statistics.median(times) if times else 0.0
    untraced = n / sum(out["latencies"])
    traced = n / sum(out["traced_latencies"])
    values["trace.ops_per_s_delta"] = untraced - traced
    return values, {"untraced_ops_per_s": untraced,
                    "traced_ops_per_s": traced}


def run(args, workdir):
    runner = Runner(args, workdir)
    setups, imports = runner.setup_probes()
    out, setup, loop_dir = runner.loop()
    setups.append(setup)
    if not out["completed"]:
        raise RunError("no op completed: " + "".join(out["errors"])[-4000:])
    checks = runner.check(loop_dir, out)

    failed = len(out["errors"])
    max_dev = max(checks["deviations"].values())
    checks_ok = bool(checks["checked"]) and max_dev <= 1.0 \
        and checks["replay_identical"]
    if not checks_ok:
        failed += 1  # the checked op failed its oracle check
    attempted = out["attempted"]
    correct = checks_ok and failed == 0 and out["identical"]

    report = {
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "max_dev_tol": {"value": max_dev, "unit": "tol"},
    }
    if out.get("fits"):
        pulls = [(fit - true) / unc for true, fit, unc in out["fits"]]
        report["c3_pull_rms"] = {
            "value": (sum(p * p for p in pulls) / len(pulls)) ** 0.5,
            "unit": "sigma"}
    info = {"checks": checks, "outputs_identical": out["identical"],
            "errors": out["errors"], "setup_samples_s": setups,
            "latencies_s": out["latencies"]}
    if args.trace:
        metrics, more = _per_layer(out, imports)
        units = per_layer_units()
    else:
        metrics, more = _end_to_end(out, setups)
        units = END_TO_END
    info.update(more)
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()}

    print("provenance " + json.dumps(_provenance(args, out["versions"])))
    print("report " + json.dumps({"metrics": {**metrics, **report},
                                  "info": info}))
    for name, m in {**metrics, **report}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    needed = [os.path.join(ROOT, "src", "vdwgrating", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    needed += [os.path.join(ROOT, p) for p in ("configs/he_star.cfg",
                                               "configs/ne_star.cfg")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a vdwgrating checkout, missing {missing}",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=scratch)
    try:
        run(args, workdir)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
