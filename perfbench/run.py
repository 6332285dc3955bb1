"""simpcat benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports simpcat from its
``src/``.  One process, one client, no threads: each pass runs the
workload's fixed job list in order (a closed loop), every job's answer is
checked against a known answer computed without simpcat, and every job's
output digest is compared with the committed one and with the first
pass.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

JOB_LIMIT_S = 60.0   # a job slower than this counts as failed
SETUPS = 3           # cold import-and-generate set-ups per run
CHILD_TIMEOUT_S = 170.0
# string hashing is randomized per process; the job mix iterates over
# sets and dicts, so pin it to keep timings and trace counts repeatable
HASH_SEED = "0"
# end-to-end times are reported at the host speed where reference_s()
# reads this many seconds (see README, "Host speed")
REFERENCE_S = 0.015


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def import_simpcat():
    if not os.path.isfile(os.path.join(SRC, "simpcat", "cli.py")):
        die("no simpcat sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import simpcat
    import simpcat.cli  # imports every layer
    if not os.path.abspath(simpcat.__file__).startswith(SRC + os.sep):
        die("simpcat imported from %s, not from this checkout"
            % simpcat.__file__)
    return simpcat


# -- library calls for constructions the CLI lacks ----------------------------


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def lib_product(sc, a, b, out):
    X = sc.formats.load_object(a, "simplicial-set")
    Y = sc.formats.load_object(b, "simplicial-set")
    P, _ = sc.sset.product(X, Y)
    _write(out, sc.formats.dumps(sc.formats.sset_to_dict(P)))
    return 0


def lib_frak_cube_iso(sc, interval, n, out):
    I = sc.formats.load_object(interval, "simplicial-set")
    cube = I
    for _ in range(n - 2):
        cube, _ = sc.sset.product(cube, I)
    M = sc.hcnerve.frak_c(n).mapspace("0", str(n))
    ok = sc.sset.is_isomorphic(M, cube)
    _write(out, sc.formats.dumps({"kind": "isomorphism-verdict",
                                  "isomorphic": ok}))
    return 0 if ok else 1


LIBRARY_CALLS = {"product": lib_product, "frak_cube_iso": lib_frak_cube_iso}


# -- running jobs --------------------------------------------------------------


class Runner:
    def __init__(self, sc, jobs, committed):
        self.sc = sc
        self.jobs = jobs
        self.committed = committed
        self.seen = {}        # job key -> digest of the first pass
        self.failures = []    # (job name, reason), every pass

    def run_job(self, job):
        """Returns (seconds, error or None)."""
        if job.out and os.path.exists(job.out):
            os.remove(job.out)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if job.argv is not None:
                    rc = self.sc.cli.main(job.argv)
                else:
                    name, args = job.call
                    rc = LIBRARY_CALLS[name](self.sc, *args)
        except SystemExit as e:
            rc, error = e.code, "exited %r: %s" % (e.code, err.getvalue())
        except Exception as e:  # a crash is a failed job, not a stop
            rc, error = None, "raised %r" % (e,)
        dt = time.perf_counter() - t
        out_bytes = b""
        if job.out and os.path.exists(job.out):
            with open(job.out, "rb") as fh:
                out_bytes = fh.read()
        stdout = out.getvalue()
        if error is None and dt > JOB_LIMIT_S:
            error = "took %.1f s, limit %.0f s" % (dt, JOB_LIMIT_S)
        if error is None:
            error = job.check(rc, stdout, out_bytes)
        if error is None:
            digest = hashlib.sha256(stdout.encode() + b"\0"
                                    + out_bytes).hexdigest()
            want = self.committed.get(job.key, self.seen.get(job.key))
            if want is not None and digest != want:
                error = "output digest changed"
            self.seen.setdefault(job.key, digest)
        if error is not None:
            self.failures.append((job.name, error))
        return dt, error

    def run_pass(self, tracer=None):
        """Returns per-job [(seconds, error)] in job order."""
        results = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.name
            results.append(self.run_job(job))
        return results


def load_committed():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def cold_start(workload, seed, workdir):
    """Import simpcat and write the inputs; seconds since process start."""
    sc = import_simpcat()
    os.makedirs(workdir)
    jobs = workloads.build(workload, seed, workdir)
    return sc, jobs, time.perf_counter() - T0


def cold_start_child(args):
    """The same cold start in a fresh interpreter; its seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die("set-up child failed: %s" % proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_s():
    """Median time of a fixed allocation-heavy Python workload that does
    not touch simpcat.  Shared hosts change CPU speed by a fifth or more
    for tens of seconds at a time; this tracks it.  The collector is
    paused so that the size of the program's heap does not leak in."""
    times = []
    paused = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            t = time.perf_counter()
            table = {}
            for i in range(10000):
                key = (i % 97, i % 89, i)
                table[key] = tuple(sorted(key))
            json.loads(json.dumps([list(k) for k in table]))
            times.append(time.perf_counter() - t)
    finally:
        if paused:
            gc.enable()
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, seconds, references):
    """Timed passes until `seconds` have elapsed (at least one), timing
    the reference workload after each."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
        references.append(reference_s())
    return passes


def end_to_end(runner, passes, setup_s, rss, references):
    """Metrics at the reference host speed: every time is multiplied by
    REFERENCE_S over the run's median reference time."""
    scale = REFERENCE_S / statistics.median(references)
    sys.stderr.write("perfbench: unscaled pass_s %.4f, speed scale %.4f\n"
                     % (statistics.median(sum(dt for dt, _ in p)
                                          for p in passes), scale))
    passes = [[dt * scale for dt, _ in p] for p in passes]
    samples = [dt for p in passes for dt in p]
    per_job = [statistics.median(p[i] for p in passes)
               for i in range(len(runner.jobs))]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    beyond = sum(1 for s in samples if s > p90)
    sys.stderr.write("perfbench: %d passes, %d job samples, %d beyond "
                     "p90\n" % (len(passes), len(samples), beyond))
    return {
        "verdict_p50_s": metric(statistics.median(samples), "s"),
        "verdict_p90_s": metric(p90, "s"),
        "verdict_geomean_s": metric(statistics.geometric_mean(per_job),
                                    "s"),
        "pass_s": metric(statistics.median(sum(p) for p in passes), "s"),
        "peak_rss_mib": metric(rss, "MiB"),
        "setup_s": metric(setup_s * scale, "s"),
    }


def per_layer(sc, runner, seconds, workload, seed):
    """Alternate untraced and traced passes; report each layer metric as
    the median over traced passes."""
    from tracer import LAYER_METRICS, Tracer
    tracer = Tracer(sc)
    plain, traced, snaps = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    counts = [(s["calls"], s["extra"]) for s in snaps]
    if any(c != counts[0] for c in counts):
        runner.failures.append(("trace", "counts differ between passes"))
    write_spans(tracer, snaps[-1], workload, seed)
    out = {name: metric(statistics.median(f(s) for s in snaps), unit)
           for name, unit, f in LAYER_METRICS}
    plain_s = statistics.median(sum(dt for dt, _ in p) for p in plain)
    traced_s = statistics.median(sum(dt for dt, _ in p) for p in traced)
    out["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")
    return out, plain + traced


def write_spans(tracer, snap, workload, seed):
    """Spans of the last traced pass and its per-function totals."""
    os.makedirs(TRACE_OUT, exist_ok=True)
    path = os.path.join(TRACE_OUT, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans, "calls": snap["calls"],
                   "self_s": snap["self_s"], "extra": snap["extra"]}, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="one cold start; print its seconds (internal)")
    ap.add_argument("--record-digests", action="store_true",
                    help="merge this run's output digests into "
                         "digests.json")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    try:
        sc, jobs, cold_s = cold_start(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": cold_s}))
            return 0
        # set-up = cold start + one untimed warm-up pass; the cold start
        # is repeated in fresh interpreters and its median taken
        runner = Runner(sc, jobs, load_committed())
        references = [reference_s()]
        t = time.perf_counter()
        runner.run_pass()
        warm_s = time.perf_counter() - t
        # every object the program retains is alive by now; reading here,
        # not at the end, keeps the figure independent of how many passes
        # fit in the run
        rss = peak_rss_mib()
        references.append(reference_s())
        if args.trace:
            metrics, passes = per_layer(sc, runner, args.seconds,
                                        args.workload, args.seed)
        else:
            colds = [cold_s] + [cold_start_child(args)
                                for _ in range(SETUPS - 1)]
            sys.stderr.write("perfbench: unscaled cold starts %s s, warm-up "
                             "%.3f s\n" % (", ".join("%.3f" % c
                                                     for c in colds), warm_s))
            passes = measure(runner, args.seconds, references)
            metrics = end_to_end(runner, passes,
                                 statistics.median(colds) + warm_s, rss,
                                 references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, err in p if err is not None)
    for name, reason in runner.failures[:20]:
        sys.stderr.write("perfbench: FAILED %s: %s\n" % (name, reason))
    if args.record_digests and not runner.failures:
        digests = dict(load_committed(), **runner.seen)
        with open(DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=0, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
