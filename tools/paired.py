"""Compare two checkouts on one perfbench workload, pass by pass, in two
warm worker processes.  Usage:

    python3 tools/paired.py BASE CHANGED --workload W --seed N [--pairs P]

Each worker imports perfbench/run.py from its own checkout, which
imports simpcat from that checkout's src/; it writes no bytecode and
changes nothing under perfbench/.  It generates the workload's inputs
and runs one untimed warm-up pass.  Then each pair runs one pass on
each side, and the side that goes first alternates from pair to pair.
A pass's time is the sum of its jobs' times, unscaled: within a pair
both sides see the same host.  Its wall time is taken around the whole
pass, so it also counts work that a job leaves for later, such as a
collection of the cyclic garbage collector that falls between jobs.
Every job is checked as perfbench checks it (exit code, known answer,
committed digest).

One line per pair goes to stderr.  The last line of stdout is a JSON
object: each side's median and quartiles of pass time, the median and
quartiles of the per-pair ratio CHANGED / BASE, the pairs CHANGED won
(strictly faster), the same ratio and wins for wall time ("wall"), and
the failed jobs of each side.  The exit status is 1 when a job failed
on either side.  Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time


def worker(checkout, workload, seed):
    """Serve passes of one workload from checkout over stdin/stdout."""
    sys.dont_write_bytecode = True
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # whatever the jobs print stays off the reply stream
    sys.stdout = sys.stderr
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import run
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        run.die("PYTHONHASHSEED must be %s" % run.HASH_SEED)
    workdir = os.path.join(run.WORK, "paired-%s-%d-%d"
                           % (workload, seed, os.getpid()))
    try:
        sc, jobs, _ = run.cold_start(workload, seed, workdir)
        runner = run.Runner(sc, jobs, run.load_committed())
        runner.run_pass()
        reply.write(json.dumps({"jobs": len(jobs)}) + "\n")
        reply.flush()
        for _ in sys.stdin:
            start = time.perf_counter()
            results = runner.run_pass()
            wall_s = time.perf_counter() - start
            reply.write(json.dumps({
                "s": sum(dt for dt, _ in results), "wall_s": wall_s,
                "failed": sum(err is not None for _, err in results)}) + "\n")
            reply.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Side:
    def __init__(self, checkout, workload, seed):
        self.checkout = os.path.abspath(checkout)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker",
             self.checkout, workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=self.checkout, env=dict(os.environ, PYTHONHASHSEED="0"))
        self.jobs = self.read()["jobs"]
        self.times, self.walls, self.failed = [], [], 0

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            sys.exit("paired: the worker for %s stopped (exit %s)"
                     % (self.checkout, self.proc.wait()))
        return json.loads(line)

    def run_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        got = self.read()
        self.times.append(got["s"])
        self.walls.append(got["wall_s"])
        self.failed += got["failed"]
        return got["s"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(base, changed):
    """The per-pair ratios changed / base and the pairs changed won."""
    ratios = [c / b for b, c in zip(base, changed)]
    return {"ratio": {"median": statistics.median(ratios),
                      "quartiles": quartiles(ratios)},
            "wins": sum(c < b for b, c in zip(base, changed))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("changed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=30)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = []
    try:
        for checkout in (args.base, args.changed):
            sides.append(Side(checkout, args.workload, args.seed))
        base, changed = sides
        if base.jobs != changed.jobs:
            sys.exit("paired: the checkouts run %d and %d jobs"
                     % (base.jobs, changed.jobs))
        for i in range(args.pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                side.run_pass()
            sys.stderr.write("pair %d: base %.4f s, changed %.4f s, ratio "
                             "%.3f, wall ratio %.3f\n"
                             % (i + 1, base.times[-1], changed.times[-1],
                                changed.times[-1] / base.times[-1],
                                changed.walls[-1] / base.walls[-1]))
    finally:
        for side in sides:
            side.close()
    out = {"workload": args.workload, "seed": args.seed,
           "pairs": args.pairs, "jobs_per_pass": base.jobs,
           **compare(base.times, changed.times),
           "wall": compare(base.walls, changed.walls),
           "failed": {"base": base.failed, "changed": changed.failed}}
    for name, side in (("base", base), ("changed", changed)):
        out[name] = {"checkout": side.checkout,
                     "median_s": statistics.median(side.times),
                     "quartiles_s": quartiles(side.times)}
    print(json.dumps(out))
    return 1 if base.failed or changed.failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
