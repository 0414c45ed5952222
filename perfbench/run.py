"""logchern benchmark: end-to-end job metrics and per-layer traced counters.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root; the program is imported from ``src``.  Every
measurement runs in a child process with a pinned environment
(``PYTHONHASHSEED=0``, ``LOGCHERN_THREADS`` removed).

``--trace 0`` measures, with tracing off:

* ``setup_s``: median set-up time of fresh interpreters that import
  logchern, write the seeded inputs and load the reference reports, ready
  for the first timed job (CPU time from process start, so interpreter start
  is included);
* ``jobs_per_s``: correct jobs per second of job time in the closed loop;
* ``job_s_p50``: median time of one ``cli.run`` + ``cli.render``;
* ``peak_rss_mb``: peak resident memory of the loop process;
* ``ok_frac``: 1 - ``fail_frac``, the share of attempted jobs that returned,
  exited 0 and passed the correctness gate (reported this way round because
  a benchmark metric must never read 0).

Every time is CPU time of the benchmark process at the reference host speed
of `yardstick`: the program is serial, so on an idle host CPU time equals
wall time, and the yardstick, sampled during each job and after each
set-up, takes out most of the change in host speed that other tenants
cause.  The summary lines also give the raw CPU and wall-clock figures.

``--trace 1`` runs the loop untraced for a third of the time, then the same
jobs again in a traced process, and reports the per-layer metrics of
`spans.Tracer` (per job), ``trace.job_s`` (traced wall time per job, the
clock of the spans, so that layer times read as shares of it) and
``trace.overhead_s`` (traced minus untraced time per job, at the reference
host speed).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Earlier lines give a readable summary with ``fail_frac``, the job sample
count and the environment (Python version, nproc, load average).
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402
from spans import unit  # noqa: E402

SETUP_PROBES = 11
DEADLINE_S = 170  # a run must end within 180 s


def pinned_env():
    env = dict(os.environ)
    env.pop("LOGCHERN_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


class Workers:
    """Starts worker.py processes with a pinned environment and a deadline."""

    def __init__(self):
        self.env = pinned_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, *args):
        """Run worker.py to completion; returns its JSON summary."""
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=self.env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        lines = proc.stdout.splitlines()
        if not lines:
            raise ValueError("worker printed no summary")
        return json.loads(lines[-1])


def setup_seconds(workers, workload, seed):
    """Median set-up time of fresh worker processes (after one warm-up)."""
    args = ("--workload", workload, "--seed", str(seed), "--setup-only")
    workers.run(*args)  # writes bytecode caches; not timed
    probes = [workers.run(*args) for _ in range(SETUP_PROBES)]
    return {key: statistics.median(p[key] for p in probes)
            for key in ("setup_s", "setup_cpu_s", "setup_wall_s")}


def measure(workload, seed, seconds, trace):
    workers = Workers()
    base = ("--workload", workload, "--seed", str(seed))
    if not trace:
        setup = setup_seconds(workers, workload, seed)
        loop = workers.run(*base, "--seconds", str(seconds))
        loop["setup"] = setup
        metrics = {
            "jobs_per_s": (loop["ok"] / sum(loop["job_ref_s"]), "1/s"),
            "job_s_p50": (statistics.median(loop["job_ref_s"]), "s"),
            "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
            "setup_s": (setup["setup_s"], "s"),
            "ok_frac": (1 - loop["failed"] / loop["attempted"], "ratio"),
        }
        return loop, metrics
    plain = workers.run(*base, "--seconds", str(seconds / 3))
    loop = workers.run(*base, "--rounds", str(plain["rounds"]), "--trace")
    layers = loop["layers"]
    jobs = len(loop["job_s"])
    layers["trace.job_s"] = sum(loop["job_s"]) / jobs
    layers["trace.overhead_s"] = (sum(loop["job_ref_s"]) -
                                  sum(plain["job_ref_s"])) / jobs
    loop["attempted"] += plain["attempted"]
    loop["failed"] += plain["failed"]
    loop["failures"] += plain["failures"]
    return loop, {name: (value, unit(name)) for name, value in layers.items()}


def result_line(loop, metrics):
    return {"correct": loop["failed"] == 0, "attempted": loop["attempted"],
            "failed": loop["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def summary(workload, loop, metrics):
    lines = [f"# workload {workload}: {loop['attempted']} jobs attempted, "
             f"{len(loop['job_s'])} timed samples, "
             f"fail_frac {loop['failed'] / loop['attempted']:.4f}"]
    lines += [f"#   {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    if "setup" in loop:
        raw = {"job_cpu_s_p50": statistics.median(loop["job_cpu_s"]),
               "job_wall_s_p50": statistics.median(loop["job_s"]),
               "jobs_per_wall_s": loop["ok"] / loop["wall_s"],
               "setup_cpu_s": loop["setup"]["setup_cpu_s"],
               "setup_wall_s": loop["setup"]["setup_wall_s"],
               "yardstick_s_p50": statistics.median(loop["yardstick_s"])}
        lines.append("#   raw: " + ", ".join(f"{k} = {v:.6g}"
                                               for k, v in raw.items()))
    lines += [f"#   FAILED {f}" for f in loop["failures"]]
    return "\n".join(lines)


def main(argv=None):
    # SystemExit inside subprocess.run kills the running worker and waits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "logchern")):
        print("error: run from a checkout that holds src/logchern",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            loop, metrics = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print(summary(name, loop, metrics))
        results[name] = result_line(loop, metrics)
        record = dict(results[name], environment=environment(),
                      **{k: loop[k] for k in ("job_s", "job_cpu_s",
                                             "job_ref_s", "yardstick_s")},
                      failures=loop["failures"])
        path = os.path.join(HERE, "_work", f"result-{name}-{args.seed}"
                            f"-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print("# environment " + json.dumps(environment()))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
