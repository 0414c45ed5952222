"""One benchmark process: set up a workload, run its jobs in a closed loop.

One client, one thread, serial jobs: the next job starts when the previous
one has returned.  A job is ``logchern.cli.run(JobConfig(...))`` followed by
``cli.render(report, "json")``, exactly what the ``logchern`` command does.

    worker.py --workload W --seed N --setup-only
    worker.py --workload W --seed N --seconds S [--rounds R] [--trace]
    worker.py --record            # rewrite reference/*.json (default seed)

The last stdout line is a JSON summary for ``run.py``.  Run it through
``run.py``, which pins the environment (``PYTHONHASHSEED=0``, no
``LOGCHERN_THREADS``) and puts ``src`` on the import path.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import inputs  # noqa: E402
import yardstick  # noqa: E402

WORKDIR = os.path.join(HERE, "_work")
REFERENCE_DIR = os.path.join(HERE, "reference")


def load_references(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed):
    """Import logchern, write the inputs, load the reference reports."""
    from logchern import cli
    arrs = inputs.write_inputs(workload, seed, WORKDIR)
    return cli, arrs, load_references(workload), inputs.job_rounds(workload,
                                                                   seed)


def run_job(cli, job):
    """One CLI job; returns (parsed JSON report, exit code)."""
    _key, command, name = job
    config = cli.JobConfig(command, inputs.input_spec(WORKDIR, name),
                           fmt="json")
    report, code = cli.run(config)
    return json.loads(cli.render(report, "json")), code


def closed_loop(cli, rounds, arrs, refs, seconds, max_rounds, tracer=None):
    """Run whole rounds of jobs for about ``seconds``, or ``max_rounds``.

    A new round starts only while half the mean round so far still fits in
    ``seconds``, so the run ends within about half a round of ``seconds``,
    with the workload's full mix.  Each job is timed three ways: wall time
    (``job_s``), the CPU time of this process less the yardstick's
    (``job_cpu_s``), and that CPU time at the reference host speed
    (``job_ref_s``), scaled by `yardstick.REFERENCE_S` over the median
    yardstick sample taken during the job (over the run's median for a job
    too short to get a sample).
    """
    wall, cpu, yard, failures = [], [], [], []
    sampler = yardstick.Sampler()
    done = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if max_rounds is not None and done >= max_rounds:
            break
        if max_rounds is None and done and elapsed * (done + 0.5) / done > \
                seconds:
            break
        for job in rounds[done % len(rounds)]:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with sampler:
                    if tracer is None:
                        report, code = run_job(cli, job)
                    else:
                        report, code = tracer.run_job(
                            len(cpu) + 1, lambda: run_job(cli, job))
            except Exception as exc:  # a raising job is a failed job
                report, code = None, None
                failures.append(f"{job[0]}: {type(exc).__name__}: {exc}")
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0 - sum(sampler.samples))
            yard.append(sampler.samples)
            if report is not None:
                why = gate.problems(job, report, code, arrs, refs)
                if why:
                    failures.append(f"{job[0]}: {'; '.join(why)}")
        done += 1
    wall_s = time.perf_counter() - start
    fallback = statistics.median(s for ss in yard for s in ss) if any(yard) \
        else statistics.median(yardstick.samples(0.05))
    yard = [statistics.median(ss) if ss else fallback for ss in yard]
    return {"rounds": done, "attempted": len(cpu), "failed": len(failures),
            "ok": len(cpu) - len(failures), "failures": failures[:10],
            "job_s": wall, "job_cpu_s": cpu,
            "job_ref_s": [c * yardstick.REFERENCE_S / y
                          for c, y in zip(cpu, yard)],
            "yardstick_s": yard, "wall_s": wall_s}


def record():
    """Record the default-seed reference report of every job in each cycle."""
    from logchern import cli
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    seed = gate.REFERENCE_SEED
    for workload in inputs.WORKLOADS:
        arrs = inputs.write_inputs(workload, seed, WORKDIR)
        refs = {}
        for job in (j for r in inputs.job_rounds(workload, seed) for j in r):
            if job[0] in refs:
                continue
            report, code = run_job(cli, job)
            why = gate.problems(job, report, code, arrs, {})
            if why:
                raise SystemExit(f"{job[0]} fails its invariants: {why}")
            refs[job[0]] = {k: v for k, v in report.items() if k != "engine"}
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(refs)} reference reports", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gate.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cli, arrs, refs, rounds = setup(args.workload, args.seed)
    if args.setup_only:
        # CPU time of the whole process so far, interpreter start included
        setup_cpu_s = time.process_time()
        setup_wall_s = time.perf_counter() - STARTED
        yard = statistics.median(yardstick.samples(0.04))
        print(json.dumps({
            "setup_s": setup_cpu_s * yardstick.REFERENCE_S / yard,
            "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s}))
        return 0
    out = closed_loop(cli, rounds, arrs, refs, args.seconds, args.rounds,
                      tracer)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics(max(1, len(out["job_s"])))
        tracer.dump(os.path.join(
            WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
