#!/usr/bin/env python3
"""Job-level benchmark of cising: a single-process closed loop.

One client submits the jobs of a workload one after another through the
CLI's public entry, ``cising.cli.main``, in this process, and checks every
report against a closed-form oracle before it submits the next job.  The
whole job list is one round; rounds repeat until ``--seconds`` have passed
(a run stops within half a round of it), and each timing is a median over
rounds.

    python3 bench/run.py --workload ci-resolution --seed 1 --seconds 36 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` rounds alternate between untraced and traced, and the last line
carries the per-layer metrics.  The line before it records the Python
version, ``nproc``, the commit, the seed and the job sizes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PINS = os.path.join(HERE, "pins.json")
SETUP_SAMPLES = 5

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_cising():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cising", "cli.py")):
        raise SystemExit(f"error: no cising sources under {SRC}")
    sys.path.insert(0, SRC)
    import cising.cli
    if not os.path.abspath(cising.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: cising imported from {cising.cli.__file__}")
    return cising.cli


def setup(workload, seed, workdir):
    """Everything before the first job: import, generate and write the jobs."""
    cli = import_cising()
    jobs = workloads.make_jobs(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for job in jobs:
        path = os.path.join(workdir, f"{job.name}.json")
        with open(path, "wb") as handle:
            handle.write(job.file_bytes())
        paths.append(path)
    return cli, jobs, paths


def time_setups(workload, seed):
    """Wall time of fresh processes that only do :func:`setup`."""
    samples = []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only", f"setup-{os.getpid()}-{k}"],
                       cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def execute(cli, job, path, pin):
    """Run one job through the CLI and check its report.

    Returns ``(report text or None, problems)``; no problems means the job
    succeeded."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([job.command, path, "--format", "json"])
        if code != 0:
            return None, [f"exit code {code}: {err.getvalue().strip()}"]
        text = out.getvalue()
        report = json.loads(text)
    except Exception:  # a crashing job is a failed job, and the loop goes on
        return None, [traceback.format_exc()]
    problems = job.oracle(report)
    if report["input_sha256"] != hashlib.sha256(job.file_bytes()).hexdigest():
        problems.append("report names another input digest")
    if pin is not None and hashlib.sha256(text.encode()).hexdigest() != pin:
        problems.append("report differs from the pinned SHA-256")
    return text, problems


def run_round(cli, jobs, paths, pins, tracer=None):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    job_s, failures = {}, []
    for job, path in zip(jobs, paths):
        if tracer is not None:
            tracer.job = job.name
        start = time.perf_counter()
        _, problems = execute(cli, job, path, pins.get(job.name))
        job_s[job.name] = time.perf_counter() - start
        if problems:
            failures.append((job.name, problems))
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "job_s": job_s,
            "failures": failures}


def per_layer(name, summaries, overhead):
    """Value of one per-layer metric, ``<module>.<public name>.<quantity>``,
    from the :meth:`Tracer.summary` of each traced round."""
    if name == "trace.overhead_s":
        return overhead
    span, quantity = name.rsplit(".", 1)
    if quantity == "self_s":
        return statistics.median(s.get(span, {}).get("self_s", 0.0)
                                 for s in summaries)
    entry = summaries[0].get(span, {})
    if quantity == "accepted_ratio":
        calls = entry.get("calls", 0)
        return entry["accepted"] / calls if calls else 0.0
    if quantity == "kept_ratio":
        offered = entry.get("offered", 0)
        return entry["kept"] / offered if offered else 0.0
    return entry.get(quantity, 0)


def counts_only(summary):
    return {span: {k: v for k, v in entry.items() if k != "self_s"}
            for span, entry in summary.items()}


def read_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only import and write the jobs into DIR "
                             "under .bench_work, then exit (timed by the parent)")
    args = parser.parse_args(argv)

    if args.setup_only:
        workdir = os.path.join(WORK, os.path.basename(args.setup_only))
        try:
            setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    import_cising()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    setups = time_setups(args.workload, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        cli, jobs, paths = setup(args.workload, args.seed, workdir)
        pins = {}
        if args.seed == workloads.DEFAULT_SEED:
            with open(PINS) as handle:
                pins = json.load(handle)[args.workload]
        start = time.perf_counter()
        deadline = start + args.seconds
        rounds, traced_rounds, traced_walls = [], [], []
        while True:
            rounds.append(run_round(cli, jobs, paths, pins))
            if args.trace:
                with Tracer() as tracer:
                    traced = run_round(cli, jobs, paths, pins, tracer)
                rounds.append(traced)
                traced_rounds.append(tracer)
                traced_walls.append(traced["wall_s"])
            # stop once less than half an average iteration is left, so the
            # run ends within half an iteration of --seconds
            now = time.perf_counter()
            iteration = (now - start) / len(traced_rounds or rounds)
            if now + iteration / 2 >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    failures = [f for r in rounds for f in r["failures"]]
    for job_name, problems in failures:
        print(f"FAILED {job_name}: " + "; ".join(problems), file=sys.stderr)
    summaries = [t.summary() for t in traced_rounds]
    repeatable = all(counts_only(s) == counts_only(summaries[0]) for s in summaries)
    if not repeatable:
        print("FAILED: traced rounds disagree on their counts", file=sys.stderr)

    untraced = rounds[::2] if args.trace else rounds
    if args.trace:
        overhead = (statistics.median(traced_walls)
                    - statistics.median(r["wall_s"] for r in untraced))
        metrics = {m["name"]: {"value": per_layer(m["name"], summaries, overhead),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for key in ("wall_s", "cpu_s"):
            measured[key] = statistics.median(r[key] for r in untraced)
        measured["slowest_job_s"] = max(
            statistics.median(r["job_s"][job.name] for r in untraced)
            for job in jobs)
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps({"run": {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": read_commit(),
        "round_wall_s": [r["wall_s"] for r in untraced],
        "traced_rounds": len(traced_rounds),
        "setup_samples_s": setups,
        "jobs": {job.name: job.size for job in jobs},
    }}, sort_keys=True))
    print(json.dumps({"correct": not failures and repeatable,
                      "attempted": len(rounds) * len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
