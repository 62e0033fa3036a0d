#!/usr/bin/env python3
"""Rewrite ``bench/pins.json``: the SHA-256 of every rendered report of the
default seed.

    python3 bench/repin.py

A report is pinned only after it passes its closed-form oracle.  Repinning
is a deliberate act: a change that alters any report bytes says so.
"""

import contextlib
import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main():
    pins = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"repin-{os.getpid()}")
        try:
            cli, jobs, paths = run.setup(workload, workloads.DEFAULT_SEED, workdir)
            pins[workload] = {}
            for job, path in zip(jobs, paths):
                text, problems = run.execute(cli, job, path, None)
                if problems:
                    print(f"{job.name}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                pins[workload][job.name] = hashlib.sha256(text.encode()).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)
    with open(run.PINS, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
