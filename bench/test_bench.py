"""Checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute: it runs one traced round of every workload twice.
"""

import contextlib
import io
import json
import os
import shutil

import pytest

import run
import workloads
from tracing import Tracer

# counts that must repeat exactly from run to run
COUNTED = ("calls", "cells", "offered", "kept", "basis_out", "relations_out",
           "report_bytes")


@pytest.fixture
def workdir():
    path = os.path.join(run.WORK, f"test-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)


def _counted_metrics(tracer):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        names = [m["name"] for m in json.load(handle)["per_layer"]]
    summary = tracer.summary()
    return {name: run.per_layer(name, [summary], 0.0) for name in names
            if name.rsplit(".", 1)[1] in COUNTED}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_repeat_byte_for_byte_and_validate(workload, workdir):
    for seed in (workloads.DEFAULT_SEED, 7):
        first = [job.file_bytes() for job in workloads.make_jobs(workload, seed)]
        second = [job.file_bytes() for job in workloads.make_jobs(workload, seed)]
        assert first == second
    cli, jobs, paths = run.setup(workload, workloads.DEFAULT_SEED, workdir)
    for job, path in zip(jobs, paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["validate", path, "--format", "json"])
        assert code == 0
        assert json.loads(out.getvalue())["result"]["findings"] == [], job.name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, workdir):
    cli, jobs, paths = run.setup(workload, workloads.DEFAULT_SEED, workdir)
    with open(run.PINS) as handle:
        pins = json.load(handle)[workload]
    assert sorted(pins) == sorted(job.name for job in jobs)
    counted = []
    for _ in range(2):
        with Tracer() as tracer:
            outcome = run.run_round(cli, jobs, paths, pins, tracer)
        assert outcome["failures"] == []
        counted.append(_counted_metrics(tracer))
    assert counted[0] == counted[1]
    assert counted[0]["cli.run_job.report_bytes"] > 0
