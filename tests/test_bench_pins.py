"""Every benchmark job still gives its pinned report.

``bench/run.py`` checks each report against a closed-form oracle and, for
seed 1, against the SHA-256 pins in ``bench/pins.json``; this runs one round
of each workload the same way, so a change of answer fails tier-1 too.  A
round on seed 2 checks the oracles on other coefficients (there are no pins
for it), so caches and certificates meet more than one set of inputs.  Two
traced rounds of each workload must record the same counts, as ``run.py
--trace 1`` requires of its traced rounds, and a seed-1 round must record
the counts pinned in ``tests/golden/bench_counts.json``: the calls of each
traced function and what it counts (bases, relations, offered and kept
columns, accepted rows, matrix cells, report bytes), so a change that keeps
the answers also keeps the algebraic work that gives them, or repins on
purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = load_runner()
PINS = json.loads((BENCH / "pins.json").read_text())
COUNTS = json.loads((Path(__file__).resolve().parent / "golden"
                     / "bench_counts.json").read_text())


PINNED_SEED = RUNNER.workloads.DEFAULT_SEED
SEEDS = (PINNED_SEED, 2)
# the pinned seed keeps the bare workload as its test id
CASES = [pytest.param(workload, seed, id=workload if seed == PINNED_SEED
                      else f"{workload}-seed{seed}")
         for seed in SEEDS for workload in RUNNER.workloads.WORKLOADS]


@pytest.mark.parametrize("workload, seed", CASES)
def test_benchmark_round_matches_oracles_and_pins(workload, seed, tmp_path):
    cli, jobs, paths = RUNNER.setup(workload, seed, tmp_path)
    pins = PINS[workload] if seed == PINNED_SEED else {}
    if seed == PINNED_SEED:
        assert sorted(pins) == sorted(job.name for job in jobs)
    for job, path in zip(jobs, paths):
        _, problems = RUNNER.execute(cli, job, path, pins.get(job.name))
        assert problems == [], f"{workload}/seed {seed}/{job.name}: {problems}"


@pytest.mark.parametrize("workload", RUNNER.workloads.WORKLOADS)
def test_traced_rounds_repeat_their_counts(workload, tmp_path):
    cli, jobs, paths = RUNNER.setup(workload, PINNED_SEED, tmp_path)
    summaries = []
    for _ in range(2):
        with RUNNER.Tracer() as tracer:
            result = RUNNER.run_round(cli, jobs, paths, PINS[workload], tracer)
        assert result["failures"] == [], f"{workload}: {result['failures']}"
        summaries.append(RUNNER.counts_only(tracer.summary()))
    assert summaries[0], f"{workload}: the traced round recorded nothing"
    assert summaries[1] == summaries[0]


@pytest.mark.parametrize("workload", RUNNER.workloads.WORKLOADS)
def test_traced_round_does_the_pinned_work(workload, tmp_path):
    cli, jobs, paths = RUNNER.setup(workload, PINNED_SEED, tmp_path)
    with RUNNER.Tracer() as tracer:
        result = RUNNER.run_round(cli, jobs, paths, PINS[workload], tracer)
    assert result["failures"] == [], f"{workload}: {result['failures']}"
    assert RUNNER.counts_only(tracer.summary()) == COUNTS[workload]
