"""Every benchmark job still gives its pinned report.

``bench/run.py`` checks each report against a closed-form oracle and, for
seed 1, against the SHA-256 pins in ``bench/pins.json``; this runs one round
of each workload the same way, so a change of answer fails tier-1 too.
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


@pytest.mark.parametrize("workload", RUNNER.workloads.WORKLOADS)
def test_benchmark_round_matches_oracles_and_pins(workload, tmp_path):
    cli, jobs, paths = RUNNER.setup(workload, RUNNER.workloads.DEFAULT_SEED,
                                    tmp_path)
    pins = PINS[workload]
    assert sorted(pins) == sorted(job.name for job in jobs)
    for job, path in zip(jobs, paths):
        _, problems = RUNNER.execute(cli, job, path, pins[job.name])
        assert problems == [], f"{workload}/{job.name}: {problems}"
