"""The two verify sweeps of the benchmark must keep their reports.

`bench/run.py` counts a sweep run as failed when the sha256 of its
report (timings left out) differs from `bench/digests.json`.  This test
computes the same hash, from the same fields, so a change that alters
a report fails here first.  It only reads `bench/`.
"""

import json
from pathlib import Path

import pytest

from gogmagog.enumeration import verify

from conftest import report_digest

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text()
)


@pytest.mark.parametrize(
    "workload, suite, n_max",
    [("sweep-bijection", "bijection-n2", 6), ("sweep-involution", "oracle", 4)],
)
def test_sweep_report_matches_recorded_digest(workload, suite, n_max):
    assert report_digest(verify(suite, n_max)) == DIGESTS[workload]
