"""The benchmark's workloads run clean against this checkout.

perfbench drives volcount through its public modules; a change that removes
or breaks something a workload calls fails here, in the test suite, and not
only when the benchmark runs.  Each workload runs once, in process, with the
modules loaded as perfbench/worker.py loads them.  selftest is left out:
test_acceptance.py already runs every criterion.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from stats import Ledger  # noqa: E402
from worker import import_volcount  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", ["build", "query", "certify"])
def test_workload_runs_clean(workload):
    setup, run, _ = WORKLOADS[workload]
    vc = import_volcount()
    ledger = Ledger()
    run(vc, setup(vc, random.Random(7)), ledger)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.messages
