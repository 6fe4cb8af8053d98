"""The benchmark's workloads run end to end on this checkout.

Each run checks its own reference: catalog-ex5 the committed exhaustive:5
verdict stream, bundles-mid networkx's diameter, clique and independence
numbers and the oracle engine's gp_t, gp_o and gp_d of every bundle, and
products-large at seed 1 the committed verdict lines and networkx's values.  Nothing here times anything; the workloads are run as
``perfbench/run.py`` runs them, hooks on ``statements._run_instance``
included.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["catalog-ex5", "bundles-mid", "products-large"])
def test_workload_is_correct(workload):
    pytest.importorskip("networkx")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
