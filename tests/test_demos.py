"""Every demo script runs to completion against the package in src/ and prints pinned bytes.

The demos are deterministic, so a change that must keep behaviour keeps
their stdout; only a deliberate change to a demo or to what it shows may
update a hash here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo file name -> sha256 of its stdout.
STDOUT_SHA256 = {
    "01_core_decomposition.py": "d9f60e00a575eb8cdd89106101e299b1fecf718f623c33e3fda78f1086ad66ce",
    "02_hierarchy_walkthrough.py": "1f9217eabe7a9b46d05720a3ee07fd4fb7830d78e209a4e79c107c11d8302f52",
    "03_merging_small_clusters.py": "733a3443d32885356e15ad14915ba81e28d66d756de2ac0e1b0d5b3ea464fe61",
    "04_budget_sampling.py": "1587180d28ce9b6120010c74839274fa223fcc21108ea6994e994affa33ccec2",
    "05_modularity_degeneracy.py": "fbb2d92a9abca3767a48a5d04f675095d3e9887a7e3b37c886e7538da359e2ec",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
