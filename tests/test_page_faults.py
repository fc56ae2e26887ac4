"""Warm pipeline calls keep their temporaries on the heap (the one-time heap
seed in openmult.pyarith), so they do not page-fault."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import openmult

BOUND = 16  # mean minor faults per warm call; without the seed ~400 (graph) and ~1500 (probe)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the seed acts on glibc's malloc thresholds",
)
def test_warm_graph_and_probe_calls_do_not_page_fault():
    env = dict(os.environ, PYTHONPATH=str(Path(openmult.__file__).resolve().parent.parent))
    script = Path(__file__).with_name("page_faults.py")
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    per_call = json.loads(proc.stdout)
    assert per_call["graph"] < BOUND and per_call["probe"] < BOUND, per_call
