"""The demos run end to end and print what they printed when recorded.

Each demo runs in a fresh interpreter with an empty working directory,
as a user would run it, and must print nothing on stderr: demo 03 runs
maximum entropy through the n = 100 breakdown region, where a numpy
warning the solver failed to contain would show.  Demos 01-03 print only
computed results, so their stdout is pinned by SHA-256; demo 04 prints
timings, so only its exit code and line count are checked.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import owakit

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

STDOUT_SHA256 = {
    "01_weight_families.py": "4cc497de27620e0adc85c3eee307b2e30c8d18b59ee6ad5d5d2046a15706a956",
    "02_entropy_curves.py": "1a7b5ba536d36ba10e8c76d6ba46a3a6c5b5a7354fcf282d91952b4e8cb83a51",
    "03_instability_region.py": "5d9c77cbe8a71d712d6a9fa7d8b0e4f453d56e831af222855e381a00733e4096",
}


def _run_demo(name, cwd):
    src = os.path.dirname(os.path.dirname(owakit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        check=False,
    )


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(tmp_path, name):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b"", proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()


def test_timing_demo_runs(tmp_path):
    proc = _run_demo("04_timing.py", tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b"", proc.stderr.decode()
    # Six rows (three linear betas and three other methods) for each of two sizes.
    assert len(proc.stdout.decode().splitlines()) == 12
