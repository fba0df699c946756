import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(name, *args):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name),
                           *args], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scripts_run():
    table = _run("theory_table.py")
    for species in ("He*", "Ne*"):
        assert any(line.startswith(species) for line in table.splitlines())
    # kernel_counts.py wraps grating._cos_dot and groups its calls by the
    # nearest enclosing frame named _slit*.  An op makes at least three
    # kernel calls: the velocity average, the fit surrogate and the exact
    # model at the minimum.
    total = json.loads(_run("kernel_counts.py", "--seed", "1", "--ops", "2")
                       .splitlines()[-1])["total"]
    assert total["core_calls"] >= 6
    assert total["items"] > 0
    assert total["escalations"] == 0


def test_kernel_counts_rejects_unattributed_products(monkeypatch):
    # a cosine product under no _slit* frame cannot be filed under a
    # kernel call: the script must fail instead of printing counts
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "kernel_counts", os.path.join(SCRIPTS, "kernel_counts.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(os.path.dirname(SCRIPTS))
    monkeypatch.setattr(sys, "argv", ["kernel_counts.py", "--ops", "1"])
    monkeypatch.setattr(script.workloads, "orders_op", lambda *args: (
        script.grating._cos_dot(np.ones(2), np.zeros(3), np.ones((3, 2)),
                                1.0)))
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code not in (0, None)
