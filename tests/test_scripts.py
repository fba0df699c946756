import json
import os
import subprocess
import sys

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
    # nearest enclosing frame named _slit*; calls under no such frame all
    # count as one.  An op makes at least three kernel calls: the velocity
    # average, the fit surrogate and the exact model at the minimum.
    total = json.loads(_run("kernel_counts.py", "--seed", "1", "--ops", "2")
                       .splitlines()[-1])["total"]
    assert total["core_calls"] >= 6
    assert total["items"] > 0
    assert total["escalations"] == 0
