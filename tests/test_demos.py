"""The demos run against this checkout's sources and finish cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env)


def test_operator_walkthrough():
    done = run_demo("operator_walkthrough.py")
    assert done.returncode == 0, done.stderr


def test_derived_family_tour():
    # the tour asserts the shifted sigmas and report.all_passed itself
    done = run_demo("derived_family_tour.py")
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    match = re.fullmatch(r"full chain verification: (\d+)/(\d+) checks passed", last)
    assert match and match.group(1) == match.group(2)
