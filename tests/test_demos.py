"""The demos run against this checkout's sources, finish cleanly and print
the same bytes as before."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from helpers import checkout_env

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's stdout; any change to what a demo prints shows here
DEMO_STDOUT = {
    "operator_walkthrough.py":
        "c5b10082f8ee9ab4ea28623879cf581177327c8a4596c509d3c7f0362f024917",
    "derived_family_tour.py":
        "0988198521970bd56e7776db1868581559e2a63757a58f37138c19fac86138f3",
}


def run_demo(name: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=checkout_env())
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT[name], done.stdout
    return done


def test_operator_walkthrough():
    run_demo("operator_walkthrough.py")


def test_derived_family_tour():
    # the tour asserts the shifted sigmas and report.all_passed itself
    done = run_demo("derived_family_tour.py")
    last = done.stdout.splitlines()[-1]
    match = re.fullmatch(r"full chain verification: (\d+)/(\d+) checks passed", last)
    assert match and match.group(1) == match.group(2)
