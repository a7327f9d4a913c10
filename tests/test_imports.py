"""Importing the package stays cheap: scipy loads only where it is used."""

from __future__ import annotations

import os
import subprocess
import sys

import repro


def test_importing_repro_and_its_cli_loads_no_scipy():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        "import sys, repro, repro.cli; "
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
