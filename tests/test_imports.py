"""Importing the package stays cheap: scipy and networkx load only where used."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro


@pytest.mark.parametrize("package", ["scipy", "networkx"])
def test_importing_repro_and_its_cli_loads_no(package):
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        "import sys, repro, repro.cli; "
        f"print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
