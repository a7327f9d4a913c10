"""Setuptools shim.

This shim exists so that ``python setup.py develop`` works in offline
environments where the ``wheel`` package (required by PEP 517 editable
installs) is unavailable.  The long description is the root ``README.md``.
"""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).parent / "README.md"

setup(
    name="repro-dias",
    version="0.1.0",
    description=(
        "Reproduction of DiAS (Middleware 2019): differentiated approximation "
        "and sprinting for multi-priority big-data engines, with a "
        "multi-cluster fleet simulator"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
)
