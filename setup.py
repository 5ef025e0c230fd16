"""Setuptools script: ``pip install .`` or ``pip install -e .``.

The version is read from ``src/repro/__init__.py`` so the package
metadata and ``repro.__version__`` (recorded in every run manifest)
cannot drift apart.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Pulse-level simulation library reproducing 'Direct "
                 "Conversion Pulsed UWB Transceiver Architecture' "
                 "(Blazquez et al., DATE 2005)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
