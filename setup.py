"""Packaging metadata for the ``repro`` package.

The offline build environment has no ``wheel`` package, so PEP-660 editable
installs (which build a wheel) fail; declaring the metadata here, with no
``pyproject.toml`` build-system table, lets ``pip install -e .`` use the
legacy ``setup.py develop`` path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: The version is declared once, in ``repro/__init__.py``.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of Ding et al., Autotuning Algorithmic Choice for "
        "Input Sensitivity (PLDI 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # SciPy's sparse solvers back the poisson2d and helmholtz3d benchmarks.
    install_requires=["numpy", "scipy"],
)
