"""Package metadata for ``repro``, the WC-INDEX reproduction.

All metadata lives here (there is no pyproject.toml), so ``pip install
-e .`` works offline through ``setup.py develop`` without the ``wheel``
package.  The version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "WC-INDEX: quality constrained shortest distance queries "
        "in large graphs"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    extras_require={"numpy": ["numpy"]},
)
