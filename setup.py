"""Legacy setup shim.

The environment is offline and lacks the ``wheel`` package, so PEP 660
editable installs fail; ``pip install -e . --no-use-pep517
--no-build-isolation`` (or plain ``pip install -e .`` on a normal machine)
uses this shim instead.  All real metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.21.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.11+: parallel campaigns pickle frozen slotted dataclasses
    # (PointSpec/Scale/SimConfig), which 3.10 cannot round-trip
    python_requires=">=3.11",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro-mesh = repro.cli:main"]},
)
