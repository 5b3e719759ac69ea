"""Legacy setup shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so the
package can be installed editable (``pip install -e . --no-use-pep517``) on
hosts that lack the ``wheel`` package and network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DSAssassin reproduction: cross-VM side-channel attacks on a "
        "behavioral model of the Intel Data Streaming Accelerator"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy>=1.10"]},
)
