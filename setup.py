from setuptools import find_packages, setup

# Offline environments here lack the `wheel` package, so PEP 660 editable
# installs fail; this shim enables the legacy `pip install -e .` path.
setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
