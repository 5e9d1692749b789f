"""Setup shim for environments without PEP 517 build isolation."""

from setuptools import find_packages, setup

setup(
    name="repro-gyro-cosim",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
