from pathlib import Path

import pytest

from logchern import (Arrangement, build_lattice, log_modules,
                      verify_main_theorem)
from logchern.cli import bundled_examples

FRONTIER = Path(__file__).parent / "data" / "frontier"
# (name, CLI input) of the bundled examples and of tests/data/frontier/*
CORPUS = sorted([(name, f"example:{name}") for name, _ in bundled_examples()]
                + [(p.stem, str(p)) for p in FRONTIER.glob("*.json")])

OCTIC_NORMALS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                 (1, 0, 0, -1), (0, 1, 0, -1), (1, 1, 1, 0), (1, -1, 1, 0)]

GENERIC4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
GENERIC5 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 1, 1)]
BRAID_TRIPLE = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]


def braid(l):
    """Normals of the braid arrangement z_i - z_j = 0 in C^l."""
    return [[1 if k == i else -1 if k == j else 0 for k in range(l)]
            for i in range(l) for j in range(i + 1, l)]


def boolean(l):
    return Arrangement(l, [[1 if j == i else 0 for j in range(l)]
                           for i in range(l)])


@pytest.fixture(scope="session")
def octic_arrangement():
    return Arrangement(4, OCTIC_NORMALS)


@pytest.fixture(scope="session")
def octic_lattice(octic_arrangement):
    return build_lattice(octic_arrangement)


@pytest.fixture(scope="session")
def octic_modules(octic_arrangement):
    """(defining data, D0, Omega1, Omega1_0) for the octic arrangement."""
    dd, d0, _, om1, om0 = log_modules(octic_arrangement)
    return dd, d0, om1, om0


@pytest.fixture(scope="session")
def octic_verification(octic_arrangement):
    return verify_main_theorem(octic_arrangement, per_flat_check=True)
