from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from perimdef import validate_params
from perimdef.geometry import assumption_clauses

# float.hex of (tau, phi) of two saturated optima: at (5, 10, 0.5, 0.5) the
# first saturated time fails its audit, at (5, 12, 1, 0.75) it passes.
PLATEAU_HEX = {
    (5.0, 10.0, 0.5, 0.5): ("0x1.356c05ac15b02p+4", "-0x1.000aa3a89065ep-5"),
    (5.0, 12.0, 1.0, 0.75): ("0x1.cc25527930955p+3", "-0x1.7830f92cf76a4p-3"),
}


@pytest.fixture(scope="session")
def params():
    """Baseline experiment parameters (r_t=5, rho_t=10, rho_a=1, nu=0.8)."""
    return validate_params(5.0, 10.0, 1.0, 0.8)


def make_valid_params(rng: random.Random):
    """Draw a random parameter set satisfying the game assumptions.

    The annulus width is sampled above the binding clause, so validation
    succeeds by construction.
    """
    while True:
        nu = rng.uniform(0.25, 0.92)
        rho_a = rng.uniform(0.05, 2.5)
        r_t = rng.uniform(0.5, 12.0)
        first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
        rho_t = max(first, second) * rng.uniform(1.01, 2.8)
        try:
            return validate_params(r_t, rho_t, rho_a, nu)
        except ValueError:
            continue


@pytest.fixture
def random_valid_params():
    return make_valid_params


@st.composite
def valid_params(draw):
    """Valid params out to the edge regimes: nu near 1, small rho_a, and an
    annulus whose binding clause only just holds (factor 1)."""
    nu = draw(st.floats(0.05, 0.99))
    rho_a = draw(st.floats(0.005, 5.0))
    r_t = draw(st.floats(0.1, 30.0))
    first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
    return validate_params(r_t, max(first, second) * draw(st.floats(1.0, 4.0)), rho_a, nu)
