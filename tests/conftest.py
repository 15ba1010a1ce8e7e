import numpy as np
import pytest

from fluxlim.diagnostics import pair_terms


def _pair_probe(u, v, sigma=0.0, chi=0.0):
    """(H, D1, D2, L1 distance) of one pair of fields: ``pair_terms`` on a block of one pair."""
    return tuple(float(x[0]) for x in pair_terms(np.stack([u.values, v.values])[None], u.grid, sigma, chi))


@pytest.fixture(scope="session")
def pair_probe():
    return _pair_probe
