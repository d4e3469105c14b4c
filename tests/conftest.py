import math

import numpy as np
import pytest

from nspyr import Conic, NS4Point, NSCubic, cubic_bspline_family, sequences


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gemm_calls(monkeypatch):
    """Tap counts of the kernel calls that take the GEMM strategy."""
    calls = []
    real = sequences._toeplitz_convolve

    def spy(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(sequences, "_toeplitz_convolve", spy)
    return calls


def family_grid():
    """One representative of each family, usable in periodic pyramids."""
    return [
        ("cubic_bspline", cubic_bspline_family()),
        ("ns4pt", NS4Point(2.0 * math.pi / 16.0)),
        ("nscubic", NSCubic(math.cos(2.0 * math.pi / 16.0))),
        ("conic", Conic(math.cos(2.0 * math.pi / 16.0))),
    ]
