import json
import math

import numpy as np
import pytest

from nspyr import (Conic, NS4Point, NSCubic, cubic_bspline_family, decimation,
                   sequences, subdivision)


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


@pytest.fixture
def seam_calls(monkeypatch):
    """Rows of the columns that take the seam-split strategy."""
    calls = []
    real = sequences._seam_correlate

    def spy(*args):
        calls.append(args[3].shape[0])
        return real(*args)

    monkeypatch.setattr(sequences, "_seam_correlate", spy)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """Filter counts of the cyclic kernel calls of refinement and decimation."""
    calls = []
    real = sequences._cyclic_convolve

    def spy(stencils, *args):
        calls.append(len(stencils))
        return real(stencils, *args)

    for module in (subdivision, decimation):
        monkeypatch.setattr(module, "_cyclic_convolve", spy)
    return calls


def family_grid():
    """One representative of each family, usable in periodic pyramids."""
    return [
        ("cubic_bspline", cubic_bspline_family()),
        ("ns4pt", NS4Point(2.0 * math.pi / 16.0)),
        ("nscubic", NSCubic(math.cos(2.0 * math.pi / 16.0))),
        ("conic", Conic(math.cos(2.0 * math.pi / 16.0))),
    ]


def list_form_document(pyramid):
    """The JSON document of ``pyramid`` with its blocks as nested lists.

    That is the form documents written before the binary blocks hold:
    ``[[x, y], ...]``, or ``[x, ...]`` for one component.
    """
    def values(block):
        return (block if block.shape[1] > 1 else block[:, 0]).tolist()

    doc = json.loads(pyramid.to_json())
    doc["coarse"] = values(pyramid.coarse)
    doc["details"] = [values(d) for d in pyramid.details]
    return doc
