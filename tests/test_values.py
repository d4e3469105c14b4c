"""The package's immutable values: finite and periodic sequences, masks and
pyramids.

Each refuses assignment and deletion of any field, and its copies and
unpickled forms are rebuilt through its constructor.  Sequences and masks
compare and hash by value; pyramids compare by identity.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_grid

from nspyr import (FinSeq, Mask, PeriodicSeq, Pyramid, analyze,
                   synthesize_array)

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _analyzed(boundary):
    data = np.sin(np.arange(64.0))[:, None] * [1.0, -0.5]
    return analyze(data, family_grid()[3][1], 2, boundary=boundary)


def _hand_built(boundary):
    p = _analyzed(boundary)
    return Pyramid(p.coarse, list(p.details), p.family, p.epsilon, p.boundary,
                   p.level_params, p.offsets, p.support)


VALUES = {
    "finseq": lambda: FinSeq([1.0, 0.0, -2.5], -3),
    "empty-finseq": FinSeq,
    "periodicseq": lambda: PeriodicSeq([1.0, 2.0, 3.0]),
    **{f"{name}-mask": (lambda fam=fam: fam.mask_at_level(2))
       for name, fam in family_grid()},
    "analyzed-periodic-pyramid": lambda: _analyzed("periodic"),
    "analyzed-finite-pyramid": lambda: _analyzed("finite"),
    "hand-built-periodic-pyramid": lambda: _hand_built("periodic"),
    "hand-built-finite-pyramid": lambda: _hand_built("finite"),
    "unpickled-pyramid": lambda: CLONES["pickle"](_analyzed("finite")),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_refuse_assignment_and_deletion(name):
    value = VALUES[name]()
    message = f"^{type(value).__name__} is immutable$"
    fields = type(value).__slots__
    before = [getattr(value, f) for f in fields]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, field)
    assert all(getattr(value, f) is v for f, v in zip(fields, before))


def test_a_pyramid_keeps_its_fields_for_synthesis():
    p = _analyzed("periodic")
    with pytest.raises(AttributeError, match="^Pyramid is immutable$"):
        del p.coarse
    assert synthesize_array(p).shape == (64, 2)


finite_values = st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=9)


@st.composite
def sequences_and_masks(draw):
    kind = draw(st.sampled_from(["finseq", "periodicseq", "mask"]))
    if kind == "periodicseq":
        return PeriodicSeq(draw(finite_values.filter(len)))
    seq = FinSeq(draw(finite_values), draw(st.integers(-5, 5)))
    if kind == "finseq" or seq.is_empty:
        return seq
    name, family = draw(st.sampled_from(family_grid()))
    return draw(st.sampled_from([
        Mask(seq, draw(st.integers(0, 4)), draw(st.sampled_from(["x", ""]))),
        family.mask_at_level(draw(st.integers(0, 4)))]))


@settings(max_examples=60, deadline=None)
@given(value=sequences_and_masks(), clone=st.sampled_from(sorted(CLONES)))
def test_sequences_and_masks_copy_to_equal_values(value, clone):
    back = CLONES[clone](value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    for field in type(value).__slots__:
        got, want = getattr(back, field), getattr(value, field)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


@settings(max_examples=25, deadline=None)
@given(grid=st.sampled_from(family_grid()), levels=st.integers(1, 3),
       components=st.integers(1, 3),
       boundary=st.sampled_from(["periodic", "finite"]),
       clone=st.sampled_from(sorted(CLONES)), seed=st.integers(0, 2 ** 16))
def test_pyramids_copy_to_equal_read_only_blocks(grid, levels, components,
                                                 boundary, clone, seed):
    data = np.random.default_rng(seed).normal(size=(64, components))
    p = analyze(data, grid[1], levels, boundary=boundary)
    q = CLONES[clone](p)
    assert type(q) is Pyramid and q is not p
    for mine, theirs in zip((q.coarse, *q.details), (p.coarse, *p.details)):
        assert mine.tobytes() == theirs.tobytes()
        assert mine.shape == theirs.shape and mine.flags.f_contiguous
        assert not mine.flags.writeable
    assert (q.offsets, q.support, q.epsilon, q.boundary) == (
        p.offsets, p.support, p.epsilon, p.boundary)
    assert q.family == p.family and q.level_params == p.level_params
    assert q.to_json() == p.to_json()


def test_sequences_and_masks_compare_by_value_pyramids_by_identity():
    seq = FinSeq([1.0, 2.0], 3)
    assert seq == FinSeq([0.0, 1.0, 2.0, 0.0], 2)
    assert seq != FinSeq([1.0, 2.0], 4) and seq != PeriodicSeq([1.0, 2.0])
    assert PeriodicSeq([1.0, -0.0]) == PeriodicSeq([1.0, 0.0])
    assert len({PeriodicSeq([1.0, 1e-301]), PeriodicSeq([1.0, 0.0])}) == 1
    mask = Mask(seq, 1, "a")
    assert mask == Mask(FinSeq([1.0, 2.0], 3), 1, "a")
    assert mask != Mask(seq, 1, "b") and mask != seq
    p = _analyzed("finite")
    q = _hand_built("finite")
    assert p == p and p != q and len({p, q, p}) == 2
    assert q.to_json() == p.to_json()
