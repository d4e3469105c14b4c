import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    add,
    convolve,
    downsample2,
    extended_correlate,
    kernel_tolerance,
    norm_inf,
    roll_cyclic_convolve,
    scale,
    subtract,
    upsample2,
)

from nspyr import (
    BadParamsError,
    DomainError,
    FinSeq,
    OddPeriodError,
    PeriodicSeq,
    delta,
    k_const,
    norm_l1,
    read_sequence_csv,
    write_sequence_csv,
)
from nspyr import sequences
from nspyr.sequences import _cyclic_convolve, _stencil


def kernel(taps, offset, values, out=None):
    """The cyclic kernel on one filter, taps from index ``offset`` on.

    The result goes into ``out``, or into a new column-major array.
    """
    if out is None:
        out = np.empty(values.shape, order="F")
    _cyclic_convolve([_stencil(taps, offset)], values, [out])
    return out


def max_step(c: FinSeq) -> float:
    """``sup_j |c_{j+1} - c_j|``, with zeros outside the support."""
    return float(np.abs(np.diff(c.coeffs, prepend=0.0, append=0.0)).max())


def brute_convolve(a: FinSeq, b: FinSeq) -> dict:
    """Direct double-sum evaluation of (a*b)_j, the defining formula."""
    out = {}
    for i, av in zip(a.indices(), a.coeffs):
        for j, bv in zip(b.indices(), b.coeffs):
            out[i + j] = out.get(i + j, 0.0) + av * bv
    return out


def random_finseq(rng, max_len=12):
    n = rng.integers(1, max_len)
    coeffs = rng.normal(size=n)
    coeffs[0] = coeffs[0] or 1.0
    return FinSeq(coeffs, int(rng.integers(-6, 6)))


class TestFinSeqBasics:
    def test_canonical_trimming(self):
        s = FinSeq([0.0, 0.0, 1.0, 0.0, 2.0, 0.0], offset=-1)
        assert s.offset == 1
        assert s.coeffs.tolist() == [1.0, 0.0, 2.0]
        assert s.support == (1, 3)

    def test_empty_is_zero(self):
        s = FinSeq([0.0, 0.0])
        assert s.is_empty and s.support is None and len(s) == 0

    def test_denormal_flush(self):
        s = FinSeq([1e-310, 1.0])
        assert s.coeffs.tolist() == [1.0]

    def test_indexing_outside_support_is_zero(self):
        s = FinSeq([1.0, 2.0], offset=3)
        assert s[2] == 0.0 and s[3] == 1.0 and s[4] == 2.0 and s[5] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda v: FinSeq(v, 3), PeriodicSeq])
    def test_non_finite_values_rejected(self, build, bad):
        # so public refine and decimate never see them either
        with pytest.raises(DomainError, match="values must be finite"):
            build([1.0, bad, 2.0])

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    def test_pickle_and_deepcopy(self, clone):
        for seq in (FinSeq([1.0, 0.0, -2.5], -3), FinSeq(),
                    PeriodicSeq([1.0, 2.0, 3.0])):
            back = clone(seq)
            assert type(back) is type(seq) and back == seq
            periodic = isinstance(back, PeriodicSeq)
            values = back.values if periodic else back.coeffs
            assert not values.flags.writeable
            with pytest.raises(AttributeError, match="immutable"):
                back.offset = 1


def built_values():
    """1-D float arrays with what could break a guarantee of FinSeq: zero
    ends, interior zeros, both signed zeros, nonzero magnitudes below the
    flush threshold, NaN and infinities, among ordinary values."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-301,
                               -9.9e-301, 1e-300, np.nan, np.inf, -np.inf])
    ordinary = st.floats(-1e6, 1e6, allow_nan=False)
    return st.lists(st.one_of(ordinary, ordinary, special),
                    max_size=12).map(lambda v: np.array(v, dtype=float))


class TestBuiltFinSeq:
    """``sequences._finseq`` is ``FinSeq(...)`` for any float array."""

    @settings(max_examples=400, deadline=None)
    @given(built_values(), st.integers(-50, 50))
    @example(np.array([0.0, 1.0, -0.0, 2.0]), 3)
    @example(np.array([1.0, 1e-310, -0.0, 2.0]), -1)
    @example(np.array([1.0, np.nan, 2.0]), 0)
    @example(np.array([1e308, 1e308]), 0)
    def test_matches_the_constructor(self, values, offset):
        try:
            want = FinSeq(values.copy(), offset)
        except DomainError as exc:
            with pytest.raises(type(exc)):
                sequences._finseq(values.copy(), offset)
            return
        got = sequences._finseq(values.copy(), offset)
        assert type(got) is FinSeq
        assert type(got.offset) is int and got.offset == want.offset
        assert got.coeffs.dtype == want.coeffs.dtype
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.coeffs.flags.writeable == want.coeffs.flags.writeable


class TestConvolve:
    def test_delta_identity(self, rng):
        for _ in range(10):
            c = random_finseq(rng)
            assert convolve(delta(), c) == c

    def test_hand_example(self):
        a = FinSeq([1.0, 1.0], 0)
        b = FinSeq([1.0, -1.0], 0)
        out = convolve(a, b)
        assert out.offset == 0
        assert out.coeffs.tolist() == [1.0, 0.0, -1.0]
        assert brute_convolve(a, b) == {0: 1.0, 1: 0.0, 2: -1.0}

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            a, b = random_finseq(rng), random_finseq(rng)
            out = convolve(a, b)
            expected = brute_convolve(a, b)
            for j, v in expected.items():
                assert out[j] == pytest.approx(v, rel=1e-14, abs=1e-14)

    def test_empty_operand(self):
        assert convolve(FinSeq(), delta()).is_empty

    def test_commutative_associative(self, rng):
        # tolerance is relative to the result scale, so entries that are
        # tiny through cancellation do not dominate the comparison
        for _ in range(15):
            a, b, c = (random_finseq(rng) for _ in range(3))
            ab = convolve(a, b)
            ba = convolve(b, a)
            assert ab.offset == ba.offset
            scale_ab = norm_inf(ab)
            np.testing.assert_allclose(ab.coeffs, ba.coeffs,
                                       rtol=1e-14, atol=1e-14 * scale_ab)
            left = convolve(ab, c)
            right = convolve(a, convolve(b, c))
            assert left.offset == right.offset
            np.testing.assert_allclose(left.coeffs, right.coeffs, rtol=1e-13,
                                       atol=1e-14 * norm_inf(left))

    def test_l1_submultiplicative(self, rng):
        for _ in range(15):
            a, b = random_finseq(rng), random_finseq(rng)
            assert norm_l1(convolve(a, b)) <= norm_l1(a) * norm_l1(b) + 1e-12

    def test_cyclic_against_rolled_sum(self, rng):
        taps = FinSeq([0.25, 0.5, 0.25], -1)
        c = PeriodicSeq(rng.normal(size=8))
        out = kernel(taps.coeffs, taps.offset, c.values)
        expected = np.zeros(8)
        for j, t in zip(taps.indices(), taps.coeffs):
            expected += t * np.roll(c.values, j)
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_periodic_pair_against_double_sum(self, rng):
        for n in (1, 2, 5, 8):
            a = PeriodicSeq(rng.normal(size=n))
            b = PeriodicSeq(rng.normal(size=n))
            out = convolve(a, b)
            expected = [sum(a[i] * b[j - i] for i in range(n))
                        for j in range(n)]
            np.testing.assert_allclose(out.values, expected,
                                       rtol=1e-14, atol=1e-14)

    def test_periodic_pair_needs_equal_periods(self):
        with pytest.raises(BadParamsError):
            convolve(PeriodicSeq([1.0, 2.0]), PeriodicSeq([1.0, 2.0, 3.0]))


_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def kernel_cases(draw):
    taps = draw(arrays(float, st.integers(1, 40),
                       elements=st.floats(-10.0, 10.0, **_FINITE)))
    offset = draw(st.integers(-100, 100))
    period = draw(st.integers(1, 64))
    shape = draw(st.sampled_from([(period,), (period, 2)]))
    values = draw(arrays(float, shape,
                         elements=st.floats(-1e3, 1e3, **_FINITE)))
    return taps, offset, values


class TestCyclicKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    # subnormal products: the kernel gives 5.4e-323, the roll loop 3e-323
    @example((np.full(12, 5e-324), 0, np.array([1.0, 0.5])))
    def test_matches_roll_loop(self, case):
        # covers taps longer than the period; the bound is fixed from the
        # dtype: the two sum the same products in different orders
        taps, offset, values = case
        got = kernel(taps, offset, values)
        want = roll_cyclic_convolve(taps, offset, values)
        assert got.shape == values.shape
        assert np.abs(got - want).max() <= kernel_tolerance(taps, values)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes in logical order (so -0.0 != 0.0)."""
    return (a.shape == b.shape and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


@st.composite
def block_cases(draw):
    taps, offset, values = draw(kernel_cases())
    ncomp = draw(st.integers(1, 4))
    block = draw(arrays(float, (values.shape[0], ncomp),
                        elements=st.floats(-1e3, 1e3, **_FINITE)))
    return taps, offset, block


class TestKernelLayout:
    """The kernel's result does not depend on how its input is laid out."""

    @settings(max_examples=200, deadline=None)
    @given(block_cases())
    def test_every_layout_gives_the_same_bits(self, case):
        taps, offset, block = case
        want = kernel(taps, offset, block)
        assert want.flags.f_contiguous
        layouts = [
            np.asfortranarray(block),
            np.repeat(block, 2, axis=0)[::2],       # strided rows
            np.repeat(block, 2, axis=1)[:, ::2],    # strided columns
        ]
        for values in layouts:
            assert same_bits(kernel(taps, offset, values), want)
        flipped = kernel(taps, offset, block[:, ::-1])
        assert same_bits(flipped, want[:, ::-1])
        for d in range(block.shape[1]):
            assert same_bits(kernel(taps, offset, block[:, d]),
                             want[:, d])
        assert np.abs(want - roll_cyclic_convolve(taps, offset, block)).max(
            initial=0.0) <= kernel_tolerance(taps, block)

    @settings(max_examples=200, deadline=None)
    @given(block_cases(), st.integers(0, 1), st.booleans())
    def test_out_view_is_filled_in_place(self, case, parity, one_d):
        taps, offset, block = case
        values = block[:, 0] if one_d else block
        want = kernel(taps, offset, values)
        buf = np.full((2 * values.shape[0],) + values.shape[1:], np.nan,
                      order="F")
        out = buf[parity::2]
        assert kernel(taps, offset, values, out=out) is out
        assert same_bits(out, want)
        assert np.isnan(buf[1 - parity::2]).all()


@st.composite
def long_filter_cases(draw):
    """Blocks at or above the GEMM crossover and filters of 12-80 taps.

    Rows are often not a multiple of the 64-row block; offsets reach
    three periods either way, so the extension often wraps past the
    period; inputs come C-ordered, F-ordered or with strided rows.
    """
    ncomp = draw(st.integers(1, 3))
    min_rows = -(-sequences._GEMM_MIN_WORK // ncomp)
    rows = draw(st.one_of(st.integers(min_rows, 9000),
                          st.sampled_from([4096, 8192, 64 * 70])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    taps = rng.normal(size=draw(st.integers(12, 80)))
    offset = draw(st.integers(-3 * rows, 3 * rows))
    block = rng.uniform(-1e3, 1e3, size=(rows, ncomp))
    values = draw(st.sampled_from([
        lambda b: b,
        np.asfortranarray,
        lambda b: np.repeat(b, 2, axis=0)[::2],
    ]))(block)
    return taps, offset, values


class TestLongFilterKernel:
    """The GEMM strategy above the crossover, against the roll loop."""

    @settings(max_examples=60, deadline=None)
    @given(long_filter_cases(), st.integers(0, 1))
    def test_matches_roll_loop(self, case, parity):
        taps, offset, values = case
        want = roll_cyclic_convolve(taps, offset, values)
        got = kernel(taps, offset, values)
        assert got.flags.f_contiguous
        assert np.abs(got - want).max() <= kernel_tolerance(taps, values)
        # a strided out= view of every other row; the rows between keep
        # their values
        buf = np.full((2 * values.shape[0], values.shape[1]), np.nan,
                      order="F")
        out = buf[parity::2]
        assert kernel(taps, offset, values, out=out) is out
        assert out.tobytes() == np.ascontiguousarray(got).tobytes()
        assert np.isnan(buf[1 - parity::2]).all()

    @pytest.mark.parametrize("ntaps, takes_gemm", [
        (11, False), (12, True), (33, True), (65, True), (66, False),
        (80, False)])
    def test_strategy_by_tap_count(self, rng, gemm_calls, ntaps,
                                   takes_gemm):
        # above 65 taps a 64-row block would need more than one next block
        taps = rng.normal(size=ntaps)
        values = rng.normal(size=(4096, 2))
        got = kernel(taps, -ntaps // 2, values)
        assert gemm_calls == ([ntaps] if takes_gemm else [])
        assert np.abs(got - roll_cyclic_convolve(
            taps, -ntaps // 2, values)).max() <= kernel_tolerance(
                taps, values)

    @pytest.mark.parametrize("shape, takes_gemm", [
        ((4095,), False), ((4096,), True), ((2047, 2), False),
        ((2048, 2), True), ((16, 400), True), ((256, 400), True)])
    def test_strategy_by_block_size(self, rng, gemm_calls, shape,
                                    takes_gemm):
        taps = rng.normal(size=33)
        values = rng.normal(size=shape)
        got = kernel(taps, -16, values)
        assert len(gemm_calls) == int(takes_gemm)
        assert np.abs(got - roll_cyclic_convolve(taps, -16, values)).max(
        ) <= kernel_tolerance(taps, values)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(12, 65), st.integers(-9000, 9000),
           st.sampled_from([4096, 4160, 5000, 8192]), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_every_layout_gives_the_same_bits(self, ntaps, offset, rows,
                                              ncomp, seed):
        # rows >= the crossover, so each column alone takes GEMM too
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=ntaps)
        block = rng.normal(size=(rows, ncomp))
        want = kernel(taps, offset, block)
        for values in (np.asfortranarray(block),
                       np.repeat(block, 2, axis=0)[::2],
                       np.repeat(block, 2, axis=1)[:, ::2]):
            assert same_bits(kernel(taps, offset, values), want)
        assert same_bits(kernel(taps, offset, block[:, ::-1]),
                         want[:, ::-1])
        for d in range(ncomp):
            assert same_bits(kernel(taps, offset, block[:, d]),
                             want[:, d])


@st.composite
def tall_cases(draw):
    """Columns from just below the seam crossover to 300 rows above it.

    Filters have 1-11 or 66-200 taps, so no block takes the GEMM path.
    The offset makes ``head`` 0 or ``tail`` 0, falls anywhere between,
    or reaches past the period, so that the extension wraps and the call
    stays on the loop.  Values span ten orders of magnitude; blocks are
    column-major, as the pyramid keeps them.
    """
    rows = draw(st.integers(sequences._SEAM_MIN_ROWS - 2,
                            sequences._SEAM_MIN_ROWS + 300))
    ntaps = draw(st.one_of(st.integers(1, 11), st.integers(66, 200)))
    offset = draw(st.one_of(
        st.just(1 - ntaps), st.just(0), st.integers(1 - ntaps, 0),
        st.integers(rows - ntaps + 2, rows + 50)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    taps = rng.normal(size=ntaps)
    block = rng.normal(size=(rows, draw(st.integers(1, 3))))
    block *= 10.0 ** rng.integers(-5, 6, size=block.shape)
    return taps, offset, np.asfortranarray(block)


_SEAM = sequences._SEAM_MIN_ROWS


class TestTallColumnKernel:
    """The seam split on tall columns: the loop's bits in every layout."""

    @pytest.mark.parametrize("shape, ntaps, offset, layout, strategy", [
        ((_SEAM - 1,), 3, -1, "F", "loop"),
        ((_SEAM,), 3, -1, "F", "seam"),
        ((_SEAM, 2), 5, -4, "F", "seam"),             # head 0
        ((_SEAM, 2), 5, 0, "F", "seam"),              # tail 0
        ((_SEAM, 2), 1, 0, "F", "seam"),              # one tap: no seam rows
        ((_SEAM, 2), 66, -33, "F", "seam"),
        ((_SEAM, 2), 33, -16, "F", "gemm"),
        ((_SEAM, 2), 3, -1, "C", "loop"),             # strided columns
        ((_SEAM,), 3, -1, "every other row", "loop"),  # as in decimation
        ((_SEAM,), 3, _SEAM, "F", "loop"),            # the extension wraps
        ((_SEAM,), _SEAM + 1, -_SEAM // 2, "F", "loop"),  # taps > rows
    ])
    def test_strategy_by_shape_and_filter(self, rng, gemm_calls, seam_calls,
                                          shape, ntaps, offset, layout,
                                          strategy):
        taps = rng.normal(size=ntaps)
        values = {"F": np.asfortranarray, "C": np.ascontiguousarray,
                  "every other row": lambda b: np.repeat(b, 2, axis=0)[::2],
                  }[layout](rng.normal(size=shape))
        got = kernel(taps, offset, values)
        columns = values.reshape(shape[0], -1).shape[1]
        assert seam_calls == ([shape[0]] * columns if strategy == "seam"
                              else [])
        assert len(gemm_calls) == int(strategy == "gemm")
        if strategy != "gemm":
            assert same_bits(got, extended_correlate(taps, offset, values))
        assert np.abs(got - roll_cyclic_convolve(taps, offset, values)).max(
        ) <= kernel_tolerance(taps, values)

    @settings(max_examples=40, deadline=None)
    @given(tall_cases())
    def test_every_layout_gives_the_loop_bits(self, case):
        taps, offset, block = case
        want = kernel(taps, offset, block)
        assert want.flags.f_contiguous
        assert same_bits(want, extended_correlate(taps, offset, block))
        for values in (np.ascontiguousarray(block),
                       np.repeat(block, 2, axis=0)[::2],
                       np.repeat(block, 2, axis=1)[:, ::2]):
            assert same_bits(kernel(taps, offset, values), want)
        for d in range(block.shape[1]):
            assert same_bits(kernel(taps, offset, block[:, d]),
                             want[:, d])
        assert np.abs(want - roll_cyclic_convolve(taps, offset, block)).max(
        ) <= kernel_tolerance(taps, block)

    @settings(max_examples=40, deadline=None)
    @given(tall_cases(), st.integers(0, 1), st.booleans())
    def test_out_views_and_aliased_out(self, case, parity, one_d):
        taps, offset, block = case
        values = block[:, 0] if one_d else block
        want = extended_correlate(taps, offset, values)
        buf = np.full((2 * values.shape[0],) + values.shape[1:], np.nan,
                      order="F")
        out = buf[parity::2]
        assert kernel(taps, offset, values, out=out) is out
        assert same_bits(out, want)
        assert np.isnan(buf[1 - parity::2]).all()
        # out may be the input itself: each column's seam is copied
        # before the column is overwritten
        alias = values.copy(order="F")
        assert kernel(taps, offset, alias, out=alias) is alias
        assert same_bits(alias, want)


@st.composite
def shared_block_cases(draw):
    """One to three filters reading one block of 1-300 rows, 1-3 columns.

    Filters have 1-11 taps (np.correlate's short-filter sums) or 12-70
    (its dot products); the block is too small for the GEMM and seam
    strategies, so every filter shares the loop's one extension.  Offsets
    reach two periods past either end, so that the extension often wraps
    past the period.  The block comes C- or F-ordered or with strided
    rows, one column often 1-D; outputs are new arrays or interleaved
    rows of one buffer, as in refinement.
    """
    rows = draw(st.integers(1, 300))
    ncols = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    filters = []
    for _ in range(draw(st.integers(1, 3))):
        ntaps = draw(st.one_of(st.integers(1, 11), st.integers(12, 70)))
        offset = draw(st.integers(-2 * rows - ntaps, 2 * rows))
        filters.append((rng.normal(size=ntaps), offset))
    block = rng.normal(size=(rows, ncols))
    block *= 10.0 ** rng.integers(-5, 6, size=block.shape)
    values = draw(st.sampled_from([
        np.ascontiguousarray,
        np.asfortranarray,
        lambda b: np.repeat(b, 2, axis=0)[::2],     # as in decimation
    ]))(block)
    if ncols == 1 and draw(st.booleans()):
        values = values[:, 0]
    return filters, values, draw(st.booleans())


class TestSharedExtension:
    """Filters sharing one block get the bits of each filter alone."""

    @settings(max_examples=300, deadline=None)
    @given(shared_block_cases())
    def test_each_filter_as_if_alone(self, case):
        filters, values, interleaved = case
        count = len(filters)
        if interleaved:
            buf = np.full((count * values.shape[0],) + values.shape[1:],
                          np.nan, order="F")
            outs = [buf[i::count] for i in range(count)]
        else:
            outs = [np.empty(values.shape, order="F") for _ in filters]
        _cyclic_convolve([_stencil(taps, offset) for taps, offset in filters],
                         values, outs)
        for (taps, offset), out in zip(filters, outs):
            assert same_bits(out, extended_correlate(taps, offset, values))


class TestResampling:
    def test_upsample_examples(self):
        assert upsample2(delta()) == delta()
        assert upsample2(FinSeq([1.0, 2.0], 0)) == FinSeq([1.0, 0.0, 2.0], 0)
        assert upsample2(FinSeq([3.0], -1)) == FinSeq([3.0], -2)

    def test_downsample_examples(self):
        assert downsample2(FinSeq([1, 2, 3, 4], 0)) == FinSeq([1.0, 3.0], 0)
        assert downsample2(FinSeq([5.0], 1)).is_empty
        assert downsample2(FinSeq([5.0, 6.0], 1)) == FinSeq([6.0], 1)

    def test_down_after_up_is_identity(self, rng):
        for _ in range(10):
            c = random_finseq(rng)
            assert downsample2(upsample2(c)) == c

    def test_up_after_down_not_identity(self):
        c = FinSeq([1.0, 2.0, 3.0], 0)
        assert upsample2(downsample2(c)) != c

    def test_periodic_roundtrip(self, rng):
        c = PeriodicSeq(rng.normal(size=10))
        up = upsample2(c)
        assert up.period == 20
        assert downsample2(up) == c

    def test_periodic_odd_downsample_rejected(self):
        with pytest.raises(OddPeriodError):
            downsample2(PeriodicSeq([1.0, 2.0, 3.0]))


class TestNormsAndFunctionals:
    def test_norm_examples(self):
        assert norm_l1(delta()) == 1.0
        assert norm_inf(delta()) == 1.0
        s = FinSeq([1.0, -2.0, 3.0], 0)
        assert norm_l1(s) == 6.0
        assert norm_inf(s) == 3.0

    def test_delta_commutes_with_convolution_bound(self, rng):
        # the step bound behind the coarse-level recursion
        for _ in range(15):
            zeta, c = random_finseq(rng), random_finseq(rng)
            lhs = max_step(convolve(zeta, c))
            rhs = norm_l1(zeta) * max_step(c)
            assert lhs <= rhs + 1e-12

    def test_k_const_examples(self):
        assert k_const(delta()) == 0.0
        assert k_const(FinSeq([1.0], 2)) == 4.0
        cubic = FinSeq([1 / 8, 1 / 2, 3 / 4, 1 / 2, 1 / 8], -2)
        brute = 2 * sum(abs(v) * abs(i)
                        for i, v in zip(cubic.indices(), cubic.coeffs))
        assert brute == 3.0
        assert k_const(cubic) == pytest.approx(3.0, rel=1e-15)


class TestArithmetic:
    def test_add_subtract_roundtrip(self, rng):
        for _ in range(10):
            a, b = random_finseq(rng), random_finseq(rng)
            assert subtract(add(a, b), b) == a or norm_inf(
                subtract(subtract(add(a, b), b), a)) < 1e-12

    def test_scale(self):
        assert scale(FinSeq([1.0, -2.0], 0), -0.5) == FinSeq([-0.5, 1.0], 0)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(BadParamsError):
            add(delta(), PeriodicSeq([1.0, 2.0]))


class TestCsv:
    def test_finseq_roundtrip(self, tmp_path, rng):
        path = tmp_path / "seq.csv"
        s = random_finseq(rng)
        write_sequence_csv(path, s)
        assert read_sequence_csv(path) == s

    def test_repeated_index_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("0,1.0\n0,2.0\n2,3.0\n")
        with pytest.raises(BadParamsError,
                           match=r"seq\.csv, line 2: repeated index 0"):
            read_sequence_csv(path)
        path.write_text("-3,1.0\n\n5,2.0\n-3,1.0\n")
        with pytest.raises(BadParamsError, match="line 4: repeated index -3"):
            read_sequence_csv(path)

    def test_writer_output_unchanged(self, tmp_path):
        # the repr of each value, as float() of every numpy scalar gave
        values = [0.1, -1e-300, 1e16, 5.0, -2.5e300, 1.0 / 3.0]
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, FinSeq(values, -2))
        assert path.read_text() == (
            "-2,0.1\n-1,-1e-300\n0,1e+16\n1,5.0\n2,-2.5e+300\n"
            "3,0.3333333333333333\n")
        write_sequence_csv(path, PeriodicSeq(values))
        assert path.read_text() == "# period=6\n" + "".join(
            f"{v!r}\n" for v in values)
        # more rows than one write formats
        values = np.random.default_rng(3).normal(size=9000)
        write_sequence_csv(path, FinSeq(values, -5))
        same = path.read_text() == "".join(
            f"{i - 5},{float(v)!r}\n" for i, v in enumerate(values))
        assert same  # a plain bool: pytest's diff of 9000 lines is slow
        write_sequence_csv(path, PeriodicSeq(values))
        same = path.read_text() == "# period=9000\n" + "".join(
            f"{float(v)!r}\n" for v in values)
        assert same

    def test_periodic_roundtrip(self, tmp_path, rng):
        path = tmp_path / "per.csv"
        s = PeriodicSeq(rng.normal(size=6))
        write_sequence_csv(path, s)
        assert read_sequence_csv(path) == s
        assert (path.read_text().splitlines()[0]) == "# period=6"
