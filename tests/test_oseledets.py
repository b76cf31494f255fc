import functools
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lyaplab import cli, fuchsian, oseledets
from lyaplab.hypgeo import UnitTangent
from lyaplab.linrep import (
    Representation,
    ext_power,
    sym_power,
    trivial_rep,
    uniformizing_rep,
    unitary_cube_rep,
)
from lyaplab.oseledets import (
    CocycleAccumulator,
    CodingBatch,
    InsufficientDataError,
    RunConfig,
    SpectrumEstimate,
    code_samples,
    cocycle,
    estimate_spectrum,
    spectrum_csv,
)

from conftest import coding


def walk_rates(rep, gens, qr_interval=8):
    """Per-step exponents of one lane multiplying the given generators,
    after a burn-in of a tenth of its steps."""
    k = len(gens)
    batch = CodingBatch((0,), (np.arange(1.0, k + 1),), (np.asarray(gens),))
    cfg = RunConfig(T=float(k), samples=1, seed=0, qr_interval=qr_interval,
                    normalization="minus1")
    [(values, failures, _)] = cocycle([rep], batch, cfg)
    assert failures == []
    return values[0]


def geodesic_exponents(dom, rep, ut, T):
    """Exponents along the single geodesic from ut, after its burn-in."""
    c = coding(dom, ut, T)
    [(values, failures, _)] = cocycle([rep], CodingBatch((0,), (c.times,), (c.gens,)),
                                      RunConfig(T=T, samples=1, seed=0))
    assert failures == []
    return values[0]


def wedge_crosscheck(dom, rep, k, config):
    """Compare lambda_1 of wedge^k(rep) with the k-th partial sum of rep.

    The top exponent of the exterior power is the sum of the first k
    exponents of the original cocycle; both sides run along the same coded
    geodesics and the discrepancy is reported in combined-stderr units.
    """
    batch = code_samples(dom, config)
    base = estimate_spectrum(dom, rep, config, batch)
    wedge = estimate_spectrum(dom, ext_power(rep, k), config, batch)
    partial_samples = base.sample_values[:, :k].sum(axis=1)
    partial = partial_samples.mean()
    partial_se = partial_samples.std(ddof=1) / math.sqrt(len(partial_samples))
    top, top_se = wedge.values[0], wedge.stderr[0]
    return SimpleNamespace(wedge_top=top, partial_sum=partial, discrepancy=top - partial,
                           combined_stderr=math.hypot(partial_se, top_se))


def random_walk_spectrum(rep, steps, samples, seed):
    """Exponents of i.i.d. uniform products over the symmetric generator set.

    Reported per step, NOT per geodesic length: the stationary measure of
    this walk is not the geodesic one, so the values are comparable to the
    flow spectrum only through their zero/nonzero pattern.  The draws form
    a coding batch with one crossing per unit time.
    """
    m = rep.num_generators
    draws = [np.random.default_rng([seed, i]).integers(0, 2 * m, size=steps) + 1
             for i in range(samples)]
    batch = CodingBatch(tuple(range(samples)), (np.arange(1.0, steps + 1),) * samples,
                        tuple(np.where(s <= m, s, m - s) for s in draws))
    config = RunConfig(T=float(steps), samples=samples, seed=seed,
                       normalization="minus1")
    [(values, failures, _)] = cocycle([rep], batch, config)
    assert failures == []
    return SimpleNamespace(values=values.mean(axis=0), normalization_tag="per-step",
                           caveat="random-walk exponents; only the zero/nonzero "
                                  "pattern is comparable to geodesic-flow exponents")


def single_matrix_rep(m):
    return Representation(2, "real", [m], (), "m")


class TestAccumulator:
    def test_identity_advances(self):
        lam = walk_rates(single_matrix_rep(np.eye(2)), [1] * 20)
        assert np.array_equal(lam, np.zeros(2))

    def test_diagonal_rates(self):
        lam = walk_rates(single_matrix_rep(np.diag([2.0, 0.5])), [1] * 64, qr_interval=4)
        assert np.allclose(lam, [math.log(2.0), -math.log(2.0)], atol=1e-12)

    def test_overflow_forces_flush(self):
        # 1e40 I is perfectly conditioned: only the overflow bound limits q
        lam = walk_rates(single_matrix_rep(1e40 * np.eye(2)), [1] * 20, qr_interval=10**9)
        assert np.isfinite(lam).all()
        assert np.allclose(lam, [40 * math.log(10.0), 40 * math.log(10.0)])

    # the two invariants on which the rank-3-and-up lockstep's flush of every
    # lane at every window keeps the bits of flushing each lane only while its
    # steps run, with Q's columns turned to a positive R diagonal

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("n", [2, 4])
    def test_identity_frames_flush_exactly(self, n, complex_field):
        # a lane before its start holds the identity
        acc = CocycleAccumulator(3, n, complex_field)
        identity = acc.frames.copy()
        for lanes in (slice(None), np.array([0, 2])):
            assert len(acc.flush(lanes)) == 0
            assert np.array_equal(acc.frames, identity)
            assert np.array_equal(acc.log_diag, np.zeros((3, n)))
            assert not np.signbit(acc.log_diag).any()

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("n", [2, 4])
    def test_qr_sign_equivariant(self, n, complex_field):
        # QR(F S) = (Q, R S) for S = diag(+-1), bit for bit: so a frame whose
        # columns differ from the positive-diagonal one by signs meets the
        # same |r_ii| at every later flush
        rng = np.random.default_rng([n, complex_field])
        frames = rng.normal(size=(64, n, n))
        if complex_field:
            frames = frames + 1j * rng.normal(size=(64, n, n))
        q, r = np.linalg.qr(frames)
        d = np.abs(np.diagonal(r, axis1=1, axis2=2))
        for signs in itertools.product((1.0, -1.0), repeat=n):
            qs, rs = np.linalg.qr(frames * np.array(signs))
            assert np.array_equal(qs, q)
            assert np.array_equal(np.abs(np.diagonal(rs, axis1=1, axis2=2)), d)

    @pytest.fixture
    def flushed_max(self, monkeypatch):
        """The largest |entry| of each product stack the rank-2 tree scales,
        its window products among them."""
        largest = []
        real = oseledets._scale
        monkeypatch.setattr(oseledets, "_scale", lambda m, e: (
            largest.append(np.abs(m).max(initial=0.0)) or real(m, e)))
        return largest

    def test_diagonal_flushed_below_overflow(self, flushed_max):
        # the QR interval is shortened a priori (here to 2), so no window
        # product reaches FRAME_OVERFLOW before the tree scales it
        lam = walk_rates(single_matrix_rep(1e40 * np.eye(2)), [1] * 20, qr_interval=8)
        assert np.allclose(lam, [40 * math.log(10.0), 40 * math.log(10.0)])
        assert 1e80 <= max(flushed_max) < oseledets.FRAME_OVERFLOW

    def test_bend_flushed_below_overflow(self, genus2, fuchs_g2, flushed_max):
        bent = fuchsian.bend_representation(
            fuchs_g2, fuchsian.BendingSplit.surface_standard(2), 12.0)
        cfg = RunConfig(T=300.0, samples=4, seed=3, qr_interval=32)
        [(rows, failures, _)] = cocycle([bent], code_samples(genus2[0], cfg), cfg)
        assert len(rows) == 4 and failures == []
        assert max(flushed_max) < oseledets.FRAME_OVERFLOW


def test_sym3_functorial_across_qr_paths(genus2, fuchs_g2):
    """On one coding, lane by lane, Sym^3 rho (rank 4, LAPACK) has exponents
    (3 - 2i) lambda1(rho) (rank 2, product tree) up to the O(1/T) difference
    of their frames' alignment: at T = 500 the largest deviation measured
    over rho and its bends 0.4i, i and 1.6i was 1.93e-3 here and 2.03e-3
    over seeds 0-12 (16 samples each); the bound is about twice that.

    Fused, as a sweep runs them, the three bends share one cocycle call
    (complex rank 2, folded through the product trees), and so do their
    Sym^2 (rank 3) and their Sym^3 (rank 4, complex windows read back from
    the fold for LAPACK): each lane of bend s has Sym^k exponents
    (k - 2i) lambda1(s), measured within 1.52e-3 for Sym^2 and 2.02e-3 for
    Sym^3 over seeds 0-12; the bounds 3e-3 and 4e-3 are about twice that."""
    split = fuchsian.BendingSplit.surface_standard(2)
    bends = [fuchsian.bend_representation(fuchs_g2, split, s) for s in (0.4j, 1j, 1.6j)]
    cfg = RunConfig(T=500.0, samples=16, seed=3)
    batch = code_samples(genus2[0], cfg)
    for rep in [fuchs_g2] + bends:
        [(rows, lost, why)] = cocycle([rep], batch, cfg)
        [(sym, sym_lost, sym_why)] = cocycle([sym_power(rep, 3)], batch, cfg)
        assert lost == sym_lost == [] and why == sym_why == ""
        assert rows.shape == (16, 2) and sym.shape == (16, 4)
        assert np.array_equal(rows[:, 1], -rows[:, 0])
        assert np.abs(sym - np.outer(rows[:, 0], [3, 1, -1, -3])).max() <= 4e-3
    fused = cocycle(bends, batch, cfg)
    for k, bound in ((2, 3e-3), (3, 4e-3)):
        syms = cocycle([sym_power(rep, k) for rep in bends], batch, cfg)
        for (rows, lost, why), (sym, sym_lost, sym_why) in zip(fused, syms, strict=True):
            assert lost == sym_lost == [] and why == sym_why == ""
            assert rows.shape == (16, 2) and sym.shape == (16, k + 1)
            assert np.array_equal(rows[:, 1], -rows[:, 0])
            assert np.abs(sym - np.outer(rows[:, 0], np.arange(k, -k - 1, -2))).max() <= bound


class TestRunSample:
    def test_trivial_rep_exact_zero(self, tri334):
        dom, gens, rels = tri334
        rep = trivial_rep(2, len(gens), rels)
        lam = geodesic_exponents(dom, rep, UnitTangent(dom.interior_point, 0.9), 100.0)
        assert np.array_equal(lam, np.zeros(2))

    def test_fuchsian_per_sample_window(self, tri334, fuchs334):
        dom, _, _ = tri334
        lam = geodesic_exponents(dom, fuchs334, UnitTangent(dom.interior_point, 2.3), 2000.0)
        assert abs(lam[0] - 1.0) < 0.05
        assert abs(lam[1] + 1.0) < 0.05


class TestSampleStream:
    """oseledets._Stream against its oracle, numpy's default_rng([seed, i]):
    the same double at every draw, the same refusals."""

    # seed entries of 1, 1, 2, 3 and 5 32-bit words; indices of 1 to 3 words
    SEEDS = [0, 2**32 - 1, 2**32 + 7, 2**64 + 5, 2**130 + 11]
    INDICES = [0, 1, 63, 2**32 + 3, 2**70 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_doubles_as_numpy(self, seed):
        # the direction, then _sample_base's rejection loop: bounds change
        # from draw to draw on one stream
        bounds = [(0.0, 2.0 * math.pi)] + [(-0.75, 1.25), (0.0, 1.0)] * 3 + [(3.5, 3.5)]
        for i in self.INDICES:
            mine, numpy_rng = oseledets._Stream((seed, i)), np.random.default_rng([seed, i])
            for lo, hi in bounds:
                got, want = mine.uniform(lo, hi), numpy_rng.uniform(lo, hi)
                assert type(got) is float and got == want, (seed, i, lo, hi)

    def test_sample_base_same_point_either_stream(self, tri334):
        # _sample_base only calls .uniform(lo, hi), so numpy's Generator
        # stays an oracle for it
        dom, _, _ = tri334
        for i in range(8):
            assert (oseledets._sample_base(dom, oseledets._Stream((5, i)))
                    == oseledets._sample_base(dom, np.random.default_rng([5, i])))

    @pytest.mark.parametrize("entropy,error", [
        ((-1, 0), ValueError), ((3, -2), ValueError),
        ((1.5, 0), TypeError), ((2, 0.0), TypeError),
    ])
    def test_same_refusal_as_numpy(self, entropy, error):
        with pytest.raises(error) as want:
            np.random.default_rng(list(entropy))
        with pytest.raises(error, match=f"^{want.value}$"):
            oseledets._Stream(entropy)


class _StubRep:
    """Two generators; the second maps every frame to zero (never a valid
    Representation, so it stands in for a frame that degenerates)."""

    n, is_complex, num_generators, label, unit_det = 2, False, 2, "stub", False

    def generator_image(self, g):
        return np.diag([2.0, 0.5]) if abs(g) == 1 else np.zeros((2, 2))


class TestBatchedCocycle:
    def test_degenerate_lane_reported_others_unchanged(self):
        times = tuple(np.arange(1.0, 13.0) for _ in range(3))
        gens = (np.full(12, 1), np.array([1, 1, 2] + [1] * 9), np.full(12, -1))
        cfg = RunConfig(T=12.0, samples=3, seed=0, qr_interval=4)
        [(values, failures, _)] = cocycle([_StubRep()], CodingBatch((0, 1, 2), times, gens), cfg)
        assert [i for i, _ in failures] == [1]
        assert "NumericCocycleError" in failures[0][1]
        [(alone, none, _)] = cocycle([_StubRep()], CodingBatch((0, 2), times[::2], gens[::2]), cfg)
        assert none == []
        assert np.array_equal(values, alone)

    def test_lane_without_crossing_after_burn_in_fails(self, genus2, fuchs_g2):
        # at T = 2 the burn-in is 0.2, and 12 of 64 geodesics cross no side
        # after it: such a lane has no span to take a rate over, not rate 0
        cfg = RunConfig(T=2.0, samples=64, seed=1)
        coding = code_samples(genus2[0], cfg)
        idle = [i for i, t in zip(coding.index, coding.times) if not (t > cfg.burn_in).any()]
        assert len(coding.index) == 64 and len(idle) == 12
        [(rows, failures, _)] = cocycle([fuchs_g2], coding, cfg)
        why = "InsufficientDataError('no side crossing after the burn-in t = 0.2')"
        assert failures == [(i, why) for i in idle]
        keep = [k for k, i in enumerate(coding.index) if i not in idle]
        crossing = CodingBatch(*(tuple(f[k] for k in keep)
                                 for f in (coding.index, coding.times, coding.gens)), coding.key)
        [(alone, none, _)] = cocycle([fuchs_g2], crossing, cfg)
        assert none == [] and rows.tobytes() == alone.tobytes()
        assert estimate_spectrum(genus2[0], fuchs_g2, cfg, coding).samples == 52

    def test_trace_failure_in_failures(self, tri334, fuchs334, monkeypatch):
        dom, _, _ = tri334
        cfg = RunConfig(T=100.0, samples=5, seed=4)
        full = estimate_spectrum(dom, fuchs334, cfg)
        assert full.failures == ()
        real = oseledets.trace_geodesic
        calls = []

        def failing_third(dom, ut, T):
            calls.append(ut)
            if len(calls) == 3:
                raise fuchsian.ResourceError("injected")
            return real(dom, ut, T)

        monkeypatch.setattr(oseledets, "trace_geodesic", failing_third)
        est = estimate_spectrum(dom, fuchs334, cfg)
        assert est.samples == 4
        assert [i for i, _ in est.failures] == [2]
        assert "injected" in est.failures[0][1]
        assert np.array_equal(est.sample_values, np.delete(full.sample_values, 2, axis=0))

    @pytest.mark.parametrize("random_base", [False, True])
    def test_coding_contract(self, tri334, random_base):
        # _lockstep pads and gathers the lanes' codings as they are: float64
        # times, int64 generators, both contiguous, the tracer's crossings
        dom, _, _ = tri334
        cfg = RunConfig(T=60.0, samples=3, seed=8, random_base=random_base)
        batch = code_samples(dom, cfg)
        assert batch.index == (0, 1, 2)
        for i, times, gens in zip(batch.index, batch.times, batch.gens):
            assert times.dtype == np.float64 and gens.dtype == np.int64
            assert times.flags.c_contiguous and gens.flags.c_contiguous
            rng = np.random.default_rng([cfg.seed, i])
            angle = rng.uniform(0.0, 2.0 * math.pi)
            base = oseledets._sample_base(dom, rng) if random_base else dom.interior_point
            want = coding(dom, UnitTangent(base, angle), cfg.T)
            assert len(times) > 0
            assert times.tolist() == want.times.tolist()
            assert gens.tolist() == want.gens.tolist()

    def test_coding_arrays_stored_as_traced(self, tri334, monkeypatch):
        # code_samples keeps each trace's arrays, with no copy: float64
        # times and int64 generators, C-contiguous; chunks of 7 give the
        # same arrays bit for bit
        dom, _, _ = tri334
        cfg = RunConfig(T=200.0, samples=4, seed=8, random_base=True)
        real, traced = oseledets.trace_geodesic, []

        def recording(dom, ut, T):
            traced.append(real(dom, ut, T))
            return traced[-1]

        monkeypatch.setattr(oseledets, "trace_geodesic", recording)
        batch = code_samples(dom, cfg)
        assert batch.index == (0, 1, 2, 3) and len(traced) == 4
        for (t, g), times, gens in zip(traced, batch.times, batch.gens):
            assert times is t and gens is g
            assert times.dtype == np.float64 and gens.dtype == np.int64
            assert times.flags.c_contiguous and gens.flags.c_contiguous
            assert len(times) > 7
        monkeypatch.setattr(fuchsian, "_CHUNK_MAX", 7)
        chunked = code_samples(dom, cfg)
        assert chunked.index == batch.index
        for a, b in zip(batch.times + batch.gens, chunked.times + chunked.gens):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_csv_independent_of_lane_chunking(self, tmp_path, monkeypatch):
        args = ["spectrum", "--group", "triangle:3,3,4", "--time", "120",
                "--samples", "8", "--seed", "31"]
        together, alone = tmp_path / "together.csv", tmp_path / "alone.csv"
        assert cli.main(args + ["--out", str(together)]) == 0
        monkeypatch.setattr(oseledets, "FRAME_BUDGET", 1)  # one lane per chunk
        assert cli.main(args + ["--out", str(alone)]) == 0
        assert together.read_bytes() == alone.read_bytes()

    def test_frame_budget_bounds_chunk(self, tri334, fuchs334, monkeypatch):
        dom, _, _ = tri334
        rep = sym_power(fuchs334, 3)
        cfg = RunConfig(T=100.0, samples=7, seed=2)
        coding = code_samples(dom, cfg)
        full = estimate_spectrum(dom, rep, cfg, coding)
        sizes = []

        class Recording(CocycleAccumulator):
            def __init__(self, lanes, n, complex_field=False):
                sizes.append(lanes)
                super().__init__(lanes, n, complex_field)

        monkeypatch.setattr(oseledets, "CocycleAccumulator", Recording)
        monkeypatch.setattr(oseledets, "FRAME_BUDGET", 3 * rep.n * rep.n * 8)
        chunked = estimate_spectrum(dom, rep, cfg, coding)
        assert sizes == [3, 3, 1]
        assert np.array_equal(chunked.sample_values, full.sample_values)

    def test_lanes_share_qr_calls(self, tri334, fuchs334, monkeypatch):
        # rank 3: at rank 2 no frame is flushed (see TestRank2Tree)
        dom, _, _ = tri334
        rep = sym_power(fuchs334, 2)
        cfg = RunConfig(T=120.0, samples=4, seed=6)
        coding = code_samples(dom, cfg)
        burns = [int(np.searchsorted(t, cfg.burn_in, "right")) for t in coding.times]
        assert len(coding.index) == 4 and len(set(burns)) > 1
        calls = []
        real = CocycleAccumulator.flush
        monkeypatch.setattr(CocycleAccumulator, "flush", lambda acc, lanes: (
            calls.append(np.arange(len(acc.frames))[lanes]) or real(acc, lanes)))
        [(rows, failures, _)] = cocycle([rep], coding, cfg)
        assert failures == []
        # the windows are the global steps [wq, wq + q), with every burn-in
        # ending at the first window end past the longest: one flush per
        # window that some lane's steps meet, of the lanes whose steps meet it
        q, _ = oseledets.qr_interval(rep)
        assert q == 9
        settle = -(-max(burns) // q) * q
        windows, touched = set(), []
        for burn, t in zip(burns, coding.times):
            off = settle - burn
            touched.append(range(off // q, (off + len(t) - 1) // q + 1))
            windows.update(touched[-1])
        assert len(calls) == len(windows)
        assert len({len(w) for w in touched}) > 1
        assert sum(map(len, calls)) == sum(map(len, touched)) < 4 * len(windows)
        for lane in range(4):
            one = CodingBatch(coding.index[lane:lane + 1], coding.times[lane:lane + 1],
                              coding.gens[lane:lane + 1], coding.key)
            assert np.array_equal(cocycle([rep], one, cfg)[0][0], rows[lane:lane + 1])

    def test_awkward_schedule_lane_alone_bit_identical(self, genus2, fuchs_g2, monkeypatch):
        # q = 3 with a burn-in of 15: the settle step is padded up to a window
        # end and lanes end mid-window; three reps over five samples, so the
        # four-lane chunks below cut across samples
        split = fuchsian.BendingSplit.surface_standard(2)
        reps = [fuchs_g2] + [fuchsian.bend_representation(fuchs_g2, split, s) for s in (0.5, 1.0)]
        cfg = RunConfig(T=150.0, samples=5, seed=6, qr_interval=3)
        coding = code_samples(genus2[0], cfg)
        burns = [int(np.searchsorted(t, cfg.burn_in, "right")) for t in coding.times]
        assert len(coding.index) == 5 and max(burns) % 3 != 0
        assert any((len(t) - b) % 3 for t, b in zip(coding.times, burns))
        fused = cocycle(reps, coding, cfg)
        monkeypatch.setattr(oseledets, "FRAME_BUDGET", 4 * 2 * 2 * 8)
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(cocycle(reps, coding, cfg), fused))
        for r, (rows, failures, _) in enumerate(fused):
            assert failures == []
            for lane in range(5):
                one = CodingBatch(coding.index[lane:lane + 1], coding.times[lane:lane + 1],
                                  coding.gens[lane:lane + 1], coding.key)
                assert np.array_equal(cocycle([reps[r]], one, cfg)[0][0], rows[lane:lane + 1])

    def test_coding_shared_across_reps_and_intervals(self, tri334, fuchs334):
        dom, _, _ = tri334
        cfg = RunConfig(T=150.0, samples=4, seed=12)
        coding = code_samples(dom, cfg)
        for rep in (fuchs334, sym_power(fuchs334, 2)):
            for q in (1, 8):
                c = RunConfig(T=150.0, samples=4, seed=12, qr_interval=q)
                assert np.array_equal(estimate_spectrum(dom, rep, c, coding).sample_values,
                                      estimate_spectrum(dom, rep, c).sample_values)

    def test_coding_of_other_config_refused(self, tri334, fuchs334):
        dom, _, _ = tri334
        coding = code_samples(dom, RunConfig(T=100.0, samples=4, seed=1))
        with pytest.raises(ValueError):
            estimate_spectrum(dom, fuchs334, RunConfig(T=100.0, samples=4, seed=2), coding)


class TestRank2Tree:
    def test_lane_bits_alone_beside_others_and_per_window(self, tri334, fuchs334, monkeypatch):
        # a rank-2 lane's trees are keyed from its own burn-in end, so its row
        # keeps its bits alone, beside lanes whose burn-ins (at q = 2, in
        # windows) are longer and shorter, and with one window per block.  The
        # scaled rep has det != 1, so its post-settle log|det| sums count as
        # well; the rotations' rows are rounding noise, which any other
        # association of a lane's product moves.
        dom, _, _ = tri334
        m = fuchs334.num_generators
        scaled = Representation(2, "real", [(1.0 + 0.1 * g) * fuchs334.generator_image(g)
                                            for g in range(1, m + 1)], (), "scaled")
        rotations = Representation(2, "real", [[[math.cos(g), -math.sin(g)],
                                                [math.sin(g), math.cos(g)]]
                                               for g in range(1, m + 1)], (), "rotations")
        reps = [fuchs334, scaled, rotations]
        cfg = RunConfig(T=150.0, samples=5, seed=14, qr_interval=2)
        coding = code_samples(dom, cfg)
        burns = [int(np.searchsorted(t, cfg.burn_in, "right")) for t in coding.times]
        lane = sorted(range(5), key=burns.__getitem__)[2]
        windows = [-(-b // cfg.qr_interval) for b in burns]
        assert len(coding.index) == 5 and min(windows) < windows[lane] < max(windows)
        one = CodingBatch(coding.index[lane:lane + 1], coding.times[lane:lane + 1],
                          coding.gens[lane:lane + 1], coding.key)
        fused = cocycle(reps, coding, cfg)
        # every lane in one chunk, one window per block
        monkeypatch.setattr(oseledets, "FRAME_BUDGET", len(reps) * 5 * 2 * 2 * 8)
        per_window = cocycle(reps, coding, cfg)
        for rep, (rows, lost, _), (blocked, _, _) in zip(reps, fused, per_window):
            [(alone, alone_lost, _)] = cocycle([rep], one, cfg)
            assert lost == alone_lost == []
            assert rows[lane].tobytes() == alone[0].tobytes() == blocked[lane].tobytes()
        assert fused[1][0].sum(axis=1).all()  # lambda1 + lambda2 != 0


class _SteadyRep(_StubRep):
    """_StubRep whose second generator is invertible: its lanes never degenerate."""

    def generator_image(self, g):
        return np.diag([3.0, 1.0 / 3.0]) if abs(g) == 2 else super().generator_image(g)


class _DeadSurfaceRep(_StubRep):
    """_StubRep with the four generators of surface:2, all mapped to zero."""

    num_generators, label = 4, "dead"

    def generator_image(self, g):
        return np.zeros((2, 2))


class TestFusedReps:
    def test_degenerate_lane_isolated_to_its_rep(self):
        times = tuple(np.arange(1.0, 13.0) for _ in range(3))
        gens = (np.full(12, 1), np.array([1, 1, 2] + [1] * 9), np.array([2, -1] * 6))
        batch = CodingBatch((0, 1, 2), times, gens)
        cfg = RunConfig(T=12.0, samples=3, seed=0, qr_interval=4)
        reps = [_SteadyRep(), _StubRep(), _SteadyRep()]
        fused = cocycle(reps, batch, cfg)
        assert [[i for i, _ in lost] for _, lost, _ in fused] == [[], [1, 2], []]
        for rep, (rows, lost, _) in zip(reps, fused):
            [(alone, alone_lost, _)] = cocycle([rep], batch, cfg)
            assert np.array_equal(rows, alone)
            assert lost == alone_lost
        assert np.array_equal(fused[0][0], fused[2][0])

    def test_complex_fold_memory_follows_one_step_gather(self, genus2, fuchs_g2):
        # ten imaginary bends fused, 40 lanes at q = 8, all windows in one
        # block: live at once are three (windows, lanes, 4, 4) real fold
        # arrays and the (windows, q, lanes) step index.  A gather of the
        # whole block's (windows, q, lanes, 2, 2) complex images peaked at
        # 1.11 MiB here, the one-step gather at 0.73 MiB.
        split = fuchsian.BendingSplit.surface_standard(2)
        reps = [fuchsian.bend_representation(fuchs_g2, split, 0.2j * k) for k in range(1, 11)]
        cfg = RunConfig(T=500.0, samples=4, seed=9)
        coding = code_samples(genus2[0], cfg)
        assert {oseledets.qr_interval(rep)[0] for rep in reps} == {8}
        q, lanes = 8, len(reps) * len(coding.index)
        burn = [int(np.searchsorted(t, cfg.burn_in, "right")) for t in coding.times]
        settle = -(-max(burn) // q) * q
        windows = -(-max(settle - b + len(t) for b, t in zip(burn, coding.times)) // q)
        bound = windows * lanes * (3 * 4 * 4 * 8 + q * 8) + (1 << 17)
        cocycle(reps, coding, cfg)
        tracemalloc.start()
        try:
            cocycle(reps, coding, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_mixed_fields_fused(self, genus2, fuchs_g2):
        # tau = 0 stays real beside two imaginary bends and the unresolved
        # real twist 8: each rep keeps its single-field rows, failures and
        # unresolved reason bit for bit
        split = fuchsian.BendingSplit.surface_standard(2)
        reps = fuchsian.bend_representations(fuchs_g2, split, [0.5j, 0.0, 8.0, 1j])
        assert [rep.is_complex for rep in reps] == [True, False, False, True]
        cfg = RunConfig(T=100.0, samples=4, seed=7)
        coding = code_samples(genus2[0], cfg)
        fused = cocycle(reps, coding, cfg)
        fields = cocycle(reps[1:3], coding, cfg), cocycle(reps[::3], coding, cfg)
        for got, want in zip(fused, [fields[1][0], *fields[0], fields[1][1]], strict=True):
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
        assert [bool(why) for _, _, why in fused] == [False, False, True, False]
        ests = oseledets.estimate_spectra(genus2[0], reps, cfg, coding)
        for rep, est in zip(reps, ests, strict=True):
            alone = estimate_spectrum(genus2[0], rep, cfg, coding)
            assert est.sample_values.tobytes() == alone.sample_values.tobytes()
            assert (est.failures, est.unresolved) == (alone.failures, alone.unresolved)
        with pytest.raises(ValueError):  # sizes must still agree
            cocycle([reps[1], sym_power(reps[1], 2)], coding, cfg)

    def test_no_reps_no_work(self, tri334, monkeypatch):
        monkeypatch.setattr(oseledets, "trace_geodesic", None)  # any trace would raise
        cfg = RunConfig(T=50.0, samples=3, seed=0)
        assert cocycle([], CodingBatch((), (), ()), cfg) == []
        assert oseledets.estimate_spectra(tri334[0], [], cfg) == []

    def test_rep_without_rows_fails_only_its_sweep_row(self, tmp_path, monkeypatch):
        args = ["sweep", "--group", "surface:2", "--axis", "real", "--grid", "0,1,2,4",
                "--time", "60", "--samples", "4", "--seed", "4"]
        clean, patched = tmp_path / "clean.csv", tmp_path / "patched.csv"
        assert cli.main(args + ["--out", str(clean)]) == 0
        real = cli.fuchsian.bend_representations
        monkeypatch.setattr(cli.fuchsian, "bend_representations",
                            lambda rep, split, values: [
                                _DeadSurfaceRep() if s == 2 else bent
                                for s, bent in zip(values, real(rep, split, values))])
        assert cli.main(args + ["--out", str(patched)]) == 0
        want = clean.read_text().splitlines()
        got = patched.read_text().splitlines()
        assert got[3] == "2,nan,nan,failed:InsufficientDataError"
        assert got[:3] + got[4:] == want[:3] + want[4:]
        assert all(row.endswith(",ok") for row in want[1:])


@pytest.fixture(scope="module")
def spec334(tri334, fuchs334):
    dom, _, _ = tri334
    return estimate_spectrum(dom, fuchs334, RunConfig(T=600.0, samples=24, seed=21))


class TestEstimateSpectrum:
    def test_fuchsian_benchmark(self, spec334):
        assert abs(spec334.values[0] - 1.0) < 4 * max(spec334.stderr[0], 5e-4)

    def test_values_sorted(self, spec334):
        assert np.all(np.diff(spec334.values) <= 0)

    def test_unitary_zero(self, tri334):
        dom, _, _ = tri334
        est = estimate_spectrum(dom, unitary_cube_rep(),
                                RunConfig(T=200.0, samples=8, seed=4))
        assert np.abs(est.values).max() < 0.01

    def test_symmetry_and_zero_sum(self, tri334, fuchs334):
        dom, _, _ = tri334
        est = estimate_spectrum(dom, sym_power(fuchs334, 3),
                                RunConfig(T=400.0, samples=12, seed=10))
        comb = np.hypot(est.stderr, est.stderr[::-1])
        assert np.all(np.abs(est.values + est.values[::-1]) <= 3 * comb + 1e-9)
        se_sum = math.sqrt(float(np.sum(est.stderr**2)))
        assert abs(est.values.sum()) <= 3 * se_sum + 1e-9

    def test_conjugation_invariance(self, tri334, fuchs334, spec334):
        dom, _, _ = tri334
        x = np.array([[1.4, 0.3], [0.2, 1.0]])
        conj = Representation(
            2, "real",
            [x @ g @ np.linalg.inv(x) for g in fuchs334.generators],
            fuchs334.relations, "conjugated", projective_flag=True)
        est = estimate_spectrum(dom, conj, RunConfig(T=600.0, samples=24, seed=21))
        comb = np.hypot(est.stderr, spec334.stderr) + 1e-3 / 600.0
        assert np.all(np.abs(est.values - spec334.values) <= 3 * comb + 5e-3)

    def test_qr_interval_invariance(self, tri334, fuchs334):
        dom, _, _ = tri334
        ests = [estimate_spectrum(dom, fuchs334,
                                  RunConfig(T=200.0, samples=8, seed=77, qr_interval=q))
                for q in (1, 4, 16)]
        for e in ests[1:]:
            comb = np.hypot(e.stderr, ests[0].stderr)
            assert np.all(np.abs(e.values - ests[0].values) <= 3 * comb + 1e-9)

    def test_seed_determinism(self, tri334, fuchs334):
        dom, _, _ = tri334
        cfg = RunConfig(T=150.0, samples=6, seed=123)
        a = estimate_spectrum(dom, fuchs334, cfg)
        b = estimate_spectrum(dom, fuchs334, cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.sample_values, b.sample_values)
        assert spectrum_csv(a) == spectrum_csv(b)

    def test_random_base_deterministic_and_valid(self, tri334, fuchs334):
        dom, _, _ = tri334
        cfg = RunConfig(T=150.0, samples=6, seed=5, random_base=True)
        a = estimate_spectrum(dom, fuchs334, cfg)
        b = estimate_spectrum(dom, fuchs334, cfg)
        assert np.array_equal(a.values, b.values)
        assert abs(a.values[0] - 1.0) < 0.1

    def test_stderr_scaling(self, tri334, fuchs334):
        dom, _, _ = tri334
        e64 = estimate_spectrum(dom, fuchs334, RunConfig(T=50.0, samples=64, seed=8))
        e256 = estimate_spectrum(dom, fuchs334, RunConfig(T=50.0, samples=256, seed=8))
        ratio = e256.stderr[0] / e64.stderr[0]
        assert 0.25 <= ratio <= 0.75

    def test_insufficient_data(self, tri334, fuchs334):
        dom, _, _ = tri334
        with pytest.raises(InsufficientDataError):
            estimate_spectrum(dom, fuchs334, RunConfig(T=50.0, samples=1, seed=1))

    def test_minus1_normalization_halves(self, tri334, fuchs334):
        dom, _, _ = tri334
        a = estimate_spectrum(dom, fuchs334,
                              RunConfig(T=150.0, samples=6, seed=13))
        b = estimate_spectrum(dom, fuchs334,
                              RunConfig(T=150.0, samples=6, seed=13,
                                        normalization="minus1"))
        assert np.allclose(a.values, 2.0 * b.values, atol=1e-14)

    @pytest.mark.parametrize("specname", ["triangle:2,3,7", "surface:3"])
    def test_uniformizing_benchmark_other_groups(self, specname):
        from lyaplab.fuchsian import build_group, parse_group_spec
        from lyaplab.linrep import uniformizing_rep

        dom, gens, rels = build_group(parse_group_spec(specname))
        rep = uniformizing_rep(gens, rels, "fuchsian")
        est = estimate_spectrum(dom, rep, RunConfig(T=300.0, samples=8, seed=1))
        assert abs(est.values[0] - 1.0) < 0.02


BUILTIN_GROUPS = ("triangle:3,3,4", "triangle:2,3,7", "surface:2", "surface:3")
EXACT_CONFIG = RunConfig(T=200.0, samples=8, seed=1)


@functools.lru_cache(maxsize=None)
def _uniformized(spec):
    """(domain, uniformizing rep, EXACT_CONFIG coding) of a built-in group."""
    dom, gens, rels = fuchsian.build_group(fuchsian.parse_group_spec(spec))
    return dom, uniformizing_rep(gens, rels, "fuchsian"), code_samples(dom, EXACT_CONFIG)


class TestQrInterval:
    """The rule's q pinned, so that a change of QR_BUDGET or of the
    conditioning measure cannot silently move a sweep."""

    def test_rule_pins_q(self, fuchs334, fuchs_g2):
        split = fuchsian.BendingSplit.surface_standard(2)
        assert oseledets.qr_interval(fuchs334) == (19, "")
        for s in (0.5j, 1j, 1.5j, 2j):
            assert oseledets.qr_interval(fuchsian.bend_representation(fuchs_g2, split, s)) \
                == (8, "")
        assert oseledets.qr_interval(fuchs_g2) == (8, "")
        assert oseledets.qr_interval(fuchsian.bend_representation(fuchs_g2, split, 4.0)) \
            == (1, "")
        q, why = oseledets.qr_interval(fuchsian.bend_representation(fuchs_g2, split, 8.0))
        assert q == 1 and why.startswith("spectrum unresolved")

    def test_overflow_and_conditioning_bounds(self):
        # perfectly conditioned, but entries grow by 1e40 a step
        assert oseledets.qr_interval(single_matrix_rep(1e40 * np.eye(2))) == (2, "")
        q, why = oseledets.qr_interval(single_matrix_rep(np.diag([1e40, 1e-40])))
        assert q == 1 and "log cond 184.2" in why

    def test_unresolved_estimate_keeps_its_values(self, genus2, fuchs_g2):
        bent = fuchsian.bend_representation(
            fuchs_g2, fuchsian.BendingSplit.surface_standard(2), 8.0)
        est = estimate_spectrum(genus2[0], bent, RunConfig(T=100.0, samples=4, seed=3))
        assert est.unresolved.startswith("spectrum unresolved")
        assert est.samples == 4 and np.isfinite(est.values).all()

    def test_each_rep_keeps_its_interval_when_fused(self, genus2, fuchs_g2):
        split = fuchsian.BendingSplit.surface_standard(2)
        reps = [fuchsian.bend_representation(fuchs_g2, split, s) for s in (1.5, 0.5, 16.0)]
        cfg = RunConfig(T=100.0, samples=4, seed=3)
        coding = code_samples(genus2[0], cfg)
        fused = cocycle(reps, coding, cfg)
        assert [why != "" for _, _, why in fused] == [False, False, True]
        for rep, out in zip(reps, fused):
            [alone] = cocycle([rep], coding, cfg)
            assert np.array_equal(out[0], alone[0]) and out[1:] == alone[1:]


class TestExactSpectra:
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("spec", BUILTIN_GROUPS)
    def test_sym_power_spectrum_or_unresolved(self, spec, k):
        """Sym^k of a uniformizing representation has the spectrum
        (k, k - 2, ..., -k): within C2's tolerance of 0.02 k, or unresolved."""
        dom, rep, coding = _uniformized(spec)
        est = estimate_spectrum(dom, rep if k == 1 else sym_power(rep, k), EXACT_CONFIG, coding)
        if not est.unresolved:
            assert np.abs(est.values - np.arange(k, -k - 1, -2)).max() <= 0.02 * k

    def test_twist_4_spectrum_symmetric(self, genus2, fuchs_g2):
        bent = fuchsian.bend_representation(
            fuchs_g2, fuchsian.BendingSplit.surface_standard(2), 4.0)
        est = estimate_spectrum(genus2[0], bent, RunConfig(T=500.0, samples=4, seed=3))
        assert est.unresolved == "" and est.values[0] > 2.0
        assert abs(est.values[0] + est.values[1]) <= 3 * math.hypot(*est.stderr)


class TestWedge:
    def test_k1_identical(self, tri334, fuchs334):
        dom, _, _ = tri334
        wc = wedge_crosscheck(dom, fuchs334, 1,
                              RunConfig(T=150.0, samples=6, seed=3))
        assert abs(wc.discrepancy) < 1e-12

    def test_top_wedge_both_zero(self, tri334, fuchs334):
        dom, _, _ = tri334
        wc = wedge_crosscheck(dom, fuchs334, 2,
                              RunConfig(T=150.0, samples=6, seed=3))
        assert abs(wc.wedge_top) < 1e-10
        assert abs(wc.partial_sum) < 1e-10

    def test_sym2_partial_sum(self, tri334, fuchs334):
        dom, _, _ = tri334
        wc = wedge_crosscheck(dom, sym_power(fuchs334, 2), 2,
                              RunConfig(T=400.0, samples=16, seed=6))
        assert abs(wc.discrepancy) <= 3 * wc.combined_stderr + 1e-9
        assert abs(wc.partial_sum - 2.0) < 0.1

    def test_sym3_partial_sum(self, tri334, fuchs334):
        # top two exponents of Sym^3 are 3 and 1; their sum is the top
        # exponent of the 6-dimensional second exterior power
        dom, _, _ = tri334
        wc = wedge_crosscheck(dom, sym_power(fuchs334, 3), 2,
                              RunConfig(T=300.0, samples=8, seed=6))
        assert abs(wc.discrepancy) <= 3 * wc.combined_stderr + 1e-9
        assert abs(wc.partial_sum - 4.0) < 0.2
        assert abs(wc.wedge_top - 4.0) < 0.2


class TestRandomWalk:
    def test_trivial_zero(self, tri334):
        _, gens, rels = tri334
        est = random_walk_spectrum(trivial_rep(2, len(gens), rels), 500, 4, 1)
        assert np.array_equal(est.values, np.zeros(2))

    def test_unitary_zero(self):
        est = random_walk_spectrum(unitary_cube_rep(), 800, 4, 2)
        assert np.abs(est.values).max() < 0.01

    def test_fuchsian_nonzero(self, fuchs334):
        est = random_walk_spectrum(fuchs334, 4000, 8, 3)
        assert est.values[0] > 0.05
        assert est.normalization_tag == "per-step"
        assert est.caveat

    def test_determinism(self, fuchs334):
        a = random_walk_spectrum(fuchs334, 200, 4, 9)
        b = random_walk_spectrum(fuchs334, 200, 4, 9)
        assert np.array_equal(a.values, b.values)


class TestCsv:
    def test_schema(self):
        est = SpectrumEstimate(
            values=np.array([1.0, -1.0]), stderr=np.array([0.01, 0.01]),
            samples=4, normalization_tag="minus4", label="x", T=100.0, seed=7,
            sample_values=np.array([[1.0, -1.0]] * 4), failures=(), unresolved="")
        csv = spectrum_csv(est)
        lines = csv.strip().split("\n")
        assert lines[0] == "label,i,lambda,stderr,samples,T,seed,normalization"
        assert lines[1] == "x,1,1,0.01,4,100,7,minus4"
        assert len(lines) == 3
