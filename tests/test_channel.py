import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import rmpsc._kernels
import rmpsc.scdec
from rmpsc import channel
from rmpsc.channel import (
    FerPoint,
    SimConfig,
    noise_sigma,
    noisy_frames,
    run_fer,
    tub_ml_bound,
    write_fer_csv,
)
from rmpsc.codes import CodeSpec
from rmpsc.scdec import Permutation
from rmpsc.scdec import encode_batch, sc_decode_frames


def q_func(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def rebuilt_trial(code, ebn0, seed, stream, trial):
    """Trial ``trial``'s codeword and LLRs from a bare Philox stream, one
    frame at a time in the formula's own order."""
    words = -(-code.K // 64)
    stride = -(-(words + code.N) // 4)
    key = np.random.SeedSequence(seed, spawn_key=stream).generate_state(2, np.uint64)
    gen = np.random.Philox(key=key)
    gen.advance(trial * stride)
    w = [int(v) for v in gen.random_raw(4 * stride)]
    bits = np.array([(w[i // 64] >> (i % 64)) & 1 for i in range(code.K)], np.uint8)
    uniforms = np.array([((v >> 12) + 0.5) * 2.0**-52 for v in w[words : words + code.N]])
    (x,) = encode_batch(bits[None, :], code)
    sigma = noise_sigma(ebn0, code.rate)
    return x, 2.0 * ((1.0 - 2.0 * x) + sigma * ndtri(uniforms)) / (sigma * sigma)


class TestNoisyFrames:
    def test_high_snr_signs(self):
        code = CodeSpec.from_i_min({19}, 6)
        x, llr = noisy_frames(code, 40.0, 0, (0,), 0, 16)
        assert np.array_equal(np.sign(llr), 1.0 - 2.0 * x)

    def test_moments(self):
        code = CodeSpec.from_i_min({19}, 6)   # (64,37)
        ebn0 = 2.0
        x, llr = noisy_frames(code, ebn0, 1, (0,), 0, 2000)
        sigma2 = noise_sigma(ebn0, code.rate) ** 2
        z = (1.0 - 2.0 * x) * llr   # LLR as if the all-zero word were sent
        assert abs(z.mean() - 2.0 / sigma2) < 0.05 * (2.0 / sigma2)
        assert abs(z.var() - 4.0 / sigma2) < 0.05 * (4.0 / sigma2)
        assert abs(x.mean() - 0.5) < 0.01

    def test_deterministic(self):
        code = CodeSpec.from_i_min({11}, 5)
        a = noisy_frames(code, 1.0, 7, (3,), 5, 9)
        b = noisy_frames(code, 1.0, 7, (3,), 5, 9)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        for seed, stream in ((8, (3,)), (7, (4,))):
            _, other = noisy_frames(code, 1.0, seed, stream, 5, 9)
            assert not np.array_equal(a[1], other)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            noise_sigma(1.0, 0.0)
        with pytest.raises(ValueError):
            noise_sigma(1.0, 1.5)

    # at rate 1/2, sigma^2 and sigma^2/2 are positive normal floats from
    # -3082 to 3073 dB: at 3074 dB sigma^2 lies in the lowest normal binade,
    # at 3080 it underflows, 4000 overflows 10^(Eb/N0 / 10) and -4000
    # divides by zero
    @pytest.mark.parametrize("ebn0", [3074.0, 3080.0, 4000.0, -3083.0, -4000.0, math.nan])
    def test_sigma_out_of_range_refused(self, ebn0):
        with pytest.raises(ValueError, match=f"Eb/N0 {ebn0:g} dB is out of range"):
            noise_sigma(ebn0, 0.5)

    @pytest.mark.parametrize("ebn0", [3073.0, -3082.0])
    def test_sigma_edge_accepted(self, ebn0):
        # sigma^2 in the second-lowest normal binade, and nearly the largest
        # normal float; the one division by sigma^2/2 gives the formula's bits
        sigma = noise_sigma(ebn0, 0.5)
        assert sys.float_info.min <= sigma * sigma / 2
        assert sigma * sigma <= sys.float_info.max
        code = CodeSpec.from_i_min({63, 121}, 10)   # (1024,512), rate 1/2
        x, llr = rebuilt_trial(code, ebn0, 3, (2,), 5)
        (x_got,), (llr_got,) = noisy_frames(code, ebn0, 3, (2,), 5, 1)
        assert np.isfinite(llr_got).all()
        assert np.array_equal(x_got, x)
        assert np.array_equal(llr_got, llr)

    def test_node_major_layout(self):
        # the layout the SC kernel reads in place, so no consumer copies it
        x, llr = noisy_frames(CodeSpec.from_i_min({27}, 7), 2.0, 0, (0,), 3, 37)
        assert x.shape == llr.shape == (37, 128)
        assert x.T.flags.c_contiguous and llr.T.flags.c_contiguous

    @pytest.mark.parametrize("i_min,n", [({1}, 1), ({19}, 6), ({63, 121}, 10)])
    def test_block_mid_stream_matches_longer_draw(self, i_min, n):
        # (2,1), (64,37) and (1024,512): one, one and eight words of bits
        code = CodeSpec.from_i_min(i_min, n)
        x, llr = noisy_frames(code, 2.0, 11, (1,), 0, 40)
        x_mid, llr_mid = noisy_frames(code, 2.0, 11, (1,), 13, 7)
        assert np.array_equal(x_mid, x[13:20])
        assert np.array_equal(llr_mid, llr[13:20])

    def test_trial_rebuilt_from_bare_philox(self):
        code = CodeSpec.from_i_min({63, 121}, 10)   # (1024,512), K > 64
        x, llr = rebuilt_trial(code, 2.5, 3, (2,), 5)
        (x_got,), (llr_got,) = noisy_frames(code, 2.5, 3, (2,), 5, 1)
        assert np.array_equal(x_got, x)
        assert np.array_equal(llr_got, llr)
        # the extreme words map strictly inside (0, 1), so noise is finite
        for v in (0, 2**64 - 1):
            assert 0.0 < ((v >> 12) + 0.5) * 2.0**-52 < 1.0


class TestPinnedFrames:
    # SHA-256 of noisy_frames' x and LLR bytes (C order), taken before the
    # LLRs were drawn node-major; a change to the channel must leave them
    # alone.  (1024,512) draws eight words of bits per trial.
    CASES = [
        # (i_min, n), Eb/N0, seed, stream, start, count, x digest, LLR digest
        (({19}, 6), 2.0, 0, (0,), 0, 64,
         "2201fb3fdf29f8f9733e738220d420d5924cafa71cdac19120aa5585a47539dd",
         "66551a73f76fcba6f7dd48b323ca5c7f56072d708ac3f5ad02c7f78f67980c5f"),
        (({19}, 6), 2.0, 5, (2,), 1000, 33,
         "177685c97ba31a092bce3b65cd6c511868d971b686bc494cd05117a1f6a2c893",
         "b1f3fd2655802debb89ce2a7ecb1ac4ad488cf64d95ae2241688f3dec1b0de66"),
        (({27}, 7), 2.0, 3, (1,), 517, 37,
         "38845b0bc8cdfac63e9d90547c2ba5e3573febe8707b00c57eacbe56b5fbf24f",
         "02050cfb8b5a18b55f32ebc5574bfdb841845d51cfd693a9ca443a8e0003203f"),
        (({63, 121}, 10), 3.5, 1, (0xAB5,), 7, 9,
         "70d01151712d49f2e6c6b8c8ecb65f4e9e2ef03e8de706b49c0409a021828fde",
         "7a3714c816ece8a79236db47bb988a07fc07fe8c5423c762200cc9c6ef5e25aa"),
        (({63, 121}, 10), 3.5, 0, (0,), 0, 256,
         "098dcb3a2a853e36a051c2a953eb8fed98f49bdee8fa0f57bee4dbf879a297ad",
         "de9b4dde9b3e2f4797279e8ec0d33766b3d1d34c66f14b6d2c0e697b445d6f9d"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0][1]}-{c[4]}-{c[5]}")
    def test_frame_digests(self, case):
        import hashlib

        (i_min, n), ebn0, seed, stream, start, count, x_digest, llr_digest = case
        code = CodeSpec.from_i_min(i_min, n)
        x, llr = noisy_frames(code, ebn0, seed, stream, start, count)
        assert x.shape == llr.shape == (count, code.N)
        assert hashlib.sha256(x.tobytes()).hexdigest() == x_digest
        assert hashlib.sha256(llr.tobytes()).hexdigest() == llr_digest


class TestTub:
    def test_reference_value(self):
        assert tub_ml_bound(4, 14, 0.5, 0.0) == pytest.approx(14 * q_func(2.0), rel=1e-12)

    def test_linear_in_multiplicity(self):
        lo = tub_ml_bound(8, 10, 0.5, 3.0)
        hi = tub_ml_bound(8, 20, 0.5, 3.0)
        assert hi == pytest.approx(2 * lo, rel=1e-12)

    def test_monotone_decreasing(self):
        vals = [tub_ml_bound(8, 100, 0.58, e) for e in np.linspace(-2, 8, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_clipped_to_one(self):
        assert tub_ml_bound(1, 10**9, 1.0, -20.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tub_ml_bound(0, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            tub_ml_bound(4, 0, 0.5, 1.0)
        with pytest.raises(ValueError, match="rate must be in"):
            tub_ml_bound(4, 14, 0.0, 1.0)


class TestSimConfig:
    def test_grid_must_increase(self):
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError):
            SimConfig(code=code, ebn0_grid_db=(2.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_must_be_finite(self, bad):
        code = CodeSpec.from_i_min({1}, 1)
        for grid in ((bad,), (1.0, bad), (bad, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(code=code, ebn0_grid_db=grid)

    def test_grid_points_need_a_normal_noise_variance(self):
        code = CodeSpec.from_i_min({1}, 1)   # rate 1/2
        for bad in (3074.0, -3083.0):
            with pytest.raises(ValueError, match=f"Eb/N0 {bad:g} dB is out of range"):
                SimConfig(code=code, ebn0_grid_db=tuple(sorted((1.0, bad))))
        SimConfig(code=code, ebn0_grid_db=(-3082.0, 3073.0))

    def test_targets_validated(self):
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError):
            SimConfig(code=code, max_trials=10, target_errors=11)

    def test_negative_seed_rejected(self):
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimConfig(code=code, seed=-1)

    def test_ae_needs_perms(self):
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError):
            SimConfig(code=code, decoder="ae")

    def test_sc_refuses_perms(self):
        # plain SC would decode without them, silently
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError, match="SC decoding takes no permutations"):
            SimConfig(code=code, decoder="sc", perms=(Permutation.identity(2),))

    def test_unknown_decoder(self):
        code = CodeSpec.from_i_min({1}, 1)
        with pytest.raises(ValueError):
            SimConfig(code=code, decoder="scl")

    @pytest.mark.parametrize(
        "perm, message",
        [
            (np.arange(32), "length N=64"),
            (np.zeros(64, int), r"not a permutation of range\(64\)"),
            (np.arange(64) + 0.5, "not integers"),
        ],
        ids=["short", "repeated", "non-integer"],
    )
    def test_bad_ae_permutation_rejected_before_any_frame(self, monkeypatch, perm, message):
        def no_frames(*args, **kwargs):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(channel, "noisy_frames", no_frames)
        code = CodeSpec.from_i_min((19,), 6)   # N = 64
        with pytest.raises(ValueError, match=message):
            SimConfig(code=code, decoder="ae", perms=(np.arange(64), perm))

    def test_perms_held_as_permutations(self):
        code = CodeSpec.from_i_min((19,), 6)
        given = Permutation.identity(64)
        cfg = SimConfig(code=code, decoder="ae", perms=[given, np.arange(64)[::-1]])
        assert isinstance(cfg.perms, tuple) and len(cfg.perms) == 2
        assert cfg.perms[0] is given
        assert isinstance(cfg.perms[1], Permutation)
        assert cfg.perms[1].perm.tolist() == list(range(63, -1, -1))


class TestRunFer:
    def test_repetition_matches_closed_form(self):
        code = CodeSpec.from_i_min({1}, 1)   # (2,1) repetition
        grid = (0.0, 1.0, 2.0, 3.0)
        cfg = SimConfig(
            code=code, ebn0_grid_db=grid, max_trials=20_000, target_errors=20_000, seed=9
        )
        points = run_fer(cfg)
        for p in points:
            gamma = 10.0 ** (p.ebn0_db / 10.0)
            expect = q_func(math.sqrt(2.0 * gamma))
            sigma = math.sqrt(expect * (1 - expect) / p.trials)
            assert abs(p.fer - expect) < 3 * sigma, (p, expect)

    def test_noiseless_regime(self):
        code = CodeSpec.from_i_min({19}, 6)
        cfg = SimConfig(
            code=code, ebn0_grid_db=(40.0,), max_trials=1000, target_errors=1000, seed=1
        )
        (point,) = run_fer(cfg)
        assert point.frame_errors == 0
        assert point.trials == 1000

    def test_default_batches_reuse_one_workspace(self, monkeypatch):
        # a default batch at N = 1024 is 256 frames, above the AE call budget;
        # the kernel keeps its workspace for it, so both points decode in
        # one buffer
        kept = []
        decode = rmpsc.scdec.sc_decode_batch

        def record(llrs, frozen, minsum=False):
            X = decode(llrs, frozen, minsum)
            kept.append(rmpsc._kernels._RETAINED[None].llrs)
            return X

        monkeypatch.setattr(rmpsc.scdec, "sc_decode_batch", record)
        code = CodeSpec.from_i_min({63, 121}, 10)
        cfg = SimConfig(
            code=code, ebn0_grid_db=(3.0, 3.5), max_trials=256, target_errors=256, seed=2
        )
        run_fer(cfg)
        buffer = kept[0]
        assert len(kept) == 2 and buffer.size >= 256 * code.N
        assert all(ws_llrs is buffer for ws_llrs in kept)

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"workers": 0}, {"workers": -1}])
    def test_rejects_empty_batches_and_pools(self, kwargs):
        cfg = SimConfig(
            code=CodeSpec.from_i_min({11}, 5), ebn0_grid_db=(1.0,), max_trials=10, target_errors=10
        )
        with pytest.raises(ValueError):
            run_fer(cfg, **kwargs)

    def test_deterministic_across_batching(self):
        code = CodeSpec.from_i_min({11}, 5)
        cfg = SimConfig(
            code=code, ebn0_grid_db=(1.0, 2.0), max_trials=600, target_errors=40, seed=3
        )
        a = run_fer(cfg, batch_size=64)
        b = run_fer(cfg, batch_size=257)
        assert a == b

    @seed(10)
    @settings(max_examples=25, deadline=None, derandomize=False, database=None)
    @given(st.integers(1, 700))
    def test_batch_size_invariant(self, batch_size):
        cfg = SimConfig(
            code=CodeSpec.from_i_min({11}, 5),
            ebn0_grid_db=(1.0, 2.0),
            max_trials=600,
            target_errors=40,
            seed=3,
        )
        assert run_fer(cfg, batch_size=batch_size) == run_fer(cfg, batch_size=600)

    def test_deterministic_across_workers(self):
        code = CodeSpec.from_i_min({11}, 5)
        cfg = SimConfig(
            code=code, ebn0_grid_db=(2.0,), max_trials=400, target_errors=50, seed=4
        )
        a = run_fer(cfg, workers=1)
        b = run_fer(cfg, workers=2, batch_size=97)
        assert a == b

    def test_pool_bounded_by_cores(self, monkeypatch):
        # a recording stand-in for the executor: no process is started, and
        # its map is the built-in one, so batches run in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(channel, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(channel.os, "cpu_count", lambda: 3)
        cfg = SimConfig(
            code=CodeSpec.from_i_min({11}, 5),
            ebn0_grid_db=(1.0, 2.0),
            max_trials=600,
            target_errors=40,
            seed=3,
        )
        expect = run_fer(cfg, workers=1)
        assert sizes == []
        assert run_fer(cfg, workers=10**6, batch_size=7) == expect
        assert run_fer(cfg, workers=2, batch_size=7) == expect
        assert sizes == [3, 2]

    # each example starts a process pool, so the example count stays small
    @seed(11)
    @settings(max_examples=8, deadline=None, derandomize=False, database=None)
    @given(st.integers(1, 700), st.sampled_from([1, 2, 3]))
    @example(None, 1)
    @example(None, 2)
    def test_ae_worker_and_batch_invariant(self, batch_size, workers):
        # AE stacks branches into kernel calls by batch size, so batch sizes
        # also change how the branches are grouped; None is run_fer's default
        # batch, one kernel call of all four branches at these 500 trials
        from rmpsc.autgroup import sample_distinct_class_automorphisms

        code = CodeSpec.from_i_min({12}, 5)   # (32,16)
        cfg = SimConfig(
            code=code,
            decoder="ae",
            perms=tuple(sample_distinct_class_automorphisms(code, 4, seed=0)),
            ebn0_grid_db=(1.0, 2.0),
            max_trials=500,
            target_errors=40,
            seed=5,
        )
        expect = run_fer(cfg, workers=1, batch_size=600)
        sized = {} if batch_size is None else {"batch_size": batch_size}
        assert run_fer(cfg, workers=workers, **sized) == expect

    def test_early_stop_exact_cut(self):
        # the point stops on the trial that makes the 10th error, whatever
        # the batch size and worker count
        code = CodeSpec.from_i_min({11}, 5)
        cfg = SimConfig(
            code=code, ebn0_grid_db=(0.0,), max_trials=5000, target_errors=10, seed=5
        )
        x, llr = noisy_frames(code, 0.0, cfg.seed, (0,), 0, cfg.max_trials)
        wrong = np.flatnonzero((sc_decode_frames(llr, code) != x).any(axis=1))
        stop = int(wrong[9]) + 1
        # {} is the default batch, 2048 frames at N = 32
        for sized in ({"batch_size": 1}, {"batch_size": 7}, {"batch_size": 256}, {}):
            for workers in (1, 2):
                (point,) = run_fer(cfg, workers=workers, **sized)
                assert (point.trials, point.frame_errors) == (stop, 10), (sized, workers)

    @pytest.mark.parametrize(
        "i_min, n, max_trials, counts",
        [
            ({19}, 6, 2500, [1024, 1024, 452]),   # (64,37): 2^16 // 64 frames
            ({30}, 8, 600, [256, 256, 88]),       # (256,128): the 256 floor
        ],
    )
    def test_default_batch_fills_one_kernel_call(self, monkeypatch, i_min, n, max_trials, counts):
        seen = []
        simulate = channel._simulate_range

        def record(cfg, grid_idx, start, count):
            seen.append(count)
            return simulate(cfg, grid_idx, start, count)

        monkeypatch.setattr(channel, "_simulate_range", record)
        cfg = SimConfig(
            code=CodeSpec.from_i_min(i_min, n),
            ebn0_grid_db=(2.0,),
            max_trials=max_trials,
            target_errors=max_trials,
        )
        (point,) = run_fer(cfg, workers=1)
        assert seen == counts
        assert point.trials == max_trials

    def test_kernel_calls_fit_the_call_budget(self, monkeypatch):
        # SC: the kernel sees the default FER batches above, N * rows within
        # one budget past the 256-frame floor; AE: a call of stacked
        # branches holds 2 * N * rows LLRs within three budgets
        import rmpsc.scdec as scdec
        from rmpsc.autgroup import Permutation

        calls = []
        decode = scdec.sc_decode_batch

        def record(llrs, frozen, minsum=False):
            calls.append(llrs.shape)
            return decode(llrs, frozen, minsum)

        monkeypatch.setattr(scdec, "sc_decode_batch", record)
        for i_min, n, max_trials, rows in (
            ({19}, 6, 2500, [1024, 1024, 452]),
            ({30}, 8, 600, [256, 256, 88]),
        ):
            calls.clear()
            cfg = SimConfig(
                code=CodeSpec.from_i_min(i_min, n), ebn0_grid_db=(2.0,),
                max_trials=max_trials, target_errors=max_trials,
            )
            run_fer(cfg, workers=1)
            assert [r for r, _ in calls] == rows
        rng = np.random.default_rng(17)
        for i_min, n, batch in (({11}, 5, 1000), ({19}, 6, 300), ({27}, 7, 256), ({27}, 7, 97)):
            N = 1 << n
            perms = tuple(Permutation(rng.permutation(N)) for _ in range(8))
            calls.clear()
            cfg = SimConfig(
                code=CodeSpec.from_i_min(i_min, n), decoder="ae", perms=perms,
                ebn0_grid_db=(2.0,), max_trials=2 * batch, target_errors=2 * batch,
            )
            run_fer(cfg, workers=1, batch_size=batch)
            assert sum(r for r, _ in calls) == 2 * 8 * batch
            stacked = [r for r, _ in calls if r > batch]
            assert stacked
            assert all(2 * N * r <= 3 * scdec._SC_CALL_LLRS for r in stacked)

    def test_fer_monotone_in_snr(self):
        code = CodeSpec.from_i_min({11}, 5)
        cfg = SimConfig(
            code=code,
            ebn0_grid_db=(0.0, 2.0, 4.0),
            max_trials=2000,
            target_errors=2000,
            seed=6,
        )
        pts = run_fer(cfg)
        for a, b in zip(pts, pts[1:]):
            slack = 3 * (a.ci_halfwidth + b.ci_halfwidth)
            assert b.fer <= a.fer + slack

    def test_ae_decoder_runs(self):
        from rmpsc.autgroup import sample_distinct_class_automorphisms

        code = CodeSpec.from_i_min({11}, 5)
        perms = sample_distinct_class_automorphisms(code, 2, seed=0)
        cfg = SimConfig(
            code=code,
            decoder="ae",
            perms=tuple(perms),
            ebn0_grid_db=(2.0,),
            max_trials=500,
            target_errors=500,
            seed=7,
        )
        sc_cfg = SimConfig(
            code=code, ebn0_grid_db=(2.0,), max_trials=500, target_errors=500, seed=7
        )
        (ae_pt,) = run_fer(cfg)
        (sc_pt,) = run_fer(sc_cfg)
        assert ae_pt.fer <= sc_pt.fer + 3 * (ae_pt.ci_halfwidth + sc_pt.ci_halfwidth)

    def test_nested_ensembles_monotone(self):
        # growing the ensemble (nested permutation sets, shared seeds) cannot
        # hurt the frame error rate beyond statistical slack
        from rmpsc.autgroup import sample_distinct_class_automorphisms

        code = CodeSpec.from_i_min({19}, 6)
        perms = sample_distinct_class_automorphisms(code, 4, seed=2)
        results = []
        for m in (1, 2, 4):
            cfg = SimConfig(
                code=code,
                decoder="ae",
                perms=tuple(perms[:m]),
                ebn0_grid_db=(2.5,),
                max_trials=1500,
                target_errors=1500,
                seed=12,
            )
            results.append(run_fer(cfg)[0])
        for small, big in zip(results, results[1:]):
            slack = 3 * (small.ci_halfwidth + big.ci_halfwidth)
            assert big.fer <= small.fer + slack

    def test_high_snr_stays_above_ml_bound(self):
        # TUB with the exact multiplicity is an ML estimate, hence a floor
        # for the SC decoder up to statistics
        code = CodeSpec.from_i_min({3, 5, 6}, 3)   # (8,4), d=4, A_4=14
        cfg = SimConfig(
            code=code,
            ebn0_grid_db=(4.0, 5.0),
            max_trials=30_000,
            target_errors=30_000,
            seed=8,
        )
        for p in run_fer(cfg):
            bound = tub_ml_bound(4, 14, code.rate, p.ebn0_db)
            assert p.fer >= bound - 3 * p.ci_halfwidth


class TestCsv:
    def test_header_and_rows(self):
        pts = [FerPoint.from_counts(1.0, 100, 10), FerPoint.from_counts(2.0, 200, 5)]
        buf = io.StringIO()
        write_fer_csv(pts, buf, tub=lambda e: 0.5)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "ebn0_db,trials,errors,fer,ci95,tub"
        assert lines[1].startswith("1,100,10,0.1,")
        assert len(lines) == 3

    def test_tub_column(self):
        pts = [FerPoint.from_counts(1.0, 100, 10), FerPoint.from_counts(2.0, 200, 5)]
        buf = io.StringIO()
        write_fer_csv(pts, buf, tub=lambda e: 10.0 ** -e)
        lines = buf.getvalue().splitlines()
        assert lines[1].endswith(",0.1")
        assert lines[2].endswith(",0.01")
