"""Receiver chain tests: CFO estimation, averaging, demultiplexing, SNR.

The demultiplexer's oracle is the closed-form transfer function evaluated on
the same path geometry; the two must agree up to the intra-snapshot Doppler
drift the averager cannot remove.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ddsounder.channel import apply_channel, default_scenario, transfer_function
from ddsounder.params import ConfigError, SounderConfig, narrowband_config, validate_config
from ddsounder import rxproc
from ddsounder.rxproc import (
    NoSignalError,
    TransferFunctionGrid,
    _tone_bins,
    coherent_average,
    demultiplex_record,
    estimate_cfo,
    snr_per_tx,
)
from ddsounder.waveform import SampledSignal, multitone_waveform, tone_plan


@pytest.fixture(scope="module")
def signals(narrowband):
    return [
        multitone_waveform(narrowband, tone_plan(narrowband, i))
        for i in range(narrowband.tx_count)
    ]


def _parked(duration, cfo=0.0, noise_psd=0.0):
    scn = default_scenario(duration=duration, cfo=cfo, noise_psd=noise_psd)
    return dataclasses.replace(scn, tx_velocity=np.zeros(3))


@pytest.fixture(scope="module")
def desk_standstill(narrowband, signals):
    """A noisy 0.1 s standstill of the desk design, 125,000 samples."""
    return apply_channel(signals, _parked(0.1, cfo=120.0, noise_psd=1e-15), narrowband, seed=3)


class TestEstimateCfo:
    def test_recovers_injected_cfo(self, narrowband, signals):
        scn = _parked(0.02, cfo=73.5, noise_psd=1e-15)
        rx = apply_channel(signals, scn, narrowband, seed=21)
        assert estimate_cfo(rx, narrowband)[0] == pytest.approx(73.5, abs=0.05)

    def test_negative_cfo(self, narrowband, signals):
        scn = _parked(0.02, cfo=-412.0, noise_psd=1e-15)
        rx = apply_channel(signals, scn, narrowband, seed=22)
        assert estimate_cfo(rx, narrowband)[0] == pytest.approx(-412.0, abs=0.05)

    @pytest.mark.parametrize("periods", [20, 119])
    def test_noise_only_capture_rejected(self, narrowband, periods):
        # noise alone leaves a periodic share of the energy of about 0.01 at 20
        # periods and 0.003 at 119, under the detection threshold
        rng = np.random.default_rng(23)
        n = periods * 105
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        with pytest.raises(NoSignalError):
            estimate_cfo(SampledSignal(noise, narrowband.sample_rate), narrowband)

    def test_non_finite_capture_rejected(self, narrowband, desk_standstill):
        """A NaN sample makes the periodic share NaN, which is no detection."""
        samples = desk_standstill.samples.copy()
        samples[5] = np.nan
        with pytest.raises(NoSignalError, match="nan"):
            estimate_cfo(SampledSignal(samples, desk_standstill.sample_rate), narrowband)

    def test_short_record_rejected(self, narrowband):
        short = SampledSignal(np.ones(105, complex), narrowband.sample_rate)
        with pytest.raises(ValueError, match="two sequence periods"):
            estimate_cfo(short, narrowband)

    def test_one_period_capture_is_config_error(self, narrowband):
        """A capture that cannot fit the estimator is a configuration fault,
        and the message names the periods it holds."""
        one = SampledSignal(
            np.ones(narrowband.samples_per_period + 50, complex), narrowband.sample_rate
        )
        with pytest.raises(ConfigError, match="two sequence periods, spans 1$"):
            estimate_cfo(one, narrowband)

    def test_rate_mismatch_rejected(self, narrowband):
        rx = SampledSignal(np.ones(420, complex), 2e6)
        with pytest.raises(ValueError, match="sample_rate"):
            estimate_cfo(rx, narrowband)

    def test_rate_check_names_the_capture(self, narrowband):
        """The one rate check: the caller names the file it read."""
        with pytest.raises(ConfigError) as info:
            rxproc._check_rate(2e6, narrowband, "standstill.dds1")
        assert str(info.value) == (
            "standstill.dds1: sample_rate 2000000.0 S/s differs from the "
            "configured sample_rate 1250000.0 S/s"
        )

    @pytest.mark.parametrize("periods", [2, 4, 20, 238])
    def test_exact_on_noise_free_parked_street(self, narrowband, signals, periods):
        """A parked capture of the default street, walls, ground and truck
        included, is periodic up to the CFO rotation: from two periods on the
        estimate is the injected CFO to round-off."""
        duration = periods * narrowband.sequence_period
        rx = apply_channel(signals, _parked(duration, cfo=120.0), narrowband, seed=1)
        assert rx.samples.size == periods * narrowband.samples_per_period
        assert abs(estimate_cfo(rx, narrowband)[0] - 120.0) <= 1e-9

    @pytest.mark.parametrize(
        "cfo,seed,duration",
        # 25,000, 62,500 and 38,875 samples: 10, 25 and 25 past whole periods
        [(120.0, 7, 0.02), (-412.0, 11, 0.05), (1003.7, 13, 0.0311)],
    )
    def test_band_search_matches_full_padded_fft(
        self, narrowband, signals, cfo, seed, duration
    ):
        """The estimate lies within half a bin of the argmax of a dense
        evaluation of F(f) = sum_l |sum_p x[p, l] exp(-j 2 pi f p T)|^2 over
        the band |f| <= 1 / 2T, the 16P-point zero-padded FFT along the
        periods, and F there is at least every value of it; the estimate is
        within 0.05 Hz of the injected CFO, and the samples past the last
        whole period are not read."""
        rx = apply_channel(
            signals, _parked(duration, cfo=cfo, noise_psd=1e-15), narrowband, seed=seed
        )
        length = narrowband.samples_per_period
        count = rx.samples.size // length
        folded = rx.samples[: count * length].reshape(count, length)
        period = length / rx.sample_rate
        padded = 16 * count
        dense = np.sum(np.abs(np.fft.fft(folded, padded, axis=0)) ** 2, axis=1)
        freqs = np.fft.fftfreq(padded, d=period)

        estimate, _ = estimate_cfo(rx, narrowband)
        rotation = np.exp(-2j * np.pi * estimate * period * np.arange(count))
        peak = np.sum(np.abs(rotation @ folded) ** 2)
        assert abs(estimate - freqs[np.argmax(dense)]) <= 0.5 / (padded * period)
        assert peak >= dense.max() * (1 - 1e-12)

        whole = folded.size
        assert estimate == estimate_cfo(
            SampledSignal(rx.samples[:whole], rx.sample_rate), narrowband
        )[0]
        assert estimate == pytest.approx(cfo, abs=0.05)

    @pytest.mark.parametrize("size", [840, 3150, 4096])
    @pytest.mark.parametrize("k", [0, 3, -5])
    def test_band_search_at_half_bin_ties(self, size, k):
        """A tone halfway between two bins of the n-point grid of F, n the
        least 5-smooth length of at least 2P - 1 for P periods: the two bins
        tie within round-off, and the Newton steps from either end at the
        tone."""
        fs = 1e6
        length = 105 if size % 105 == 0 else 128
        # 21 tones and grid ratio 4: L = fs * 84 / bandwidth samples per period
        cfg = SounderConfig(bandwidth=fs * 84 / length, sample_rate=fs)
        assert cfg.samples_per_period == length
        count = size // length
        n = rxproc._smooth_length(2 * count - 1)
        assert n == {8: 15, 30: 60, 32: 64}[count]
        tone = (k + 0.5) * fs / (n * length)
        x = np.exp(2j * np.pi * tone * np.arange(size) / fs)
        start = np.sum(np.abs(np.fft.fft(x.reshape(count, length), n, axis=0)) ** 2, axis=1)
        assert start[k] == pytest.approx(start[k + 1], rel=1e-12)
        assert start[k] == pytest.approx(start.max(), rel=1e-12)
        assert estimate_cfo(SampledSignal(x, fs), cfg)[0] == pytest.approx(
            tone, abs=1e-12 * fs / size
        )

    def test_is_periodogram_maximum(self, narrowband, signals):
        """On a 20-period capture the estimate is, to 1e-11 Hz, the maximum of
        F(f) = sum_l |D_l(f)|^2 with D_l(f) = sum_p x[p, l] exp(-j 2 pi f p
        T): a 40-digit root of F' with F falling on either side."""
        mpmath = pytest.importorskip("mpmath")
        rx = apply_channel(
            signals, _parked(0.00168, cfo=250.0, noise_psd=1e-13), narrowband, seed=9
        )
        length = narrowband.samples_per_period
        count = rx.samples.size // length
        assert count == 20 and rx.samples.size == 20 * length
        estimate, _ = estimate_cfo(rx, narrowband)

        with mpmath.workdps(40):
            columns = [
                [mpmath.mpc(complex(rx.samples[p * length + l])) for p in range(count)]
                for l in range(length)
            ]
            period = mpmath.mpf(length) / mpmath.mpf(rx.sample_rate)

            def sums(f):
                """F(f) and F'(f) / (4 pi)."""
                step = mpmath.expj(-2 * mpmath.pi * f * period)
                rotations = [step**p for p in range(count)]
                power, slope = mpmath.mpf(0), mpmath.mpf(0)
                for column in columns:
                    d0 = mpmath.fsum(x * r for x, r in zip(column, rotations))
                    d1 = mpmath.fsum(p * period * x * r for p, (x, r) in
                                     enumerate(zip(column, rotations)))
                    power += abs(d0) ** 2
                    slope += mpmath.im(mpmath.conj(d0) * d1)
                return power, slope

            root = mpmath.findroot(
                lambda f: sums(f)[1], (estimate - 1e-3, estimate + 1e-3), solver="anderson"
            )
            power = [sums(root + h)[0] for h in (-1.0, 0.0, 1.0)]
            assert power[1] > max(power[0], power[2])
            assert abs(float(root) - estimate) <= 1e-11

    def test_round_off_in_capture_does_not_move_estimate(self, narrowband, desk_standstill):
        """Perturbing a 0.1 s desk standstill by 4e-15 of its peak moves the
        estimate by at most 1e-12 Hz: it is the periodogram maximum to
        round-off, not a search stopped at a tolerance."""
        estimate, _ = estimate_cfo(desk_standstill, narrowband)
        samples = desk_standstill.samples
        scale = 4e-15 * np.max(np.abs(samples))
        rng = np.random.default_rng(5)
        for _ in range(3):
            noise = rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
            moved = SampledSignal(samples + scale * noise, desk_standstill.sample_rate)
            assert abs(estimate_cfo(moved, narrowband)[0] - estimate) <= 1e-12

    def test_temporaries_small_beside_capture(self, narrowband, desk_standstill):
        """No temporary is the size of the capture: the traced peak on a 0.1 s
        desk standstill stays under half of its samples' bytes."""
        tracemalloc.start()
        try:
            estimate_cfo(desk_standstill, narrowband)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * desk_standstill.samples.nbytes


def _snapshot_offset(block, bins, period):
    """Two-pass lag-one offset of one snapshot (the per-snapshot original)."""
    spectra = np.fft.fft(block, axis=1)[:, bins]
    estimate = 0.0
    for _ in range(2):
        rotation = np.exp(-2j * np.pi * estimate * period * np.arange(block.shape[0]))
        v = spectra * rotation[:, None]
        lag = np.sum(v[1:] * np.conj(v[:-1]))
        if lag == 0:
            break
        estimate += math.atan2(lag.imag, lag.real) / (2.0 * math.pi * period)
    return estimate


def _reference_coherent_average(rx, cfg, cfo):
    """Snapshot-by-snapshot oracle: derotate at absolute time by the offset
    of the tones of every comb, average, restore the Doppler share at the
    snapshot epoch."""
    length = cfg.samples_per_period
    per_snapshot = cfg.samples_per_snapshot
    bins = np.concatenate(
        [_tone_bins(cfg, tone_plan(cfg, tx).tone_frequencies) for tx in range(cfg.tx_count)]
    )
    fs = rx.sample_rate
    n_avg = cfg.averaging_count
    q_count = rx.samples.size // per_snapshot
    out = np.empty((q_count, length), dtype=np.complex128)
    sample_phase = np.arange(per_snapshot)
    for q in range(q_count):
        start = q * per_snapshot
        block = rx.samples[start : start + per_snapshot].reshape(n_avg, length)
        offset = _snapshot_offset(block, bins, cfg.sequence_period) if n_avg > 1 else cfo
        t_abs = rx.t0 + (start + sample_phase) / fs
        derotated = (block.reshape(-1) * np.exp(-2j * np.pi * offset * t_abs)).reshape(
            n_avg, length
        )
        t_snapshot = rx.t0 + start / fs
        out[q] = derotated.mean(axis=0) * np.exp(2j * np.pi * (offset - cfo) * t_snapshot)
    return out


def _chirped_record(cfg, chunks, t0, seed=3):
    """Both TX combs under a LOS offset sweeping -1.4 kHz to +1.4 kHz, plus noise.

    ``chunks`` is the length in coherent_average chunks (not whole); half a
    snapshot is appended so the record also ends in a partial snapshot.
    """
    chunk = (rxproc._CHUNK_SAMPLES // cfg.samples_per_snapshot) * cfg.samples_per_snapshot
    size = int(chunks * chunk) // cfg.samples_per_snapshot * cfg.samples_per_snapshot
    size += cfg.samples_per_snapshot // 2
    period = sum(
        multitone_waveform(cfg, tone_plan(cfg, i)).samples for i in range(cfg.tx_count)
    )
    t = np.arange(size) / cfg.sample_rate
    sweep = size / cfg.sample_rate
    phase = -1400.0 * t + 1400.0 * t**2 / sweep
    rng = np.random.default_rng(seed)
    noise = 0.05 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    samples = np.resize(period, size) * np.exp(2j * np.pi * phase) + noise
    return SampledSignal(samples, cfg.sample_rate, t0=t0)


class TestCoherentAverage:
    @pytest.mark.parametrize("t0", [0.0, 1.7])
    @pytest.mark.parametrize("n_avg", [1, 2, 4])
    def test_matches_per_snapshot_reference(self, n_avg, t0):
        """Chunked result equals the snapshot loop over 2.6 chunks, the last
        chunk partial and a partial snapshot trailing."""
        cfg = narrowband_config(averaging_count=n_avg)
        rx = _chirped_record(cfg, 2.6, t0)
        cfo = 37.25
        expected = _reference_coherent_average(rx, cfg, cfo)
        got = coherent_average(rx, cfg, cfo)
        assert got.shape == expected.shape
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-10 * peak

    def test_all_zero_record(self, narrowband):
        rx = SampledSignal(np.zeros(10 * narrowband.samples_per_snapshot, complex),
                           narrowband.sample_rate, t0=0.3)
        avg = coherent_average(rx, narrowband, 55.0)
        assert avg.shape == (10, narrowband.samples_per_period)
        assert not np.any(avg)  # zero, and no NaN from a zero lag

    def test_temporaries_do_not_grow_with_record(self, narrowband):
        """Memory above the returned array is set by the chunk, not the record."""
        chunk = rxproc._CHUNK_SAMPLES // narrowband.samples_per_snapshot

        def extra_peak(chunks):
            size = chunks * chunk * narrowband.samples_per_snapshot
            rx = SampledSignal(np.full(size, 1 + 1j), narrowband.sample_rate)
            tracemalloc.start()
            try:
                out = coherent_average(rx, narrowband, 10.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        assert extra_peak(8) <= 1.25 * extra_peak(2)

    def test_sample_rate_mismatch_is_config_error(self, narrowband):
        rx = SampledSignal(np.ones(4 * narrowband.samples_per_snapshot, complex),
                           2 * narrowband.sample_rate)
        with pytest.raises(ConfigError, match="sample_rate") as info:
            coherent_average(rx, narrowband, 0.0)
        assert repr(rx.sample_rate) in str(info.value)
        assert repr(narrowband.sample_rate) in str(info.value)

    def test_shape(self, narrowband, signals):
        scn = default_scenario(duration=0.01)
        rx = apply_channel(signals, scn, narrowband, seed=1)
        avg = coherent_average(rx, narrowband, 120.0)
        q = rx.samples.size // narrowband.samples_per_snapshot
        assert avg.shape == (q, narrowband.samples_per_period)

    def test_static_snapshots_identical(self, narrowband, signals):
        rx = apply_channel(signals, _parked(0.005), narrowband, seed=1)
        avg = coherent_average(rx, narrowband, 0.0)
        spread = np.max(np.abs(avg - avg[0]))
        assert spread < 1e-9 * np.max(np.abs(avg))

    def test_record_shorter_than_snapshot_rejected(self, narrowband):
        rx = SampledSignal(np.ones(105, complex), narrowband.sample_rate)
        with pytest.raises(ValueError, match="snapshot"):
            coherent_average(rx, narrowband, 0.0)


def _demultiplex(averaged, cfg, plan, t0=0.0):
    """Whole-record oracle of demultiplex_record's tone grids: the period DFT
    of each averaged snapshot at tone scale, each tone over its weight."""
    spectra = np.fft.fft(averaged, axis=1) / cfg.samples_per_period
    values = spectra[:, _tone_bins(cfg, plan.tone_frequencies)] / plan.tone_weights[None, :]
    return TransferFunctionGrid(
        tx_index=plan.tx_index,
        values=values,
        snapshot_times=t0 + np.arange(averaged.shape[0]) * cfg.snapshot_time,
        tone_frequencies=plan.tone_frequencies.copy(),
    )


def _noise_power(averaged, cfg):
    """Whole-record oracle of demultiplex_record's noise power: the mean
    power of the free slot's bins of every averaged period."""
    spectra = np.fft.fft(averaged, axis=1) / cfg.samples_per_period
    return float(np.mean(np.abs(spectra[:, rxproc._free_slot_bins(cfg)]) ** 2))


class _InMemoryRecord:
    """An in-memory record that counts the sizes of the chunks it hands out."""

    def __init__(self, signal):
        self.signal, self.sizes = signal, []
        self.sample_rate, self.t0, self.length = signal.sample_rate, signal.t0, signal.length

    def chunks(self, size):
        for chunk in self.signal.chunks(size):
            self.sizes.append(chunk.size)
            yield chunk


def _demultiplexed(record, cfg, cfo):
    """The rows demultiplex_record hands each TX's writer, collected into
    that TX's grid, with the SNR and the noise power it returns."""
    rows = [[] for _ in range(cfg.tx_count)]
    snr, power = demultiplex_record(record, cfg, cfo, [tx_rows.append for tx_rows in rows])
    times = record.t0 + np.arange(snr.shape[1]) * cfg.snapshot_time
    grids = [
        TransferFunctionGrid(tx, np.concatenate(tx_rows), times, tone_plan(cfg, tx).tone_frequencies)
        for tx, tx_rows in enumerate(rows)
    ]
    return grids, snr, power


class TestDemultiplexRecord:
    @pytest.mark.parametrize("t0", [0.0, 1.7])
    @pytest.mark.parametrize("n_avg", [1, 2, 4])
    def test_equals_whole_record_functions(self, n_avg, t0):
        """2.6 chunks with a partial snapshot trailing: every grid, the SNR
        and the noise power are bit for bit those of the whole-record
        functions, and the record is handed out in whole-snapshot chunks of
        coherent_average."""
        cfg = narrowband_config(averaging_count=n_avg)
        plans = [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]
        rx = _chirped_record(cfg, 2.6, t0)
        record = _InMemoryRecord(rx)
        grids, snr, power = _demultiplexed(record, cfg, 37.25)
        chunk = (rxproc._CHUNK_SAMPLES // cfg.samples_per_snapshot) * cfg.samples_per_snapshot
        assert record.sizes[:-1] == [chunk] * (len(record.sizes) - 1)
        assert len(record.sizes) == 3
        averaged = coherent_average(rx, cfg, 37.25)
        assert power == _noise_power(averaged, cfg)
        assert len(grids) == len(plans) == snr.shape[0]
        for plan, grid, tx_snr in zip(plans, grids, snr):
            expected = _demultiplex(averaged, cfg, plan, t0=t0)
            assert grid.tx_index == plan.tx_index
            np.testing.assert_array_equal(grid.values, expected.values)
            np.testing.assert_array_equal(grid.snapshot_times, expected.snapshot_times)
            np.testing.assert_array_equal(grid.tone_frequencies, expected.tone_frequencies)
            np.testing.assert_array_equal(tx_snr, snr_per_tx(expected, power))

    def test_record_shorter_than_snapshot_rejected(self, narrowband, nb_plans):
        short = SampledSignal(np.ones(narrowband.samples_per_snapshot - 1, complex),
                              narrowband.sample_rate)
        with pytest.raises(ValueError, match="shorter than one snapshot"):
            _demultiplexed(short, narrowband, 0.0)


class TestDemultiplex:
    def test_static_channel_matches_transfer_function(self, narrowband, signals, nb_plans):
        scn = _parked(0.005)
        rx = apply_channel(signals, scn, narrowband, seed=1)
        grids, _, _ = _demultiplexed(rx, narrowband, 0.0)
        for plan, grid in zip(nb_plans, grids):
            want = transfer_function(scn, narrowband, plan, grid.snapshot_times)
            err = np.max(np.abs(grid.values - want)) / np.max(np.abs(want))
            assert err < 1e-6

    def test_driveby_matches_transfer_function(self, narrowband, signals, nb_plans):
        """Moving TX: agreement is limited by intra-snapshot Doppler drift."""
        scn = default_scenario(duration=0.01, cfo=0.0, noise_psd=0.0)
        rx = apply_channel(signals, scn, narrowband, seed=1)
        grids, _, _ = _demultiplexed(rx, narrowband, 0.0)
        for plan, grid in zip(nb_plans, grids):
            want = transfer_function(scn, narrowband, plan, grid.snapshot_times)
            err = np.linalg.norm(grid.values - want) / np.linalg.norm(want)
            assert err < 2e-2

    def test_flat_channel_recovers_unit_gain(self, narrowband, nb_plans, signals):
        """Feeding the TX period straight through must give H = 1."""
        periods = 3 * narrowband.averaging_count
        rx = SampledSignal(np.tile(signals[0].samples, periods), narrowband.sample_rate)
        grids, _, _ = _demultiplexed(rx, narrowband, 0.0)
        grid = grids[0]
        assert grid.values.shape == (3, narrowband.tone_count)
        np.testing.assert_allclose(grid.values, 1.0, atol=1e-12)

    def test_off_grid_plan_rejected(self, narrowband):
        """20 tones at a grid ratio of 3 sit at half-integer multiples of the
        tone spacing, between the bins of the 75-sample period: the design
        fails plan's period-grid check, and demultiplex_record refuses it."""
        bad = dataclasses.replace(narrowband, tone_count=20, grid_ratio=3)
        check = {c.name: c for c in validate_config(bad).checks}
        assert not check["tones_on_period_grid"].passed
        rx = SampledSignal(np.ones(bad.samples_per_snapshot, complex), bad.sample_rate)
        with pytest.raises(ConfigError, match="off the period DFT grid"):
            _demultiplexed(rx, bad, 0.0)


class TestCrosstalk:
    """With one TX silent, its demultiplexed slots hold only leakage."""

    def _leakage_db(self, narrowband, nb_plans, scenario, seed):
        wave0 = multitone_waveform(narrowband, nb_plans[0])
        silent = SampledSignal(np.zeros(105, complex), narrowband.sample_rate)
        rx = apply_channel([wave0, silent], scenario, narrowband, seed=seed)
        (own, leak), _, _ = _demultiplexed(rx, narrowband, 0.0)
        return 10 * np.log10(
            np.mean(np.abs(leak.values) ** 2) / np.mean(np.abs(own.values) ** 2)
        )

    def test_parked(self, narrowband, nb_plans):
        level = self._leakage_db(narrowband, nb_plans, _parked(0.05), seed=1)
        assert level < -200.0

    def test_driveby(self, narrowband, nb_plans):
        scn = default_scenario(duration=0.25, cfo=0.0, noise_psd=0.0)
        level = self._leakage_db(narrowband, nb_plans, scn, seed=1)
        assert level < -60.0


class TestNoisePath:
    def test_noise_power_estimate_calibrated(self, narrowband, nb_plans):
        """Free-slot estimate must equal sigma^2 / (N L) at tone scale."""
        rng = np.random.default_rng(31)
        sigma2 = 2.5
        n = 600 * narrowband.samples_per_snapshot
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        rx = SampledSignal(noise, narrowband.sample_rate)
        _, _, est = _demultiplexed(rx, narrowband, 0.0)
        expected = sigma2 / (narrowband.averaging_count * narrowband.samples_per_period)
        assert est == pytest.approx(expected, rel=0.1)

    def test_snr_formula(self, narrowband, nb_plans):
        values = np.full((4, narrowband.tone_count), 2.0 + 0j)
        grid = TransferFunctionGrid(
            tx_index=0,
            values=values,
            snapshot_times=np.arange(4) * narrowband.snapshot_time,
            tone_frequencies=nb_plans[0].tone_frequencies,
        )
        snr = snr_per_tx(grid, noise_power=0.25)
        np.testing.assert_allclose(snr, 10 * np.log10(4.0 / 0.25))

    def test_snr_requires_positive_noise(self, narrowband, nb_plans):
        grid = TransferFunctionGrid(
            tx_index=0,
            values=np.ones((1, narrowband.tone_count), complex),
            snapshot_times=np.zeros(1),
            tone_frequencies=nb_plans[0].tone_frequencies,
        )
        with pytest.raises(ValueError):
            snr_per_tx(grid, 0.0)


class TestGridValidation:
    @pytest.mark.parametrize(
        "shape,times,tones",
        [((4,), 4, 1), ((2, 3), 4, 3), ((2, 3), 2, 5)],
    )
    def test_shape_consistency(self, shape, times, tones):
        with pytest.raises(ValueError):
            TransferFunctionGrid(
                tx_index=0,
                values=np.ones(shape, complex),
                snapshot_times=np.zeros(times),
                tone_frequencies=np.zeros(tones),
            )
