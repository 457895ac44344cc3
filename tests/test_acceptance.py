"""Acceptance criteria for the sounding-evaluation chain.

Each test prints one `ACCEPTANCE <n> (<label>): PASS|FAIL` line (shown even
under captured output) and then asserts.  Criteria 1-3 are closed-form
regressions, 4-7 are planted-truth recovery statistics, 8 drives the full
pipeline through the CLI on the default drive-by, 9 checks bytewise
determinism.  One more test, without a line of its own, scores analyze's SBL
peak lists against the drive-by's rays.
"""

import dataclasses
import glob
import os
from pathlib import Path

import numpy as np
import pytest

from ddsounder import io as ddio
from ddsounder.channel import (
    apply_channel,
    default_scenario,
    ray_tracks,
    transfer_function,
)
from ddsounder.cli import main
from ddsounder.params import (
    SounderConfig,
    default_config,
    free_space_path_loss,
    processing_gain,
    validate_config,
)
from ddsounder.rxproc import coherent_average
from ddsounder.sbl import SparseModel, sbl_fit
from ddsounder.tfanalysis import dsd, isfft, lsf_estimate, sfft, top_peaks_2d
from ddsounder.waveform import multitone_waveform, tone_plan


@pytest.fixture
def announce(capsys):
    def _announce(tag, label, ok, detail=""):
        line = f"ACCEPTANCE {tag} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" - {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)

    return _announce


# -- 1: frozen-parameter regression -------------------------------------------


def test_acceptance_1_parameter_regression(announce):
    cfg = default_config()
    report = validate_config(cfg)
    checks = {
        "validation": report.passed,
        "tone_spacing": abs(cfg.tone_spacing - 4.76e6) < 0.01e6,
        "max_excess_delay": abs(cfg.max_excess_delay - 105e-9) < 1e-15,
        "snapshot_time": abs(cfg.snapshot_time - 178.07e-6) <= 0.011e-6,
        "gain": abs(processing_gain(cfg.averaging_count) - 23.26) <= 0.005,
        "period": abs(cfg.sequence_period - 840e-9) < 1e-15,
        "tones": cfg.tone_count == 21,
        "offset": abs(cfg.tx_tone_offset - 1.19e6) < 0.01e6,
    }
    ok = all(checks.values())
    announce(1, "parameter regression", ok,
             ", ".join(k for k, v in checks.items() if not v) or "all derived values match")
    assert ok, checks


# -- 2: free-space path loss ---------------------------------------------------


def test_acceptance_2_path_loss(announce):
    loss = free_space_path_loss(44.0, 60.15e9)
    ok = abs(loss - 100.0) < 1.0
    announce(2, "44 m path loss", ok, f"{loss:.2f} dB vs 100 dB")
    assert ok


# -- 3: transform correctness --------------------------------------------------


def test_acceptance_3_transform_identities(announce):
    rng = np.random.default_rng(3)
    worst_rt, worst_kron = 0.0, 0.0
    for k, m in ((3, 4), (21, 32)):
        h = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        grid = sfft(h)
        worst_rt = max(worst_rt, float(np.max(np.abs(isfft(grid) - h))))
        f_k = np.fft.fft(np.eye(k)) / np.sqrt(k)
        f_m = np.fft.fft(np.eye(m)) / np.sqrt(m)
        vec = np.kron(f_m, f_k.conj().T) @ h.flatten(order="F")
        unshifted = np.fft.ifftshift(grid.values, axes=1).flatten(order="F")
        worst_kron = max(worst_kron, float(np.max(np.abs(unshifted - vec))))
    ok = worst_rt < 1e-10 and worst_kron < 1e-12
    announce(3, "transform identities", ok,
             f"round trip {worst_rt:.2e}, Kronecker {worst_kron:.2e}")
    assert ok


# -- 4: coherent processing gain -----------------------------------------------


def test_acceptance_4_processing_gain(announce):
    rng = np.random.default_rng(4)
    results = {}
    for n_avg in (4, 16, 64, 212):
        cfg = SounderConfig(bandwidth=1e6, sample_rate=1.25e6, averaging_count=n_avg)
        length = cfg.samples_per_period
        signals = [multitone_waveform(cfg, tone_plan(cfg, i)) for i in range(2)]
        scn = dataclasses.replace(
            default_scenario(duration=40 * n_avg * 84e-6, cfo=0.0, noise_psd=0.0),
            tx_velocity=np.zeros(3),
        )
        clean = apply_channel(signals, scn, cfg, seed=0)
        sigma2 = np.mean(np.abs(clean.samples) ** 2) / 10.0  # 10 dB per sample
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(clean.samples.size)
            + 1j * rng.standard_normal(clean.samples.size)
        )
        noisy = dataclasses.replace(clean, samples=clean.samples + noise)
        averaged = coherent_average(noisy, cfg, 0.0)
        # residual noise lives in the off-comb DFT bins of the averaged
        # periods; comb bins carry signal and would bias the estimate
        spectrum = np.fft.fft(averaged, axis=1) / length
        comb = {
            int(round(f * cfg.sequence_period)) % length
            for tx in range(cfg.tx_count)
            for f in tone_plan(cfg, tx).tone_frequencies
        }
        free = [b for b in range(length) if b not in comb]
        residual = np.mean(np.abs(spectrum[:, free]) ** 2)
        results[n_avg] = 10 * np.log10((sigma2 / length) / residual)
    ok = all(abs(g - 10 * np.log10(n)) <= 1.0 for n, g in results.items())
    announce(4, "averaging gain", ok,
             ", ".join(f"N={n}: {g:.2f} dB" for n, g in results.items()))
    assert ok, results


# -- 5: LSF planted-tap recovery -------------------------------------------------


def test_acceptance_5_lsf_recovery(announce):
    k_count, m_count, trials = 21, 360, 50
    rng = np.random.default_rng(11)
    hit_clean = hit_noisy = hit_dsd = 0
    for _ in range(trials):
        n0 = rng.integers(0, k_count)
        m0 = rng.integers(0, m_count)
        k = np.arange(k_count)[:, None]
        l = np.arange(m_count)[None, :]
        h = np.exp(-2j * np.pi * k * n0 / k_count) * np.exp(
            2j * np.pi * l * m0 / m_count
        )
        target = (int(n0), (int(m0) + m_count // 2) % m_count)

        grid = lsf_estimate(h)
        hit_clean += np.unravel_index(np.argmax(grid.values), grid.values.shape) == target

        noise = np.sqrt(0.1 / 2) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
        noisy_grid = lsf_estimate(h + noise)
        hit_noisy += (
            np.unravel_index(np.argmax(noisy_grid.values), noisy_grid.values.shape)
            == target
        )
        hit_dsd += int(np.argmax(dsd(noisy_grid))) == target[1]
    ok = hit_clean == trials and hit_noisy >= 0.95 * trials and hit_dsd >= 0.95 * trials
    announce(5, "LSF tap recovery", ok,
             f"clean {hit_clean}/{trials}, 10 dB {hit_noisy}/{trials}, "
             f"Doppler marginal {hit_dsd}/{trials}")
    assert ok


# -- 6: SBL delay super-resolution ----------------------------------------------


def test_acceptance_6_sbl_super_resolution(announce):
    k_count, m_count, up = 21, 32, 4
    model = SparseModel(tone_count=k_count, window_length=m_count)
    # 5 ns at the 100 MHz design = half a native delay bin = 2 upsampled bins
    resolved = 0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        vec = model.column(40, 5) + 1j * model.column(42, 5)
        clean = vec.reshape(m_count, k_count).T
        nv = np.mean(np.abs(clean) ** 2) / 10 ** 2.5  # 25 dB
        noise = np.sqrt(nv / 2) * (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        )
        result = sbl_fit(clean + noise)
        bins = {
            int(round(p.delay * up * k_count))
            for p in result.peaks.entries
            if abs(p.doppler - 5 / m_count) < 0.5 / m_count
        }
        near40 = {b for b in bins if abs(b - 40) <= 1}
        near42 = {b for b in bins if abs(b - 42) <= 1}
        resolved += any(a != b for a in near40 for b in near42)

    sigma_ok = 0
    for i in range(20):
        rng = np.random.default_rng(200 + i)
        clean = (2.0 * model.column(12, 3)).reshape(m_count, k_count).T
        nv = np.mean(np.abs(clean) ** 2) / 10 ** 2.0  # 20 dB
        noise = np.sqrt(nv / 2) * (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        )
        result = sbl_fit(clean + noise)
        sigma_ok += abs(10 * np.log10(result.noise_var / nv)) <= 3.0

    ok = resolved >= 18 and sigma_ok == 20
    announce(6, "SBL super-resolution", ok,
             f"two taps resolved {resolved}/20, noise variance within 3 dB {sigma_ok}/20")
    assert ok


# -- 7: LSF-SBL top-peak agreement ------------------------------------------------


def test_acceptance_7_lsf_sbl_agreement(announce):
    cfg = default_config()
    scn = default_scenario()
    plan = tone_plan(cfg, 1)
    m_count = 32
    rng = np.random.default_rng(77)
    native_delay = 1.0 / (cfg.tone_count * cfg.tone_spacing)
    native_doppler = 1.0 / (m_count * cfg.snapshot_time)
    delay_span = cfg.tone_count * native_delay
    agree = 0
    for start in np.linspace(2.2, 2.85, 20):
        times = start + np.arange(m_count) * cfg.snapshot_time
        h = transfer_function(scn, cfg, plan, times).T
        nv = np.mean(np.abs(h) ** 2) / 10 ** 2.0  # 20 dB, above the 15 dB bound
        h = h + np.sqrt(nv / 2) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
        lsf = lsf_estimate(h, cfg.tone_spacing, cfg.snapshot_time)
        top_lsf = top_peaks_2d(lsf, 1).entries[0]
        top_sbl = sbl_fit(h, cfg.tone_spacing, cfg.snapshot_time).peaks.entries[0]
        d_err = abs(top_sbl.delay - top_lsf.delay)
        d_err = min(d_err, delay_span - d_err)  # the delay axis is circular
        if d_err <= native_delay and abs(top_sbl.doppler - top_lsf.doppler) <= native_doppler:
            agree += 1
    ok = agree >= 18
    announce(7, "LSF-SBL agreement", ok, f"{agree}/20 windows within one native bin")
    assert ok


# -- 8: end-to-end drive-by ---------------------------------------------------


@pytest.fixture(scope="session")
def driveby(tmp_path_factory):
    """Full default pipeline, once per session (about one minute)."""
    out = str(tmp_path_factory.mktemp("driveby") / "run")
    rc = main(["run-all", "--seed", "42", "--out-dir", out])
    assert rc == 0
    return out


def _dsd_argmax_trajectory(out_dir, tx):
    trajectory = []
    for path in sorted(glob.glob(os.path.join(out_dir, f"dsd_tx{tx}_w*.csv"))):
        doppler, power = ddio.read_dsd_csv(path)
        trajectory.append(doppler[np.argmax(power)])
    return np.asarray(trajectory)


def test_acceptance_8a_initial_doppler(announce, driveby):
    trajectory = _dsd_argmax_trajectory(driveby, 0)
    ok = trajectory[0] > 2500.0
    announce("8a", "LOS Doppler at trigger", ok, f"{trajectory[0]:.1f} Hz")
    assert ok


def test_acceptance_8b_doppler_trajectory(announce, driveby):
    trajectory = _dsd_argmax_trajectory(driveby, 0)
    doppler_bin = 1.0 / (360 * 168e-6)
    steps = np.diff(trajectory)
    monotone = np.all(steps <= 1.5 * doppler_bin)  # one bin of estimator wobble
    ok = bool(monotone and trajectory[-1] < 0.0 and trajectory[0] - trajectory[-1] > 3000.0)
    announce("8b", "Doppler decreases through zero", ok,
             f"max step +{steps.max():.1f} Hz, final {trajectory[-1]:.1f} Hz")
    assert ok


def _snr_series(out_dir, tx):
    return ddio.read_snr_csv(os.path.join(out_dir, f"snr_tx{tx}.csv"))


def test_acceptance_8c_horizontal_beam_collapses_first(announce, driveby):
    t0, s0 = _snr_series(driveby, 0)
    t1, s1 = _snr_series(driveby, 1)
    med = min(np.median(s0[t0 < 1.0]), np.median(s1[t1 < 1.0]))
    threshold = med - 8.0
    last0 = t0[s0 >= threshold][-1]
    last1 = t1[s1 >= threshold][-1]
    ok = last0 < last1
    announce("8c", "0 deg beam collapses first", ok,
             f"0 deg at {last0:.2f} s, 15 deg at {last1:.2f} s")
    assert ok


def test_acceptance_8d_truck_fading_variance(announce, driveby):
    t0, s0 = _snr_series(driveby, 0)
    t1, s1 = _snr_series(driveby, 1)
    width = int(round(0.3 / (t0[1] - t0[0])))  # slow beam rolloff detrend
    kernel = np.ones(width) / width

    def fast_variance(series, times):
        first = series[times < 1.0]
        trend = np.convolve(first, kernel, mode="same")
        return np.var((first - trend)[width:-width])

    ratio = fast_variance(s0, t0) / fast_variance(s1, t1)
    ok = ratio > 1.5
    announce("8d", "street-level fading hits 0 deg harder", ok,
             f"variance ratio {ratio:.2f}")
    assert ok


def _doppler_score(peaks, tracks, tolerance):
    """(rays detected, rays counted, false alarms) of one window's peaks
    against its ray tracks.  A ray counts when it is visible with nonzero
    gain at every snapshot; it is detected when a peak's Doppler lies within
    ``tolerance`` of its Doppler range over the window, and a peak within
    no counted ray's range is a false alarm.  Delay is not scored: a desk
    delay bin holds every ray."""
    counted = np.all(tracks.visible & (tracks.gain != 0), axis=0)
    low = tracks.doppler[:, counted].min(axis=0) - tolerance
    high = tracks.doppler[:, counted].max(axis=0) + tolerance
    doppler = np.array([p.doppler for p in peaks.entries])[:, None]
    inside = (low <= doppler) & (doppler <= high)
    return int(inside.any(axis=0).sum()), int(counted.sum()), int((~inside.any(axis=1)).sum())


def test_sbl_signal_columns_lose_nothing_against_the_rays(driveby):
    """Analyze fits SBL only on the Doppler columns where the window's LSF
    sees signal.  Scored against the drive's rays, its peak lists detect no
    fewer rays and raise no more false alarms than full fits of the same
    windows."""
    cfg = ddio.load_sounder_config(os.path.join(driveby, "config.ini"))
    scenario = ddio.load_scenario(os.path.join(driveby, "scenario.ini"))
    length = 360
    tolerance = 1.0 / (length * cfg.snapshot_time)  # one native Doppler bin
    pruned = np.zeros(3, dtype=int)
    full = np.zeros(3, dtype=int)
    for tx in range(cfg.tx_count):
        grid, _ = ddio.read_grid(os.path.join(driveby, f"h_tx{tx}.ddg1"))
        for w in range(grid.values.shape[0] // length):
            rows = slice(w * length, (w + 1) * length)
            times = grid.snapshot_times[rows]
            tracks = ray_tracks(scenario, cfg, times, tx)
            written, _ = ddio.read_peaks_json(
                os.path.join(driveby, f"sbl_peaks_tx{tx}_w{w:03d}.json")
            )
            fit = sbl_fit(grid.values[rows].T.copy(), cfg.tone_spacing,
                          cfg.snapshot_time, float(times[0]))
            pruned += _doppler_score(written, tracks, tolerance)
            full += _doppler_score(fit.peaks, tracks, tolerance)
    print(f"\nsignal columns: {pruned[0]}/{pruned[1]} rays, {pruned[2]} false alarms; "
          f"full fit: {full[0]}/{full[1]} rays, {full[2]} false alarms")
    assert pruned[1] == full[1] > 0
    assert pruned[0] >= full[0]
    assert pruned[2] <= full[2]


# -- 9: determinism -------------------------------------------------------------


def test_acceptance_9_determinism(announce, tmp_path):
    cfg = SounderConfig(bandwidth=1e6, sample_rate=1.25e6, averaging_count=2)
    cfg_path = str(tmp_path / "config.ini")
    scn_path = str(tmp_path / "scenario.ini")
    ddio.save_sounder_config(cfg_path, cfg)
    ddio.save_scenario(scn_path, default_scenario(duration=0.4))
    outs = [str(tmp_path / name) for name in ("first", "second")]
    for out in outs:
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1234", "--out-dir", out, "--window-length", "256"])
        assert rc == 0
    names = sorted(os.listdir(outs[0]))
    same = names == sorted(os.listdir(outs[1]))
    diffs = []
    for name in names:
        if name == "manifest.json":
            continue  # carries wall-clock timings by design
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        if a != b:
            diffs.append(name)
    ok = same and not diffs
    announce(9, "bytewise determinism", ok,
             f"{len(names) - 1} files identical" if ok else f"differs: {diffs}")
    assert ok
