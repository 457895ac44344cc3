"""Geometric drive-by channel tests.

Oracles are closed-form: image-source path lengths computed by hand, Doppler
from the radial-speed derivative, gains from the horn model plus free-space
path loss.  The array ray evaluation (``ray_tracks``) is also held against a scalar
per-ray tracer kept here as a reference (``_reference_paths``).
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.constants import c as C0

from ddsounder.channel import (
    BeamPattern,
    PlanarReflector,
    ScenarioConfig,
    apply_channel,
    block_tracks,
    default_scenario,
    horn_gain,
    ray_tracks,
    transfer_function,
    tx_position,
)
from ddsounder import channel
from ddsounder.cli import _parked
from ddsounder.params import ConfigError, free_space_path_loss, narrowband_config
from ddsounder.waveform import SampledSignal, multitone_waveform, tone_plan


@pytest.fixture(scope="module")
def scenario():
    return default_scenario()


class Ray(NamedTuple):
    kind: str
    delay: float
    doppler: float
    gain: float


def _visible_rays(tracks, row):
    """The rays of ``tracks`` at its instant ``row``, in order."""
    delay, doppler, gain = tracks.delay[row], tracks.doppler[row], tracks.gain[row]
    return [
        Ray(tracks.kinds[p], delay[p], doppler[p], gain[p])
        for p in np.flatnonzero(tracks.visible[row])
    ]


def _rays(scenario, cfg, t, tx_index):
    """The visible rays of one TX at the single instant ``t``."""
    return _visible_rays(ray_tracks(scenario, cfg, t, tx_index), 0)


def _path(rays, kind):
    found = [p for p in rays if p.kind == kind]
    return found[0] if found else None


def interpolate_periodic(samples, u):
    """One period's trigonometric polynomial at fractional indices ``u``,
    summed directly over the bins ``-L//2 ... L//2`` (odd ``L``)."""
    length = samples.size
    assert length % 2 == 1
    bins = np.arange(length) - length // 2
    coef = np.fft.fftshift(np.fft.fft(samples)) / length
    return np.exp(2j * np.pi * np.outer(np.mod(u, length), bins) / length) @ coef


def _reference_horn_gain(beam, azimuth_deg, elevation_deg):
    el = math.radians(elevation_deg)
    el0 = math.radians(beam.boresight_elevation_deg)
    daz = math.radians(azimuth_deg - beam.boresight_azimuth_deg)
    cos_psi = math.sin(el) * math.sin(el0) + math.cos(el) * math.cos(el0) * math.cos(daz)
    psi = math.degrees(math.acos(min(1.0, max(-1.0, cos_psi))))
    gain = beam.gain_dbi - 3.0 * (psi / (beam.beamwidth_3db_deg / 2.0)) ** 2
    return max(gain, beam.floor_dbi)


def _reference_paths(scenario, cfg, t, tx_index):
    """Scalar per-ray image-source tracer: one instant, one ray at a time."""
    beam = scenario.tx_beams[tx_index]
    tx = scenario.tx_start_position + scenario.tx_velocity * t
    fc = cfg.center_frequency

    def ray(target, kind, loss_db):
        separation = target - tx
        distance = float(np.linalg.norm(separation))
        radial_speed = float(np.dot(-separation, scenario.tx_velocity)) / distance
        d = separation / distance
        elevation = math.degrees(math.asin(min(1.0, max(-1.0, d[2]))))
        azimuth = math.degrees(math.atan2(d[1], d[0]))  # street frame; 0 for a vertical ray
        fspl = 20.0 * math.log10(4.0 * math.pi * distance * fc / C0)
        level_db = (
            -fspl
            + _reference_horn_gain(beam, azimuth, elevation)
            + scenario.rx_gain_dbi
            - loss_db
        )
        return Ray(kind, distance / C0, -radial_speed * fc / C0, 10.0 ** (level_db / 20.0))

    rx = scenario.rx_position
    paths = [ray(rx, "los", 0.0)]
    for reflector in scenario.reflectors:
        axis, offset = reflector.axis, reflector.offset
        if (tx[axis] - offset) * (rx[axis] - offset) <= 0:
            continue
        image = rx.copy()
        image[axis] = 2 * offset - rx[axis]
        span = image[axis] - tx[axis]
        if span == 0:
            continue
        frac = (offset - tx[axis]) / span
        if not 0.0 <= frac <= 1.0:
            continue
        specular = tx + frac * (image - tx)
        extents = (reflector.x_range, reflector.y_range, reflector.z_range)
        if any(
            rng is not None and not rng[0] <= specular[i] <= rng[1]
            for i, rng in enumerate(extents)
        ):
            continue
        paths.append(ray(image, reflector.kind, reflector.loss_db))
    return paths


# drives of 14 m/s along the street, back, across it and diagonally back,
# by heading in degrees from +x toward +y; the last two start outside the
# default 20 m canyon, so their tests widen it to 100 m
_DRIVES = {
    0: (14.0, 0.0, 0.0),
    180: (-14.0, 0.0, 0.0),
    90: (0.0, 14.0, 0.0),
    -135: (-7.0 * math.sqrt(2.0), -7.0 * math.sqrt(2.0), 0.0),
}


def _assert_matches_reference(scenario, cfg, times, tx_index):
    """Kinds in order at every instant; delay, Doppler, gain to 1e-12 relative."""
    tracks = ray_tracks(scenario, cfg, times, tx_index)
    got = [_visible_rays(tracks, row) for row in range(len(times))]
    want = [_reference_paths(scenario, cfg, float(t), tx_index) for t in times]
    assert [[p.kind for p in rays] for rays in got] == [
        [p.kind for p in rays] for rays in want
    ]
    for field in ("delay", "doppler", "gain"):
        np.testing.assert_allclose(
            [getattr(p, field) for rays in got for p in rays],
            [getattr(p, field) for rays in want for p in rays],
            rtol=1e-12,
            atol=0,
            err_msg=field,
        )


class TestHornGain:
    def test_boresight(self):
        beam = BeamPattern(boresight_elevation_deg=15.0)
        assert horn_gain(beam, 0.0, 15.0) == pytest.approx(20.0)

    def test_half_beamwidth_is_3db_down(self):
        beam = BeamPattern()
        assert horn_gain(beam, 0.0, 7.5) == pytest.approx(17.0, abs=1e-9)
        assert horn_gain(beam, 7.5, 0.0) == pytest.approx(17.0, abs=1e-9)

    def test_floor_clips_far_sidelobes(self):
        beam = BeamPattern()
        assert horn_gain(beam, 90.0, 0.0) == beam.floor_dbi
        assert horn_gain(beam, 180.0, 45.0) == beam.floor_dbi

    def test_quadratic_rolloff(self):
        beam = BeamPattern()
        assert horn_gain(beam, 0.0, 3.75) == pytest.approx(20.0 - 0.75, abs=1e-9)

    def test_arrays_broadcast(self):
        """The cases above as one broadcast call: rows of azimuths against a
        row of elevations."""
        beam = BeamPattern()
        azimuth = np.array([[0.0, 7.5, 90.0], [0.0, 0.0, 180.0]])
        elevation = np.array([[0.0, 0.0, 0.0], [7.5, 3.75, 45.0]])
        expected = [[20.0, 17.0, beam.floor_dbi], [17.0, 19.25, beam.floor_dbi]]
        np.testing.assert_allclose(horn_gain(beam, azimuth, elevation), expected, atol=1e-9)
        gains = horn_gain(beam, azimuth[0], 0.0)
        assert gains.shape == (3,)
        np.testing.assert_array_equal(gains, [horn_gain(beam, a, 0.0) for a in azimuth[0]])


class TestGeometry:
    def test_trigger_distance_sets_start(self, scenario):
        d0 = np.linalg.norm(tx_position(scenario, 0.0) - scenario.rx_position)
        assert d0 == pytest.approx(scenario.trigger_distance)

    def test_linear_motion(self, scenario):
        p = tx_position(scenario, 1.5)
        np.testing.assert_allclose(
            p, scenario.tx_start_position + 1.5 * scenario.tx_velocity
        )

    def test_linear_motion_over_time_vector(self, scenario):
        times = np.array([0.0, 1.5, 3.2])
        positions = tx_position(scenario, times)
        assert positions.shape == (3, 3)
        np.testing.assert_array_equal(positions, [tx_position(scenario, t) for t in times])

    def test_trigger_shorter_than_height_offset_rejected(self):
        with pytest.raises(ConfigError):
            default_scenario(trigger_distance=2.0)

    @pytest.mark.parametrize("key", ["rx_position", "tx_velocity"])
    def test_builder_vectors_have_three_entries(self, key):
        with pytest.raises(ConfigError, match="3-vectors"):
            default_scenario(**{key: (0.0, 5.0)})

    def test_vertical_velocity_rejected(self):
        with pytest.raises(ConfigError, match="tx_velocity must be horizontal"):
            default_scenario(tx_velocity=(14.0, 0.0, 2.0))

    @pytest.mark.parametrize(
        "settings, name",
        [
            ({"tx_velocity": _DRIVES[90]}, "the drive's start"),  # 30.9 m behind a wall
            ({"tx_velocity": (14.0, 1.0, 0.0), "duration": 20.0}, "the drive's end"),
            ({"rx_position": (0.0, -10.0, 5.0)}, "rx_position"),  # on the wall
        ],
        ids=["start", "end", "rx"],
    )
    def test_outside_the_canyon_rejected(self, settings, name):
        """The walls are unbounded planes, so a receiver or a drive outside
        them would see the LOS through a building."""
        with pytest.raises(ConfigError, match=f"{name} .*canyon_width 20"):
            default_scenario(**settings)
        wide = default_scenario(canyon_width=100.0, **settings)
        assert abs(wide.tx_start_position[1]) < 50.0

    def test_reflector_census(self):
        kinds = [r.kind for r in default_scenario().reflectors]
        assert kinds.count("wall") == 2
        assert "ground" in kinds and "truck" in kinds
        kinds = [r.kind for r in default_scenario(truck=False, ground=False).reflectors]
        assert kinds == ["wall", "wall"]

    def test_scenario_has_no_default_street(self):
        """The reference street is stated once, in ``default_scenario``: a bare
        ``ScenarioConfig`` lacks every field."""
        with pytest.raises(TypeError, match="missing 13 required"):
            ScenarioConfig()

    @pytest.mark.parametrize(
        "kwargs", [{}, {"y": 1.0, "z": 1.0}], ids=["neither", "both"]
    )
    def test_reflector_needs_exactly_one_plane(self, kwargs):
        with pytest.raises(ValueError):
            PlanarReflector(kind="bad", **kwargs)


class TestScenarioPaths:
    def test_los_delay_and_doppler_at_trigger(self, scenario, narrowband):
        paths = _rays(scenario, narrowband, 0.0, 0)
        los = _path(paths, "los")
        assert los.delay == pytest.approx(41.0 / C0)
        # radial speed at trigger: v * |x0| / 41
        x0 = scenario.tx_start_position[0]
        expected = -x0 * 14.0 / 41.0 * narrowband.center_frequency / C0
        assert los.doppler == pytest.approx(expected)
        assert los.doppler == pytest.approx(2801.4, abs=0.1)

    def test_doppler_goes_negative_after_pass(self, scenario, narrowband):
        t_pass = -scenario.tx_start_position[0] / 14.0
        nu = _path(_rays(scenario, narrowband, t_pass + 0.25, 0), "los").doppler
        assert nu < 0

    def test_wall_image_source_length(self, scenario, narrowband):
        tx = tx_position(scenario, 1.0)
        image = np.array([0.0, 20.0, 5.0])  # RX mirrored across y=+10
        expected = np.linalg.norm(tx - image) / C0
        walls = [p for p in _rays(scenario, narrowband, 1.0, 0) if p.kind == "wall"]
        assert len(walls) == 2
        assert any(p.delay == pytest.approx(expected) for p in walls)

    def test_ground_bounce_length(self, scenario, narrowband):
        tx = tx_position(scenario, 0.0)
        image = np.array([0.0, 0.0, -5.0])  # RX mirrored across the street
        expected = np.linalg.norm(tx - image) / C0
        ground = _path(_rays(scenario, narrowband, 0.0, 0), "ground")
        assert ground.delay == pytest.approx(expected)

    def test_reflections_are_longer_than_los(self, scenario, narrowband):
        paths = _rays(scenario, narrowband, 0.5, 0)
        los = paths[0].delay
        assert all(p.delay > los for p in paths[1:])

    def test_truck_visible_only_while_specular_point_on_it(self, scenario, narrowband):
        # TX and RX both sit at y=0, 4 m from the truck plane, so the
        # specular x is the midpoint of tx.x and 0; on the truck iff
        # tx.x in [-60, -20].
        assert _path(_rays(scenario, narrowband, 0.0, 0), "truck") is not None
        x0 = scenario.tx_start_position[0]
        t_gone = (x0 - (-19.0)) / -14.0  # tx.x = -19
        assert _path(_rays(scenario, narrowband, t_gone, 0), "truck") is None

    def test_plane_between_endpoints_is_skipped(self, narrowband):
        base = default_scenario(truck=False, ground=False)
        blocked = dataclasses.replace(
            base, reflectors=[PlanarReflector(kind="ceiling", z=3.0)]
        )
        kinds = [p.kind for p in _rays(blocked, narrowband, 0.0, 0)]
        assert kinds == ["los"]
        # at t = 1 s the TX sits exactly on the RX image behind a 3.5 m plane
        at_image = dataclasses.replace(
            base,
            tx_start_position=np.array([-14.0, 0.0, 2.0]),
            reflectors=[PlanarReflector(kind="ceiling", z=3.5)],
        )
        kinds = [p.kind for p in _rays(at_image, narrowband, 1.0, 0)]
        assert kinds == ["los"]

    def test_los_gain_composition(self, scenario, narrowband):
        """|gain| must equal horn gain + RX gain - FSPL, in linear scale."""
        los = _path(_rays(scenario, narrowband, 0.0, 0), "los")
        x0 = scenario.tx_start_position[0]
        elevation = math.degrees(math.asin(3.0 / 41.0))
        azimuth = math.degrees(math.acos(-x0 / math.hypot(x0, 0.0)))
        level = (
            horn_gain(scenario.tx_beams[0], azimuth, elevation)
            + scenario.rx_gain_dbi
            - free_space_path_loss(41.0, narrowband.center_frequency)
        )
        assert abs(los.gain) == pytest.approx(10 ** (level / 20.0))

    def test_wall_loss_applied(self, scenario, narrowband):
        """Disabling the wall loss raises the wall path by exactly 6 dB."""
        lossless = dataclasses.replace(
            scenario,
            reflectors=[PlanarReflector(kind="wall", y=10.0, loss_db=0.0)],
        )
        lossy = dataclasses.replace(
            scenario,
            reflectors=[PlanarReflector(kind="wall", y=10.0, loss_db=6.0)],
        )
        g0 = _path(_rays(lossless, narrowband, 1.0, 0), "wall").gain
        g1 = _path(_rays(lossy, narrowband, 1.0, 0), "wall").gain
        assert 20 * math.log10(abs(g0) / abs(g1)) == pytest.approx(6.0)

    def test_uptilted_beam_suppresses_street_bounce(self, scenario, narrowband):
        """The street reflection departs below the horizon; the 15 deg beam
        pushes it to the pattern floor while barely touching the LOS."""
        by_beam = [_rays(scenario, narrowband, 0.0, tx) for tx in (0, 1)]
        rel = [
            abs(_path(p, "ground").gain) / abs(_path(p, "los").gain) for p in by_beam
        ]
        assert rel[0] > 10 * rel[1]

    @pytest.mark.parametrize("heading", list(_DRIVES))
    def test_standstill_horns_point_along_the_drive(self, narrowband, heading):
        """The standstill keeps the drive's beams, so at the trigger position
        its rays have the drive's gains and delays, bit for bit, whichever
        way the car is about to drive."""
        drive = default_scenario(tx_velocity=_DRIVES[heading], canyon_width=100.0)
        for tx_index in (0, 1):
            moving = ray_tracks(drive, narrowband, 0.0, tx_index)
            parked = ray_tracks(_parked(drive), narrowband, 0.0, tx_index)
            for field in ("visible", "delay", "gain"):
                np.testing.assert_array_equal(
                    getattr(parked, field), getattr(moving, field), err_msg=field
                )

    def test_time_bounds_checked(self, scenario, narrowband):
        with pytest.raises(ValueError):
            ray_tracks(scenario, narrowband, scenario.duration + 1.0, 0)
        with pytest.raises(ConfigError):
            ray_tracks(scenario, narrowband, 0.0, 5)
        with pytest.raises(ValueError):
            ray_tracks(scenario, narrowband, [0.0, 1.0, -1.0], 0)

    def test_time_vector_equals_single_instants(self, scenario, narrowband):
        times = [0.0, 0.5, 2.9]
        tracks = ray_tracks(scenario, narrowband, times, 1)
        assert tracks.kinds == ("los", "wall", "wall", "ground", "truck")
        np.testing.assert_array_equal(tracks.times, times)
        for row, t in enumerate(times):
            single = ray_tracks(scenario, narrowband, t, 1)
            assert single.kinds == tracks.kinds
            np.testing.assert_array_equal(single.times, [t])
            for field in ("delay", "doppler", "gain", "visible"):
                np.testing.assert_array_equal(
                    getattr(single, field), getattr(tracks, field)[[row]], err_msg=field
                )


class TestScalarReference:
    """The array ray evaluation against the scalar tracer ``_reference_paths``."""

    @pytest.mark.parametrize("tx_index", [0, 1])
    def test_every_snapshot_of_the_default_drive(self, scenario, narrowband, tx_index):
        block = narrowband.samples_per_snapshot
        n_total = round(scenario.duration * narrowband.sample_rate)
        times = np.arange(0, n_total, block) / narrowband.sample_rate
        assert times.size == 19048
        _assert_matches_reference(scenario, narrowband, times, tx_index)

    @pytest.mark.parametrize("tx_index", [0, 1])
    @pytest.mark.parametrize("heading", [180, 90, -135])
    def test_drives_in_other_directions(self, narrowband, heading, tx_index):
        """The horns point along the drive: every fourth snapshot of a drive
        back along the street, across it and diagonally back."""
        drive = default_scenario(tx_velocity=_DRIVES[heading], canyon_width=100.0)
        assert drive.tx_beams[tx_index].boresight_azimuth_deg == pytest.approx(heading)
        times = np.arange(0, 19048, 4) * narrowband.samples_per_snapshot / narrowband.sample_rate
        _assert_matches_reference(drive, narrowband, times, tx_index)

    def test_parked_car_matches_reference_without_doppler(self, scenario, narrowband):
        parked = dataclasses.replace(scenario, tx_velocity=np.zeros(3))
        for tx_index in (0, 1):
            _assert_matches_reference(parked, narrowband, [0.0, 1.0, 3.2], tx_index)
        assert all(p.doppler == 0 for p in _rays(parked, narrowband, 1.0, 0))

    def test_tx_directly_beneath_rx(self, scenario, narrowband):
        """LOS and street bounce depart vertically: no horizontal component,
        azimuth taken as 0."""
        below = dataclasses.replace(scenario, tx_start_position=np.array([-14.0, 0.0, 2.0]))
        np.testing.assert_array_equal(tx_position(below, 1.0), [0.0, 0.0, 2.0])
        for tx_index in (0, 1):
            _assert_matches_reference(below, narrowband, [1.0], tx_index)

    def test_truck_specular_point_on_its_edge(self, scenario, narrowband):
        """At tx.x = -20 the specular point is the truck's end x = -10 exactly;
        the extent is closed, so the ray is present."""
        edge = dataclasses.replace(scenario, tx_start_position=np.array([-34.0, 0.0, 2.0]))
        assert "truck" in [p.kind for p in _rays(edge, narrowband, 1.0, 0)]
        for tx_index in (0, 1):
            _assert_matches_reference(edge, narrowband, [1.0], tx_index)


class TestTransferFunction:
    def test_matches_path_sum(self, scenario, narrowband):
        plan = tone_plan(narrowband, 0)
        times = np.array([0.0, 0.7])
        grid = transfer_function(scenario, narrowband, plan, times)
        fc = narrowband.center_frequency
        for row, t in enumerate(times):
            paths = _reference_paths(scenario, narrowband, t, 0)
            expected = sum(
                p.gain * np.exp(-2j * np.pi * (fc + plan.tone_frequencies) * p.delay)
                for p in paths
            )
            np.testing.assert_allclose(grid[row], expected, rtol=1e-12)


@pytest.fixture(scope="module")
def short_scenario():
    return default_scenario(duration=0.002, cfo=0.0, noise_psd=0.0)


@pytest.fixture(scope="module")
def signals(narrowband):
    return [
        multitone_waveform(narrowband, tone_plan(narrowband, i))
        for i in range(narrowband.tx_count)
    ]


class TestApplyChannel:
    def test_deterministic_per_seed(self, narrowband, signals):
        scn = default_scenario(duration=0.002)
        a = apply_channel(signals, scn, narrowband, seed=9)
        b = apply_channel(signals, scn, narrowband, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = apply_channel(signals, scn, narrowband, seed=10)
        assert np.any(c.samples != a.samples)

    def test_static_single_path_matches_direct_delay(self, narrowband, signals):
        """Parked TX, LOS only: RX is the delayed, phase-rotated waveform sum."""
        scn = dataclasses.replace(
            default_scenario(duration=0.002, cfo=0.0, noise_psd=0.0),
            tx_velocity=np.zeros(3),
            reflectors=[],
        )
        rx = apply_channel(signals, scn, narrowband, seed=0)
        fs = narrowband.sample_rate
        t = np.arange(rx.samples.size) / fs
        expected = np.zeros_like(rx.samples)
        for tx_index, sig in enumerate(signals):
            path = _rays(scn, narrowband, 0.0, tx_index)[0]
            shifted = interpolate_periodic(sig.samples, (t - path.delay) * fs)
            expected += (
                path.gain
                * np.exp(-2j * np.pi * narrowband.center_frequency * path.delay)
                * shifted
            )
        np.testing.assert_allclose(rx.samples, expected, atol=1e-9 * np.max(np.abs(expected)))

    def test_period_of_wrong_length_rejected(self, narrowband, signals, short_scenario):
        short = [SampledSignal(sig.samples[:104], sig.sample_rate) for sig in signals]
        with pytest.raises(ConfigError, match="samples_per_period = 105"):
            apply_channel(short, short_scenario, narrowband, seed=0)

    def test_cfo_rotates_carrier(self, narrowband, signals, short_scenario):
        with_cfo = dataclasses.replace(short_scenario, cfo=200.0)
        a = apply_channel(signals, short_scenario, narrowband, seed=0)
        b = apply_channel(signals, with_cfo, narrowband, seed=0)
        t = np.arange(a.samples.size) / narrowband.sample_rate
        np.testing.assert_allclose(
            b.samples,
            a.samples * np.exp(2j * np.pi * 200.0 * t),
            atol=1e-9 * np.max(np.abs(a.samples)),
        )

    def test_noise_scales_with_psd(self, narrowband, signals):
        quiet = default_scenario(duration=0.002, noise_psd=1e-16)
        loud = default_scenario(duration=0.002, noise_psd=1e-12)
        silent = dataclasses.replace(quiet, noise_psd=0.0)
        base = apply_channel(signals, silent, narrowband, seed=3).samples
        nq = apply_channel(signals, quiet, narrowband, seed=3).samples - base
        nl = apply_channel(signals, loud, narrowband, seed=3).samples - base
        ratio = np.var(nl) / np.var(nq)
        assert ratio == pytest.approx(1e4, rel=0.05)


class TestRecordChunks:
    def test_arguments_checked_before_any_synthesis(
        self, narrowband, signals, short_scenario, monkeypatch
    ):
        """A bad TX period fails in ``_RecordGroups`` itself, before any ray
        is traced or any sample made."""
        short = [SampledSignal(sig.samples[:104], sig.sample_rate) for sig in signals]

        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran before the arguments were checked")

        monkeypatch.setattr(channel, "ray_tracks", no_synthesis)
        monkeypatch.setattr(channel._kernels, "synthesize_paths", no_synthesis)
        for make in (channel._RecordGroups, apply_channel):
            with pytest.raises(ConfigError, match="samples_per_period = 105"):
                make(short, short_scenario, narrowband, 0)

    def test_geometry_group_size_does_not_change_the_record(
        self, narrowband, signals, monkeypatch
    ):
        """0.2 s is 1,190 blocks, three geometry groups: the record is bit for
        bit the one made with one geometry evaluation for all blocks."""
        scn = default_scenario(duration=0.2)
        assert len(channel._RecordGroups(signals, scn, narrowband, 4).groups) == 3
        grouped = apply_channel(signals, scn, narrowband, seed=4)
        monkeypatch.setattr(channel, "_GEOMETRY_BLOCKS", 10**6)
        assert len(channel._RecordGroups(signals, scn, narrowband, 4).groups) == 1
        whole = apply_channel(signals, scn, narrowband, seed=4)
        assert grouped.samples.size == 250_000
        np.testing.assert_array_equal(grouped.samples, whole.samples)

    def test_groups_made_in_reverse_are_apply_channel(self, narrowband, signals):
        """Each geometry group depends only on its first block: made last to
        first, the groups of a 0.2 s record (three groups, a partial last
        block) are bit for bit the record of ``apply_channel``."""
        scn = default_scenario(duration=0.2)
        record = channel._RecordGroups(signals, scn, narrowband, 4)
        assert len(record.groups) == 3 and record.length % narrowband.samples_per_snapshot
        parts = [list(record.chunks(first)) for first in reversed(record.groups)]
        made = np.concatenate([rx for part in reversed(parts) for rx in part])
        np.testing.assert_array_equal(made, apply_channel(signals, scn, narrowband, 4).samples)

    def test_block_tracks_are_ray_tracks_in_groups(self, scenario, narrowband):
        count = 2 * channel._GEOMETRY_BLOCKS + 7
        parts = list(block_tracks(scenario, narrowband, count, 1))
        assert [p.times.size for p in parts] == [
            channel._GEOMETRY_BLOCKS, channel._GEOMETRY_BLOCKS, 7
        ]
        starts = np.arange(count) * narrowband.samples_per_snapshot / narrowband.sample_rate
        whole = ray_tracks(scenario, narrowband, starts, 1)
        for name in ("times", "delay", "doppler", "gain", "visible"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name)
            )
