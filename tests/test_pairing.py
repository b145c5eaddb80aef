import hashlib
import math

import numpy as np
import pytest

from evseen.imaging import RgbImage, brightness, exposure_class
from evseen.pairing import (
    SceneRecording,
    classify_lighting,
    enumerate_pairs,
    synth_scene,
)


def stub_recording(level: float, cls: str | None = None) -> SceneRecording:
    from evseen.events import EventStream

    frames = [RgbImage(np.full((4, 4, 3), level))]
    cls = cls or classify_lighting(frames)
    return SceneRecording("stub", cls, frames, EventStream.empty(4, 4), 1.0)


class TestClassify:
    def test_low(self):
        assert classify_lighting([RgbImage(np.full((4, 4, 3), 0.1))]) == "low"

    def test_normal(self):
        assert classify_lighting([RgbImage(np.full((4, 4, 3), 0.5))]) == "normal"

    def test_high(self):
        assert classify_lighting([RgbImage(np.full((4, 4, 3), 0.9))]) == "high"

    @pytest.mark.parametrize("level", [0.4, 0.7])
    @pytest.mark.parametrize("size", [4, 16])
    def test_band_edges_are_normal(self, level, size):
        # a uniform 0.7 frame averages to 0.7000000000000001; the edges stay inclusive
        frame = RgbImage(np.full((size, size, 3), level))
        assert exposure_class(brightness(frame)) == "normal"
        assert classify_lighting([frame]) == "normal"

    def test_mean_over_frames(self):
        frames = [RgbImage(np.full((4, 4, 3), 0.2)), RgbImage(np.full((4, 4, 3), 0.7))]
        assert classify_lighting(frames) == "normal"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_lighting([])


class TestEnumerate:
    def test_paper_scene_composition(self):
        scene = [
            stub_recording(0.1),
            stub_recording(0.5),
            stub_recording(0.6),
            stub_recording(0.9),
        ]
        pairs = enumerate_pairs(scene)
        assert len(pairs) == 6

    def test_single_normal_alone(self):
        with_one = enumerate_pairs([stub_recording(0.5)])
        assert len(with_one) == 0

    def test_two_low_one_normal(self):
        scene = [stub_recording(0.1), stub_recording(0.2), stub_recording(0.5)]
        assert len(enumerate_pairs(scene)) == 2

    def test_count_formula_exhaustive(self):
        levels = {"low": 0.1, "normal": 0.5, "high": 0.9}
        for n_low in range(0, 6):
            for n_norm in range(0, 6 - n_low):
                for n_high in range(0, 6 - n_low - n_norm):
                    total = n_low + n_norm + n_high
                    if total == 0 or total > 5:
                        continue
                    scene = (
                        [stub_recording(levels["low"]) for _ in range(n_low)]
                        + [stub_recording(levels["normal"]) for _ in range(n_norm)]
                        + [stub_recording(levels["high"]) for _ in range(n_high)]
                    )
                    if n_norm == 0:
                        with pytest.raises(ValueError):
                            enumerate_pairs(scene)
                    else:
                        assert len(enumerate_pairs(scene)) == n_norm * (total - 1)

    def test_targets_are_normal_and_distinct(self):
        scene = [stub_recording(0.1), stub_recording(0.5), stub_recording(0.65)]
        pair_set = enumerate_pairs(scene)
        for i, t in pair_set.pairs:
            assert scene[t].lighting_class == "normal"
            assert i != t

    def test_every_target_passes_exposure(self):
        recordings = synth_scene(6, lighting_scales=(0.3, 0.8, 1.0, 1.6))
        pair_set = enumerate_pairs(recordings)
        for _, t in pair_set.pairs:
            assert exposure_class(float(np.mean([f.values for f in recordings[t].frames]))) == "normal"

    def test_frame_expansion(self):
        scene = [stub_recording(0.1), stub_recording(0.5)]
        pair_set = enumerate_pairs(scene)
        triples = pair_set.frame_pairs()
        assert len(triples) == len(pair_set) * 1
        assert triples[0][2] == 0


class TestSynth:
    def test_default_scales_mirror_nd_filters(self):
        recordings = synth_scene(0)
        assert len(recordings) == 4
        assert [r.exposure_scale for r in recordings] == [1 / 8, 1 / 64, 1 / 1000, 1.0]

    def test_seed_determinism(self):
        a = synth_scene(9, lighting_scales=(0.5, 1.0), frames=4)
        b = synth_scene(9, lighting_scales=(0.5, 1.0), frames=4)
        for ra, rb in zip(a, b):
            assert all((fa.values == fb.values).all() for fa, fb in zip(ra.frames, rb.frames))
            assert (ra.events.ts == rb.events.ts).all()
            assert (ra.events.ps == rb.events.ps).all()

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((1, (0.25, 0.75, 1.0, 1.25), 16, 16), "c0674110851299726490dd663d3fb547213367a849553f4032f8bb918051d702"),
            ((5,), "02b60c0b415ed4ef7540bd3aae62107415a44382f1e532ce71abcbc6e61c6ab5"),
        ],
    )
    def test_outputs_pinned_to_the_byte(self, args, digest):
        """SHA-256 over each recording's lighting class, frames and event arrays (with
        their dtypes), computed when every frame was rendered by its own
        ``render_raw``/``apply_isp`` call: the CLI's training scene and the default one."""
        h = hashlib.sha256()
        for rec in synth_scene(*args):
            h.update(rec.lighting_class.encode())
            for frame in rec.frames:
                h.update(frame.values.tobytes())
            for values in (rec.events.xs, rec.events.ys, rec.events.ts, rec.events.ps):
                h.update(values.dtype.str.encode())
                h.update(values.tobytes())
        assert h.hexdigest() == digest

    def test_event_streams_scale_invariant(self):
        recordings = synth_scene(3, lighting_scales=(1.0, 1 / 8))
        full, eighth = recordings
        assert (full.events.xs == eighth.events.xs).all()
        assert (full.events.ts == eighth.events.ts).all()
        assert (full.events.ps == eighth.events.ps).all()

    def test_classification_consistent_with_brightness(self):
        for rec in synth_scene(4, lighting_scales=(0.2, 1.0, 1.7)):
            b = float(np.mean([f.values for f in rec.frames]))
            if b < 0.4:
                assert rec.lighting_class == "low"
            elif b <= 0.7:
                assert rec.lighting_class == "normal"
            else:
                assert rec.lighting_class == "high"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_scale_rejected(self, bad):
        with pytest.raises(ValueError, match=r"lighting scales must be finite and positive, got \(0\.5, "):
            synth_scene(0, lighting_scales=(0.5, bad))
