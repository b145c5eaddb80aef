"""The three workloads: set-up, independent reference, and one round of timed
operations each, with every output checked.

A workload makes its inputs from the seed with the program's own writers and
generators (so set-up time follows the program), computes what the outputs
must be with ``reference`` (untimed), then repeats rounds.  Each operation's
wall time is one sample of an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference as ref
from evseen import align, cli, events, formats, imu, pairing, seenet
from evseen.imaging import RadianceField, RgbImage

SWEEP = "0.3:0.7:0.1"
SWEEP_PROMPTS = [0.3, 0.4, 0.5, 0.6, 0.7]
ENHANCE_SIZE = 32
ENHANCE_EXPOSURE = 0.1  # scales a normally lit scene down into the low-light class
TRAIN_STEPS = 30
TRAIN_LR = 0.15  # the CLI's train-toy default
LOSS_TOL = 1e-9  # step-0 loss, program against reference (both float64)
FD_STEP = 1e-7
FD_COORDS = 1  # sampled coordinates per parameter group
FD_RTOL, FD_ATOL = 1e-3, 1e-8
IMU_SAMPLES = 10_000
IMU_MAX_SHIFT = 2000
IMU_PAIR_SEED = 0
ALIGN_SIZE = 128
ALIGN_TOL_PX = 0.5  # half a pixel: keypoints sit on integer pixel positions
EVENT_SIZE = 128
EVENT_FRAMES = 16
EVENT_THRESHOLD = 0.15
EVENT_BINS = 16
CALIBRATE_REPEATS = 5  # of each sub-second operation per round


class Ops:
    """Runs operations, counts attempts and failures, collects check failures.
    While ``tracer`` is set, each operation is also recorded as an ``op.<name>`` span."""

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, name: str, fn, *args):
        """(result, seconds); result is None when the call raised.

        Garbage left by earlier operations is collected first, untimed: each
        operation starts from the heap a fresh CLI process would have, so one
        operation does not pay for collecting another's autodiff tapes.
        """
        if self.tracer:
            self.tracer.collect()
        else:
            gc.collect()
        self.attempted += 1
        span = self.tracer.begin(f"op.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            out = None
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        return out, elapsed

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)
            print(f"check failed: {message}", file=sys.stderr)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --------------------------------------------------------------------------- enhance


class Enhance:
    """32x32 low-light frame + events + seeded toy checkpoint through ``cli.main``:
    one single-prompt enhance, then one 5-prompt sweep."""

    name = "enhance"
    warmup = True  # the first enhance in a process runs about twice as long

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        scene = pairing.synth_scene(
            seed, lighting_scales=(ENHANCE_EXPOSURE,), width=ENHANCE_SIZE, height=ENHANCE_SIZE
        )[0]
        self.image, self.event_file = workdir / "input.ppm", workdir / "events.evt0"
        self.checkpoint = workdir / "toy.evck"
        formats.write_ppm(scene.frames[0], self.image)
        formats.write_events(scene.events, self.event_file)
        config = seenet.SeeNetConfig(seed=seed)
        seenet.save_params(seenet.init_params(config), config, self.checkpoint)

    def reference(self) -> None:
        params, config = ref.read_evck(self.checkpoint)
        image = ref.read_ppm(self.image) / 255.0
        width, height, xs, ys, ts, ps = ref.read_evt0(self.event_file)
        voxels = ref.voxel_grid(width, height, xs, ys, ts, ps, config["voxel_bins"])
        pos = ref.position_feature(image.shape[1], image.shape[0], config["bayer"], config["pos_dim"])
        blr = ref.encode(image, voxels, pos, params, config)
        self.expected = {
            p: 255.0 * ref.decode(blr, p, params, config, image.shape) for p in {0.5, *SWEEP_PROMPTS}
        }

    def check_once(self, ops: Ops) -> None:
        """Nothing beyond the per-round checks."""

    def _check_ppm(self, ops: Ops, pixels: np.ndarray, prompt: float, what: str) -> None:
        gap = np.abs(pixels.astype(np.float64) - self.expected[prompt]).max()
        ops.check(gap <= 1.0, f"{what}: {gap:.3f} levels from the reference forward at prompt {prompt}")

    def _check_outputs(self, ops: Ops, out: Path, prompts: list[float]) -> None:
        for p in prompts:
            path = out / f"enhanced_{p:.2f}.ppm"
            if not path.exists():
                ops.check(False, f"missing output {path.name}")
                continue
            self._check_ppm(ops, ref.read_ppm(path), p, path.name)
        if len(prompts) > 1:
            grid = ref.read_ppm(out / "sweep_grid.ppm")
            for i, p in enumerate(prompts):
                tile = grid[:ENHANCE_SIZE, i * ENHANCE_SIZE : (i + 1) * ENHANCE_SIZE]
                self._check_ppm(ops, tile, p, f"sweep grid tile {i}")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        listed = [Path(o) for o in manifest["outputs"]]
        ops.check(len(listed) == len(prompts) + (len(prompts) > 1), "manifest output list has the wrong length")
        ops.check(all(p.exists() for p in listed), "manifest lists a missing output")

    def round(self, ops: Ops, samples: dict) -> None:
        base = ["enhance", "--input", str(self.image), "--events", str(self.event_file), "--checkpoint", str(self.checkpoint)]
        for op, extra, prompts, metric in (
            ("enhance", ["--prompt", "0.5"], [0.5], "enhance_s"),
            ("sweep5", ["--prompt-sweep", SWEEP], SWEEP_PROMPTS, "sweep5_s"),
        ):
            out = self.dir / op
            shutil.rmtree(out, ignore_errors=True)
            result, seconds = ops.run(op, _quiet_cli, base + extra + ["--out", str(out)])
            if result is None:
                continue
            code, printed = result
            ops.check(code == 0 and printed.strip() == f"rendered={len(prompts)}", f"{op}: exit {code}, printed {printed!r}")
            if code == 0:
                self._check_outputs(ops, out, prompts)
            samples.setdefault(metric, []).append(seconds)


# --------------------------------------------------------------------------- train


class Train:
    """Plain-SGD ``train_toy`` on the CLI's 16x16 training scene (exposures
    0.25, 0.75, 1.0, 1.25), 30 steps per round from a fresh initialisation."""

    name = "train"
    warmup = True  # the first round runs at about two thirds of the later rate

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        recordings = pairing.synth_scene(seed, lighting_scales=(0.25, 0.75, 1.0, 1.25), width=16, height=16)
        self.pair_set = pairing.enumerate_pairs(recordings)
        self.config = seenet.SeeNetConfig(seed=seed)

    def _reference_loss(self, params: dict) -> float:
        return ref.training_loss(
            ref.forward(self.image, self.voxels, self.prompt, params, self.config_dict),
            self.target,
            self.config.lambda1,
            self.config.lambda2,
            self.config.epsilon,
        )

    def reference(self) -> None:
        input_rec, target_rec, frame = self.pair_set.frame_pairs()[0]
        ev = input_rec.events
        self.image = input_rec.frames[frame].values
        self.target = target_rec.frames[frame].values
        self.prompt = float(self.target.mean())
        self.voxels = ref.voxel_grid(ev.width, ev.height, ev.xs.astype(np.int64), ev.ys.astype(np.int64), ev.ts, ev.ps.astype(np.int64), self.config.voxel_bins)
        self.config_dict = {f: getattr(self.config, f) for f in ("heads", "loop_count", "prompt_merge", "bayer", "pos_dim")}
        self.start = {name: t.data.copy() for name, t in seenet.init_params(self.config).named_tensors()}
        self.loss0 = self._reference_loss(self.start)

    def check_once(self, ops: Ops) -> None:
        """One SGD step: the update divided by -lr is the gradient at the start,
        confirmed by central differences of the reference loss."""
        result, _ = ops.run("train_1step", seenet.train_toy, self.pair_set, self.config, 1, TRAIN_LR)
        if result is None:
            return
        stepped = {name: t.data for name, t in result[0].named_tensors()}
        rng = np.random.default_rng(self.seed)
        for name, before in self.start.items():
            grad = (before - stepped[name]) / TRAIN_LR
            for flat in rng.choice(before.size, size=min(FD_COORDS, before.size), replace=False):
                idx = np.unravel_index(flat, before.shape)
                probe = dict(self.start)
                probe[name] = before.copy()
                probe[name][idx] = before[idx] + FD_STEP
                hi = self._reference_loss(probe)
                probe[name][idx] = before[idx] - FD_STEP
                lo = self._reference_loss(probe)
                fd = (hi - lo) / (2.0 * FD_STEP)
                err = abs(fd - grad[idx])
                ops.check(
                    err <= FD_ATOL + FD_RTOL * max(abs(fd), abs(grad[idx])),
                    f"first SGD update of {name}{list(idx)}: gradient {grad[idx]!r}, central difference {fd!r}",
                )

    def round(self, ops: Ops, samples: dict) -> None:
        result, seconds = ops.run("train", seenet.train_toy, self.pair_set, self.config, TRAIN_STEPS, TRAIN_LR)
        if result is None:
            return
        losses = np.asarray(result[1])
        floor = self.config.lambda1 * self.config.epsilon
        ops.check(len(losses) == TRAIN_STEPS, "train_toy returned the wrong number of losses")
        ops.check(bool(np.all(np.isfinite(losses)) and np.all(losses >= floor)), f"a loss is non-finite or below {floor}")
        ops.check(abs(losses[0] - self.loss0) <= LOSS_TOL, f"step-0 loss {losses[0]!r} vs reference {self.loss0!r}")
        samples.setdefault("train_steps_per_s", []).append(TRAIN_STEPS / seconds)


# --------------------------------------------------------------------------- calibrate


def _trajectory(rng: np.random.Generator, n: int) -> np.ndarray:
    """Six channels of slow sweeps plus mid- and high-frequency detail at 1000 Hz."""
    t = np.arange(n) / 1000.0
    sig = np.zeros((n, 6))
    for ch in range(6):
        for f_lo, f_hi, a_lo, a_hi in ((0.05, 0.3, 0.5, 1.0), (0.5, 2.0, 0.3, 0.6), (4.0, 8.0, 0.1, 0.3)):
            f, a = rng.uniform(f_lo, f_hi), rng.uniform(a_lo, a_hi)
            sig[:, ch] += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return sig


def _texture(rng: np.random.Generator, size: int) -> np.ndarray:
    """Blocky random texture with sharp square patches: plenty of corners."""
    base = 0.3 + 0.4 * np.kron(rng.uniform(0.0, 1.0, (size // 8, size // 8)), np.ones((8, 8)))
    for _ in range(40):
        y, x = rng.integers(8, size - 16, 2)
        s = rng.integers(4, 10)
        base[y : y + s, x : x + s] = rng.uniform(0.0, 1.0)
    return np.clip(np.stack([base] * 3, axis=-1), 0.0, 1.0)


def _radiance(rng: np.random.Generator, size: int, frames: int) -> np.ndarray:
    """Sinusoidal texture under drifting illumination with moving soft blobs."""
    u, v = np.meshgrid(np.arange(size) / (size - 1), np.arange(size) / (size - 1))
    fx, fy = rng.uniform(3.0, 8.0, 2)
    phase = rng.uniform(0.0, 2 * np.pi, 3)
    centres = rng.uniform(0.2, 0.8, (3, 2))
    velocity = rng.uniform(-0.3, 0.3, (3, 2))
    stack = np.empty((frames, size, size))
    for f in range(frames):
        # s stops short of 1, where the illumination and texture terms would
        # repeat frame 0: a field that returns exactly to an earlier level puts
        # the log difference on a multiple of the threshold, where rounding
        # decides the count
        s = f / frames
        frame = 0.3 + 0.15 * np.sin(2 * np.pi * (fx * u + s) + phase[0]) * np.cos(2 * np.pi * fy * v + phase[1])
        frame *= 1.0 + 0.2 * np.sin(2 * np.pi * s + phase[2])
        for (cx, cy), (vx, vy) in zip(centres, velocity):
            frame += 0.25 * np.exp(-((u - cx - vx * s) ** 2 + (v - cy - vy * s) ** 2) / 0.02)
        stack[f] = frame
    return stack


class Calibrate:
    """The numpy-only collection stages: IMU registration (Kalman + hierarchical
    search, and the exhaustive oracle) on a 10k-sample pair with a known shift,
    alignment of a 128^2 texture against a known affine warp of it, and event
    simulation + voxelisation of a 128^2 radiance field."""

    name = "calibrate"
    warmup = False  # no operation here runs slower the first time

    def setup(self, seed: int, workdir: Path) -> None:
        # The IMU pair does not follow the seed: on about 1 pair in 400 from this
        # generator, ``imu.register`` settles on a wrong coarse basin (see CHANGES.md),
        # and a check that fails on some seeds only cannot gate the benchmark.
        # Alignment and events get a generator each, so one's inputs leave the other's.
        imu_rng = np.random.default_rng(IMU_PAIR_SEED)
        align_rng, event_rng = (np.random.default_rng([seed, stage]) for stage in (1, 2))
        self.shift = int(imu_rng.integers(-IMU_MAX_SHIFT, IMU_MAX_SHIFT + 1))
        master = _trajectory(imu_rng, IMU_SAMPLES + 2 * IMU_MAX_SHIFT + 1)
        start = IMU_MAX_SHIFT
        noise = imu_rng.normal(0.0, 0.01, (2, IMU_SAMPLES, 6))
        self.source = imu.ImuSequence(master[start : start + IMU_SAMPLES] + noise[0])
        # target content lags the source by ``shift``: source[i] ~ target[i + shift]
        self.target = imu.ImuSequence(master[start - self.shift : start - self.shift + IMU_SAMPLES] + noise[1])

        self.angle = float(align_rng.uniform(-2.0, 2.0))
        self.tx, self.ty = (float(v) for v in align_rng.uniform(-4.0, 4.0, 2))
        th = math.radians(self.angle)
        c, s = math.cos(th), math.sin(th)
        cx = cy = (ALIGN_SIZE - 1) / 2.0
        transform = align.AffineTransform(
            np.array([[c, -s, self.tx + cx - c * cx + s * cy], [s, c, self.ty + cy - s * cx - c * cy]])
        )
        self.image = RgbImage(_texture(align_rng, ALIGN_SIZE))
        self.warped = align.warp_affine(self.image, transform)

        radiance = _radiance(event_rng, EVENT_SIZE, EVENT_FRAMES)
        self.field = RadianceField(radiance, np.arange(EVENT_FRAMES, dtype=np.int64) * 10_000)

    def reference(self) -> None:
        self.true_mean_px = ref.rotation_mean_displacement(self.angle, self.tx, self.ty, ALIGN_SIZE, ALIGN_SIZE)
        pos, neg = ref.event_counts(np.log(np.maximum(self.field.values, 1e-6)), EVENT_THRESHOLD)
        self.expected_pos, self.expected_neg = pos, neg
        # the oracle runs on the denoised pair, as ``register-imu --denoise --oracle`` does
        self.denoised = (imu.kalman_denoise(self.source), imu.kalman_denoise(self.target))

    def check_once(self, ops: Ops) -> None:
        """Nothing beyond the per-round checks."""

    def _check_events(self, ops: Ops, stream, grid) -> None:
        frame = np.searchsorted(self.field.timestamps_us, stream.ts)
        shape = self.expected_pos.shape
        flat = np.ravel_multi_index((frame, stream.ys.astype(np.int64), stream.xs.astype(np.int64)), shape)
        size = int(np.prod(shape))
        pos = np.bincount(flat[stream.ps > 0], minlength=size).reshape(shape)
        neg = np.bincount(flat[stream.ps < 0], minlength=size).reshape(shape)
        ops.check(
            np.array_equal(pos, self.expected_pos) and np.array_equal(neg, self.expected_neg),
            "event counts differ from the reference-stepping counter",
        )
        per_pixel = (pos - neg).sum(axis=0)
        ops.check(
            np.allclose(grid.values.sum(axis=2), per_pixel, rtol=0.0, atol=1e-9)
            and abs(grid.values.sum() - int(stream.ps.astype(np.int64).sum())) <= 1e-9 * max(len(stream), 1),
            "voxel mass differs from the polarity sum",
        )

    def _denoise_register(self):
        return imu.register(imu.kalman_denoise(self.source), imu.kalman_denoise(self.target))

    def _events(self):
        stream = events.simulate_events(self.field, EVENT_THRESHOLD)
        t0 = int(stream.ts.min())
        return stream, events.voxelize(stream, EVENT_BINS, t0, max(int(stream.ts.max()), t0 + 1))

    def _imu_register(self, ops: Ops, samples: dict) -> None:
        result, seconds = ops.run("imu_register", self._denoise_register)
        if result is not None:
            got = result.bias_samples
            ops.check(abs(got - self.shift) <= 1, f"register found shift {got}, generator used {self.shift}")
            samples.setdefault("imu_register_s", []).append(seconds)

    def _imu_oracle(self, ops: Ops, samples: dict) -> None:
        result, seconds = ops.run("imu_oracle", imu.register_exhaustive, *self.denoised)
        if result is not None:
            got = result.bias_samples
            ops.check(abs(got - self.shift) <= 1, f"register_exhaustive found shift {got}, generator used {self.shift}")
            samples.setdefault("imu_oracle_s", []).append(seconds)

    def _align(self, ops: Ops, samples: dict) -> None:
        report, seconds = ops.run("align", align.evaluate_alignment, self.image, self.warped)
        if report is not None:
            ops.check(
                abs(report.mean_px - self.true_mean_px) <= ALIGN_TOL_PX,
                f"alignment mean {report.mean_px!r} px vs closed form {self.true_mean_px!r} px",
            )
            samples.setdefault("align_s", []).append(seconds)

    def _simulate_voxelize(self, ops: Ops, samples: dict) -> None:
        result, seconds = ops.run("events", self._events)
        if result is not None:
            self._check_events(ops, *result)
            samples.setdefault("events_per_s", []).append(len(result[0]) / seconds)

    def round(self, ops: Ops, samples: dict) -> None:
        # the short operations are interleaved, with the oracle in the middle, so
        # each metric's samples spread over the round instead of one stretch of it
        for i in range(CALIBRATE_REPEATS):
            self._imu_register(ops, samples)
            self._align(ops, samples)
            self._simulate_voxelize(ops, samples)
            if i == CALIBRATE_REPEATS // 2:
                self._imu_oracle(ops, samples)


WORKLOADS = {w.name: w for w in (Enhance, Train, Calibrate)}
