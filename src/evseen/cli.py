"""Command-line surface for batch use.

Exit codes: 1 usage, 2 domain error, 3 I/O error, 4 numeric failure.  Every
output-producing run writes a manifest recording arguments, input hashes, seeds,
and produced files.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import align, autodiff, formats, imu, pairing, seenet
from .events import simulate_events, voxelize_stream
from .imaging import RadianceField, RgbImage

USAGE_EXIT, DOMAIN_EXIT, IO_EXIT, NUMERIC_EXIT = 1, 2, 3, 4
_ENHANCED_NAME = "enhanced_{:.2f}.ppm"  # one output per prompt, named to two decimals


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _manifest(out_dir: Path, command: str, args: dict, inputs: list[Path], outputs: list[Path]) -> None:
    def clean(v):
        if isinstance(v, (str, int, float, bool)) or v is None:
            return v
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, Path):
            return str(v)
        return None  # argparse plumbing (e.g. the dispatch function)

    payload = {
        "command": command,
        "args": {k: clean(v) for k, v in args.items() if k != "func"},
        "inputs": {str(p): formats.content_hash(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    formats.write_manifest(out_dir / "manifest.json", payload)


# --------------------------------------------------------------------------- subcommands


def _cmd_simulate(ns: argparse.Namespace) -> int:
    stack = formats.read_evsf(ns.field)
    if stack.ndim != 3:
        raise ValueError("radiance field container must be 3-d (frames, height, width)")
    times = [ns.t0_us + i * ns.dt_us for i in range(stack.shape[0])]  # Python ints: RadianceField range-checks them
    field = RadianceField(np.maximum(stack, 0.0), times)
    stream = simulate_events(field, ns.threshold, ns.floor)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "events.evt0"
    formats.write_events(stream, out_path)
    outputs = [out_path]
    if ns.csv:
        csv_path = out_dir / "events.csv"
        formats.write_events_csv(stream, csv_path)
        outputs.append(csv_path)
    _manifest(out_dir, "simulate", vars(ns), [Path(ns.field)], outputs)
    print(f"events={len(stream)}")
    return 0


def _cmd_voxelize(ns: argparse.Namespace) -> int:
    stream = formats.read_events(ns.events)
    grid = voxelize_stream(stream, ns.bins, ns.t_start, ns.t_end)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "voxels.evsf"
    formats.write_evsf(grid.values, out_path)
    _manifest(out_dir, "voxelize", vars(ns), [Path(ns.events)], [out_path])
    print(f"sum={float(grid.values.sum())!r}")
    return 0


def _cmd_register_imu(ns: argparse.Namespace) -> int:
    source = formats.read_imu_csv(ns.source)
    target = formats.read_imu_csv(ns.target)
    if ns.denoise:
        source = imu.kalman_denoise(source)
        target = imu.kalman_denoise(target)
    reg = imu.register(source, target, ns.l_min_fraction)
    print(formats.registration_line(reg))
    if ns.oracle:
        ref = imu.register_exhaustive(source, target, ns.l_min_fraction)
        agree = (reg.bias_samples, reg.length, reg.score) == (ref.bias_samples, ref.length, ref.score)
        print(f"oracle={formats.registration_line(ref)}")
        print("agree" if agree else "disagree")
        if not agree:
            return NUMERIC_EXIT
    return 0


def _cmd_eval_align(ns: argparse.Namespace) -> int:
    img_a = formats.read_ppm(ns.image_a)
    img_b = formats.read_ppm(ns.image_b)
    report = align.evaluate_alignment(
        img_a, img_b, ns.max_keypoints, ns.ratio, ns.iterations, ns.inlier_px, ns.seed
    )
    print(f"{report.mean_px!r},{report.max_px!r},{report.inlier_count},{report.match_count}")
    if ns.transform_out:
        Path(ns.transform_out).write_text(report.transform.to_line() + "\n", encoding="utf-8")
    return 0


def _cmd_pair(ns: argparse.Namespace) -> int:
    inputs: list[Path] = []
    if ns.synth_seed is not None:
        scales = tuple(float(s) for s in ns.scales.split(","))
        recordings = pairing.synth_scene(ns.synth_seed, scales)
    elif ns.manifest is not None:
        inputs.append(Path(ns.manifest))
        recordings = formats.read_scene_manifest(ns.manifest)
    else:
        raise ValueError("pair requires either --synth-seed or --manifest")
    pair_set = pairing.enumerate_pairs(recordings)
    out_dir = Path(ns.out)  # made only once the scene is in hand: bad input leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    if ns.synth_seed is not None:  # a synthesized scene is written beside its pairs
        formats.write_scene_manifest(recordings, out_dir / "scene.txt")
    pairs_path = out_dir / "pairs.csv"
    lines = ["input_index,target_index"] + [f"{i},{t}" for i, t in pair_set.pairs]
    pairs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _manifest(out_dir, "pair", vars(ns), inputs, [pairs_path])
    print(f"pairs={len(pair_set)}")
    return 0


def _training_scene(seed: int) -> list[pairing.SceneRecording]:
    # one low-light input plus three normal targets spanning the exposure band
    return pairing.synth_scene(seed, lighting_scales=(0.25, 0.75, 1.0, 1.25), width=16, height=16)


def _cmd_train_toy(ns: argparse.Namespace) -> int:
    inputs: list[Path] = []
    if ns.config is not None:
        inputs.append(Path(ns.config))
        config = formats.read_config(ns.config, seenet.SeeNetConfig)
    else:
        config = seenet.SeeNetConfig(seed=ns.seed)
    recordings = _training_scene(ns.seed)
    pair_set = pairing.enumerate_pairs(recordings)
    # a diverging run overflows in the engine; seenet's finite checks still raise, as one message
    with np.errstate(over="ignore", invalid="ignore"):
        params, losses = seenet.train_toy(pair_set, config, ns.steps, ns.lr)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.evck"
    seenet.save_params(params, config, ckpt)
    curve = out_dir / "losses.csv"
    curve.write_text("step,loss\n" + "\n".join(f"{i},{v!r}" for i, v in enumerate(losses)) + "\n")
    _manifest(out_dir, "train-toy", vars(ns), inputs, [ckpt, curve])
    print(f"final_loss={losses[-1]!r}")
    return 0


def _parse_sweep(spec: str) -> list[float]:
    try:
        a, b, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ValueError("sweep must be start:stop:step") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError("sweep start, stop and step must be finite")
    if not 0 < a <= b < 1:
        raise ValueError("sweep prompts need 0 < start <= stop < 1")
    if step < 0.01:  # outputs are named by the prompt to two decimals
        raise ValueError("sweep step must be at least 0.01")
    values = []
    v = a
    while v <= b + 1e-9:
        values.append(round(v, 10))
        v += step
    named: dict[str, float] = {}
    for v in values:
        name = _ENHANCED_NAME.format(v)
        if name in named:
            raise ValueError(f"sweep prompts {named[name]} and {v} would both be written to {name}")
        named[name] = v
    return values


def _render_grid(tiles: list[tuple[float, RgbImage]]) -> RgbImage:
    """Single-row grid with the prompt value printed beneath each tile."""
    label_h = 9
    tile_h = tiles[0][1].height
    tile_w = tiles[0][1].width
    canvas = np.ones((tile_h + label_h, tile_w * len(tiles), 3))
    for i, (value, img) in enumerate(tiles):
        canvas[:tile_h, i * tile_w : (i + 1) * tile_w] = img.values
        _draw_text(canvas, f"{value:.2f}", i * tile_w + 1, tile_h + 2)
    return RgbImage(np.clip(canvas, 0.0, 1.0))


_GLYPHS = {
    "0": ["111", "101", "101", "101", "111"],
    "1": ["010", "110", "010", "010", "111"],
    "2": ["111", "001", "111", "100", "111"],
    "3": ["111", "001", "111", "001", "111"],
    "4": ["101", "101", "111", "001", "001"],
    "5": ["111", "100", "111", "001", "111"],
    "6": ["111", "100", "111", "101", "111"],
    "7": ["111", "001", "010", "010", "010"],
    "8": ["111", "101", "111", "101", "111"],
    "9": ["111", "101", "111", "001", "111"],
    ".": ["000", "000", "000", "000", "010"],
}


def _draw_text(canvas: np.ndarray, text: str, x: int, y: int) -> None:
    for ch in text:
        glyph = _GLYPHS.get(ch)
        if glyph is None:
            x += 4
            continue
        for gy, row in enumerate(glyph):
            for gx, bit in enumerate(row):
                if bit == "1" and 0 <= y + gy < canvas.shape[0] and 0 <= x + gx < canvas.shape[1]:
                    canvas[y + gy, x + gx] = 0.0
        x += 4


def _cmd_enhance(ns: argparse.Namespace) -> int:
    params, config = seenet.load_params(Path(ns.checkpoint))
    img = formats.read_ppm(ns.input)
    stream = formats.read_events(ns.events)
    if stream.width != img.width or stream.height != img.height:
        raise ValueError(
            f"event sensor {stream.width}x{stream.height} does not match image {img.width}x{img.height}"
        )
    grid = voxelize_stream(stream, config.voxel_bins)
    if ns.prompt_sweep:
        prompts = _parse_sweep(ns.prompt_sweep)
    else:
        prompts = [ns.prompt if ns.prompt is not None else 0.5]
    rendered = seenet.forward_prompts(img, grid, prompts, config, params)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for value, image in zip(prompts, rendered):
        out_path = out_dir / _ENHANCED_NAME.format(value)
        formats.write_ppm(image, out_path)
        outputs.append(out_path)
    if len(prompts) > 1:
        grid_path = out_dir / "sweep_grid.ppm"
        formats.write_ppm(_render_grid(list(zip(prompts, rendered))), grid_path)
        outputs.append(grid_path)
    args = dict(vars(ns))
    args["prompts"] = prompts
    _manifest(out_dir, "enhance", args, [Path(ns.input), Path(ns.events), Path(ns.checkpoint)], outputs)
    print(f"rendered={len(prompts)}")
    return 0


def _cmd_grad_check(ns: argparse.Namespace) -> int:
    if not (math.isfinite(ns.tol) and ns.tol > 0):
        raise ValueError("tolerance must be finite and positive")
    worst = 0.0
    rng = np.random.default_rng(ns.seed)
    for shape in [(3,), (2, 3), (4, 4)]:
        x = autodiff.Tensor(rng.normal(size=shape), requires_grad=True)
        worst = max(worst, autodiff.max_grad_error(lambda t: autodiff.mean(t * t * 0.5 + t), x))
    config = seenet.SeeNetConfig(channels=8, heads=2, loop_count=2, voxel_bins=4, pos_dim=4)
    errors = seenet.end_to_end_grad_errors(config, height=4, width=4, seed=ns.seed)
    worst = max(worst, max(errors.values()))
    ok = worst < ns.tol
    print(f"{'PASS' if ok else 'FAIL'} max_rel_err={worst:.3e}")
    return 0 if ok else NUMERIC_EXIT


# --------------------------------------------------------------------------- entry


def build_parser() -> _Parser:
    parser = _Parser(prog="evseen", description="event-assisted brightness adjustment toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="generate events from a radiance field container")
    p.add_argument("--field", required=True, help="EVSF file with (frames, H, W) radiance")
    p.add_argument("--t0-us", type=int, default=0, dest="t0_us")
    p.add_argument("--dt-us", type=int, default=10_000, dest="dt_us")
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--floor", type=float, default=1e-6)
    p.add_argument("--csv", action="store_true", help="also write events.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("voxelize", help="bin an event file into a voxel grid")
    p.add_argument("--events", required=True)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--t-start", type=int, default=None, dest="t_start")
    p.add_argument("--t-end", type=int, default=None, dest="t_end")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("register-imu", help="temporal registration of two IMU CSV files")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--l-min-fraction", type=float, default=0.5, dest="l_min_fraction")
    p.add_argument("--denoise", action="store_true", help="Kalman-denoise before matching")
    p.add_argument("--oracle", action="store_true", help="also run the exhaustive search")
    p.set_defaults(func=_cmd_register_imu)

    p = sub.add_parser("eval-align", help="spatial alignment metric for an image pair")
    p.add_argument("--image-a", required=True, dest="image_a")
    p.add_argument("--image-b", required=True, dest="image_b")
    p.add_argument("--max-keypoints", type=int, default=300, dest="max_keypoints")
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--inlier-px", type=float, default=2.0, dest="inlier_px")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transform-out", default=None, dest="transform_out", help="write the fitted affine as 6 floats")
    p.set_defaults(func=_cmd_eval_align)

    p = sub.add_parser("pair", help="enumerate training pairs for a scene")
    p.add_argument("--synth-seed", type=int, default=None, dest="synth_seed")
    p.add_argument("--scales", default="0.125,0.015625,0.001,1.0")
    p.add_argument("--manifest", default=None, help="existing scene manifest to pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("train-toy", help="train the toy model on a synthetic scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.15)
    p.add_argument("--config", default=None, help="flat key=value model config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("enhance", help="run the network over an image/event pair")
    p.add_argument("--input", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", required=True)
    prompts = p.add_mutually_exclusive_group()
    prompts.add_argument("--prompt", type=float, default=None)
    prompts.add_argument("--prompt-sweep", default=None, dest="prompt_sweep", help="start:stop:step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("grad-check", help="verify autodiff against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "func", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: missing subcommand\n")
        return USAGE_EXIT
    try:
        return ns.func(ns)
    except (formats.FormatError, OSError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return IO_EXIT
    except ArithmeticError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return NUMERIC_EXIT
    except (ValueError, IndexError, MemoryError) as exc:  # MemoryError: an input asked for more than the host can give
        sys.stderr.write(f"domain error: {exc}\n")
        return DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
