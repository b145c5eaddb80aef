"""Spans and counts recorded from outside the program.

The benchmark wraps public functions of the ``evseen`` modules.  A function is
replaced under every module attribute that refers to it (``cli`` and ``seenet``
bind ``voxelize`` by name, ``pairing`` binds ``simulate_events``), so calls
are caught in the namespace of the module that makes them.  Spans stay in
memory until the run ends; Python's collector is recorded as a ``python.gc``
span, a child of whatever span it interrupted.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name, counter name, how to count the result)
WRAPPED = [
    ("cli", "main", "cli.main", None, None),
    ("seenet", "forward", "seenet.forward", None, None),
    ("seenet", "input_heads", "seenet.input_heads", None, None),
    ("seenet", "encode", "seenet.encode", None, None),
    ("seenet", "attention_mix", "seenet.attention_mix", None, None),
    ("seenet", "prompt_embed", "seenet.prompt_embed", None, None),
    ("seenet", "train_toy", "seenet.train_toy", None, None),
    ("autodiff", "matmul", "autodiff.matmul", None, None),
    ("autodiff", "softmax_lastdim", "autodiff.softmax_lastdim", None, None),
    ("autodiff", "collect_tape", "autodiff.collect_tape", "autodiff.tape_nodes", lambda tape: len(tape.nodes)),
    ("autodiff.Tensor", "backward", "autodiff.backward", None, None),
    ("formats", "read_ppm", "formats.read", None, None),
    ("formats", "read_events", "formats.read", None, None),
    ("formats", "load_checkpoint", "formats.read", None, None),
    ("formats", "write_ppm", "formats.write", None, None),
    ("formats", "write_manifest", "formats.write", None, None),
    ("formats", "content_hash", "formats.write", None, None),
    ("imu", "kalman_denoise", "imu.kalman_denoise", None, None),
    ("imu", "register", "imu.register", "imu.register_evaluations", lambda r: r.evaluations),
    ("imu", "register_exhaustive", "imu.register_exhaustive", "imu.register_exhaustive_evaluations", lambda r: r.evaluations),
    ("align", "detect_keypoints", "align.detect_keypoints", None, None),
    ("align", "match_keypoints", "align.match_keypoints", "align.matches", len),
    ("align", "ransac_affine", "align.ransac_affine", None, None),
    ("align", "evaluate_alignment", "align.evaluate_alignment", "align.inliers", lambda r: r.inlier_count),
    ("events", "simulate_events", "events.simulate_events", "events.count", len),
    ("events", "voxelize", "events.voxelize", None, None),
    ("pairing", "synth_scene", "pairing.synth_scene", None, None),
]

# per-layer metric -> span names whose self time it sums, per traced round
SELF_TIME = {
    "seenet.encode_s": ["seenet.encode"],
    "seenet.attention_mix_s": ["seenet.attention_mix"],
    "seenet.input_heads_s": ["seenet.input_heads"],
    "seenet.prompt_embed_s": ["seenet.prompt_embed"],
    "seenet.forward_self_s": ["seenet.forward"],
    "seenet.train_toy_self_s": ["seenet.train_toy"],
    "autodiff.matmul_s": ["autodiff.matmul"],
    "autodiff.softmax_lastdim_s": ["autodiff.softmax_lastdim"],
    "autodiff.backward_s": ["autodiff.backward"],
    "autodiff.collect_tape_s": ["autodiff.collect_tape"],
    "python.gc_s": ["python.gc"],
    "formats.read_s": ["formats.read"],
    "formats.write_s": ["formats.write"],
    "cli.enhance_self_s": ["cli.main"],
    "imu.kalman_denoise_s": ["imu.kalman_denoise"],
    "imu.register_s": ["imu.register"],
    "imu.register_exhaustive_s": ["imu.register_exhaustive"],
    "align.detect_keypoints_s": ["align.detect_keypoints"],
    "align.match_keypoints_s": ["align.match_keypoints"],
    "align.ransac_affine_s": ["align.ransac_affine"],
    "events.simulate_events_s": ["events.simulate_events"],
    "events.voxelize_s": ["events.voxelize"],
}
# per-layer metric -> span names whose self time it sums, per traced set-up
SETUP_SELF_TIME = {"pairing.synth_scene_s": ["pairing.synth_scene"]}
# counts: mean value per call of the recorded function
PER_CALL_COUNTS = [
    "autodiff.tape_nodes",
    "imu.register_evaluations",
    "imu.register_exhaustive_evaluations",
    "align.matches",
    "align.inliers",
    "events.count",
]


class Tracer:
    """Span list [name, start, end, parent index]; counts keyed by root span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int]] = []  # (name, value, root span)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_span: int | None = None
        self._forced = False

    # -- recording

    def begin(self, name: str) -> int:
        # the collector may run (and record its own span) while the entry is built,
        # so take the index after appending
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self._stack[0] if self._stack else -1))

    def collect(self) -> None:
        """A full collection the benchmark asks for, kept out of ``python.gc``."""
        self._forced = True
        try:
            gc.collect()
        finally:
            self._forced = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.begin("bench.gc" if self._forced else "python.gc")
        elif self._gc_span is not None:
            self.end(self._gc_span)
            self._gc_span = None
            if info.get("generation") == 2 and not self._forced:
                self.count("python.gc_gen2_collections", 1)

    def _wrap(self, fn, name, counter, how):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.count(counter, how(out))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing

    def install(self) -> None:
        """Wrap every WRAPPED function under each evseen module attribute bound to it."""
        if self._saved:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == "evseen" or n.startswith("evseen.")]
        for owner, attr, name, counter, how in WRAPPED:
            mod_name, _, cls_name = owner.partition(".")
            home = sys.modules[f"evseen.{mod_name}"]
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, counter, how))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counter, how)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reporting

    def _self_times(self) -> dict[int, dict[str, float]]:
        """Self time per span name, grouped by root span index."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _) in enumerate(self.spans):
            out[root[i]][name] += (end - start) - child[i]
        return out

    def per_layer(self, rounds: list[int], setups: list[int]) -> dict[str, float]:
        """Per-layer metrics from the traced rounds and set-ups (root span indices)."""
        by_root = self._self_times()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = statistics.median(sum(by_root[r].get(n, 0.0) for n in names) for r in rounds)
        for metric, names in SETUP_SELF_TIME.items():
            out[metric] = statistics.median(sum(by_root[r].get(n, 0.0) for n in names) for r in setups)
        in_rounds = set(rounds)
        for metric in PER_CALL_COUNTS:
            values = [v for n, v, r in self.counts if n == metric and r in in_rounds]
            out[metric] = sum(values) / len(values) if values else 0.0
        gen2 = [v for n, v, r in self.counts if n == "python.gc_gen2_collections" and r in in_rounds]
        out["python.gc_gen2_collections"] = sum(gen2) / len(rounds)
        out["seenet.encode_calls"] = self._encode_calls_per_sweep()
        return out

    def _encode_calls_per_sweep(self) -> float:
        sweeps = {i for i, s in enumerate(self.spans) if s[0] == "op.sweep5"}
        if not sweeps:
            return 0.0
        calls = 0
        for s in self.spans:
            if s[0] != "seenet.encode":
                continue
            p = s[3]
            while p >= 0 and p not in sweeps:
                p = self.spans[p][3]
            calls += p >= 0
        return calls / len(sweeps)

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
