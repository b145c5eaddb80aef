import numpy as np
import pytest

from evseen.imaging import RgbImage
from evseen.imu import ImuSequence


def textured_image(seed: int, height: int = 128, width: int = 128) -> RgbImage:
    """Blocky random texture with sharp square patches; plenty of corners."""
    rng = np.random.default_rng(seed)
    small = rng.uniform(0.0, 1.0, (height // 8, width // 8))
    base = 0.3 + 0.4 * np.kron(small, np.ones((8, 8)))[:height, :width]
    for _ in range(40):
        y = rng.integers(8, height - 16)
        x = rng.integers(8, width - 16)
        s = rng.integers(4, 10)
        base[y : y + s, x : x + s] = rng.uniform(0.0, 1.0)
    return RgbImage(np.clip(np.stack([base] * 3, axis=-1), 0.0, 1.0))


def smooth_trajectory(rng: np.random.Generator, n: int) -> np.ndarray:
    """Arm-like 6-channel trajectory: slow sweeps plus mid/high frequency detail."""
    t = np.arange(n) / 1000.0
    sig = np.zeros((n, 6))
    for ch in range(6):
        for f_lo, f_hi, a_lo, a_hi in [
            (0.05, 0.3, 0.5, 1.0),
            (0.5, 2.0, 0.3, 0.6),
            (4.0, 8.0, 0.1, 0.3),
        ]:
            f = rng.uniform(f_lo, f_hi)
            a = rng.uniform(a_lo, a_hi)
            sig[:, ch] += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return sig


def shifted_imu_pair(
    seed: int, n: int = 8000, shift: int | None = None, sigma: float = 0.01
) -> tuple[ImuSequence, ImuSequence, int]:
    """Source/target views of one trajectory; target content lags by ``shift``."""
    rng = np.random.default_rng(seed)
    if shift is None:
        shift = int(rng.integers(-2000, 2001))
    master = smooth_trajectory(rng, n + 5000)
    offset = 2500
    source = master[offset : offset + n] + rng.normal(0, sigma, (n, 6)) if sigma else master[offset : offset + n].copy()
    target_view = master[offset - shift : offset - shift + n]
    target = target_view + rng.normal(0, sigma, (n, 6)) if sigma else target_view.copy()
    return ImuSequence(source), ImuSequence(target), shift


def count_instantiated(params) -> int:
    """Parameters actually allocated by a ``SeeNetParams``, to check ``parameter_count`` against."""
    return sum(t.size for _, t in params.named_tensors())


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper that appends to the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture(scope="session")
def toy_training():
    """One trained toy model shared by the training-adjacent tests."""
    from evseen.pairing import enumerate_pairs, synth_scene
    from evseen.seenet import SeeNetConfig, train_toy

    recordings = synth_scene(0, lighting_scales=(0.25, 0.75, 1.0, 1.25), width=16, height=16)
    pair_set = enumerate_pairs(recordings)
    config = SeeNetConfig(seed=0)
    params, losses = train_toy(pair_set, config, steps=500, lr=0.15)
    return recordings, pair_set, config, params, losses
