"""The network against ``benchmark/reference.py``, an independent plain-numpy
forward written from the method's description, over small configurations."""

import ast
import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from evseen.bayer import PATTERNS
from evseen.events import VoxelGrid
from evseen.imaging import RgbImage
from evseen.seenet import SeeNetConfig, _forward_tensor, forward_prompts, init_params

REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference.py"
_spec = importlib.util.spec_from_file_location("evseen_oracle_reference", REFERENCE)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

FLOAT32_GAP = 1e-5  # a 390th of an 8-bit level; 3,000 drawn examples measured at most 2.3e-6
FLOAT64_GAP = 1e-12  # the float64 taped forward measured within 8e-15
# at two or three channels a layer norm's spread can be tiny beside its mean,
# and float32 rounding of that difference moved the image by up to 2.2e-4
CHANNELS = [4, 6, 8, 12, 16]


def test_reference_imports_nothing_from_evseen():
    imported = set()
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not any(name.split(".")[0] == "evseen" for name in imported), imported


@st.composite
def configs(draw):
    channels = draw(st.sampled_from(CHANNELS))
    return SeeNetConfig(
        channels=channels,
        heads=draw(st.sampled_from([h for h in range(1, channels + 1) if channels % h == 0])),
        loop_count=draw(st.integers(1, 3)),
        decoder_layers=draw(st.integers(2, 4)),
        voxel_bins=draw(st.integers(1, 4)),
        pos_dim=draw(st.integers(3, 6)),
        prompt_merge=draw(st.sampled_from(["add", "multiply"])),
        bayer=draw(st.sampled_from(PATTERNS)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(
    config=configs(),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    prompts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
)
def test_forward_matches_the_independent_reference(config, height, width, prompts):
    rng = np.random.default_rng(config.seed)
    img = RgbImage(rng.uniform(0.0, 1.0, (height, width, 3)))
    voxels = rng.normal(0.0, 0.5, (height, width, config.voxel_bins))
    params = init_params(config)
    arrays = {name: t.data for name, t in params.named_tensors()}
    fields = {f: getattr(config, f) for f in ("heads", "loop_count", "prompt_merge", "bayer", "pos_dim")}
    grid = VoxelGrid(voxels, 0, 1)
    for prompt, got in zip(prompts, forward_prompts(img, grid, prompts, config, params)):
        want = ref.forward(img.values, voxels, prompt, arrays, fields)
        assert np.abs(got.values - want).max() <= FLOAT32_GAP, prompt
        taped = _forward_tensor(img, grid, prompt, config, params)
        assert taped.data.dtype == np.float64 and taped._node is not None
        assert np.abs(taped.data - want).max() <= FLOAT64_GAP, prompt
