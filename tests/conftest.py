import json
import struct

import numpy as np
import pytest

from respox.config import tiny_model_config
from respox.data import crop_to_multiple
from respox.model import build_model
from respox.synth import SynthProfile, synth_generate


@pytest.fixture(scope="session")
def micro_cfg():
    return tiny_model_config("micro")


@pytest.fixture(scope="session")
def tiny_cfg():
    return tiny_model_config("tiny")


@pytest.fixture(scope="session")
def micro_records():
    """Six short nights sized for the micro position budget."""
    profile = SynthProfile(seed=3, nights=6, duration_s=96)
    return [crop_to_multiple(r) for r in synth_generate(profile)]


@pytest.fixture(scope="session")
def micro_params(micro_cfg):
    return build_model(micro_cfg, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def rewrite_header():
    """rewrite(path, edit): replace a container file's JSON header by edit(header), keeping the body."""

    def rewrite(path, edit):
        raw = path.read_bytes()
        (length,) = struct.unpack("<I", raw[4:8])
        text = json.dumps(edit(json.loads(raw[8 : 8 + length]))).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text + raw[8 + length :])

    return rewrite
