"""Seeded synthetic nights for the benchmark, written as RSP1 record files.

The generator lives here, not in the program, so a change to respox's own
synthesis code cannot change what the benchmark feeds it: the same seed
always gives byte-identical record files.  Each night couples a slowly
drifting breathing depth (an Ornstein-Uhlenbeck envelope), a drifting
breathing rate and a semi-Markov sleep-stage chain.  SpO2 follows a
trailing mean of the envelope through a tanh response whose slope flips
sign with gender, the shape of the repository's gated-benefit data.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

FB = 10          # breathing samples per second
FO = 1           # SpO2 samples per second
ENV_TAU_S = 45.0
ENV_SIGMA = 0.08
BPM_RANGE = (10.0, 22.0)
BREATH_NOISE = 0.05
SPO2_BASE = 95.0
SPO2_NOISE = 0.2
RESPONSE_SLOPE = 2.5  # percentage points; negated for gender 1
LAG_S = 30
STAGE_PROBS = (0.15, 0.25, 0.6)
DWELL_RANGE_S = (60, 180)


def _night(rng: np.random.Generator, duration_s: int, gender: int) -> dict:
    t = duration_s
    decay = 1.0 - 1.0 / ENV_TAU_S
    noise = rng.normal(0.0, ENV_SIGMA, size=t)
    dev = np.empty(t)
    dev[0] = 0.0
    for i in range(1, t):
        dev[i] = decay * dev[i - 1] + noise[i]
    env = np.clip(1.0 + dev, 0.2, 2.0)

    bpm = np.clip(rng.uniform(*BPM_RANGE) + np.cumsum(rng.normal(0.0, 0.5, size=t)), *BPM_RANGE)
    axis_b = np.arange(FB * t) / FB
    axis_1 = np.arange(t, dtype=np.float64)
    phase = 2.0 * np.pi * np.cumsum(np.interp(axis_b, axis_1, bpm) / 60.0) / FB
    breathing = np.interp(axis_b, axis_1, env) * np.sin(phase)
    breathing += rng.normal(0.0, BREATH_NOISE, size=FB * t)

    stages = np.empty(t, dtype=np.uint8)
    pos = 0
    while pos < t:
        dwell = int(rng.integers(DWELL_RANGE_S[0], DWELL_RANGE_S[1] + 1))
        stages[pos : pos + dwell] = rng.choice(len(STAGE_PROBS), p=STAGE_PROBS)
        pos += dwell

    csum = np.concatenate([[0.0], np.cumsum(env)])
    ends = np.arange(1, t + 1)
    starts = np.maximum(0, ends - LAG_S)
    drive = np.tanh(2.0 * ((csum[ends] - csum[starts]) / (ends - starts) - 1.0))
    slope = RESPONSE_SLOPE if gender == 0 else -RESPONSE_SLOPE
    spo2 = SPO2_BASE + slope * drive + rng.normal(0.0, SPO2_NOISE, size=t)
    return {
        "breathing": breathing.astype("<f4"),
        "spo2": np.clip(spo2, 0.0, 100.0).astype("<f4"),
        "stages": stages,
    }


def write_rsp1(path: str, subject_id: str, gender: int, night: dict) -> int:
    """Write one night in the RSP1 container layout; returns the file size."""
    duration_s = night["spo2"].shape[0] // FO
    header = json.dumps(
        {
            "subject_id": subject_id,
            "dataset_id": "perfbench",
            "fb": FB,
            "fo": FO,
            "duration_s": duration_s,
            "gender": gender,
            "vars": {},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"RSP1")
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(night["breathing"].tobytes())
        fh.write(night["spo2"].tobytes())
        fh.write(night["stages"].tobytes())
    return os.path.getsize(path)


def write_nights(directory: str, seed: int, nights: int, duration_s: int) -> list[str]:
    """Write `nights` nights of `duration_s` seconds; genders alternate 0, 1, 0, ..."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for n in range(nights):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        gender = n % 2
        path = os.path.join(directory, f"s{n:04d}.rsp")
        write_rsp1(path, f"s{n:04d}", gender, _night(rng, duration_s, gender))
        paths.append(path)
    return paths
