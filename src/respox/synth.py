"""Synthetic night generator with a known breathing-to-SpO2 ground truth.

Each night couples three seeded processes at 1 Hz:

  * an Ornstein-Uhlenbeck amplitude envelope (how deeply the subject breathes),
  * a random-walk breathing rate inside a breaths-per-minute band,
  * a semi-Markov stage chain with uniformly drawn dwell times.

The breathing channel is the envelope-modulated sinusoid plus noise at 10 Hz.
SpO2 responds to a trailing moving average of the envelope through a tanh
saturation whose offset and slope depend on (gender, stage) - those response
tables are the generator's ground truth, available to tests as an oracle.
Nights alternate gender; every parameter lives in the profile, so identical
profiles produce identical records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .container import dataclass_from_json, int_entries
from .data import STAGE_MISSING, STAGE_NONREM, Record

__all__ = [
    "SynthProfile",
    "SynthError",
    "synth_generate",
    "profile_from_dict",
    "profile_to_dict",
    "stage_paired_profile",
    "gender_opposed_profile",
]


class SynthError(ValueError):
    """Invalid generator profile."""


def _pairs(value):
    return tuple(tuple(float(x) for x in row) for row in value)


@dataclass
class SynthProfile:
    seed: int = 0
    nights: int = 20
    duration_s: int = 960
    dataset_id: str = "synth"
    fb: int = 10
    fo: int = 1
    bpm_range: tuple = (10.0, 22.0)
    bpm_step: float = 0.5
    env_mu: float = 1.0
    env_tau_s: float = 45.0
    env_sigma: float = 0.08
    env_clip: tuple = (0.2, 2.0)
    breath_noise: float = 0.05
    spo2_base: float = 95.0
    spo2_noise: float = 0.3
    response_gain: float = 2.0
    lag_s: int = 30
    # response tables indexed [gender][stage]
    offsets: tuple = ((0.5, 0.0, -0.5), (-0.5, 0.0, 0.5))
    slopes: tuple = ((1.5, 1.5, 1.5), (1.5, 1.5, 1.5))
    stage_probs: tuple = (0.15, 0.25, 0.6)
    dwell_range_s: tuple = (60, 180)
    missing_rate: float = 0.0

    def __post_init__(self):
        self.bpm_range = tuple(float(x) for x in self.bpm_range)
        self.env_clip = tuple(float(x) for x in self.env_clip)
        self.offsets = _pairs(self.offsets)
        self.slopes = _pairs(self.slopes)
        self.stage_probs = tuple(float(x) for x in self.stage_probs)
        self.dwell_range_s = int_entries(self.dwell_range_s, SynthError, "dwell_range_s")

    @property
    def n_stages(self) -> int:
        return len(self.stage_probs)

    def validate(self) -> "SynthProfile":
        if not len(self.bpm_range) == len(self.env_clip) == len(self.dwell_range_s) == 2:
            raise SynthError("bpm_range, env_clip and dwell_range_s are [low, high] pairs")
        if self.nights < 1:
            raise SynthError(f"nights must be >= 1, got {self.nights}")
        if self.duration_s < 1:
            raise SynthError(f"duration_s must be >= 1, got {self.duration_s}")
        if self.fb <= 0 or self.fo <= 0 or self.fb % self.fo != 0:
            raise SynthError(f"sampling rates must be positive with fo dividing fb, got {self.fb}/{self.fo}")
        if not 0 < self.bpm_range[0] <= self.bpm_range[1]:
            raise SynthError(f"breaths-per-minute range must be positive and ordered, got {self.bpm_range}")
        if self.env_tau_s <= 0 or self.env_sigma < 0 or self.env_mu <= 0:
            raise SynthError("envelope process needs positive mean and time constant, nonnegative sigma")
        if not 0 < self.env_clip[0] <= self.env_clip[1]:
            raise SynthError(f"envelope clip band must be positive and ordered, got {self.env_clip}")
        if self.lag_s < 1:
            raise SynthError(f"lag_s must be >= 1, got {self.lag_s}")
        if len(self.offsets) != 2 or len(self.slopes) != 2:
            raise SynthError("response tables are indexed by gender in {0, 1}")
        if any(len(row) != self.n_stages for row in self.offsets + self.slopes):
            raise SynthError(
                f"response rows must match the {self.n_stages} stage probabilities"
            )
        if self.n_stages < 1 or abs(sum(self.stage_probs) - 1.0) > 1e-9 or min(self.stage_probs) < 0:
            raise SynthError(f"stage_probs must be a distribution, got {self.stage_probs}")
        if self.n_stages > 3:
            raise SynthError("at most 3 stages fit the record format's stage alphabet")
        if not 1 <= self.dwell_range_s[0] <= self.dwell_range_s[1]:
            raise SynthError(f"dwell range must be ordered and >= 1 s, got {self.dwell_range_s}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise SynthError(f"missing_rate must lie in [0, 1), got {self.missing_rate}")
        return self


def profile_to_dict(profile: SynthProfile) -> dict:
    payload = asdict(profile)
    for key, value in payload.items():
        if isinstance(value, tuple):
            payload[key] = [list(v) if isinstance(v, tuple) else v for v in value]
    return payload


def profile_from_dict(payload: dict) -> SynthProfile:
    return dataclass_from_json(SynthProfile, payload, SynthError, "profile").validate()


def _stage_series(rng, profile: SynthProfile, t: int) -> np.ndarray:
    stages = np.empty(t, dtype=np.uint8)
    pos = 0
    while pos < t:
        stage = int(rng.choice(profile.n_stages, p=profile.stage_probs))
        dwell = int(rng.integers(profile.dwell_range_s[0], profile.dwell_range_s[1] + 1))
        stages[pos : pos + dwell] = stage
        pos += dwell
    if profile.missing_rate > 0.0:
        stages[rng.random(t) < profile.missing_rate] = STAGE_MISSING
    return stages


def _night(rng: np.random.Generator, profile: SynthProfile, night: int) -> Record:
    t = profile.duration_s
    gender = night % 2

    # amplitude envelope, 1 Hz Ornstein-Uhlenbeck pulled toward env_mu
    env = np.empty(t)
    env[0] = profile.env_mu
    noise = rng.normal(0.0, profile.env_sigma, size=t)
    for i in range(1, t):
        env[i] = env[i - 1] + (profile.env_mu - env[i - 1]) / profile.env_tau_s + noise[i]
    env = np.clip(env, profile.env_clip[0], profile.env_clip[1])

    # breathing rate random walk, then phase accumulation at fb Hz
    bpm = np.empty(t)
    bpm[0] = rng.uniform(*profile.bpm_range)
    steps = rng.normal(0.0, profile.bpm_step, size=t)
    for i in range(1, t):
        bpm[i] = np.clip(bpm[i - 1] + steps[i], *profile.bpm_range)
    n_b = profile.fb * t
    axis_b = np.arange(n_b) / profile.fb
    axis_1 = np.arange(t, dtype=np.float64)
    env_b = np.interp(axis_b, axis_1, env)
    freq_b = np.interp(axis_b, axis_1, bpm) / 60.0
    phase = 2.0 * np.pi * np.cumsum(freq_b) / profile.fb
    breathing = env_b * np.sin(phase) + rng.normal(0.0, profile.breath_noise, size=n_b)

    stages = _stage_series(rng, profile, t)

    # trailing moving average of the envelope drives the saturating response
    lag = profile.lag_s
    csum = np.concatenate([[0.0], np.cumsum(env)])
    starts = np.maximum(0, np.arange(t) - lag + 1)
    trailing = (csum[np.arange(t) + 1] - csum[starts]) / (np.arange(t) + 1 - starts)
    drive = np.tanh(profile.response_gain * (trailing - profile.env_mu))

    stage_for_response = np.where(stages == STAGE_MISSING, STAGE_NONREM % profile.n_stages, stages).astype(np.int64)
    offsets = np.asarray(profile.offsets[gender])[stage_for_response]
    slopes = np.asarray(profile.slopes[gender])[stage_for_response]
    spo2 = profile.spo2_base + offsets + slopes * drive
    spo2 = spo2 + rng.normal(0.0, profile.spo2_noise, size=t)
    spo2 = np.clip(spo2, 0.0, 100.0)

    return Record(
        subject_id=f"s{night:04d}",
        dataset_id=profile.dataset_id,
        fb=profile.fb,
        fo=profile.fo,
        breathing=breathing.astype(np.float32),
        spo2=spo2.astype(np.float32),
        stages=stages,
        gender=gender,
        vars={},
    ).validate()


def synth_generate(profile: SynthProfile) -> list:
    """All nights of a profile, one independent seeded stream per night."""
    profile.validate()
    records = []
    for night in range(profile.nights):
        rng = np.random.default_rng(np.random.SeedSequence([profile.seed, night]))
        records.append(_night(rng, profile, night))
    return records


def stage_paired_profile(seed: int = 0, nights: int = 24, duration_s: int = 480) -> SynthProfile:
    """Two stages whose response slopes differ sharply, identically for both genders.

    The composite (gender, stage) state space has 4 states generated by only
    2 distinct response mappings - the pairing a gate-map builder should
    recover by grouping states across gender.
    """
    return SynthProfile(
        seed=seed,
        nights=nights,
        duration_s=duration_s,
        offsets=((0.0, 0.0), (0.0, 0.0)),
        slopes=((3.0, -3.0), (3.0, -3.0)),
        stage_probs=(0.5, 0.5),
        dwell_range_s=(40, 120),
        spo2_noise=0.2,
    )


def gender_opposed_profile(seed: int = 0, nights: int = 40, duration_s: int = 240) -> SynthProfile:
    """Response slope flips sign with gender, so a single shared head must compromise."""
    return SynthProfile(
        seed=seed,
        nights=nights,
        duration_s=duration_s,
        offsets=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        slopes=((2.5, 2.5, 2.5), (-2.5, -2.5, -2.5)),
        spo2_noise=0.2,
    )
