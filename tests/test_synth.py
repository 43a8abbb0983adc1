import numpy as np
import pytest

from respox.synth import (
    SynthError,
    SynthProfile,
    gender_opposed_profile,
    profile_from_dict,
    profile_to_dict,
    stage_paired_profile,
    synth_generate,
)


def test_same_seed_same_bytes():
    profile = SynthProfile(seed=9, nights=3, duration_s=120)
    a = synth_generate(profile)
    b = synth_generate(profile)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.breathing, rb.breathing)
        np.testing.assert_array_equal(ra.spo2, rb.spo2)
        np.testing.assert_array_equal(ra.stages, rb.stages)


def test_nights_are_independent_of_batch():
    """Night k is a function of (seed, k), not of how many nights are drawn."""
    five = synth_generate(SynthProfile(seed=4, nights=5, duration_s=96))
    two = synth_generate(SynthProfile(seed=4, nights=2, duration_s=96))
    np.testing.assert_array_equal(five[1].spo2, two[1].spo2)
    np.testing.assert_array_equal(five[1].breathing, two[1].breathing)


def test_sampling_rates_and_lengths():
    record = synth_generate(SynthProfile(seed=0, nights=1, duration_s=300))[0]
    assert record.fb == 10 and record.fo == 1
    assert record.breathing.shape == (3000,)
    assert record.spo2.shape == (300,)
    assert record.stages.shape == (300,)
    assert record.breathing.dtype == np.float32


def test_spo2_stays_in_range_and_stages_cover_codes():
    records = synth_generate(SynthProfile(seed=1, nights=4, duration_s=600))
    spo2 = np.concatenate([r.spo2 for r in records])
    assert spo2.min() >= 0.0 and spo2.max() <= 100.0
    stages = np.concatenate([r.stages for r in records])
    assert set(np.unique(stages)) <= {0, 1, 2}


def test_genders_alternate():
    records = synth_generate(SynthProfile(seed=2, nights=4, duration_s=96))
    assert [r.gender for r in records] == [0, 1, 0, 1]


def test_missing_rate_emits_unlabeled_seconds():
    records = synth_generate(SynthProfile(seed=3, nights=2, duration_s=600, missing_rate=0.3))
    stages = np.concatenate([r.stages for r in records])
    frac = float(np.mean(stages == 255))
    assert 0.15 < frac < 0.45


def test_group_offsets_reach_the_series():
    """Opposite per-gender offsets must separate the per-gender SpO2 means."""
    profile = SynthProfile(
        seed=5,
        nights=12,
        duration_s=480,
        offsets=((2.0, 2.0, 2.0), (-2.0, -2.0, -2.0)),
        spo2_noise=0.2,
    )
    records = synth_generate(profile)
    mean0 = np.mean(np.concatenate([r.spo2 for r in records if r.gender == 0]))
    mean1 = np.mean(np.concatenate([r.spo2 for r in records if r.gender == 1]))
    assert abs((mean0 - mean1) - 4.0) < 0.3


def test_profile_dict_roundtrip_and_unknown_keys():
    profile = SynthProfile(seed=7, nights=2, spo2_base=93.0)
    assert profile_from_dict(profile_to_dict(profile)) == profile
    with pytest.raises(SynthError):
        profile_from_dict({"seed": 0, "wavelength": 3})


def test_profile_validation():
    with pytest.raises(SynthError):
        SynthProfile(nights=0).validate()
    with pytest.raises(SynthError):
        SynthProfile(missing_rate=1.5).validate()
    for bad in ((60.5, 600), (60.0, 600), (True, 600)):
        with pytest.raises(SynthError, match="dwell_range_s entries must be integers"):
            SynthProfile(dwell_range_s=bad)
    assert SynthProfile(dwell_range_s=(np.int32(60), 600)).dwell_range_s == (60, 600)


def test_paired_stage_profile_has_two_stages_and_contrast():
    profile = stage_paired_profile(seed=0)
    records = synth_generate(profile)
    stages = np.concatenate([r.stages for r in records])
    assert set(np.unique(stages)) == {0, 1}
    assert profile.slopes[0][0] * profile.slopes[0][1] < 0  # opposed responses


def test_gender_opposed_profile_flips_slope_sign():
    profile = gender_opposed_profile(seed=0)
    assert profile.slopes[0][0] > 0 > profile.slopes[1][0]
