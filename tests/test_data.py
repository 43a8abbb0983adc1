import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox import container
from respox.data import (
    BadMagicError,
    LengthMismatchError,
    Record,
    RecordError,
    RecordTooShortError,
    TruncatedRecordError,
    ValueRangeError,
    crop_to_multiple,
    filter_split,
    load_dataset,
    normalize_breathing,
    read_record,
    record_file_size,
    split_subjects,
    write_record,
)


def make_record(duration_s=48, fb=10, fo=1, seed=0, gender=0, **kw):
    rng = np.random.default_rng(seed)
    return Record(
        subject_id=kw.get("subject_id", "s0"),
        dataset_id=kw.get("dataset_id", "unit"),
        fb=fb,
        fo=fo,
        breathing=rng.normal(size=fb * duration_s).astype(np.float32),
        spo2=np.clip(rng.normal(95, 1, size=fo * duration_s), 0, 100).astype(np.float32),
        stages=rng.integers(0, 3, size=fo * duration_s).astype(np.uint8),
        gender=gender,
        vars=kw.get("vars", {"age": 61}),
    )


@given(duration=st.integers(1, 40), seed=st.integers(0, 2**31 - 1), gender=st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_roundtrip_preserves_everything(tmp_path_factory, duration, seed, gender):
    record = make_record(duration_s=duration, seed=seed, gender=gender)
    path = tmp_path_factory.mktemp("rsp") / "night.rsp"
    write_record(record, str(path))
    back = read_record(str(path))
    assert back.subject_id == record.subject_id
    assert back.dataset_id == record.dataset_id
    assert (back.fb, back.fo, back.gender) == (record.fb, record.fo, record.gender)
    assert back.vars == record.vars
    np.testing.assert_array_equal(back.breathing, record.breathing)
    np.testing.assert_array_equal(back.spo2, record.spo2)
    np.testing.assert_array_equal(back.stages, record.stages)


def test_file_size_formula_is_exact(tmp_path):
    record = make_record(duration_s=30)
    path = tmp_path / "night.rsp"
    write_record(record, str(path))
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[4:8], "little")
    assert len(raw) == record_file_size(header_len, record.fb, record.fo, record.duration_s)


def test_write_is_deterministic(tmp_path):
    record = make_record()
    write_record(record, str(tmp_path / "a.rsp"))
    write_record(record, str(tmp_path / "b.rsp"))
    assert (tmp_path / "a.rsp").read_bytes() == (tmp_path / "b.rsp").read_bytes()


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "x.rsp"
    record = make_record()
    write_record(record, str(path))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_record(str(path))


def test_truncation_detected(tmp_path):
    path = tmp_path / "x.rsp"
    write_record(make_record(), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(TruncatedRecordError):
        read_record(str(path))


def test_short_array_read_detected(tmp_path, monkeypatch):
    # a file that shrinks after its size was checked: the array read itself must notice
    path = tmp_path / "x.rsp"
    write_record(make_record(), str(path))
    path.write_bytes(path.read_bytes()[:-7])
    monkeypatch.setattr(container, "check_body", lambda *args: None)
    with pytest.raises(TruncatedRecordError, match="stages truncated"):
        read_record(str(path))


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("fb", "ten", "fb"),
        ("fb", None, "fb"),
        ("fo", True, "fo"),
        ("duration_s", 48.0, "duration_s"),
        ("gender", True, "gender"),
        ("vars", {"age": "x"}, "vars.age"),
        ("vars", {"age": 61.5}, "vars.age"),
        ("vars", {"age": False}, "vars.age"),
        ("vars", [1], "vars"),
    ],
)
def test_badly_typed_header_field_is_a_record_error_naming_it(tmp_path, rewrite_header, key, value, named):
    path = tmp_path / "x.rsp"
    write_record(make_record(), str(path))
    rewrite_header(path, lambda header: {**header, key: value})
    with pytest.raises(RecordError) as info:
        read_record(str(path))
    assert str(info.value).startswith(f"{path}: header field {named!r} must be ")


def test_header_that_is_not_an_object_is_a_record_error(tmp_path, rewrite_header):
    # a string holding every required key passes a bare `key in header` test
    path = tmp_path / "x.rsp"
    write_record(make_record(), str(path))
    rewrite_header(path, lambda header: " ".join(header))
    with pytest.raises(RecordError, match="header is not a JSON object"):
        read_record(str(path))


# pinned sha256 of the record below: any drift in the framing, the header or
# the body changes it
GOLDEN_RECORD_SHA256 = "0614c7d872a258e86fef9cf707e16cac7f045e2f0c9060c4bdca81e42def59e3"


def test_record_bytes_match_golden(tmp_path):
    record = Record(
        subject_id="golden",
        dataset_id="unit",
        fb=2,
        fo=1,
        breathing=np.linspace(-1.5, 2.0, 24, dtype=np.float32),
        spo2=np.arange(88, 100, dtype=np.float32),
        stages=np.array([0, 1, 2, 255] * 3, dtype=np.uint8),
        gender=1,
        vars={"age": 61, "bmi": 27},
    )
    path = tmp_path / "golden.rsp"
    write_record(record, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_RECORD_SHA256


def test_trailing_garbage_detected(tmp_path):
    path = tmp_path / "x.rsp"
    write_record(make_record(), str(path))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(LengthMismatchError):
        read_record(str(path))


def test_out_of_range_spo2_rejected(tmp_path):
    record = make_record()
    record.spo2[3] = 101.0
    with pytest.raises(ValueRangeError):
        write_record(record, str(tmp_path / "x.rsp"))


@pytest.mark.parametrize("field, value", [("spo2", np.nan), ("breathing", np.nan), ("breathing", np.inf)])
def test_non_finite_values_rejected_on_write(tmp_path, field, value):
    record = make_record()
    getattr(record, field)[:] = value
    with pytest.raises(ValueRangeError):
        write_record(record, str(tmp_path / "x.rsp"))


@pytest.mark.parametrize("field", ["breathing", "spo2"])
def test_non_finite_values_rejected_on_read(tmp_path, field):
    record = make_record()
    path = tmp_path / "x.rsp"
    write_record(record, str(path))
    raw = bytearray(path.read_bytes())
    offset = 8 + int.from_bytes(raw[4:8], "little")
    if field == "spo2":
        offset += 4 * record.fb * record.duration_s
    raw[offset : offset + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueRangeError):
        read_record(str(path))


def test_invalid_stage_rejected(tmp_path):
    record = make_record()
    record.stages[0] = 7
    with pytest.raises(ValueRangeError):
        write_record(record, str(tmp_path / "x.rsp"))


def test_missing_stage_code_accepted(tmp_path):
    record = make_record()
    record.stages[5] = 255
    write_record(record, str(tmp_path / "x.rsp"))
    assert read_record(str(tmp_path / "x.rsp")).stages[5] == 255


def test_normalize_exact_on_symmetric_input():
    record = make_record(duration_s=1)
    record.breathing = np.array([-1, 1, -1, 1, -1, 1, -1, 1, -1, 1], dtype=np.float32)
    np.testing.assert_array_equal(normalize_breathing(record), record.breathing.astype(np.float64))


def test_normalize_flat_series_maps_to_zeros():
    record = make_record(duration_s=1)
    record.breathing = np.full(10, 3.25, dtype=np.float32)
    np.testing.assert_array_equal(normalize_breathing(record), np.zeros(10))


@given(duration=st.integers(24, 200))
@settings(max_examples=25, deadline=None)
def test_crop_is_idempotent_and_aligned(duration):
    record = make_record(duration_s=duration)
    cropped = crop_to_multiple(record)
    assert cropped.duration_s == 24 * (duration // 24)
    assert cropped.breathing.shape[0] == cropped.fb * cropped.duration_s
    again = crop_to_multiple(cropped)
    assert again is cropped  # aligned input passes through untouched


def test_crop_too_short_raises():
    with pytest.raises(RecordTooShortError):
        crop_to_multiple(make_record(duration_s=20))


def test_split_is_deterministic_disjoint_and_clamped():
    ids = [f"s{i}" for i in range(10)]
    train, test = split_subjects(ids, ratio=0.7, seed=1)
    assert sorted(train + test) == sorted(ids)
    assert not set(train) & set(test)
    assert len(train) == 7
    assert (train, test) == split_subjects(ids, ratio=0.7, seed=1)
    assert split_subjects(ids, ratio=0.7, seed=2) != (train, test)
    # extreme ratios still leave both sides nonempty
    train, test = split_subjects(["a", "b"], ratio=0.01, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_load_dataset_sorted_and_filter_split(tmp_path, micro_records):
    for record in micro_records:
        write_record(record, str(tmp_path / f"{record.subject_id}.rsp"))
    loaded = load_dataset(str(tmp_path))
    assert [r.subject_id for r in loaded] == sorted(r.subject_id for r in micro_records)
    train = filter_split(loaded, "train", ratio=0.7, seed=0)
    test = filter_split(loaded, "test", ratio=0.7, seed=0)
    assert len(train) + len(test) == len(loaded)
    assert filter_split(loaded, "all") == loaded
