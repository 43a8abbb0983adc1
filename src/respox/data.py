"""Night records: RSP1 schema, validation, normalization, subject splits.

A record file holds one night in the container framing of `container.py`
with magic "RSP1".  Header keys: subject_id, dataset_id, fb, fo,
duration_s, gender, vars{...}.  The body is, for T = duration_s:

    fb*T floats     breathing (32-bit)
    fo*T floats     spo2 (32-bit, percentage points in [0, 100])
    fo*T bytes      stages (0 awake, 1 REM, 2 non-REM, 255 missing)

The body must hold exactly 4*fb*T + 4*fo*T + fo*T bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import container
from .config import QUANTUM_S

STAGE_AWAKE, STAGE_REM, STAGE_NONREM, STAGE_MISSING = 0, 1, 2, 255
NORM_VAR_FLOOR = 1e-8


class RecordError(ValueError):
    """Base class for record validation and file-format failures."""


class BadMagicError(RecordError):
    pass


class TruncatedRecordError(RecordError):
    pass


class LengthMismatchError(RecordError):
    pass


class ValueRangeError(RecordError):
    pass


class RecordTooShortError(RecordError):
    pass


RSP1 = container.Framing(
    b"RSP1", "body", ("subject_id", "dataset_id", "fb", "fo", "duration_s", "gender", "vars"),
    BadMagicError, TruncatedRecordError, LengthMismatchError, RecordError,
)


@dataclass
class Record:
    subject_id: str
    dataset_id: str
    fb: int
    fo: int
    breathing: np.ndarray  # float32, length fb*T
    spo2: np.ndarray       # float32 in [0, 100], length fo*T
    stages: np.ndarray     # uint8 in {0, 1, 2, 255}, length fo*T
    gender: int
    vars: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> int:
        return len(self.spo2) // self.fo

    def validate(self) -> "Record":
        if self.fb <= 0 or self.fo <= 0:
            raise ValueRangeError(f"{self.subject_id}: rates must be positive, got fb={self.fb} fo={self.fo}")
        if self.fo and len(self.spo2) % self.fo != 0:
            raise LengthMismatchError(f"{self.subject_id}: spo2 length {len(self.spo2)} not a multiple of fo={self.fo}")
        t = self.duration_s
        if t <= 0:
            raise LengthMismatchError(f"{self.subject_id}: empty record")
        if len(self.breathing) != self.fb * t:
            raise LengthMismatchError(
                f"{self.subject_id}: breathing length {len(self.breathing)} != fb*T = {self.fb * t}"
            )
        if len(self.stages) != self.fo * t:
            raise LengthMismatchError(
                f"{self.subject_id}: stages length {len(self.stages)} != fo*T = {self.fo * t}"
            )
        # written so that NaN, which fails every comparison, is out of range
        if self.spo2.size and not (np.min(self.spo2) >= 0.0 and np.max(self.spo2) <= 100.0):
            raise ValueRangeError(
                f"{self.subject_id}: spo2 outside [0, 100] (range [{np.min(self.spo2)}, {np.max(self.spo2)}])"
            )
        if not np.isfinite(self.breathing).all():
            raise ValueRangeError(f"{self.subject_id}: breathing holds non-finite values")
        bad = ~np.isin(self.stages, (STAGE_AWAKE, STAGE_REM, STAGE_NONREM, STAGE_MISSING))
        if np.any(bad):
            raise ValueRangeError(
                f"{self.subject_id}: stage values outside {{0, 1, 2, 255}}: {sorted(set(self.stages[bad].tolist()))}"
            )
        if self.gender not in (0, 1):
            raise ValueRangeError(f"{self.subject_id}: gender must be 0 or 1, got {self.gender}")
        for key, value in self.vars.items():
            if not container.is_json_int(value):
                raise ValueRangeError(f"{self.subject_id}: var {key!r} must be a small int, got {value!r}")
        return self


def accessible_state(record: Record) -> int:
    """The gate's accessible index v of a night: its gender."""
    return record.gender


def write_record(record: Record, path) -> None:
    record.validate()
    header = {key: getattr(record, key) for key in RSP1.required}
    arrays = (record.breathing.astype("<f4", copy=False), record.spo2.astype("<f4", copy=False),
              record.stages.astype(np.uint8, copy=False))
    container.write(path, RSP1, header, arrays)


def _body_size(fb: int, fo: int, duration_s: int) -> int:
    return (4 * fb + 4 * fo + fo) * duration_s


def record_file_size(header_len: int, fb: int, fo: int, duration_s: int) -> int:
    return container.PREFIX_BYTES + header_len + _body_size(fb, fo, duration_s)


def _header_int(path, name: str, value) -> int:
    """A header field that must be a JSON integer."""
    if not container.is_json_int(value):
        raise RecordError(f"{path}: header field {name!r} must be an integer, got {value!r}")
    return value


def read_record(path) -> Record:
    """Read one night, each array straight from the file into its own buffer."""
    with open(path, "rb") as fh:
        header, held = container.read_header(fh, path, RSP1)
        fb, fo, t = (_header_int(path, key, header[key]) for key in ("fb", "fo", "duration_s"))
        if fb <= 0 or fo <= 0 or t <= 0:
            raise ValueRangeError(f"{path}: fb/fo/duration_s must be positive, got {fb}/{fo}/{t}")
        container.check_body(path, RSP1, held, _body_size(fb, fo, t))
        breathing = container.read_array(fh, path, RSP1, "breathing", fb * t, "<f4")
        spo2 = container.read_array(fh, path, RSP1, "spo2", fo * t, "<f4")
        stages = container.read_array(fh, path, RSP1, "stages", fo * t, np.uint8)

    header_vars = header["vars"]
    if not isinstance(header_vars, dict):
        raise RecordError(f"{path}: header field 'vars' must be an object of integers, got {header_vars!r}")
    return Record(
        subject_id=str(header["subject_id"]),
        dataset_id=str(header["dataset_id"]),
        fb=fb,
        fo=fo,
        breathing=breathing,
        spo2=spo2,
        stages=stages,
        gender=_header_int(path, "gender", header["gender"]),
        vars={key: _header_int(path, f"vars.{key}", value) for key, value in header_vars.items()},
    ).validate()


def normalize_breathing(record: Record) -> np.ndarray:
    """Per-night z-score of the breathing series; near-constant nights map to zeros."""
    x = record.breathing.astype(np.float64)
    if x.size == 0:
        raise RecordError(f"{record.subject_id}: empty breathing series")
    var = float(x.var())
    if var < NORM_VAR_FLOOR:
        return np.zeros_like(x)
    return (x - x.mean()) / np.sqrt(var)


def crop_to_multiple(record: Record, quantum: int = QUANTUM_S) -> Record:
    """Drop trailing seconds so the duration divides the model's time quantum."""
    t = record.duration_s
    if t < quantum:
        raise RecordTooShortError(
            f"{record.subject_id}: {t} s is shorter than the {quantum} s quantum"
        )
    kept = (t // quantum) * quantum
    if kept == t:
        return record
    return replace(
        record,
        breathing=record.breathing[: record.fb * kept],
        spo2=record.spo2[: record.fo * kept],
        stages=record.stages[: record.fo * kept],
    )


def split_subjects(subject_ids, ratio: float = 0.7, seed: int = 0) -> tuple[list, list]:
    """Deterministic subject-level split; sorts before shuffling so input order is irrelevant."""
    unique = sorted(set(subject_ids))
    if len(unique) < 2:
        raise RecordError(f"need at least 2 subjects to split, got {len(unique)}")
    if not 0.0 < ratio < 1.0:
        raise RecordError(f"split ratio must lie in (0, 1), got {ratio}")
    order = np.random.default_rng(seed).permutation(len(unique))
    n_train = min(max(int(len(unique) * ratio), 1), len(unique) - 1)
    train = sorted(unique[i] for i in order[:n_train])
    test = sorted(unique[i] for i in order[n_train:])
    return train, test


def load_dataset(directory) -> list:
    """Read every record file in a directory, sorted by filename."""
    root = Path(directory)
    if not root.is_dir():
        raise RecordError(f"{directory}: not a directory")
    paths = sorted(root.glob("*.rsp"))
    if not paths:
        raise RecordError(f"{directory}: no .rsp record files found")
    return [read_record(p) for p in paths]


def filter_split(records, split: str, ratio: float = 0.7, seed: int = 0) -> list:
    """Restrict records to the train or test side of the subject split."""
    if split == "all":
        return list(records)
    if split not in ("train", "test"):
        raise RecordError(f"split must be train, test, or all, got {split!r}")
    train, test = split_subjects([r.subject_id for r in records], ratio=ratio, seed=seed)
    wanted = set(train if split == "train" else test)
    return [r for r in records if r.subject_id in wanted]
