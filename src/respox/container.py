"""Artifact I/O: the binary framing of records and checkpoints, text artifacts, JSON inputs.

A container file (night record or model checkpoint) is, little-endian throughout:

    bytes 0-3   magic naming the format ("RSP1" records, "GBU1" checkpoints)
    bytes 4-7   unsigned 32-bit header length H
    H bytes     UTF-8 JSON header, canonical: sorted keys, no spaces
    rest        the body: raw arrays back to back, as the header declares

The format modules own the header keys and the arrays; this module owns the
bytes around them.  Arrays are written straight from their buffers and read
one at a time into preallocated arrays, so the file is never held whole.
Every text artifact is written by `write_text` (JSON ones via `write_json`),
every JSON input is parsed by `read_json`, which raises the caller's error,
and every JSON object that fills a dataclass (a run-config section, a synth
profile) is checked by `dataclass_from_json`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from typing import NamedTuple

import numpy as np

PREFIX_BYTES = 8


class Framing(NamedTuple):
    """One format's magic, the name of its body, its required header keys and its error classes."""

    magic: bytes
    body: str
    required: tuple
    bad_magic: type
    truncated: type
    trailing: type
    malformed: type


def is_json_int(value) -> bool:
    """A JSON integer as json.loads returns it: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_entries(values, error: type, what: str) -> tuple:
    """`values` as a tuple of ints.  An entry that is not an integer (a bool, or a float even
    when whole) is `error` naming `what`, never truncated; numpy integers count."""
    entries = tuple(values)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in entries):
        raise error(f"{what} entries must be integers, got {entries!r}")
    return tuple(map(int, entries))


def dataclass_from_json(cls, payload, error: type, what: str, aliases: dict | None = None):
    """Fill dataclass `cls` from a JSON object; every key must name a field (after `aliases`).

    A field whose default is an int, or a tuple of ints, takes only JSON integers.  `error`
    from cls's own checks passes through; other faults become `error` naming `what`.
    """
    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        name = (aliases or {}).get(key, key)
        if name not in defaults:
            raise error(f"unknown key {key!r} in {what}")
        if is_json_int(defaults[name]) and not is_json_int(value):
            raise error(f"bad value in {what}: {key} must be an integer, got {value!r}")
        if isinstance(defaults[name], tuple) and all(map(is_json_int, defaults[name])) and not (
            isinstance(value, list) and all(map(is_json_int, value))
        ):
            raise error(f"bad value in {what}: {key} must be a list of integers, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except error:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise error(f"bad value in {what}: {exc}") from exc


def write(path, framing: Framing, header: dict, arrays) -> None:
    """Write magic, header length, canonical JSON header, then each array's buffer."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(framing.magic)
        fh.write(struct.pack("<I", len(text)))
        fh.write(text)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def read_header(fh, path, framing: Framing) -> tuple[dict, int]:
    """Check magic, length, JSON and required keys; return the header and the body size."""
    prefix = fh.read(PREFIX_BYTES)
    if len(prefix) < PREFIX_BYTES or prefix[:4] != framing.magic:
        raise framing.bad_magic(f"{path}: not a {framing.magic.decode()} file (bad magic)")
    (header_len,) = struct.unpack("<I", prefix[4:])
    text = fh.read(header_len)
    if len(text) < header_len:
        raise framing.truncated(f"{path}: truncated header ({len(text)} of {header_len} bytes)")
    try:
        header = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise framing.malformed(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise framing.malformed(f"{path}: header is not a JSON object")
    missing = [key for key in framing.required if key not in header]
    if missing:
        raise framing.malformed(f"{path}: header missing {missing}")
    return header, os.fstat(fh.fileno()).st_size - PREFIX_BYTES - header_len


def check_body(path, framing: Framing, held: int, declared: int) -> None:
    """The body must hold exactly the bytes the header declares."""
    if held != declared:
        error = framing.truncated if held < declared else framing.trailing
        raise error(f"{path}: {framing.body} holds {held} bytes, header declares {declared}")


def read_array(fh, path, framing: Framing, name: str, shape, dtype) -> np.ndarray:
    """Read the next array of the body into its own buffer; a short read is truncation."""
    arr = np.empty(shape, dtype=dtype)
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise framing.truncated(f"{path}: {name} truncated ({got} of {arr.nbytes} bytes)")
    return arr


def write_text(path, text: str) -> None:
    """Write a text artifact as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """Write a JSON artifact: two-space indent, sorted keys, trailing newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path, error: type):
    """Parse a JSON input; an unreadable file, bad UTF-8 or bad JSON raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
