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
and every JSON input is parsed by `read_json`, which raises the caller's error.
"""

from __future__ import annotations

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
