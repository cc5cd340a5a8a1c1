"""Self-describing binary container used by every binary artifact.

Model checkpoints (``checkpoint.py``, magic ``MODLCKPT``: meta and the
w/b/vw/vb parameter sections), gallery files (``gallery.py``, ``FGALLERY``:
meta, ids, labels, features) and the held-out set (``data.py``, ``HELDOUTS``:
meta, inputs, labels, ids_a, ids_b, genuine) are all containers; only their
magic, version and sections differ. Layout, all little-endian:

    magic            8 bytes
    format version   u32
    section count    u32
    per section:
        name length  u16
        name         UTF-8 bytes
        payload len  u64
        payload      raw bytes
        checksum     u32 (CRC-32 of the payload)

Readers refuse wrong magic, truncated data, checksum mismatches, trailing
garbage, a section name given twice (the last copy would otherwise win), and
any version other than the one they read. ``read_array`` is the one decoder
of an array section: a read-only view of its bytes, whose length must fit a
shape of non-negative ints; ``read_artifact`` is the one place where a value
that breaks its type's rule in a reader becomes a ``CorruptFileError``. Every
file the package writes, container or text, goes through ``write_atomic``: a
``<path>.tmp`` file renamed onto ``path`` only once complete, so a write that
fails leaves the old file (or none), never half a file.
"""

import json
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (CompatLearnError, CorruptFileError, DegenerateFeatureError,
                     UnsupportedVersionError)

MAGIC_LEN = 8

# Raised by malformed meta or sections (missing keys, wrong types or shapes, undecodable
# text, numbers too large, JSON too deep) and by an object that breaks its type's rule.
_MALFORMED = (LookupError, TypeError, ValueError, OverflowError, RecursionError, CompatLearnError)


def write_atomic(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path`` through ``<path>.tmp``, renamed once complete."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container(path, magic: bytes, version: int, sections: list[tuple[str, bytes]]) -> None:
    if len(magic) != MAGIC_LEN:
        raise ValueError(f"magic must be exactly {MAGIC_LEN} bytes, got {len(magic)}")

    def pieces():
        yield magic + struct.pack("<II", version, len(sections))
        for name, payload in sections:
            name_bytes = name.encode("utf-8")
            yield struct.pack("<H", len(name_bytes)) + name_bytes + struct.pack("<Q", len(payload))
            yield payload
            yield struct.pack("<I", zlib.crc32(payload))

    write_atomic(path, pieces())


def read_container(path, magic: bytes, version: int) -> dict[str, bytes]:
    blob = Path(path).read_bytes()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CorruptFileError(f"{path}: truncated while reading {what}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    if take(MAGIC_LEN, "magic") != magic:
        raise CorruptFileError(f"{path}: bad magic, not a {magic!r} file")
    found, count = struct.unpack("<II", take(8, "header"))
    if found != version:
        raise UnsupportedVersionError(
            f"{path}: format version {found}, this build reads only version {version}"
        )
    sections: dict[str, bytes] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "section name length"))
        try:
            name = take(name_len, "section name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{path}: undecodable section name") from exc
        (payload_len,) = struct.unpack("<Q", take(8, "section length"))
        payload = take(payload_len, f"section {name!r}")
        (crc,) = struct.unpack("<I", take(4, "section checksum"))
        if zlib.crc32(payload) != crc:
            raise CorruptFileError(f"{path}: checksum mismatch in section {name!r}")
        if name in sections:
            raise CorruptFileError(f"{path}: section {name!r} is given twice")
        sections[name] = payload
    if offset != len(blob):
        raise CorruptFileError(f"{path}: {len(blob) - offset} trailing bytes")
    return sections


def read_array(sections, name: str, dtype: str, shape) -> np.ndarray:
    """Section ``name`` as a read-only ``dtype`` view of ``shape``. A shape entry that is
    not a non-negative int (numpy would infer a -1), or a payload that does not fit the
    shape, is a ValueError."""
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"section {name!r}: shape {shape!r} is not a list of counts")
    return np.frombuffer(sections[name], dtype=dtype).reshape(shape)


def write_artifact(path, magic: bytes, version: int, meta: dict, sections) -> None:
    """Write a container whose first section, "meta", is ``meta`` as sorted-key JSON."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    write_container(path, magic, version, [("meta", meta_bytes), *sections])


@contextmanager
def read_artifact(path, magic: bytes, version: int, kind: str):
    """Read a container; yield its decoded "meta" JSON and its sections.

    Malformed meta or sections, or objects that break their type's rule, met in the
    ``with`` body become a CorruptFileError (a DegenerateFeatureError stays one).
    """
    sections = read_container(path, magic, version)
    try:
        yield json.loads(sections["meta"].decode("utf-8")), sections
    except (CorruptFileError, DegenerateFeatureError):
        raise
    except _MALFORMED as exc:
        raise CorruptFileError(f"{path}: malformed {kind} ({exc!r})") from exc
