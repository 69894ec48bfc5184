"""Binary field-snapshot format.

Layout (little-endian throughout):
    magic   8 bytes  b"SMAPFLD1"
    d       u32
    n       u32 x d  (points per axis)
    period  f64
    time    f64
    kind    u8       0 = complex, 1 = sphere
    payload row-major samples, last axis fastest:
            complex: (re, im) f64 pairs
            sphere:  three f64 per grid point

The payload length must match the header exactly; roundtrips are
bit-identical.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..geometry import SphereField
from ..grid import GridSpec
from ..spectral import ComplexField, to_physical

MAGIC = b"SMAPFLD1"
KIND_COMPLEX = 0
KIND_SPHERE = 1


def write_snapshot(path, field) -> Path:
    """Write a ComplexField (physical representation) or SphereField."""
    path = Path(path)
    grid = field.grid
    header = MAGIC + struct.pack("<I", grid.d)
    header += struct.pack(f"<{grid.d}I", *([grid.n] * grid.d))
    header += struct.pack("<dd", grid.period, field.time)
    if isinstance(field, ComplexField):
        field = to_physical(field)
        header += struct.pack("<B", KIND_COMPLEX)
        payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    elif isinstance(field, SphereField):
        header += struct.pack("<B", KIND_SPHERE)
        samples = np.moveaxis(field.values, 0, -1)  # components fastest
        payload = np.ascontiguousarray(samples, dtype="<f8").tobytes()
    else:
        raise TypeError(f"cannot snapshot {type(field).__name__}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload)
    return path


def read_snapshot(path):
    """Read a snapshot file back into the matching field type.

    Any malformed file (bad magic, truncated header, bad dimension or
    payload length) raises ValueError.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:8]!r}")
    offset = 8

    def unpack(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if len(raw) < offset + size:
            raise ValueError(
                f"{path}: header truncated at byte {len(raw)}, needs {offset + size}"
            )
        values = struct.unpack_from(fmt, raw, offset)
        offset += size
        return values

    (d,) = unpack("<I")
    if d < 1:
        raise ValueError(f"{path}: dimension d = {d} in the header; need d >= 1")
    ns = unpack(f"<{d}I")
    period, time = unpack("<dd")
    (kind,) = unpack("<B")
    if len(set(ns)) != 1:
        raise ValueError(f"{path}: unequal axis sizes {ns} are not supported")
    grid = GridSpec(d, ns[0], period)
    count = grid.num_points
    payload = raw[offset:]
    if kind == KIND_COMPLEX:
        expected = count * 16
        if len(payload) != expected:
            raise ValueError(f"{path}: payload {len(payload)} bytes, expected {expected}")
        values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
        return ComplexField(grid, time, "physical", values.copy())
    if kind == KIND_SPHERE:
        expected = count * 24
        if len(payload) != expected:
            raise ValueError(f"{path}: payload {len(payload)} bytes, expected {expected}")
        samples = np.frombuffer(payload, dtype="<f8").reshape(grid.shape + (3,))
        return SphereField(grid, time, np.moveaxis(samples, -1, 0).copy())
    raise ValueError(f"{path}: unknown kind byte {kind}")
