"""JSON coefficient files shared between the library and the CLI.

Schema: ``{"n": int, "radius": int, "entries": [[k_1, ..., k_n, re, im], ...]}``.
Indices omitted from ``entries`` carry coefficient zero; a duplicated index is
an error, as is an index outside the declared radius.  ``n``, ``radius`` and
index components must be JSON integers, ``re`` and ``im`` finite JSON numbers;
booleans are neither.  The header must describe a lattice that
:func:`~peribessel.lattice.make_lattice` accepts (which bounds its size), or
the file is refused before anything is allocated.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .lattice import SpectralField, make_lattice


class CoeffFileError(ValueError):
    """Malformed coefficient file."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def field_to_dict(u: SpectralField) -> dict:
    lattice = u.lattice
    nonzero = np.flatnonzero(u.coeffs)
    indices = np.stack(np.unravel_index(nonzero, lattice.shape), axis=1) - lattice.radius
    values = u.coeffs[nonzero]
    entries = [
        [*k, re, im]
        for k, re, im in zip(indices.tolist(), values.real.tolist(), values.imag.tolist())
    ]
    return {"n": lattice.n, "radius": lattice.radius, "entries": entries}


def field_from_dict(data: dict) -> SpectralField:
    if not isinstance(data, dict):
        raise CoeffFileError("coefficient file must be a JSON object")
    for key in ("n", "radius", "entries"):
        if key not in data:
            raise CoeffFileError(f"missing required key {key!r}")
    try:
        lattice = make_lattice(data["n"], data["radius"])
    except ValueError as exc:
        raise CoeffFileError(f"bad lattice: {exc}") from None
    n, radius = lattice.n, lattice.radius
    if not isinstance(data["entries"], list):
        raise CoeffFileError("'entries' must be a list")
    coeffs = np.zeros(lattice.size, dtype=np.complex128)
    seen = set()
    for entry in data["entries"]:
        if not isinstance(entry, list) or len(entry) != n + 2:
            raise CoeffFileError(
                f"each entry must be [k_1,...,k_{n}, re, im]; got {entry!r}"
            )
        k = tuple(entry[:n])
        if not all(_is_int(c) for c in k):
            raise CoeffFileError(f"index components must be integers, got {k!r}")
        if not lattice.contains(k):
            raise CoeffFileError(f"index {k} outside declared radius {radius}")
        if k in seen:
            raise CoeffFileError(f"duplicate index {k}")
        seen.add(k)
        if not all(_is_finite_number(part) for part in entry[n:]):
            raise CoeffFileError(
                f"coefficient at index {k} must be two finite JSON numbers, got {entry[n:]!r}"
            )
        coeffs[lattice.position(k)] = complex(entry[n], entry[n + 1])
    return SpectralField._owned(lattice, coeffs)


def write_coeff_file(path, u: SpectralField):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(field_to_dict(u), handle)
        handle.write("\n")


def parse_coeff_file(path) -> SpectralField:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CoeffFileError(f"malformed JSON in {path}: {exc}") from exc
    return field_from_dict(data)
