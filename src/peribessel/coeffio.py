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

WRITE_CHUNK = 1 << 14  # coefficient entries encoded per write


class CoeffFileError(ValueError):
    """Malformed coefficient file."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _entries(u: SpectralField, positions: np.ndarray) -> list:
    """The ``entries`` of u's coefficients at ``positions``, flat indices into its lattice."""
    lattice = u.lattice
    indices = np.stack(np.unravel_index(positions, lattice.shape), axis=1) - lattice.radius
    values = u.coeffs[positions]
    return [
        [*k, re, im]
        for k, re, im in zip(indices.tolist(), values.real.tolist(), values.imag.tolist())
    ]


def field_to_dict(u: SpectralField) -> dict:
    entries = _entries(u, np.flatnonzero(u.coeffs))
    return {"n": u.lattice.n, "radius": u.lattice.radius, "entries": entries}


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
    seen = np.zeros(lattice.size, dtype=bool)
    for entry in data["entries"]:
        if not isinstance(entry, list) or len(entry) != n + 2:
            raise CoeffFileError(
                f"each entry must be [k_1,...,k_{n}, re, im]; got {entry!r}"
            )
        k = tuple(entry[:n])
        if not all(_is_int(c) for c in k):
            raise CoeffFileError(f"index components must be integers, got {k!r}")
        try:  # k is n ints here, so position refuses only an index outside
            position = lattice.position(k)
        except ValueError:
            raise CoeffFileError(f"index {k} outside declared radius {radius}") from None
        if seen[position]:
            raise CoeffFileError(f"duplicate index {k}")
        seen[position] = True
        if not all(_is_finite_number(part) for part in entry[n:]):
            raise CoeffFileError(
                f"coefficient at index {k} must be two finite JSON numbers, got {entry[n:]!r}"
            )
        coeffs[position] = complex(entry[n], entry[n + 1])
    return SpectralField._owned(lattice, coeffs)


def write_coeff_file(path, u: SpectralField):
    """Write ``json.dumps(field_to_dict(u))`` and a newline, :data:`WRITE_CHUNK` entries
    at a time, so that memory holds one chunk of the document, not all of it."""
    nonzero = np.flatnonzero(u.coeffs)
    # dumps, not dump: dump always takes the pure-Python encoder; the bytes agree
    head = json.dumps({"n": u.lattice.n, "radius": u.lattice.radius, "entries": []})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head[:-2])  # up to the entries' "["
        for start in range(0, len(nonzero), WRITE_CHUNK):
            if start:
                handle.write(", ")
            handle.write(json.dumps(_entries(u, nonzero[start : start + WRITE_CHUNK]))[1:-1])
        handle.write("]}\n")


def parse_coeff_file(path) -> SpectralField:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise CoeffFileError(f"malformed JSON in {path}: {exc}") from exc
    return field_from_dict(data)
