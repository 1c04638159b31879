"""Serialisation: spectral-model JSON documents and sweep/transient CSV.

The model document is schema-versioned JSON that round-trips bit-identically
for finite doubles (shortest-repr float encoding, fixed key order).  Curve
data goes to CSV with 17 significant digits, one row per grid point.  All
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SchemaError
from .spectral import Mode, SpectralModel
from .tensors import PACKED_LABELS, SymTensor3, _shown

SCHEMA_VERSION = 1

SWEEP_HEADER = (
    ["nu", "omega_rad_s", "f_Hz"]
    + [f"{part}{lbl}" for part in ("R", "I", "ReM", "ImM") for lbl in PACKED_LABELS]
)


def write_text(path: str, text: str) -> None:
    """Write a text file atomically (temp file in place, then rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def model_to_document(model: SpectralModel) -> dict:
    """JSON-ready dict mirroring the model, fixed key order."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "alpha_m": float(model.alpha),
        "sigma_star_S_per_m": float(model.sigma_star),
        "N0": [float(c) for c in model.n0.coeffs],
        "modes": [
            {
                "lambda": float(m.lam),
                "multiplicity": int(m.multiplicity),
                "couplings": [[float(x) for x in row] for row in m.couplings],
                **({"dark": True} if m.dark else {}),
            }
            for m in model.modes
        ],
        "provenance": model.provenance,
    }
    if model.topology_flag is not None:
        doc["topology_flag"] = model.topology_flag
    if model.tail_bound is not None:
        doc["tail_bound"] = float(model.tail_bound)
    return doc


def document_to_model(doc: dict) -> SpectralModel:
    try:
        version = doc["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {_shown(version)}")
        n0 = SymTensor3(doc["N0"])
        modes = tuple(
            Mode(
                lam=entry["lambda"],
                multiplicity=entry["multiplicity"],
                couplings=entry["couplings"],
                dark=entry.get("dark", False),
            )
            for entry in doc["modes"]
        )
        return SpectralModel(
            alpha=doc["alpha_m"],
            sigma_star=doc["sigma_star_S_per_m"],
            n0=n0,
            modes=modes,
            provenance=doc["provenance"],
            topology_flag=doc.get("topology_flag"),
            tail_bound=doc.get("tail_bound"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from exc


def save_model(model: SpectralModel, path: str) -> None:
    write_text(path, json.dumps(model_to_document(model), indent=2) + "\n")


def load_model(path: str) -> SpectralModel:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        # a JSONDecodeError, or an integer literal past Python's 4300 digits
        except ValueError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return document_to_model(doc)


def csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row, newline-terminated.

    Strings are written as given and numbers with 17 significant digits, so
    every double reads back exactly.  Pass rows of Python floats (an array's
    ``tolist()``): they format faster than numpy scalars.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_sweep_csv(
    path: str,
    nu: np.ndarray,
    omega: np.ndarray,
    r_rows: np.ndarray,
    i_rows: np.ndarray,
    rem_rows: np.ndarray,
    imm_rows: np.ndarray,
) -> None:
    """Emit one sweep row per grid point with the fixed 27-column schema."""
    freq = np.asarray(omega) / (2.0 * np.pi)
    table = np.column_stack((nu, omega, freq, r_rows, i_rows, rem_rows, imm_rows))
    write_text(path, csv_text(SWEEP_HEADER, table.tolist()))


def read_sweep_csv(path: str) -> dict:
    """Parse a sweep CSV back into arrays; the header must match exactly.

    Fields may carry surrounding spaces and any exponent form.  What the
    writer never emits but ``float()`` accepts is a ``SchemaError``: a
    non-finite value, an underscore digit separator or a non-ASCII digit.
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0].split(",") != SWEEP_HEADER:
        raise SchemaError(f"{path} does not carry the sweep CSV header")
    if not all(line.isascii() and "_" not in line for line in lines[1:]):
        raise SchemaError(f"{path} has an underscore or non-ASCII text in a sweep row")
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise SchemaError(f"{path} has malformed sweep rows: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(SWEEP_HEADER):
        raise SchemaError(f"{path} has malformed sweep rows")
    if not np.all(np.isfinite(data)):
        raise SchemaError(f"{path} has a non-finite value in a sweep row")
    return {
        "nu": data[:, 0],
        "omega": data[:, 1],
        "f": data[:, 2],
        "R": data[:, 3:9],
        "I": data[:, 9:15],
        "ReM": data[:, 15:21],
        "ImM": data[:, 21:27],
    }


def write_transient_csv(path: str, times: np.ndarray, rows: np.ndarray) -> None:
    """Kernel time series: t_s then the six packed coefficients."""
    header = ["t_s"] + [f"K{lbl}" for lbl in PACKED_LABELS]
    write_text(path, csv_text(header, np.column_stack((times, rows)).tolist()))


def write_json(path: str, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2) + "\n")
