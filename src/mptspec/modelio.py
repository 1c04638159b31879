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
from .tensors import PACKED_LABELS, SymTensor3

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
            raise SchemaError(f"unsupported schema_version {version!r}")
        n0 = SymTensor3(np.asarray(doc["N0"], dtype=float))
        modes = tuple(
            Mode(
                lam=entry["lambda"],
                multiplicity=entry["multiplicity"],
                couplings=np.asarray(entry["couplings"], dtype=float),
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
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return document_to_model(doc)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
    lines = [",".join(SWEEP_HEADER)]
    freq = np.asarray(omega) / (2.0 * np.pi)
    for k in range(len(nu)):
        fields = (
            [nu[k], omega[k], freq[k]]
            + list(r_rows[k])
            + list(i_rows[k])
            + list(rem_rows[k])
            + list(imm_rows[k])
        )
        lines.append(",".join(_fmt(v) for v in fields))
    write_text(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> dict:
    """Parse a sweep CSV back into arrays; the header must match exactly."""
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0].split(",") != SWEEP_HEADER:
        raise SchemaError(f"{path} does not carry the sweep CSV header")
    try:
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
        )
    except ValueError as exc:
        raise SchemaError(f"{path} has malformed sweep rows: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(SWEEP_HEADER):
        raise SchemaError(f"{path} has malformed sweep rows")
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
    lines = [",".join(header)]
    for k in range(len(times)):
        lines.append(",".join(_fmt(v) for v in [times[k], *rows[k]]))
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2) + "\n")
