"""Output checks: every operation's output is parsed and validated here."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An output that is missing, unparsable, non-finite or wrong."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path, n_cols: int, n_rows: int | None = None) -> list[list[float]]:
    """Data rows of a moptrans CSV ('#' metadata, one header row); every
    value must be a finite number."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
    body = [line for line in lines if not line.startswith("#")]
    if not body or len(body[0].split(",")) != n_cols:
        raise CheckError(f"{path}: expected a header of {n_cols} columns")
    rows = []
    for lineno, line in enumerate(body[1:], start=2):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise CheckError(f"{path}: row {lineno} has {len(fields)} columns, expected {n_cols}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise CheckError(f"{path}: row {lineno} is not numeric") from None
        if not all(math.isfinite(v) for v in row):
            raise CheckError(f"{path}: row {lineno} holds a non-finite value")
        rows.append(row)
    if n_rows is not None and len(rows) != n_rows:
        raise CheckError(f"{path}: {len(rows)} data rows, expected {n_rows}")
    return rows


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON constant {token}")


def read_json(path):
    """Parse strictly: NaN and +-Infinity tokens are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}: invalid JSON: {exc}") from None


def finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_fit_payload(payload: dict) -> int:
    """A fit report converged with finite parameters and variances; returns
    its function-evaluation count."""
    if payload.get("converged") is not True:
        raise CheckError("fit did not converge")
    params = payload.get("parameters") or {}
    cov = payload.get("covariance_diag") or {}
    if not params or not all(finite(v) for v in params.values()):
        raise CheckError(f"fit has non-finite parameters: {params}")
    if not all(finite(v) and v >= 0.0 for v in cov.values()):
        raise CheckError(f"fit has invalid variances: {cov}")
    nfev = payload.get("iterations")
    if not isinstance(nfev, int) or nfev < 1:
        raise CheckError(f"fit reports {nfev!r} iterations")
    return nfev


def relative_close(a: complex, b: complex, tol: float) -> bool:
    scale = max(abs(a), abs(b))
    return scale > 0.0 and math.isfinite(scale) and abs(a - b) <= tol * scale
