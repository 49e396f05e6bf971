"""Output checks that do not trust the run being checked.

Each check reads only what the program printed.  A positivity certificate
is re-checked by evaluating W exactly with `BivariatePoly.evaluate`, not
with the prover's box bounder.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from moutardkit.serialization import obj_to_poly

RESIDUAL_TOLERANCE = 1e-3  # the 5-point stencil at h = 1/1000 is exact up to O(h^2)


def _frac(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def certificate_error(w, cert: dict) -> Optional[str]:
    """None when the certificate holds for w, else why it does not.

    The cells must lie in [-R, R]^2 and their areas must sum to (2R)^2;
    each cell's lower bound must be positive and at most W at the cell's
    centre.
    """
    if _frac(cert["leading_form_min_bound"]) <= 0:
        return "leading-form bound is not positive"
    radius = _frac(cert["cutoff_radius"])
    area = Fraction(0)
    for index, cell in enumerate(cert["cells"]):
        x_lo, x_hi, y_lo, y_hi = (_frac(v) for v in cell["box"])
        if not (-radius <= x_lo < x_hi <= radius and -radius <= y_lo < y_hi <= radius):
            return f"cell {index} is not inside the root square"
        lower = _frac(cell["lower_bound"])
        if lower <= 0:
            return f"cell {index} has a lower bound <= 0"
        if w.evaluate((x_lo + x_hi) / 2, (y_lo + y_hi) / 2) < lower:
            return f"W at the centre of cell {index} is below the cell's lower bound"
        area += (x_hi - x_lo) * (y_hi - y_lo)
    if area != (2 * radius) ** 2:
        return "cell areas do not sum to (2R)^2"
    return None


def _search_error(text: str) -> Optional[str]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != 1:
        return f"expected one record, got {len(records)}"
    record = records[0]
    if record["positivity"] != "certified" or record["valid"] is not True:
        return f"record is {record['positivity']}, valid={record['valid']}"
    return None


def _example_error(text: str) -> Optional[str]:
    obj = json.loads(text)
    record = obj["record"]
    if record["positivity"] != "certified" or record["valid"] is not True:
        return "example record is not certified and valid"
    if obj["bundle"]["verified"] is not True:
        return "bundle is not verified"
    return certificate_error(obj_to_poly(obj["bundle"]["W"]), obj["positivity"])


def _transform_error(text: str) -> Optional[str]:
    if json.loads(text)["verified"] is not True:
        return "transform bundle is not verified"
    return None


def _oracle_error(text: str) -> Optional[str]:
    obj = json.loads(text)
    residual = obj["residual"]
    if not (math.isfinite(residual) and residual <= RESIDUAL_TOLERANCE):
        return f"finite-difference residual {residual} exceeds {RESIDUAL_TOLERANCE}"
    l2 = obj["l2"]
    if not (math.isfinite(l2["estimate"]) and l2["estimate"] > 0):
        return f"L2 estimate {l2['estimate']} is not a positive number"
    if not (math.isfinite(l2["tail_bound"]) and l2["tail_bound"] >= 0):
        return f"L2 tail bound {l2['tail_bound']} is not a nonnegative number"
    return None


CHECKS = {
    "search": _search_error,
    "example": _example_error,
    "transform": _transform_error,
    "oracle": _oracle_error,
}


def output_error(kind: str, returncode: int, stdout: bytes) -> Optional[str]:
    """None when an item's output passes its check, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        return CHECKS[kind](stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
