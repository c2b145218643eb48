"""File formats: space parsing, fixture writing, deterministic report JSON.

Reports are plain JSON with floats rendered at 17 significant digits and
infinities rendered as the string "unbounded", so identical runs produce
byte-identical files.  Writes go through a temp file plus rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from .lp_coarse import LpPointSet
from .metric import FiniteMetricSpace, validate_metric

__all__ = [
    "ParseError",
    "UnknownFormat",
    "parse_space",
    "write_space",
    "space_to_payload",
    "dumps_report",
    "atomic_write_text",
]

SPACE_SCHEMA = "blockembed-space/1"
REPORT_SCHEMA = "blockembed-report/1"
# float() of a JSON integer beyond the double range raises OverflowError,
# where a float literal such as 1e400 reads as inf
_TOO_LARGE = "holds an integer too large for a double"


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnknownFormat(ValueError):
    pass


def _parse_exponent(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f'p must be a number or "inf", got {json.dumps(value)}')
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        value = float(value)
    try:
        p = float(value)
    except OverflowError as err:
        raise ParseError(f"p {_TOO_LARGE}") from err
    if not p >= 1:
        raise ParseError(f"exponent must lie in [1, inf], got {p}")
    return p


def _parse_basepoint(value: Any) -> int:
    """A point index: an integer, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"basepoint must be an integer index, got {value!r}")
    return value


def parse_space(path: str | Path, fmt: str = "json") -> FiniteMetricSpace | LpPointSet:
    """Load a distance-matrix space or an l_p point cloud.

    JSON matrices look like {"points": [labels], "dist": [[...]]}; clouds
    like {"p": 2, "points": [[...]], "basepoint": 0}.  CSV holds a plain
    distance matrix.  Matrix inputs are validated; cloud inputs carry their
    exponent and induce the l_p metric, which is validated lazily, on the
    first read of ``LpPointSet.metric_space``.  There the triangle
    inequality of an l_1, l_2 or l_inf cloud of dim up to 1024 (for l_2,
    with every positive distance in [2^-480, 2^480]) is proved by a rounding
    bound rather than scanned; other clouds go through ``validate_metric``.
    """
    path = Path(path)
    if fmt == "json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON: {err.msg}", line=err.lineno) from err
        if not isinstance(payload, dict):
            raise ParseError("top-level JSON value must be an object")
        if "dist" in payload:
            labels = payload.get("points")
            if labels is not None and not isinstance(labels, list):
                raise ParseError(f'"points" beside "dist" must be a list, got {json.dumps(labels)}')
            try:
                return validate_metric(payload["dist"], labels)
            except OverflowError as err:
                raise ParseError(f'"dist" {_TOO_LARGE}') from err
        if "p" in payload and "points" in payload:
            try:
                pts = np.asarray(payload["points"], dtype=float)
            except OverflowError as err:
                raise ParseError(f'"points" {_TOO_LARGE}') from err
            if pts.ndim != 2:
                raise ParseError("cloud points must be a list of coordinate lists")
            return LpPointSet(
                _parse_exponent(payload["p"]),
                pts,
                basepoint=_parse_basepoint(payload.get("basepoint", 0)),
            )
        raise ParseError('JSON space needs either a "dist" matrix or "p" + "points"')
    if fmt == "csv":
        rows = []
        width = None
        with path.open() as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text:
                    continue
                try:
                    row = [float(cell) for cell in text.split(",")]
                except ValueError as err:
                    raise ParseError(f"bad number: {err}", line=lineno) from err
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ParseError(
                        f"row has {len(row)} cells, expected {width}", line=lineno
                    )
                rows.append(row)
        if not rows:
            raise ParseError("empty CSV matrix")
        return validate_metric(np.array(rows))
    raise UnknownFormat(f"unknown format {fmt!r}; expected json or csv")


def space_to_payload(space: FiniteMetricSpace | LpPointSet) -> dict[str, Any]:
    if isinstance(space, FiniteMetricSpace):
        return {"schema": SPACE_SCHEMA, "points": list(space.labels), "dist": space.dist}
    return {
        "schema": SPACE_SCHEMA,
        "p": "inf" if math.isinf(space.p) else space.p,
        "points": space.points,
        "basepoint": space.basepoint,
    }


def write_space(space: FiniteMetricSpace | LpPointSet, path: str | Path) -> None:
    atomic_write_text(path, dumps_report(space_to_payload(space)) + "\n")


def _render_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in reports")
    if math.isinf(x):
        return '"unbounded"' if x > 0 else '"-unbounded"'
    return format(x, ".17g")


def _render_matrix(a: np.ndarray, indent: int) -> str:
    """A 2-D float array as its nested lists render, in one pass: each
    distinct value (by bit pattern, so -0.0 is not 0.0) is formatted once."""
    if not len(a):
        return "[]"
    pad, inner, cell = ("  " * k for k in (indent, indent + 1, indent + 2))
    if not a.shape[1]:
        return f"[\n{inner}" + f",\n{inner}".join(["[]"] * len(a)) + f"\n{pad}]"
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    # sorted and deduplicated here: np.unique would import numpy.ma, about
    # 1 MB of memory and 20 ms of set-up on first use
    values = np.sort(bits, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    texts = np.array([_render_float(x) for x in values.view(np.float64).tolist()], dtype=object)
    sep = f",\n{cell}"
    rows = [sep.join(texts[np.searchsorted(values, row)].tolist()) for row in bits]
    head, tail = f"[\n{inner}[\n{cell}", f"\n{inner}]"
    return head + f"{tail},\n{inner}[\n{cell}".join(rows) + f"{tail}\n{pad}]"


def _render(obj: Any, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        return _render_matrix(obj, indent)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj: Any) -> str:
    """Deterministic JSON: 17-significant-digit floats, inf -> "unbounded"."""
    return _render(obj, 0)


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
