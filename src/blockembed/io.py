"""File formats: space parsing, fixture writing, deterministic report JSON.

Reports are plain JSON with floats rendered at 17 significant digits and
infinities rendered as the string "unbounded", so identical runs produce
byte-identical files.  Writes go through a temp file plus rename.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

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
    distance matrix.  Matrix inputs are validated; a cloud comes back with
    its exponent, unchecked: its l_p metric is built and validated on the
    first read of ``LpPointSet.metric_space``, by the modes that read it.
    The triangle inequality of an l_1, l_2 or l_inf cloud of dim up to 1024
    (for l_2, with every positive distance in [2^-480, 2^480]) is proved by
    a rounding bound rather than scanned; other clouds go through
    ``validate_metric``.
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
    """Write a space file, its text streamed to disk a matrix row at a time."""
    _write_pieces(path, itertools.chain(_chunks(space_to_payload(space), 0), ["\n"]))


def _render_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in reports")
    if math.isinf(x):
        return '"unbounded"' if x > 0 else '"-unbounded"'
    return format(x, ".17g")


def _matrix_chunks(a: np.ndarray, indent: int) -> Iterator[str]:
    """A 2-D float array as its nested lists render, one row at a time: each
    distinct value (by bit pattern, so -0.0 is not 0.0) is formatted once."""
    if not len(a):
        yield "[]"
        return
    pad, inner, cell = ("  " * k for k in (indent, indent + 1, indent + 2))
    if not a.shape[1]:
        yield f"[\n{inner}" + f",\n{inner}".join(["[]"] * len(a)) + f"\n{pad}]"
        return
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    # sorted and deduplicated here: np.unique would import numpy.ma, about
    # 1 MB of memory and 20 ms of set-up on first use
    values = np.sort(bits, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    texts = np.array([_render_float(x) for x in values.view(np.float64).tolist()], dtype=object)
    sep, head = f",\n{cell}", f"[\n{inner}[\n{cell}"
    for row in bits:
        yield head + sep.join(texts[np.searchsorted(values, row)].tolist())
        head = f"\n{inner}],\n{inner}[\n{cell}"
    yield f"\n{inner}]\n{pad}]"


def _chunks(obj: Any, indent: int) -> Iterator[str]:
    """The report text of ``obj`` in order, a float matrix a row at a time."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        yield from _matrix_chunks(obj, indent)
        return
    if isinstance(obj, dict):
        brackets, items = "{}", [(f"{json.dumps(str(k))}: ", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        brackets, items = "[]", [("", v) for v in obj]
    else:
        yield _render_scalar(obj)
        return
    if not items:
        yield brackets
        return
    head, inner = brackets[0] + "\n", "  " * (indent + 1)
    for key, v in items:
        if isinstance(v, (dict, list, tuple, np.ndarray)):
            yield f"{head}{inner}{key}"
            yield from _chunks(v, indent + 1)
        else:  # a scalar, without a generator of its own
            yield f"{head}{inner}{key}{_render_scalar(v)}"
        head = ",\n"
    yield f"\n{'  ' * indent}{brackets[1]}"


def _render_scalar(obj: Any) -> str:
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
    return "".join(_chunks(obj, 0))


def atomic_write_text(path: str | Path, text: str) -> None:
    _write_pieces(path, [text])


def _write_pieces(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the pieces in order to a temp file beside ``path``, then rename
    it over ``path``, so that no reader sees a partial file.  The temp file is
    created with mode 0o666 less the umask, as a plain ``open`` creates one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
