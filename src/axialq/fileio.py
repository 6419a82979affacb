"""JSON algebra files and structured reports.

Rationals are serialized as strings ("3/4", "-2"), never floating point,
so files round-trip bit-exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from typing import NamedTuple, Optional

from .algcore import Algebra, _upper, make_algebra
from .errors import ParseError

__all__ = [
    "AlgebraFile",
    "Report",
    "parse_rational",
    "format_rational",
    "atomic_write",
]


def parse_rational(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string or integer, got {type(s).__name__}")
    if "." in s or "e" in s.lower():
        raise ParseError(f"decimal notation is not allowed, use p/q: {s!r}")
    try:
        q = Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None
    return q


def format_rational(q: Fraction) -> str:
    return str(q)


def _rational(c, memo: dict) -> Fraction:
    """c parsed; a string through memo, so each distinct one is parsed once per file."""
    if type(c) is not str:
        return parse_rational(c)
    return memo[c] if c in memo else memo.setdefault(c, parse_rational(c))


def _vector(value, dim: int, what: str, memo: dict) -> list[Fraction]:
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError(f"each of {what} must be a list of {dim} rationals")
    return [_rational(c, memo) for c in value]  # in order: the first bad entry is reported


def _cell(value, dim: int, memo: dict) -> list[tuple[int, Fraction]]:
    """The nonzero (k, c[k]) of one table cell in one pass, every entry validated in order."""
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError(f"each of the table cells must be a list of {dim} rationals")
    return [(k, q) for k, c in enumerate(value) if c != "0" and (q := _rational(c, memo))]


def _vectors(value, dim: int, what: str, memo: dict) -> list[list[Fraction]]:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of vectors, got {type(value).__name__}")
    return [_vector(v, dim, what, memo) for v in value]


class AlgebraFile(NamedTuple):
    """On-disk form of an algebra: name, table, axes, optional generators."""

    name: str
    algebra: Algebra
    generators: Optional[list[tuple[Fraction, ...]]] = None

    @classmethod
    def from_algebra(cls, name: str, algebra: Algebra) -> "AlgebraFile":
        return cls(name=name, algebra=algebra)

    def to_dict(self) -> dict:
        A, n = self.algebra, self.algebra.dim
        d, table = A.table  # cell (i, j) is e_i e_j: T[i][j] lists its nonzero d c[i][j][k]
        cells = [[["0"] * n for _ in range(n)] for _ in range(n)]
        for row, out_row in zip(table, cells):
            for entries, cell in zip(row, out_row):
                for k, c in entries:
                    cell[k] = format_rational(Fraction(c, d))
        out = {
            "name": self.name,
            "dimension": n,
            "basis": list(A.basis_names),
            "table": cells,
            "axes": [[format_rational(c) for c in a.coords] for a in A.designated_axes],
        }
        if self.generators is not None:
            out["generators"] = [[format_rational(c) for c in g] for g in self.generators]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "AlgebraFile":
        """Validate the schema, types included, and build the algebra."""
        if not isinstance(d, dict):
            raise ParseError("top-level JSON value must be an object")
        try:
            name, dim, basis, table = d["name"], d["dimension"], d["basis"], d["table"]
        except KeyError as exc:
            raise ParseError(f"missing field: {exc}") from None
        if not isinstance(name, str):
            raise ParseError("name must be a string")
        if type(dim) is not int or dim < 0:
            raise ParseError("dimension must be a nonnegative integer")
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise ParseError("basis must be a list of names")
        if len(basis) != dim:
            raise ParseError("basis name count != dimension")
        if not isinstance(table, list) or len(table) != dim \
                or not all(isinstance(row, list) and len(row) == dim for row in table):
            raise ParseError("table must be a dim x dim grid of dim-vectors")
        memo: dict[str, Fraction] = {}  # each distinct rational string is parsed once per file
        grid = [[_cell(cell, dim, memo) for cell in row] for row in table]
        axes = _vectors(d.get("axes", []), dim, "axes", memo)
        algebra = make_algebra(dim, basis, _upper(basis, grid), axes)  # both halves checked
        gens = None
        if "generators" in d:
            gens = [tuple(g) for g in _vectors(d["generators"], dim, "generators", memo)]
        return cls(name=name, algebra=algebra, generators=gens)

    def to_json(self) -> str:
        return _indented(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AlgebraFile":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from None
        except RecursionError:
            raise ParseError("JSON is nested too deeply to decode") from None
        return cls.from_dict(d)


def _indented(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of nested dicts and lists, each string through the C
    encoder, not the pure-Python one that ``indent`` selects."""
    inner = pad + "  "
    if type(value) is dict:
        items, ends = [f"{_encode(k)}: {_indented(v, inner)}" for k, v in value.items()], "{}"
    elif type(value) is list:
        items, ends = [_encode(v) if type(v) is str else _indented(v, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


class Report:
    """Structured result of one CLI command."""

    def __init__(self, command: str, inputs: Optional[dict] = None,
                 findings: Optional[dict] = None, status: str = "pass", message: str = ""):
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.findings = {} if findings is None else findings
        self.status = status      # pass | fail | error
        self.message = message

    def __eq__(self, other):
        return type(other) is Report and vars(self) == vars(other)

    def __repr__(self):
        return f"Report({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "inputs": self.inputs,
            "findings": self.findings,
            "status": self.status,
            "message": self.message,
        }, indent=2)


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so a crash never leaves a partial file; an OSError names
    ``path``, never the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".axialq-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
