"""The three input files: stabilizer codes, local circuits and c-local
embedded graphs. Each is read line by line; "#" starts a comment and blank
lines are skipped. Every malformed input raises ParseError naming its line
(line 0 when a required directive is missing), and each edge is checked
once, at its line.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator

import numpy as np

from .circuit import (
    Circuit,
    CircuitError,
    ConnectivityGraph,
    Embedding,
    Layer,
    Unitary,
)
from .qstate import MAX_QUBITS
from .stabilizer import CodeValidationError, StabilizerCode, parse_pauli, validate_code

# Above 2^52 in magnitude, float64 cannot hold points one unit apart.
MAX_COORDINATE = 2.0 ** 52


class ParseError(ValueError):
    """A malformed line in a code, circuit or embedded-graph file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _directives(lines: Iterable[str]) -> Iterator[tuple]:
    """(line_no, text) for every line that is not blank once its comment
    is stripped, numbered from 1."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield line_no, text


def _uint(tok: str) -> int | None:
    """A non-negative decimal integer token, or None."""
    return int(tok) if tok.isascii() and tok.isdigit() else None


def _finite(tok: str, line_no: int, what: str, kind=float):
    """The finite ``kind`` (float or complex) that ``tok`` spells."""
    try:
        value = kind(tok)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {tok!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(line_no, f"non-finite {what} {tok!r}")
    return value


def _edge(toks: list, line_no: int, index: dict) -> tuple:
    """The endpoint rows of an ``edge u v`` line, its labels looked up in
    ``index``."""
    if len(toks) != 3:
        raise ParseError(line_no, "expected: edge <u> <v>")
    for tok in toks[1:]:
        if tok not in index:
            raise ParseError(line_no, f"edge references unknown vertex {tok!r}")
    if toks[1] == toks[2]:
        raise ParseError(line_no, f"self-loop at {toks[1]}")
    return index[toks[1]], index[toks[2]]


def _graph(index: dict, edges: list) -> ConnectivityGraph:
    rows = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return ConnectivityGraph._from_rows(tuple(index), rows[:, 0], rows[:, 1])


# ---------------------------------------------------------------------------
# Code files: one signed Pauli string per line


def parse_code_lines(lines: Iterable[str]) -> StabilizerCode:
    """Parse one signed Pauli string per line. A whole-code error is
    reported at the last line it involves and names generators by line."""
    gens, line_nos = [], []
    for line_no, text in _directives(lines):
        try:
            gens.append(parse_pauli(text))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        line_nos.append(line_no)
    if not gens:
        raise ParseError(0, "no generators found")
    try:
        return validate_code(gens)
    except CodeValidationError as exc:
        at = tuple(line_nos[i] for i in exc.rows)
        raise ParseError(max(at), exc.template.format(rows=f"lines {at}")) from exc


def read_code_file(path) -> StabilizerCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_lines(fh)


# ---------------------------------------------------------------------------
# Circuit files: qubits/edge lines, then layer blocks of gate lines


def parse_circuit_lines(lines: Iterable[str]) -> Circuit:
    """Line-oriented circuit format.

    ``qubits m`` then ``edge u v`` lines over the labels 0..m-1, then
    ``layer`` blocks whose gate lines are::

        u2 <16 complex entries, row-major> on <u> <v>

    A layer that breaks the circuit rules is reported at its ``layer``
    line.
    """
    index = None
    edges: list = []
    layers: list = []
    layer_lines: list = []
    for line_no, text in _directives(lines):
        toks = text.split()
        head = toks[0]
        if head == "qubits":
            if index is not None:
                raise ParseError(line_no, "duplicate qubits line")
            m = _uint(toks[1]) if len(toks) == 2 else None
            if m is None:
                raise ParseError(line_no, "expected: qubits <m>")
            if m > MAX_QUBITS:
                raise ParseError(line_no, f"circuit files limited to {MAX_QUBITS} qubits "
                                          f"(dense state vector); got {m}")
            index = {str(q): q for q in range(m)}
        elif head == "edge":
            if index is None:
                raise ParseError(line_no, "edge before qubits line")
            edges.append(_edge(toks, line_no, index))
        elif head == "layer":
            if index is None:
                raise ParseError(line_no, "layer before qubits line")
            layers.append([])
            layer_lines.append(line_no)
        elif head == "u2":
            if not layers:
                raise ParseError(line_no, "gate outside a layer block")
            if len(toks) != 1 + 16 + 3 or toks[17] != "on":
                raise ParseError(line_no, "expected: u2 <16 entries> on <u> <v>")
            entries = [_finite(t, line_no, "complex number", complex) for t in toks[1:17]]
            layers[-1].append(Unitary(toks[18:20], np.array(entries).reshape(4, 4)))
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")
    if index is None:
        raise ParseError(0, "missing qubits line")
    try:
        return Circuit(_graph(index, edges), map(Layer, layers))
    except CircuitError as exc:
        raise ParseError(layer_lines[exc.layers[0]], str(exc)) from None


def read_circuit_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit_lines(fh)


# ---------------------------------------------------------------------------
# Embedded-graph files: dim/c/point/edge lines


def _coordinate(tok: str, line_no: int) -> float:
    value = _finite(tok, line_no, "coordinate")
    if abs(value) > MAX_COORDINATE:
        raise ParseError(line_no, f"coordinate {tok!r} exceeds 2^52 in magnitude")
    return value


def parse_embedded_graph_lines(lines: Iterable[str]) -> tuple:
    """Parse ``dim D``, ``c <value>``, ``point label x y [z]`` and
    ``edge u v`` lines into (graph, embedding); points keep file order."""
    dim = None
    c = 1.0
    index: dict = {}
    rows: list = []
    edges: list = []
    for line_no, text in _directives(lines):
        toks = text.split()
        head = toks[0]
        if head == "dim":
            if dim is not None:
                raise ParseError(line_no, "duplicate dim line")
            dim = _uint(toks[1]) if len(toks) == 2 else None
            if not dim:
                raise ParseError(line_no, "expected: dim <D> with D >= 1")
        elif head == "c":
            if len(toks) != 2:
                raise ParseError(line_no, "expected: c <value>")
            c = _finite(toks[1], line_no, "c value")
            if c <= 0:
                raise ParseError(line_no, f"c value {toks[1]!r} must be positive")
        elif head == "point":
            if dim is None:
                raise ParseError(line_no, "point before dim line")
            if len(toks) != 2 + dim:
                raise ParseError(line_no, f"expected: point <label> and {dim} coordinates")
            if toks[1] in index:
                raise ParseError(line_no, f"duplicate point {toks[1]!r}")
            rows.append([_coordinate(t, line_no) for t in toks[2:]])
            index[toks[1]] = len(index)
        elif head == "edge":
            edges.append(_edge(toks, line_no, index))
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")
    if dim is None:
        raise ParseError(0, "missing dim line")
    if not index:
        raise ParseError(0, "no points")
    return _graph(index, edges), Embedding(np.array(rows, dtype=float), c=c)


def read_embedded_graph_file(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_embedded_graph_lines(fh)
