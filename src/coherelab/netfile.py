"""Plain-text file formats for networks and random dynamics models.

Network files describe a complete analysis target::

    # comments run to end of line
    nodes 3
    edge 0 1 1.0
    edge 1 2 2.5
    node 0 num 1.0 / den 0.0 1.0
    node 1 num 1.0 / den 0.0 1.0
    node 2 num 2.0 / den 0.0 1.0
    coupling num 1.0 / den 1.0

Coefficients are ascending powers of s.  Every node index needs exactly
one dynamics line and the file exactly one coupling line.  Model files
describe a random transfer function, one distribution per coefficient::

    num U(1,5)
    den 0 1
    seed 7

where a bare number is a fixed coefficient and ``U(lo,hi)`` draws
uniformly.  All parse errors carry ``source:line``.

A network file is read in bulk.  Its ``edge`` lines are converted a block
of lines at a time (one join and split, then ``int`` and ``float`` over
the fields, as a line-by-line read converts them) into arrays that build
the Laplacian directly, and its node coefficients form one zero-padded
table, normalized as one (``rational._tfs_from_table``).  When any check
of the bulk read fails, the file is scanned again line by line; that scan
raises at the first bad line in file order, with its ``source:line``.
"""

from __future__ import annotations

import operator
import os
import re
from itertools import compress

import numpy as np

from .errors import ValidationError
from .coherence import NetworkModel
from .concentration import Constant, RandomTFModel, Uniform
from .network import _laplacian_from_arrays, check_edge, laplacian_from_edges
from .rational import (
    DEFAULT_TOL_CANCEL, MAX_DEGREE, RationalTF, _coeffs_text, _tf_fields, _tfs_from_table,
    tf_from_text,
)

__all__ = [
    "parse_network_text",
    "read_network_file",
    "network_file_text",
    "write_network_file",
    "parse_model_text",
    "read_model_file",
    "model_file_text",
]


class _LineError(ValidationError):
    pass


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _fail(source: str, lineno: int, message: str):
    raise _LineError(f"{source}:{lineno}: {message}")


def _int_field(token: str, what: str, source: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(source, lineno, f"{what} must be an integer, got {token!r}")


def _float_field(token: str, what: str, source: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(source, lineno, f"{what} must be a number, got {token!r}")


# ---------------------------------------------------------------------------
# Network files
# ---------------------------------------------------------------------------


# Edge lines joined and split at once; the block bounds the token lists
# alive at a time, and so the peak memory of a read.
_EDGE_BLOCK = 2048


class _Rescan(ValidationError):
    """A check of the bulk read failed; the line scan names the bad line."""


def _bulk_read(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list, RationalTF]:
    """``(n, i, j, w, nodes, coupling)`` of a network file.  Where
    ``_scan`` would raise, this raises ``ValueError``, ``OverflowError`` or
    ``ValidationError``, without a line number.

    The edge lines are the lines whose first token starts with ``edge``.
    A block of them splits into four tokens per line, each line's first
    exactly ``edge``, only if every line of the block does: a line's first
    token, shifted into a numeric field, fails ``int`` or ``float``.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    is_edge = [ln.startswith("edge") or ln.lstrip().startswith("edge") for ln in lines]
    first_edge = is_edge.index(True) if True in is_edge else len(lines)
    n = coupling = None
    rows = {}  # node index -> (numerator, denominator) coefficients
    for k in compress(range(len(lines)), map(operator.not_, is_edge)):
        tokens = lines[k].split()
        if not tokens:
            continue
        keyword = tokens[0]
        if n is None:
            if keyword != "nodes" or len(tokens) != 2 or first_edge < k:
                raise _Rescan
            n = int(tokens[1])
            if n < 1:
                raise _Rescan
        elif keyword == "node" and len(tokens) >= 3:
            idx = int(tokens[1])
            if not 0 <= idx < n or idx in rows:
                raise _Rescan
            rows[idx] = _tf_fields(lines[k].split(None, 2)[2])
        elif keyword == "coupling" and len(tokens) >= 2 and coupling is None:
            coupling = tf_from_text(lines[k].split(None, 1)[1])
        else:
            raise _Rescan
    if n is None or len(rows) != n or coupling is None:
        raise _Rescan

    edge_lines = list(compress(lines, is_edge))
    del lines, is_edge
    ends, weights = [], []
    for start in range(0, len(edge_lines), _EDGE_BLOCK):
        block = edge_lines[start:start + _EDGE_BLOCK]
        m = len(block)
        tokens = " ".join(block).split()
        if len(tokens) != 4 * m or tokens[::4].count("edge") != m:
            raise _Rescan
        ends.append(np.fromiter(map(int, tokens[1::4] + tokens[2::4]), np.int64, 2 * m)
                    .reshape(2, m))
        weights.append(np.fromiter(map(float, tokens[3::4]), float, m))
    del edge_lines
    i, j = np.concatenate([np.zeros((2, 0), dtype=np.int64), *ends], axis=1)
    w = np.concatenate([np.zeros(0), *weights])

    width = max(len(coeffs) for pair in rows.values() for coeffs in pair)
    if width > MAX_DEGREE + 1:  # left to the scan, so that the table stays small
        raise _Rescan
    table = np.zeros((n, 2, width))
    for idx, (num, den) in rows.items():
        table[idx, 0, : len(num)] = num
        table[idx, 1, : len(den)] = den
    return n, i, j, w, _tfs_from_table(table), coupling


def _scan(text: str, source: str) -> tuple[int, list, dict[int, RationalTF], RationalTF]:
    """``(n, edges, node dynamics by index, coupling)`` of a network file,
    read line by line; raises at the first bad line, in file order."""
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    node_dynamics: dict[int, RationalTF] = {}
    coupling: RationalTF | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "nodes":
            if n is not None:
                _fail(source, lineno, "duplicate 'nodes' header")
            if len(tokens) != 2:
                _fail(source, lineno, "expected 'nodes <count>'")
            n = _int_field(tokens[1], "node count", source, lineno)
            if n < 1:
                _fail(source, lineno, f"node count must be positive, got {n}")
            continue
        if n is None:
            _fail(source, lineno, "the 'nodes <n>' header must come before other lines")
        if keyword == "edge":
            if len(tokens) != 4:
                _fail(source, lineno, "expected 'edge <i> <j> <weight>'")
            i = _int_field(tokens[1], "edge endpoint", source, lineno)
            j = _int_field(tokens[2], "edge endpoint", source, lineno)
            w = _float_field(tokens[3], "edge weight", source, lineno)
            try:
                check_edge(n, i, j, w)
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
            edges.append((i, j, w))
        elif keyword == "node":
            if len(tokens) < 3:
                _fail(source, lineno, "expected 'node <i> num ... / den ...'")
            idx = _int_field(tokens[1], "node index", source, lineno)
            if not 0 <= idx < n:
                _fail(source, lineno, f"node index {idx} outside 0..{n - 1}")
            if idx in node_dynamics:
                _fail(source, lineno, f"duplicate dynamics for node {idx}")
            rest = line.split(None, 2)[2]
            try:
                node_dynamics[idx] = tf_from_text(rest)
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
        elif keyword == "coupling":
            if coupling is not None:
                _fail(source, lineno, "duplicate coupling line")
            if len(tokens) < 2:
                _fail(source, lineno, "expected 'coupling num ... / den ...'")
            rest = line.split(None, 1)[1]
            try:
                coupling = tf_from_text(rest)
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
        else:
            _fail(source, lineno, f"unknown directive {keyword!r}")

    if n is None:
        raise ValidationError(f"{source}: missing 'nodes <n>' header")
    missing = sorted(set(range(n)) - node_dynamics.keys())
    if missing:
        raise ValidationError(f"{source}: missing dynamics for node(s) {missing}")
    if coupling is None:
        raise ValidationError(f"{source}: missing coupling line")
    return n, edges, node_dynamics, coupling


def parse_network_text(
    text: str,
    *,
    source: str = "<network>",
    tol_cancel: float = DEFAULT_TOL_CANCEL,
) -> NetworkModel:
    """The network a network file describes (see the module docstring).

    A file the bulk read rejects is read by ``_scan``, which raises at its
    first bad line.  A file the scan accepts is built from the scan's
    fields: one whose Laplacian fails as a whole (an infinite weight), or
    one with a node line of more than ``MAX_DEGREE + 1`` coefficients.
    """
    try:
        # An overflow rejects a coefficient; the scan warns when it reads it.
        with np.errstate(over="ignore"):
            n, i, j, w, nodes, coupling = _bulk_read(text)
        lap = _laplacian_from_arrays(n, i, j, w)
    except (ValueError, OverflowError, ValidationError):
        n, edges, node_dynamics, coupling = _scan(text, source)
        lap = laplacian_from_edges(n, edges)
        nodes = [node_dynamics[i] for i in range(n)]
    return NetworkModel(lap, nodes, coupling, tol_cancel=tol_cancel)


def _read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_network_file(
    path: str | os.PathLike, *, tol_cancel: float = DEFAULT_TOL_CANCEL
) -> NetworkModel:
    return parse_network_text(_read_text(path), source=str(path), tol_cancel=tol_cancel)


def _tf_line(g: RationalTF) -> str:
    return f"num {_coeffs_text(g.num)} / den {_coeffs_text(g.den)}"


def network_file_text(net: NetworkModel) -> str:
    lines = [f"nodes {net.n}"]
    weights = np.triu(-net.laplacian.matrix, 1)
    rows, cols = np.nonzero(weights > 0.0)
    lines += [f"edge {i} {j} {w!r}"
              for i, j, w in zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist())]
    for i, g in enumerate(net.nodes):
        lines.append(f"node {i} {_tf_line(g)}")
    lines.append(f"coupling {_tf_line(net.coupling)}")
    return "\n".join(lines) + "\n"


def write_network_file(net: NetworkModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network_file_text(net))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_UNIFORM_RE = re.compile(r"^[Uu]\(([^,]+),([^)]+)\)$")


def _parse_spec(token: str, source: str, lineno: int):
    match = _UNIFORM_RE.match(token)
    if match:
        lo = _float_field(match.group(1), "uniform lower bound", source, lineno)
        hi = _float_field(match.group(2), "uniform upper bound", source, lineno)
        try:
            return Uniform(lo, hi)
        except ValidationError as exc:
            _fail(source, lineno, str(exc))
    try:
        return Constant(float(token))
    except ValueError:
        _fail(
            source, lineno,
            f"coefficient must be a number or U(lo,hi), got {token!r}",
        )


def parse_model_text(text: str, *, source: str = "<model>") -> RandomTFModel:
    num_specs = den_specs = None
    seed = 0
    seed_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword in ("num", "den"):
            if len(tokens) < 2:
                _fail(source, lineno, f"'{keyword}' needs at least one coefficient")
            specs = tuple(_parse_spec(tok, source, lineno) for tok in tokens[1:])
            if keyword == "num":
                if num_specs is not None:
                    _fail(source, lineno, "duplicate 'num' line")
                num_specs = specs
            else:
                if den_specs is not None:
                    _fail(source, lineno, "duplicate 'den' line")
                den_specs = specs
        elif keyword == "seed":
            if seed_seen:
                _fail(source, lineno, "duplicate 'seed' line")
            if len(tokens) != 2:
                _fail(source, lineno, "expected 'seed <integer>'")
            seed = _int_field(tokens[1], "seed", source, lineno)
            seed_seen = True
        else:
            _fail(source, lineno, f"unknown directive {keyword!r}")
    if num_specs is None:
        raise ValidationError(f"{source}: missing 'num' line")
    if den_specs is None:
        raise ValidationError(f"{source}: missing 'den' line")
    try:
        return RandomTFModel(num_specs, den_specs, seed=seed)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def read_model_file(path: str | os.PathLike) -> RandomTFModel:
    return parse_model_text(_read_text(path), source=str(path))


def _spec_token(spec) -> str:
    if isinstance(spec, Uniform):
        return f"U({repr(spec.lo)},{repr(spec.hi)})"
    return repr(spec.value)


def model_file_text(model: RandomTFModel) -> str:
    lines = [
        "num " + " ".join(_spec_token(s) for s in model.num_specs),
        "den " + " ".join(_spec_token(s) for s in model.den_specs),
        f"seed {model.seed}",
    ]
    return "\n".join(lines) + "\n"
