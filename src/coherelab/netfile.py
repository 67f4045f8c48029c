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
uniformly.  A parse error names ``source:line`` of the bad line, or only
``source`` when a required line is missing.

A network file is read once, in file order.  Each run of ``edge`` lines
is converted a block of lines at a time (one join and split, then ``int``
and ``float`` over the fields) into arrays that build the Laplacian
directly; every other line is checked on its own.  The node coefficients
form one zero-padded table, normalized as one when the file has been read
(``rational._tfs_from_table``).  A block that fails a check is read line
by line, and before any line error is raised the node lines above it are
checked, so the first bad line in file order is the one reported.
"""

from __future__ import annotations

import operator
import os
import re
from itertools import compress, filterfalse, islice

import numpy as np

from .errors import ValidationError
from .coherence import NetworkModel
from .concentration import Constant, RandomTFModel, Uniform
from .network import _edge_faults, _laplacian_from_arrays, check_edge
from .rational import (
    DEFAULT_TOL_CANCEL, MAX_DEGREE, RationalTF, _coeffs_text, _normalized_table, _tf_fields,
    _tfs_from_table, tf_from_text,
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
_MISSING_SHOWN = 10  # missing node indices listed; more are counted


class _NetworkReader:
    """What the lines of a network file read so far declare."""

    def __init__(self, source: str):
        self.source, self.n, self.coupling = source, None, None
        self.rows = {}  # node index -> (line number, num, den), in file order
        self.ends, self.weights = [], []  # per block: (2, m) int64 endpoints, m weights

    def edges(self, lines: list[str], start: int, stop: int) -> None:
        """Read the edge lines ``lines[start:stop]`` a block at a time.  A block
        splits into four tokens a line, each line's first exactly ``edge``,
        only if every line does (a first token shifted into a numeric field
        fails ``int`` or ``float``); one that fails a check is read line by
        line, which raises at its first bad line."""
        for first in range(start, stop, _EDGE_BLOCK):
            block = lines[first:min(first + _EDGE_BLOCK, stop)]
            m = len(block)
            tokens = " ".join(block).split()
            try:
                if self.n is None or len(tokens) != 4 * m or tokens[::4].count("edge") != m:
                    raise ValueError
                ij = np.fromiter(map(int, tokens[1::4] + tokens[2::4]), np.int64, 2 * m).reshape(2, m)
                w = np.fromiter(map(float, tokens[3::4]), float, m)
                if not _edge_faults(self.n, ij[0], ij[1], w).any():
                    self.ends.append(ij)
                    self.weights.append(w)
                    continue
            except (ValueError, OverflowError):
                pass
            for lineno, line in enumerate(block, first + 1):
                self.line(lineno, line)
            # Every line is good only when an endpoint overflows int64 under a
            # node count as large; such a file lacks node lines and fails.

    def line(self, lineno: int, line: str) -> None:
        """Check one line and record what it declares."""
        source = self.source
        tokens = line.split()
        if not tokens:
            return
        keyword = tokens[0]
        if keyword == "nodes":
            if self.n is not None:
                _fail(source, lineno, "duplicate 'nodes' header")
            if len(tokens) != 2:
                _fail(source, lineno, "expected 'nodes <count>'")
            self.n = _int_field(tokens[1], "node count", source, lineno)
            if self.n < 1:
                _fail(source, lineno, f"node count must be positive, got {self.n}")
        elif self.n is None:
            _fail(source, lineno, "the 'nodes <n>' header must come before other lines")
        elif keyword == "edge":
            if len(tokens) != 4:
                _fail(source, lineno, "expected 'edge <i> <j> <weight>'")
            i = _int_field(tokens[1], "edge endpoint", source, lineno)
            j = _int_field(tokens[2], "edge endpoint", source, lineno)
            w = _float_field(tokens[3], "edge weight", source, lineno)
            try:
                check_edge(self.n, i, j, w)
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
        elif keyword == "node":
            if len(tokens) < 3:
                _fail(source, lineno, "expected 'node <i> num ... / den ...'")
            idx = _int_field(tokens[1], "node index", source, lineno)
            if not 0 <= idx < self.n:
                _fail(source, lineno, f"node index {idx} outside 0..{self.n - 1}")
            if idx in self.rows:
                _fail(source, lineno, f"duplicate dynamics for node {idx}")
            try:
                num, den = _tf_fields(line.strip().split(None, 2)[2])
                if max(len(num), len(den)) > MAX_DEGREE + 1:
                    # Normalized alone, not to widen the table; the table keeps it.
                    g = RationalTF(num, den)
                    num, den = g.num.coeffs, g.den.coeffs
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
            self.rows[idx] = (lineno, num, den)
        elif keyword == "coupling":
            if self.coupling is not None:
                _fail(source, lineno, "duplicate coupling line")
            if len(tokens) < 2:
                _fail(source, lineno, "expected 'coupling num ... / den ...'")
            try:
                self.coupling = tf_from_text(line.strip().split(None, 1)[1])
            except ValidationError as exc:
                _fail(source, lineno, str(exc))
        else:
            _fail(source, lineno, f"unknown directive {keyword!r}")

    def node_functions(self) -> dict[int, RationalTF]:
        """The functions of the node lines read so far, by node index,
        normalized as one table; raises at the first bad one in file order."""
        if not self.rows:
            return {}
        rows = list(self.rows.values())
        table = np.zeros((len(rows), 2, max(len(c) for _, *pair in rows for c in pair)))
        for k, (_, num, den) in enumerate(rows):
            table[k, 0, : len(num)] = num
            table[k, 1, : len(den)] = den
        try:
            tfs = _tfs_from_table(table)
        except ValidationError as exc:
            k = int(np.argmax(_normalized_table(table)[2]))
            _fail(self.source, rows[k][0], str(exc))
        return dict(zip(self.rows, tfs))

    def network(self, tol_cancel: float) -> NetworkModel:
        """The network of a file whose every line has been read."""
        nodes = self.node_functions()
        n, source = self.n, self.source
        if n is None:
            raise ValidationError(f"{source}: missing 'nodes <n>' header")
        missing = n - len(nodes)
        if missing:  # found in time bounded by the file's size, however large n is
            shown = list(islice(filterfalse(nodes.__contains__, range(n)), _MISSING_SHOWN))
            total = f", the first {_MISSING_SHOWN} of {missing}" if missing > _MISSING_SHOWN else ""
            raise ValidationError(f"{source}: missing dynamics for node(s) {shown}{total}")
        if self.coupling is None:
            raise ValidationError(f"{source}: missing coupling line")
        i, j = np.concatenate([np.zeros((2, 0), dtype=np.int64), *self.ends], axis=1)
        w = np.concatenate([np.zeros(0), *self.weights])
        del self.ends, self.weights, self.rows  # before the n-by-n arrays
        lap = _laplacian_from_arrays(n, i, j, w)
        return NetworkModel(lap, [nodes[k] for k in range(n)], self.coupling,
                            tol_cancel=tol_cancel)


def parse_network_text(
    text: str,
    *,
    source: str = "<network>",
    tol_cancel: float = DEFAULT_TOL_CANCEL,
) -> NetworkModel:
    """The network a network file describes (see the module docstring)."""
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    is_edge = [ln.startswith("edge") or ln.lstrip().startswith("edge") for ln in lines]
    reader = _NetworkReader(source)
    run = 0  # the first line of the current run of edge lines
    try:
        for k in compress(range(len(lines)), map(operator.not_, is_edge)):
            reader.edges(lines, run, k)
            reader.line(k + 1, lines[k])
            run = k + 1
        reader.edges(lines, run, len(lines))
    except _LineError:
        reader.node_functions()  # a bad node line above the bad line decides
        raise
    del lines, is_edge
    return reader.network(tol_cancel)


def _read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
