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
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import ValidationError
from .coherence import NetworkModel
from .concentration import Constant, RandomTFModel, Uniform
from .network import check_edge, laplacian_from_edges
from .rational import DEFAULT_TOL_CANCEL, RationalTF, _coeffs_text, tf_from_text

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


def parse_network_text(
    text: str,
    *,
    source: str = "<network>",
    tol_cancel: float = DEFAULT_TOL_CANCEL,
) -> NetworkModel:
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
