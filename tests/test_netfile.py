"""Tests for the network and model file formats."""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherelab import (
    Constant,
    LaplacianMatrix,
    NetworkModel,
    RationalTF,
    Uniform,
    ValidationError,
    model_file_text,
    network_file_text,
    parse_model_text,
    parse_network_text,
    read_model_file,
    read_network_file,
    tf_approx_equal,
    write_network_file,
)
import coherelab
from coherelab import rational
from coherelab.netfile import _fail, _float_field, _int_field, _strip
from coherelab.network import check_edge, k_regular_ring, laplacian_from_edges
from coherelab.rational import tf_from_text

GOOD_TEXT = """\
# a three-node line graph
nodes 3
edge 0 1 1.0
edge 1 2 2.5   # stronger link
node 0 num 1.0 / den 2.0 1.0
node 1 num 1.0 0.5 / den 3.0 4.0 1.0
node 2 num 2.0 / den 0.0 1.0
coupling num 1.0 / den 1.0
"""


class TestParseNetwork:
    def test_basic_structure(self):
        net = parse_network_text(GOOD_TEXT)
        assert net.n == 3
        mat = net.laplacian.matrix
        assert mat[0, 1] == -1.0
        assert mat[1, 2] == -2.5
        assert mat[0, 2] == 0.0
        assert tf_approx_equal(net.nodes[0], RationalTF([1.0], [2.0, 1.0]))
        assert tf_approx_equal(net.nodes[1], RationalTF([1.0, 0.5], [3.0, 4.0, 1.0]))
        assert tf_approx_equal(net.coupling, RationalTF([1.0], [1.0]))

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nnodes 1\n\n# dynamics\nnode 0 num 1 / den 1 1\ncoupling num 1 / den 1\n"
        net = parse_network_text(text)
        assert net.n == 1

    def test_colon_form_also_parses(self):
        text = "nodes 1\nnode 0 num: 1.0 / den: 1.0 1.0\ncoupling num: 1.0 / den: 1.0\n"
        net = parse_network_text(text)
        assert tf_approx_equal(net.nodes[0], RationalTF([1.0], [1.0, 1.0]))

    def test_node_order_independent_of_line_order(self):
        text = (
            "nodes 2\n"
            "node 1 num 2.0 / den 1.0 1.0\n"
            "node 0 num 1.0 / den 1.0 1.0\n"
            "coupling num 1 / den 1\n"
        )
        net = parse_network_text(text)
        assert tf_approx_equal(net.nodes[0], RationalTF([1.0], [1.0, 1.0]))
        assert tf_approx_equal(net.nodes[1], RationalTF([2.0], [1.0, 1.0]))

    def test_no_edges_is_allowed_but_flagged_disconnected(self):
        text = (
            "nodes 2\n"
            "node 0 num 1 / den 1 1\n"
            "node 1 num 1 / den 1 1\n"
            "coupling num 1 / den 1\n"
        )
        net = parse_network_text(text)
        assert not net.assumptions.connected
        assert net.assumptions.ok  # connectivity is advisory, not structural


class TestParseNetworkErrors:
    def check_fails(self, text, *needles):
        with pytest.raises(ValidationError) as excinfo:
            parse_network_text(text, source="test.net")
        message = str(excinfo.value)
        for needle in needles:
            assert needle in message, (needle, message)

    def test_missing_header(self):
        self.check_fails("node 0 num 1 / den 1\n", "test.net:1", "header")
        self.check_fails("", "test.net", "missing 'nodes")

    def test_duplicate_header(self):
        self.check_fails("nodes 2\nnodes 2\n", "test.net:2", "duplicate")

    def test_bad_counts_and_indices(self):
        self.check_fails("nodes 0\n", "test.net:1", "positive")
        self.check_fails("nodes x\n", "test.net:1", "integer")
        self.check_fails("nodes 2\nnode 5 num 1 / den 1\n", "test.net:2", "outside")

    def test_edge_errors_carry_line_numbers(self):
        base = "nodes 3\n"
        self.check_fails(base + "edge 0 1\n", "test.net:2", "edge")
        self.check_fails(base + "edge 0 9 1.0\n", "test.net:2", "outside")
        self.check_fails(base + "edge 1 1 1.0\n", "test.net:2", "self-loop")
        self.check_fails(base + "edge 0 1 -2.0\n", "test.net:2", "positive")
        self.check_fails(base + "edge 0 1 w\n", "test.net:2", "number")

    @pytest.mark.parametrize("edge", [(0, 9, 1.0), (-1, 1, 1.0), (1, 1, 1.0), (0, 1, -2.0),
                                      (0, 1, math.nan)])
    def test_edge_errors_carry_the_laplacian_message(self, edge):
        with pytest.raises(ValidationError) as expected:
            laplacian_from_edges(3, [edge])
        with pytest.raises(ValidationError) as got:
            parse_network_text("nodes 3\nedge {} {} {}\n".format(*edge), source="test.net")
        assert str(got.value) == f"test.net:2: {expected.value}"

    def test_first_bad_line_in_file_order_decides(self):
        bad_edge, bad_node = "edge 0 7 1.0\n", "node 9 num 1 / den 1\n"
        self.check_fails("nodes 3\n" + bad_edge + bad_node, "test.net:2: edge (0, 7)")
        self.check_fails("nodes 3\n" + bad_node + bad_edge, "test.net:2: node index 9")

    def test_duplicate_and_missing_dynamics(self):
        dup = (
            "nodes 1\n"
            "node 0 num 1 / den 1\n"
            "node 0 num 2 / den 1\n"
            "coupling num 1 / den 1\n"
        )
        self.check_fails(dup, "test.net:3", "duplicate")
        missing = "nodes 2\nnode 0 num 1 / den 1\ncoupling num 1 / den 1\n"
        self.check_fails(missing, "missing dynamics", "[1]")

    def test_coupling_must_appear_exactly_once(self):
        none = "nodes 1\nnode 0 num 1 / den 1\n"
        self.check_fails(none, "missing coupling")
        twice = (
            "nodes 1\n"
            "node 0 num 1 / den 1\n"
            "coupling num 1 / den 1\n"
            "coupling num 2 / den 1\n"
        )
        self.check_fails(twice, "test.net:4", "duplicate coupling")

    def test_malformed_transfer_function_text(self):
        text = "nodes 1\nnode 0 num 1 den 1\ncoupling num 1 / den 1\n"
        self.check_fails(text, "test.net:2")

    def test_unknown_directive(self):
        self.check_fails("nodes 1\nwidget 3\n", "test.net:2", "unknown directive")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError) as excinfo:
            read_network_file(tmp_path / "absent.net")
        assert "cannot read" in str(excinfo.value)

    @pytest.mark.parametrize("read, text", [(read_network_file, GOOD_TEXT),
                                            (read_model_file, "num 1\nden 0 1\n")])
    def test_a_file_that_is_not_utf8_cannot_be_read(self, tmp_path, read, text):
        path = tmp_path / "latin1.txt"
        path.write_bytes(("# caf\xe9\n" + text).encode("latin-1"))
        with pytest.raises(ValidationError, match=f"^cannot read {re.escape(str(path))}: 'utf-8'"):
            read(path)

    @pytest.mark.parametrize("n, message", [
        (11, "node(s) [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
        (12, "node(s) [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], the first 10 of 11"),
    ])
    def test_many_missing_nodes_are_counted_and_the_first_listed(self, n, message):
        text = f"nodes {n}\nnode 0 num 1 / den 1\ncoupling num 1 / den 1\n"
        self.check_fails(text, f"test.net: missing dynamics for {message}")

    def test_a_large_node_count_fails_without_storage_of_its_size(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as excinfo:
                parse_network_text("nodes 1000000\n", source="test.net")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == ("test.net: missing dynamics for node(s) "
                                      "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], the first 10 of 1000000")
        assert peak < 2**20

    def test_a_node_count_beyond_memory_fails_with_the_missing_dynamics_error(self):
        # Read in a child under an address-space limit, so that a reader
        # that allocates by the node count fails there.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from coherelab import parse_network_text\n"
            "try:\n"
            "    parse_network_text('nodes 1' + '0' * 18 + '\\nnode 5 num 1 / den 1\\n',"
            " source='big.net')\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = os.path.dirname(os.path.dirname(coherelab.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("ValidationError big.net: missing dynamics for node(s) [0, 1, 2, 3, "
                               "4, 6, 7, 8, 9, 10], the first 10 of 999999999999999999\n")


class TestNetworkRoundTrip:
    def test_written_file_parses_to_identical_model(self, tmp_path):
        rng = np.random.default_rng(17)
        mat = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                if rng.random() < 0.8:
                    w = float(rng.uniform(0.5, 3.0))
                    mat[i, j] = mat[j, i] = -w
        np.fill_diagonal(mat, -mat.sum(axis=1))
        lap = LaplacianMatrix(mat)
        nodes = [
            RationalTF([float(rng.uniform(0.5, 2.0))],
                       [float(rng.uniform(0.5, 2.0)), 1.0])
            for _ in range(4)
        ]
        net = NetworkModel(lap, nodes, RationalTF([1.0], [0.0, 1.0]))

        path = tmp_path / "net.txt"
        write_network_file(net, path)
        back = read_network_file(path)

        assert np.array_equal(back.laplacian.matrix, net.laplacian.matrix)
        for g, h in zip(back.nodes, net.nodes):
            assert np.array_equal(g.num.coeffs, h.num.coeffs)
            assert np.array_equal(g.den.coeffs, h.den.coeffs)
        assert np.array_equal(back.coupling.num.coeffs, net.coupling.num.coeffs)

    def test_text_round_trip_is_stable(self):
        net = parse_network_text(GOOD_TEXT)
        text = network_file_text(net)
        assert network_file_text(parse_network_text(text)) == text


class TestModelFiles:
    def test_parse_uniform_and_constants(self):
        model = parse_model_text("num U(1,5)\nden 0 1\nseed 7\n")
        assert model.num_specs == (Uniform(1.0, 5.0),)
        assert model.den_specs == (Constant(0.0), Constant(1.0))
        assert model.seed == 7

    def test_seed_defaults_to_zero(self):
        model = parse_model_text("num 2.0\nden 1 1\n")
        assert model.seed == 0

    def test_mixed_specs_and_comments(self):
        text = "# model\nnum 1.0 U(0.5,1.5)\nden U(2,3) 0 1  # cubic-ish\n"
        model = parse_model_text(text)
        assert model.num_specs == (Constant(1.0), Uniform(0.5, 1.5))
        assert model.den_specs == (Uniform(2.0, 3.0), Constant(0.0), Constant(1.0))

    def test_errors_carry_line_numbers(self):
        cases = [
            ("den 1\n", "missing 'num'"),
            ("num 1\n", "missing 'den'"),
            ("num 1\nnum 2\nden 1\n", "<model>:2"),
            ("num q\nden 1\n", "<model>:1"),
            ("num U(5,1)\nden 1\n", "<model>:1"),
            ("num 1\nden 1\nseed x\n", "<model>:3"),
            ("num 1\nden 1\nseed 1\nseed 2\n", "<model>:4"),
            ("num 1\nden 1\nbogus\n", "unknown directive"),
        ]
        for text, needle in cases:
            with pytest.raises(ValidationError) as excinfo:
                parse_model_text(text)
            assert needle in str(excinfo.value), (text, str(excinfo.value))

    def test_model_text_round_trip(self):
        model = parse_model_text("num U(1,5)\nden 0 1\nseed 3\n")
        text = model_file_text(model)
        assert parse_model_text(text) == model
        assert text == "num U(1.0,5.0)\nden 0.0 1.0\nseed 3\n"


# ---------------------------------------------------------------------------
# The reader against a line-by-line scan
# ---------------------------------------------------------------------------


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
    # At least 11 of the first len(node_dynamics) + 11 indices are missing
    # when more than 10 are.
    missing = [i for i in range(min(n, len(node_dynamics) + 11)) if i not in node_dynamics]
    if len(missing) > 10:
        raise ValidationError(f"{source}: missing dynamics for node(s) {missing[:10]}, "
                              f"the first 10 of {n - len(node_dynamics)}")
    if missing:
        raise ValidationError(f"{source}: missing dynamics for node(s) {missing}")
    if coupling is None:
        raise ValidationError(f"{source}: missing coupling line")
    return n, edges, node_dynamics, coupling


def _per_line(text):
    """The network of a file read line by line (``_scan``)."""
    n, edges, dynamics, coupling = _scan(text, "test.net")
    return NetworkModel(laplacian_from_edges(n, edges), [dynamics[i] for i in range(n)], coupling)


def _outcome(read, text):
    """The Laplacian and coefficient bytes of a read, or its error."""
    try:
        net = read(text)
    except (ValidationError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    tfs = [*net.nodes, net.coupling]
    return net.laplacian.matrix.tobytes(), [(g.num.coeffs.tobytes(), g.den.coeffs.tobytes())
                                            for g in tfs]


def _int_token(value, style):
    """``value`` spelled as ``int`` reads it: plain, signed or with a digit separator."""
    return (str(value), f"+{value}", f"0_{value}" if value >= 0 else str(value))[style]


def _float_token(value, style):
    signed = repr(value) if math.copysign(1.0, value) < 0 else f"+{value!r}"
    return (repr(value), f"{value:e}", signed)[style]


_COEFF = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 3.0, 1e-14, 1e-30, 7.25e12])
_SEP = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def network_texts(draw):
    """Valid network files: comments, blank lines, tabs, CRLF, duplicate
    and reversed edges, node lines in any order, and ``+3``, ``0_3`` and
    ``1e0``-style tokens."""
    n = draw(st.integers(1, 6))
    sep = draw(_SEP)
    style = st.integers(0, 2)
    body = []
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        weight = st.sampled_from([1.0, 0.5, 2.5, 1e16, 1e-3, 7.0])
        for (i, j), w in draw(st.lists(st.tuples(pairs, weight), max_size=12)):
            fields = ["edge", _int_token(i, draw(style)), _int_token(j, draw(style)),
                      _float_token(w, draw(style))]
            body.append(sep.join(fields))
    for idx in draw(st.permutations(range(n))):
        num = draw(st.lists(_COEFF, min_size=1, max_size=3).filter(any))
        den = draw(st.lists(_COEFF, min_size=1, max_size=3).filter(any))
        colon = draw(st.sampled_from(["", ":"]))
        body.append(sep.join([
            "node", _int_token(idx, draw(style)), "num" + colon,
            *(_float_token(c, draw(style)) for c in num), "/", "den" + colon,
            *(_float_token(c, draw(style)) for c in den),
        ]))
    body.insert(draw(st.integers(0, len(body))), "coupling num 1.0 / den 1.0 1.0")
    body = draw(st.permutations(body))
    lines = [f"nodes{sep}{_int_token(n, draw(style))}", *body]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# a comment", "   ", "\t# edge 0 1 1.0"])))
    lines = [line + draw(st.sampled_from(["", "  ", " # trailing note", "\t#x"]))
             if line.strip() else line for line in lines]
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line for line in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


_MUTANTS = ["x", "-1", "0", "1", "99", "2.5", "nan", "inf", "-inf", "1e400", "1e-320", "",
            "edge", "node", "nodes", "coupling", "edges", "num", "den", "/", "#", "1 2",
            "10000000000000000000000"]


class TestBulkRead:
    """A valid file is read in bulk, to the bytes of the line-by-line scan;
    a file with a bad token fails with the scan's message."""

    @given(text=network_texts())
    @settings(max_examples=150, deadline=None)
    def test_valid_texts_read_in_bulk_as_line_by_line(self, text):
        assert _outcome(parse_network_text, text) == _outcome(_per_line, text)

    @given(text=network_texts(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_a_mutated_file_fails_with_the_line_scan_error(self, text, data):
        # One token replaced, or one line deleted, repeated or moved.
        how = data.draw(st.sampled_from(["token", "delete", "repeat", "move"]))
        if how == "token":
            parts = re.split(r"([ \t\r\n]+)", text)
            k = data.draw(st.sampled_from(range(0, len(parts), 2)))
            parts[k] = data.draw(st.sampled_from(_MUTANTS))
            mutant = "".join(parts)
        else:
            lines = text.splitlines()
            line = lines.pop(data.draw(st.integers(0, len(lines) - 1)))
            if how != "delete":
                lines.insert(data.draw(st.integers(0, len(lines))), line)
            if how == "repeat":
                lines.insert(data.draw(st.integers(0, len(lines))), line)
            mutant = "\n".join(lines)
        want = _outcome(_per_line, mutant)
        assert _outcome(lambda t: parse_network_text(t, source="test.net"), mutant) == want

    @pytest.mark.parametrize("token", ["10000000000000000000000", "-10000000000000000000000"])
    def test_an_endpoint_beyond_int64_is_out_of_range(self, token):
        text = GOOD_TEXT.replace("edge 1 2", f"edge 1 {token}")
        with pytest.raises(ValidationError, match=rf"^test\.net:4: edge \(1, {token}\) outside 0\.\.2$"):
            parse_network_text(text, source="test.net")

    TAIL = "node 0 num 1 / den 1\nnode 1 num 1 / den 1\ncoupling num 1 / den 1\n"

    @pytest.mark.parametrize("edges, message", [
        # A directive that only starts with "edge".
        ("edges 0 1 1.0\n", "test.net:2: unknown directive 'edges'"),
        # Five tokens, then three: four per line on average.
        ("edge 0 1 1.0 1.0\nedge 0 1\n", "test.net:2: expected 'edge <i> <j> <weight>'"),
        ("edge 0 1 1.0 edge\nedge 0 1\n", "test.net:2: expected 'edge <i> <j> <weight>'"),
        # Indented, commented and tab-separated edge lines are edge lines.
        ("  edge\t0 1 1.0 # note\n\tedge 1 1 1.0\n", "test.net:3: self-loop at node 1"),
    ])
    def test_edge_lines_the_bulk_read_rejects_fail_as_the_scan_says(self, edges, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_network_text("nodes 2\n" + edges + self.TAIL, source="test.net")

    def test_an_edge_line_before_the_header_fails_as_the_scan_says(self):
        with pytest.raises(ValidationError, match="^test.net:2: the 'nodes <n>' header must come"):
            parse_network_text("# c\n edge 0 1 1.0\nnodes 2\n" + self.TAIL, source="test.net")

    def test_a_node_line_longer_than_the_degree_limit_reads_line_by_line(self):
        # The trailing zeros trim away, but a bulk table would hold them all.
        zeros = " 0.0" * (2 * rational.MAX_DEGREE)
        text = GOOD_TEXT.replace("node 2 num 2.0", "node 2 num 2.0" + zeros)
        assert _outcome(parse_network_text, text) == _outcome(_per_line, text)
        assert _outcome(parse_network_text, text) == _outcome(parse_network_text, GOOD_TEXT)

    def test_edge_rule_errors_from_the_bulk_path_carry_the_line(self):
        text = "nodes 3\n" + "edge 0 1 1.0\n" * 3000 + "edge 2 2 1.0\n" + GOOD_TEXT.split("\n", 2)[2]
        with pytest.raises(ValidationError, match=r"^test\.net:3002: self-loop at node 2$"):
            parse_network_text(text, source="test.net")

    @pytest.mark.parametrize("position", [2048, 2049])
    @pytest.mark.parametrize("bad, message", [("edge 2 2 1.0", "self-loop at node 2"),
                                              ("edge 0 1 w", "edge weight must be a number, got 'w'")])
    def test_a_bad_edge_line_at_a_block_boundary_is_named(self, position, bad, message):
        lines = ["nodes 3", *["edge 0 1 1.0"] * 2100, *GOOD_TEXT.splitlines()[2:]]
        lines[position] = bad  # the position-th edge line of the run
        text = "\n".join(lines) + "\n"
        want = f"test.net:{position + 1}: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            parse_network_text(text, source="test.net")
        assert _outcome(lambda t: parse_network_text(t, source="test.net"), text) == \
            _outcome(_per_line, text)

    def test_an_edge_run_split_by_a_node_line(self):
        lines = ["nodes 3", *(f"edge {k % 3} {(k + 1) % 3} {1 + k % 5}.5" for k in range(3000)),
                 "node 1 num 1 / den 1 1", "node 2 num 2 / den 1 1", "coupling num 1 / den 1"]
        lines.insert(2100, "node 0 num 1 / den 2 1")
        text = "\n".join(lines) + "\n"
        assert _outcome(parse_network_text, text) == _outcome(_per_line, text)
        lines[2102] = "edge 1 1 1.0"
        with pytest.raises(ValidationError, match=r"^test\.net:2103: self-loop at node 1$"):
            parse_network_text("\n".join(lines), source="test.net")

    @pytest.mark.parametrize("node_first", [True, False])
    def test_the_first_of_a_bad_node_line_and_a_bad_edge_line_decides(self, node_first):
        bad = ["node 0 num 1 / den 0", "edge 2 2 1.0"]
        message = "denominator polynomial is zero" if node_first else "self-loop at node 2"
        first, last = bad if node_first else bad[::-1]
        lines = ["nodes 3", first, *["edge 0 1 1.0"] * 3000, last,
                 "node 1 num 1 / den 1", "node 2 num 1 / den 1", "coupling num 1 / den 1"]
        with pytest.raises(ValidationError, match=f"^test\\.net:2: {message}$"):
            parse_network_text("\n".join(lines), source="test.net")


def _bench_shaped(n, per_side, weight, nodes, coupling):
    return NetworkModel(k_regular_ring(n, per_side, weight), nodes, coupling)


def _simulate_shaped(n):
    gains = np.random.default_rng(1).uniform(1.0, 5.0, size=n)
    return _bench_shaped(n, 37 if n > 74 else 1, 1.0,
                         [RationalTF([k], [0.0, 1.0]) for k in gains], RationalTF([1.0], [1.0]))


def _sweep_shaped(n):
    rng = np.random.default_rng(2)
    nodes = []
    for i in range(n):
        k = rng.uniform(0.5, 2.0)
        if i % 2 == 0:
            z, p = rng.uniform(0.2, 2.0, size=2)
            nodes.append(RationalTF([k * z, k], [p, 1.0]))
        else:
            a0, b0 = rng.uniform(0.5, 2.0, size=2)
            a1, b1 = rng.uniform(0.8, 2.0, size=2)
            nodes.append(RationalTF([k * a0, k * a1, k], [b0, b1, 1.0]))
    return _bench_shaped(n, 22, 20.0, nodes, RationalTF([1.0], [0.0, 1.0]))


class TestBenchShapedFiles:
    @pytest.mark.parametrize("build, n", [(_simulate_shaped, 500), (_sweep_shaped, 300)])
    def test_written_network_reads_back_to_the_same_bytes(self, build, n):
        net = build(n)
        back = parse_network_text(network_file_text(net))
        assert back.laplacian.matrix.tobytes() == net.laplacian.matrix.tobytes()
        for g, h in zip([*back.nodes, back.coupling], [*net.nodes, net.coupling]):
            assert g.num.coeffs.tobytes() == h.num.coeffs.tobytes()
            assert g.den.coeffs.tobytes() == h.den.coeffs.tobytes()

    def test_polynomials_built_do_not_grow_with_the_node_count(self, monkeypatch):
        # Counts the validating constructor: the node functions come from
        # one normalized table, the coupling line alone is parsed as text.
        calls = []
        init = rational.Polynomial.__init__

        def counted(self, *args, **kwargs):
            calls.append(None)
            init(self, *args, **kwargs)

        texts = [network_file_text(_simulate_shaped(n)) for n in (10, 500)]
        monkeypatch.setattr(rational.Polynomial, "__init__", counted)
        counts = []
        for text in texts:
            calls.clear()
            parse_network_text(text)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 8
