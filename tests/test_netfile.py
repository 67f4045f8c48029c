"""Tests for the network and model file formats."""

import math

import numpy as np
import pytest

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
    read_network_file,
    tf_approx_equal,
    write_network_file,
)
from coherelab.network import laplacian_from_edges

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
