import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extreme_blocks import io as ebio
from jsonfiles import dump_graph_json


class TestGraphJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        dump_graph_json(path, ["b", "a", "c"], [("a", "b"), ("b", "c")])
        nodes, edges = ebio.load_graph_json(path)
        assert nodes == ["b", "a", "c"]
        assert edges == [("a", "b"), ("b", "c")]

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
        with pytest.raises(ValueError):
            ebio.load_graph_json(path)

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": ["a", "a"], "edges": []}')
        with pytest.raises(ValueError):
            ebio.load_graph_json(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": ["a"]}')
        with pytest.raises(ValueError):
            ebio.load_graph_json(path)

    @pytest.mark.parametrize("doc", [
        '{"nodes": 5, "edges": []}',
        '{"nodes": ["a", "b"], "edges": 7}',
        '{"nodes": "abc", "edges": []}',
    ])
    def test_non_list_fields_rejected(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="'nodes' and 'edges' lists"):
            ebio.load_graph_json(path)


    @pytest.mark.parametrize("node", ["", "a,b", "a\nb", "a\rb", ","])
    def test_node_id_the_csv_formats_cannot_carry_rejected(self, tmp_path, node):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": ["c", node], "edges": [["c", node]]}))
        with pytest.raises(ValueError) as err:
            ebio.load_graph_json(path)
        assert repr(node) in str(err.value)

    @pytest.mark.parametrize("entry", ['["a"]', '["a", "b", "c"]', '"ab"', '{"a": "b"}', "3"])
    def test_edge_entry_not_a_pair_rejected(self, tmp_path, entry):
        path = tmp_path / "g.json"
        path.write_text(f'{{"nodes": ["a", "b", "c"], "edges": [{entry}]}}')
        with pytest.raises(ValueError, match="pairs"):
            ebio.load_graph_json(path)


class TestMaskJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mask.json"
        path.write_text('{"latent": ["3", 4]}')
        assert ebio.load_mask_json(path) == ["3", "4"]

    @pytest.mark.parametrize("doc", ['["3"]', '{}', '{"latent": "3"}', '{"hidden": ["3"]}'])
    def test_malformed_rejected(self, tmp_path, doc):
        path = tmp_path / "mask.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="'latent' list"):
            ebio.load_mask_json(path)

class TestParamsJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        params = {("a", "b"): 0.25, ("b", "c"): 1.0 / 3.0}
        ebio.dump_params_json(path, params)
        back = ebio.load_params_json(path)
        assert back == params

    @pytest.mark.parametrize("doc", ['{}', '{"edges": 3}', '{"edges": {"a": "x"}}'])
    def test_missing_edges_list_rejected(self, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="'edges' list"):
            ebio.load_params_json(path)

    @pytest.mark.parametrize("value, reason", [
        ("true", "JSON number"), ("false", "JSON number"), ('"1.5"', "JSON number"),
        ("null", "JSON number"), ("[1]", "JSON number"), ("{}", "JSON number"),
        ("1" + "0" * 400, "too large"),
    ], ids=["true", "false", "string", "null", "list", "object", "huge-int"])
    def test_delta2_not_a_number_rejected(self, tmp_path, value, reason):
        path = tmp_path / "p.json"
        path.write_text('{"edges": [{"a": "x", "b": "y", "delta2": %s}]}' % value)
        with pytest.raises(ValueError, match=reason):
            ebio.load_params_json(path)

    def test_delta2_integer_accepted(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"edges": [{"a": "x", "b": "y", "delta2": 2}]}')
        assert ebio.load_params_json(path) == {("x", "y"): 2.0}

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"edges": [{"a": "x", "b": "y", "delta2": 1},'
                        ' {"a": "y", "b": "x", "delta2": 2}]}')
        with pytest.raises(ValueError):
            ebio.load_params_json(path)


class TestMatrixCsv:
    def test_round_trip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        nodes = ("a", "b", "c")
        values = rng.standard_normal((3, 3))
        p1 = tmp_path / "m1.csv"
        p2 = tmp_path / "m2.csv"
        ebio.write_matrix_csv(p1, nodes, values)
        back_nodes, back = ebio.read_matrix_csv(p1)
        assert back_nodes == nodes
        assert np.array_equal(back, values)  # 17 digits round-trips exactly
        ebio.write_matrix_csv(p2, back_nodes, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_per_value_formatting(self, tmp_path):
        half = np.array([[0.0, -0.0, 1e-300, 1e300], [np.nan, np.inf, -np.inf, 1 / 3]])
        values = np.vstack([half, -half[::-1, ::-1]])
        nodes = ("a", "b", "c", "d")
        path = tmp_path / "m.csv"
        ebio.write_matrix_csv(path, nodes, values)
        expect = ["," + ",".join(nodes)]
        expect += [v + "," + ",".join(ebio.fmt17(x) for x in row) for v, row in zip(nodes, values)]
        assert path.read_text() == "\n".join(expect) + "\n"

    def test_label_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\nb,0,1\na,1,0\n")
        with pytest.raises(ValueError):
            ebio.read_matrix_csv(path)

    def test_extra_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,0,1\nb,1,0\nc,5,5\n")
        with pytest.raises(ValueError, match="'c'"):
            ebio.read_matrix_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix file"),
        ("\n\n", "empty matrix file"),
        ("a,b\na,0,1\nb,1,0\n", "empty header cell"),
        ("x,a,b\na,0,1\nb,1,0\n", "empty header cell"),
        (",a,b\na,0,1\n", "row count"),
        (",a,b\n", "row count"),
    ])
    def test_malformed_rejected(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            ebio.read_matrix_csv(path)

    def test_wide_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,0,1,2\nb,1,0,2\n")
        with pytest.raises(ValueError, match="'a' has 3 values"):
            ebio.read_matrix_csv(path)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "s.csv"
        mat = rng.random((5, 3))
        ebio.write_samples_csv(path, ("x", "y", "z"), mat)
        nodes, back = ebio.read_samples_csv(path)
        assert nodes == ("x", "y", "z")
        assert np.array_equal(back, mat)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        mat = np.array([[0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf, 0.1]])
        path = tmp_path / "s.csv"
        nodes = tuple("abcdefgh")
        ebio.write_samples_csv(path, nodes, mat)
        expect = ",".join(nodes) + "\n" + ",".join(ebio.fmt17(x) for x in mat[0]) + "\n"
        assert path.read_text() == expect
        assert expect.splitlines()[1] == "0,-0,1e-300,1.0000000000000001e+300,nan,inf,-inf,0.10000000000000001"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError):
            ebio.read_samples_csv(path)

    @pytest.mark.parametrize("text", ["", "\n1,2\n"])
    def test_no_header_rejected(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty samples file"):
            ebio.read_samples_csv(path)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n3,4,5\n6,7\n")
        with pytest.raises(ValueError, match="line 3 has 3 values for 2 header nodes"):
            ebio.read_samples_csv(path)


@pytest.mark.parametrize("write", [ebio.write_matrix_csv, ebio.write_samples_csv])
def test_csv_rows_streamed(tmp_path, write):
    n = 1001
    values = np.random.default_rng(3).standard_normal((n, n))
    nodes = [f"v{i}" for i in range(n)]
    tracemalloc.start()
    try:
        write(tmp_path / "m.csv", nodes, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix as nested lists takes about 32 MB, its formatted lines
    # more; the writers hold one block of 4096 values at a time
    assert peak < 1e6
    assert len((tmp_path / "m.csv").read_text().splitlines()) == n + 1


def test_csv_writers_reject_a_shape_their_readers_refuse(tmp_path):
    path = tmp_path / "m.csv"
    for values in (np.ones((3, 3)), np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="do not fit 2 nodes"):
            ebio.write_matrix_csv(path, ("a", "b"), values)
    for values in (np.ones((4, 3)), np.ones(3)):
        with pytest.raises(ValueError, match="do not fit 2 nodes"):
            ebio.write_samples_csv(path, ("a", "b"), values)
    with pytest.raises(ValueError, match="at least one node"):
        ebio.write_matrix_csv(path, (), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="at least one node"):
        ebio.write_samples_csv(path, (), np.zeros((3, 0)))
    assert not path.exists()
    ebio.write_samples_csv(path, ("a", "b"), np.array([1.0, 2.0]))  # one row
    assert path.read_text() == "a,b\n1,2\n"


def test_samples_writer_refuses_a_table_with_no_rows(tmp_path):
    # a header alone is a file that read_samples_csv refuses
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="at least one row"):
        ebio.write_samples_csv(path, ("a", "b"), np.zeros((0, 2)))
    assert not path.exists()
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        ebio.read_samples_csv(path)


class TestCsvKernel:
    """The array formatter of the CSV writers against fmt17, value by value."""

    @staticmethod
    def check(tmp_path, values, cols=64):
        values = np.asarray(values, dtype=float).ravel()
        values = np.concatenate([values, np.zeros(-values.size % cols)]).reshape(-1, cols)
        path = tmp_path / "s.csv"
        ebio.write_samples_csv(path, [f"v{j}" for j in range(cols)], values)
        lines = path.read_text().split("\n")
        assert len(lines) == len(values) + 2 and lines[-1] == ""
        for row, line in zip(values, lines[1:]):
            for x, cell in zip(row, line.split(",")):
                assert cell == ebio.fmt17(x), (x.hex(), cell)

    def test_random_bit_patterns(self, tmp_path):
        x = np.random.default_rng(20).integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        a = np.abs(x)
        assert np.isnan(x).any() and (a >= 1e16).any() and ((a > 0) & (a < 2.2250738585072014e-308)).any()
        self.check(tmp_path, x)

    def test_dyadic_values_with_exact_ties(self, tmp_path):
        # m 2^-j: x * 10^(16-E) is often a tie at the 18th digit, which
        # "%.17g" rounds to even
        rng = np.random.default_rng(21)
        x = np.ldexp(rng.integers(1, 2**53, 20000).astype(float), -rng.integers(0, 64, 20000))
        ties = 0
        for v in x[(x >= 1e-4) & (x < 1e16)]:
            e = int(f"{v:.16e}".split("e")[1])
            ties += (Fraction(v) * Fraction(10) ** (16 - e)).denominator == 2
        assert ties > 100
        self.check(tmp_path, np.concatenate([x, -x]))
        path = tmp_path / "t.csv"
        ebio.write_samples_csv(path, ("a", "b"), np.array([[1234567890123456.25, -1234567890123456.75]]))
        assert path.read_text().splitlines()[1] == "1234567890123456.2,-1234567890123456.8"

    def test_near_powers_of_ten(self, tmp_path):
        # every double within 2000 ulps of 1e-4 ... 1e16; below a power of
        # ten log10 rounds up to it for some, the exponent must then move
        powers = np.array([float(f"1e{k}") for k in range(-4, 17)])
        x = (powers.view(np.int64)[:, None] + np.arange(-2000, 2001)).view(np.float64).ravel()
        true_e = np.array([int(f"{v:.16e}".split("e")[1]) for v in x])
        assert (np.floor(np.log10(x)) > true_e).sum() > 100
        self.check(tmp_path, np.concatenate([x, -x]), cols=1000)

    def test_window_edges_and_signed_zeros(self, tmp_path):
        edges = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
                 5e-324, 2.2250738585072014e-308, np.finfo(float).max, np.inf, np.nan, 0.0]
        x = np.array(edges + [-v for v in edges])
        self.check(tmp_path, x, cols=len(x))
        path = tmp_path / "z.csv"
        ebio.write_matrix_csv(path, ("a", "b"), np.array([[0.0, -0.0], [-0.0, 0.0]]))
        assert path.read_text() == ",a,b\na,0,-0\nb,-0,0\n"

    @pytest.mark.parametrize("block", [3, 7, 16])
    def test_rows_split_across_blocks(self, tmp_path, monkeypatch, block):
        # rows longer than a block, and blocks of several rows, keep their labels
        monkeypatch.setattr(ebio, "BLOCK", block)
        values = np.random.default_rng(22).standard_normal((10, 10)) * 10.0 ** np.arange(-6, 4)
        nodes = [f"n{i}" for i in range(10)]
        path = tmp_path / "m.csv"
        ebio.write_matrix_csv(path, nodes, values)
        expect = ["," + ",".join(nodes)]
        expect += [v + "," + ",".join(ebio.fmt17(x) for x in row) for v, row in zip(nodes, values)]
        assert path.read_text() == "\n".join(expect) + "\n"
        self.check(tmp_path, values, cols=10)

    def test_only_values_outside_the_window_take_the_fallback(self, tmp_path, monkeypatch):
        # zeros, which fill a precision matrix, are formatted by the arrays
        seen = []
        percent_g = ebio._percent_g
        monkeypatch.setattr(ebio, "_percent_g", lambda v: seen.append(v.copy()) or percent_g(v))
        values = np.zeros((100, 100))
        values[::7, ::3] = np.random.default_rng(23).standard_normal(values[::7, ::3].shape)
        values[5, :4] = [-0.0, 1e-5, 1e20, np.nan]
        self.check(tmp_path, values, cols=100)
        assert len(seen) == 1 and seen[0][:2].tolist() == [1e-5, 1e20] and np.isnan(seen[0][2:]).all()


class TestBinaryMatrix:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "m.bin"
        mat = rng.standard_normal((7, 4))
        ebio.write_matrix_binary(path, mat)
        back = ebio.read_matrix_binary(path)
        assert np.array_equal(back, mat)

    def test_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        ebio.write_matrix_binary(path, np.array([[1.0, 2.0]]))
        raw = path.read_bytes()
        assert raw[:5] == b"EBLK1"
        assert int.from_bytes(raw[5:13], "little") == 1
        assert int.from_bytes(raw[13:21], "little") == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError):
            ebio.read_matrix_binary(path)

    @pytest.mark.parametrize("raw", [b"EBLK1", b"EBLK1\x01\x00", b"EBLK1" + b"\x00" * 15])
    def test_file_shorter_than_header(self, tmp_path, raw):
        path = tmp_path / "m.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="21-byte header"):
            ebio.read_matrix_binary(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        ebio.write_matrix_binary(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            ebio.read_matrix_binary(path)
