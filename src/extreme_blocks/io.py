"""File formats: graph/parameter/mask JSON, matrix CSV, compact binary.

Numeric CSV output uses 17 significant digits, which round-trips 64-bit
floats exactly; re-reading and re-emitting a file is byte-identical.
Format violations raise ValueError (the CLI maps those to the usage exit
code); semantic validation happens in the domain modules.

The CSV writers format matrices in blocks of at most 4096 values with a
numpy kernel whose bytes are those of "%.17g" (fmt17 is its reference).
Zeros and every value with 1e-4 <= |x| < 1e16, which "%.17g" writes in
fixed notation, take array arithmetic: the exact product of |x| and a
power of ten from Dekker's two-product (1971) gives the 17 digits,
rounded half to even, as an exact decimal conversion (Steele & White
1990; Gay 1990) would. Every other value (tiny, huge, subnormal, inf,
nan) goes through Python's "%", once per block.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import Edge, canonical_edge

BINARY_MAGIC = b"EBLK1"


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


# -- JSON inputs -----------------------------------------------------------

def load_graph_json(path: str | Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Parse {"nodes": [...], "edges": [[a, b], ...]}; duplicates rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("nodes", "edges")):
        raise ValueError("graph file must be an object with 'nodes' and 'edges' lists")
    nodes = [str(v) for v in doc["nodes"]]
    for v in nodes:  # the CSV formats and comma-list options could not carry it
        if not v or any(c in v for c in ",\n\r"):
            raise ValueError(f"node identifier {v!r} is empty or holds a comma or line break")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node identifiers")
    seen: set[Edge] = set()
    edges: list[tuple[str, str]] = []
    for item in doc["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"edge entries must be pairs, got {item!r}")
        e = canonical_edge(str(item[0]), str(item[1]))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return nodes, edges


def load_params_json(path: str | Path) -> dict[Edge, float]:
    """Parse {"edges": [{"a": ..., "b": ..., "delta2": ...}, ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise ValueError("parameter file must be an object with an 'edges' list")
    params: dict[Edge, float] = {}
    for item in doc["edges"]:
        try:
            e = canonical_edge(str(item["a"]), str(item["b"]))
            val = item["delta2"]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise TypeError("delta2 must be a JSON number")
            val = float(val)  # an integer beyond the float range overflows
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad parameter entry {item!r}: {exc}") from exc
        if e in params:
            raise ValueError(f"duplicate parameter for edge {e}")
        params[e] = val
    return params


def dump_params_json(path: str | Path, params: dict[Edge, float]):
    doc = {
        "edges": [
            {"a": a, "b": b, "delta2": params[(a, b)]}
            for a, b in sorted(params)
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_mask_json(path: str | Path) -> list[str]:
    """Parse {"latent": [...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "latent" not in doc or not isinstance(doc["latent"], list):
        raise ValueError("mask file must be an object with a 'latent' list")
    return [str(v) for v in doc["latent"]]


# -- matrices as CSV with identifier headers --------------------------------

BLOCK = 1 << 12  # values formatted per numpy pass of the CSV kernel
FRAME = 28  # bytes a value is laid out in before the frames are compacted
LEAD = 7  # '0' bytes ahead of the 17 digits in a frame: "0.000" and a sign fit
TEN16, TEN17 = np.int64(10**16), np.int64(10**17)
COMMA, NEWLINE, POINT, MINUS = (np.uint8(ord(c)) for c in ",\n.-")


def _kernel_tables() -> tuple[np.ndarray, ...]:
    """Tables of the CSV kernel, built per file written (about 0.1 ms):
    10^k for k <= 22, every one an exact double, and its two halves from
    Veltkamp's split; the ASCII of each 4-digit group as one uint32 and its
    count of trailing zeros (4 for 0000); and the byte mask of each frame
    prefix, row j holding 0xFF in its first j bytes."""
    pow10 = np.array([float(10**k) for k in range(23)])
    cut = pow10 * np.float64(2**27 + 1)
    hi = cut - (cut - pow10)
    digit = np.arange(10, dtype=np.uint8) + np.uint8(ord("0"))
    columns = [np.repeat(digit, 1000), np.tile(np.repeat(digit, 100), 10),
               np.tile(np.repeat(digit, 10), 100), np.tile(digit, 1000)]
    run = columns[3] == digit[0]
    zeros = run.astype(np.int64)
    for column in columns[2::-1]:
        run &= column == digit[0]
        zeros += run
    groups = np.stack(columns, axis=1).view(np.uint32).ravel()
    prefix = np.tril(np.full((FRAME + 1, FRAME), 0xFF, dtype=np.uint8), -1)
    return pow10, hi, pow10 - hi, groups, zeros, prefix


def _decimal17(t: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """Exponent E and 17 significant digits D = round-half-even(t * 10^(16-E))
    of each t > 0 with 1e-4 <= t < 1e16, as int64: E starts from log10 and
    moves until 10^16 <= D < 10^17. Dekker's two-product splits t * 10^k
    exactly into the double p and its error r; where D lies in that range,
    p >= 2^53 is an even integer, so D = p + rint(r). Below 2^53 the sum is
    inexact but stays below 10^16, as the true D does."""
    pow10, hi, lo = tables[:3]
    cut = t * np.float64(2**27 + 1)
    t_hi = cut - (cut - t)
    t_lo = t - t_hi
    e = np.floor(np.log10(t)).astype(np.int64)
    while True:
        k = np.int64(16) - e
        p = t * pow10[k]
        r = ((t_hi * hi[k] - p) + t_hi * lo[k] + t_lo * hi[k]) + t_lo * lo[k]
        d = p.astype(np.int64) + np.rint(r).astype(np.int64)
        low, high = d < TEN16, d >= TEN17
        if not (low.any() or high.any()):
            return e, d
        e += high.astype(np.int64) - low.astype(np.int64)


def _digit_frames(d: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """Each D < 10^17 as a FRAME-byte row of LEAD '0's and its 17 digits,
    and its count of significant digits: 17 less its trailing zeros, at
    least 1."""
    groups, zeros = tables[3:5]
    ten4, ten8 = np.int64(10**4), np.int64(10**8)
    top = d // ten8  # floor division and a product: np.divmod is slower
    bottom = d - top * ten8
    g01 = top // ten4
    g2 = top - g01 * ten4
    g0 = g01 // ten4
    g1 = g01 - g0 * ten4
    g3 = bottom // ten4
    g4 = bottom - g3 * ten4
    words = np.zeros((d.size, FRAME // 4), dtype=np.uint32)
    words[:, 0] = groups[0]  # "0000", then "000" and the first digit: LEAD '0's
    for j, g in enumerate((g0, g1, g2, g3, g4), start=1):
        words[:, j] = groups.take(g)
    tail, run = zeros.take(g4), g4 == np.int64(0)
    for g in (g3, g2, g1):
        tail += zeros.take(g) * run
        run &= g == np.int64(0)
    return words.view(np.uint8), np.int64(17) - tail


def _percent_g(values: np.ndarray) -> np.ndarray:
    """"%.17g" of each value, by Python's "%" in one call, as rows of 24
    bytes padded with spaces: no such text is longer."""
    text = ("%-24.17g" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(values.size, 24)


def _format_block(x: np.ndarray, seps: np.ndarray, tables) -> tuple[str, np.ndarray]:
    """Format each value of x as "%.17g" followed by its separator byte;
    return the text and the offset in it where each value's text ends.

    Zeros and every value with 1e-4 <= |x| < 1e16, which "%.17g" writes in
    fixed notation, are formatted by array arithmetic: the digits of D from
    _decimal17 in a frame, the point inserted after digit E, the sign put
    ahead, the trailing zeros of the fraction dropped. Every other value
    (tiny, huge, subnormal, inf, nan) goes through Python's "%" in one call."""
    prefix = tables[5]
    a = np.abs(x)
    fixed = (a >= np.float64(1e-4)) & (a < np.float64(1e16))
    slow = np.flatnonzero(~fixed & (a != np.float64(0.0)))
    e, d = _decimal17(np.where(fixed, a, np.float64(1.0)), tables)
    del a
    e *= fixed  # zeros and fallback values: D = 0, laid out as "0"
    d *= fixed
    frame, digits = _digit_frames(d, tables)
    del d
    out = np.empty_like(frame)  # the frame one byte to the right
    out.ravel()[1:] = frame.ravel()[:-1]
    out[:, 0] = 0
    point = np.int64(LEAD + 1) + e
    mask = np.take(prefix, point, axis=0)
    np.bitwise_xor(frame, out, out=frame)
    np.bitwise_and(frame, mask, out=frame)
    np.bitwise_xor(out, frame, out=out)  # the frame before the point, shifted after it
    del frame
    rows = np.arange(x.size, dtype=np.int64) * np.int64(FRAME)
    flat = out.ravel()
    flat[rows + point] = POINT
    first = np.int64(LEAD) + np.minimum(e, np.int64(0))
    neg = np.signbit(x)
    flat[(rows + first - np.int64(1))[neg]] = MINUS
    start = first - neg.astype(np.int64)
    end = np.int64(LEAD + 1) + np.where(digits > e + np.int64(1), digits, e)
    if slow.size:
        chars = _percent_g(x[slow])
        out[slow, :24] = chars
        start[slow] = 0
        end[slow] = np.count_nonzero(chars != np.uint8(ord(" ")), axis=1)
    flat[rows + end] = seps
    del rows, point, first, neg, e, digits
    np.take(prefix, end + np.int64(1), axis=0, out=mask)
    out &= mask
    np.take(prefix, start, axis=0, out=mask)
    out &= np.invert(mask, out=mask)
    del mask
    text = str(flat[flat != 0].data, "ascii")
    return text, np.cumsum(end - start + np.int64(1))


def _write_rows(path: str | Path, header: str, matrix: np.ndarray, labels: Sequence[str] | None = None):
    """Write the header line, then each matrix row, after its label if
    labels are given, in blocks of at most BLOCK values: neither the lines
    nor the matrix as lists are held. Values read as fmt17 writes them."""
    rows, cols = matrix.shape
    step = max(1, BLOCK // cols)
    tables = _kernel_tables()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in range(0, rows, step):
            for c in range(0, cols, BLOCK):
                block = matrix[r:r + step, c:c + BLOCK]
                seps = np.full(block.shape, COMMA)
                if c + block.shape[1] == cols:
                    seps[:, -1] = NEWLINE
                text, ends = _format_block(block.ravel(), seps.ravel(), tables)
                if labels is None or c:
                    fh.write(text)
                    continue
                cuts = [0, *ends[block.shape[1] - 1::block.shape[1]].tolist()]
                fh.write("".join(f"{labels[r + i]}," + text[cuts[i]:cuts[i + 1]]
                                 for i in range(block.shape[0])))


def _check_shape(nodes: Sequence[str], values: np.ndarray, shape: tuple[int, int]):
    """Refuse what the readers would refuse to read back."""
    if not len(nodes):
        raise ValueError("a CSV matrix needs at least one node")
    if values.shape != shape:
        raise ValueError(f"values of shape {values.shape} do not fit {len(nodes)} nodes: expected {shape}")


def write_matrix_csv(path: str | Path, nodes: Sequence[str], values: np.ndarray):
    values = np.asarray(values, dtype=float)
    _check_shape(nodes, values, (len(nodes), len(nodes)))
    _write_rows(path, "," + ",".join(nodes), values, nodes)


def read_matrix_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split(",")
    if header[0] != "":
        raise ValueError("matrix CSV must start with an empty header cell")
    nodes = tuple(header[1:])
    rows = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        if k >= len(nodes):
            raise ValueError(f"row {cells[0]!r} is beyond the {len(nodes)} header nodes")
        if cells[0] != nodes[k]:
            raise ValueError(f"row label {cells[0]!r} does not match column order")
        if len(cells) != len(nodes) + 1:
            raise ValueError(f"row {cells[0]!r} has {len(cells) - 1} values for {len(nodes)} header nodes")
        rows.append([float(x) for x in cells[1:]])
    if len(rows) != len(nodes):
        raise ValueError("matrix CSV row count does not match header")
    return nodes, np.array(rows)


# -- sample tables -----------------------------------------------------------

def write_samples_csv(path: str | Path, nodes: Sequence[str], matrix: np.ndarray):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _check_shape(nodes, matrix, (len(matrix), len(nodes)))
    if not len(matrix):
        raise ValueError("a samples CSV needs at least one row")
    _write_rows(path, ",".join(nodes), matrix)


def read_samples_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty samples file")
        nodes = tuple(header.split(","))
        data = []
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(nodes):
                raise ValueError(f"line {lineno} has {len(cells)} values for {len(nodes)} header nodes")
            data.append([float(x) for x in cells])
    if not data:
        raise ValueError("samples file has no data rows")
    return nodes, np.array(data)


# -- compact binary matrix ----------------------------------------------------

def write_matrix_binary(path: str | Path, matrix: np.ndarray):
    """Magic 'EBLK1', little-endian u64 dims, then row-major f64 payload."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes(order="C"))


def read_matrix_binary(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise ValueError("bad magic; not a binary matrix file")
    off = len(BINARY_MAGIC) + 16
    if len(raw) < off:
        raise ValueError(f"binary matrix file is shorter than its {off}-byte header")
    rows, cols = struct.unpack_from("<QQ", raw, len(BINARY_MAGIC))
    expect = rows * cols * 8
    payload = raw[off:]
    if len(payload) != expect:
        raise ValueError("binary matrix payload has the wrong length")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
