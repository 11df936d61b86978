"""CSV and binary wire formats for block vectors and block matrices.

Block vector CSV: header `k,row,col,re,im`, one line per scalar entry of
an (n, d, r) block stack, all indices 1-based. Binary: eight
little-endian int64 header words (magic, version, n, d, layout, r, two
reserved zeros) followed by the complex128 payload, C order. Layout 1 is
an (n, d, r) block stack, where an r word of 0 (files written before it
was stored) means r = d; layout 2 is a dense (d n, d n) matrix, with
word 5 zero. Values round-trip bit-exactly in both formats (CSV uses
repr-style shortest float fields).
"""

import numpy as np

MAGIC = 0x31_5A_50_54          # "TPZ1"
VERSION = 1
LAYOUT_BLOCK_VECTOR = 1
LAYOUT_DENSE_MATRIX = 2


def write_block_vector_csv(path, y):
    y = np.asarray(y)
    n, d, cols = y.shape
    with open(path, "w") as fh:
        fh.write("k,row,col,re,im\n")
        for k in range(n):
            for r in range(d):
                for c in range(cols):
                    v = y[k, r, c]
                    fh.write(f"{k + 1},{r + 1},{c + 1},"
                             f"{float(v.real)!r},{float(v.imag)!r}\n")


def read_block_vector_csv(path):
    entries = []
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "k,row,col,re,im":
            raise ValueError(f"unexpected CSV header: {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, r, c, re, im = line.split(",")
            entries.append((int(k), int(r), int(c),
                            float(re), float(im)))
    if not entries:
        raise ValueError("empty block vector file")
    n = max(e[0] for e in entries)
    d = max(e[1] for e in entries)
    cols = max(e[2] for e in entries)
    y = np.zeros((n, d, cols), dtype=np.complex128)
    for k, r, c, re, im in entries:
        y[k - 1, r - 1, c - 1] = complex(re, im)
    return y


def write_block_vector_bin(path, y):
    y = np.ascontiguousarray(y, dtype=np.complex128)
    n, d, r = y.shape
    header = np.array([MAGIC, VERSION, n, d, LAYOUT_BLOCK_VECTOR, r, 0, 0],
                      dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(y.tobytes())


def read_block_vector_bin(path):
    with open(path, "rb") as fh:
        header = np.frombuffer(fh.read(64), dtype="<i8")
        if header[0] != MAGIC:
            raise ValueError("bad magic")
        if header[1] != VERSION:
            raise ValueError(f"unsupported version {header[1]}")
        if header[4] != LAYOUT_BLOCK_VECTOR:
            raise ValueError(f"not a block vector file (layout {header[4]})")
        n, d = int(header[2]), int(header[3])
        r = int(header[5]) or d         # 0: written before r was stored
        data = np.frombuffer(fh.read(), dtype=np.complex128)
    return data.reshape(n, d, r).copy()


def read_block_vector(path):
    """Dispatch on extension: .bin -> binary, anything else -> CSV."""
    if str(path).endswith(".bin"):
        return read_block_vector_bin(path)
    return read_block_vector_csv(path)


def write_block_vector(path, y):
    if str(path).endswith(".bin"):
        return write_block_vector_bin(path, y)
    return write_block_vector_csv(path, y)


def block_matrix_csv_lines(data, d):
    """Dense (d n, d n) matrix as `s,t,row,col,re,im` lines, 1-based."""
    n = data.shape[0] // d
    yield "s,t,row,col,re,im"
    for s in range(n):
        for t in range(n):
            blk = data[s * d:(s + 1) * d, t * d:(t + 1) * d]
            for r in range(d):
                for c in range(d):
                    v = blk[r, c]
                    yield (f"{s + 1},{t + 1},{r + 1},{c + 1},"
                           f"{float(v.real)!r},{float(v.imag)!r}")


def write_block_matrix_csv(path, data, d):
    with open(path, "w") as fh:
        for line in block_matrix_csv_lines(data, d):
            fh.write(line + "\n")


def read_block_matrix_csv(path):
    entries = []
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "s,t,row,col,re,im":
            raise ValueError(f"unexpected CSV header: {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            s, t, r, c, re, im = line.split(",")
            entries.append((int(s), int(t), int(r), int(c),
                            float(re), float(im)))
    n = max(e[0] for e in entries)
    d = max(e[2] for e in entries)
    data = np.zeros((n * d, n * d), dtype=np.complex128)
    for s, t, r, c, re, im in entries:
        data[(s - 1) * d + r - 1, (t - 1) * d + c - 1] = complex(re, im)
    return data, d


def write_block_matrix_bin(path, data, d):
    data = np.ascontiguousarray(data, dtype=np.complex128)
    n = data.shape[0] // d
    header = np.array([MAGIC, VERSION, n, d, LAYOUT_DENSE_MATRIX, 0, 0, 0],
                      dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(data.tobytes())


def read_block_matrix_bin(path):
    with open(path, "rb") as fh:
        header = np.frombuffer(fh.read(64), dtype="<i8")
        if header[0] != MAGIC or header[4] != LAYOUT_DENSE_MATRIX:
            raise ValueError("not a dense matrix file")
        n, d = int(header[2]), int(header[3])
        data = np.frombuffer(fh.read(), dtype=np.complex128)
    return data.reshape(n * d, n * d).copy(), d


def write_coeff_series_csv(path, blocks, start_k=0):
    """One coefficient series as `k,block-row,block-col,re,im` lines."""
    with open(path, "w") as fh:
        fh.write("k,block-row,block-col,re,im\n")
        for off, blk in enumerate(blocks):
            blk = np.asarray(blk)
            d = blk.shape[0]
            for r in range(d):
                for c in range(d):
                    v = blk[r, c]
                    fh.write(f"{start_k + off},{r + 1},{c + 1},"
                             f"{float(v.real)!r},{float(v.imag)!r}\n")
