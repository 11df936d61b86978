import json
import os
from dataclasses import fields

import numpy as np
import pytest

from blocktoeplitz import fileio
from blocktoeplitz.cli import main
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import SolveReport
from blocktoeplitz.symbol import save_spec
from blocktoeplitz.synth import random_spec

from helpers import dense_toeplitz_matrix, random_rhs


@pytest.fixture()
def spec_file(tmp_path, ex52):
    path = tmp_path / "ex52.json"
    save_spec(ex52, path)
    return str(path)


def test_block_vector_csv_round_trip(tmp_path):
    y = random_rhs(7, 3, seed=1)
    path = tmp_path / "y.csv"
    for cols in (3, 2):             # square and (n, d, r) blocks
        fileio.write_block_vector_csv(path, y[:, :, :cols])
        back = fileio.read_block_vector_csv(path)
        assert np.array_equal(back, y[:, :, :cols])


def test_block_vector_bin_round_trip(tmp_path):
    y = random_rhs(9, 2, seed=2)
    path = tmp_path / "y.bin"
    fileio.write_block_vector_bin(path, y)
    back = fileio.read_block_vector_bin(path)
    assert np.array_equal(back, y)


def test_block_vector_bin_any_width(tmp_path):
    # r = 1 < d: the header's r word gives the payload's shape
    y = random_rhs(4, 3, seed=5)[:, :, :1]
    path = tmp_path / "y.bin"
    fileio.write_block_vector_bin(path, y)
    back = fileio.read_block_vector_bin(path)
    assert back.shape == (4, 3, 1) and np.array_equal(back, y)


def test_block_vector_bin_legacy_square(tmp_path):
    # files written before r was stored hold 0 in word 5: read as r = d
    y = random_rhs(5, 2, seed=6)
    path = tmp_path / "y.bin"
    header = np.array([fileio.MAGIC, fileio.VERSION, 5, 2,
                       fileio.LAYOUT_BLOCK_VECTOR, 0, 0, 0], dtype="<i8")
    path.write_bytes(header.tobytes() + y.tobytes())
    back = fileio.read_block_vector_bin(path)
    assert back.shape == (5, 2, 2) and np.array_equal(back, y)


def test_bin_header_layout(tmp_path):
    y = random_rhs(3, 2, seed=3)
    path = tmp_path / "y.bin"
    fileio.write_block_vector_bin(path, y)
    header = np.fromfile(path, dtype="<i8", count=8)
    assert header[0] == fileio.MAGIC
    assert header[1] == fileio.VERSION
    assert header[2] == 3 and header[3] == 2
    assert header[4] == fileio.LAYOUT_BLOCK_VECTOR
    assert header[5] == 2           # r
    assert tuple(header[6:]) == (0, 0)


def test_block_matrix_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pcsv = tmp_path / "m.csv"
    fileio.write_block_matrix_csv(pcsv, data, 2)
    back, d = fileio.read_block_matrix_csv(pcsv)
    assert d == 2 and np.array_equal(back, data)
    pbin = tmp_path / "m.bin"
    fileio.write_block_matrix_bin(pbin, data, 2)
    back, d = fileio.read_block_matrix_bin(pbin)
    assert d == 2 and np.array_equal(back, data)


def test_cli_validate_ok(spec_file, capsys):
    assert main(["validate", "--spec", spec_file]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out


def test_cli_validate_bad_exit_3(tmp_path, spec_file, capsys):
    payload = json.load(open(spec_file))
    payload["poles"] = [[1.5, 0.0]]
    bad = tmp_path / "bad.json"
    json.dump(payload, open(bad, "w"))
    assert main(["validate", "--spec", str(bad)]) == 3
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "PoleOutOfDomain"


def test_cli_solve_golden(tmp_path, spec_file, capsys):
    y_path = tmp_path / "e1.csv"
    y = np.zeros((2, 1, 1), dtype=complex)
    y[0] = 1.0
    fileio.write_block_vector_csv(y_path, y)
    out_path = tmp_path / "z.csv"
    rc = main(["solve", "--spec", spec_file, "--n", "2", "--y", str(y_path),
               "--method", "fast", "--out", str(out_path),
               "--verify-against", "dense"])
    assert rc == 0
    z = fileio.read_block_vector_csv(out_path)
    np.testing.assert_allclose(z[:, 0, 0],
                               [1.25 / 1.3125, 0.5 / 1.3125], atol=1e-12)
    assert "verify-against-dense" in capsys.readouterr().out


def test_cli_solve_report_json(tmp_path, spec_file, capsys):
    y_path = tmp_path / "y.csv"
    fileio.write_block_vector_csv(y_path, random_rhs(8, 1, seed=6))
    rc = main(["solve", "--spec", spec_file, "--y", str(y_path),
               "--report-json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {f.name for f in fields(SolveReport)} - {"z"}
    assert report["method"] == "fast" and report["n"] == 8
    assert report["counters"]["residual_nfft"] == 22
    assert report["resolvent_cond"] >= 1
    assert report["counters"]["chunk"] >= 1


@pytest.mark.parametrize("m0", [1, 2, 3])
def test_cli_solve_below_2m0_plus_1_is_dense(tmp_path, capsys, m0):
    # --method fast below n = 2 m0 + 1 returns the dense solve's report
    spec = random_spec(d=1, K=1, mults=(1,), m0=m0,
                       rng=np.random.default_rng(12))
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    tab = CoefficientTables(spec)
    y_path, out_path = tmp_path / "y.csv", tmp_path / "z.csv"
    for n in range(1, 2 * m0 + 1):
        y = random_rhs(n, 1, seed=5 + n)
        fileio.write_block_vector_csv(y_path, y)
        rc = main(["solve", "--spec", str(spec_path), "--n", str(n), "--y",
                   str(y_path), "--method", "fast", "--out", str(out_path),
                   "--report-json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["method"] == "dense" and report["n"] == n
        assert report["resolvent_cond"] is None
        dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, 1),
                                y.reshape(n, 1))
        z = fileio.read_block_vector_csv(out_path)
        np.testing.assert_allclose(z.reshape(n, 1), dense, rtol=1e-10,
                                   atol=1e-12 * np.abs(dense).max())


def test_cli_invert_methods_agree(tmp_path, spec_file):
    outs = {}
    for method in ("closed", "dense", "series"):
        out = tmp_path / f"inv_{method}.csv"
        rc = main(["invert", "--spec", spec_file, "--n", "2", "--method",
                   method, "--out", str(out)])
        assert rc == 0
        outs[method], _ = fileio.read_block_matrix_csv(out)
    assert np.abs(outs["closed"] - outs["dense"]).max() <= 1e-10
    assert np.abs(outs["series"] - outs["dense"]).max() <= 1e-10


def test_cli_invert_binary_round_trip(tmp_path, spec_file):
    out = tmp_path / "inv.bin"
    rc = main(["invert", "--spec", spec_file, "--n", "3", "--method",
               "closed", "--format", "bin", "--out", str(out)])
    assert rc == 0
    data, d = fileio.read_block_matrix_bin(out)
    assert d == 1 and data.shape == (3, 3)


def test_cli_coeffs(tmp_path, spec_file):
    prefix = tmp_path / "co"
    rc = main(["coeffs", "--spec", spec_file, "--n", "4", "--out",
               str(prefix)])
    assert rc == 0
    for name in ("a", "atilde", "c", "ctilde", "gamma", "beta"):
        path = f"{prefix}_{name}.csv"
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.readline().strip() == "k,block-row,block-col,re,im"
    with open(f"{prefix}_a.csv") as fh:
        fh.readline()
        k, r, c, re, im = fh.readline().strip().split(",")
        assert (k, r, c) == ("0", "1", "1")
        assert float(re) == 1.0 and float(im) == 0.0


def test_cli_kit_json(tmp_path, spec_file):
    out = tmp_path / "kit.json"
    rc = main(["kit", "--spec", spec_file, "--n", "2", "--out", str(out)])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["M"] == 1
    assert payload["lambda"][0][0][0] == pytest.approx(4 / 3)
    assert 0 <= payload["spectral_radius_GtG"] < 1


def test_cli_converge_csv(tmp_path, spec_file):
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--spec", spec_file, "--ns", "4,8,16", "--out",
               str(out)])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "n,delta"
    deltas = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert deltas[-1] < deltas[0]


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])          # missing required flags
    assert exc.value.code == 2
