"""Command-line front end (installed as `tpz`).

Subcommands: validate, coeffs, invert, solve, kit, converge.
Exit codes: 0 success, 2 usage, 3 validation failure, 4 numerical
failure; failures also emit a one-line JSON object on stderr.
"""

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import errors, fileio
from .closed_form import ClosedFormKit, inverse_matrix_closed
from .coefficients import CoefficientTables
from .fast_solver import solve as fast_solve
from .oracle import (convergence_experiment, dense_inverse, dense_solve,
                     levinson_solve)
from .series_inverse import SeriesInverter
from .symbol import load_spec, validate

EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def _load_checked_spec(path):
    spec = load_spec(path)
    report = validate(spec)
    report.raise_if_failed()
    return spec


def _cmd_validate(args):
    spec = load_spec(args.spec)
    report = validate(spec, grid_points=args.grid)
    print(report)
    if not report.ok:
        report.raise_if_failed()
    return 0


def _cmd_coeffs(args):
    spec = _load_checked_spec(args.spec)
    tab = CoefficientTables(spec, grid_points=args.grid)
    n = args.n
    series = {
        "a": [tab.a(k) for k in range(n + 1)],
        "atilde": [tab.a_tilde(k) for k in range(n + 1)],
        "c": [tab.c(k) for k in range(n + 1)],
        "ctilde": [tab.c_tilde(k) for k in range(n + 1)],
        "gamma": [tab.gamma(k) for k in range(n + 1)],
        "beta": [tab.beta(k) for k in range(n + 1)],
    }
    wanted = series if args.series == "all" else {
        args.series: series[args.series]}
    prefix = args.out or "coeffs"
    for name, blocks in wanted.items():
        path = f"{prefix}_{name}.csv"
        fileio.write_coeff_series_csv(path, blocks)
        print(f"wrote {path}")
    return 0


def _compare_with_dense(tag, value, reference):
    dev = float(np.abs(value - reference).max())
    scale = max(1.0, float(np.abs(reference).max()))
    print(f"verify-against-dense [{tag}]: max deviation {dev:.3e} "
          f"(relative {dev / scale:.3e})")
    return dev


def _cmd_invert(args):
    spec = _load_checked_spec(args.spec)
    tab = CoefficientTables(spec)
    n = args.n
    if args.method == "closed":
        data = inverse_matrix_closed(spec, n, tables=tab)
    elif args.method == "series":
        data = SeriesInverter(tab, n, tol=args.tol).matrix()
    elif args.method == "dense":
        data = dense_inverse(spec, n, tab).data
    else:
        raise ValueError(f"unknown invert method {args.method}")
    if args.verify_against == "dense":
        _compare_with_dense(args.method, data, dense_inverse(spec, n, tab).data)
    if args.out:
        if args.format == "bin":
            fileio.write_block_matrix_bin(args.out, data, spec.d)
        else:
            fileio.write_block_matrix_csv(args.out, data, spec.d)
        print(f"wrote {args.out}")
    else:
        for line in fileio.block_matrix_csv_lines(data, spec.d):
            print(line)
    return 0


def _cmd_solve(args):
    spec = _load_checked_spec(args.spec)
    tab = CoefficientTables(spec)
    y = fileio.read_block_vector(args.y)
    n = args.n or len(y)
    if args.method == "fast":
        rep = fast_solve(spec, n, y, tables=tab, seed=args.seed)
    elif args.method == "dense":
        rep = dense_solve(spec, n, y, tables=tab)
    elif args.method == "levinson":
        rep = levinson_solve(spec, n, y, tables=tab)
    else:
        raise ValueError(f"unknown solve method {args.method}")
    if args.verify_against == "dense":
        _compare_with_dense(args.method, rep.z,
                            dense_solve(spec, n, y, tables=tab).z)
    if args.out:
        fileio.write_block_vector(args.out, rep.z)
        print(f"wrote {args.out}")
    if args.report_json:
        print(json.dumps({f.name: getattr(rep, f.name) for f in fields(rep)
                          if f.name != "z"}, default=float))
        return 0
    resid = "n/a" if rep.residual is None else f"{rep.residual:.3e}"
    print(f"method={rep.method} n={rep.n} d={rep.d} "
          f"seconds={rep.seconds:.4f} residual={resid}")
    return 0


def _cmd_kit(args):
    spec = _load_checked_spec(args.spec)
    kit = ClosedFormKit(spec)
    n = args.n
    g, gt = kit.g_mats(n)

    def c2l(m):
        return [[[float(v.real), float(v.imag)] for v in row]
                for row in np.asarray(m)]

    payload = {
        "n": n,
        "d": spec.d,
        "M": kit.M,
        "lambda": c2l(kit.lambda_mat),
        "theta": c2l(kit.theta_mat),
        "G": c2l(g),
        "G_tilde": c2l(gt),
        "spectral_radius_GtG": kit.spectral_radius(n),
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_converge(args):
    spec = _load_checked_spec(args.spec)
    ns = [int(x) for x in args.ns.split(",")]
    if args.y:
        y = fileio.read_block_vector(args.y)
    else:
        length = max(ns) + 64
        ks = np.arange(1, length + 1)
        y = (args.decay ** ks)[:, None, None] * \
            np.eye(spec.d)[None, :, :].astype(np.complex128)
    rep = convergence_experiment(spec, y, ns)
    lines = ["n,delta"] + [f"{n},{d!r}" for n, d in rep.rows()]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tpz",
        description="Block Toeplitz systems with rational symbols: "
                    "validation, coefficients, inverses, solves, "
                    "experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a symbol spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", type=int, default=4096)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("coeffs", help="dump coefficient series as CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--series", default="all",
                   choices=["all", "a", "atilde", "c", "ctilde", "gamma",
                            "beta"])
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--out", help="output path prefix (default 'coeffs')")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("invert", help="emit the full inverse matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="closed",
                   choices=["series", "closed", "dense"])
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", default="csv", choices=["csv", "bin"])
    p.add_argument("--verify-against", choices=["dense"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("solve", help="solve T_n(w) Z = Y")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--y", required=True, help="Y file (.csv or .bin)")
    p.add_argument("--method", default="fast",
                   choices=["fast", "dense", "levinson"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify-against", choices=["dense"])
    p.add_argument("--out")
    p.add_argument("--report-json", action="store_true",
                   help="print every report field but z as one JSON line")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("kit", help="dump closed-form kit diagnostics")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kit)

    p = sub.add_parser("converge",
                       help="finite vs infinite solution deviation")
    p.add_argument("--spec", required=True)
    p.add_argument("--ns", required=True, help="comma-separated orders")
    p.add_argument("--y", help="Y file; default geometric right-hand side")
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_converge)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        ap.error("--n must be >= 1")
    if getattr(args, "tol", 1.0) <= 0:
        ap.error("--tol must be positive")
    try:
        return args.fn(args)
    except errors.ValidationError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except errors.NumericalError as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except (errors.BlockToeplitzError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
