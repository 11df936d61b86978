"""Run one workload: set up, time ops in a closed loop, check outputs,
and reduce the measurements to the metrics named in BENCHMARK.json.

One client, one process: each op is issued after the previous one
returns. The untraced run (trace=False) times exactly the public call a
user makes and reports the end-to-end metrics. The traced run splits
each op into its public calls under spans (workloads.traced_call) and
reports per-layer metrics derived from those spans.
"""

import math
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from blocktoeplitz import errors

from . import gate
from .spans import Tracer
from .workloads import DENSE, make, rhs, traced_call

LAYERS = ("symbol", "coefficients", "closed_form", "fast_solver")


def error_layer(exc):
    """Module of blocktoeplitz whose code raised `exc` ("other" if none)."""
    layer = "other"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("blocktoeplitz."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    return layer


def latency_summary(seconds):
    """p50 and the tail: the highest percentile with at least ten samples
    beyond it. Below 20 samples no percentile at or above p50 has ten
    beyond it, so the tail is the maximum (reported as p100).

    The end-to-end latencies are those of rounds: one call per spec of
    the workload's cycle, issued back to back. Single calls mix specs
    whose costs differ up to 15x, so their percentiles would jump from
    one spec to another as the number of calls in a run changes."""
    xs = sorted(seconds)
    n = len(xs)
    if n >= 20:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50_ms": 1e3 * statistics.median(xs), "tail_ms": 1e3 * tail,
            "tail_percentile": pct, "samples": n}


def input_properties(spec, n, tables):
    """The properties the solver's cost depends on, for one op."""
    return {"d": spec.d, "K": spec.K, "mults": list(spec.mults),
            "m0": spec.m0, "n": n,
            "min_abs_p": min((abs(p) for p in spec.poles), default=None),
            "cauchy_ratio": tables.gamma_band_tail(1) / tables.gamma_band_tail(0)}


def shape_key(p):
    return f"d{p['d']}-K{p['K']}-m{''.join(map(str, p['mults']))}-m0{p['m0']}"


def latency_drift(props):
    """Median over spec shapes of (median latency of the later half of
    that shape's ops) / (median of the earlier half): about 1 when the
    run is steady, above 1 when it slowed down as it went."""
    by_shape = {}
    for p in props:
        by_shape.setdefault(shape_key(p), []).append(p["latency_ms"])
    ratios = [statistics.median(xs[len(xs) // 2:])
              / statistics.median(xs[:len(xs) // 2])
              for xs in by_shape.values() if len(xs) >= 2]
    return statistics.median(ratios) if ratios else None


def summarize_inputs(props):
    ratios = [p["cauchy_ratio"] for p in props]
    shapes = {}
    for p in props:
        shapes[shape_key(p)] = shapes.get(shape_key(p), 0) + 1
    return {"ops_by_shape": shapes,
            "cauchy_ratio": {"min": min(ratios), "median": statistics.median(ratios),
                             "max": max(ratios)},
            "share_cauchy_ratio_ge_0.95": sum(r >= 0.95 for r in ratios) / len(ratios),
            "share_K0": sum(p["K"] == 0 for p in props) / len(props)}


def layer_metrics(tracer, ops, plain_seconds, overlap_rows, layer_errors,
                  dense_devs):
    """Per-layer metrics from the spans of a traced run.

    Stages that exist only inside solve are differences of its public
    calls: assembly = checks-off solve - gram scans; overlap = solve with
    the overlap check - checks-off solve; residual = solve with the
    residual on warm tables - checks-off solve; gamma band = the same
    with fresh tables - with warm tables. Differences below 0 (noise) are
    taken as 0.
    """
    stages = tracer.by_op()
    gamma_band, layer_total = [], {layer: 0.0 for layer in LAYERS}
    derived = {k: [] for k in ("gram", "assembly", "overlap", "residual")}
    for op, st in stages.items():
        if "fast_solver.solve_residual_warm" not in st:
            continue
        bare = st["fast_solver.solve_bare"]
        warm = st["fast_solver.solve_residual_warm"]
        parts = {"gram": st["fast_solver.gram"],
                 "assembly": max(0.0, bare - st["fast_solver.gram"]),
                 "overlap": max(0.0, st["fast_solver.solve_overlap"] - bare),
                 "residual": max(0.0, warm - bare)}
        band = None
        if "fast_solver.solve_residual_fresh" in st:
            band = max(0.0, st["fast_solver.solve_residual_fresh"] - warm)
            gamma_band.append(band)
        if op not in ops:
            continue        # set-up stages: no share of the op loop
        for k, v in parts.items():
            derived[k].append(v)
        layer_total["fast_solver"] += sum(parts.values())
        layer_total["coefficients"] += band or 0.0
        layer_total["closed_form"] += st.get("closed_form.kit", 0.0)
    op_total = sum(layer_total.values()) or 1.0

    def med_ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    traced = [stages[op]["op"] for op in ops if "op" in stages[op]]
    out = {
        "symbol.validate_ms": med_ms(tracer.durations("symbol.validate")),
        "coefficients.gamma_band_ms": med_ms(gamma_band),
        "closed_form.kit_ms": med_ms(tracer.durations("closed_form.kit")),
        "fast_solver.gram_ms": med_ms(derived["gram"]),
        "fast_solver.assembly_ms": med_ms(derived["assembly"]),
        "fast_solver.overlap_ms": med_ms(derived["overlap"]),
        "fast_solver.residual_ms": med_ms(derived["residual"]),
        "fast_solver.overlap_rows": statistics.median(overlap_rows)
        if overlap_rows else 0,
        "coefficients.share": layer_total["coefficients"] / op_total,
        "closed_form.share": layer_total["closed_form"] / op_total,
        "fast_solver.share": layer_total["fast_solver"] / op_total,
        "oracle.dense_check_ms": med_ms(tracer.durations("oracle.dense_solve")),
        "oracle.max_rel_dev": max(dense_devs, default=0.0),
        "trace.overhead_ms": med_ms(traced) - med_ms(plain_seconds)
        if traced and plain_seconds else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = layer_errors.get(layer, 0)
    return out


def run(name, seed, seconds, trace, smoke=False):
    """Returns (result, detail, spans): the result line the contract
    asks for, a record of inputs, settings and raw summaries, and the
    spans of a traced run."""
    wl = make(name, seed, smoke)
    tracer = Tracer(trace)

    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        wl.setup(tracer)
        setup_times.append(time.perf_counter() - t0)

    # The untraced run sets up before the loop, again after each round
    # while set-ups take under a tenth of the loop's time, and after the
    # loop until there are three; it reports the median. Spreading the
    # samples over the run keeps the median from hanging on the host's
    # speed in the run's first second; on a shared 2-vCPU Xeon VM that
    # speed swung by up to 1.7x from one run to the next.
    timed_setup()

    ops, props, overlap_rows, reported, failures = [], [], [], [], []
    rounds, layer_errors = [], {}
    checked = []              # (spec, tables) of the first round
    attempted = failed = gate_failures = blocks = 0
    busy = round_time = 0.0
    round_ok = True
    start = time.perf_counter()
    i = 0
    while True:
        attempted += 1
        t0 = None
        try:
            case = wl.case(i, tracer)           # inputs: not timed
            t0 = time.perf_counter()
            rep, tables = wl.call(case)
            elapsed = time.perf_counter() - t0
            if trace:
                ops.append(i)
                traced_call(case, wl.n, wl.cold, tracer, i)
        except errors.BlockToeplitzError as exc:
            if t0 is not None:
                busy += time.perf_counter() - t0
            failed += 1
            round_ok = False
            layer = error_layer(exc)
            layer_errors[layer] = layer_errors.get(layer, 0) + 1
            failures.append(f"op {i}: {type(exc).__name__} in {layer}: {exc}")
        else:
            busy += elapsed
            round_time += elapsed
            blocks += wl.n
            overlap_rows.append(rep.overlap_checked)
            ynorm = float(np.linalg.norm(case.y.reshape(-1)))
            reported.append((rep.residual + rep.residual_tail_bound) / ynorm)
            ratio = gate.residual_ratio(tables, wl.n, rep.z, case.y)
            if not ratio <= gate.RESIDUAL_TOL:
                failed += 1
                gate_failures += 1
                failures.append(f"op {i}: residual ratio {ratio:.3e}")
            props.append(dict(input_properties(case.spec, wl.n, tables),
                              op=i, latency_ms=1e3 * elapsed,
                              verified_ratio=ratio))
            if i < wl.cycle:
                checked.append((case.spec, tables))
        i += 1
        if i % wl.cycle == 0:
            if round_ok:
                rounds.append(round_time)
            round_time, round_ok = 0.0, True
            # stop on a whole round, so every run has the same mix
            ran = time.perf_counter() - start
            if ran >= seconds:
                break
            if not trace and sum(setup_times) < 0.1 * ran:
                timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(setup_times) < 3:
        timed_setup()

    # cross-check each spec of the cycle against the dense oracle, untimed;
    # later rounds only rotate these specs
    dense_devs = []
    for k, (spec, tables) in enumerate(checked):
        y = rhs(np.random.default_rng([seed, DENSE, k]),
                min(gate.DENSE_N, wl.n), spec.d)
        try:
            dense_devs.append(gate.dense_deviation(spec, tables, y, tracer,
                                                   f"dense-{k}"))
        except errors.BlockToeplitzError as exc:
            failures.append(f"dense check {k}: {type(exc).__name__}: {exc}")
            dense_devs.append(math.inf)
    dense_ok = all(dev <= gate.DENSE_TOL for dev in dense_devs)

    worst = max((p["verified_ratio"] for p in props), default=math.inf)
    if trace:
        metrics = layer_metrics(tracer, set(ops),
                                [p["latency_ms"] / 1e3 for p in props],
                                overlap_rows, layer_errors, dense_devs)
        units = {k: ("count" if k.endswith(("errors", "rows")) else
                     "fraction" if k.endswith(("share", "dev")) else "ms")
                 for k in metrics}
        lat = None
    else:
        lat = latency_summary(rounds) if rounds else None
        metrics = {
            "latency_tail_ms": lat["tail_ms"] if lat else math.inf,
            "success_ratio": (attempted - failed) / attempted,
            "accuracy_digits": -math.log10(max(worst, 1e-300)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = {"latency_tail_ms": "ms", "success_ratio": "fraction",
                 "accuracy_digits": "digits", "peak_rss_mb": "MB",
                 "setup_s": "s"}
    result = {
        "correct": gate_failures == 0 and dense_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "n": wl.n, "calls_per_round": wl.cycle,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "setup_s_samples": setup_times,
        "round_latency": lat,
        "blocks_per_s": blocks / busy if busy else None,
        "call_latency": latency_summary([p["latency_ms"] / 1e3 for p in props])
        if props else None,
        "call_latency_drift": latency_drift(props),
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "errors_by_layer": layer_errors,
        "gate": {"residual_tol": gate.RESIDUAL_TOL,
                 "verified_worst_ratio": worst,
                 "reported_worst_ratio": max(reported, default=None)},
        "dense_check": {"n": min(gate.DENSE_N, wl.n), "tol": gate.DENSE_TOL,
                        "specs": len(dense_devs),
                        "max_rel_dev": max(dense_devs, default=None)},
        "inputs": summarize_inputs(props) if props else None,
        "ops": props,
    }
    return result, detail, tracer.spans
