"""Traced run: per-layer metrics from spans around the calls into each module.

Untraced and traced solves alternate along the input order, so
`trace.overhead_ratio` compares neighbours under the same machine load, and
each pass over the pool swaps which inputs are traced.
Counts come from the first traced solve, whose input the benchmark seed
fixes, so they repeat exactly from run to run; times are medians over all
traced solves.  Every value is per solve.
"""

from __future__ import annotations

import statistics
import time

from oldb2d import integrate

from spans import FFT, Tracer

COUNTS = {
    "spectral.fft_calls": ("count", "lower"),
    "spectral.fft_planes": ("count", "lower"),
    "spectral.fft_bytes": ("B", "lower"),
    "spectral.make_grid_calls": ("count", "lower"),
    "integrate.steps": ("count", "lower"),
    "integrate.ifactor_hit_ratio": ("ratio", "higher"),
    "dynamics.explicit_terms_calls": ("count", "lower"),
    "dynamics.unpack_calls": ("count", "lower"),
    "dynamics.rhs_diag_calls": ("count", "lower"),
    "diagnostics.records": ("count", "lower"),
    "fields.norms_calls": ("count", "lower"),
    "snapshots.rows": ("count", "lower"),
    "snapshots.bytes": ("B", "lower"),
    "picard.iterations": ("count", "lower"),
}
TIMES = (
    "spectral.fft_s", "integrate.run_self_s", "dynamics.explicit_terms_self_s",
    "diagnostics.make_record_s", "diagnostics.momentum_residual_s",
    "diagnostics.ledger_s", "fields.norms_s", "snapshots.write_s",
    "picard.apply_map_s", "picard.op_q2_s", "picard.op_n_s", "picard.norm_s",
    "config.build_initial_s",
)
UNITS = {**{name: unit for name, (unit, _) in COUNTS.items()},
         **{name: "s" for name in TIMES}, "trace.overhead_ratio": "ratio"}
BETTER = {**{name: better for name, (_, better) in COUNTS.items()},
          **{name: "lower" for name in TIMES}, "trace.overhead_ratio": "lower"}
COMPUTED = ("spectral.fft_planes", "spectral.fft_bytes")
"""Derived from array shapes at the call boundary, not measured traffic."""

_RHS_DIAG = ("dynamics.momentum_rhs", "dynamics.recover_pressure",
             "dynamics.unprojected_force")
_NORMS = ("picard.composite_norm", "picard._u_norm", "picard._sigma_norm",
          "picard._rho_norm")


def solve_metrics(ss, counters: dict, cache_before, cache_after) -> dict:
    """Per-layer values of one traced solve."""
    hits = cache_after.hits - cache_before.hits
    steps = hits + cache_after.misses - cache_before.misses  # one lookup per step
    return {
        "spectral.fft_calls": ss.count(*FFT),
        "spectral.fft_planes": counters.get("spectral.fft_planes", 0),
        "spectral.fft_bytes": counters.get("spectral.fft_bytes", 0),
        "spectral.fft_s": ss.time(*FFT),
        "spectral.make_grid_calls": ss.count("spectral.make_grid"),
        "integrate.steps": steps,
        "integrate.ifactor_hit_ratio": hits / steps if steps else 0.0,
        "integrate.run_self_s": ss.self_time("integrate.run"),
        "dynamics.explicit_terms_calls": ss.count("dynamics.explicit_terms"),
        "dynamics.explicit_terms_self_s": ss.self_time("dynamics.explicit_terms"),
        "dynamics.unpack_calls": ss.count("dynamics.unpack_state"),
        "dynamics.rhs_diag_calls": ss.count(*_RHS_DIAG),
        "diagnostics.records": ss.count("diagnostics.make_record"),
        "diagnostics.make_record_s": ss.time("diagnostics.make_record"),
        "diagnostics.momentum_residual_s": ss.time("diagnostics.momentum_residual"),
        "diagnostics.ledger_s": ss.time("diagnostics.apriori_ledger",
                                        "diagnostics.bound_check"),
        "fields.norms_calls": ss.count("fields.norms"),
        "fields.norms_s": ss.time("fields.norms"),
        "snapshots.rows": ss.count("snapshots.append_timeseries"),
        "snapshots.bytes": counters.get("snapshots.bytes", 0),
        "snapshots.write_s": ss.time("snapshots.write_snapshot",
                                     "snapshots.append_timeseries"),
        "picard.iterations": ss.count("picard.apply_map"),
        "picard.apply_map_s": ss.time("picard.apply_map"),
        "picard.op_q2_s": ss.time("picard.op_q2"),
        "picard.op_n_s": ss.time("picard.op_n"),
        "picard.norm_s": ss.time(*_NORMS),
        "config.build_initial_s": ss.time("config.build_initial"),
    }


def measure(solver, order, seconds: float, tally, spans_path: str) -> dict:
    tracer = Tracer()
    warm = solver.solve(order[0])
    tally.add(warm.errors, f"warm-up input {order[0]}")

    plain, traced, per_solve = [], [], []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds or not (plain and traced):
        config_seed = order[i % len(order)]
        # Flip the parity every pass over the pool, so each input is timed
        # both traced and untraced: inputs differ in step count.
        trace_this = (i + i // len(order)) % 2 == 0
        if trace_this:
            tracer.begin(i)
            before = integrate._multipliers.cache_info()
            tracer.install()
            try:
                result = solver.solve(config_seed)
            finally:
                tracer.uninstall()
            after = integrate._multipliers.cache_info()
        else:
            result = solver.solve(config_seed)
        tally.add(result.errors, f"{'traced ' if trace_this else ''}solve {i} "
                                 f"input {config_seed}")
        if result.returned:
            if trace_this:
                traced.append(result.seconds)
                per_solve.append(solve_metrics(tracer.solve_spans(), tracer.counters,
                                               before, after))
            else:
                plain.append(result.seconds)
        i += 1
        if not (plain and traced) and i > 3 * len(order):
            return {}
    tracer.write(spans_path)

    values = dict(per_solve[0])
    for name in TIMES:
        values[name] = statistics.median(m[name] for m in per_solve)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"counts from the first traced solve; times are medians of {len(traced)} "
          f"traced solves; overhead against {len(plain)} untraced solves")
    print(f"spans written to {spans_path}")
    return values
