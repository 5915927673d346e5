"""Metric definitions for the prodex benchmark.

One table per level.  End-to-end metrics are measured with tracing off
and printed by every workload; per-layer metrics come from the traced
run.  Each per-layer entry names the end-to-end metric it should move
and the workload on which that movement is expected, so a change to a
layer can be checked against the prediction it makes.
"""

WORKLOADS = {
    "strong-campaign": (
        "verify-strong on discounted-uniform and example-3-4, 250 samples a "
        "command: g_n scans on the oracle route, never the generic tree or "
        "the hull"),
    "weak-campaign": (
        "verify-weak where the hull routes differ: discounted-uniform depth 8 "
        "(exhaustive), example-3-4 depth 30 (guided), cylinder-threshold "
        "depth 3; no martingale"),
    "queries": (
        "single CLI queries on fresh generated cylinders (depth 6/8/10, "
        "generic tree), built-in points, games and a long gn-trace: per-call "
        "overhead and tree cost"),
}

# name: (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median over fresh processes of importing prodex.cli plus one "
                "load of every scenario kind the workload uses"),
    "ops_per_s": ("1/s", "higher", 0.25,
                  "campaign samples (campaigns) or queries (queries) completed "
                  "per second spent inside cli.main"),
    "op_p50_ms": ("ms", "lower", 0.25,
                  "median latency of one timed cli.main call"),
    "op_p90_ms": ("ms", "lower", 0.25,
                  "90th percentile latency of one timed cli.main call"),
    "certified_frac": ("ratio", "higher", 0.01,
                       "share of samples (campaigns) or queries certified: "
                       "1 - uncertified_frac"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "ru_maxrss of the workload process"),
}

# name: (unit, better, moves, on workloads)
PER_LAYER = {
    "scenario.load_ms": ("ms", "lower", "op_p50_ms, setup_s", "queries; all"),
    "cli.self_ms": ("ms", "lower", "op_p50_ms", "queries"),
    "cli.report_kb": ("kB", "lower", "op_p50_ms", "queries"),
    "model.realize_us": ("us", "lower", "ops_per_s",
                         "strong-campaign, weak-campaign"),
    "model.hybrid_us": ("us", "lower", "ops_per_s", "strong-campaign"),
    "engine.oracle_calls": ("count/op", "lower", "ops_per_s",
                            "strong-campaign"),
    "engine.oracle_us.discounted_sum": ("us", "lower", "ops_per_s",
                                       "strong-campaign"),
    "engine.oracle_us.product_indicator": ("us", "lower", "ops_per_s",
                                           "strong-campaign"),
    "engine.generic_nodes": ("count/op", "lower", "op_p90_ms, ops_per_s",
                             "queries"),
    "engine.generic_us_per_node": ("us", "lower", "op_p90_ms, ops_per_s",
                                   "queries"),
    "engine.tol_slope": ("slope", "lower", "op_p90_ms, ops_per_s", "queries"),
    "engine.budget_exhausted": ("count/op", "lower", "certified_frac", "all"),
    "functions.bounds_over_us.cylinder": ("us", "lower", "ops_per_s",
                                          "queries"),
    "functions.bounds_over_us.discounted_sum": ("us", "lower", "ops_per_s",
                                                "weak-campaign"),
    "functions.bounds_over_us.product_indicator": ("us", "lower", "ops_per_s",
                                                   "strong-campaign"),
    "functions.eval_soft_us": ("us", "lower", "ops_per_s", "weak-campaign"),
    "martingale.find_us.p50": ("us", "lower", "ops_per_s", "strong-campaign"),
    "martingale.find_us.p90": ("us", "lower", "ops_per_s", "strong-campaign"),
    "martingale.gn_evals": ("count", "lower", "ops_per_s", "strong-campaign"),
    "martingale.trace_ms.n64": ("ms", "lower", "ops_per_s", "queries"),
    "martingale.trace_ms.n256": ("ms", "lower", "ops_per_s", "queries"),
    "martingale.trace_slope": ("slope", "lower", "ops_per_s", "queries"),
    "numeric.denom_bits_max": ("bits", "lower", "ops_per_s",
                               "strong-campaign"),
    "tailclass.hull_us": ("us", "lower", "ops_per_s", "weak-campaign"),
    "tailclass.hull_evals": ("count", "lower", "ops_per_s", "weak-campaign"),
    "tailclass.exhaustive_frac": ("ratio", "lower", "ops_per_s",
                                  "weak-campaign"),
    "tailclass.straddle_ratio": ("ratio", "higher", "ops_per_s",
                                 "weak-campaign"),
    "tailclass.construct_us": ("us", "lower", "ops_per_s", "weak-campaign"),
    "tailclass.hull_slope": ("slope", "lower", "ops_per_s", "weak-campaign"),
    "harness.reference_ms": ("ms", "lower", "ops_per_s",
                             "strong-campaign, weak-campaign"),
    "harness.threads_speedup": ("ratio", "higher", "ops_per_s",
                                "strong-campaign"),
    "games.purify_ms": ("ms", "lower", "op_p50_ms", "queries"),
    "games.purify_attempts": ("count", "lower", "op_p50_ms", "queries"),
    "games.naming_profile_us": ("us", "lower", "op_p50_ms", "queries"),
    "trace.overhead_frac": ("ratio", "lower", "(tracing cost, not a layer)",
                            "all"),
}
