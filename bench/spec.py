"""What the benchmark measures: workloads, known defects and metric units.

This module imports nothing heavy, so the parent process that spawns the
measured children stays light.  ``BENCHMARK.json`` at the repository root
lists the same names; ``smoke.py`` checks that the two agree.
"""

WORKLOADS = ("decay", "blowup", "long-memory", "large-grid")
# Workloads whose inputs depend on the seed; the others run fixed suite configs.
SEEDED = ("long-memory", "large-grid")

# Operations that fail at this commit on purpose.  They stay in the workloads
# and count as failed, so a fix shows up as a higher pass_share.  A failure of
# any other operation makes the run incorrect.
KNOWN_DEFECTS = {
    "decay-a05/slope": "acceptance criterion 6 (E(t) slope ~ -2*alpha, band around -alpha)",
    "decay-a08/slope": "acceptance criterion 6 (E(t) slope ~ -2*alpha, band around -alpha)",
    "eigen/n2048/s0.9": "ROADMAP item 4 (residual contract 1e-10*lambda1 unreachable)",
    "eigen/n4096/s0.9": "ROADMAP item 4 (residual contract 1e-10*lambda1 unreachable)",
}

# Untraced run: one value per metric, each a median over the run's samples.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

# Traced run.  Counts of calls and computed costs come from the span
# wrappers in spans.py; ``.s`` is busy time, ``.self_s`` excludes child spans.
PER_LAYER = {
    "special.ml_eval.calls": "count",
    "special.ml_eval.s": "s",
    "special.ml_eval.near.calls": "count",
    "special.ml_eval.mid.calls": "count",
    "special.ml_eval.far.calls": "count",
    "special.ml_eval.near.s": "s",
    "special.ml_eval.mid.s": "s",
    "special.ml_eval.far.s": "s",
    "caputo.caputo_convolution.calls": "count",
    "caputo.caputo_convolution.s": "s",
    "caputo.memory.flops": "flop_computed",
    "caputo.memory.bytes": "B_computed",
    "caputo.memory.working_set_bytes": "B_computed",
    "caputo.memory.working_set_per_l2": "ratio",
    "caputo.solve_logistic_fode.calls": "count",
    "caputo.solve_logistic_fode.s": "s",
    "caputo.solve_linear_fode.s": "s",
    "fraclap.assemble_regional.calls": "count",
    "fraclap.assemble_regional.s": "s",
    "fraclap.principal_eigenpair.calls": "count",
    "fraclap.principal_eigenpair.s": "s",
    "fraclap.principal_eigenpair.failed": "count",
    "solver.run.calls": "count",
    "solver.run.self_s": "s",
    "solver.step.calls": "count",
    "solver.cho_factor.calls": "count",
    "solver.cho_factor.s": "s",
    "solver.cho_solve.calls": "count",
    "solver.cho_solve.s": "s",
    "solver.adaptive.solves": "count",
    "solver.detect_blowup.calls": "count",
    "solver.detect_blowup.runs_per_call": "ratio",
    "harness.run_campaign.self_s": "s",
    "harness.write_outputs.s": "s",
    "harness.write_outputs.bytes": "B",
    "layer.special.self_s": "s",
    "layer.caputo.self_s": "s",
    "layer.fraclap.self_s": "s",
    "layer.solver.self_s": "s",
    "layer.harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
    "fail_share": "ratio",
}

LAYERS = ("special", "caputo", "fraclap", "solver", "harness")
