"""Spans for the traced pass, recorded from outside the program.

``install`` replaces the public names at their import sites with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Spans stay in memory; ``write_csv`` writes them once, at the end.  Only
the traced child calls ``install``; the untraced child runs fracrd as is.
A name that no longer exists is reported as missing instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

from spec import LAYERS

# Span fields, kept as lists for speed.
ID, PARENT, NAME, OP, START, END, FAILED, EXTRA = range(8)


def _ml_regime(params):
    """Regime of E_alpha(z) by its inputs; independent of the evaluator."""
    alpha, z = params.alpha, params.z
    if alpha == 1.0 or z >= 0.0:
        return "near"
    nats = (-z) ** (1.0 / alpha)
    if nats <= 3.0:
        return "near"
    return "mid" if nats < 36.0 else "far"


def _memory_rows(weights, diffs, n):
    """History rows one uniform L1 sum reads, times the field width."""
    if n <= 1 or weights.alpha == 1.0:
        return 0
    width = diffs.shape[1] if diffs.ndim == 2 else 1
    return width * (n - 1)


def _written_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.missing = []

    def wrap(self, fn, name, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = rec._hook(name, before, args, kwargs)
            span = [len(rec.spans), rec.stack[-1] if rec.stack else -1, name, rec.op,
                    0.0, 0.0, False, extra]
            rec.spans.append(span)
            rec.stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                rec.stack.pop()
            if after is not None:
                span[EXTRA] = rec._hook(name, after, (result,), {})
            return result

        return wrapper

    def _hook(self, name, hook, args, kwargs):
        if hook is None:
            return None
        try:
            return hook(self, *args, **kwargs)
        except (TypeError, AttributeError, IndexError, ValueError, OSError):
            label = f"{name}(inputs)"
            if label not in self.missing:
                self.missing.append(label)
            return None


def _set_op(rec, campaign, *args, **kwargs):
    rec.op = campaign.name


SITES = (
    # (module, attribute, span name, hook before the call, hook on the result)
    ("fracrd.harness", "ml_eval", "special.ml_eval", lambda rec, p: _ml_regime(p), None),
    ("fracrd.harness", "run", "solver.run", None, None),
    ("fracrd.harness", "detect_blowup", "solver.detect_blowup", None, None),
    ("fracrd.harness", "solve_linear_fode", "caputo.solve_linear_fode", None, None),
    ("fracrd.harness", "solve_logistic_fode", "caputo.solve_logistic_fode", None, None),
    ("fracrd.harness", "assemble_regional", "fraclap.assemble_regional", None, None),
    ("fracrd.harness", "principal_eigenpair", "fraclap.principal_eigenpair", None, None),
    ("fracrd.solver", "run", "solver.run", None, None),
    ("fracrd.solver", "step", "solver.step", None, None),
    ("fracrd.solver", "caputo_convolution", "caputo.caputo_convolution",
     lambda rec, w, d, n: _memory_rows(w, d, n), None),
    ("fracrd.solver", "cho_factor", "solver.cho_factor", None, None),
    ("fracrd.solver", "cho_solve", "solver.cho_solve", None, None),
    ("fracrd.solver", "assemble_regional", "fraclap.assemble_regional", None, None),
    ("fracrd.solver", "principal_eigenpair", "fraclap.principal_eigenpair", None, None),
    # Entry points the workloads call.
    ("fracrd.harness", "run_campaigns", "harness.run_campaigns", None, None),
    ("fracrd.harness", "run_campaign", "harness.run_campaign", _set_op, None),
    ("fracrd.harness", "write_outputs", "harness.write_outputs", None,
     lambda rec, paths: _written_bytes(paths)),
    ("fracrd", "run", "solver.run", None, None),
    ("fracrd", "assemble_regional", "fraclap.assemble_regional", None, None),
    ("fracrd", "principal_eigenpair", "fraclap.principal_eigenpair", None, None),
)


def install(recorder: Recorder) -> None:
    for module_name, attr, name, before, after in SITES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            recorder.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(fn, name, before, after))


def _self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [sp[END] - sp[START] for sp in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            own[sp[PARENT]] -= sp[END] - sp[START]
    return own


def aggregate(spans) -> dict:
    """Per-layer metrics from the spans of one traced pass (see spec.PER_LAYER)."""
    own = _self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    extra_calls = defaultdict(int)
    extra_s = defaultdict(float)
    rows = []
    runs_in_detect = 0
    for sp in spans:
        name, dur = sp[NAME], sp[END] - sp[START]
        calls[name] += 1
        busy[name] += dur
        self_s[name] += own[sp[ID]]
        failed[name] += sp[FAILED]
        if name == "special.ml_eval" and sp[EXTRA] is not None:
            extra_calls[sp[EXTRA]] += 1
            extra_s[sp[EXTRA]] += dur
        elif name == "caputo.caputo_convolution" and sp[EXTRA] is not None:
            rows.append(sp[EXTRA])
        elif name == "solver.run" and sp[PARENT] >= 0 and \
                spans[sp[PARENT]][NAME] == "solver.detect_blowup":
            runs_in_detect += 1

    m = {
        "special.ml_eval.calls": calls["special.ml_eval"],
        "special.ml_eval.s": busy["special.ml_eval"],
    }
    for regime in ("near", "mid", "far"):
        m[f"special.ml_eval.{regime}.calls"] = extra_calls[regime]
        m[f"special.ml_eval.{regime}.s"] = extra_s[regime]
    m.update({
        "caputo.caputo_convolution.calls": calls["caputo.caputo_convolution"],
        "caputo.caputo_convolution.s": busy["caputo.caputo_convolution"],
        "caputo.memory.flops": 2 * sum(rows),
        "caputo.memory.bytes": 8 * sum(rows),
        "caputo.memory.working_set_bytes": 8 * max(rows, default=0),
        "caputo.solve_logistic_fode.calls": calls["caputo.solve_logistic_fode"],
        "caputo.solve_logistic_fode.s": busy["caputo.solve_logistic_fode"],
        "caputo.solve_linear_fode.s": busy["caputo.solve_linear_fode"],
        "fraclap.assemble_regional.calls": calls["fraclap.assemble_regional"],
        "fraclap.assemble_regional.s": busy["fraclap.assemble_regional"],
        "fraclap.principal_eigenpair.calls": calls["fraclap.principal_eigenpair"],
        "fraclap.principal_eigenpair.s": busy["fraclap.principal_eigenpair"],
        "fraclap.principal_eigenpair.failed": failed["fraclap.principal_eigenpair"],
        "solver.run.calls": calls["solver.run"],
        "solver.run.self_s": self_s["solver.run"],
        "solver.step.calls": calls["solver.step"],
        "solver.cho_factor.calls": calls["solver.cho_factor"],
        "solver.cho_factor.s": busy["solver.cho_factor"],
        "solver.cho_solve.calls": calls["solver.cho_solve"],
        "solver.cho_solve.s": busy["solver.cho_solve"],
        "solver.adaptive.solves": calls["solver.cho_solve"] - calls["solver.step"],
        "solver.detect_blowup.calls": calls["solver.detect_blowup"],
        "solver.detect_blowup.runs_per_call": (
            runs_in_detect / calls["solver.detect_blowup"] if calls["solver.detect_blowup"] else 0.0
        ),
        "harness.run_campaign.self_s": self_s["harness.run_campaigns"]
        + self_s["harness.run_campaign"],
        "harness.write_outputs.s": busy["harness.write_outputs"],
        "harness.write_outputs.bytes": sum(
            sp[EXTRA] or 0 for sp in spans if sp[NAME] == "harness.write_outputs"
        ),
    })
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            (v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0
        )
    return m


def top_self(spans, k=3) -> list:
    """The k span names with the largest total self time."""
    totals = defaultdict(float)
    for sp, own in zip(spans, _self_times(spans)):
        totals[sp[NAME]] += own
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]


def write_csv(spans, path) -> None:
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,parent,name,op,start_s,end_s,failed\n")
        for sp in spans:
            fh.write(f"{sp[ID]},{sp[PARENT]},{sp[NAME]},{sp[OP] or ''},"
                     f"{sp[START] - t0:.9f},{sp[END] - t0:.9f},{int(sp[FAILED])}\n")
