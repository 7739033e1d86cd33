"""In-memory spans around calls into rejectsvm's modules.

A traced run rebinds module attributes such as ``rejectsvm.train.solve_lp``
to wrappers that record one span per call: name, start, end, parent span,
op id and a few counts taken at the boundary (pivots, rows, bytes).  No file
of the package changes; ``Tracer.uninstall`` restores every original
binding.  Spans are recorded only while an op is open, and stay in memory
until the run ends.
"""

import functools
import importlib
import os
import time


def _pivots(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("X", kwargs.get("x"))
    return {"rows": int(len(x))}


def _file_bytes(args, kwargs, result):
    # the path argument, after a read or a write
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts taken after the call).  A function
# imported into several modules is bound once per module, under one name.
BINDINGS = [
    ("rejectsvm.train", "solve_lp", "lp.solve_lp", _pivots),
    ("rejectsvm.train", "split_lp", "train.split_lp", None),
    ("rejectsvm.train", "fit", "train.fit", None),
    ("rejectsvm.sim", "fit", "train.fit", None),
    ("rejectsvm.train", "cross_validate", "train.cross_validate", None),
    ("rejectsvm.sim", "cross_validate", "train.cross_validate", None),
    ("rejectsvm.train", "fit_population", "train.fit_population", None),
    ("rejectsvm.theory", "fit_population", "train.fit_population", None),
    ("rejectsvm.dictionary", "evaluate", "dictionary.evaluate", _rows),
    ("rejectsvm.sim", "evaluate", "dictionary.evaluate", _rows),
    ("rejectsvm.train", "evaluate", "dictionary.evaluate", _rows),
    ("rejectsvm.evaluate", "_evaluate_dictionary", "dictionary.evaluate", _rows),
    ("rejectsvm.theory", "_evaluate_dictionary", "dictionary.evaluate", _rows),
    ("rejectsvm.evaluate", "predict", "evaluate.predict", _rows),
    ("rejectsvm.evaluate", "risk_report", "evaluate.risk_report", _rows),
    ("rejectsvm.evaluate", "bounds", "evaluate.bounds", _rows),
    ("rejectsvm.cli", "load_data", "model_io.load_data", _file_bytes),
    ("rejectsvm.cli", "load_distribution", "model_io.load_distribution", None),
    ("rejectsvm.cli", "load_model", "model_io.load_model", None),
    ("rejectsvm.cli", "save_model", "model_io.save_model", None),
    ("rejectsvm.cli", "write_rows_csv", "model_io.write_rows", _file_bytes),
    ("rejectsvm.cli", "write_reports_csv", "model_io.write_rows", _file_bytes),
    ("rejectsvm.sim", "gen_two_gaussian", "sim.gen", None),
    ("rejectsvm.sim", "run_reject_vs_plain", "sim.run_reject_vs_plain", None),
    ("rejectsvm.theory", "make_context", "theory.make_context", None),
    ("rejectsvm.theory", "check_lemma_a1", "theory.lemma_a1", None),
    ("rejectsvm.theory", "check_prop21", "theory.prop21", None),
    ("rejectsvm.theory", "check_excess_domination", "theory.domination", None),
    ("rejectsvm.cli", "main", "cli.main", None),
]
# losses are traced where theory, train and evaluate call them; the study's
# Monte Carlo scoring in sim stays inside sim's own self time
for _mod, _names in (
    ("rejectsvm.theory", ("population_risk", "bayes_risk", "bayes_phi_risk",
                          "bayes_rule")),
    ("rejectsvm.train", ("gen_hinge", "population_risk", "reject_loss")),
    ("rejectsvm.evaluate", ("gen_hinge", "reject_loss")),
):
    BINDINGS.extend((_mod, n, "losses." + n, None) for n in _names)


def rebind(targets):
    """Set each (module, attr, factory) attribute to factory(original).

    Returns the list that ``restore`` takes to put the originals back.
    """
    saved = []
    for mod, attr, factory in targets:
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, factory(fn))
    return saved


def restore(saved):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)
    saved.clear()


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, op_id, counts]."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.unbound = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                stack.pop()
                rec[5] = {"error": type(exc).__name__}
                raise
            rec[2] = time.perf_counter()
            stack.pop()
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        return traced

    def open_op(self, op_id, label):
        """Root span of one op, recorded by the benchmark itself."""
        self.op_id = op_id
        rec = ["op." + label, time.perf_counter(), 0.0, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_op(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        self.op_id = None

    def install(self):
        targets = []
        for mod_name, attr, name, counts in BINDINGS:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                self.unbound.append(f"{mod_name}.{attr}")
                continue
            targets.append((mod, attr,
                            functools.partial(self.wrap, name, counts=counts)))
        self._saved = rebind(targets)

    def uninstall(self):
        restore(self._saved)


def per_call_cost(calls=20000, batches=5):
    """Seconds a traced call adds over a plain one (median of batches)."""
    tracer = Tracer()

    def plain(a, b):
        return a

    traced = tracer.wrap("calibrate", plain)
    tracer.op_id = 0
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, 2)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[batches // 2]


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, selfs):
    """Per-layer metrics over one pass's spans (see NOTES.md for each)."""
    count, dur, own, tally = {}, {}, {}, {}
    lp_ok_self, lp_failed, pivots = 0.0, 0, []
    for rec, s in zip(spans, selfs):
        name, counts = rec[0], rec[5] or {}
        key = name.split(".", 1)[0] if name.startswith("losses.") else name
        count[key] = count.get(key, 0) + 1
        dur[key] = dur.get(key, 0.0) + rec[2] - rec[1]
        own[key] = own.get(key, 0.0) + s
        for k in ("rows", "bytes"):
            if k in counts:
                tally[key, k] = tally.get((key, k), 0) + counts[k]
        if name == "lp.solve_lp":
            if "error" in counts:
                lp_failed += 1
            else:
                lp_ok_self += s
                pivots.append(counts["pivots"])
    total_pivots = sum(pivots)
    evaluate_ops = ("evaluate.predict", "evaluate.risk_report",
                    "evaluate.bounds")
    return {
        "lp.calls": count.get("lp.solve_lp", 0),
        "lp.pivots": total_pivots,
        "lp.pivots_max": max(pivots, default=0),
        "lp.self_s": own.get("lp.solve_lp", 0.0),
        "lp.us_per_pivot": (1e6 * lp_ok_self / total_pivots
                            if total_pivots else 0.0),
        "lp.failed": lp_failed,
        "train.fit_calls": count.get("train.fit", 0),
        "train.fit_self_s": own.get("train.fit", 0.0),
        "train.split_lp_s": dur.get("train.split_lp", 0.0),
        "train.cv_self_s": own.get("train.cross_validate", 0.0),
        "train.fit_population_calls": count.get("train.fit_population", 0),
        "train.fit_population_self_s": own.get("train.fit_population", 0.0),
        "dictionary.evaluate_calls": count.get("dictionary.evaluate", 0),
        "dictionary.evaluate_rows": tally.get(("dictionary.evaluate", "rows"),
                                              0),
        "dictionary.evaluate_s": dur.get("dictionary.evaluate", 0.0),
        "evaluate.predict_s": dur.get("evaluate.predict", 0.0),
        "evaluate.risk_report_s": dur.get("evaluate.risk_report", 0.0),
        "evaluate.bounds_s": dur.get("evaluate.bounds", 0.0),
        "evaluate.rows": sum(tally.get((k, "rows"), 0) for k in evaluate_ops),
        "model_io.load_data_s": dur.get("model_io.load_data", 0.0),
        "model_io.load_data_bytes": tally.get(("model_io.load_data", "bytes"),
                                              0),
        "model_io.write_rows_s": dur.get("model_io.write_rows", 0.0),
        "model_io.write_rows_bytes": tally.get(("model_io.write_rows",
                                                "bytes"), 0),
        "model_io.save_model_s": dur.get("model_io.save_model", 0.0),
        "model_io.load_model_s": dur.get("model_io.load_model", 0.0),
        "model_io.load_distribution_s": dur.get("model_io.load_distribution",
                                                0.0),
        "sim.gen_s": dur.get("sim.gen", 0.0),
        "sim.self_s": own.get("sim.run_reject_vs_plain", 0.0),
        "theory.lemma_a1_s": dur.get("theory.lemma_a1", 0.0),
        "theory.prop21_self_s": own.get("theory.prop21", 0.0),
        "theory.domination_s": dur.get("theory.domination", 0.0),
        "losses.calls": count.get("losses", 0),
        "losses.self_s": own.get("losses", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def layer_mix(spans, selfs):
    """Share of all op time spent in each layer's own code."""
    own = {}
    for rec, s in zip(spans, selfs):
        layer = rec[0].split(".", 1)[0]
        own[layer] = own.get(layer, 0.0) + s
    total = sum(own.values())
    return {k: round(v / total, 4) for k, v in
            sorted(own.items(), key=lambda kv: -kv[1])} if total else {}
