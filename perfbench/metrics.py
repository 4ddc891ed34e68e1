"""The benchmark's arithmetic: percentiles, span self time, per-layer metrics,
end-to-end metrics and the output checks.  Pure functions over the raw result
and trace the xlds_perfbench binary writes, so they are unit-tested on their
own (perfbench/test_metrics.py)."""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Tail percentiles, in tenths of a percent, tried from the highest down; a
# percentile is reported only when at least TAIL_MIN_BEYOND samples lie
# beyond it.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10

# Layers that own spans; "bench.*" spans are the traced passes themselves.
LAYERS = ("workload", "serve", "xbar", "cam", "hdc", "dse")
ENCODERS = ("projection", "idlevel")

# (name, unit, which way is better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("call_ms_p50", "ms", "lower"),
    ("call_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Every traced run reports every one of these; a layer the workload does not
# exercise reads 0.  Counts of work a layer does are better lower, counts of
# work it serves (and useful-work ratios) higher.
PER_LAYER = tuple(
    [("trace.coverage_frac", "frac", "higher"), ("trace.overhead_frac", "frac", "lower"),
     ("workload.dataset_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("serve.classify_s", "s", "lower"), ("serve.age_s", "s", "lower"),
       ("serve.repair_s", "s", "lower"), ("serve.refresh_s", "s", "lower"),
       ("serve.requests_served", "count", "higher"),
       ("serve.recalibrations", "count", "lower"),
       ("serve.cells_reprogrammed", "count", "lower"),
       ("xbar.encode_s", "s", "lower"), ("xbar.factorizations", "count", "lower"),
       ("xbar.direct_solves", "count", "lower"), ("xbar.gs_solves", "count", "lower"),
       ("xbar.incremental_updates", "count", "lower"),
       ("xbar.updated_cells", "count", "lower"), ("xbar.update_declines", "count", "lower"),
       ("xbar.drift_refactorizations", "count", "lower"),
       ("xbar.solves_per_factorization", "ratio", "higher"),
       ("cam.search_s", "s", "lower"), ("cam.searches", "count", "higher")]
    + [(f"hdc.{op}_s.{enc}", "s", "lower") for enc in ENCODERS
       for op in ("ctor", "train", "infer", "encode")]
    + [(f"kernels.encode_gmac_per_s.{enc}", "GMAC/s", "higher") for enc in ENCODERS]
    + [("dse.cold_job_s", "s", "lower"), ("dse.warm_job_s", "s", "lower"),
       ("dse.tier_busy_s.analytic", "s", "lower"), ("dse.tier_busy_s.nodal", "s", "lower"),
       ("dse.tier_busy_s.mc", "s", "lower"), ("dse.computed", "count", "lower"),
       ("dse.cache_hits", "count", "higher"), ("dse.cache_appends", "count", "lower"),
       ("dse.journal_hits", "count", "higher"),
       ("dse.factorizations_per_job", "count", "lower"),
       ("dse.cache_hit_ratio", "ratio", "higher"), ("dse.warm_ops_per_s", "1/s", "higher"), ("dse.journal_bytes", "bytes", "lower"),
       ("dse.cache_bytes", "bytes", "lower"),
       ("util.parallel_jobs", "count", "lower"), ("util.parallel_inline_jobs", "count", "lower"),
       ("util.stolen_tasks", "count", "lower"), ("util.steal_failures", "count", "lower")]
)


def valid_name(name):
    """Metric and workload names: [A-Za-z0-9_.-], leading letter or digit, <= 64."""
    return bool(NAME_RE.match(name))


def tail_percentile(samples):
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples strictly above its nearest-rank position, or
    None when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-p * n // 1000))  # nearest-rank, 1-based, exact
        if n - rank >= TAIL_MIN_BEYOND:
            return p / 10.0, ordered[rank - 1]
    return None


def load_spans(trace):
    """Spans from a Chrome trace-event document: dicts with id, parent,
    name, start and end in seconds."""
    spans = []
    for ev in trace["traceEvents"]:
        start = ev["ts"] * 1e-6
        spans.append({"id": ev["args"]["id"], "parent": ev["args"]["parent"],
                      "name": ev["name"], "start": start,
                      "end": start + ev["dur"] * 1e-6})
    return spans


def self_times(spans):
    """Self time per span id: its duration minus the union of its direct
    children's intervals (clipped to the span)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def span_metric(name):
    """Metric a span's inclusive time is reported under: 'layer.op' ->
    'layer.op_s', 'layer.op.variant' -> 'layer.op_s.variant'."""
    parts = name.split(".")
    parts[1] += "_s"
    return ".".join(parts)


def trace_metrics(spans):
    """Inclusive time per span metric, self time per layer, and the share of
    the traced passes' wall time that layer spans cover."""
    out = {}
    selfs = self_times(spans)
    roots = [s for s in spans if s["parent"] == -1]
    wall = sum(s["end"] - s["start"] for s in roots if layer_of(s["name"]) == "bench")
    covered = 0.0
    root_ids = {s["id"] for s in roots if layer_of(s["name"]) == "bench"}
    for s in spans:
        layer = layer_of(s["name"])
        if layer not in LAYERS:
            continue
        out[span_metric(s["name"])] = out.get(span_metric(s["name"]), 0.0) + s["end"] - s["start"]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + selfs[s["id"]]
        if s["parent"] in root_ids:
            covered += s["end"] - s["start"]
    out["trace.coverage_frac"] = covered / wall if wall > 0 else 0.0
    return out


def unit_ops(workload, unit):
    """Ops one checked unit contributes: simulated requests (serve_drift),
    train + test samples per fitted model, for both encoders (hdc_fit), and
    (point, tier) evaluations computed in the cold phase (dse_sweep)."""
    out = unit["output"]
    if workload == "serve_drift":
        return int(out["arrivals"])
    if workload == "hdc_fit":
        return 2 * (int(out["train_samples"]) + int(out["test_samples"]))
    if workload == "dse_sweep":
        return int(out["cold_evaluations"])
    raise ValueError(f"unknown workload {workload}")


def end_to_end(workload, raw):
    """End-to-end metrics of an untraced run, plus the tail percentile used
    and the sample count.  Every round does the same work, so ops divide
    evenly over rounds."""
    calls = raw["call_s"]
    # A run too short for the rule (fewer than 20 calls) reports its slowest call.
    tail = tail_percentile(calls) or (100.0, max(calls))
    ops = sum(unit_ops(workload, unit) for unit in raw["checked"])
    rounds = raw["round_s"]
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        # Ops per round over the median round time: a stall of the shared host
        # during one round does not move the rate.
        "ops_per_s": ops / (statistics.median(rounds) * len(rounds)),
        "call_ms_p50": statistics.median(calls) * 1e3,
        "call_ms_tail": tail[1] * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, {"tail_percentile": tail[0], "calls": len(calls)}


def per_layer(raw, spans):
    """Per-layer metrics of a traced run, per traced pass."""
    passes = max(1, raw["passes"])
    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    measured = dict(raw["layer"])
    measured.update(trace_metrics(spans))
    for name, value in measured.items():
        if name not in values:
            continue
        # xlds_perfbench sums every value (rates and ratios too) over traced
        # passes; the trace shares are already whole-run ratios.
        values[name] = value if name.startswith("trace.") else value / passes
    fact = values["xbar.factorizations"]
    values["xbar.solves_per_factorization"] = (
        values["xbar.direct_solves"] + values["xbar.gs_solves"]) / fact if fact else 0.0
    values["trace.overhead_frac"] = (
        raw["traced_s"] / raw["untraced_s"] - 1.0 if raw["untraced_s"] > 0 else 0.0)
    return values


def check_outputs(workload, checked, reference):
    """Compare each checked unit's outputs with the reference.  Returns
    (attempted, failed, messages): ops attempted, ops of units whose output
    differs from (or is missing in) the reference, and what differed."""
    attempted = failed = 0
    messages = []
    for unit in checked:
        ops = unit_ops(workload, unit)
        attempted += ops
        want = reference.get(unit["key"])
        problem = None
        if want is None:
            problem = "no reference output"
        else:
            got = unit["output"]
            diffs = [k for k in got if k != "checksum" and want.get(k) != got[k]]
            if diffs:
                problem = ", ".join(f"{k}: got {got[k]!r}, want {want.get(k)!r}" for k in diffs)
        if problem is None and "warm" in unit["output"] and \
                unit["output"]["warm"] != unit["output"].get("cold"):
            problem = "warm result bytes differ from cold"
        if problem is not None:
            failed += ops
            messages.append(f"{unit['key']}: {problem}")
    return attempted, failed, messages
