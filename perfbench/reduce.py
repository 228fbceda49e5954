"""Reduces one fusebench raw record to the benchmark's metrics.

Pure functions only, so that perfbench/test_reduce.py can check them
without building anything. Times in the raw record are nanoseconds from
the start of the measured phases; durations are seconds.
"""

import math
import statistics

# A request meets the read limit when answered within this many ms of its
# due time; a failed request never meets it.
READ_LIMIT_MS = 1.0
# Samples a reported percentile needs beyond it.
MIN_BEYOND = 10
LAYERS = ("bench", "model", "core", "stats", "persist", "serving", "net",
          "shard")
BUILD_LAYERS = ("model", "core", "stats", "persist", "shard")
PHASES = ("build", "setup", "serve", "write")


def percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile of `values`.

    Raises ValueError when fewer than `min_beyond` samples lie above the
    rank, i.e. when the sample cannot support that percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{p} of {n} samples has {n - rank} beyond it, "
            f"needs {min_beyond}")
    return xs[rank - 1]


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def latencies_ms(step):
    """Latency of each request from its due time; failed ones are inf."""
    out = []
    for due, recv, failed in zip(step["due_ns"], step["recv_ns"],
                                 step["failed"]):
        out.append(math.inf if failed or recv < 0 else (recv - due) / 1e6)
    return out


def backlog_at(step, t_ns):
    """Requests due by t_ns that had no reply by t_ns."""
    due = sum(1 for d in step["due_ns"] if d <= t_ns)
    done = sum(1 for r in step["recv_ns"] if 0 <= r <= t_ns)
    return due - done


def backlog_grows(rate, mid, end):
    """True when the backlog rose over the step's second half by more than
    one limit's worth of arrivals (two requests at the least)."""
    return end - mid > max(2.0, rate * READ_LIMIT_MS / 1000.0)


def _p99_or_inf(values):
    try:
        return percentile(values, 99)
    except ValueError:
        return math.inf


def rate_summary(steps):
    """Metrics of one (batch size, rate) pair of the ladders, pooled over
    its steps: latency percentiles over all its requests, failures, whether
    any step's backlog grew, the backlog left at the end of its steps, and
    the reply rate."""
    lat, late = [], []
    failed = answered = grows = 0
    backlog_end = 0
    seconds = 0.0
    for step in steps:
        lat += latencies_ms(step)
        late += [(s - d) / 1e6 for s, d in zip(step["sent_ns"],
                                               step["due_ns"])]
        failed += sum(step["failed"])
        answered += sum(1 for r, f in zip(step["recv_ns"], step["failed"])
                        if r >= 0 and not f)
        start, end = step["start_ns"], step["end_ns"]
        mid_b = backlog_at(step, (start + end) // 2)
        end_b = backlog_at(step, end)
        grows += backlog_grows(step["rate"], mid_b, end_b)
        backlog_end = max(backlog_end, end_b)
        seconds += (end - start) / 1e9
    return {
        "batch": steps[0]["batch"],
        "rate": steps[0]["rate"],
        "steps": len(steps),
        "requests": len(lat),
        "failed": failed,
        "p50_ms": percentile(lat, 50),
        "p99_ms": _p99_or_inf(lat),
        "backlog_grows": grows > 0,
        "backlog_end": backlog_end,
        "achieved_rps": answered / seconds,
        "late_p99_ms": _p99_or_inf(late),
    }


def rate_summaries(raw):
    """One summary per (batch size, rate), ascending; the warm-up step is
    left out."""
    by_pair = {}
    for step in raw["steps"]:
        if not step["warmup"]:
            by_pair.setdefault((step["batch"], step["rate"]), []).append(step)
    return [rate_summary(by_pair[k]) for k in sorted(by_pair)]


def qualifies(summary):
    """The max_rate_rps rule: no failed request, p99 within the limit, and
    a backlog that grows in none of the rate's steps."""
    return (summary["failed"] == 0 and summary["p99_ms"] <= READ_LIMIT_MS
            and not summary["backlog_grows"])


def max_rate_rps(summaries):
    """Achieved rate of the highest qualifying rate (0 when none does), for
    the summaries of one batch size."""
    best_rate, best = -1.0, 0.0
    for s in summaries:
        if qualifies(s) and s["rate"] > best_rate:
            best_rate, best = s["rate"], s["achieved_rps"]
    return best


def freshness_ms(writer, steps):
    """Per publish: time from its Update call to the first reply carrying
    its snapshot id or a later one. Publishes no reply saw are skipped."""
    replies = sorted(
        (recv, snap) for step in steps
        for recv, snap, failed in zip(step["recv_ns"], step["snapshot_id"],
                                      step["failed"])
        if recv >= 0 and not failed)
    out = []
    for entry in writer:
        if entry["failed"]:
            continue
        first = next((recv for recv, snap in replies
                      if snap >= entry["snapshot_id"]
                      and recv >= entry["start_ns"]), None)
        if first is not None:
            out.append((first - entry["start_ns"]) / 1e6)
    return out


def self_times(spans):
    """Self time (seconds) of each span: its duration minus the part of it
    its child spans cover. Spans are [name, start, end, id, parent, req]."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[1], s[2]))
    out = []
    for name, start, end, sid, _parent, _req in spans:
        covered = 0
        cursor = start
        for cs, ce in sorted(children.get(sid, [])):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((name, (end - start - covered) / 1e9))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def _median_span(spans, name):
    ds = [(s[2] - s[1]) / 1e9 for s in spans if s[0] == name]
    return statistics.median(ds) if ds else 0.0


def _descendants(spans, roots):
    """Ids of the spans under (and including) the given root ids."""
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s[3])
    seen, todo = set(), list(roots)
    while todo:
        sid = todo.pop()
        if sid not in seen:
            seen.add(sid)
            todo.extend(kids.get(sid, []))
    return seen


def _answered(steps):
    return sum(1 for step in steps
               for r, f in zip(step["recv_ns"], step["failed"])
               if r >= 0 and not f)


def read_cpu_us(raw, size):
    """Server CPU per answered request over every measured step of one
    batch size."""
    steps = [s for s in raw["steps"]
             if not s["warmup"] and s["batch"] == size]
    answered = _answered(steps)
    return (sum(s["server_cpu_s"] for s in steps) * 1e6 / answered
            if answered else math.inf)


def middle_steps(raw, size):
    """The measured steps of one batch size at its middle rate."""
    rate = raw["middle_rates"][raw["batch_sizes"].index(size)]
    return [s for s in raw["steps"]
            if not s["warmup"] and s["batch"] == size and s["rate"] == rate]


def end_to_end(raw):
    # The tail batches are of one size, so the median batch's rate is the
    # writer's rate without the batches a stall of the host slowed.
    rates = [e["observations"] / (e["update_s"] + e["publish_s"])
             for e in raw["writer"]
             if not e["failed"] and e["update_s"] + e["publish_s"] > 0]
    fresh = freshness_ms(raw["writer"], raw["steps"])
    m = {
        "build_s": statistics.median(raw["build_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "auc_pr": raw["auc_pr"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "update_obs_per_s": statistics.median(rates) if rates else 0.0,
        "freshness_p50_ms": statistics.median(fresh) if fresh else math.inf,
    }
    for size in raw["batch_sizes"]:
        m[f"read_cpu_us.b{size}"] = read_cpu_us(raw, size)
    return m


def per_layer(raw):
    spans = raw["spans"]
    sharded = raw["shards"] > 1
    mids = {size: middle_steps(raw, size) for size in raw["batch_sizes"]}
    mid_all = [s for size in raw["batch_sizes"] for s in mids[size]]
    mid_raw = {k: [x for step in mid_all for x in step[k]]
               for k in ("due_ns", "sent_ns", "recv_ns", "failed", "traced")}
    m = {}
    m["model.load_s"] = _median_span(spans, "model.load")
    m["model.parse_s"] = raw["parse_s"]
    m["model.bytes_per_triple"] = raw["bytes_per_triple"]
    for stage in ("prepare", "model", "grouping", "publish"):
        m[f"core.{stage}_s"] = _median_span(spans, f"core.{stage}")
    m["core.discovery_s"] = raw["discovery_s"]
    m["core.clusters"] = raw["clusters"]
    m["core.distinct_patterns"] = raw["distinct_patterns"]
    ok = [e for e in raw["writer"] if not e["failed"]]
    upd = statistics.median([e["update_s"] * 1e3 for e in ok]) if ok else 0.0
    pub = statistics.median([e["publish_s"] * 1e3 for e in ok]) if ok else 0.0
    m["core.update_p50_ms"] = 0.0 if sharded else upd
    m["shard.update_p50_ms"] = upd if sharded else 0.0
    m["core.republish_p50_ms"] = 0.0 if sharded else pub
    m["shard.publish_p50_ms"] = pub if sharded else 0.0
    m["core.invalidations_per_update"] = (
        raw["full_invalidations"] / raw["updates_applied"]
        if raw["updates_applied"] else 0.0)
    m["stats.evaluate_s"] = _median_span(spans, "stats.evaluate")
    m["persist.save_s"] = _median_span(spans, "persist.save")
    m["persist.snapshot_bytes"] = raw["snapshot_bytes"]
    m["persist.attach_s"] = _median_span(spans, "persist.attach")
    m["persist.warmstart_s"] = _median_span(spans, "persist.warmstart")
    m["shard.attach_s"] = _median_span(spans, "shard.attach")
    for stage in ("partition", "prepare", "save"):
        m[f"shard.{stage}_s"] = _median_span(spans, f"shard.{stage}")
    m["net.server_start_s"] = _median_span(spans, "net.server_start")
    enc = [(s[2] - s[1]) / 1e3 for s in spans if s[0] == "net.encode"]
    dec = [(s[2] - s[1]) / 1e3 for s in spans if s[0] == "net.decode"]
    m["net.encode_us"] = statistics.median(enc) if enc else 0.0
    m["net.decode_us"] = statistics.median(dec) if dec else 0.0
    summaries = rate_summaries(raw)
    for size in raw["batch_sizes"]:
        inproc = [us for us, z in zip(raw["inprocess_us"],
                                      raw["inprocess_size"]) if z == size]
        inproc_p50 = statistics.median(inproc) if inproc else 0.0
        m[f"serving.score_batch_p50_us.b{size}"] = (
            0.0 if sharded else inproc_p50)
        m[f"shard.score_batch_p50_us.b{size}"] = (
            inproc_p50 if sharded else 0.0)
        rtt = [(r - s) / 1e3 for step in mids[size]
               for r, s, f in zip(step["recv_ns"], step["sent_ns"],
                                  step["failed"]) if r >= 0 and not f]
        rtt_p50 = statistics.median(rtt) if rtt else 0.0
        m[f"net.rtt_p50_us.b{size}"] = rtt_p50
        m[f"net.overhead_p50_us.b{size}"] = (
            rtt_p50 - inproc_p50 if rtt and inproc else 0.0)
        mid = rate_summary(mids[size])
        m[f"read.p50_ms.b{size}"] = mid["p50_ms"]
        m[f"read.max_rate_rps.b{size}"] = max_rate_rps(
            [s for s in summaries if s["batch"] == size])
    m["net.requests"] = raw["server"]["requests"]
    m["net.errors"] = raw["server"]["errors"]
    m["net.connections"] = raw["server"]["connections"]
    mid = rate_summary(mid_all)
    m["read.p99_ms"] = mid["p99_ms"]
    m["gen.late_p99_ms"] = mid["late_p99_ms"]
    m["read.backlog_end"] = mid["backlog_end"]
    m["host.steal_frac"] = raw["host_steal_frac"]
    # Self time per layer over the whole traced run, and each layer's
    # share of the traced build reps.
    selfs = self_times(spans)
    for name in LAYERS:
        m[f"self_s.{name}"] = sum(t for n, t in selfs if layer_of(n) == name)
    builds = [s for s in spans if s[0] == "bench.build"]
    total = sum((s[2] - s[1]) / 1e9 for s in builds)
    under = _descendants(spans, [s[3] for s in builds])
    for name in BUILD_LAYERS:
        t = sum(st for s, (n, st) in zip(spans, selfs)
                if s[3] in under and layer_of(n) == name)
        m[f"build_share.{name}"] = t / total if total else 0.0
    traced = raw["build_traced_s"]
    m["trace.overhead_build_frac"] = (
        statistics.median(traced) / statistics.median(raw["build_s"]) - 1.0
        if traced else 0.0)
    lat = latencies_ms(mid_raw)
    on = [x for x, t in zip(lat, mid_raw["traced"]) if t]
    off = [x for x, t in zip(lat, mid_raw["traced"]) if not t]
    m["trace.overhead_read_frac"] = (
        statistics.median(on) / statistics.median(off) - 1.0
        if on and off else 0.0)
    for phase in PHASES:
        count = raw["phases"].get(phase, {"attempted": 0, "failed": 0})
        m[f"phase.{phase}.attempted"] = count["attempted"]
        m[f"phase.{phase}.failed"] = count["failed"]
    return m
