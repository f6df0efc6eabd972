//! Per-layer metrics of a traced run: deltas of the counters each layer
//! already exposes, taken across the timed window (and the lsmdb drain
//! that follows it), plus percentiles of the recorded spans.

use crate::deploy::Deployment;
use crate::probe::{op_name, Span, SpanKind};
use crate::procstat::{self, ProcStats};
use crate::stats::{Samples, Summary};
use crate::Measured;
use mercurio::EndpointStats;
use std::collections::BTreeMap;

/// Yokan ops whose server-side handler and queue wait are reported.
const SERVICE_OPS: [&str; 7] = [
    "put_multi",
    "get_multi",
    "list_keys",
    "filter",
    "exists",
    "get",
    "repl_forward",
];

/// Synchronous client ops whose latency is reported.
const CLIENT_OPS: [&str; 4] = ["exists", "get", "list_keys", "filter"];

/// Every per-layer metric, in output order, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("hepnos.batch.pairs_per_rpc", "pairs");
    add("hepnos.batch.stall_ms", "ms");
    add("hepnos.batch.inflight_hwm", "count");
    add("hepnos.batch.busy_pushbacks", "count");
    add("hepnos.pep.events_per_s", "events/s");
    add("hepnos.pep.list_wait_ms", "ms");
    add("hepnos.pep.prefetch_wait_ms", "ms");
    add("hepnos.pep.dispatch_stall_ms", "ms");
    add("hepnos.pep.overlap_ratio", "ratio");
    add("hepnos.pep.worker_wait_ms", "ms");
    add("hepnos.pep.load_imbalance", "ratio");
    for span in ["nav", "load"] {
        for q in ["p50", "p99"] {
            add(&format!("hepnos.{span}_us_{q}"), "us");
        }
    }
    add("nova.select_ms", "ms");
    add("nova.pushdown.events_per_s", "events/s");
    add("nova.pushdown.pages_skipped_frac", "ratio");
    add("nova.pushdown.fallback_events", "count");
    for op in CLIENT_OPS {
        for q in ["p50", "p99"] {
            add(&format!("yokan.client.{op}_us_{q}"), "us");
        }
    }
    add("yokan.client.retries", "count");
    add("yokan.client.failovers", "count");
    for op in SERVICE_OPS {
        for q in ["p50", "p99"] {
            add(&format!("yokan.service.{op}_handler_us_{q}"), "us");
        }
        add(&format!("yokan.service.{op}_busy_ms"), "ms");
    }
    add("yokan.replica.forward_us_p50", "us");
    add("yokan.replica.forward_us_p99", "us");
    add("yokan.replica.forward_degraded", "count");
    add("yokan.filter.us_per_event", "us");
    for op in SERVICE_OPS {
        for q in ["p50", "p99"] {
            add(&format!("margo.queue_wait.{op}_us_{q}"), "us");
        }
    }
    add("margo.shed", "count");
    add("margo.queue_depth_hwm", "count");
    add("mercurio.wire_bytes_per_event", "B");
    add("mercurio.coalescing_factor.client", "ratio");
    add("mercurio.coalescing_factor.server", "ratio");
    add("mercurio.send_stalls", "count");
    add("mercurio.wire_us_p50", "us");
    add("lsmdb.write_amp", "ratio");
    add("lsmdb.flushes", "count");
    add("lsmdb.compactions", "count");
    add("lsmdb.compaction_write_mb", "MiB");
    add("lsmdb.stall_ms", "ms");
    add("lsmdb.write_sheds", "count");
    add("lsmdb.wal_bytes_per_sync", "B");
    add("lsmdb.l0_tables", "count");
    add("lsmdb.drain_s", "s");
    add("lsmdb.sst_reads_per_get", "ratio");
    add("lsmdb.bloom_negative_frac", "ratio");
    add("lsmdb.cache_hit_frac", "ratio");
    add("lsmdb.cache_evictions", "count");
    add("argos.tasks_per_event", "ratio");
    add("proc.cpu_us_per_event", "us");
    add("proc.ctx_switches_per_op", "ratio");
    add("proc.threads", "count");
    add("bench.writer_lag_ms", "ms");
    add("bench.lookup_span_coverage", "ratio");
    add("trace.overhead_frac", "ratio");
    v
}

/// Counter readings of a deployment at one instant.
pub struct Snapshot {
    lsm: Vec<lsmdb::DbStats>,
    cache: (u64, u64, u64),
    overload: margo::OverloadStats,
    forward_degraded: u64,
    client: EndpointStats,
    servers: EndpointStats,
    tasks: u64,
    retry: yokan::RetryStats,
    proc: ProcStats,
}

fn add_ep(a: &mut EndpointStats, b: &EndpointStats) {
    a.bytes_sent += b.bytes_sent;
    a.frames_sent += b.frames_sent;
    a.wire_writes += b.wire_writes;
    a.send_stalls += b.send_stalls;
}

impl Snapshot {
    /// Read every counter of `dep` now.
    pub fn take(dep: &Deployment) -> Snapshot {
        let backend = dep.backend_stats();
        let cache = backend.iter().fold((0, 0, 0), |acc, b| {
            (
                acc.0 + b.cache_hits,
                acc.1 + b.cache_misses,
                acc.2 + b.cache_evictions,
            )
        });
        let mut overload = margo::OverloadStats::default();
        let mut servers = EndpointStats::default();
        let (mut tasks, mut forward_degraded) = (0, 0);
        for s in dep.servers() {
            let st = s.margo().stats();
            overload.merge(&st.overload);
            add_ep(&mut servers, &st.endpoint);
            tasks += st.total_tasks();
            forward_degraded += s.yokan().forward_stats().forward_degraded;
        }
        Snapshot {
            lsm: backend.into_iter().filter_map(|b| b.lsm).collect(),
            cache,
            overload,
            forward_degraded,
            client: dep.store.endpoint_stats(),
            servers,
            tasks,
            retry: dep.store.retry_stats(),
            proc: ProcStats::read(),
        }
    }

    /// Live SST bytes across every database replica.
    pub fn sst_bytes(&self) -> u64 {
        self.lsm.iter().map(|s| s.disk_bytes()).sum()
    }

    fn lsm_sum(&self, f: impl Fn(&lsmdb::DbStats) -> u64) -> u64 {
        self.lsm.iter().map(f).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentile samples (µs) of spans matching `pred`.
fn span_us(spans: &[Span], pred: impl Fn(&Span) -> bool) -> Samples {
    let mut s = Samples::new();
    for sp in spans.iter().filter(|s| pred(s)) {
        s.push(sp.us());
    }
    s
}

/// Client call minus the server queue wait and handler of the same op
/// contained in it, for calls where exactly one of each is contained.
fn wire_us(spans: &[Span]) -> Samples {
    let server = |kind: SpanKind| -> Vec<&Span> {
        let mut v: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind == kind && s.node != 0)
            .collect();
        v.sort_by_key(|s| s.start);
        v
    };
    let (queued, handled) = (server(SpanKind::QueueWait), server(SpanKind::Handler));
    let inside = |v: &[&Span], call: &Span| -> Vec<f64> {
        let from = v.partition_point(|s| s.start < call.start);
        v[from..]
            .iter()
            .take_while(|s| s.start <= call.end)
            .filter(|s| s.op == call.op && s.end <= call.end)
            .map(|s| s.us())
            .collect()
    };
    let mut out = Samples::new();
    for call in spans.iter().filter(|s| s.kind == SpanKind::ClientCall) {
        let (q, h) = (inside(&queued, call), inside(&handled, call));
        if q.len() == 1 && h.len() == 1 {
            out.push((call.us() - q[0] - h[0]).max(0.0));
        }
    }
    out
}

/// Per-layer metrics of a traced window.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Every metric by name; metrics the workload leaves idle read 0.
    pub values: BTreeMap<String, f64>,
    /// The samples behind each percentile metric.
    pub timings: BTreeMap<String, Summary>,
}

impl Layers {
    fn put(&mut self, k: &str, v: f64) {
        self.values.insert(k.to_string(), v);
    }

    /// Record `{prefix}_p50` and `{prefix}_p99` of `samples`.
    fn timing(&mut self, prefix: &str, samples: &Samples) {
        let sum = samples.summary();
        for (q, v) in [("p50", sum.p50), ("p99", sum.p99)] {
            let name = format!("{prefix}_{q}");
            self.put(&name, v);
            self.timings.insert(name, sum);
        }
    }
}

/// Compute every per-layer metric of a traced window.
pub fn compute(before: &Snapshot, after: &Snapshot, spans: &[Span], m: &Measured) -> Layers {
    let mut out = Layers {
        values: m.layer.clone(),
        ..Layers::default()
    };
    let events = m.events as f64;
    for (kind, name) in [(SpanKind::Nav, "nav"), (SpanKind::Load, "load")] {
        out.timing(
            &format!("hepnos.{name}_us"),
            &span_us(spans, |s| s.kind == kind),
        );
    }
    out.put(
        "nova.select_ms",
        span_us(spans, |s| s.kind == SpanKind::Select).summary().sum / 1e3,
    );
    for op in CLIENT_OPS {
        out.timing(
            &format!("yokan.client.{op}_us"),
            &span_us(spans, |s| {
                s.kind == SpanKind::ClientCall && op_name(s.op) == op
            }),
        );
    }
    out.put(
        "yokan.client.retries",
        (after.retry.retried_rpcs - before.retry.retried_rpcs) as f64,
    );
    out.put(
        "yokan.client.failovers",
        (after.retry.failovers - before.retry.failovers) as f64,
    );
    for op in SERVICE_OPS {
        let handler = span_us(spans, |s| {
            s.kind == SpanKind::Handler && s.node != 0 && op_name(s.op) == op
        });
        out.timing(&format!("yokan.service.{op}_handler_us"), &handler);
        let busy_us = handler.summary().sum;
        out.put(&format!("yokan.service.{op}_busy_ms"), busy_us / 1e3);
        if op == "filter" {
            out.put(
                "yokan.filter.us_per_event",
                ratio(busy_us, m.filtered_events as f64),
            );
        }
        out.timing(
            &format!("margo.queue_wait.{op}_us"),
            &span_us(spans, |s| {
                s.kind == SpanKind::QueueWait && s.node != 0 && op_name(s.op) == op
            }),
        );
    }
    out.timing(
        "yokan.replica.forward_us",
        &span_us(spans, |s| s.kind == SpanKind::Forward),
    );
    out.put(
        "yokan.replica.forward_degraded",
        (after.forward_degraded - before.forward_degraded) as f64,
    );
    out.put(
        "margo.shed",
        (after.overload.shed() - before.overload.shed()) as f64,
    );
    out.put(
        "margo.queue_depth_hwm",
        after.overload.queue_depth_hwm as f64,
    );

    let d = |a: &EndpointStats, b: &EndpointStats| EndpointStats {
        bytes_sent: a.bytes_sent - b.bytes_sent,
        frames_sent: a.frames_sent - b.frames_sent,
        wire_writes: a.wire_writes - b.wire_writes,
        send_stalls: a.send_stalls - b.send_stalls,
        ..EndpointStats::default()
    };
    let (client, servers) = (
        d(&after.client, &before.client),
        d(&after.servers, &before.servers),
    );
    out.put(
        "mercurio.wire_bytes_per_event",
        ratio((client.bytes_sent + servers.bytes_sent) as f64, events),
    );
    out.put(
        "mercurio.coalescing_factor.client",
        ratio(client.frames_sent as f64, client.wire_writes as f64),
    );
    out.put(
        "mercurio.coalescing_factor.server",
        ratio(servers.frames_sent as f64, servers.wire_writes as f64),
    );
    out.put(
        "mercurio.send_stalls",
        (client.send_stalls + servers.send_stalls) as f64,
    );
    let wire = wire_us(spans);

    let dl = |f: fn(&lsmdb::DbStats) -> u64| (after.lsm_sum(f) - before.lsm_sum(f)) as f64;
    let wal = dl(|s| s.wal_bytes);
    out.put(
        "lsmdb.write_amp",
        ratio(
            wal + dl(|s| s.flush_write_bytes) + dl(|s| s.compaction_write_bytes),
            wal,
        ),
    );
    out.put("lsmdb.flushes", dl(|s| s.flushes));
    out.put("lsmdb.compactions", dl(|s| s.compactions));
    out.put(
        "lsmdb.compaction_write_mb",
        dl(|s| s.compaction_write_bytes) / (1 << 20) as f64,
    );
    out.put("lsmdb.stall_ms", dl(|s| s.stall_micros) / 1e3);
    out.put("lsmdb.write_sheds", dl(|s| s.write_sheds));
    out.put("lsmdb.wal_bytes_per_sync", ratio(wal, dl(|s| s.wal_syncs)));
    out.put(
        "lsmdb.l0_tables",
        after.lsm.iter().map(|s| s.l0_tables()).max().unwrap_or(0) as f64,
    );
    out.put("lsmdb.drain_s", m.drain.as_secs_f64());
    let (hits, misses, evictions) = (
        (after.cache.0 - before.cache.0) as f64,
        (after.cache.1 - before.cache.1) as f64,
        (after.cache.2 - before.cache.2) as f64,
    );
    out.put(
        "lsmdb.sst_reads_per_get",
        ratio(dl(|s| s.sst_point_reads), misses),
    );
    out.put(
        "lsmdb.bloom_negative_frac",
        ratio(dl(|s| s.bloom_negatives), dl(|s| s.bloom_checks)),
    );
    out.put("lsmdb.cache_hit_frac", ratio(hits, hits + misses));
    out.put("lsmdb.cache_evictions", evictions);
    out.put(
        "argos.tasks_per_event",
        ratio((after.tasks - before.tasks) as f64, events),
    );
    out.put(
        "proc.cpu_us_per_event",
        ratio(
            (after.proc.cpu - before.proc.cpu).as_secs_f64() * 1e6,
            events,
        ),
    );
    out.put(
        "proc.ctx_switches_per_op",
        ratio(
            (after.proc.ctx_switches - before.proc.ctx_switches) as f64,
            m.ops.len() as f64,
        ),
    );
    out.put("proc.threads", procstat::threads() as f64);
    out.put("bench.lookup_span_coverage", lookup_coverage(spans));
    out.put("mercurio.wire_us_p50", wire.summary().p50);
    out.timings
        .insert("mercurio.wire_us_p50".into(), wire.summary());
    out
}

/// Share of the measured lookup latency covered by the synchronous yokan
/// calls along its blocking steps (the `exists` behind `SubRun::event`,
/// then the `get` behind `Event::load_raw`); 0 when no lookup ran. The
/// rest is client-side work in `hepnos` before each call is issued.
pub fn lookup_coverage(spans: &[Span]) -> f64 {
    let calls = span_us(spans, |s| {
        s.kind == SpanKind::ClientCall && matches!(op_name(s.op), "exists" | "get")
    });
    let lookups = span_us(spans, |s| s.kind == SpanKind::Lookup);
    ratio(calls.summary().sum, lookups.summary().sum)
}
