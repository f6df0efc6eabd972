//! Runs a workload on fresh deployments and prints its records.
//!
//! Standard output carries one JSON record per line: a stamp, every
//! metric with its unit and sample count, every correctness gate, and —
//! last — the result object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` an untraced and a traced run are made back to back and the
//! result holds the per-layer metrics of the traced one.

use crate::analysis::Analysis;
use crate::deploy::{self, Deployment};
use crate::ingest::Ingest;
use crate::layers::{self, Layers, Snapshot};
use crate::lookup::Lookup;
use crate::probe::Recorder;
use crate::stats::median;
use crate::{procstat, Bench, Config, Measured, Workload, LOAD_THREADS};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// End-to-end metrics: name, unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("rss_peak_mb", "MiB"),
    ("space_amp", "ratio"),
];

/// One deployment's run of a workload.
pub struct Run {
    /// Wall time of each set-up (input generation, deployment, preload,
    /// drain).
    pub setups: Vec<f64>,
    /// What the window produced.
    pub m: Measured,
    /// SST bytes ÷ (replicas × user bytes) after the final drain.
    pub space_amp: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
}

/// Everything one invocation measured.
pub struct Report {
    /// The untraced run.
    pub plain: Run,
    /// The traced run (with `--trace 1`).
    pub traced: Option<Run>,
    /// Workload-specific stamp fields.
    pub stamp: Vec<(&'static str, String)>,
}

/// Run the configured workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::Ingest => drive(cfg, || Ingest::new(cfg)),
        Workload::Analysis => drive(cfg, || Analysis::new(cfg)),
        Workload::Lookup => drive(cfg, || Lookup::new(cfg)),
    }
}

fn drive<B: Bench>(cfg: &Config, make: impl Fn() -> B) -> Result<Report, String> {
    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps };
    let (plain, b) = run_once(&make, cfg, None, reps)?;
    let traced = if cfg.trace {
        Some(run_once(&make, cfg, Some(Recorder::new()), 1)?.0)
    } else {
        None
    };
    Ok(Report {
        plain,
        traced,
        stamp: b.stamp(),
    })
}

/// Set up `reps` times from input generation on (keeping the last
/// deployment), run the window, verify, tear down.
fn run_once<B: Bench>(
    make: &impl Fn() -> B,
    cfg: &Config,
    rec: Option<std::sync::Arc<Recorder>>,
    reps: usize,
) -> Result<(Run, B), String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = cfg.work_dir.join(format!(
        "data-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..reps.max(1) {
        procstat::settle_writeback();
        let t0 = Instant::now();
        let b = make();
        let dep = Deployment::launch(&dir, rec.as_ref())?;
        let prep = b.prepare(&dep)?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps.max(1) {
            live = Some((b, dep, prep));
        }
    }
    let (b, dep, prep) = live.expect("at least one set-up");
    if let Some(r) = &rec {
        r.clear();
    }
    let before = Snapshot::take(&dep);
    let mut m = b.measure(&dep, &prep, cfg, rec.as_ref())?;
    let after = Snapshot::take(&dep);
    let layers = rec.as_ref().map(|r| {
        let spans = r.spans();
        let path = cfg.work_dir.join(format!(
            "trace-{}-seed{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = r.write_tsv(&path) {
            eprintln!("e2ebench: cannot write {}: {e}", path.display());
        }
        layers::compute(&before, &after, &spans, &m)
    });
    b.verify(&dep, &prep, &mut m);
    let space_amp =
        after.sst_bytes() as f64 / (deploy::REPLICATION as f64 * m.user_bytes.max(1) as f64);
    drop((prep, dep));
    Ok((
        Run {
            setups,
            m,
            space_amp,
            layers,
        },
        b,
    ))
}

/// A JSON number; non-finite values print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string (the benchmark's strings need no escaping beyond quotes
/// and backslashes).
fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

impl Report {
    /// Failed and attempted items across every gate of every run.
    pub fn counts(&self) -> (u64, u64) {
        let runs = std::iter::once(&self.plain).chain(self.traced.as_ref());
        runs.flat_map(|r| &r.m.gates)
            .fold((0, 0), |(f, a), g| (f + g.failed, a + g.attempted))
    }

    /// The end-to-end metrics of the untraced run: name, value, unit,
    /// samples.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let p = &self.plain;
        let n = p.m.ops.len();
        let values = [
            median(&p.setups),
            p.m.rate,
            p.m.op_p50,
            p.m.op_tail,
            procstat::rss_peak_mb(),
            p.space_amp,
        ];
        let samples = [p.setups.len(), p.m.slices, n, n, 1, 1];
        END_TO_END
            .iter()
            .zip(values)
            .zip(samples)
            .map(|((&(n, u), v), s)| (n, v, u, s))
            .collect()
    }

    /// Every output record, one JSON object per line; the result object
    /// comes last.
    pub fn lines(&self, cfg: &Config) -> Vec<String> {
        let (failed, attempted) = self.counts();
        let correct = failed == 0 && attempted > 0;
        let mut out = Vec::new();
        let mut stamp = format!(
            "{{\"record\": \"stamp\", \"benchmark\": \"e2ebench\", \"workload\": {}, \
             \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \"git_commit\": {}, \
             \"nodes\": {}, \"replication\": {}, \"event_dbs_per_node\": {}, \
             \"product_dbs_per_node\": {}, \"backend\": \"lsm\", \"wal_sync\": {}, \
             \"read_cache_bytes\": {}, \"memtable_bytes\": {}, \"load_threads\": {}, \
             \"writer_rate\": {}, \
             \"events_in_window\": {}, \"inputs_used\": {}, \"window_s\": {}",
            string(cfg.workload.name()),
            cfg.seed,
            num(cfg.seconds),
            cfg.trace,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            string(&git_commit()),
            deploy::NODES,
            deploy::REPLICATION,
            deploy::node_counts().events,
            deploy::node_counts().products,
            string(deploy::WAL_SYNC),
            deploy::READ_CACHE_BYTES,
            deploy::MEMTABLE_BYTES,
            LOAD_THREADS,
            num(cfg.writer_rate),
            self.plain.m.events,
            self.plain.m.inputs_used,
            num(self.plain.m.window.as_secs_f64()),
        );
        let scale = cfg.scale;
        let _ = write!(
            stamp,
            ", \"ingest_files_per_s\": {}, \"file_events\": {}, \"analysis_events\": {}, \
             \"analysis_parts\": {}, \"lookup_events\": {}, \"setup_reps\": {}",
            num(scale.ingest_files_per_s),
            crate::FILE_EVENTS,
            scale.analysis_events,
            scale.analysis_parts,
            scale.lookup_events,
            self.plain.setups.len(),
        );
        for (k, v) in &self.stamp {
            let _ = write!(stamp, ", {}: {}", string(k), v);
        }
        out.push(format!("{stamp}}}"));

        let p = &self.plain;
        let ops = p.m.ops.summary();
        let highest = format!(
            ", \"highest_percentile\": {}, \"highest_percentile_value\": {}",
            num(ops.tail_q * 100.0),
            num(ops.tail)
        );
        for (name, v, unit, n) in self.end_to_end() {
            let extra = match name {
                "op_p50_us" => highest.clone(),
                "op_tail_us" => {
                    format!(", \"percentile\": {}{highest}", num(crate::TAIL_Q * 100.0))
                }
                _ => String::new(),
            };
            out.push(metric_line("end_to_end", name, v, unit, n, &extra));
        }
        for &(name, v, unit, n) in &p.m.named {
            // The workload's own latencies come from the same samples as
            // `op_p50_us`.
            let extra = if unit == "us" { highest.as_str() } else { "" };
            out.push(metric_line("workload", name, v, unit, n, extra));
        }
        let failed_frac = failed as f64 / attempted.max(1) as f64;
        out.push(metric_line(
            "workload",
            "ops_failed_frac",
            failed_frac,
            "ratio",
            attempted as usize,
            "",
        ));
        for run in std::iter::once(p).chain(self.traced.as_ref()) {
            for g in &run.m.gates {
                out.push(format!(
                    "{{\"record\": \"gate\", \"name\": {}, \"attempted\": {}, \"failed\": {}, \
                     \"passed\": {}}}",
                    string(g.name),
                    g.attempted,
                    g.failed,
                    g.failed == 0 && g.attempted > 0
                ));
            }
        }

        let result: Vec<(String, f64, &str)> = match &self.traced {
            None => self
                .end_to_end()
                .into_iter()
                .map(|(name, v, unit, _)| (name.to_string(), v, unit))
                .collect(),
            Some(t) => {
                let mut l = t.layers.clone().unwrap_or_default();
                let overhead = 1.0 - t.m.rate / self.plain.m.rate.max(1e-9);
                l.values.insert("trace.overhead_frac".into(), overhead);
                layers::names()
                    .into_iter()
                    .map(|(name, unit)| {
                        let v = l.values.get(&name).copied().unwrap_or(0.0);
                        let line = match l.timings.get(&name) {
                            Some(s) => metric_line(
                                "per_layer",
                                &name,
                                v,
                                unit,
                                s.n,
                                &format!(
                                    ", \"highest_percentile\": {}, \"highest_percentile_value\": {}",
                                    num(s.tail_q * 100.0),
                                    num(s.tail)
                                ),
                            ),
                            None => metric_line("per_layer", &name, v, unit, 1, ""),
                        };
                        out.push(line);
                        (name, v, unit)
                    })
                    .collect()
            }
        };
        let metrics: Vec<String> = result
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    num(*v),
                    string(unit)
                )
            })
            .collect();
        out.push(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ));
        out
    }
}

/// One metric record.
fn metric_line(scope: &str, name: &str, v: f64, unit: &str, n: usize, extra: &str) -> String {
    format!(
        "{{\"record\": \"metric\", \"scope\": {}, \"name\": {}, \"value\": {}, \
         \"unit\": {}, \"samples\": {}{extra}}}",
        string(scope),
        string(name),
        num(v),
        string(unit),
        n
    )
}
