//! Reference end-to-end benchmark of the HEPnOS reproduction.
//!
//! Three workloads run on one reference deployment ([`deploy`]): `ingest`
//! (the batched write path), `analysis` (PEP scans and predicate push-down
//! over data larger than the caches) and `lookup` (event-granular random
//! reads beside a paced writer). Every run checks its outputs against the
//! generator. A traced run ([`layers`]) adds the per-layer breakdown.

pub mod analysis;
pub mod deploy;
pub mod ingest;
pub mod layers;
pub mod lookup;
pub mod probe;
pub mod procstat;
pub mod report;
pub mod stats;

use deploy::Deployment;
use hepnos::{BatchStats, DataSet, DataStore};
use nova::loader::{slice_label, slice_type_name, summary_label, summary_type_name};
use nova::{DataLoader, EventRecord, NovaGenerator};
use probe::Recorder;
use stats::Samples;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benchmark threads driving load (the host's core count).
pub const LOAD_THREADS: usize = 2;
/// Events per generated input file; one file is one subrun.
pub const FILE_EVENTS: u64 = 256;
/// Rows per page of the columnar representation.
pub const PAGE_ROWS: u32 = 256;
/// Quantile reported as `op_tail_us`. The 99th percentile of `lookup`
/// flips between runs (a few slow requests decide it), the 90th does not.
pub const TAIL_Q: f64 = 0.9;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched, overlapped ingest.
    Ingest,
    /// PEP scans and push-down selections.
    Analysis,
    /// Random event lookups beside a paced writer.
    Lookup,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "analysis" => Some(Workload::Analysis),
            "lookup" => Some(Workload::Lookup),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Analysis => "analysis",
            Workload::Lookup => "lookup",
        }
    }
}

/// Input sizes. `full` is the reference size; `toy` exists for the
/// self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Input files per second of `--seconds` in the `ingest` window. The
    /// input is fixed so every run does the same work; this sizes it.
    pub ingest_files_per_s: f64,
    /// Events per representation in the `analysis` set-up.
    pub analysis_events: u64,
    /// Datasets each representation of the `analysis` data is split into.
    pub analysis_parts: u64,
    /// Events preloaded for `lookup`.
    pub lookup_events: u64,
    /// Set-ups per run (input generation, deployment, preload, drain);
    /// `setup_s` is their median and the last one is kept for the window.
    pub setup_reps: usize,
}

impl Scale {
    /// The reference size.
    pub fn full() -> Scale {
        Scale {
            ingest_files_per_s: 160.0,
            analysis_events: 96 * FILE_EVENTS,
            analysis_parts: 4,
            lookup_events: 160 * FILE_EVENTS,
            setup_reps: 3,
        }
    }

    /// A size that finishes in seconds.
    pub fn toy() -> Scale {
        Scale {
            ingest_files_per_s: 8.0,
            analysis_events: 8 * FILE_EVENTS,
            analysis_parts: 2,
            lookup_events: 8 * FILE_EVENTS,
            setup_reps: 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Emit the per-layer breakdown instead of the end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Events per second the `lookup` writer ingests.
    pub writer_rate: f64,
    /// Directory for data and trace files (relative to the checkout).
    pub work_dir: PathBuf,
}

/// A correctness gate: how many checked items failed.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Items checked.
    pub attempted: u64,
    /// Items wrong or missing.
    pub failed: u64,
}

/// What one timed window produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Events handled in the window (the throughput numerator).
    pub events: u64,
    /// Length of the window.
    pub window: Duration,
    /// Latency of the workload's unit of work, in µs.
    pub ops: Samples,
    /// The window's event rate (events/s): a median over one-second slices
    /// where the workload is stationary, else first event to last.
    pub rate: f64,
    /// Samples behind `rate` (slices, or 1 for a whole-window rate).
    pub slices: usize,
    /// Median latency of the unit of work (µs).
    pub op_p50: f64,
    /// The [`TAIL_Q`] quantile of that latency (µs).
    pub op_tail: f64,
    /// Correctness gates; any failure fails the run.
    pub gates: Vec<Gate>,
    /// Key + value bytes of everything stored in the deployment (one copy).
    pub user_bytes: u64,
    /// The lsmdb drain that settles the workload's writes.
    pub drain: Duration,
    /// Events evaluated by push-down filters in the window.
    pub filtered_events: u64,
    /// Input files of the window (`ingest`) or events written beside it
    /// (`lookup`), kept for verification.
    pub inputs_used: usize,
    /// Layer metrics the workload measures itself.
    pub layer: std::collections::BTreeMap<String, f64>,
    /// The workload's own end-to-end figures: name, value, unit, samples.
    pub named: Vec<(&'static str, f64, &'static str, usize)>,
}

/// One workload: a set-up (timed as `setup_s`), a timed window, a
/// verification.
pub trait Bench {
    /// What the set-up leaves for the window.
    type Prepared;
    /// Workload-specific fields of the stamp record.
    fn stamp(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// Build the workload's starting state on a fresh deployment and wait
    /// until lsmdb is idle.
    fn prepare(&self, dep: &Deployment) -> Result<Self::Prepared, String>;
    /// Run the timed window, then wait until lsmdb is idle again.
    fn measure(
        &self,
        dep: &Deployment,
        prep: &Self::Prepared,
        cfg: &Config,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Measured, String>;
    /// Check the outputs against the generator, appending gates.
    fn verify(&self, dep: &Deployment, prep: &Self::Prepared, m: &mut Measured);
}

/// Record the [`hepnos::BatchStats`] of a write window as layer metrics.
pub fn batch_layer(m: &mut Measured, b: &BatchStats) {
    let pairs_per_rpc = if b.acked_rpcs > 0 {
        b.acked_pairs as f64 / b.acked_rpcs as f64
    } else {
        0.0
    };
    for (k, v) in [
        ("hepnos.batch.pairs_per_rpc", pairs_per_rpc),
        ("hepnos.batch.stall_ms", b.stall_time.as_secs_f64() * 1e3),
        ("hepnos.batch.inflight_hwm", b.inflight_hwm as f64),
        ("hepnos.batch.busy_pushbacks", b.retry.busy_pushbacks as f64),
    ] {
        m.layer.insert(k.to_string(), v);
    }
}

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64 step: the benchmark's seeded random source.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate `files` input files of [`FILE_EVENTS`] events; file `i` is
/// subrun `i % 64` of run `run_base + i / 64`.
pub fn generate_files(seed: u64, run_base: u64, files: usize) -> Vec<Vec<EventRecord>> {
    let gen = NovaGenerator::new(seed);
    (0..files as u64)
        .map(|i| {
            let (run, subrun) = (run_base + i / 64, i % 64);
            (0..FILE_EVENTS)
                .map(|e| gen.generate(run, subrun, e))
                .collect()
        })
        .collect()
}

/// The bytes the loader stores for an event's slice product (blob form).
pub fn slice_bytes(ev: &EventRecord) -> Vec<u8> {
    hepnos::binser::to_bytes(&ev.slices).expect("slices serialize")
}

/// The bytes the loader stores for an event's summary product.
pub fn summary_bytes(ev: &EventRecord) -> Vec<u8> {
    hepnos::binser::to_bytes(&ev.summary()).expect("summary serializes")
}

/// Key + value bytes the loader writes for `files` into `ds` (one copy):
/// the denominator of space amplification, before replication.
pub fn user_bytes(ds: &DataSet, files: &[Vec<EventRecord>], columnar: bool) -> u64 {
    let uuid = ds.uuid().expect("dataset has a uuid");
    let (label, summary) = (slice_label(), summary_label());
    let slice_type = if columnar {
        nova::columnar::columnar_type_name()
    } else {
        slice_type_name()
    };
    let mut total = 0u64;
    for file in files {
        let Some(first) = file.first() else { continue };
        total += hepnos::keys::run_key(&uuid, first.run).len() as u64;
        total += hepnos::keys::subrun_key(&uuid, first.run, first.subrun).len() as u64;
        for ev in file {
            let ek = hepnos::keys::event_key(&uuid, ev.run, ev.subrun, ev.event);
            let slice_value = if columnar {
                nova::columnar::encode_event(ev, PAGE_ROWS).len()
            } else {
                slice_bytes(ev).len()
            };
            total += ek.len() as u64
                + hepnos::keys::product_key(&ek, label.as_str(), &slice_type).len() as u64
                + slice_value as u64
                + hepnos::keys::product_key(&ek, summary.as_str(), &summary_type_name()).len()
                    as u64
                + summary_bytes(ev).len() as u64;
        }
    }
    total
}

/// Outcome of loading files through the overlapped write path.
#[derive(Debug, Default)]
pub struct Loaded {
    /// Events ingested.
    pub events: u64,
    /// First store to last acknowledgement.
    pub window: Duration,
    /// Per-file latency (µs), first store to last ack of that file.
    pub per_file_us: Samples,
    /// Per file: start and end (s since the first store) and its events.
    pub intervals: Vec<(f64, f64, f64)>,
    /// Pipeline counters of every file's `AsyncWriteBatch`, merged.
    pub batch: BatchStats,
}

/// Ingest `files` into `ds` from [`LOAD_THREADS`] loader threads through
/// `DataLoader::ingest_events_overlapped`, each taking the next file in
/// order until they run out.
pub fn load_files(
    store: &DataStore,
    ds: &DataSet,
    files: &[Vec<EventRecord>],
    columnar: bool,
) -> Result<Loaded, String> {
    let runtime = argos::Runtime::simple(LOAD_THREADS);
    let pool = runtime.default_pool().expect("runtime pool");
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let results: Vec<Result<Loaded, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                let mut loader = DataLoader::new(store.clone(), ds.clone());
                if columnar {
                    loader = loader.with_columnar(PAGE_ROWS);
                }
                let (next, pool) = (&next, pool.clone());
                scope.spawn(move || {
                    let mut out = Loaded::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(file) = files.get(i) else {
                            return Ok(out);
                        };
                        let start = t0.elapsed();
                        let stats = loader
                            .ingest_events_overlapped(file, pool.clone())
                            .map_err(|e| format!("ingest of file {i} failed: {e}"))?;
                        let end = t0.elapsed();
                        out.per_file_us.push((end - start).as_secs_f64() * 1e6);
                        out.intervals.push((
                            start.as_secs_f64(),
                            end.as_secs_f64(),
                            stats.events as f64,
                        ));
                        out.window = out.window.max(end);
                        out.events += stats.events;
                        if let Some(b) = &stats.batch {
                            out.batch.merge(b);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .collect()
    });
    runtime.shutdown();
    let mut total = Loaded::default();
    for r in results {
        let r = r?;
        total.events += r.events;
        total.window = total.window.max(r.window);
        total.per_file_us.extend(&r.per_file_us);
        total.intervals.extend(r.intervals);
        total.batch.merge(&r.batch);
    }
    Ok(total)
}

/// Per-event product hashes expected by [`read_back`]: event coordinates
/// to `fnv(slice bytes) ^ fnv(summary bytes).rotate_left(1)`.
pub fn expected_products(
    files: &[Vec<EventRecord>],
) -> std::collections::HashMap<(u64, u64, u64), u64> {
    files
        .iter()
        .flatten()
        .map(|ev| {
            let h = fnv(&slice_bytes(ev)) ^ fnv(&summary_bytes(ev)).rotate_left(1);
            ((ev.run, ev.subrun, ev.event), h)
        })
        .collect()
}

/// Read every event of `ds` back through the PEP with both products
/// prefetched and compare with `expected`. Counts an item per expected
/// event plus one per unexpected or duplicate delivery.
pub fn read_back(
    store: &DataStore,
    ds: &DataSet,
    expected: &std::collections::HashMap<(u64, u64, u64), u64>,
    name: &'static str,
) -> Gate {
    use parking_lot::Mutex;
    let seen: Mutex<std::collections::HashMap<(u64, u64, u64), u32>> = Mutex::default();
    let wrong = std::sync::atomic::AtomicU64::new(0);
    let (label, summary) = (slice_label(), summary_label());
    let pep = hepnos::ParallelEventProcessor::new(
        store.clone(),
        hepnos::PepOptions {
            num_workers: LOAD_THREADS,
            prefetch: vec![
                (label.clone(), slice_type_name()),
                (summary.clone(), summary_type_name()),
            ],
            ..Default::default()
        },
    );
    let result = pep.process(ds, |_, pe| {
        let coords = pe.event().coordinates();
        let slice = pe.load_raw(&label, &slice_type_name()).ok().flatten();
        let summ = pe.load_raw(&summary, &summary_type_name()).ok().flatten();
        let got = match (slice, summ) {
            (Some(s), Some(m)) => Some(fnv(&s) ^ fnv(&m).rotate_left(1)),
            _ => None,
        };
        if got.is_none() || got != expected.get(&coords).copied() {
            wrong.fetch_add(1, Ordering::Relaxed);
        }
        *seen.lock().entry(coords).or_default() += 1;
    });
    let seen = seen.into_inner();
    let missing = expected.keys().filter(|k| !seen.contains_key(k)).count() as u64;
    let unexpected = seen.keys().filter(|k| !expected.contains_key(k)).count() as u64;
    let extra: u64 = seen.values().map(|&n| n.saturating_sub(1) as u64).sum();
    let attempted = expected.len() as u64 + unexpected + extra;
    let failed = match result {
        Ok(_) => (missing + extra + wrong.into_inner()).min(attempted),
        Err(_) => attempted,
    };
    Gate {
        name,
        attempted,
        failed,
    }
}
