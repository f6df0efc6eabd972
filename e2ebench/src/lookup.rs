//! `lookup`: event-granular random access with writes beside the reads.
//! One closed-loop reader steps through events drawn from a seeded Zipf
//! law (`SubRun::event` then `Event::load_raw` of the slice product) while
//! a writer ingests a second dataset through `AsyncWriteBatch` in an open
//! loop at a fixed rate.

use crate::deploy::Deployment;
use crate::probe::{Recorder, SpanKind};
use crate::stats::{by_slice, median, slice_rates, Samples};
use crate::{
    batch_layer, expected_products, fnv, generate_files, load_files, read_back, slice_bytes,
    splitmix, user_bytes, Bench, Config, Gate, Measured, FILE_EVENTS, TAIL_Q,
};
use hepnos::{AsyncWriteBatch, DataSet, SubRun, WriteBatch};
use nova::loader::{slice_label, slice_type_name, summary_label};
use nova::EventRecord;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zipf exponent of the reader's event draw.
pub const ZIPF_S: f64 = 1.0;
/// Runs of the writer's dataset start here (distinct from the preload).
const WRITER_RUN_BASE: u64 = 1_000_000;

/// The `lookup` workload and its generated input.
pub struct Lookup {
    files: Vec<Vec<EventRecord>>,
    hashes: Vec<u64>,
    /// Cumulative Zipf weights by popularity rank.
    cdf: Vec<f64>,
    /// Event index of each popularity rank.
    by_rank: Vec<u32>,
    writer_files: Vec<Vec<EventRecord>>,
    writer_rate: f64,
    seed: u64,
}

/// What the set-up leaves for the window.
pub struct Prepared {
    subruns: Vec<SubRun>,
    writer_ds: DataSet,
    user_bytes: u64,
}

impl Lookup {
    /// Generate the preload, the writer's input and the reader's draw.
    pub fn new(cfg: &Config) -> Lookup {
        let n_files = (cfg.scale.lookup_events / FILE_EVENTS) as usize;
        let files = generate_files(cfg.seed, 0, n_files);
        let hashes: Vec<u64> = files
            .iter()
            .flatten()
            .map(|e| fnv(&slice_bytes(e)))
            .collect();
        let n = hashes.len();
        let mut acc = 0.0;
        let cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        let mut state = cfg.seed ^ 0x5eed;
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            by_rank.swap(i, j);
        }
        let writer_events = (cfg.writer_rate * cfg.seconds * 1.1).ceil() as u64 + FILE_EVENTS;
        let writer_files = generate_files(
            cfg.seed,
            WRITER_RUN_BASE,
            writer_events.div_ceil(FILE_EVENTS) as usize,
        );
        Lookup {
            files,
            hashes,
            cdf,
            by_rank,
            writer_files,
            writer_rate: cfg.writer_rate,
            seed: cfg.seed,
        }
    }

    /// Events drawn by the most popular ranks that together receive
    /// `share` of all draws.
    pub fn hot_set(&self, share: f64) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        self.cdf.partition_point(|&c| c < share * total) + 1
    }

    /// Key + value bytes of the hot set's slice products.
    pub fn hot_set_bytes(&self, share: f64) -> u64 {
        let all: Vec<&EventRecord> = self.files.iter().flatten().collect();
        self.by_rank[..self.hot_set(share).min(all.len())]
            .iter()
            .map(|&i| slice_bytes(all[i as usize]).len() as u64 + 64)
            .sum()
    }

    /// The first `n` writer events, grouped by file.
    fn written(&self, n: usize) -> Vec<Vec<EventRecord>> {
        let mut left = n;
        let mut out = Vec::new();
        for f in &self.writer_files {
            if left == 0 {
                break;
            }
            let take = left.min(f.len());
            out.push(f[..take].to_vec());
            left -= take;
        }
        out
    }

    /// The closed-loop reader: lookups from `start` until `deadline`.
    /// Returns each lookup's start (s since `start`) and latency (µs).
    fn reader(
        &self,
        p: &Prepared,
        start: Instant,
        deadline: Instant,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Vec<(f64, f64)>, Gate), String> {
        let (label, ty) = (slice_label(), slice_type_name());
        let mut state = self.seed ^ 0x100c;
        let total = *self.cdf.last().expect("events to look up");
        let mut lat = Vec::new();
        let mut gate = Gate {
            name: "lookup_bytes_match",
            attempted: 0,
            failed: 0,
        };
        if let Some(r) = rec {
            r.sync_caller();
        }
        while Instant::now() < deadline {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
            let idx = self.by_rank[rank] as usize;
            let subrun = &p.subruns[idx / FILE_EVENTS as usize];
            let number = (idx % FILE_EVENTS as usize) as u64;
            let t0 = Instant::now();
            let s0 = rec.map(|r| r.now());
            let ev = subrun
                .event(number)
                .map_err(|e| format!("lookup of event {idx} failed: {e}"))?;
            let s1 = rec.map(|r| r.now());
            let bytes = ev
                .load_raw(&label, &ty)
                .map_err(|e| format!("load of event {idx} failed: {e}"))?;
            lat.push(((t0 - start).as_secs_f64(), t0.elapsed().as_secs_f64() * 1e6));
            if let (Some(r), Some(s0), Some(s1)) = (rec, s0, s1) {
                let s2 = r.now();
                r.record(SpanKind::Nav, 0, 0, s0, s1);
                r.record(SpanKind::Load, 0, 0, s1, s2);
                r.record(SpanKind::Lookup, 0, 0, s0, s2);
                r.close_call(s2);
            }
            gate.attempted += 1;
            if bytes.map(|b| fnv(&b)) != Some(self.hashes[idx]) {
                gate.failed += 1;
            }
        }
        Ok((lat, gate))
    }

    /// The open-loop writer: event `k` is due `k / rate` after `start`.
    /// Returns the events written, the pipeline counters and the lag.
    fn writer(
        &self,
        dep: &Deployment,
        ds: &DataSet,
        start: Instant,
        deadline: Instant,
    ) -> Result<(usize, hepnos::BatchStats, Duration), String> {
        let err = |e: hepnos::HepnosError| format!("writer failed: {e}");
        let uuid = ds.uuid().ok_or("writer dataset has no uuid")?;
        let runtime = argos::Runtime::simple(crate::LOAD_THREADS);
        let mut containers = WriteBatch::new(&dep.store);
        let mut products =
            AsyncWriteBatch::new(&dep.store, runtime.default_pool().expect("runtime pool"));
        let (label, summary) = (slice_label(), summary_label());
        let events: Vec<&EventRecord> = self.writer_files.iter().flatten().collect();
        let mut current: Option<(u64, u64, SubRun)> = None;
        let mut max_lag = Duration::ZERO;
        let mut k = 0usize;
        let mut body = || -> Result<(), String> {
            while k < events.len() {
                let due = start + Duration::from_secs_f64(k as f64 / self.writer_rate);
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                max_lag = max_lag.max(now - due);
                let ev = events[k];
                let subrun = match &current {
                    Some((r, s, sr)) if (*r, *s) == (ev.run, ev.subrun) => sr.clone(),
                    _ => {
                        let run = containers.create_run(ds, ev.run).map_err(err)?;
                        let sr = containers.create_subrun(&run, ev.subrun).map_err(err)?;
                        current = Some((ev.run, ev.subrun, sr.clone()));
                        sr
                    }
                };
                let event = containers
                    .create_event(&subrun, &uuid, ev.event)
                    .map_err(err)?;
                products.store(&event, &label, &ev.slices).map_err(err)?;
                products
                    .store(&event, &summary, &ev.summary())
                    .map_err(err)?;
                k += 1;
            }
            Ok(())
        };
        let body_result = body();
        let flushed = containers.flush().map_err(err);
        let waited = products.wait().map_err(err);
        let stats = products.stats();
        runtime.shutdown();
        body_result?;
        flushed?;
        waited?;
        Ok((k, stats, max_lag))
    }
}

impl Bench for Lookup {
    type Prepared = Prepared;

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("zipf_s", ZIPF_S.to_string()),
            ("hot_set_events_90pct", self.hot_set(0.9).to_string()),
            ("hot_set_bytes_90pct", self.hot_set_bytes(0.9).to_string()),
        ]
    }

    fn prepare(&self, dep: &Deployment) -> Result<Prepared, String> {
        let e = |e: hepnos::HepnosError| e.to_string();
        let root = dep.store.root();
        let ds = root.create_dataset("lookup").map_err(e)?;
        load_files(&dep.store, &ds, &self.files, false)?;
        let subruns = self
            .files
            .iter()
            .map(|f| ds.run(f[0].run)?.subrun(f[0].subrun))
            .collect::<Result<Vec<_>, _>>()
            .map_err(e)?;
        let writer_ds = root.create_dataset("lookup-writer").map_err(e)?;
        dep.quiesce(Duration::from_secs(120))?;
        Ok(Prepared {
            subruns,
            writer_ds,
            user_bytes: user_bytes(&ds, &self.files, false),
        })
    }

    fn measure(
        &self,
        dep: &Deployment,
        p: &Prepared,
        cfg: &Config,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Measured, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(cfg.seconds);
        let (read, written) = std::thread::scope(|s| {
            let writer = s.spawn(|| self.writer(dep, &p.writer_ds, start, deadline));
            let read = self.reader(p, start, deadline, rec);
            (read, writer.join().expect("writer thread panicked"))
        });
        let window = start.elapsed();
        let (lat, gate) = read?;
        let (n_written, batch, lag) = written?;
        let drain = dep.quiesce(Duration::from_secs(120))?;
        let secs = window.as_secs_f64();
        // Rate and latency are medians over one-second slices: a burst of
        // interference from the host moves a few slices, not the median.
        let spans: Vec<(f64, f64, f64)> =
            lat.iter().map(|&(t, us)| (t, t + us / 1e6, 1.0)).collect();
        let rates = slice_rates(&spans, secs, 1.0);
        let slices = by_slice(&lat, secs, 1.0);
        let per_slice = |q: f64| median(&slices.iter().map(|s| s.quantile(q)).collect::<Vec<_>>());
        let mut ops = Samples::new();
        lat.iter().for_each(|&(_, us)| ops.push(us));
        let summary = ops.summary();
        let mut m = Measured {
            events: summary.n as u64,
            window,
            rate: median(&rates),
            slices: rates.len(),
            op_p50: per_slice(0.5),
            op_tail: per_slice(TAIL_Q),
            ops,
            gates: vec![gate],
            drain,
            user_bytes: p.user_bytes + user_bytes(&p.writer_ds, &self.written(n_written), false),
            inputs_used: n_written,
            ..Measured::default()
        };
        batch_layer(&mut m, &batch);
        m.layer
            .insert("bench.writer_lag_ms".into(), lag.as_secs_f64() * 1e3);
        let ops_per_s = summary.n as f64 / secs;
        m.named.extend([
            ("lookup_p50_us", summary.p50, "us", summary.n),
            ("lookup_p90_us", summary.p90, "us", summary.n),
            ("lookup_p99_us", summary.p99, "us", summary.n),
            ("lookup_ops_per_s", ops_per_s, "ops/s", summary.n),
            (
                "writer_events_per_s",
                n_written as f64 / secs,
                "events/s",
                n_written,
            ),
        ]);
        Ok(m)
    }

    fn verify(&self, dep: &Deployment, p: &Prepared, m: &mut Measured) {
        let expected = expected_products(&self.written(m.inputs_used));
        m.gates.push(read_back(
            &dep.store,
            &p.writer_ds,
            &expected,
            "writer_read_back",
        ));
    }
}
