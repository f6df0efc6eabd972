//! `analysis`: the read path over data larger than the caches. The set-up
//! stores the events twice, as blobs and columnar (`with_columnar`), each
//! split into part datasets. The window cycles through the parts; for each
//! it runs a PEP scan of the blob part with prefetch and
//! `nova::select_slices` in the callback, then `select_dataset_pushdown`
//! over the columnar part with the default ν_e cuts and with a looser
//! sideband cut. Every pass is checked against a client-side selection of
//! the generated events.

use crate::deploy::Deployment;
use crate::probe::{Recorder, SpanKind};
use crate::stats::{median, slice_rates};
use crate::{
    generate_files, load_files, user_bytes, Bench, Config, Gate, Measured, LOAD_THREADS, TAIL_Q,
};
use hepnos::{DataSet, ParallelEventProcessor, PepOptions, PepStatistics};
use nova::loader::{slice_label, slice_type_name};
use nova::{select_dataset_pushdown, select_slices, EventRecord, SelectStats, SelectionCuts};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event coordinates: run, subrun, event.
type Coords = (u64, u64, u64);
/// Accepted slice ids per event.
type IdsByEvent = HashMap<Coords, Vec<u64>>;

/// One part of the data: its events and the expected selections.
struct Part {
    files: Vec<Vec<EventRecord>>,
    events: u64,
    nue: IdsByEvent,
    /// Sorted ids accepted by each cut set, in [`cut_sets`] order.
    sorted: [Vec<u64>; 2],
}

/// The ν_e selection and a looser sideband around it.
fn cut_sets() -> [SelectionCuts; 2] {
    let nue = SelectionCuts::default();
    let sideband = SelectionCuts {
        min_cvn_nue: 0.5,
        max_cosmic_score: 0.7,
        energy_range: (0.5, 6.0),
        ..SelectionCuts::default()
    };
    [nue, sideband]
}

/// The `analysis` workload and its generated input.
pub struct Analysis {
    parts: Vec<Part>,
}

/// Blob and columnar datasets of every part.
pub struct Datasets {
    blob: Vec<DataSet>,
    col: Vec<DataSet>,
    drain: Duration,
    user_bytes: u64,
}

impl Analysis {
    /// Generate the events of `cfg`'s seed and their expected selections.
    pub fn new(cfg: &Config) -> Analysis {
        let n_parts = cfg.scale.analysis_parts.max(1) as usize;
        let n_files = (cfg.scale.analysis_events / crate::FILE_EVENTS) as usize;
        let mut files = generate_files(cfg.seed, 0, n_files).into_iter();
        let per_part = n_files.div_ceil(n_parts);
        let cuts = cut_sets();
        let parts = (0..n_parts)
            .map(|_| {
                let files: Vec<_> = files.by_ref().take(per_part).collect();
                let events = files.iter().map(|f| f.len() as u64).sum();
                let mut nue = IdsByEvent::new();
                let mut sorted: [Vec<u64>; 2] = Default::default();
                for ev in files.iter().flatten() {
                    let ids = select_slices(ev, &cuts[0]);
                    sorted[0].extend(&ids);
                    sorted[1].extend(select_slices(ev, &cuts[1]));
                    nue.insert((ev.run, ev.subrun, ev.event), ids);
                }
                sorted.iter_mut().for_each(|v| v.sort_unstable());
                Part {
                    files,
                    events,
                    nue,
                    sorted,
                }
            })
            .collect();
        Analysis { parts }
    }

    /// One PEP scan of a blob part; returns the pass's failed-event count.
    fn pep_pass(
        &self,
        dep: &Deployment,
        ds: &DataSet,
        part: &Part,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(PepStatistics, u64), String> {
        let (label, cuts) = (slice_label(), SelectionCuts::default());
        let pep = ParallelEventProcessor::new(
            dep.store.clone(),
            PepOptions {
                num_workers: LOAD_THREADS,
                prefetch: vec![(label.clone(), slice_type_name())],
                ..Default::default()
            },
        );
        let got: Mutex<Vec<(Coords, Option<Vec<u64>>)>> = Mutex::default();
        let stats = pep
            .process(ds, |_, pe| {
                let start = rec.map(|r| r.now());
                let (run, subrun, event) = pe.event().coordinates();
                let ids = pe
                    .load::<Vec<nova::SliceQuantities>>(&label)
                    .ok()
                    .flatten()
                    .map(|slices| {
                        let rec = EventRecord {
                            run,
                            subrun,
                            event,
                            slices,
                        };
                        select_slices(&rec, &cuts)
                    });
                if let (Some(r), Some(t)) = (rec, start) {
                    r.record(SpanKind::Select, 0, 0, t, r.now());
                }
                got.lock().push(((run, subrun, event), ids));
            })
            .map_err(|e| format!("PEP pass failed: {e}"))?;
        let got = got.into_inner();
        let mut seen = HashMap::with_capacity(got.len());
        let mut failed = 0u64;
        for (coords, ids) in got {
            let dup = seen.insert(coords, ()).is_some();
            if dup || ids.as_ref() != part.nue.get(&coords) {
                failed += 1;
            }
        }
        failed += part.nue.keys().filter(|k| !seen.contains_key(k)).count() as u64;
        Ok((stats, failed))
    }
}

impl Bench for Analysis {
    type Prepared = Datasets;

    fn prepare(&self, dep: &Deployment) -> Result<Datasets, String> {
        let root = dep.store.root();
        let mut d = Datasets {
            blob: Vec::new(),
            col: Vec::new(),
            drain: Duration::ZERO,
            user_bytes: 0,
        };
        for (k, part) in self.parts.iter().enumerate() {
            for columnar in [false, true] {
                let name = format!("{}{k}", if columnar { "col" } else { "blob" });
                let ds = root.create_dataset(&name).map_err(|e| e.to_string())?;
                load_files(&dep.store, &ds, &part.files, columnar)?;
                d.user_bytes += user_bytes(&ds, &part.files, columnar);
                if columnar { &mut d.col } else { &mut d.blob }.push(ds);
            }
        }
        d.drain = dep.quiesce(Duration::from_secs(120))?;
        Ok(d)
    }

    fn measure(
        &self,
        dep: &Deployment,
        d: &Datasets,
        cfg: &Config,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Measured, String> {
        let mut m = Measured {
            drain: d.drain,
            user_bytes: d.user_bytes,
            ..Measured::default()
        };
        let cuts = cut_sets();
        let mut pep_gate = Gate {
            name: "pep_matches_client_select",
            attempted: 0,
            failed: 0,
        };
        let mut push_gate = Gate {
            name: "pushdown_matches_client_select",
            attempted: 0,
            failed: 0,
        };
        let (mut pep_time, mut pep_events) = (Duration::ZERO, 0u64);
        let (mut sel_time, mut sel_events) = (Duration::ZERO, 0u64);
        let mut pep_stats: Vec<PepStatistics> = Vec::new();
        let mut sel_stats = SelectStats::default();
        if let Some(r) = rec {
            r.sync_caller();
        }
        let t0 = Instant::now();
        let mut passes = Vec::new();
        let mut q = 0usize;
        while t0.elapsed().as_secs_f64() < cfg.seconds {
            let k = (q / 3) % self.parts.len();
            let part = &self.parts[k];
            let start = Instant::now();
            let opened = t0.elapsed().as_secs_f64();
            if q.is_multiple_of(3) {
                let (stats, failed) = self.pep_pass(dep, &d.blob[k], part, rec)?;
                pep_gate.attempted += part.events;
                pep_gate.failed += failed;
                pep_time += start.elapsed();
                pep_events += part.events;
                pep_stats.push(stats);
            } else {
                let which = q % 3 - 1;
                let (mut ids, stats) = select_dataset_pushdown(&dep.store, &d.col[k], &cuts[which])
                    .map_err(|e| format!("push-down select failed: {e}"))?;
                if let Some(r) = rec {
                    r.close_call(r.now());
                }
                ids.sort_unstable();
                push_gate.attempted += part.events;
                // Every event of a columnar part must be answered by the
                // servers' filter; a client-side fallback is a defect too.
                if ids != part.sorted[which] || stats.events != part.events {
                    push_gate.failed += part.events;
                } else {
                    push_gate.failed += stats.fallback_events;
                }
                sel_time += start.elapsed();
                sel_events += part.events;
                m.filtered_events += stats.events;
                sel_stats.merge(&stats);
            }
            m.ops.push(start.elapsed().as_secs_f64() * 1e6);
            passes.push((opened, t0.elapsed().as_secs_f64(), part.events as f64));
            m.events += part.events;
            q += 1;
        }
        m.window = t0.elapsed();
        let rates = slice_rates(&passes, m.window.as_secs_f64(), 1.0);
        m.rate = median(&rates);
        m.slices = rates.len();
        m.op_p50 = m.ops.quantile(0.5);
        m.op_tail = m.ops.quantile(TAIL_Q);
        m.gates = vec![pep_gate, push_gate];
        let pep_rate = pep_events as f64 / pep_time.as_secs_f64().max(1e-9);
        let sel_rate = sel_events as f64 / sel_time.as_secs_f64().max(1e-9);
        m.named
            .push(("pep_events_per_s", pep_rate, "events/s", pep_stats.len()));
        m.named.push((
            "select_events_per_s",
            sel_rate,
            "events/s",
            q - pep_stats.len(),
        ));
        pep_layer(&mut m, &pep_stats, pep_rate);
        let pages = (sel_stats.pages_scanned + sel_stats.pages_skipped) as f64;
        for (k, v) in [
            ("nova.pushdown.events_per_s", sel_rate),
            (
                "nova.pushdown.pages_skipped_frac",
                if pages > 0.0 {
                    sel_stats.pages_skipped as f64 / pages
                } else {
                    0.0
                },
            ),
            (
                "nova.pushdown.fallback_events",
                sel_stats.fallback_events as f64,
            ),
        ] {
            m.layer.insert(k.to_string(), v);
        }
        Ok(m)
    }

    fn verify(&self, _dep: &Deployment, _d: &Datasets, _m: &mut Measured) {
        // Every pass was checked inside the window.
    }
}

/// PEP statistics of the window's passes as layer metrics: waits summed
/// over passes, ratios averaged.
fn pep_layer(m: &mut Measured, passes: &[PepStatistics], rate: f64) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let sum = |f: &dyn Fn(&PepStatistics) -> f64| passes.iter().map(f).sum::<f64>();
    let n = passes.len().max(1) as f64;
    for (k, v) in [
        ("hepnos.pep.events_per_s", rate),
        (
            "hepnos.pep.list_wait_ms",
            sum(&|p| p.readers.iter().map(|r| ms(r.list_wait)).sum()),
        ),
        (
            "hepnos.pep.prefetch_wait_ms",
            sum(&|p| p.readers.iter().map(|r| ms(r.prefetch_wait)).sum()),
        ),
        (
            "hepnos.pep.dispatch_stall_ms",
            sum(&|p| p.readers.iter().map(|r| ms(r.dispatch_stall)).sum()),
        ),
        ("hepnos.pep.overlap_ratio", sum(&|p| p.overlap_ratio()) / n),
        (
            "hepnos.pep.worker_wait_ms",
            sum(&|p| p.workers.iter().map(|w| ms(w.waiting_time)).sum()),
        ),
        (
            "hepnos.pep.load_imbalance",
            sum(&|p| p.load_imbalance()) / n,
        ),
    ] {
        m.layer.insert(k.to_string(), v);
    }
}
