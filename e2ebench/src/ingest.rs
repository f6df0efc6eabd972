//! `ingest`: all write path. Loader threads push a fixed set of
//! pre-generated files, sized so the window lasts about `--seconds`,
//! through `DataLoader::ingest_events_overlapped` (`AsyncWriteBatch`);
//! then lsmdb drains and every event is read back and compared with the
//! generator.

use crate::deploy::Deployment;
use crate::probe::Recorder;
use crate::{
    batch_layer, expected_products, generate_files, load_files, read_back, user_bytes, Bench,
    Config, Measured, TAIL_Q,
};
use hepnos::DataSet;
use nova::EventRecord;
use std::sync::Arc;
use std::time::Duration;

/// The `ingest` workload and its generated input.
pub struct Ingest {
    files: Vec<Vec<EventRecord>>,
}

impl Ingest {
    /// Generate the input files of `cfg`'s seed.
    pub fn new(cfg: &Config) -> Ingest {
        let files = (cfg.seconds * cfg.scale.ingest_files_per_s).ceil() as usize;
        Ingest {
            files: generate_files(cfg.seed, 0, files.max(1)),
        }
    }
}

impl Bench for Ingest {
    type Prepared = DataSet;

    fn prepare(&self, dep: &Deployment) -> Result<DataSet, String> {
        dep.store
            .root()
            .create_dataset("ingest")
            .map_err(|e| e.to_string())
    }

    fn measure(
        &self,
        dep: &Deployment,
        ds: &DataSet,
        _cfg: &Config,
        _rec: Option<&Arc<Recorder>>,
    ) -> Result<Measured, String> {
        let loaded = load_files(&dep.store, ds, &self.files, false)?;
        let drain = dep.quiesce(Duration::from_secs(120))?;
        let window = loaded.window.as_secs_f64();
        let mut m = Measured {
            events: loaded.events,
            window: loaded.window,
            rate: loaded.events as f64 / window,
            slices: 1,
            op_p50: loaded.per_file_us.quantile(0.5),
            op_tail: loaded.per_file_us.quantile(TAIL_Q),
            ops: loaded.per_file_us,
            drain,
            user_bytes: user_bytes(ds, &self.files, false),
            inputs_used: self.files.len(),
            ..Measured::default()
        };
        batch_layer(&mut m, &loaded.batch);
        m.named
            .push(("ingest_events_per_s", m.rate, "events/s", m.events as usize));
        Ok(m)
    }

    fn verify(&self, dep: &Deployment, ds: &DataSet, m: &mut Measured) {
        let expected = expected_products(&self.files);
        m.gates
            .push(read_back(&dep.store, ds, &expected, "ingest_read_back"));
    }
}
