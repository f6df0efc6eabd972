//! The reference deployment every workload runs on: two `bedrock` server
//! nodes and one `DataStore` client in this process, over loopback TCP,
//! LSM-backed, replication factor 2.

use crate::probe::{ProbeEndpoint, Recorder};
use bedrock::{BackendKind, BedrockServer, DbCounts, LsmConfig, ServiceConfig};
use hepnos::DataStore;
use lsmdb::DbStats;
use mercurio::tcp::TcpEndpoint;
use mercurio::Endpoint;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server nodes.
pub const NODES: usize = 2;
/// Copies of every database.
pub const REPLICATION: usize = 2;
/// WAL durability policy of every database.
pub const WAL_SYNC: &str = "group";
/// Read cache per database. It holds the `lookup` hot set and is a small
/// fraction of one product database after the `analysis` set-up.
pub const READ_CACHE_BYTES: usize = 1 << 20;
/// Memtable size per database. The generated events are small (about
/// 450 bytes of products each), so a 1 MiB memtable makes every product
/// database flush and compact several times per `ingest` window, and makes
/// the `lookup` writer's flushes and compactions land inside its window.
pub const MEMTABLE_BYTES: usize = 1 << 20;

/// Per node: 2 event databases and 4 product databases.
pub fn node_counts() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 2,
        events: 2,
        products: 4,
    }
}

fn lsm_config() -> LsmConfig {
    LsmConfig {
        memtable_bytes: MEMTABLE_BYTES,
        read_cache_bytes: READ_CACHE_BYTES,
        wal_sync: WAL_SYNC.into(),
        ..LsmConfig::default()
    }
}

/// Node configuration with its databases under `dir`.
fn node_config(dir: &Path) -> ServiceConfig {
    let mut cfg = ServiceConfig::hepnos_topology(node_counts(), BackendKind::Lsm, Some(dir.into()));
    cfg.lsm = Some(lsm_config());
    cfg.overload = Some(bedrock::OverloadConfig::default());
    cfg.replication = Some(bedrock::ReplicationConfig {
        factor: REPLICATION,
        ..bedrock::ReplicationConfig::default()
    });
    cfg
}

/// A running reference deployment rooted in its own data directory.
pub struct Deployment {
    servers: Vec<BedrockServer>,
    /// The client.
    pub store: DataStore,
    dir: PathBuf,
}

fn boxed<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Deployment {
    /// Launch both nodes under `dir` (created fresh), wire the replica
    /// chains and connect the client. With `rec`, every endpoint is wrapped
    /// in a [`ProbeEndpoint`] recording into it.
    pub fn launch(dir: &Path, rec: Option<&Arc<Recorder>>) -> Result<Deployment, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(boxed)?;
        }
        std::fs::create_dir_all(dir).map_err(boxed)?;
        let probe = |ep: Arc<TcpEndpoint>, node: u8| -> Arc<dyn Endpoint> {
            match rec {
                Some(r) => ProbeEndpoint::wrap(ep, Arc::clone(r), node),
                None => ep,
            }
        };
        let mut servers = Vec::with_capacity(NODES);
        for n in 0..NODES {
            let ep = TcpEndpoint::bind(0).map_err(boxed)?;
            let cfg = node_config(&dir.join(format!("node{n}")));
            servers.push(bedrock::launch(probe(ep, n as u8 + 1), &cfg).map_err(boxed)?);
        }
        bedrock::wire_replication(&servers.iter().collect::<Vec<_>>());
        let descriptors: Vec<_> = servers.iter().map(|s| s.descriptor().clone()).collect();
        // Busy pushback is retried; the deadline is far above any single
        // request, so a slow request is never abandoned and replayed.
        let policy = hepnos::RetryPolicy {
            max_attempts: 16,
            rpc_timeout: Duration::from_secs(60),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 1,
        };
        let client = probe(TcpEndpoint::bind(0).map_err(boxed)?, 0);
        let store = DataStore::connect_with_retry(client, &descriptors, policy).map_err(boxed)?;
        if store.replication_factor() != REPLICATION {
            return Err(format!(
                "deployment runs at R={}, expected R={REPLICATION}",
                store.replication_factor()
            ));
        }
        Ok(Deployment {
            servers,
            store,
            dir: dir.into(),
        })
    }

    /// The server nodes.
    pub fn servers(&self) -> &[BedrockServer] {
        &self.servers
    }

    /// Storage counters of every database replica on every node.
    pub fn backend_stats(&self) -> Vec<yokan::BackendStats> {
        self.servers
            .iter()
            .flat_map(|s| s.yokan().backend_stats())
            .map(|(_, _, st)| st)
            .collect()
    }

    /// Wait until lsmdb background work is idle on every database: no
    /// frozen memtable, L0 below the compaction trigger, every level within
    /// its byte target and the work counters unchanged across two polls.
    /// Returns the wait.
    pub fn quiesce(&self, timeout: Duration) -> Result<Duration, String> {
        let t0 = Instant::now();
        let opts = lsm_config().options().map_err(boxed)?;
        let mut last: Option<Vec<(u64, u64, u64, u64)>> = None;
        loop {
            let stats: Vec<DbStats> = self
                .backend_stats()
                .into_iter()
                .filter_map(|b| b.lsm)
                .collect();
            let idle = stats.iter().all(|s| settled(s, &opts));
            let work: Vec<_> = stats
                .iter()
                .map(|s| {
                    (
                        s.flushes,
                        s.compactions,
                        s.trivial_moves,
                        s.compaction_write_bytes,
                    )
                })
                .collect();
            if idle && last.as_ref() == Some(&work) {
                return Ok(t0.elapsed());
            }
            if t0.elapsed() > timeout {
                return Err(format!("lsmdb still busy after {timeout:?}"));
            }
            last = Some(work);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Dropping a deployment stops both nodes and deletes its data directory,
/// also when a run fails or panics halfway.
impl Drop for Deployment {
    fn drop(&mut self) {
        for s in self.servers.drain(..) {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Whether one database has no background work left by the engine's own
/// triggers.
fn settled(s: &DbStats, opts: &lsmdb::Options) -> bool {
    let last = s.level_bytes.len().saturating_sub(1);
    s.imm_memtables == 0
        && s.l0_tables() < opts.l0_compaction_trigger
        && s.level_bytes
            .iter()
            .enumerate()
            .all(|(i, &b)| i == 0 || i == last || b <= lsmdb_level_target(i, opts))
}

/// Byte target of level `i >= 1` (mirrors the engine's leveling rule).
fn lsmdb_level_target(i: usize, opts: &lsmdb::Options) -> u64 {
    let mult = opts.level_multiplier.max(2);
    opts.level_base_bytes
        .max(1)
        .saturating_mul(mult.saturating_pow(i.saturating_sub(1) as u32))
}
