//! Client side: remote database handles.

use crate::backend::KeyValue;
use crate::encoding::*;
use crate::error::YokanError;
use crate::replica::{self, ChainState};
use crate::retry::{RetryCounters, RetryPolicy, RetryStats};
use crate::service::*;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mercurio::{Endpoint, PendingResponse, RpcError, RpcId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide client-id allocator, offset by a per-process base so ids
/// are unique *across* processes too: the service keys its at-most-once
/// dedup window by client id, and two CLI processes both counting from 1
/// would silently swallow each other's mutations as replays.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

fn client_id_base() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // SplitMix64 finalizer: spread (pid, boot time) over the full u64
        // so bases from concurrently launched processes don't collide in
        // their low bits (ids within a process are base + small counter).
        let mut z = pid.rotate_left(32) ^ nanos;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Per-client identity and retry bookkeeping, shared by clones of one
/// [`YokanClient`] so sequence numbers stay unique across them.
pub(crate) struct ClientSession {
    pub(crate) client_id: u64,
    pub(crate) next_seq: AtomicU64,
    /// Topology epoch stamped into mutation headers. 0 means unfenced —
    /// the service accepts the mutation regardless of its own epoch (raw
    /// tooling addressing physical replicas). Routed clients learn the
    /// deployment's epoch at connect time and are fenced from then on.
    pub(crate) epoch: AtomicU64,
    pub(crate) counters: RetryCounters,
}

impl ClientSession {
    fn new() -> Arc<ClientSession> {
        Arc::new(ClientSession {
            client_id: client_id_base()
                .wrapping_add(NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed)),
            next_seq: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            counters: RetryCounters::default(),
        })
    }
}

/// Wait for `pending`, re-issuing the *same* payload (same sequence number,
/// for mutations) on retryable failures per `policy`. Without a policy this
/// is a plain unbounded wait, preserving the historical behaviour.
#[allow(clippy::too_many_arguments)]
fn wait_with_retry(
    endpoint: &Arc<dyn Endpoint>,
    policy: Option<&RetryPolicy>,
    counters: &RetryCounters,
    addr: &str,
    op: RpcId,
    provider_id: u16,
    payload: &Bytes,
    pending: PendingResponse,
) -> Result<Bytes, RpcError> {
    counters.attempts.fetch_add(1, Ordering::Relaxed);
    let Some(policy) = policy else {
        return pending.wait();
    };
    let nonce = ((op.0 as u64) << 32) ^ payload.len() as u64;
    let mut pending = pending;
    let mut attempt = 1u32;
    loop {
        match pending.wait_timeout(policy.rpc_timeout) {
            Ok(b) => return Ok(b),
            Err(e) if RetryPolicy::is_retryable(&e) && attempt < policy.max_attempts => {
                let hint = RetryPolicy::retry_hint(&e);
                if hint.is_some() {
                    counters.busy_pushbacks.fetch_add(1, Ordering::Relaxed);
                }
                if attempt == 1 {
                    counters.retried_rpcs.fetch_add(1, Ordering::Relaxed);
                }
                // An overloaded server's hint is a floor under the computed
                // backoff: never come back sooner than the server asked.
                let backoff = policy.backoff(attempt, nonce).max(hint.unwrap_or_default());
                std::thread::sleep(backoff);
                attempt += 1;
                counters.attempts.fetch_add(1, Ordering::Relaxed);
                pending = endpoint.call_async(addr, op, provider_id, payload.clone());
            }
            Err(e) => {
                if RetryPolicy::is_retryable(&e) {
                    if RetryPolicy::retry_hint(&e).is_some() {
                        counters.busy_pushbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    counters.gave_up.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        }
    }
}

/// Strip the one-byte replay marker from a mutation response, counting
/// cached replays (the service answered from its dedup window instead of
/// applying the mutation again).
fn strip_replay_marker(mut resp: Bytes, counters: &RetryCounters) -> Result<Bytes, YokanError> {
    if resp.is_empty() {
        return Err(YokanError::Protocol("missing replay marker".into()));
    }
    let marker = resp.get_u8();
    if marker == REPLAY_CACHED {
        counters.deduped_replays.fetch_add(1, Ordering::Relaxed);
    }
    Ok(resp)
}

/// Identifies one remote database: the server address, the provider id on
/// that server, and the database name within the provider.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbTarget {
    /// Server endpoint address.
    pub addr: String,
    /// Provider id on that server.
    pub provider_id: u16,
    /// Database name within the provider.
    pub db: String,
}

impl DbTarget {
    /// Convenience constructor.
    pub fn new(addr: impl Into<String>, provider_id: u16, db: impl Into<String>) -> Self {
        DbTarget {
            addr: addr.into(),
            provider_id,
            db: db.into(),
        }
    }
}

/// Per-key outcome of a push-down [`YokanClient::filter`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterReply {
    /// No value stored under the key.
    Missing,
    /// A value is stored but it is not a columnar page blob; the caller
    /// should fall back to fetching and filtering it client-side.
    NotColumnar,
    /// The predicate program ran server-side over the columnar pages.
    Ids {
        /// Id-column values of surviving rows, in row order.
        ids: Vec<u64>,
        /// Rows stored in the blob.
        rows_in: u32,
        /// Pages whose columns were decoded and evaluated.
        pages_scanned: u32,
        /// Pages skipped via zone maps without decoding.
        pages_skipped: u32,
        /// Stored size of the blob (bytes that did *not* cross the wire).
        stored_bytes: u32,
    },
}

/// A Yokan client bound to a local endpoint.
///
/// Batched writes larger than `bulk_threshold` bytes are shipped as bulk
/// transfers (the client exposes the encoded block and the server pulls it),
/// matching Yokan's RPC-for-small / RDMA-for-batches split (paper §II-B).
#[derive(Clone)]
pub struct YokanClient {
    endpoint: Arc<dyn Endpoint>,
    bulk_threshold: usize,
    retry: Option<RetryPolicy>,
    session: Arc<ClientSession>,
    /// Replica routes and dual-read candidates, shared by clones: a
    /// failover promoted by one thread redirects them all. Empty unless
    /// [`YokanClient::install_replica_routes`] or
    /// [`YokanClient::install_dual_read`] ran.
    routing: Arc<RwLock<Routing>>,
}

/// Per-database routing state, keyed by database name (chain members and
/// the new owner of a migrating database share one name across servers).
#[derive(Default)]
struct Routing {
    /// Replica chains (head first) of routed databases.
    chains: HashMap<String, Arc<ChainState>>,
    /// Dual-read fallbacks of a live migration: a read of a migrating
    /// database that *misses* on the new owner falls back to these
    /// old-owner candidates until the migration is Done (the old owner
    /// stays complete — handed-off keys are dual-written — so a key acked
    /// before the rescale is always found on one side).
    dual: HashMap<String, Vec<DbTarget>>,
}

/// The replicas one request may be served by, in the order they are tried:
/// the target itself when its database is unrouted; otherwise its chain —
/// tail first for reads (the tail is the commit point: a value visible
/// there has been applied chain-wide, so a read never observes a mutation
/// the head has not acknowledged), from the acting head onward for
/// mutations.
struct Route {
    target: DbTarget,
    chain: Option<Arc<ChainState>>,
    /// Mutation route: start at the acting head, promote on failover.
    write: bool,
    /// Chain index of the acting head when the route was taken.
    head: usize,
}

impl Route {
    /// The `k`-th member to try, with its chain index.
    fn member(&self, k: usize) -> Option<(usize, &DbTarget)> {
        let Some(chain) = &self.chain else {
            return (k == 0).then_some((0, &self.target));
        };
        let n = chain.replicas.len();
        if k >= n {
            return None;
        }
        let idx = if self.write {
            (self.head + k) % n
        } else {
            n - 1 - k
        };
        Some((idx, &chain.replicas[idx]))
    }
}

impl YokanClient {
    /// Create a client with the default 8 KiB bulk threshold.
    pub fn new(endpoint: Arc<dyn Endpoint>) -> YokanClient {
        Self::with_bulk_threshold(endpoint, 8 << 10)
    }

    /// Override the bulk threshold (`usize::MAX` disables bulk entirely).
    pub fn with_bulk_threshold(endpoint: Arc<dyn Endpoint>, threshold: usize) -> YokanClient {
        YokanClient {
            endpoint,
            bulk_threshold: threshold,
            retry: None,
            session: ClientSession::new(),
            routing: Arc::new(RwLock::new(Routing::default())),
        }
    }

    /// Install replica-chain routes (from [`crate::replica::build_chains`]).
    /// Any [`DbTarget`] naming a routed database is thereafter resolved
    /// through its chain: mutations go to the acting head and fail over to
    /// the next member on dead-node errors (re-issuing the identical
    /// stamped payload, so the promoted member's dedup window suppresses
    /// anything the old head already forwarded); reads go to the tail —
    /// the chain's commit point — falling back toward the head. Singleton
    /// chains are skipped: they behave exactly like direct targets.
    pub fn install_replica_routes(&self, chains: &[Vec<DbTarget>]) {
        let mut routing = self.routing.write();
        for chain in chains {
            if chain.len() < 2 {
                continue;
            }
            routing.chains.insert(
                chain[0].db.clone(),
                Arc::new(ChainState::new(chain.clone())),
            );
        }
    }

    /// The replica chain a database name currently resolves through, if
    /// routes are installed for it (in chain order, head first).
    pub fn replica_chain(&self, db: &str) -> Option<Vec<DbTarget>> {
        self.routing
            .read()
            .chains
            .get(db)
            .map(|c| c.replicas.clone())
    }

    /// Stamp subsequent mutations with topology `epoch`. Services reject a
    /// non-zero epoch that does not match their own with
    /// [`YokanError::WrongEpoch`] — an explicit redirect to refresh
    /// routing. Epoch 0 (the default) is exempt from fencing.
    pub fn set_topology_epoch(&self, epoch: u64) {
        self.session.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The topology epoch this client stamps into mutations (0 = unfenced).
    pub fn topology_epoch(&self) -> u64 {
        self.session.epoch.load(Ordering::Relaxed)
    }

    /// Read the topology epoch a service currently accepts.
    pub fn service_epoch(&self, addr: &str, provider_id: u16) -> Result<u64, YokanError> {
        let mut resp = self.invoke(addr, OP_MIG_EPOCH_GET, provider_id, Bytes::new())?;
        get_u64(&mut resp)
    }

    /// Advance a service's topology epoch (monotonic — the service keeps
    /// the max of its own and `epoch`). Returns the resulting epoch.
    pub fn advance_service_epoch(
        &self,
        addr: &str,
        provider_id: u16,
        epoch: u64,
    ) -> Result<u64, YokanError> {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u64_le(epoch);
        let mut resp = self.invoke(addr, OP_MIG_EPOCH_SET, provider_id, buf.freeze())?;
        get_u64(&mut resp)
    }

    /// Freeze the key interval `[lo, hi]` of `target` (addressed as a
    /// physical replica, bypassing routes): mutations touching it are shed
    /// `Busy { retry_after }` until the interval is unfrozen or replaced.
    pub fn migration_freeze(
        &self,
        target: &DbTarget,
        lo: &[u8],
        hi: &[u8],
        retry_after: std::time::Duration,
    ) -> Result<(), YokanError> {
        let mut buf = Self::header(target, 12 + lo.len() + hi.len());
        put_bytes(&mut buf, lo);
        put_bytes(&mut buf, hi);
        buf.put_u32_le(retry_after.as_millis().min(u32::MAX as u128) as u32);
        self.invoke(
            &target.addr,
            OP_MIG_FREEZE,
            target.provider_id,
            buf.freeze(),
        )?;
        Ok(())
    }

    /// Clear the frozen interval of `target` (the range moved to Handoff).
    pub fn migration_unfreeze(&self, target: &DbTarget) -> Result<(), YokanError> {
        self.migration_freeze(target, &[], &[], std::time::Duration::ZERO)
    }

    /// Install handoff state on `target` (a physical old-owner replica):
    /// each `(key, chain index)` entry maps a copied key to its
    /// destination chain in `chains`. Mutations touching such a key are
    /// thereafter applied locally *and* re-issued at the destination with
    /// the original dedup stamp, until [`YokanClient::migration_complete`].
    pub fn migration_handoff(
        &self,
        target: &DbTarget,
        chains: &[Vec<DbTarget>],
        entries: &[(Vec<u8>, usize)],
    ) -> Result<(), YokanError> {
        let chains_len: usize = chains
            .iter()
            .map(|c| {
                4 + c
                    .iter()
                    .map(|t| 12 + t.addr.len() + t.db.len())
                    .sum::<usize>()
            })
            .sum();
        let keys_len: usize = entries.iter().map(|(k, _)| 8 + k.len()).sum();
        let mut buf = Self::header(target, 8 + chains_len + keys_len);
        buf.put_u32_le(chains.len() as u32);
        for chain in chains {
            buf.put_u32_le(chain.len() as u32);
            for t in chain {
                put_bytes(&mut buf, t.addr.as_bytes());
                buf.put_u32_le(t.provider_id as u32);
                put_bytes(&mut buf, t.db.as_bytes());
            }
        }
        buf.put_u32_le(entries.len() as u32);
        for (key, idx) in entries {
            put_bytes(&mut buf, key);
            buf.put_u32_le(*idx as u32);
        }
        self.invoke(
            &target.addr,
            OP_MIG_HANDOFF,
            target.provider_id,
            buf.freeze(),
        )?;
        Ok(())
    }

    /// Tear down all migration state (frozen interval and handoff map) of
    /// `target`'s database on the addressed replica: the range is Done.
    pub fn migration_complete(&self, target: &DbTarget) -> Result<(), YokanError> {
        let buf = Self::header(target, 0);
        self.invoke(
            &target.addr,
            OP_MIG_COMPLETE,
            target.provider_id,
            buf.freeze(),
        )?;
        Ok(())
    }

    /// Install dual-read fallbacks for a migrating database: a read of
    /// `db` that misses on its (new) owner falls back to `candidates` —
    /// the old-owner targets — until [`YokanClient::clear_dual_read`].
    /// Point reads fill each missing slot from the candidates in order;
    /// listings merge both sides (deduplicated, sorted, the new owner
    /// winning on key collisions). Every read op issued afterwards — sync
    /// or async — takes the fallback. Shared across clones of this client.
    pub fn install_dual_read(&self, db: &str, candidates: Vec<DbTarget>) {
        let mut routing = self.routing.write();
        if candidates.is_empty() {
            routing.dual.remove(db);
        } else {
            routing.dual.insert(db.to_string(), candidates);
        }
    }

    /// Remove every dual-read fallback (the migration is Done everywhere).
    pub fn clear_dual_read(&self) {
        self.routing.write().dual.clear();
    }

    /// Enable transparent retries under `policy`. Each RPC attempt runs
    /// under the policy's per-attempt deadline; retryable transport failures
    /// are re-issued with the same payload (and, for mutations, the same
    /// sequence number — the service's dedup window makes the retry safe).
    pub fn with_retry(mut self, policy: RetryPolicy) -> YokanClient {
        self.retry = Some(policy);
        self
    }

    /// Snapshot of this client's retry counters (shared across clones).
    pub fn retry_stats(&self) -> RetryStats {
        self.session.counters.snapshot()
    }

    /// The local endpoint this client sends from.
    pub fn endpoint(&self) -> &Arc<dyn Endpoint> {
        &self.endpoint
    }

    fn header(target: &DbTarget, extra: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(4 + target.db.len() + extra);
        put_bytes(&mut buf, target.db.as_bytes());
        buf
    }

    /// Header for mutation RPCs: the `(client id, sequence number,
    /// topology epoch)` stamp followed by the database name. Reused
    /// verbatim across retries of the same logical request — including the
    /// epoch, so a rescale completing mid-retry rejects every attempt of
    /// the stale request identically.
    fn mutation_header(&self, target: &DbTarget, extra: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(24 + 4 + target.db.len() + extra);
        buf.put_u64_le(self.session.client_id);
        buf.put_u64_le(self.session.next_seq.fetch_add(1, Ordering::Relaxed));
        buf.put_u64_le(self.session.epoch.load(Ordering::Relaxed));
        put_bytes(&mut buf, target.db.as_bytes());
        buf
    }

    /// Issue one RPC to a physical address (control-plane ops that bypass
    /// routes), riding the retry policy when one is configured.
    fn invoke(
        &self,
        addr: &str,
        op: u16,
        provider_id: u16,
        payload: Bytes,
    ) -> Result<Bytes, YokanError> {
        let pending = self
            .endpoint
            .call_async(addr, RpcId(op), provider_id, payload.clone());
        wait_with_retry(
            &self.endpoint,
            self.retry.as_ref(),
            &self.session.counters,
            addr,
            RpcId(op),
            provider_id,
            &payload,
            pending,
        )
        .map_err(YokanError::from)
    }

    /// The route a request for `target` takes (see [`Route`]).
    fn route(&self, routing: &Routing, target: &DbTarget, write: bool) -> Route {
        let chain = routing.chains.get(&target.db).cloned();
        let head = chain.as_ref().map_or(0, |c| c.cursor());
        Route {
            target: target.clone(),
            chain,
            write,
            head,
        }
    }

    /// Send `payload` to the `k`-th member of `route`.
    fn issue(&self, route: &Route, k: usize, op: u16, payload: &Bytes) -> PendingResponse {
        let (_, t) = route.member(k).expect("the member is on the route");
        self.endpoint
            .call_async(&t.addr, RpcId(op), t.provider_id, payload.clone())
    }

    /// Wait for a request issued to the first member of `route`,
    /// re-issuing the identical payload to the next member on dead-node
    /// errors — the one failover walk of every read and mutation. A read
    /// answered past the first member counts a `read_fallback`; a mutation
    /// accepted past the acting head promotes that member and counts a
    /// `failover`.
    fn walk(
        &self,
        route: &Route,
        op: u16,
        payload: &Bytes,
        mut pending: PendingResponse,
    ) -> Result<Bytes, YokanError> {
        let mut k = 0;
        loop {
            let (idx, t) = route.member(k).expect("the walk stays on its route");
            let result = wait_with_retry(
                &self.endpoint,
                self.retry.as_ref(),
                &self.session.counters,
                &t.addr,
                RpcId(op),
                t.provider_id,
                payload,
                pending,
            );
            match result {
                Ok(resp) => {
                    if k > 0 {
                        let counters = &self.session.counters;
                        match &route.chain {
                            Some(chain) if route.write => {
                                chain.promote(idx);
                                counters.failovers.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                counters.read_fallbacks.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    return Ok(resp);
                }
                Err(e) if replica::is_dead_node(&e) && route.member(k + 1).is_some() => {
                    k += 1;
                    pending = self.issue(route, k, op, payload);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A mutation: issued to the acting head and walked toward the tail on
    /// dead-node errors. The response's one-byte replay marker is stripped
    /// (and counted) here.
    fn call_mutation(
        &self,
        target: &DbTarget,
        op: u16,
        payload: Bytes,
    ) -> Result<Bytes, YokanError> {
        let route = self.route(&self.routing.read(), target, true);
        let pending = self.issue(&route, 0, op, &payload);
        let resp = self.walk(&route, op, &payload, pending)?;
        strip_replay_marker(resp, &self.session.counters)
    }

    /// Issue a read of `target`: the database header followed by `body`.
    /// Every read op goes through here. The read plan is fixed at issue
    /// time — the replica order and, with `dual`, a snapshot of the
    /// database's dual-read candidates — and the returned handle's `wait`
    /// walks the replicas and resolves misses against the candidates.
    fn read(
        &self,
        target: &DbTarget,
        op: u16,
        body_len: usize,
        body: impl FnOnce(&mut BytesMut),
        dual: bool,
    ) -> PendingRead {
        let (route, candidates) = {
            let routing = self.routing.read();
            let candidates = if dual {
                routing.dual.get(&target.db).cloned().unwrap_or_default()
            } else {
                Vec::new()
            };
            (self.route(&routing, target, false), candidates)
        };
        let mut buf = Self::header(target, body_len);
        body(&mut buf);
        let payload = buf.freeze();
        let pending = self.issue(&route, 0, op, &payload);
        PendingRead {
            client: self.clone(),
            op,
            route,
            payload,
            pending,
            candidates,
        }
    }

    /// Issue a read whose body is one key.
    fn read_key(&self, target: &DbTarget, op: u16, key: &[u8]) -> PendingRead {
        self.read(target, op, 4 + key.len(), |b| put_bytes(b, key), true)
    }

    /// Issue a read whose body is a key block.
    fn read_keys(&self, target: &DbTarget, op: u16, keys: &[Vec<u8>], dual: bool) -> PendingRead {
        let len = keys_encoded_len(keys);
        self.read(target, op, len, |b| encode_keys_into(b, keys), dual)
    }

    /// Issue a listing: keys strictly greater than `from` matching
    /// `prefix`, up to `limit`.
    fn read_range(
        &self,
        target: &DbTarget,
        op: u16,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> PendingRead {
        let len = 12 + from.len() + prefix.len();
        let body = |b: &mut BytesMut| {
            put_bytes(b, from);
            put_bytes(b, prefix);
            b.put_u32_le(limit as u32);
        };
        self.read(target, op, len, body, true)
    }

    /// Read `body` from dual-read candidate `c`, walking its replicas (a
    /// candidate never falls back further).
    fn read_candidate(&self, c: &DbTarget, op: u16, body: &[u8]) -> Result<Bytes, YokanError> {
        let route = self.route(&self.routing.read(), c, false);
        let mut buf = Self::header(c, body.len());
        buf.put_slice(body);
        let payload = buf.freeze();
        let pending = self.issue(&route, 0, op, &payload);
        self.walk(&route, op, &payload, pending)
    }

    fn count_dual_read(&self) {
        self.session
            .counters
            .dual_reads
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Store one pair.
    pub fn put(&self, target: &DbTarget, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        let mut buf = self.mutation_header(target, 8 + key.len() + value.len());
        put_bytes(&mut buf, key);
        put_bytes(&mut buf, value);
        self.call_mutation(target, OP_PUT, buf.freeze())?;
        Ok(())
    }

    /// Store a batch of pairs in one RPC (inline or bulk depending on size).
    pub fn put_multi(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), YokanError> {
        self.put_multi_async(target, pairs)?.wait()
    }

    /// [`YokanClient::put_multi`] encoding through a caller-owned scratch
    /// buffer (see [`YokanClient::put_multi_async_with`]).
    pub fn put_multi_with(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
        scratch: &mut BytesMut,
    ) -> Result<(), YokanError> {
        self.put_multi_async_with(target, pairs, scratch)?.wait()
    }

    /// Asynchronous [`YokanClient::put_multi`]; the returned handle must be
    /// waited on (it also releases the bulk region, if one was used).
    pub fn put_multi_async(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<PendingPut, YokanError> {
        let mut scratch = BytesMut::new();
        self.put_multi_async_with(target, pairs, &mut scratch)
    }

    /// [`YokanClient::put_multi_async`] with zero-realloc encoding: the
    /// exact payload size is computed up front, reserved once in `scratch`,
    /// and the pairs are encoded straight into it — no intermediate block
    /// buffer, no growth reallocations. Long-lived writers (e.g. the
    /// `AsyncWriteBatch` flusher threads) keep one scratch buffer each and
    /// pass it to every flush.
    pub fn put_multi_async_with(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
        scratch: &mut BytesMut,
    ) -> Result<PendingPut, YokanError> {
        let block_len = pairs_encoded_len(pairs);
        scratch.clear();
        let bulk = if block_len > self.bulk_threshold {
            // Bulk mode: the pair block itself is exposed for the server to
            // pull; only a small header travels inline.
            scratch.reserve(block_len);
            encode_pairs_into(scratch, pairs);
            let block = scratch.split_to(block_len).freeze();
            Some(self.endpoint.expose_bulk(block))
        } else {
            None
        };
        let seq = self.session.next_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = self.session.epoch.load(Ordering::Relaxed);
        // 24-byte dedup+epoch stamp + length-prefixed db name + mode byte.
        let header_len = 24 + 4 + target.db.len() + 1;
        let payload = match &bulk {
            Some(handle) => {
                let mut buf = BytesMut::with_capacity(header_len + 24);
                buf.put_u64_le(self.session.client_id);
                buf.put_u64_le(seq);
                buf.put_u64_le(epoch);
                put_bytes(&mut buf, target.db.as_bytes());
                buf.put_u8(MODE_BULK);
                handle.encode_into(&mut buf);
                buf.freeze()
            }
            None => {
                scratch.reserve(header_len + block_len);
                scratch.put_u64_le(self.session.client_id);
                scratch.put_u64_le(seq);
                scratch.put_u64_le(epoch);
                put_bytes(scratch, target.db.as_bytes());
                scratch.put_u8(MODE_INLINE);
                encode_pairs_into(scratch, pairs);
                scratch.split_to(header_len + block_len).freeze()
            }
        };
        let route = self.route(&self.routing.read(), target, true);
        let pending = self.issue(&route, 0, OP_PUT_MULTI, &payload);
        Ok(PendingPut {
            client: self.clone(),
            route,
            payload,
            pending,
            bulk,
        })
    }

    /// Fetch one value. During a live migration a miss falls back to the
    /// old-owner candidates (see [`YokanClient::install_dual_read`]) — a
    /// key acked before the rescale is found on one side or the other.
    pub fn get(&self, target: &DbTarget, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        let mut vals = self.read_key(target, OP_GET, key).wait_slots(
            1,
            |mut r| decode_optionals(&mut r),
            Option::is_none,
        )?;
        Ok(vals.pop().flatten())
    }

    /// Fetch a batch of values; one slot per requested key.
    pub fn get_multi(
        &self,
        target: &DbTarget,
        keys: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        self.get_multi_async(target, keys).wait_owned()
    }

    /// Asynchronous [`YokanClient::get_multi`]: the RPC is issued
    /// immediately and the returned handle is waited on later, so many
    /// batched reads (to different databases, or successive pages of the
    /// same scan) can be in flight at once. The read-side twin of
    /// [`YokanClient::put_multi_async`].
    pub fn get_multi_async(&self, target: &DbTarget, keys: &[Vec<u8>]) -> PendingGetMulti {
        PendingGetMulti {
            inner: self.read_keys(target, OP_GET_MULTI, keys, true),
            n_keys: keys.len(),
        }
    }

    /// Whether a key exists.
    pub fn exists(&self, target: &DbTarget, key: &[u8]) -> Result<bool, YokanError> {
        let found = self
            .read_key(target, OP_EXISTS, key)
            .wait_slots(1, decode_flags, |f| !f)?;
        Ok(found[0])
    }

    /// Existence checks for a batch of keys in one round-trip; the server
    /// fans large batches out across the provider's pool.
    pub fn exists_multi(
        &self,
        target: &DbTarget,
        keys: &[Vec<u8>],
    ) -> Result<Vec<bool>, YokanError> {
        self.exists_multi_async(target, keys).wait()
    }

    /// Asynchronous [`YokanClient::exists_multi`].
    pub fn exists_multi_async(&self, target: &DbTarget, keys: &[Vec<u8>]) -> PendingExistsMulti {
        PendingExistsMulti {
            inner: self.read_keys(target, OP_EXISTS_MULTI, keys, true),
            n_keys: keys.len(),
        }
    }

    /// [`YokanClient::exists_multi`] without the dual-read fallback: the
    /// flags reflect exactly what the probed member holds. The migrator's
    /// convergence pass uses this to audit destination replicas one by
    /// one — with the fallback, a key missing on the destination would be
    /// reported present from the old owner's copy, the very copy whose
    /// erase the audit is deciding.
    pub fn exists_multi_direct(
        &self,
        target: &DbTarget,
        keys: &[Vec<u8>],
    ) -> Result<Vec<bool>, YokanError> {
        self.read_keys(target, OP_EXISTS_MULTI, keys, false)
            .wait_slots(keys.len(), decode_flags, |f| !f)
    }

    /// Run a serialized predicate [`crate::filter::Program`] server-side
    /// against the columnar page blobs stored under `keys`, in one
    /// round-trip. Only surviving row ids (plus a few counters) come back —
    /// the page bytes themselves never cross the wire. One reply per key;
    /// `Missing` replies fall back to the dual-read candidates.
    pub fn filter(
        &self,
        target: &DbTarget,
        program: &crate::filter::Program,
        keys: &[Vec<u8>],
    ) -> Result<Vec<FilterReply>, YokanError> {
        let prog_bytes = program.to_bytes();
        // Keys of one batch share container prefix and label/type suffix;
        // factor them out so the request scales with the per-key residue.
        let keys_block = encode_keys_factored(keys);
        let body = |b: &mut BytesMut| {
            put_bytes(b, &prog_bytes);
            b.put_slice(&keys_block);
        };
        let len = 4 + prog_bytes.len() + keys_block.len();
        self.read(target, OP_FILTER, len, body, true).wait_slots(
            keys.len(),
            decode_filter_replies,
            |r| *r == FilterReply::Missing,
        )
    }

    /// Delete a key.
    pub fn erase(&self, target: &DbTarget, key: &[u8]) -> Result<(), YokanError> {
        let mut buf = self.mutation_header(target, 4 + key.len());
        put_bytes(&mut buf, key);
        self.call_mutation(target, OP_ERASE, buf.freeze())?;
        Ok(())
    }

    /// Atomically insert unless present; returns the existing value if the
    /// key was already set (the server performs the check-and-insert under
    /// its backend's lock).
    pub fn put_if_absent(
        &self,
        target: &DbTarget,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, YokanError> {
        let mut buf = self.mutation_header(target, 8 + key.len() + value.len());
        put_bytes(&mut buf, key);
        put_bytes(&mut buf, value);
        let mut resp = self.call_mutation(target, OP_PUT_IF_ABSENT, buf.freeze())?;
        let mut vals = decode_optionals(&mut resp)?;
        vals.pop()
            .ok_or_else(|| YokanError::Protocol("empty put_if_absent response".into()))
    }

    /// Delete a batch of keys in one RPC.
    pub fn erase_multi(&self, target: &DbTarget, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        let keys_block = encode_keys(keys);
        let mut buf = self.mutation_header(target, keys_block.len());
        buf.put_slice(&keys_block);
        self.call_mutation(target, OP_ERASE_MULTI, buf.freeze())?;
        Ok(())
    }

    /// Keys strictly greater than `from` matching `prefix`, up to `limit`
    /// (`0` = unlimited). During a live migration the page is merged with
    /// the dual-read candidates' pages (deduplicated, sorted), so a key
    /// acked before the rescale appears no matter which side holds it.
    pub fn list_keys(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        self.list_keys_async(target, from, prefix, limit).wait()
    }

    /// Asynchronous [`YokanClient::list_keys`]: page the next batch of keys
    /// while the previous page is still being processed.
    pub fn list_keys_async(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> PendingListKeys {
        PendingListKeys {
            inner: self.read_range(target, OP_LIST_KEYS, from, prefix, limit),
            limit,
        }
    }

    /// Like [`YokanClient::list_keys`] with values (dual-read pages merge
    /// the same way; on a key held by both sides the new owner wins).
    pub fn list_keyvals(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<KeyValue>, YokanError> {
        self.read_range(target, OP_LIST_KEYVALS, from, prefix, limit)
            .wait_page(limit, |mut r| decode_pairs(&mut r), |kv| &kv.0)
    }

    /// Number of pairs in the database (the addressed owner only — no
    /// dual-read fallback).
    pub fn count(&self, target: &DbTarget) -> Result<u64, YokanError> {
        let n =
            self.read(target, OP_COUNT, 0, |_| {}, false)
                .wait_slots(1, decode_count, |_| false)?;
        Ok(n[0])
    }

    /// Database names served by a provider.
    pub fn list_databases(&self, addr: &str, provider_id: u16) -> Result<Vec<String>, YokanError> {
        let mut resp = self.invoke(addr, OP_LIST_DBS, provider_id, Bytes::new())?;
        let keys = decode_keys(&mut resp)?;
        keys.into_iter()
            .map(|k| {
                String::from_utf8(k).map_err(|_| YokanError::Protocol("db name not utf8".into()))
            })
            .collect()
    }
}

fn decode_count(mut resp: Bytes) -> Result<Vec<u64>, YokanError> {
    Ok(vec![get_u64(&mut resp)?])
}

fn decode_flags(resp: Bytes) -> Result<Vec<bool>, YokanError> {
    Ok(resp.iter().map(|&b| b == 1).collect())
}

fn decode_filter_replies(mut resp: Bytes) -> Result<Vec<FilterReply>, YokanError> {
    let n = get_u32(&mut resp)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match get_u8(&mut resp)? {
            FILTER_MISSING => FilterReply::Missing,
            FILTER_NOT_COLUMNAR => FilterReply::NotColumnar,
            FILTER_IDS => {
                let rows_in = get_u32(&mut resp)?;
                let pages_scanned = get_u32(&mut resp)?;
                let pages_skipped = get_u32(&mut resp)?;
                let stored_bytes = get_u32(&mut resp)?;
                let n_ids = get_u32(&mut resp)? as usize;
                let mut ids = Vec::with_capacity(n_ids);
                for _ in 0..n_ids {
                    ids.push(get_u64(&mut resp)?);
                }
                FilterReply::Ids {
                    ids,
                    rows_in,
                    pages_scanned,
                    pages_skipped,
                    stored_bytes,
                }
            }
            t => return Err(YokanError::Protocol(format!("bad filter reply tag {t}"))),
        });
    }
    Ok(out)
}

/// The body of a per-slot read narrowed to the slots in `miss`, so a
/// candidate is asked only for what is still missing. Single-key reads
/// never narrow (their one slot is the miss).
fn narrow(op: u16, body: Bytes, miss: &[usize], n: usize) -> Result<Bytes, YokanError> {
    if miss.len() == n {
        return Ok(body);
    }
    let pick = |mut keys: Vec<Vec<u8>>| -> Vec<Vec<u8>> {
        miss.iter().map(|&i| std::mem::take(&mut keys[i])).collect()
    };
    let mut rest = body;
    if op != OP_FILTER {
        return Ok(encode_keys(&pick(decode_keys(&mut rest)?)));
    }
    let prog = get_bytes(&mut rest)?;
    let keys = encode_keys_factored(&pick(decode_keys_factored(&mut rest)?));
    let mut buf = BytesMut::with_capacity(4 + prog.len() + keys.len());
    put_bytes(&mut buf, &prog);
    buf.put_slice(&keys);
    Ok(buf.freeze())
}

/// An in-flight read and its plan (see [`YokanClient::read`]). Reads carry
/// no mutation stamp and no replay marker, so re-issuing them — to another
/// replica or to a dual-read candidate — is always safe.
struct PendingRead {
    client: YokanClient,
    op: u16,
    route: Route,
    payload: Bytes,
    pending: PendingResponse,
    /// Dual-read candidates snapshotted at issue time; empty in steady
    /// state.
    candidates: Vec<DbTarget>,
}

impl PendingRead {
    /// Per-slot merge (`get`, `get_multi`, `exists`, `exists_multi`,
    /// `filter`): `n` slots decoded from the reply; each slot still
    /// `missing` is filled from the candidates in order, each candidate
    /// asked only for the slots still missing.
    fn wait_slots<T>(
        self,
        n: usize,
        decode: impl Fn(Bytes) -> Result<Vec<T>, YokanError>,
        missing: impl Fn(&T) -> bool,
    ) -> Result<Vec<T>, YokanError> {
        let client = &self.client;
        let resp = client.walk(&self.route, self.op, &self.payload, self.pending)?;
        let mut slots = expect_slots(decode(resp)?, n)?;
        for c in &self.candidates {
            let miss: Vec<usize> = (0..n).filter(|&i| missing(&slots[i])).collect();
            if miss.is_empty() {
                break;
            }
            let body = self.payload.slice(4 + self.route.target.db.len()..);
            let body = narrow(self.op, body, &miss, n)?;
            let reply = client.read_candidate(c, self.op, &body)?;
            let filled = expect_slots(decode(reply)?, miss.len())?;
            for (i, v) in miss.into_iter().zip(filled) {
                if !missing(&v) {
                    slots[i] = v;
                    client.count_dual_read();
                }
            }
        }
        Ok(slots)
    }

    /// Sorted page merge (`list_keys`, `list_keyvals`): the reply's page
    /// and every candidate's page for the same range are merged in key
    /// order, the new owner winning on collisions, and truncated to
    /// `limit` (`0` = unlimited). Each source returns its first `limit`
    /// keys past the bound, so the merged first `limit` are exact.
    fn wait_page<T>(
        self,
        limit: usize,
        decode: impl Fn(Bytes) -> Result<Vec<T>, YokanError>,
        key: impl Fn(&T) -> &[u8],
    ) -> Result<Vec<T>, YokanError> {
        let client = &self.client;
        let resp = client.walk(&self.route, self.op, &self.payload, self.pending)?;
        let page = decode(resp)?;
        if self.candidates.is_empty() {
            return Ok(page);
        }
        let body = self.payload.slice(4 + self.route.target.db.len()..);
        // (source rank, entry): rank 0 is the new owner.
        let mut all: Vec<(usize, T)> = page.into_iter().map(|t| (0, t)).collect();
        for (rank, c) in self.candidates.iter().enumerate() {
            let page = decode(client.read_candidate(c, self.op, &body)?)?;
            all.extend(page.into_iter().map(|t| (rank + 1, t)));
        }
        // Stable: on equal keys the lower rank stays first and survives.
        all.sort_by(|a, b| key(&a.1).cmp(key(&b.1)));
        all.dedup_by(|later, kept| key(&later.1) == key(&kept.1));
        if limit > 0 {
            all.truncate(limit);
        }
        if all.iter().any(|(rank, _)| *rank > 0) {
            client.count_dual_read();
        }
        Ok(all.into_iter().map(|(_, t)| t).collect())
    }

    fn is_ready(&self) -> bool {
        self.pending.is_ready()
    }
}

/// Check a per-slot reply carries exactly one slot per requested key.
fn expect_slots<T>(slots: Vec<T>, n: usize) -> Result<Vec<T>, YokanError> {
    if slots.len() != n {
        return Err(YokanError::Protocol(format!(
            "expected {n} reply slots, got {}",
            slots.len()
        )));
    }
    Ok(slots)
}

/// In-flight asynchronous `get_multi` (see [`YokanClient::get_multi_async`]).
pub struct PendingGetMulti {
    inner: PendingRead,
    n_keys: usize,
}

impl PendingGetMulti {
    /// Wait for the values: one slot per requested key, in request order.
    /// Present values are zero-copy `Bytes` slices of the response buffer.
    pub fn wait(self) -> Result<Vec<Option<Bytes>>, YokanError> {
        self.inner.wait_slots(
            self.n_keys,
            |mut r| decode_optionals_shared(&mut r),
            Option::is_none,
        )
    }

    /// Wait for the values as owned vectors (the historical representation).
    pub fn wait_owned(self) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        self.inner.wait_slots(
            self.n_keys,
            |mut r| decode_optionals(&mut r),
            Option::is_none,
        )
    }

    /// Whether the response arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

/// In-flight asynchronous `exists_multi`
/// (see [`YokanClient::exists_multi_async`]).
pub struct PendingExistsMulti {
    inner: PendingRead,
    n_keys: usize,
}

impl PendingExistsMulti {
    /// Wait for the flags, one per requested key.
    pub fn wait(self) -> Result<Vec<bool>, YokanError> {
        self.inner.wait_slots(self.n_keys, decode_flags, |f| !f)
    }

    /// Whether the response arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

/// In-flight asynchronous `list_keys` (see [`YokanClient::list_keys_async`]).
pub struct PendingListKeys {
    inner: PendingRead,
    limit: usize,
}

impl PendingListKeys {
    /// Wait for the key page.
    pub fn wait(self) -> Result<Vec<Vec<u8>>, YokanError> {
        self.inner
            .wait_page(self.limit, |mut r| decode_keys(&mut r), |k| k)
    }

    /// Whether the response arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

/// In-flight asynchronous `put_multi`.
pub struct PendingPut {
    client: YokanClient,
    route: Route,
    payload: Bytes,
    pending: PendingResponse,
    bulk: Option<mercurio::BulkHandle>,
}

impl PendingPut {
    /// Wait for the server to acknowledge the batch, retrying per the
    /// client's policy; releases the bulk region if one was exposed (only
    /// after the last attempt, so retries can still pull it). On a replica
    /// chain, a dead head is failed over: the identical stamped payload is
    /// re-issued to the next chain member (the bulk region, if any, stays
    /// exposed on this client, so any replica can still pull it), and the
    /// member that accepts is promoted.
    pub fn wait(self) -> Result<(), YokanError> {
        let result = self
            .client
            .walk(&self.route, OP_PUT_MULTI, &self.payload, self.pending);
        if let Some(h) = &self.bulk {
            self.client.endpoint.release_bulk(h);
        }
        strip_replay_marker(result?, &self.client.session.counters)?;
        Ok(())
    }

    /// Whether the acknowledgment arrived.
    pub fn is_ready(&self) -> bool {
        self.pending.is_ready()
    }
}
