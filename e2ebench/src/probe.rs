//! Tracing from the benchmark's side of the public APIs.
//!
//! [`ProbeEndpoint`] decorates the `mercurio` endpoints handed to
//! `bedrock::launch` and `DataStore::connect`. On a server it times every
//! handler and the wait between margo's executor hand-off and the start of
//! the task; on the client it times synchronous calls made from threads the
//! benchmark marks with [`Recorder::sync_caller`]. Benchmark code adds its
//! own spans around calls into `hepnos` and `nova`. Spans are kept in
//! memory and written out once the run ends ([`Recorder::write_tsv`]).
//!
//! No request id crosses the wire, so spans link to their request by op
//! and, where only one request is outstanding, by time containment. The
//! decorator cannot see when an asynchronous call completes, so client
//! latency is recorded only for synchronous callers.

use bytes::Bytes;
use mercurio::{
    AdmissionControl, BulkHandle, Endpoint, EndpointStats, Executor, PendingResponse, Request,
    RpcError, RpcHandler, RpcId,
};
use parking_lot::Mutex;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Yokan RPC names by offset from [`yokan::PROVIDER_RPC_BASE`] (the wire
/// protocol's op numbering).
const YOKAN_OPS: [&str; 20] = [
    "put",
    "put_multi",
    "get",
    "get_multi",
    "exists",
    "erase",
    "list_keys",
    "list_keyvals",
    "count",
    "list_dbs",
    "erase_multi",
    "put_if_absent",
    "exists_multi",
    "filter",
    "repl_forward",
    "mig_epoch_get",
    "mig_epoch_set",
    "mig_freeze",
    "mig_handoff",
    "mig_complete",
];

/// Rpc id of a chain forward (`OP_REPL_FORWARD`).
const REPL_FORWARD: u16 = yokan::PROVIDER_RPC_BASE + 14;

/// Name of a Yokan RPC id (`"other"` for ids outside the protocol).
pub fn op_name(op: u16) -> &'static str {
    op.checked_sub(yokan::PROVIDER_RPC_BASE)
        .and_then(|i| YOKAN_OPS.get(i as usize))
        .copied()
        .unwrap_or("other")
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Server: executor hand-off to task start (margo pool queue).
    QueueWait,
    /// Server: yokan handler execution.
    Handler,
    /// Server: outbound chain forward, issue to the end of the handler that
    /// sent it (the forward is synchronous inside that handler).
    Forward,
    /// Client: synchronous yokan call, issue to the caller's next call or
    /// the end of its enclosing benchmark span.
    ClientCall,
    /// Benchmark: `SubRun::event`.
    Nav,
    /// Benchmark: `Event::load_raw`.
    Load,
    /// Benchmark: one whole lookup (nav + load).
    Lookup,
    /// Benchmark: `nova::select_slices` inside a PEP callback.
    Select,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Handler => "handler",
            SpanKind::Forward => "forward",
            SpanKind::ClientCall => "client_call",
            SpanKind::Nav => "nav",
            SpanKind::Load => "load",
            SpanKind::Lookup => "lookup",
            SpanKind::Select => "select",
        }
    }
}

/// One recorded interval. Node 0 is the client, servers are 1 and up.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Where it ran.
    pub node: u8,
    /// Yokan RPC id (0 for benchmark spans).
    pub op: u16,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

thread_local! {
    /// This thread makes synchronous calls whose latency is recorded.
    static SYNC_CALLER: Cell<bool> = const { Cell::new(false) };
    /// Open synchronous call on this thread: (rpc id, issue time).
    static OPEN_CALL: Cell<Option<(u16, u64)>> = const { Cell::new(None) };
    /// Chain forward issued by the handler running on this thread.
    static FORWARD_ISSUE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// In-memory span store shared by every probe of one deployment.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span.
    pub fn record(&self, kind: SpanKind, node: u8, op: u16, start: u64, end: u64) {
        self.spans.lock().push(Span {
            kind,
            node,
            op,
            start,
            end,
        });
    }

    /// Mark the calling thread as one whose synchronous calls are timed.
    pub fn sync_caller(&self) {
        SYNC_CALLER.with(|c| c.set(true));
    }

    /// Close the calling thread's open synchronous call at `at`.
    pub fn close_call(&self, at: u64) {
        if let Some((op, start)) = OPEN_CALL.with(|c| c.take()) {
            self.record(SpanKind::ClientCall, 0, op, start, at);
        }
    }

    /// Drop every span recorded so far (e.g. the set-up's).
    pub fn clear(&self) {
        self.spans.lock().clear();
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Write every span as tab-separated `kind node op start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tnode\top\tstart_ns\tend_ns")?;
        for s in self.spans.lock().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.node,
                op_name(s.op),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Endpoint decorator recording handler, queue-wait, forward and
/// synchronous-call spans. Node 0 is the client.
pub struct ProbeEndpoint {
    inner: Arc<dyn Endpoint>,
    rec: Arc<Recorder>,
    node: u8,
}

impl ProbeEndpoint {
    /// Wrap `inner`, recording into `rec` as `node`.
    pub fn wrap(inner: Arc<dyn Endpoint>, rec: Arc<Recorder>, node: u8) -> Arc<dyn Endpoint> {
        Arc::new(ProbeEndpoint { inner, rec, node })
    }
}

struct TimedHandler {
    inner: Arc<dyn RpcHandler>,
    rec: Arc<Recorder>,
    node: u8,
    op: u16,
}

impl RpcHandler for TimedHandler {
    fn handle(&self, req: Request) -> Result<Bytes, RpcError> {
        FORWARD_ISSUE.with(|c| c.set(None));
        let start = self.rec.now();
        let out = self.inner.handle(req);
        let end = self.rec.now();
        self.rec
            .record(SpanKind::Handler, self.node, self.op, start, end);
        if let Some(issued) = FORWARD_ISSUE.with(|c| c.take()) {
            self.rec
                .record(SpanKind::Forward, self.node, REPL_FORWARD, issued, end);
        }
        out
    }
}

impl Endpoint for ProbeEndpoint {
    fn address(&self) -> String {
        self.inner.address()
    }

    fn register(&self, id: RpcId, handler: Arc<dyn RpcHandler>) {
        self.inner.register(
            id,
            Arc::new(TimedHandler {
                inner: handler,
                rec: Arc::clone(&self.rec),
                node: self.node,
                op: id.0,
            }),
        );
    }

    fn set_executor(&self, exec: Executor) {
        let rec = Arc::clone(&self.rec);
        let node = self.node;
        self.inner
            .set_executor(Arc::new(move |id: RpcId, provider, job| {
                let handed = rec.now();
                let rec = Arc::clone(&rec);
                exec(
                    id,
                    provider,
                    Box::new(move || {
                        rec.record(SpanKind::QueueWait, node, id.0, handed, rec.now());
                        job();
                    }),
                );
            }));
    }

    fn set_admission(&self, ctrl: Option<Arc<dyn AdmissionControl>>) {
        self.inner.set_admission(ctrl);
    }

    fn call_async(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> PendingResponse {
        let now = self.rec.now();
        if self.node != 0 {
            if id.0 == REPL_FORWARD {
                FORWARD_ISSUE.with(|c| c.set(Some(now)));
            }
        } else if SYNC_CALLER.with(|c| c.get()) {
            self.rec.close_call(now);
            OPEN_CALL.with(|c| c.set(Some((id.0, now))));
        }
        self.inner.call_async(target, id, provider_id, payload)
    }

    fn expose_bulk(&self, data: Bytes) -> BulkHandle {
        self.inner.expose_bulk(data)
    }

    fn release_bulk(&self, handle: &BulkHandle) {
        self.inner.release_bulk(handle)
    }

    fn bulk_pull(
        &self,
        owner: &str,
        handle: &BulkHandle,
        offset: usize,
        len: usize,
    ) -> Result<Bytes, RpcError> {
        self.inner.bulk_pull(owner, handle, offset, len)
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}
