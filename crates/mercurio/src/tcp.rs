//! TCP transport: real sockets with length-prefixed frames.
//!
//! Used for multi-process deployments (the paper runs servers and clients as
//! separate `aprun`-launched MPI programs; our analogue is separate OS
//! processes connected over TCP). Each endpoint owns a listener; connections
//! are established lazily, carry a one-frame handshake announcing the
//! dialer's canonical address, and are then used bidirectionally.
//!
//! Sending is inline when the connection is idle: a sender that finds the
//! outbound queue empty and no write in flight claims the socket and writes
//! its own frame, so a synchronous round trip costs no handoff to another
//! thread on either side. Under contention the frame is queued instead, and
//! the connection's writer thread drains the backlog: all frames queued at
//! drain time are coalesced into one buffered write (one syscall for N
//! frames), which is what lets many concurrent ingest writers share a
//! connection without serializing on per-frame `write`/`flush` pairs. A
//! sender writes inline only when nothing is queued or being written, so
//! per-connection frame order is the order of `send` calls. A full queue
//! blocks the sender — that transport backpressure is counted in
//! [`EndpointStats::send_stalls`].
//!
//! Reader threads never write inline: their frames (admission `Busy`
//! answers, responses of handlers the default executor runs on the reader)
//! always go through the queue. A reader blocked on a peer's full socket
//! would stop draining its own, and two endpoints exchanging large frames
//! could then deadlock reader against reader.
//!
//! Bulk transfers are implemented with an internal RPC
//! (`RPC_BULK_PULL`, a reserved id) that streams the requested range back —
//! the closest TCP analogue of an RDMA get.

use crate::bulk::BulkHandle;
use crate::endpoint::{
    Admission, AdmissionControl, Endpoint, EndpointStats, Executor, PendingResponse, Request,
    RpcHandler,
};
use crate::error::RpcError;
use crate::fault::{FaultDecision, FaultPlan, FrameDirection};
use crate::wire::{Frame, RpcId, RPC_BULK_PULL};
use argos::Eventual;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Address scheme prefix for the TCP transport.
pub const SCHEME: &str = "tcp://";

/// Tuning knobs for the outbound send path of a [`TcpEndpoint`].
#[derive(Debug, Clone)]
pub struct TcpSendConfig {
    /// Maximum number of frames coalesced into one physical write.
    /// `1` degenerates to one write+flush per frame (the pre-pipelining
    /// behaviour, kept selectable for benchmarking).
    pub max_coalesce_frames: usize,
    /// Bound of the per-connection outbound queue; a sender hitting a full
    /// queue blocks until the writer thread drains it.
    pub max_queued_frames: usize,
}

impl Default for TcpSendConfig {
    fn default() -> Self {
        TcpSendConfig {
            max_coalesce_frames: 64,
            max_queued_frames: 256,
        }
    }
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Bytes> {
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(Bytes::from(buf))
}

thread_local! {
    /// Set on `mercurio-tcp-rx` threads, which must never write inline.
    static ON_READER: Cell<bool> = const { Cell::new(false) };
}

struct SendState {
    queue: VecDeque<Bytes>,
    closed: bool,
    /// Some thread (an inline sender or the writer thread) owns the socket.
    writing: bool,
}

/// The write half of a connection plus its reusable encoding buffer. Only
/// the thread that set [`SendState::writing`] locks it.
struct Wire {
    stream: TcpStream,
    buf: BytesMut,
}

/// One established connection: a bounded outbound frame queue drained by a
/// dedicated writer thread, bypassed by senders that find it idle.
struct Conn {
    state: Mutex<SendState>,
    not_empty: Condvar,
    not_full: Condvar,
    wire: Mutex<Wire>,
    cfg: TcpSendConfig,
    counters: Arc<Counters>,
    /// Clone of the underlying socket used only to tear the connection
    /// down (unblocks the reader and any thread blocked writing).
    socket: TcpStream,
}

impl Conn {
    fn spawn(stream: TcpStream, cfg: TcpSendConfig, counters: Arc<Counters>) -> Arc<Conn> {
        let socket = stream.try_clone().unwrap_or_else(|_| {
            // If the clone fails the socket is already dying; the first
            // write will discover that.
            stream.try_clone().expect("tcp socket clone failed twice")
        });
        let conn = Arc::new(Conn {
            state: Mutex::new(SendState {
                queue: VecDeque::new(),
                closed: false,
                writing: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            wire: Mutex::new(Wire {
                stream,
                buf: BytesMut::new(),
            }),
            cfg,
            counters,
            socket,
        });
        let c2 = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("mercurio-tcp-tx".into())
            .spawn(move || writer_loop(c2))
            .expect("failed to spawn writer thread");
        conn
    }

    /// Send one frame: written by the calling thread when the connection is
    /// idle, otherwise enqueued for the writer thread. Enqueueing blocks
    /// when the outbound queue is full (backpressure); sending fails once
    /// the connection is closed. A failed inline write closes the
    /// connection hard, which fails this peer's pending calls.
    fn send(&self, frame: &Bytes) -> Result<(), RpcError> {
        let mut st = self.state.lock();
        if !st.closed && !st.writing && st.queue.is_empty() && !ON_READER.get() {
            st.writing = true;
            drop(st);
            let ok = self.write(std::slice::from_ref(frame));
            let mut st = self.state.lock();
            st.writing = false;
            let backlog = !st.queue.is_empty();
            drop(st);
            if !ok {
                self.close_hard();
            } else if backlog {
                self.not_empty.notify_one();
            }
            return Ok(());
        }
        if st.queue.len() >= self.cfg.max_queued_frames && !st.closed {
            self.counters.send_stalls.fetch_add(1, Ordering::Relaxed);
            while st.queue.len() >= self.cfg.max_queued_frames && !st.closed {
                self.not_full.wait(&mut st);
            }
        }
        if st.closed {
            return Err(RpcError::Transport("connection closed".into()));
        }
        st.queue.push_back(frame.clone());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Length-prefix `frames` into one buffer and write it with a single
    /// write+flush. The caller must own [`SendState::writing`]. Returns
    /// `false` when the socket is gone.
    fn write(&self, frames: &[Bytes]) -> bool {
        let mut wire = self.wire.lock();
        let Wire { stream, buf } = &mut *wire;
        let total: usize = frames.iter().map(|f| 4 + f.len()).sum();
        buf.clear();
        buf.reserve(total);
        for f in frames {
            buf.put_u32_le(f.len() as u32);
            buf.put_slice(f);
        }
        self.counters
            .frames_sent
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        self.counters.wire_writes.fetch_add(1, Ordering::Relaxed);
        stream.write_all(buf).and_then(|_| stream.flush()).is_ok()
    }

    /// Stop the writer thread; queued-but-unwritten frames are dropped
    /// (their requests are failed through the pending map by the caller).
    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the queue and the socket (kills the peer's reader too).
    fn close_hard(&self) {
        self.close();
        let _ = self.socket.shutdown(std::net::Shutdown::Both);
    }
}

/// Drain the connection's outbound backlog whenever no inline sender holds
/// the socket, coalescing every frame available at drain time (bounded by
/// `max_coalesce_frames`) into one buffered write: one syscall carries N
/// frames.
fn writer_loop(conn: Arc<Conn>) {
    let mut batch: Vec<Bytes> = Vec::new();
    loop {
        {
            let mut st = conn.state.lock();
            while st.queue.is_empty() || st.writing {
                if st.closed && st.queue.is_empty() {
                    return;
                }
                conn.not_empty.wait(&mut st);
            }
            st.writing = true;
            let n = st.queue.len().min(conn.cfg.max_coalesce_frames);
            batch.extend(st.queue.drain(..n));
        }
        conn.not_full.notify_all();
        let ok = conn.write(&batch);
        batch.clear();
        conn.state.lock().writing = false;
        if !ok {
            // The socket is gone: closing it hard makes the reader loop
            // exit, which fails this peer's pending requests.
            conn.close_hard();
            return;
        }
    }
}

#[derive(Default)]
struct Counters {
    requests_sent: AtomicU64,
    requests_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    bulk_bytes_served: AtomicU64,
    frames_sent: AtomicU64,
    wire_writes: AtomicU64,
    send_stalls: AtomicU64,
    connections_accepted: AtomicU64,
}

type PendingMap = HashMap<u64, (String, Eventual<Result<Bytes, RpcError>>)>;

struct TcpInner {
    addr: String,
    handlers: RwLock<HashMap<RpcId, Arc<dyn RpcHandler>>>,
    executor: RwLock<Executor>,
    admission: RwLock<Option<Arc<dyn AdmissionControl>>>,
    /// In-flight requests tagged with the peer they were sent to, so a lost
    /// connection fails exactly the calls routed through it.
    pending: Mutex<PendingMap>,
    conns: Mutex<HashMap<String, Arc<Conn>>>,
    /// Held while dialing, so concurrent first calls to one peer make one
    /// connection: frames are ordered only within a connection.
    dial: Mutex<()>,
    send_cfg: TcpSendConfig,
    next_req: AtomicU64,
    next_bulk: AtomicU64,
    bulks: RwLock<HashMap<u64, Bytes>>,
    counters: Arc<Counters>,
    fault: RwLock<Option<Arc<FaultPlan>>>,
    down: AtomicBool,
}

impl TcpInner {
    fn fault_decision(&self, dir: FrameDirection, rpc_id: RpcId, req_id: u64) -> FaultDecision {
        match &*self.fault.read() {
            Some(plan) => plan.decide(dir, rpc_id, req_id),
            None => FaultDecision::default(),
        }
    }
}

/// Fail every pending request that was routed to `peer`.
fn fail_pending_for_peer(inner: &TcpInner, peer: &str) {
    let mut pending = inner.pending.lock();
    let dead: Vec<u64> = pending
        .iter()
        .filter(|(_, (p, _))| p == peer)
        .map(|(&id, _)| id)
        .collect();
    for id in dead {
        if let Some((_, ev)) = pending.remove(&id) {
            ev.set(Err(RpcError::Transport(format!(
                "connection to {peer} lost"
            ))));
        }
    }
}

/// A TCP endpoint: a listener plus a lazily-populated connection pool.
pub struct TcpEndpoint {
    inner: Arc<TcpInner>,
    listener_port: u16,
}

impl TcpEndpoint {
    /// Bind to `127.0.0.1:port` (`port` 0 picks a free port) and start the
    /// accept loop, with the default send-path configuration.
    pub fn bind(port: u16) -> std::io::Result<Arc<TcpEndpoint>> {
        Self::bind_with(port, TcpSendConfig::default())
    }

    /// [`TcpEndpoint::bind`] with explicit send-path tuning.
    pub fn bind_with(port: u16, send_cfg: TcpSendConfig) -> std::io::Result<Arc<TcpEndpoint>> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let actual = listener.local_addr()?.port();
        let addr = format!("{SCHEME}127.0.0.1:{actual}");
        let inner = Arc::new(TcpInner {
            addr,
            handlers: RwLock::new(HashMap::new()),
            executor: RwLock::new(Arc::new(|_, _, f: Box<dyn FnOnce() + Send>| f())),
            admission: RwLock::new(None),
            pending: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            dial: Mutex::new(()),
            send_cfg,
            next_req: AtomicU64::new(1),
            next_bulk: AtomicU64::new(1),
            bulks: RwLock::new(HashMap::new()),
            counters: Arc::new(Counters::default()),
            fault: RwLock::new(None),
            down: AtomicBool::new(false),
        });
        let ep = Arc::new(TcpEndpoint {
            inner: Arc::clone(&inner),
            listener_port: actual,
        });
        ep.register_bulk_handler();
        let accept_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("mercurio-accept-{actual}"))
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("failed to spawn accept thread");
        Ok(ep)
    }

    /// The local listener port.
    pub fn port(&self) -> u16 {
        self.listener_port
    }

    /// Install a [`FaultPlan`] applied to RPC frames this endpoint sends
    /// (requests) and answers (responses). Handshake frames are never
    /// faulted. Replaces any previously installed plan.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.inner.fault.write() = Some(plan);
    }

    /// Remove the installed [`FaultPlan`], restoring fault-free delivery.
    pub fn clear_fault_plan(&self) {
        *self.inner.fault.write() = None;
    }

    /// Calls currently awaiting a response. A timed-out (cancelled) call is
    /// removed immediately, so this exposes pending-entry leaks to tests.
    pub fn pending_calls(&self) -> usize {
        self.inner.pending.lock().len()
    }

    fn register_bulk_handler(&self) {
        let inner = Arc::clone(&self.inner);
        self.inner.handlers.write().insert(
            RPC_BULK_PULL,
            Arc::new(move |req: Request| {
                let mut p = req.payload;
                if p.remaining() < 24 {
                    return Err(RpcError::Protocol("short bulk-pull request".into()));
                }
                let id = p.get_u64_le();
                let offset = p.get_u64_le() as usize;
                let len = p.get_u64_le() as usize;
                let region = inner
                    .bulks
                    .read()
                    .get(&id)
                    .cloned()
                    .ok_or(RpcError::NoSuchBulk(id))?;
                if offset.checked_add(len).is_none_or(|end| end > region.len()) {
                    return Err(RpcError::BulkOutOfRange {
                        offset,
                        len,
                        size: region.len(),
                    });
                }
                inner
                    .counters
                    .bulk_bytes_served
                    .fetch_add(len as u64, Ordering::Relaxed);
                Ok(region.slice(offset..offset + len))
            }),
        );
    }

    fn connect(&self, target: &str) -> Result<Arc<Conn>, RpcError> {
        if let Some(c) = self.inner.conns.lock().get(target) {
            return Ok(Arc::clone(c));
        }
        // Dialing is rare: one endpoint-wide lock, then re-check, keeps a
        // racing caller from dialing a second connection and overwriting
        // the first in `conns`.
        let _dialing = self.inner.dial.lock();
        if let Some(c) = self.inner.conns.lock().get(target) {
            return Ok(Arc::clone(c));
        }
        let hostport = target
            .strip_prefix(SCHEME)
            .ok_or_else(|| RpcError::NoSuchEndpoint(target.to_string()))?;
        let stream = TcpStream::connect(hostport)
            .map_err(|e| RpcError::NoSuchEndpoint(format!("{target}: {e}")))?;
        stream.set_nodelay(true).ok();
        let write_half = stream
            .try_clone()
            .map_err(|e| RpcError::Transport(e.to_string()))?;
        let conn = Conn::spawn(
            write_half,
            self.inner.send_cfg.clone(),
            Arc::clone(&self.inner.counters),
        );
        // Handshake: announce our canonical address so the peer can route
        // responses and future requests back. Sent like any other frame;
        // it is the connection's first send, so it goes out first.
        let mut hello = BytesMut::new();
        hello.put_slice(self.inner.addr.as_bytes());
        conn.send(&hello.freeze())?;
        self.inner
            .conns
            .lock()
            .insert(target.to_string(), Arc::clone(&conn));
        let inner = Arc::clone(&self.inner);
        let peer = target.to_string();
        let conn2 = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("mercurio-tcp-rx".into())
            .spawn(move || reader_loop(stream, inner, peer, conn2))
            .expect("failed to spawn reader thread");
        Ok(conn)
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<TcpInner>) {
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => return,
        };
        if inner.down.load(Ordering::Acquire) {
            return;
        }
        stream.set_nodelay(true).ok();
        inner
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Read the handshake to learn the peer's canonical address.
        let peer_addr = match read_frame(&mut stream) {
            Ok(f) => String::from_utf8_lossy(&f).into_owned(),
            Err(_) => continue,
        };
        let write_half = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        let conn = Conn::spawn(
            write_half,
            inner.send_cfg.clone(),
            Arc::clone(&inner.counters),
        );
        inner
            .conns
            .lock()
            .insert(peer_addr.clone(), Arc::clone(&conn));
        let inner2 = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("mercurio-tcp-rx".into())
            .spawn(move || reader_loop(stream, inner2, peer_addr, conn))
            .expect("failed to spawn reader thread");
    }
}

fn reader_loop(mut stream: TcpStream, inner: Arc<TcpInner>, peer: String, conn: Arc<Conn>) {
    ON_READER.set(true);
    while let Ok(raw) = read_frame(&mut stream) {
        inner
            .counters
            .bytes_received
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        let frame = match Frame::decode(raw) {
            Ok(f) => f,
            Err(_) => break,
        };
        match frame {
            Frame::Request {
                req_id,
                rpc_id,
                provider_id,
                payload,
            } => {
                inner
                    .counters
                    .requests_received
                    .fetch_add(1, Ordering::Relaxed);
                // Admission check on the reader thread; internal bulk pulls
                // are exempt (they serve already-admitted requests). A shed
                // request is answered Busy right here, bypassing the
                // executor — rejected, never silently dropped.
                let admission = if rpc_id == RPC_BULK_PULL {
                    None
                } else {
                    inner.admission.read().clone()
                };
                if let Some(ctrl) = &admission {
                    if let Admission::Shed { retry_after } = ctrl.admit(rpc_id, provider_id) {
                        let resp = Frame::Response {
                            req_id,
                            result: Err(RpcError::Busy { retry_after }.to_wire()),
                        }
                        .encode();
                        let fd = inner.fault_decision(FrameDirection::Response, rpc_id, req_id);
                        if let Some(t) = fd.delay {
                            std::thread::sleep(t);
                        }
                        if !(fd.drop || fd.disconnect) {
                            inner
                                .counters
                                .bytes_sent
                                .fetch_add(resp.len() as u64, Ordering::Relaxed);
                            let _ = conn.send(&resp);
                        }
                        continue;
                    }
                }
                let handler = inner.handlers.read().get(&rpc_id).cloned();
                let exec = inner.executor.read().clone();
                let conn = Arc::clone(&conn);
                let inner2 = Arc::clone(&inner);
                let peer2 = peer.clone();
                let queued_at = Instant::now();
                exec(
                    rpc_id,
                    provider_id,
                    Box::new(move || {
                        // Deadline-aware shed at the front of the pool.
                        let shed_late = admission.as_ref().and_then(|ctrl| {
                            match ctrl.begin(rpc_id, provider_id, queued_at.elapsed()) {
                                Admission::Admit => None,
                                Admission::Shed { retry_after } => Some(retry_after),
                            }
                        });
                        let result = match (shed_late, handler) {
                            (Some(retry_after), _) => Err(RpcError::Busy { retry_after }),
                            (None, None) => Err(RpcError::NoSuchRpc(rpc_id.0)),
                            (None, Some(h)) => h.handle(Request {
                                source: peer2,
                                rpc_id,
                                provider_id,
                                payload,
                            }),
                        };
                        if let Some(ctrl) = &admission {
                            ctrl.complete(rpc_id, provider_id);
                        }
                        let resp = Frame::Response {
                            req_id,
                            result: result.map_err(|e| e.to_wire()),
                        }
                        .encode();
                        let fd = inner2.fault_decision(FrameDirection::Response, rpc_id, req_id);
                        if let Some(t) = fd.delay {
                            std::thread::sleep(t);
                        }
                        if fd.drop || fd.disconnect {
                            // Response lost: the caller's deadline fires.
                            return;
                        }
                        inner2
                            .counters
                            .bytes_sent
                            .fetch_add(resp.len() as u64, Ordering::Relaxed);
                        let _ = conn.send(&resp);
                        if fd.duplicate {
                            // Harmless to the caller: the first delivery
                            // removes the pending entry, the second no-ops.
                            let _ = conn.send(&resp);
                        }
                    }),
                );
            }
            Frame::Response { req_id, result } => {
                if let Some((_, ev)) = inner.pending.lock().remove(&req_id) {
                    ev.set(result.map_err(|(c, d)| RpcError::from_wire(c, &d)));
                }
            }
        }
    }
    // Connection lost: stop its writer, drop it from the pool so a future
    // call re-dials, and fail the requests that were awaiting this peer —
    // a killed service must surface as an error, not a hang.
    conn.close();
    inner.conns.lock().remove(&peer);
    fail_pending_for_peer(&inner, &peer);
}

impl Endpoint for TcpEndpoint {
    fn address(&self) -> String {
        self.inner.addr.clone()
    }

    fn register(&self, id: RpcId, handler: Arc<dyn RpcHandler>) {
        assert!(
            id != RPC_BULK_PULL,
            "rpc id {} is reserved",
            RPC_BULK_PULL.0
        );
        self.inner.handlers.write().insert(id, handler);
    }

    fn set_executor(&self, exec: Executor) {
        *self.inner.executor.write() = exec;
    }

    fn set_admission(&self, ctrl: Option<Arc<dyn AdmissionControl>>) {
        *self.inner.admission.write() = ctrl;
    }

    fn call_async(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> PendingResponse {
        if self.inner.down.load(Ordering::Acquire) {
            return PendingResponse::failed(RpcError::Shutdown);
        }
        let conn = match self.connect(target) {
            Ok(c) => c,
            Err(e) => return PendingResponse::failed(e),
        };
        let req_id = self.inner.next_req.fetch_add(1, Ordering::Relaxed);
        let fd = self
            .inner
            .fault_decision(FrameDirection::Request, id, req_id);
        if fd.disconnect {
            return PendingResponse::failed(RpcError::Transport(
                "injected transient disconnect".into(),
            ));
        }
        let frame = Frame::Request {
            req_id,
            rpc_id: id,
            provider_id,
            payload,
        }
        .encode();
        let ev = Eventual::new();
        self.inner
            .pending
            .lock()
            .insert(req_id, (target.to_string(), ev.clone()));
        self.inner
            .counters
            .requests_sent
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        // Abandoning the call (deadline) removes the pending entry so a
        // dropped frame cannot leak state; a late response then no-ops.
        let cancel_inner = Arc::clone(&self.inner);
        let pending = PendingResponse::with_cancel(
            ev,
            Box::new(move || {
                cancel_inner.pending.lock().remove(&req_id);
            }),
        );
        if let Some(t) = fd.delay {
            std::thread::sleep(t);
        }
        if fd.drop {
            // The request frame is lost in transit; the caller's deadline
            // fires and retries.
            return pending;
        }
        if let Err(e) = conn.send(&frame) {
            self.inner.pending.lock().remove(&req_id);
            return PendingResponse::failed(e);
        }
        if fd.duplicate {
            let _ = conn.send(&frame);
        }
        pending
    }

    fn expose_bulk(&self, data: Bytes) -> BulkHandle {
        let id = self.inner.next_bulk.fetch_add(1, Ordering::Relaxed);
        let len = data.len();
        self.inner.bulks.write().insert(id, data);
        BulkHandle { id, len }
    }

    fn release_bulk(&self, handle: &BulkHandle) {
        self.inner.bulks.write().remove(&handle.id);
    }

    fn bulk_pull(
        &self,
        owner: &str,
        handle: &BulkHandle,
        offset: usize,
        len: usize,
    ) -> Result<Bytes, RpcError> {
        if owner == self.inner.addr {
            // Local fast path: pulling from ourselves needs no socket.
            let region = self
                .inner
                .bulks
                .read()
                .get(&handle.id)
                .cloned()
                .ok_or(RpcError::NoSuchBulk(handle.id))?;
            if offset.checked_add(len).is_none_or(|end| end > region.len()) {
                return Err(RpcError::BulkOutOfRange {
                    offset,
                    len,
                    size: region.len(),
                });
            }
            return Ok(region.slice(offset..offset + len));
        }
        let mut payload = BytesMut::with_capacity(24);
        payload.put_u64_le(handle.id);
        payload.put_u64_le(offset as u64);
        payload.put_u64_le(len as u64);
        self.call(owner, RPC_BULK_PULL, 0, payload.freeze())
    }

    fn stats(&self) -> EndpointStats {
        let c = &self.inner.counters;
        EndpointStats {
            requests_sent: c.requests_sent.load(Ordering::Relaxed),
            requests_received: c.requests_received.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            bulk_bytes_served: c.bulk_bytes_served.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            wire_writes: c.wire_writes.load(Ordering::Relaxed),
            send_stalls: c.send_stalls.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        self.inner.down.store(true, Ordering::Release);
        // Unblock the accept loop by dialing ourselves once.
        let _ = TcpStream::connect(("127.0.0.1", self.listener_port));
        let mut conns = self.inner.conns.lock();
        for (_, conn) in conns.drain() {
            conn.close_hard();
        }
        drop(conns);
        let mut pending = self.inner.pending.lock();
        for (_, (_, ev)) in pending.drain() {
            ev.set(Err(RpcError::Shutdown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn echo() -> Arc<dyn RpcHandler> {
        Arc::new(|req: Request| Ok(req.payload))
    }

    #[test]
    fn call_over_tcp() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let out = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"over tcp"))
            .unwrap();
        assert_eq!(&out[..], b"over tcp");
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn large_payload_round_trip() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let big: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let out = c
            .call(&s.address(), RpcId(1), 0, Bytes::from(big.clone()))
            .unwrap();
        assert_eq!(&out[..], &big[..]);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn admit_shed_answers_busy_without_leaking() {
        use crate::endpoint::testctl::TestAdmission;
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let ctl = Arc::new(TestAdmission {
            shed_at_admit: true,
            ..Default::default()
        });
        s.set_admission(Some(Arc::clone(&ctl) as Arc<dyn AdmissionControl>));
        let err = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(
            err,
            RpcError::Busy {
                retry_after: Duration::from_millis(7)
            }
        );
        // Every shed request produced exactly one Busy response; nothing
        // is stuck in the client's pending map.
        assert_eq!(c.pending_calls(), 0);
        assert_eq!(ctl.begins.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(ctl.completes.load(std::sync::atomic::Ordering::SeqCst), 0);
        s.set_admission(None);
        let out = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"y"))
            .unwrap();
        assert_eq!(&out[..], b"y");
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn begin_shed_releases_slot_exactly_once() {
        use crate::endpoint::testctl::TestAdmission;
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let ctl = Arc::new(TestAdmission {
            shed_at_begin: true,
            ..Default::default()
        });
        s.set_admission(Some(Arc::clone(&ctl) as Arc<dyn AdmissionControl>));
        let err = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(
            err,
            RpcError::Busy {
                retry_after: Duration::from_millis(3)
            }
        );
        assert_eq!(c.pending_calls(), 0);
        assert_eq!(ctl.admits.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ctl.begins.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ctl.completes.load(std::sync::atomic::Ordering::SeqCst), 1);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn bulk_pulls_are_exempt_from_admission() {
        use crate::endpoint::testctl::TestAdmission;
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        let ctl = Arc::new(TestAdmission {
            shed_at_admit: true,
            ..Default::default()
        });
        s.set_admission(Some(Arc::clone(&ctl) as Arc<dyn AdmissionControl>));
        // The region belongs to an already-admitted request; pulling it must
        // not be shed even while the endpoint rejects new work.
        let data = Bytes::from_static(b"bulk payload survives overload");
        let handle = s.expose_bulk(data.clone());
        let out = c.bulk_pull(&s.address(), &handle, 0, data.len()).unwrap();
        assert_eq!(&out[..], &data[..]);
        assert_eq!(ctl.admits.load(std::sync::atomic::Ordering::SeqCst), 0);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn error_propagates_over_tcp() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(
            RpcId(2),
            Arc::new(|_req: Request| Err(RpcError::Handler("remote boom".into()))),
        );
        let err = c.call(&s.address(), RpcId(2), 0, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::Handler("remote boom".into()));
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn unknown_rpc_over_tcp() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        let err = c.call(&s.address(), RpcId(9), 0, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::NoSuchRpc(9));
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn bulk_pull_over_tcp() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        let h = s.expose_bulk(Bytes::from_static(b"abcdefgh"));
        let out = c.bulk_pull(&s.address(), &h, 2, 3).unwrap();
        assert_eq!(&out[..], b"cde");
        assert_eq!(s.stats().bulk_bytes_served, 3);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn connection_reuse_and_concurrency() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        let pending: Vec<_> = (0..50u8)
            .map(|i| c.call_async(&addr, RpcId(1), 0, Bytes::copy_from_slice(&[i])))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap()[0] as usize, i);
        }
        assert_eq!(s.stats().requests_received, 50);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn coalescing_batches_frames_per_write() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        // Fire a burst of async calls: the writer thread drains whatever is
        // queued per wakeup, so wire writes must not exceed frames sent and
        // should generally be far fewer under a burst.
        let pending: Vec<_> = (0..200u8)
            .map(|i| c.call_async(&addr, RpcId(1), 0, Bytes::copy_from_slice(&[i])))
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let st = c.stats();
        // 200 requests + 1 handshake frame.
        assert_eq!(st.frames_sent, 201);
        assert!(st.wire_writes >= 1);
        assert!(
            st.wire_writes <= st.frames_sent,
            "writes {} > frames {}",
            st.wire_writes,
            st.frames_sent
        );
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn per_frame_mode_writes_every_frame() {
        let cfg = TcpSendConfig {
            max_coalesce_frames: 1,
            max_queued_frames: 256,
        };
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind_with(0, cfg).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        for i in 0..20u8 {
            c.call(&addr, RpcId(1), 0, Bytes::copy_from_slice(&[i]))
                .unwrap();
        }
        let st = c.stats();
        assert_eq!(st.frames_sent, 21); // 20 requests + handshake
        assert_eq!(st.wire_writes, st.frames_sent);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn full_queue_counts_backpressure_stalls() {
        let cfg = TcpSendConfig {
            max_coalesce_frames: 64,
            max_queued_frames: 2,
        };
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind_with(0, cfg).unwrap();
        // The server's reader parks in the first handler until the client
        // has stalled, so the socket fills and an inline write blocks.
        let release = Arc::new(AtomicBool::new(false));
        let release2 = Arc::clone(&release);
        s.register(
            RpcId(1),
            Arc::new(move |req: Request| {
                while !release2.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(req.payload)
            }),
        );
        let addr = s.address();
        // Dial first, on one connection, without reaching the handler.
        let err = c.call(&addr, RpcId(2), 0, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::NoSuchRpc(2));
        // A lone sender writes every frame inline and never queues: the
        // queue only fills when concurrent senders pile up behind an
        // in-flight write. 16 MiB of medium frames outgrow any socket
        // buffer of a peer that has stopped reading.
        let payload = Bytes::from(vec![7u8; 64 << 10]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let pending: Vec<_> = (0..64)
                        .map(|_| c.call_async(&addr, RpcId(1), 0, payload.clone()))
                        .collect();
                    for p in pending {
                        p.wait().unwrap();
                    }
                });
            }
            let give_up = Instant::now() + Duration::from_secs(10);
            while c.stats().send_stalls == 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            release.store(true, Ordering::Release);
        });
        let st = c.stats();
        assert_eq!(st.requests_sent, 257);
        assert!(st.send_stalls > 0, "expected at least one send stall");
        s.shutdown();
        c.shutdown();
    }

    /// Four threads each send a numbered burst on one connection, so frames
    /// take both the inline and the queued path. The server's default
    /// executor runs handlers on its reader, in wire order.
    fn frame_order_holds_across_send_paths(max_coalesce_frames: usize) {
        const THREADS: u8 = 4;
        const BURST: u32 = 200;
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind_with(
            0,
            TcpSendConfig {
                max_coalesce_frames,
                ..TcpSendConfig::default()
            },
        )
        .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        s.register(
            RpcId(1),
            Arc::new(move |req: Request| {
                let mut p = req.payload.clone();
                let thread = p.get_u8();
                seen2.lock().push((thread, p.get_u32_le()));
                Ok(req.payload)
            }),
        );
        let addr = s.address();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (c, addr) = (&c, &addr);
                scope.spawn(move || {
                    let pending: Vec<_> = (0..BURST)
                        .map(|i| {
                            let mut p = BytesMut::new();
                            p.put_u8(t);
                            p.put_u32_le(i);
                            c.call_async(addr, RpcId(1), 0, p.freeze())
                        })
                        .collect();
                    for (i, p) in pending.into_iter().enumerate() {
                        let mut out = p.wait_timeout(Duration::from_secs(10)).unwrap();
                        assert_eq!((out.get_u8(), out.get_u32_le()), (t, i as u32));
                    }
                });
            }
        });
        let seen = seen.lock();
        assert_eq!(seen.len(), THREADS as usize * BURST as usize);
        for t in 0..THREADS {
            let seq: Vec<u32> = seen
                .iter()
                .filter(|(th, _)| *th == t)
                .map(|e| e.1)
                .collect();
            assert_eq!(
                seq,
                (0..BURST).collect::<Vec<_>>(),
                "thread {t} out of order"
            );
        }
        assert_eq!(c.pending_calls(), 0);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn frame_order_holds_across_send_paths_coalesced() {
        frame_order_holds_across_send_paths(64);
    }

    #[test]
    fn frame_order_holds_across_send_paths_per_frame() {
        frame_order_holds_across_send_paths(1);
    }

    #[test]
    fn concurrent_first_calls_dial_one_connection() {
        const THREADS: usize = 8;
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u8 {
                let (c, addr, barrier) = (&c, &addr, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let out = c.call(addr, RpcId(1), 0, Bytes::copy_from_slice(&[t]));
                    assert_eq!(&out.unwrap()[..], &[t]);
                });
            }
        });
        let accepted = s
            .inner
            .counters
            .connections_accepted
            .load(Ordering::Relaxed);
        assert_eq!(accepted, 1, "one connection per peer");
        // 8 requests and one handshake.
        assert_eq!(c.stats().frames_sent, THREADS as u64 + 1);
        assert_eq!(s.stats().requests_received, THREADS as u64);
        s.shutdown();
        c.shutdown();
    }

    /// Two endpoints flood each other from 4 threads each while answering
    /// every call with 1 MiB on their reader threads (default executor). A
    /// reader that wrote inline could block on the peer's full socket while
    /// the peer's reader blocks on its own. The senders are detached, so a
    /// deadlock fails the test at the deadline instead of hanging it.
    fn crossing_floods_complete(handler: Arc<dyn RpcHandler>, request: Bytes) {
        const CALLS: usize = 2 * 4 * 4 * 8;
        let a = TcpEndpoint::bind(0).unwrap();
        let b = TcpEndpoint::bind(0).unwrap();
        a.register(RpcId(1), Arc::clone(&handler));
        b.register(RpcId(1), handler);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (from, to) in [(&a, b.address()), (&b, a.address())] {
            for _ in 0..4 {
                let (from, to) = (Arc::clone(from), to.clone());
                let (request, done) = (request.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let pending: Vec<_> = (0..8)
                            .map(|_| from.call_async(&to, RpcId(1), 0, request.clone()))
                            .collect();
                        for p in pending {
                            let _ = done.send(p.wait().map(|r| r.len()));
                        }
                    }
                });
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for _ in 0..CALLS {
            let left = deadline.saturating_duration_since(Instant::now());
            let len = done_rx
                .recv_timeout(left)
                .expect("calls did not complete within 30 s")
                .unwrap();
            assert_eq!(len, 1 << 20);
        }
        assert_eq!(a.pending_calls(), 0);
        assert_eq!(b.pending_calls(), 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn readers_never_deadlock_on_crossing_echoes() {
        crossing_floods_complete(echo(), Bytes::from(vec![5u8; 1 << 20]));
    }

    #[test]
    fn readers_never_deadlock_on_crossing_replies() {
        // Small requests, large replies: nearly every byte on the wire is
        // written by a reader thread.
        let reply = Bytes::from(vec![5u8; 1 << 20]);
        crossing_floods_complete(
            Arc::new(move |_req: Request| Ok(reply.clone())),
            Bytes::from_static(b"x"),
        );
    }

    #[test]
    fn dead_endpoint_is_unreachable() {
        let s = TcpEndpoint::bind(0).unwrap();
        let addr = s.address();
        s.shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = TcpEndpoint::bind(0).unwrap();
        // Either the connect fails outright, or a pending call dies with the
        // connection; both surface as an error rather than a hang.
        let res = c
            .call_async(&addr, RpcId(1), 0, Bytes::new())
            .wait_timeout(std::time::Duration::from_secs(2));
        assert!(res.is_err());
        c.shutdown();
    }

    #[test]
    fn deadline_against_stalled_handler_leaves_no_pending_entry() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        let release = Arc::new(AtomicBool::new(false));
        let release2 = Arc::clone(&release);
        s.register(
            RpcId(1),
            Arc::new(move |_req: Request| {
                while !release2.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Ok(Bytes::new())
            }),
        );
        s.set_executor(Arc::new(|_rpc, _prov, job| {
            std::thread::spawn(job);
        }));
        let err = c
            .call_with_deadline(
                &s.address(),
                RpcId(1),
                0,
                Bytes::new(),
                std::time::Duration::from_millis(20),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        // The abandoned call must not leak a pending entry.
        assert_eq!(c.pending_calls(), 0);
        // Unstick the handler; its late response must be dropped harmlessly
        // and the endpoint stays usable.
        release.store(true, Ordering::Release);
        let ok = c
            .call_async(&s.address(), RpcId(1), 0, Bytes::from_static(b"ok"))
            .wait_timeout(std::time::Duration::from_secs(5));
        assert!(ok.is_ok());
        assert_eq!(c.pending_calls(), 0);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn dropped_response_times_out_and_cancels() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        // Drop every response the server sends; the client's deadline must
        // fire and cancel the call instead of hanging.
        let mut cfg = crate::fault::FaultConfig::new(13);
        cfg.drop_response = 1.0;
        s.install_fault_plan(Arc::new(crate::fault::FaultPlan::new(cfg)));
        let err = c
            .call_with_deadline(
                &s.address(),
                RpcId(1),
                0,
                Bytes::from_static(b"x"),
                std::time::Duration::from_millis(50),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        assert_eq!(c.pending_calls(), 0);
        // The request itself did arrive — only the response was lost.
        assert_eq!(s.stats().requests_received, 1);
        s.clear_fault_plan();
        let out = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"y"))
            .unwrap();
        assert_eq!(&out[..], b"y");
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn lost_connection_fails_pending_calls() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        // A handler that never answers quickly: the response would only
        // arrive after the server dies.
        s.register(
            RpcId(1),
            Arc::new(|_req: Request| {
                std::thread::sleep(std::time::Duration::from_secs(10));
                Ok(Bytes::new())
            }),
        );
        s.set_executor(Arc::new(|_rpc, _prov, job| {
            std::thread::spawn(job);
        }));
        let pending = c.call_async(&s.address(), RpcId(1), 0, Bytes::new());
        std::thread::sleep(std::time::Duration::from_millis(50));
        s.shutdown();
        // The client's reader loop notices the closed socket and fails the
        // in-flight request — no 10-second hang, no silent loss.
        let err = pending
            .wait_timeout(std::time::Duration::from_secs(2))
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Transport(_) | RpcError::Shutdown),
            "unexpected error: {err}"
        );
        c.shutdown();
    }
}
