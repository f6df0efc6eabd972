//! Microbenchmark: the TCP send path under writer concurrency — per-frame
//! writes (`max_coalesce_frames = 1`, the pre-pipelining behaviour: one
//! write+flush syscall pair per frame) versus the coalescing writer thread
//! (all frames queued at drain time go out in one buffered write).
//!
//! Each iteration runs T threads issuing a burst of async echo RPCs over a
//! shared client endpoint and waits for all responses. On a 1-CPU host the
//! expected signal is reduced lock-handoff/syscall count per op rather than
//! parallel speedup (as with the cache microbench).
//!
//! `sync_round_trip` is the shape of an event lookup: one thread issuing
//! sequential 128 B synchronous calls, so every frame finds its connection
//! idle and is written inline by the calling thread (client request and
//! server response alike); one iteration is one round trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mercurio::tcp::{TcpEndpoint, TcpSendConfig};
use mercurio::{Endpoint, Request, RpcId};
use std::sync::Arc;

const CALLS_PER_THREAD: usize = 256;
const PAYLOAD: usize = 128;

fn echo_server() -> Arc<TcpEndpoint> {
    let s = TcpEndpoint::bind(0).expect("bind server");
    s.register(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
    s
}

fn run(client: &Arc<TcpEndpoint>, addr: &str, threads: usize) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            let client = Arc::clone(client);
            s.spawn(move || {
                let payload = bytes::Bytes::from(vec![7u8; PAYLOAD]);
                let pending: Vec<_> = (0..CALLS_PER_THREAD)
                    .map(|_| client.call_async(addr, RpcId(1), 0, payload.clone()))
                    .collect();
                for p in pending {
                    p.wait().expect("echo rpc failed");
                }
            });
        }
    });
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_send_path");
    for &threads in &[1usize, 2, 4, 8] {
        for (label, coalesce) in [("per_frame", 1usize), ("coalesced", 64)] {
            let server = echo_server();
            let addr = server.address();
            let client = TcpEndpoint::bind_with(
                0,
                TcpSendConfig {
                    max_coalesce_frames: coalesce,
                    max_queued_frames: 1024,
                },
            )
            .expect("bind client");
            g.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| run(&client, &addr, threads))
            });
            let st = client.stats();
            eprintln!(
                "# {label}/{threads}: frames_sent={} wire_writes={} coalescing={:.1}x stalls={}",
                st.frames_sent,
                st.wire_writes,
                st.frames_sent as f64 / st.wire_writes.max(1) as f64,
                st.send_stalls,
            );
            client.shutdown();
            server.shutdown();
        }
    }
    g.finish();
}

fn bench_sync_round_trip(c: &mut Criterion) {
    // Handlers run on a Margo pool, as in a deployment, never on the
    // server's reader thread.
    let server = margo::MargoInstance::new(
        echo_server() as Arc<dyn Endpoint>,
        argos::Runtime::simple(1),
        "default",
    )
    .expect("margo instance");
    let addr = server.address();
    let client = TcpEndpoint::bind(0).expect("bind client");
    let payload = bytes::Bytes::from(vec![7u8; PAYLOAD]);
    c.bench_function("sync_round_trip", |b| {
        b.iter(|| {
            client
                .call(&addr, RpcId(1), 0, payload.clone())
                .expect("echo rpc failed")
        })
    });
    client.shutdown();
    server.finalize();
}

criterion_group!(benches, bench_wire, bench_sync_round_trip);
criterion_main!(benches);
