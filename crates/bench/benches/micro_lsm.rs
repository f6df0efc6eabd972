//! Microbenchmark: the LSM engine (RocksDB substitute) — write path (WAL +
//! memtable), read path (memtable / SST + bloom, one and two reader
//! threads), and sorted scans.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use lsmdb::{Db, Options};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lsm-bench-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn bench_writes(c: &mut Criterion) {
    let dir = tmpdir("w");
    let db = Db::open(&dir, Options::default()).unwrap();
    let mut i = 0u64;
    let mut g = c.benchmark_group("lsm_write");
    g.bench_function("put_100B", |b| {
        b.iter(|| {
            i += 1;
            db.put(&i.to_be_bytes(), &[0u8; 100]).unwrap();
        })
    });
    let mut batch_i = 0u64;
    g.bench_function("put_multi_64x100B", |b| {
        b.iter_batched(
            || {
                let mut wb = lsmdb::WriteBatch::new();
                for _ in 0..64 {
                    batch_i += 1;
                    wb.put(&batch_i.to_be_bytes(), &[0u8; 100]);
                }
                wb
            },
            |wb| db.write(black_box(&wb)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_reads(c: &mut Criterion) {
    let dir = tmpdir("r");
    let db = Db::open(&dir, Options::default()).unwrap();
    for i in 0..50_000u64 {
        db.put(&i.to_be_bytes(), &[1u8; 100]).unwrap();
    }
    db.compact().unwrap(); // cold path: everything in L1 SSTs
    let mut g = c.benchmark_group("lsm_read");
    let mut i = 0u64;
    g.bench_function("get_hit_sst", |b| {
        b.iter(|| {
            i = (i + 7919) % 50_000;
            black_box(db.get(&i.to_be_bytes()).unwrap());
        })
    });
    // Two readers on the same tables: one iteration is 2 x 256 gets.
    g.bench_function("get_hit_sst_2threads", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let db = &db;
                    s.spawn(move || {
                        let mut k = t * 25_000;
                        for _ in 0..256 {
                            k = (k + 7919) % 50_000;
                            black_box(db.get(&k.to_be_bytes()).unwrap());
                        }
                    });
                }
            })
        })
    });
    g.bench_function("get_miss_bloom", |b| {
        b.iter(|| {
            i += 1;
            black_box(db.get(&(100_000 + i).to_be_bytes()).unwrap());
        })
    });
    g.bench_function("scan_1024", |b| {
        b.iter(|| {
            let lower = 1000u64.to_be_bytes();
            black_box(db.scan(&lower, None, 1024).unwrap());
        })
    });
    g.finish();
    let cache = db.read_cache_stats();
    println!(
        "# lsm_read cache: {} shards, {} entries, {} hits / {} misses / {} evictions",
        cache.shard_entries.len(),
        cache.entries,
        cache.hits,
        cache.misses,
        cache.evictions
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_writes, bench_reads
}
criterion_main!(benches);
