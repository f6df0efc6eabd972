//! Tiny-size self-test of the benchmark: each workload runs at toy size,
//! untraced and traced. Every end-to-end and per-layer metric that
//! `BENCHMARK.json` names must be printed with its unit, every correctness
//! gate must run and pass, and on `lookup` the client-side spans must
//! account for the measured lookup latency within 10%.

use e2ebench::report::{self, END_TO_END};
use e2ebench::{layers, Config, Scale, Workload};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        scale: Scale::toy(),
        writer_rate: 2_000.0,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest"),
    }
}

/// Names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let from = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[from..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed("end_to_end"), e2e);
    let per_layer: Vec<String> = layers::names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed("per_layer"), per_layer);
    // `ingest` runs from the command line but is not a gated workload: its
    // fsync-bound window swings too much between runs on a shared disk.
    let workloads = listed("workloads");
    assert_eq!(workloads, ["analysis", "lookup"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}

fn check(workload: Workload, trace: bool) -> report::Report {
    let cfg = config(workload, trace);
    let r = report::run(&cfg).unwrap_or_else(|e| panic!("{workload:?} failed: {e}"));
    let lines = r.lines(&cfg);
    let result = lines.last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true, "), "{result}");
    let (failed, attempted) = r.counts();
    assert!(
        attempted > 0 && failed == 0,
        "{failed} of {attempted} failed"
    );
    for run in std::iter::once(&r.plain).chain(r.traced.as_ref()) {
        assert!(!run.m.gates.is_empty(), "{workload:?} ran no gate");
        for g in &run.m.gates {
            assert!(g.attempted > 0, "gate {} checked nothing", g.name);
        }
    }
    let expected: Vec<(String, &str)> = if trace {
        layers::names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in expected {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from {result}"));
        let rest = &result[at + needle.len()..];
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} has no unit"
        );
    }
    if !trace {
        // At toy size every write still sits in a memtable, so no SST
        // exists yet and space amplification reads 0.
        for (name, v, _, n) in r.end_to_end() {
            assert!(
                n > 0 && (v > 0.0 || name == "space_amp"),
                "{name} = {v} over {n}"
            );
        }
    }
    r
}

#[test]
fn ingest_untraced_and_traced() {
    check(Workload::Ingest, false);
    let r = check(Workload::Ingest, true);
    let l = r.traced.unwrap().layers.unwrap().values;
    assert!(l["hepnos.batch.pairs_per_rpc"] > 1.0);
    assert!(l["yokan.service.put_multi_handler_us_p50"] > 0.0);
    assert!(l["yokan.replica.forward_us_p50"] > 0.0);
}

#[test]
fn analysis_untraced_and_traced() {
    check(Workload::Analysis, false);
    let r = check(Workload::Analysis, true);
    let l = r.traced.unwrap().layers.unwrap().values;
    assert_eq!(l["nova.pushdown.fallback_events"], 0.0);
    assert!(l["hepnos.pep.events_per_s"] > 0.0);
    assert!(l["yokan.client.filter_us_p50"] > 0.0);
}

#[test]
fn lookup_spans_account_for_latency() {
    check(Workload::Lookup, false);
    let r = check(Workload::Lookup, true);
    let l = r.traced.unwrap().layers.unwrap().values;
    let coverage = l["bench.lookup_span_coverage"];
    assert!(
        (0.9..=1.1).contains(&coverage),
        "client spans cover {coverage} of the lookup latency"
    );
    assert!(l["hepnos.nav_us_p50"] > 0.0 && l["hepnos.load_us_p50"] > 0.0);
    assert!(l["mercurio.wire_us_p50"] > 0.0);
}
