//! `smoqed` serving-surface throughput (PR 8) — closed-loop load against
//! a real loopback TCP server, the scaling scoreboard for "heavy traffic
//! from millions of users".
//!
//! Two parts, mirroring the other throughput benches:
//!
//! 1. A **correctness + load report** (printed first), doubling as a smoke
//!    test in CI:
//!    * every wire answer **and its statistics** are bit-identical to a
//!      direct `QueryService` call over the same view, document and
//!      request order — asserted across two tenants, on any hardware;
//!    * the closed-loop load generator then drives the query mix
//!      (hot/cold solo queries, every-5th batched, every-9th an edit) at
//!      1, 4 and 8 concurrent clients; each series appends p50/p95/p99
//!      latency and QPS to `SMOQE_BENCH_JSON`, and **zero request errors**
//!      is always asserted;
//!    * the QPS scaling gate (8 clients ≥ 1.3× the 1-client run) only
//!      arms on ≥4-core hardware — on fewer cores the server and the
//!      clients share one CPU and concurrency cannot win.
//!
//! 2. **Timing series** (Criterion): one hot solo query round trip and one
//!    batched round trip over the live socket.
//!
//! Run with: `cargo bench --bench server_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per series.)

use std::io::Write as _;
use std::thread;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::hospital_view;
use smoqe_xml::{parse_document, snapshot, XmlTree};
use smoqed::protocol::WireResult;
use smoqed::{run_load, LoadConfig, Server, ServerConfig, SmoqedClient};

/// The scaling gate: 8 closed-loop clients must beat 1 by this factor.
/// Armed only on ≥4 cores (see module docs).
const QPS_GATE: f64 = 1.3;

/// Queries a production tenant would hammer (cache-resident).
const HOT_QUERIES: &[&str] = &[
    "patient",
    "patient/record/diagnosis",
    "(patient/parent)*/patient",
    "//diagnosis",
];

/// The long tail (distinct automata, colder caches).
const COLD_QUERIES: &[&str] = &[
    "patient/record",
    "patient/parent/patient",
    "patient[not(parent)]",
    "patient[record/diagnosis/text()='heart disease' and parent]",
    "patient/(record | parent/patient/record)",
    "//record[diagnosis]",
    "patient[not(record/diagnosis/text()='heart disease')]",
    "(patient/parent)*/patient[record]",
];

fn bench_document() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 150,
        departments: 6,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        visits_per_patient: 2,
        seed: 8000,
        ..Default::default()
    })
}

/// Small, pairwise-distinct private documents for the edit slice of the
/// mix — one per client, because the content-addressed store collapses
/// identical bytes to one id.
fn edit_targets(clients: usize) -> Vec<Vec<u8>> {
    (0..clients)
        .map(|i| {
            snapshot::save(&generate_hospital(&HospitalConfig {
                patients: 10,
                departments: 1,
                seed: 8001 + i as u64,
                ..Default::default()
            }))
        })
        .collect()
}

/// The subtree each edit inserts (labels the documents already intern).
fn edit_payload() -> XmlTree {
    parse_document(
        "<patient><pname>Load</pname><visit><treatment><medication>\
         <diagnosis>flu</diagnosis></medication></treatment></visit></patient>",
    )
    .expect("payload parses")
}

fn emit_json(line: &str) {
    let Ok(path) = std::env::var("SMOQE_BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(file, "{line}");
    }
}

fn spawn_server() -> Server {
    Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 0, // one per core
            queue_capacity: 256,
            service: ServiceConfig::default(),
        },
    )
    .expect("loopback server spawns")
}

/// Part 1a: wire ≡ direct, answers and stats, across two tenants.
fn correctness_report(server: &Server, doc_id: u64, doc_bytes: &[u8]) {
    let doc = bench_document();
    for tenant in ["ward-a", "ward-b"] {
        let mut client = SmoqedClient::connect(server.addr()).expect("connect");
        let reference =
            QueryService::with_config(hospital_view(), ServiceConfig::default()).unwrap();
        let store = DocumentStore::new();
        let ref_id = store.insert_snapshot(doc_bytes).unwrap();
        assert_eq!(ref_id.0, doc_id, "content addresses agree");

        for query in HOT_QUERIES.iter().chain(COLD_QUERIES) {
            let wire = client
                .query(tenant, doc_id, EvaluationMode::HyPE, query)
                .unwrap_or_else(|e| panic!("`{query}` on {tenant}: {e}"));
            let direct = reference
                .evaluate(query, store.get(ref_id).unwrap().tree(), EvaluationMode::HyPE)
                .unwrap();
            assert_eq!(
                wire,
                WireResult::from_result(&direct),
                "wire answer+stats diverged on `{query}` for {tenant}"
            );
        }
        let (wire_results, wire_stats) = client
            .batch_query(tenant, doc_id, EvaluationMode::HyPE, HOT_QUERIES)
            .expect("batch");
        let direct = reference
            .evaluate_batch(HOT_QUERIES, &doc, EvaluationMode::HyPE)
            .unwrap();
        for (w, d) in wire_results.iter().zip(&direct.results) {
            assert_eq!(w, &WireResult::from_result(d), "batch diverged for {tenant}");
        }
        assert_eq!(wire_stats.to_stats(), direct.stats, "batch stats for {tenant}");
    }
    println!("differential gate: wire answers+stats ≡ direct QueryService, 2 tenants");
}

fn load_config(clients: usize, tenant: &str, doc: u64) -> LoadConfig {
    LoadConfig {
        clients,
        requests_per_client: 160,
        tenant: tenant.to_owned(),
        doc,
        hot_queries: HOT_QUERIES.iter().map(|q| (*q).to_owned()).collect(),
        cold_queries: COLD_QUERIES.iter().map(|q| (*q).to_owned()).collect(),
        hot_percent: 80,
        batch_every: 5,
        edit_every: 9,
        edit_target_snapshots: edit_targets(clients),
        edit_payload_snapshot: snapshot::save(&edit_payload()),
        mode: EvaluationMode::HyPE,
        seed: 0x5eed_0008,
    }
}

fn server_throughput_bench(c: &mut Criterion) {
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let server = spawn_server();
    let doc = bench_document();
    let bytes = snapshot::save(&doc);
    println!(
        "# smoqed loopback server: {} live nodes, {} hot + {} cold queries, {cores} core(s)",
        doc.len(),
        HOT_QUERIES.len(),
        COLD_QUERIES.len()
    );

    // Tenants over the wire, like production would.
    let mut setup = SmoqedClient::connect(server.addr()).expect("connect");
    let mut doc_id = 0;
    for tenant in ["ward-a", "ward-b"] {
        setup.register_view(tenant, &hospital_view()).expect("register view");
        doc_id = setup.register_document(tenant, &bytes).expect("register doc");
    }

    correctness_report(&server, doc_id, &bytes);

    // Part 1b: the closed-loop load series.
    let mut qps_by_clients = Vec::new();
    for clients in [1usize, 4, 8] {
        // Both tenants share the server; the load alternates per series so
        // per-tenant caches stay warm within a series.
        let tenant = if clients % 2 == 0 { "ward-b" } else { "ward-a" };
        let report = run_load(server.addr(), &load_config(clients, tenant, doc_id));
        assert_eq!(
            report.errors, 0,
            "closed-loop load must complete without request errors"
        );
        println!(
            "load {clients:>2} client(s): {:>6.0} qps, p50 {:>5}us, p95 {:>5}us, \
             p99 {:>5}us, max {:>6}us, shed {}",
            report.qps, report.p50_us, report.p95_us, report.p99_us, report.max_us, report.shed
        );
        emit_json(&format!(
            "{{\"id\": \"server_throughput/loadgen/{clients}_clients\", \
             \"qps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"max_us\": {}, \"requests\": {}, \"shed\": {}, \"cores\": {cores}}}",
            report.qps,
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.max_us,
            report.requests,
            report.shed
        ));
        qps_by_clients.push((clients, report.qps));
    }

    // The scaling gate, armed only where concurrency can physically win.
    let qps_1 = qps_by_clients[0].1;
    let qps_8 = qps_by_clients.last().unwrap().1;
    let scaling = qps_8 / qps_1;
    let enforced = cores >= 4;
    emit_json(&format!(
        "{{\"id\": \"server_throughput/qps_scaling_gate\", \"scaling\": {scaling:.3}, \
         \"threshold\": {QPS_GATE}, \"cores\": {cores}, \"enforced\": {enforced}}}"
    ));
    if enforced {
        assert!(
            scaling >= QPS_GATE,
            "8 closed-loop clients must sustain ≥{QPS_GATE}x the QPS of 1 \
             client on {cores} cores; measured {scaling:.2}x"
        );
        println!("qps scaling gate: {scaling:.2}x (≥{QPS_GATE}x required) — PASS");
    } else {
        println!(
            "qps scaling gate: {scaling:.2}x measured, enforcement skipped \
             ({cores} core(s) < 4)"
        );
    }
    println!();

    // Part 2: Criterion timing series over the live socket.
    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(10);
    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    group.bench_function(BenchmarkId::new("solo_hot_query", "wire"), |b| {
        b.iter(|| {
            client
                .query("ward-a", doc_id, EvaluationMode::HyPE, HOT_QUERIES[0])
                .expect("query")
        })
    });
    group.bench_function(BenchmarkId::new("batched_hot_queries", "wire"), |b| {
        b.iter(|| {
            client
                .batch_query("ward-a", doc_id, EvaluationMode::HyPE, HOT_QUERIES)
                .expect("batch")
        })
    });
    group.finish();
}

criterion_group!(benches, server_throughput_bench);
criterion_main!(benches);
