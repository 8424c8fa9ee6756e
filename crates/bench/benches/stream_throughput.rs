//! Streaming evaluation throughput (PR 3) — StreamHype over raw XML events
//! vs parse-then-HyPE over the materialized tree.
//!
//! Two parts:
//!
//! 1. A **constant-memory report** (printed first). For the mid-sized
//!    hospital document it *asserts* the PR's acceptance criteria — so the
//!    bench doubles as a smoke test in CI:
//!    * streaming evaluation performs **zero arena-node allocations**
//!      (checked via `smoqe_xml::node_allocations`),
//!    * the evaluator's working set is **O(depth)**: its peak live-frame
//!      count is bounded by the document's maximal nesting depth (13-ish),
//!      not by its node count (hundreds of thousands),
//!    * streamed answers equal the tree engine's on the re-parsed document.
//!
//!    It also reports events/second for the raw reader and for full
//!    evaluation, solo and batched, and MB/s of XML for the raw reader and
//!    for `parse_document` (best of five passes each).
//! 2. **Timing series** (Criterion): `parse_then_hype` (arena build + tree
//!    pass) vs `stream_hype` (one incremental pass), solo and with the
//!    10-query batch workload.
//!
//! Run with: `cargo bench --bench stream_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per timing.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

use smoqe_automata::{compile_query, Mfa};
use smoqe_bench::{batch_workload_queries, medium_document};
use smoqe_hype::{evaluate, evaluate_stream, evaluate_stream_batch, BatchQuery};
use smoqe_xml::stream::EventSource;
use smoqe_xml::{node_allocations, parse_document, to_xml_string, XmlStreamReader};
use smoqe_xpath::parse_path;

/// The solo query the report and the solo timings use: broad enough to keep
/// most of the document live, so the comparison is about the substrate, not
/// about pruning luck.
const SOLO_QUERY: &str = "//diagnosis";

fn compile_workload() -> Vec<Mfa> {
    batch_workload_queries()
        .into_iter()
        .map(|q| compile_query(&parse_path(q).expect("workload query parses")))
        .collect()
}

/// The fastest of five timed runs of `f`, in seconds.
fn best_secs(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Part 1: acceptance-criteria assertions plus the events/sec report.
fn constant_memory_report(xml: &str, solo: &Mfa, workload: &[Mfa]) {
    let tree = parse_document(xml).expect("workload document parses");
    println!(
        "# Streaming throughput on a {}-node ({:.1} MB) hospital document, depth {}",
        tree.len(),
        xml.len() as f64 / 1e6,
        tree.max_depth()
    );

    // Raw reader speed (no evaluation attached) and tree-parse speed, each
    // the best of a few passes.
    let mut events = 0usize;
    let reader_secs = best_secs(|| {
        let mut reader = XmlStreamReader::new(xml.as_bytes());
        events = 0;
        while let Some(event) = reader.next_event().expect("document re-streams") {
            let _ = std::hint::black_box(&event);
            events += 1;
        }
    });
    let parse_secs = best_secs(|| {
        std::hint::black_box(parse_document(xml).expect("document re-parses"));
    });

    // Solo streamed evaluation: zero allocations, O(depth) frames, answers
    // equal to the tree engine's.
    let allocations_before = node_allocations();
    let start = Instant::now();
    let mut reader = XmlStreamReader::new(xml.as_bytes());
    let (streamed, stats) = evaluate_stream(&mut reader, solo).expect("streamed run succeeds");
    let solo_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        node_allocations(),
        allocations_before,
        "streaming evaluation must never materialize an arena tree"
    );
    assert!(
        stats.peak_frames <= tree.max_depth(),
        "peak frames {} exceeded the document depth {} — memory is not O(depth)",
        stats.peak_frames,
        tree.max_depth()
    );
    let on_tree = evaluate(&tree, solo);
    assert_eq!(
        streamed.answers, on_tree.answers,
        "streamed answers must equal the tree engine's"
    );
    assert_eq!(streamed.stats, on_tree.stats, "streamed stats must equal the tree engine's");

    // Batched streamed evaluation: same assertions, N queries in one pass.
    let batch_queries: Vec<BatchQuery> = workload.iter().map(BatchQuery::new).collect();
    let allocations_before = node_allocations();
    let start = Instant::now();
    let mut reader = XmlStreamReader::new(xml.as_bytes());
    let batch = evaluate_stream_batch(&mut reader, &batch_queries).expect("batched run succeeds");
    let batch_secs = start.elapsed().as_secs_f64();
    assert_eq!(node_allocations(), allocations_before, "batched streaming allocated nodes");
    assert!(batch.stats.peak_frames <= tree.max_depth());

    let mb = xml.len() as f64 / 1e6;
    println!(
        "reader only: {:>7.1} MB/s   parse_document: {:>7.1} MB/s",
        mb / reader_secs,
        mb / parse_secs,
    );
    println!(
        "events: {events}   reader only: {:>7.2} Mev/s   solo eval: {:>7.2} Mev/s   {}-query batch: {:>7.2} Mev/s",
        events as f64 / reader_secs / 1e6,
        events as f64 / solo_secs / 1e6,
        workload.len(),
        events as f64 / batch_secs / 1e6,
    );
    println!(
        "peak depth: {}   peak frames (solo): {}   peak frames (batch): {}   nodes: {}   => working set is O(depth)",
        stats.peak_depth,
        stats.peak_frames,
        batch.stats.peak_frames,
        tree.len()
    );
    println!();
}

/// Part 2: wall-clock timing of the two substrates.
fn timing(c: &mut Criterion, xml: &str, solo: &Mfa, workload: &[Mfa]) {
    let mut group = c.benchmark_group("stream_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_with_input(BenchmarkId::new("parse_then_hype", "solo"), xml, |b, xml| {
        b.iter(|| {
            let tree = parse_document(xml).expect("parses");
            evaluate(&tree, solo).answers.len()
        })
    });
    group.bench_with_input(BenchmarkId::new("stream_hype", "solo"), xml, |b, xml| {
        b.iter(|| {
            let mut reader = XmlStreamReader::new(xml.as_bytes());
            evaluate_stream(&mut reader, solo).expect("streams").0.answers.len()
        })
    });

    let batch_label = format!("{}q", workload.len());
    group.bench_with_input(
        BenchmarkId::new("parse_then_hype_batched", &batch_label),
        xml,
        |b, xml| {
            let queries: Vec<BatchQuery> = workload.iter().map(BatchQuery::new).collect();
            b.iter(|| {
                let tree = parse_document(xml).expect("parses");
                smoqe_hype::evaluate_batch(&tree, &queries)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("stream_hype_batched", &batch_label),
        xml,
        |b, xml| {
            let queries: Vec<BatchQuery> = workload.iter().map(BatchQuery::new).collect();
            b.iter(|| {
                let mut reader = XmlStreamReader::new(xml.as_bytes());
                evaluate_stream_batch(&mut reader, &queries)
                    .expect("streams")
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn stream_throughput(c: &mut Criterion) {
    let xml = to_xml_string(&medium_document());
    let solo = compile_query(&parse_path(SOLO_QUERY).expect("solo query parses"));
    let workload = compile_workload();
    constant_memory_report(&xml, &solo, &workload);
    timing(c, &xml, &solo, &workload);
}

criterion_group!(benches, stream_throughput);
criterion_main!(benches);
