//! Batched multi-query throughput (PR 2) — N queries per document pass vs
//! N sequential passes, plus the query-service cache.
//!
//! Two parts:
//!
//! 1. A **visit-count report** (printed first): for the batch workload on
//!    the mid-sized hospital document, the physical node visits of one
//!    batched pass vs the sum of N sequential HyPE runs, in both pruning
//!    modes. The report *asserts* the PR's acceptance criterion — batched
//!    evaluation performs strictly fewer total node visits than the
//!    sequential sum — so the bench doubles as a smoke test in CI.
//! 2. **Timing series** (Criterion): `sequential` vs `batched` vs the
//!    warm-cache `service` front-end, per pruning mode.
//!
//! Run with: `cargo bench --bench batch_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per timing.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

use smoqe::{EvaluationMode, QueryService};
use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_bench::{batch_workload_queries, medium_document};
use smoqe_hype::{
    evaluate_batch_compiled, evaluate_compiled_at_with, CompiledBatchQuery, ReachabilityIndex,
};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// The workload's execution IRs, compiled once, outside every timed loop.
fn compile_workload() -> Vec<Arc<CompiledMfa>> {
    batch_workload_queries()
        .into_iter()
        .map(|q| {
            let mfa = compile_query(&parse_path(q).expect("workload query parses"));
            Arc::new(CompiledMfa::new(&mfa))
        })
        .collect()
}

fn build_indexes(mfas: &[Arc<CompiledMfa>], doc: &XmlTree) -> Vec<ReachabilityIndex> {
    let dtd = hospital_document_dtd();
    mfas.iter()
        .map(|m| ReachabilityIndex::for_compiled(m, &dtd, doc.labels(), false))
        .collect()
}

/// Plain or indexed HyPE of one IR at the root of `doc`.
fn evaluate(
    doc: &XmlTree,
    ir: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
) -> smoqe_hype::HypeResult {
    evaluate_compiled_at_with(doc, doc.root(), ir, index)
}

/// Part 1: the visit-count report and the acceptance-criterion assertions.
fn visit_report(doc: &XmlTree, mfas: &[Arc<CompiledMfa>], indexes: &[ReachabilityIndex]) {
    println!(
        "# Batched throughput on a {}-node hospital document, {} queries",
        doc.len(),
        mfas.len()
    );
    for (mode, batch_queries) in [
        (
            "HyPE",
            mfas.iter()
                .map(|m| CompiledBatchQuery::new(Arc::clone(m)))
                .collect::<Vec<_>>(),
        ),
        (
            "OptHyPE",
            mfas.iter()
                .zip(indexes)
                .map(|(m, i)| CompiledBatchQuery::with_index(Arc::clone(m), i))
                .collect::<Vec<_>>(),
        ),
    ] {
        let batch = evaluate_batch_compiled(doc, &batch_queries);
        let sequential: usize = batch_queries
            .iter()
            .map(|q| evaluate(doc, &q.compiled, q.index).stats.nodes_visited)
            .sum();
        assert_eq!(
            batch.stats.sequential_node_visits, sequential,
            "per-query accounting must equal the solo runs ({mode})"
        );
        assert!(
            batch.stats.nodes_visited < sequential,
            "{mode}: batched pass must visit strictly fewer nodes \
             ({} batched vs {} sequential)",
            batch.stats.nodes_visited,
            sequential
        );
        println!(
            "{mode:<8} sequential visits: {sequential:>8}   batched visits: {:>8}   \
             saved: {:>8} ({:.2}x sharing)",
            batch.stats.nodes_visited,
            batch.stats.visits_saved(),
            batch.stats.sharing_factor()
        );
    }
    println!();
}

/// Part 2: wall-clock timing of the three serving strategies.
fn timing(
    c: &mut Criterion,
    doc: &XmlTree,
    mfas: &[Arc<CompiledMfa>],
    indexes: &[ReachabilityIndex],
) {
    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let doc_label = format!("{}q", mfas.len());
    group.bench_with_input(
        BenchmarkId::new("sequential_HyPE", &doc_label),
        doc,
        |b, doc| {
            b.iter(|| {
                mfas.iter()
                    .map(|m| evaluate(doc, m, None).answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched_HyPE", &doc_label),
        doc,
        |b, doc| {
            let queries: Vec<CompiledBatchQuery> =
                mfas.iter().map(|m| CompiledBatchQuery::new(Arc::clone(m))).collect();
            b.iter(|| {
                evaluate_batch_compiled(doc, &queries)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("sequential_OptHyPE", &doc_label),
        doc,
        |b, doc| {
            b.iter(|| {
                mfas.iter()
                    .zip(indexes)
                    .map(|(m, i)| evaluate(doc, m, Some(i)).answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched_OptHyPE", &doc_label),
        doc,
        |b, doc| {
            let queries: Vec<CompiledBatchQuery> = mfas
                .iter()
                .zip(indexes)
                .map(|(m, i)| CompiledBatchQuery::with_index(Arc::clone(m), i))
                .collect();
            b.iter(|| {
                evaluate_batch_compiled(doc, &queries)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );

    // The service front-end over the σ₀ view: repeated view queries with a
    // warm compiled-query + index cache, batched vs one-at-a-time.
    let service = QueryService::hospital_demo();
    let view_queries = [
        "patient",
        "patient/record/diagnosis",
        "(patient/parent)*/patient[record]",
        "patient[not(parent)]",
        "patient[*//record/diagnosis/text()='heart disease']",
    ];
    for q in view_queries {
        service.evaluate(q, doc, EvaluationMode::OptHyPE).unwrap(); // warm the caches
    }
    group.bench_with_input(
        BenchmarkId::new("service_sequential_OptHyPE", view_queries.len()),
        doc,
        |b, doc| {
            b.iter(|| {
                view_queries
                    .iter()
                    .map(|q| {
                        service
                            .evaluate(q, doc, EvaluationMode::OptHyPE)
                            .unwrap()
                            .answers
                            .len()
                    })
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("service_batched_OptHyPE", view_queries.len()),
        doc,
        |b, doc| {
            b.iter(|| {
                service
                    .evaluate_batch(&view_queries, doc, EvaluationMode::OptHyPE)
                    .unwrap()
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn batch_throughput(c: &mut Criterion) {
    let doc = medium_document();
    let mfas = compile_workload();
    let indexes = build_indexes(&mfas, &doc);
    visit_report(&doc, &mfas, &indexes);
    timing(c, &doc, &mfas, &indexes);
}

criterion_group!(benches, batch_throughput);
criterion_main!(benches);
