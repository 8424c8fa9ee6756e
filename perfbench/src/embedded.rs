//! `embedded_xml`: the library path, where documents arrive as XML text.
//!
//! One calling thread drives an in-process `QueryService` (no socket) with
//! `parallel_threads` = 2. Per document: one `DocumentStore::insert_xml`,
//! every query once through `answer_stream` over the XML text, and
//! `evaluate_batch_parallel` over the parsed tree; then the document is
//! removed so memory stays bounded.

use std::collections::HashMap;
use std::sync::Arc;

use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig};
use smoqe_hype::HypeResult;
use smoqe_toxgene::{domain, DocShape};
use smoqe_xml::{parse_document, to_xml_string, XmlTree};

use crate::common::{now_ns, Rng};
use crate::trace::{Tracer, ROOT};
use crate::wire::{oracle_answers, GateReport, Kind, Sample, ORACLE_SAMPLE};

/// Five σ₀ queries (hot, recursive and filtered shapes). An odd count,
/// run equally often, keeps the median inside one query's latencies.
pub const QUERIES: &[&str] = &[
    "patient",
    "patient/record/diagnosis",
    "(patient/parent)*/patient",
    "//diagnosis",
    "patient[record/diagnosis/text()='heart disease' and parent]",
];

/// Hospital Standard scale: about 37k nodes, 0.8 MB of XML. At 147k nodes
/// (3.2 MB) the fastest repeats followed the host's shared-cache traffic
/// about twice as much.
pub const SCALE: usize = 8;
/// Distinct documents cycled through.
pub const DOCS: usize = 2;
pub const BATCHES_PER_DOC: usize = 2;

pub struct Inputs {
    pub texts: Vec<Arc<String>>,
    pub service: QueryService,
    pub store: DocumentStore,
}

/// Generates the XML texts and builds the service, compiling every query;
/// with a tracer, each warm-up compile is a span (the traced set-up).
pub fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Inputs {
    let hospital = domain("hospital").expect("hospital domain");
    let texts = (0..DOCS as u64)
        .map(|i| {
            Arc::new(to_xml_string(&hospital.generate(
                DocShape::Standard,
                SCALE,
                seed.wrapping_add(i),
            )))
        })
        .collect();
    let service = QueryService::with_config(
        hospital.view,
        ServiceConfig {
            parallel_threads: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("σ₀ is valid");
    match tracer {
        Some(tr) => {
            for q in QUERIES {
                tr.time("service.compile_miss", ROOT, 0, || service.compile(q))
                    .0
                    .expect("query compiles");
            }
        }
        None => {
            for q in QUERIES {
                service.compile(q).expect("query compiles");
            }
        }
    }
    Inputs {
        texts,
        service,
        store: DocumentStore::new(),
    }
}

/// What one `embedded_xml` window observed.
#[derive(Default)]
pub struct Log {
    /// Each call. A query's key is its text and a batch's is 0, whatever
    /// the document (the documents share their shape and size); an
    /// insert's key is its document.
    pub samples: Vec<Sample>,
    /// `(document index, nodes, µs)` per `insert_xml`.
    pub ingest: Vec<(u64, usize, f64)>,
    /// First result per (document, query, path) plus repeat mismatches.
    pub answers: HashMap<(usize, String, &'static str), HypeResult>,
    pub inline_mismatches: u64,
    pub max_shard: Vec<f64>,
    pub peak_resident_nodes: usize,
    pub bytes_per_node: Vec<f64>,
    pub tracer: Tracer,
}

impl Log {
    fn record(&mut self, key: (usize, String, &'static str), result: &HypeResult) {
        match self.answers.get(&key) {
            Some(seen) if seen != result => self.inline_mismatches += 1,
            Some(_) => {}
            None => {
                self.answers.insert(key, result.clone());
            }
        }
    }
}

/// Runs whole per-document cycles for about `seconds` (a cycle starts only
/// if the previous one's duration still fits), so every query and call
/// kind is measured equally often. In a traced run the first half of the
/// cycles is traced (each public call replaced by the calls it is made of,
/// in spans) and the rest is not. Returns the log and the seconds spent
/// untraced and traced.
pub fn run_window(inputs: &Inputs, seconds: f64, trace: bool) -> (Log, [f64; 2]) {
    let mut log = Log::default();
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    let switch = if trace {
        start + (seconds * 0.5e9) as u64
    } else {
        start
    };
    let (service, store) = (&inputs.service, &inputs.store);
    let mut cycle = 0usize;
    let mut last_cycle_ns = 0;
    let mut phase_ns = [0u64; 2];
    while cycle == 0 || now_ns() + last_cycle_ns <= end {
        let cycle_start = now_ns();
        let d = cycle % inputs.texts.len();
        cycle += 1;
        let text = &inputs.texts[d];
        let traced = cycle_start < switch;
        let t0 = now_ns();
        let id = if traced {
            let parent = log
                .tracer
                .record("embedded.insert", ROOT, cycle as u64, 0, 0);
            let (tree, _) = log.tracer.time("xml.parse", parent, cycle as u64, || {
                parse_document(text).expect("XML parses")
            });
            let (id, _) = log.tracer.time("store.insert", parent, cycle as u64, || {
                store.insert_tree(tree)
            });
            close(&mut log.tracer, parent, t0);
            id
        } else {
            store.insert_xml(text).expect("XML parses")
        };
        let us = (now_ns() - t0) as f64 / 1e3;
        let stored = store.get(id).expect("inserted");
        let nodes = stored.tree().len();
        log.samples.push(Sample {
            traced,
            kind: Kind::Register,
            us,
            key: d as u64,
        });
        log.ingest.push((d as u64, nodes, us));
        log.peak_resident_nodes = log.peak_resident_nodes.max(nodes);
        log.bytes_per_node.push(
            (stored.tree().approximate_byte_size() + stored.snapshot_bytes().len()) as f64
                / nodes as f64,
        );
        for (qi, q) in QUERIES.iter().enumerate() {
            let t0 = now_ns();
            let result = if traced {
                let req = cycle as u64;
                let parent = log.tracer.record("embedded.query", ROOT, req, 0, 0);
                let s = now_ns();
                let before = service.stats().compiled_misses;
                let compiled = service.compile(q).expect("query compiles");
                let e = now_ns();
                let name = if service.stats().compiled_misses > before {
                    "service.compile_miss"
                } else {
                    "service.compile_hit"
                };
                log.tracer.record(name, parent, req, s, e);
                let (r, _) = log.tracer.time("stream.eval", parent, req, || {
                    compiled
                        .evaluate_stream(text.as_bytes())
                        .expect("stream evaluates")
                });
                close(&mut log.tracer, parent, t0);
                r.0
            } else {
                service
                    .answer_stream(q, text.as_bytes())
                    .expect("stream evaluates")
                    .0
            };
            log.samples.push(Sample {
                traced,
                kind: Kind::Query,
                us: (now_ns() - t0) as f64 / 1e3,
                key: qi as u64,
            });
            log.record((d, q.to_string(), "stream"), &result);
        }
        for _ in 0..BATCHES_PER_DOC {
            let t0 = now_ns();
            let batch = if traced {
                let parent = log
                    .tracer
                    .record("embedded.batch", ROOT, cycle as u64, 0, 0);
                let (b, _) = log.tracer.time("parallel.eval", parent, cycle as u64, || {
                    service.evaluate_batch_parallel(QUERIES, stored.tree(), EvaluationMode::HyPE)
                });
                close(&mut log.tracer, parent, t0);
                b
            } else {
                service.evaluate_batch_parallel(QUERIES, stored.tree(), EvaluationMode::HyPE)
            }
            .expect("batch evaluates");
            log.samples.push(Sample {
                traced,
                kind: Kind::Batch,
                us: (now_ns() - t0) as f64 / 1e3,
                key: 0,
            });
            log.max_shard.push(service.stats().last_max_shard_fraction);
            for (q, r) in QUERIES.iter().zip(&batch.results) {
                log.record((d, q.to_string(), "batch"), r);
            }
        }
        drop(stored);
        service.remove_document(store, id);
        last_cycle_ns = now_ns() - cycle_start;
        phase_ns[usize::from(traced)] += last_cycle_ns;
    }
    (log, phase_ns.map(|ns| ns as f64 / 1e9))
}

/// Sets a placeholder parent span's interval once its children are done.
fn close(tracer: &mut Tracer, parent: u32, start: u64) {
    tracer.set_interval(parent, start, now_ns());
}

/// Compares every distinct streamed and sharded answer against the
/// sequential tree path of a fresh `QueryService`, and a seeded sample
/// against the materialize-then-evaluate oracle.
pub fn check(inputs: &Inputs, log: &Log, seed: u64) -> GateReport {
    let mut report = GateReport {
        mismatches: log.inline_mismatches,
        ..Default::default()
    };
    if log.inline_mismatches > 0 {
        report.fail("repeated answers differed".into());
    }
    let hospital = domain("hospital").expect("hospital domain");
    let reference = QueryService::new(hospital.view.clone()).expect("σ₀ is valid");
    let mut keys: Vec<&(usize, String, &'static str)> = log.answers.keys().collect();
    keys.sort();
    let mut rng = Rng::fork(seed, 40);
    let sample: Vec<_> = (0..ORACLE_SAMPLE.min(keys.len()))
        .map(|_| keys[rng.below(keys.len())].clone())
        .collect();
    let mut trees: HashMap<usize, XmlTree> = HashMap::new();
    for key in keys {
        let tree = trees
            .entry(key.0)
            .or_insert_with(|| parse_document(&inputs.texts[key.0]).expect("XML parses"));
        let expected = reference
            .evaluate(&key.1, tree, EvaluationMode::HyPE)
            .expect("reference evaluates");
        report.checked += 1;
        if log.answers[key] != expected {
            report.mismatches += 1;
            report.fail(format!("{} vs tree on doc {} `{}`", key.2, key.0, key.1));
        }
        if sample.contains(key) {
            report.oracle_checked += 1;
            let got: Vec<u32> = expected.answers.iter().map(|n| n.0).collect();
            if oracle_answers(&hospital.view, tree, &key.1) != got {
                report.oracle_mismatches += 1;
                report.fail(format!("oracle on doc {} `{}`", key.0, key.1));
            }
        }
    }
    report
}
