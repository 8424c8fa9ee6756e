//! Per-layer metrics of the traced run, and the probes that measure a
//! layer on the workload's own inputs when the workload's traffic does not
//! cross it (the record says which source each layer came from).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig};
use smoqe_views::ViewDefinition;
use smoqe_xml::{parse_document, to_xml_string, EditOp, EventSource, XmlStreamReader, XmlTree};
use smoqed::{Server, ServerConfig};

use crate::common::{median, percentile, ratio, sorted, Json, Metrics};
use crate::replay::{Replay, Replayer, HANDLER_LAYERS};
use crate::trace::{Tracer, ROOT};
use crate::wire::{Conn, Kind, SharedReplayer, TenantSpec};

/// The per-layer metric names, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("server.residual_us", "us"),
    ("server.residual_p99_us", "us"),
    ("server.residual_share", "ratio"),
    ("server.shed", "count"),
    ("server.protocol_errors", "count"),
    ("tenant.handle_us", "us"),
    ("tenant.self_us", "us"),
    ("store.get_us", "us"),
    ("store.insert_us", "us"),
    ("store.apply_edit_us", "us"),
    ("store.bytes_per_node", "bytes"),
    ("store.resident_nodes", "count"),
    ("xml.snapshot_load_us", "us"),
    ("xml.parse_us", "us"),
    ("xml.stream_events_per_s", "1/s"),
    ("service.compile_hit_us", "us"),
    ("service.compile_hit_ratio", "ratio"),
    ("service.index_hit_ratio", "ratio"),
    ("service.index_invalidations", "count"),
    ("compile.miss_us", "us"),
    ("xpath.parse_us", "us"),
    ("xpath.normalize_us", "us"),
    ("rewrite.mfa_us", "us"),
    ("automata.ir_us", "us"),
    ("automata.mfa_states", "count"),
    ("index.build_us", "us"),
    ("index.extra_pruned", "count"),
    ("index.useful_ratio", "ratio"),
    ("hype.eval_us", "us"),
    ("hype.batch_us", "us"),
    ("hype.nodes_visited", "count"),
    ("hype.visit_ratio", "ratio"),
    ("hype.cans_vertices", "count"),
    ("hype.afa_values", "count"),
    ("hype.nodes_per_s", "1/s"),
    ("stream.eval_us", "us"),
    ("parallel.eval_us", "us"),
    ("parallel.max_shard_fraction", "ratio"),
    ("trace.overhead.qps", "ratio"),
    ("trace.overhead.query_best_us", "ratio"),
    ("trace.overhead.batch_best_us", "ratio"),
    ("trace.overhead.setup_s", "ratio"),
    ("trace.peak_rss_mb", "MB"),
];

/// The per-layer metrics in `LAYER_METRICS` order; every name must be set.
pub fn in_order(m: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        let value = m
            .get(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        out.set(name, value, unit);
    }
    out
}

/// Server and service counter deltas over the timed window.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub shed: u64,
    pub protocol_errors: u64,
    pub compiled_hits: u64,
    pub compiled_misses: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub index_invalidations: u64,
}

/// What the probes measured beyond spans.
#[derive(Default)]
pub struct ProbeOut {
    pub events_per_s: Vec<f64>,
    pub extra_pruned: u64,
    pub useful: u64,
    pub pairs: u64,
    pub max_shard: Vec<f64>,
    pub per_item: Vec<Pruning>,
}

/// Index pruning over one probed input, every query of its corpus.
pub struct Pruning {
    pub name: String,
    pub nodes: usize,
    pub queries: u64,
    /// HyPE `nodes_visited`, summed over the queries.
    pub hype_visits: u64,
    /// HyPE minus OptHyPE `nodes_visited`, summed.
    pub extra_pruned: u64,
    /// Queries where OptHyPE visited fewer nodes.
    pub useful: u64,
}

/// One probed input: a view, a document and the queries the workload
/// poses over it.
pub struct ProbeItem {
    pub name: String,
    pub view: ViewDefinition,
    pub tree: Arc<XmlTree>,
    pub queries: Vec<String>,
}

/// Queries per item for the costly probes (streaming, sharded).
const PROBE_QUERIES: usize = 3;

/// Measures, on the workload's inputs, every library layer `need` names:
/// the XML parser and reader, streaming and sharded evaluation, index
/// builds, store edits. Index pruning (HyPE vs OptHyPE visits for the same
/// query and document) is always measured, over every query of each item.
pub fn probe_library(
    tr: &mut Tracer,
    items: &[ProbeItem],
    need: &dyn Fn(&str) -> bool,
) -> ProbeOut {
    let mut out = ProbeOut::default();
    for item in items {
        let service = QueryService::with_config(
            item.view.clone(),
            ServiceConfig {
                parallel_threads: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("view valid");
        let tree = &*item.tree;
        let few: Vec<&str> = item
            .queries
            .iter()
            .take(PROBE_QUERIES)
            .map(String::as_str)
            .collect();
        if need("xml.parse") || need("stream.eval") || need("xml.events") {
            let xml = to_xml_string(tree);
            if need("xml.parse") {
                tr.time("xml.parse", ROOT, 0, || {
                    parse_document(&xml).expect("own XML parses").len()
                });
            }
            if need("xml.events") {
                let start = Instant::now();
                let mut reader = XmlStreamReader::new(xml.as_bytes());
                let mut events = 0u64;
                while let Ok(Some(_)) = reader.next_event() {
                    events += 1;
                }
                out.events_per_s
                    .push(events as f64 / start.elapsed().as_secs_f64());
            }
            if need("stream.eval") {
                for q in &few {
                    let Ok(compiled) = service.compile(q) else {
                        continue;
                    };
                    tr.time("stream.eval", ROOT, 0, || {
                        compiled
                            .evaluate_stream(xml.as_bytes())
                            .expect("own XML streams")
                            .0
                    });
                }
            }
        }
        if need("parallel.eval") {
            tr.time("parallel.eval", ROOT, 0, || {
                service
                    .evaluate_batch_parallel(&few, tree, EvaluationMode::HyPE)
                    .expect("probe batch evaluates")
            });
            out.max_shard.push(service.stats().last_max_shard_fraction);
        }
        let dtd = item.view.document_dtd();
        let mut pruning = Pruning {
            name: item.name.clone(),
            nodes: tree.len(),
            queries: 0,
            hype_visits: 0,
            extra_pruned: 0,
            useful: 0,
        };
        for q in &item.queries {
            let Ok(compiled) = service.compile(q) else {
                continue;
            };
            let hype = compiled.evaluate(tree).stats.nodes_visited as u64;
            let index = if need("index.build") {
                tr.time("index.build", ROOT, 0, || {
                    compiled.build_index(dtd, tree, false)
                })
                .0
            } else {
                compiled.build_index(dtd, tree, false)
            };
            let opt = smoqe_hype::evaluate_compiled_at_with(
                tree,
                tree.root(),
                compiled.compiled(),
                Some(&index),
            )
            .stats
            .nodes_visited as u64;
            pruning.queries += 1;
            pruning.hype_visits += hype;
            pruning.extra_pruned += hype.saturating_sub(opt);
            pruning.useful += u64::from(opt < hype);
        }
        out.extra_pruned += pruning.extra_pruned;
        out.useful += pruning.useful;
        out.pairs += pruning.queries;
        out.per_item.push(pruning);
        if need("store.apply_edit") {
            let store = DocumentStore::new();
            let id = store.insert_tree((*tree).clone());
            if let Some(&last) = tree.children(tree.root()).last() {
                tr.time("store.apply_edit", ROOT, 0, || {
                    service
                        .apply_edit(&store, id, &[EditOp::Delete { node: last }])
                        .is_ok()
                });
            }
        }
    }
    out
}

/// Drives the socket layers with the workload's own inputs (for a
/// workload whose traffic never touches a socket): a one-worker server,
/// the document registered, each query solo in HyPE and OptHyPE, one batch.
pub fn probe_wire(tenant: &TenantSpec, tree: &XmlTree) -> Replay {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("loopback server spawns");
    let replayer = Arc::new(Mutex::new(Replayer::new(std::slice::from_ref(tenant))));
    let mut conn = Conn::connect(server.addr(), 0).expect("probe connects");
    conn.trace = true;
    conn.replayer = Some(Arc::clone(&replayer));
    conn.register_view(&tenant.name, &tenant.view);
    let bytes = Arc::new(smoqe_xml::snapshot::save(tree));
    let doc = conn
        .register_document(&tenant.name, &bytes)
        .expect("probe document registers");
    for mode in [EvaluationMode::HyPE, EvaluationMode::OptHyPE] {
        for q in &tenant.queries {
            conn.exchange(
                Kind::Query,
                smoqed::Request::Query {
                    tenant: tenant.name.clone(),
                    doc,
                    mode,
                    query: q.clone(),
                },
            );
        }
    }
    conn.exchange(
        Kind::Batch,
        smoqed::Request::BatchQuery {
            tenant: tenant.name.clone(),
            doc,
            mode: EvaluationMode::HyPE,
            queries: tenant.queries.clone(),
        },
    );
    drop(conn);
    server.shutdown();
    finish_replay(replayer)
}

/// The replay's results once every connection holding it has finished.
pub fn finish_replay(replayer: SharedReplayer) -> Replay {
    Arc::try_unwrap(replayer)
        .ok()
        .expect("no connection still holds the replayer")
        .into_inner()
        .expect("replayer lock")
        .finish()
}

/// Layer sums of one request kind: median wire round trip beside the median
/// of (client codec + replayed server-side layers).
pub struct LayerSum {
    pub kind: Kind,
    pub n: usize,
    pub rtt_us: f64,
    pub layers_us: f64,
    pub residual_us: f64,
    pub rtt_total_us: f64,
    pub residual_total_us: f64,
}

pub fn layer_sums(rp: &Replay) -> Vec<LayerSum> {
    let tr = &rp.tracer;
    let mut rtt: HashMap<u64, f64> = HashMap::new();
    let mut server: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut child_sum: HashMap<u32, f64> = HashMap::new();
    for s in tr.spans() {
        if s.parent != ROOT {
            *child_sum.entry(s.parent).or_default() += s.dur_ns() as f64 / 1e3;
        }
    }
    for s in tr.spans() {
        match s.name {
            "client.request" => {
                rtt.insert(s.req, s.dur_ns() as f64 / 1e3);
            }
            "server" => {
                let replayed = child_sum.get(&s.id).copied().unwrap_or(0.0);
                server.insert(s.req, (s.dur_ns() as f64 / 1e3, replayed));
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let (mut r, mut l, mut res) = (Vec::new(), Vec::new(), Vec::new());
        for &(k, req, _) in &rp.requests {
            if k != kind {
                continue;
            }
            let (Some(&total), Some(&(srv, replayed))) = (rtt.get(&req), server.get(&req)) else {
                continue;
            };
            r.push(total);
            l.push(total - srv + replayed);
            res.push(srv - replayed);
        }
        if !r.is_empty() {
            out.push(LayerSum {
                kind,
                n: r.len(),
                rtt_us: median(&r),
                layers_us: median(&l),
                residual_us: median(&res),
                rtt_total_us: r.iter().sum(),
                residual_total_us: res.iter().sum(),
            });
        }
    }
    out
}

/// Fills the per-layer metrics from replayed traffic spans, probe spans
/// and counters. Returns, per metric, whether it came from traffic or a probe.
pub fn layer_metrics(
    traffic: &Replay,
    probe: &Tracer,
    probe_out: &ProbeOut,
    counters: Counters,
    store_stats: (f64, f64),
    extra: &Metrics,
) -> (Metrics, Json) {
    let mut m = Metrics::default();
    let mut sources = Json::obj();
    let t_self = traffic.tracer.self_times_us();
    let p_self = probe.self_times_us();
    let durations = |tr: &Tracer, name: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    // A span's samples from traffic if any, else from the probe.
    let mut pick = |name: &'static str, total: bool| -> Vec<f64> {
        let from_traffic = if total {
            durations(&traffic.tracer, name)
        } else {
            t_self.get(name).cloned().unwrap_or_default()
        };
        if !from_traffic.is_empty() {
            sources.push(name, "traffic");
            return from_traffic;
        }
        sources.push(name, "probe");
        if total {
            durations(probe, name)
        } else {
            p_self.get(name).cloned().unwrap_or_default()
        }
    };
    let med = |v: Vec<f64>| median(&v);

    let per_req = |names: &[&str]| -> Vec<f64> {
        traffic.tracer.sum_by_request(names).into_values().collect()
    };
    m.set(
        "protocol.encode_us",
        median(&per_req(&[
            "protocol.encode_request",
            "protocol.encode_response",
        ])),
        "us",
    );
    m.set(
        "protocol.decode_us",
        median(&per_req(&[
            "protocol.decode_request",
            "protocol.decode_response",
        ])),
        "us",
    );
    let bytes: Vec<f64> = traffic.requests.iter().map(|r| r.2 as f64).collect();
    m.set("protocol.response_bytes", median(&bytes), "bytes");
    let residual = t_self.get("server").cloned().unwrap_or_default();
    m.set("server.residual_us", median(&residual), "us");
    m.set(
        "server.residual_p99_us",
        percentile(&sorted(&residual), 99.0),
        "us",
    );
    let rtt = durations(&traffic.tracer, "client.request");
    m.set(
        "server.residual_share",
        ratio(median(&residual), median(&rtt)),
        "ratio",
    );
    m.set("server.shed", counters.shed as f64, "count");
    m.set(
        "server.protocol_errors",
        counters.protocol_errors as f64,
        "count",
    );

    let handle: HashMap<u64, f64> = traffic.tracer.sum_by_request(&["tenant.handle"]);
    let inner = traffic.tracer.sum_by_request(HANDLER_LAYERS);
    let self_us: Vec<f64> = handle
        .iter()
        .map(|(req, h)| h - inner.get(req).copied().unwrap_or(0.0))
        .collect();
    m.set(
        "tenant.handle_us",
        median(&handle.values().copied().collect::<Vec<_>>()),
        "us",
    );
    m.set("tenant.self_us", median(&self_us), "us");

    m.set("store.get_us", med(pick("store.get", false)), "us");
    m.set("store.insert_us", med(pick("store.insert", false)), "us");
    m.set(
        "store.apply_edit_us",
        med(pick("store.apply_edit", false)),
        "us",
    );
    m.set("store.bytes_per_node", store_stats.0, "bytes");
    m.set("store.resident_nodes", store_stats.1, "count");

    m.set(
        "xml.snapshot_load_us",
        med(pick("xml.snapshot_load", false)),
        "us",
    );
    m.set("xml.parse_us", med(pick("xml.parse", false)), "us");
    m.set(
        "xml.stream_events_per_s",
        median(&probe_out.events_per_s),
        "1/s",
    );

    m.set(
        "service.compile_hit_us",
        med(pick("service.compile_hit", false)),
        "us",
    );
    let hit_ratio = |hits: u64, misses: u64| 1.0 - ratio(misses as f64, (hits + misses) as f64);
    m.set(
        "service.compile_hit_ratio",
        hit_ratio(counters.compiled_hits, counters.compiled_misses),
        "ratio",
    );
    m.set(
        "service.index_hit_ratio",
        hit_ratio(counters.index_hits, counters.index_misses),
        "ratio",
    );
    m.set(
        "service.index_invalidations",
        counters.index_invalidations as f64,
        "count",
    );

    m.set("compile.miss_us", med(pick("compile.miss", true)), "us");
    m.set("xpath.parse_us", med(pick("xpath.parse", false)), "us");
    m.set(
        "xpath.normalize_us",
        med(pick("xpath.normalize", false)),
        "us",
    );
    m.set("rewrite.mfa_us", med(pick("rewrite.mfa", false)), "us");
    m.set("automata.ir_us", med(pick("automata.ir", false)), "us");
    let states: Vec<f64> = traffic
        .compiles
        .iter()
        .map(|c| c.mfa_states as f64)
        .collect();
    m.set("automata.mfa_states", median(&states), "count");

    m.set("index.build_us", med(pick("index.build", false)), "us");
    m.set("index.extra_pruned", probe_out.extra_pruned as f64, "count");
    m.set(
        "index.useful_ratio",
        ratio(probe_out.useful as f64, probe_out.pairs as f64),
        "ratio",
    );

    m.set("hype.eval_us", med(pick("hype.eval", false)), "us");
    m.set("hype.batch_us", med(pick("hype.batch", false)), "us");
    let evals = &traffic.evals;
    let col = |f: &dyn Fn(&smoqe_hype::HypeStats) -> usize| -> Vec<f64> {
        evals.iter().map(|e| f(&e.stats) as f64).collect()
    };
    m.set(
        "hype.nodes_visited",
        median(&col(&|s| s.nodes_visited)),
        "count",
    );
    let visited: f64 = evals.iter().map(|e| e.stats.nodes_visited as f64).sum();
    let total: f64 = evals.iter().map(|e| e.stats.nodes_total as f64).sum();
    let secs: f64 = evals.iter().map(|e| e.us / 1e6).sum();
    m.set("hype.visit_ratio", ratio(visited, total), "ratio");
    m.set(
        "hype.cans_vertices",
        median(&col(&|s| s.cans_vertices)),
        "count",
    );
    m.set(
        "hype.afa_values",
        median(&col(&|s| s.afa_values_computed)),
        "count",
    );
    m.set("hype.nodes_per_s", ratio(visited, secs), "1/s");

    m.set("stream.eval_us", med(pick("stream.eval", false)), "us");
    m.set("parallel.eval_us", med(pick("parallel.eval", false)), "us");
    m.set(
        "parallel.max_shard_fraction",
        median(&probe_out.max_shard),
        "ratio",
    );
    for (name, value, unit) in &extra.0 {
        m.set(name, *value, unit);
    }
    (m, sources)
}
