//! Server-side decomposition of the traced wire requests.
//!
//! Every traced request is replayed, right after its answer arrived, on
//! two in-process mirror `TenantRegistry`s that see the same views,
//! documents and request sequence as the server:
//!
//! * mirror A runs the request as the server's dispatch does, one public
//!   layer call at a time, each in its own span under the request's
//!   `server` span: `decode_request`, `TenantRegistry::get`,
//!   `DocumentStore::get`, `QueryService::compile`, `build_index` on index
//!   misses, `evaluate_compiled_at_with` / `evaluate_batch_compiled`,
//!   `WireResult::from_result`, `encode_response`;
//! * mirror B times one whole `handle_request`, which catches time the
//!   decomposition cannot attribute.
//!
//! The two responses must agree; a disagreement means the decomposition
//! no longer follows the server's dispatch. The `server` span's self time
//! (wire interval minus the replayed layers) is the residual: socket,
//! frame I/O, admission queue and worker-rotation wait.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use smoqe::{
    CompiledQuery, DocId, EditReceipt, QueryService, ServiceConfig, SmoqeEngine, StoredDocument,
};
use smoqe_automata::CompiledMfa;
use smoqe_hype::{CompiledBatchQuery, HypeStats, ReachabilityIndex};
use smoqe_xml::{snapshot, Dtd, EditOp, NodeId};
use smoqed::protocol::WireBatchStats;
use smoqed::{
    decode_request, encode_request, encode_response, handle_request, Request, Response,
    ServerCounters, TenantRegistry, WireEditOp, WireResult,
};

use crate::common::now_ns;
use crate::trace::{Tracer, ROOT};
use crate::wire::{Exchange, Kind, TenantSpec};

/// Layers `handle_request` covers (everything but the codec).
pub const HANDLER_LAYERS: &[&str] = &[
    "store.get",
    "store.insert",
    "store.apply_edit",
    "tenant.decode_ops",
    "service.compile_hit",
    "service.compile_miss",
    "index.build",
    "hype.eval",
    "hype.batch",
];

/// The reachability-index cache of one tenant, kept by the replay with the
/// service's key, capacity, invalidation and taint rules, so index builds
/// happen where the server's would.
struct IndexCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<(String, u64, bool), (Arc<ReachabilityIndex>, u64)>,
    tainted: HashSet<u64>,
}

impl IndexCache {
    fn new(capacity: usize) -> Self {
        IndexCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            tainted: HashSet::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn get(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        req: u64,
        compiled: &CompiledQuery,
        doc: &StoredDocument,
        dtd: &Dtd,
        compressed: bool,
    ) -> Arc<ReachabilityIndex> {
        self.tick += 1;
        let key = (
            compiled.query().to_string(),
            doc.labels_fingerprint(),
            compressed,
        );
        if let Some((index, used)) = self.entries.get_mut(&key) {
            *used = self.tick;
            return Arc::clone(index);
        }
        let tainted = self.tainted.contains(&doc.labels_fingerprint());
        let (index, _) = tr.time("index.build", parent, req, || {
            if tainted {
                ReachabilityIndex::no_prune(
                    compiled.compiled().labels(),
                    doc.tree().labels(),
                    compressed,
                )
            } else {
                compiled.build_index(dtd, doc.tree(), compressed)
            }
        });
        let index = Arc::new(index);
        self.entries.insert(key, (Arc::clone(&index), self.tick));
        if self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                self.entries.remove(&k);
            }
        }
        index
    }

    fn after_edit(&mut self, store: &smoqe::DocumentStore, receipt: &EditReceipt, dtd: &Dtd) {
        if receipt.old_fingerprint != receipt.new_fingerprint
            && !store.fingerprint_in_use(receipt.old_fingerprint)
        {
            self.tainted.remove(&receipt.old_fingerprint);
            self.entries.retain(|k, _| k.1 != receipt.old_fingerprint);
        }
        if let Some(doc) = store.get(receipt.new_id) {
            if !dtd.edge_conformant(doc.tree()) && self.tainted.insert(receipt.new_fingerprint) {
                self.entries.retain(|k, _| k.1 != receipt.new_fingerprint);
            }
        }
    }
}

/// One evaluation the replay ran, for the hype metrics.
pub struct EvalSample {
    pub stats: HypeStats,
    pub us: f64,
}

/// One compile miss, decomposed on a fresh engine.
pub struct CompileSample {
    pub mfa_states: usize,
}

pub struct Replay {
    pub tracer: Tracer,
    /// `(kind, request id, response bytes)` per replayed request.
    pub requests: Vec<(Kind, u64, usize)>,
    pub evals: Vec<EvalSample>,
    pub compiles: Vec<CompileSample>,
    pub mismatches: u64,
}

/// The mirrors and everything the replay records. A traced client replays
/// each request right after its answer arrived, so the server's work and
/// the replay's run within milliseconds of each other, under the same host
/// conditions.
pub struct Replayer {
    mirror_a: TenantRegistry,
    mirror_b: TenantRegistry,
    counters: ServerCounters,
    engines: HashMap<String, SmoqeEngine>,
    caches: HashMap<String, IndexCache>,
    out: Replay,
}

impl Replayer {
    pub fn new(tenants: &[TenantSpec]) -> Self {
        Replayer {
            mirror_a: TenantRegistry::new(ServiceConfig::default()),
            mirror_b: TenantRegistry::new(ServiceConfig::default()),
            counters: ServerCounters::default(),
            engines: tenants
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        SmoqeEngine::new(t.view.clone()).expect("view valid"),
                    )
                })
                .collect(),
            caches: HashMap::new(),
            out: Replay {
                tracer: Tracer::default(),
                requests: Vec::new(),
                evals: Vec::new(),
                compiles: Vec::new(),
                mismatches: 0,
            },
        }
    }

    /// Records the client-side spans of `ex` and replays it on the mirrors.
    pub fn replay(&mut self, ex: &Exchange) {
        let out = &mut self.out;
        let tr = &mut out.tracer;
        let req = ex.req_id;
        let [t0, t1, t2, t3] = ex.t;
        let root = tr.record("client.request", ROOT, req, t0, t3);
        tr.record("protocol.encode_request", root, req, t0, t1);
        let server = tr.record("server", root, req, t1, t2);
        tr.record("protocol.decode_response", root, req, t2, t3);
        out.requests.push((ex.kind, req, ex.response_bytes));

        let body = encode_request(&ex.request);
        let (decoded, _) = tr.time("protocol.decode_request", server, req, || {
            decode_request(&body)
        });
        let decoded = decoded.expect("the client's own request decodes");
        let (mirror_b, counters) = (&self.mirror_b, &self.counters);
        // Alternate which mirror runs first, so neither side is always the
        // one that finds the document warm in the CPU caches.
        let b_first = out.requests.len().is_multiple_of(2);
        let mut resp_b = None;
        if b_first {
            resp_b = Some(
                tr.time("tenant.handle", ROOT, req, || {
                    handle_request(mirror_b, counters, &ex.request)
                })
                .0,
            );
        }
        let mut ctx = Ctx {
            tr,
            server,
            req,
            engines: &self.engines,
            caches: &mut self.caches,
            evals: &mut out.evals,
            compiles: &mut out.compiles,
        };
        let resp_a = ctx.dispatch(&self.mirror_a, counters, &decoded);
        let _ = tr_encode(ctx.tr, server, req, &resp_a);
        let resp_b = match resp_b {
            Some(r) => r,
            None => {
                out.tracer
                    .time("tenant.handle", ROOT, req, || {
                        handle_request(mirror_b, counters, &ex.request)
                    })
                    .0
            }
        };
        let comparable = !matches!(ex.request, Request::Stats { .. });
        if comparable && (resp_a != resp_b || ex.response.as_ref().is_some_and(|r| *r != resp_b)) {
            out.mismatches += 1;
        }
    }

    pub fn finish(self) -> Replay {
        self.out
    }
}

fn tr_encode(tr: &mut Tracer, server: u32, req: u64, resp: &Response) -> usize {
    tr.time("protocol.encode_response", server, req, || {
        encode_response(resp)
    })
    .0
    .len()
}

struct Ctx<'a> {
    tr: &'a mut Tracer,
    server: u32,
    req: u64,
    engines: &'a HashMap<String, SmoqeEngine>,
    caches: &'a mut HashMap<String, IndexCache>,
    evals: &'a mut Vec<EvalSample>,
    compiles: &'a mut Vec<CompileSample>,
}

impl Ctx<'_> {
    fn dispatch(
        &mut self,
        registry: &TenantRegistry,
        counters: &ServerCounters,
        request: &Request,
    ) -> Response {
        let (server, req) = (self.server, self.req);
        let tenant_name = match request {
            Request::RegisterDocument { tenant, .. }
            | Request::Query { tenant, .. }
            | Request::BatchQuery { tenant, .. }
            | Request::ApplyEdit { tenant, .. } => tenant,
            _ => {
                return self
                    .tr
                    .time("tenant.other", server, req, || {
                        handle_request(registry, counters, request)
                    })
                    .0;
            }
        };
        let (entry, _) = self
            .tr
            .time("tenant.lookup", server, req, || registry.get(tenant_name));
        let Some(entry) = entry else {
            return handle_request(registry, counters, request);
        };
        let dtd = entry.service.view().document_dtd().clone();
        match request {
            Request::RegisterDocument {
                snapshot: bytes, ..
            } => {
                // The snapshot load alone, for the xml layer (not part of
                // the request's layer sum: `insert_snapshot` loads again).
                self.tr.time("xml.snapshot_load", ROOT, req, || {
                    snapshot::load(bytes).expect("the server accepted it").len()
                });
                match self
                    .tr
                    .time("store.insert", server, req, || {
                        entry.store.insert_snapshot(bytes)
                    })
                    .0
                {
                    Ok(id) => Response::DocumentRegistered { doc: id.0 },
                    Err(_) => handle_request(registry, counters, request),
                }
            }
            Request::Query {
                doc, mode, query, ..
            } => {
                let Some(stored) = self
                    .tr
                    .time("store.get", server, req, || entry.store.get(DocId(*doc)))
                    .0
                else {
                    return handle_request(registry, counters, request);
                };
                let Some(compiled) = self.compile(&entry.service, tenant_name, query) else {
                    return handle_request(registry, counters, request);
                };
                let index = self.index(tenant_name, &compiled, &stored, &dtd, *mode);
                let tree = stored.tree();
                let start = now_ns();
                let result = smoqe_hype::evaluate_compiled_at_with(
                    tree,
                    tree.root(),
                    compiled.compiled(),
                    index.as_deref(),
                );
                let end = now_ns();
                self.tr.record("hype.eval", server, req, start, end);
                self.evals.push(EvalSample {
                    stats: result.stats,
                    us: (end - start) as f64 / 1e3,
                });
                let (wire, _) = self.tr.time("tenant.wire_result", server, req, || {
                    WireResult::from_result(&result)
                });
                Response::Answer(wire)
            }
            Request::BatchQuery {
                doc, mode, queries, ..
            } => {
                let Some(stored) = self
                    .tr
                    .time("store.get", server, req, || entry.store.get(DocId(*doc)))
                    .0
                else {
                    return handle_request(registry, counters, request);
                };
                let mut unique: Vec<Arc<CompiledQuery>> = Vec::new();
                let mut slot_of = Vec::new();
                for q in queries {
                    let Some(c) = self.compile(&entry.service, tenant_name, q) else {
                        return handle_request(registry, counters, request);
                    };
                    let slot = unique
                        .iter()
                        .position(|u| Arc::ptr_eq(u, &c))
                        .unwrap_or_else(|| {
                            unique.push(c);
                            unique.len() - 1
                        });
                    slot_of.push(slot);
                }
                let indexes: Vec<Option<Arc<ReachabilityIndex>>> = unique
                    .iter()
                    .map(|c| self.index(tenant_name, c, &stored, &dtd, *mode))
                    .collect();
                let batch: Vec<CompiledBatchQuery> = unique
                    .iter()
                    .zip(&indexes)
                    .map(|(c, i)| CompiledBatchQuery {
                        compiled: Arc::clone(c.compiled()),
                        index: i.as_deref(),
                    })
                    .collect();
                let start = now_ns();
                let result = smoqe_hype::evaluate_batch_compiled(stored.tree(), &batch);
                let end = now_ns();
                self.tr.record("hype.batch", server, req, start, end);
                let per = (end - start) as f64 / 1e3 / result.results.len().max(1) as f64;
                for r in &result.results {
                    self.evals.push(EvalSample {
                        stats: r.stats,
                        us: per,
                    });
                }
                let (resp, _) = self.tr.time("tenant.wire_result", server, req, || {
                    Response::BatchAnswer {
                        results: slot_of
                            .iter()
                            .map(|&s| WireResult::from_result(&result.results[s]))
                            .collect(),
                        stats: WireBatchStats::from_stats(&result.stats),
                    }
                });
                resp
            }
            Request::ApplyEdit { doc, ops, .. } => {
                let (decoded, _) = self
                    .tr
                    .time("tenant.decode_ops", server, req, || decode_ops(ops));
                let Some(ops) = decoded else {
                    return handle_request(registry, counters, request);
                };
                let (receipt, _) = self.tr.time("store.apply_edit", server, req, || {
                    entry.service.apply_edit(&entry.store, DocId(*doc), &ops)
                });
                match receipt {
                    Ok(r) => {
                        self.cache(tenant_name).after_edit(&entry.store, &r, &dtd);
                        Response::EditApplied {
                            old_doc: r.old_id.0,
                            new_doc: r.new_id.0,
                            old_fingerprint: r.old_fingerprint,
                            new_fingerprint: r.new_fingerprint,
                            generation: r.generation,
                        }
                    }
                    Err(_) => handle_request(registry, counters, request),
                }
            }
            _ => unreachable!("filtered above"),
        }
    }

    fn cache(&mut self, tenant: &str) -> &mut IndexCache {
        self.caches
            .entry(tenant.to_owned())
            .or_insert_with(|| IndexCache::new(ServiceConfig::default().index_capacity))
    }

    fn index(
        &mut self,
        tenant: &str,
        compiled: &CompiledQuery,
        doc: &StoredDocument,
        dtd: &Dtd,
        mode: smoqe::EvaluationMode,
    ) -> Option<Arc<ReachabilityIndex>> {
        let compressed = match mode {
            smoqe::EvaluationMode::HyPE => return None,
            smoqe::EvaluationMode::OptHyPE => false,
            smoqe::EvaluationMode::OptHyPEC => true,
        };
        let (server, req) = (self.server, self.req);
        let cache = self
            .caches
            .entry(tenant.to_owned())
            .or_insert_with(|| IndexCache::new(ServiceConfig::default().index_capacity));
        Some(cache.get(self.tr, server, req, compiled, doc, dtd, compressed))
    }

    /// `QueryService::compile`, split by outcome; on a miss the compile
    /// pipeline is also timed step by step on a fresh engine.
    fn compile(
        &mut self,
        service: &QueryService,
        tenant: &str,
        query: &str,
    ) -> Option<Arc<CompiledQuery>> {
        let before = service.stats().compiled_misses;
        let start = now_ns();
        let compiled = service.compile(query).ok()?;
        let end = now_ns();
        let miss = service.stats().compiled_misses > before;
        let name = if miss {
            "service.compile_miss"
        } else {
            "service.compile_hit"
        };
        self.tr.record(name, self.server, self.req, start, end);
        if miss {
            let engines = self.engines;
            self.compile_steps(&engines[tenant], query);
        }
        Some(compiled)
    }

    fn compile_steps(&mut self, engine: &SmoqeEngine, query: &str) {
        let req = self.req;
        let start = now_ns();
        let mut kids = Vec::new();
        let (parsed, s) = self.tr_child(|| smoqe_xpath::parse_path(query));
        kids.push(s);
        let Ok(parsed) = parsed else { return };
        let (normalized, s) = self.tr_child(|| smoqe_xpath::normalize(&parsed));
        kids.push(s);
        let (whole, s) = self.tr_child(|| engine.compile_path(&normalized));
        kids.push(s);
        let end = now_ns();
        let parent = self.tr.record("compile.miss", ROOT, req, start, end);
        for (name, (a, b)) in ["xpath.parse", "xpath.normalize", "compile.rewrite_and_ir"]
            .into_iter()
            .zip(kids)
        {
            self.tr.record(name, parent, req, a, b);
        }
        if whole.is_err() {
            return;
        }
        let (mfa, _) = self.tr.time("rewrite.mfa", ROOT, req, || {
            smoqe_rewrite::rewrite_to_mfa(&normalized, engine.view())
        });
        let Ok(mfa) = mfa else { return };
        self.tr
            .time("automata.ir", ROOT, req, || CompiledMfa::new(&mfa));
        let stats = mfa.stats();
        self.compiles.push(CompileSample {
            mfa_states: stats.nfa_states + stats.afa_states,
        });
    }

    fn tr_child<T>(&mut self, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let start = now_ns();
        let out = f();
        (out, (start, now_ns()))
    }
}

/// The server's conversion of wire edit ops (payloads are snapshots).
fn decode_ops(ops: &[WireEditOp]) -> Option<Vec<EditOp>> {
    ops.iter()
        .map(|op| {
            Some(match op {
                WireEditOp::Insert {
                    parent,
                    position,
                    snapshot: bytes,
                } => EditOp::Insert {
                    parent: NodeId(*parent),
                    position: *position as usize,
                    subtree: snapshot::load(bytes).ok()?,
                },
                WireEditOp::Delete { node } => EditOp::Delete {
                    node: NodeId(*node),
                },
                WireEditOp::Replace {
                    node,
                    snapshot: bytes,
                } => EditOp::Replace {
                    node: NodeId(*node),
                    subtree: snapshot::load(bytes).ok()?,
                },
            })
        })
        .collect()
}
