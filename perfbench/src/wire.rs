//! The three socket workloads (`serve_hot`, `eval_large`, `churn`): input
//! generation, server set-up, closed-loop clients, failure accounting and
//! the correctness gate against an in-process reference.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;

use smoqe::{DocId, DocumentStore, EvaluationMode, QueryService, ServiceConfig};
use smoqe_hype::HypeResult;
use smoqe_toxgene::{all_domains, generate_hospital, DocShape, HospitalConfig};
use smoqe_views::ViewDefinition;
use smoqe_xml::{parse_document, snapshot, EditOp, NodeId, XmlTree};
use smoqed::protocol::view_to_wire;
use smoqed::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, Server,
    ServerConfig, WireEditOp, WireResult,
};

use crate::common::{now_ns, Rng};
use crate::replay::Replayer;

/// Request kinds, for latency and failure accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Query,
    Batch,
    Edit,
    Register,
    Admin,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Query,
        Kind::Batch,
        Kind::Edit,
        Kind::Register,
        Kind::Admin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Batch => "batch",
            Kind::Edit => "edit",
            Kind::Register => "register",
            Kind::Admin => "admin",
        }
    }
}

pub const MODES: [EvaluationMode; 3] = [
    EvaluationMode::HyPE,
    EvaluationMode::OptHyPE,
    EvaluationMode::OptHyPEC,
];

pub fn mode_name(mode: EvaluationMode) -> &'static str {
    match mode {
        EvaluationMode::HyPE => "HyPE",
        EvaluationMode::OptHyPE => "OptHyPE",
        EvaluationMode::OptHyPEC => "OptHyPE-C",
    }
}

fn mode_tag(mode: EvaluationMode) -> u8 {
    MODES.iter().position(|&m| m == mode).expect("known mode") as u8
}

/// Tenant names and query texts seen by this process, each stored once.
/// Logs name them by index, so a logged answer or edit takes a few bytes
/// however long its query.
struct Texts {
    ids: BTreeMap<String, u32>,
    texts: Vec<Arc<str>>,
}

static TEXTS: Mutex<Texts> = Mutex::new(Texts {
    ids: BTreeMap::new(),
    texts: Vec::new(),
});

pub fn intern(text: &str) -> u32 {
    let mut t = TEXTS.lock().expect("text table lock");
    if let Some(&id) = t.ids.get(text) {
        return id;
    }
    let id = t.texts.len() as u32;
    t.texts.push(Arc::from(text));
    t.ids.insert(text.to_owned(), id);
    id
}

pub fn text(id: u32) -> Arc<str> {
    Arc::clone(&TEXTS.lock().expect("text table lock").texts[id as usize])
}

/// One distinct answered (tenant, document version, mode, query); tenant
/// and query are `intern` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    pub tenant: u32,
    pub doc: u64,
    pub mode: u8,
    pub query: u32,
}

impl AnswerKey {
    fn new(tenant: &str, doc: u64, mode: EvaluationMode, query: &str) -> AnswerKey {
        AnswerKey {
            tenant: intern(tenant),
            doc,
            mode: mode_tag(mode),
            query: intern(query),
        }
    }

    pub fn mode(&self) -> EvaluationMode {
        MODES[self.mode as usize]
    }

    /// The key in text form, for an order that does not depend on which
    /// connection saw a text first.
    fn sort_key(&self) -> (Arc<str>, u64, u8, Arc<str>) {
        (text(self.tenant), self.doc, self.mode, text(self.query))
    }
}

/// The traced run's replayer, shared by the connections.
pub type SharedReplayer = Arc<Mutex<Replayer>>;

/// One wire exchange as the traced run hands it to the replay.
pub struct Exchange {
    pub req_id: u64,
    pub kind: Kind,
    pub request: Request,
    /// Before encode, after encode, after the response frame arrived,
    /// after decode.
    pub t: [u64; 4],
    pub response_bytes: usize,
    pub response: Option<Response>,
}

/// Digest of one answer: its node ids and every statistics field. The log
/// keeps digests, not answers, so its size does not grow with the
/// answers' size. Both sides are read field by field here, not through
/// the program's own conversions (`WireResult::from_result`,
/// `to_result`), so that the gate also checks those.
fn digest(answers: impl Iterator<Item = u32>, stats: [u64; 6]) -> u64 {
    let mut h = DefaultHasher::new();
    for a in answers {
        a.hash(&mut h);
    }
    stats.hash(&mut h);
    h.finish()
}

/// [`digest`] of an answer as the wire carried it.
pub fn wire_digest(result: &WireResult) -> u64 {
    let s = &result.stats;
    digest(
        result.answers.iter().copied(),
        [
            s.nodes_total,
            s.nodes_visited,
            s.cans_vertices,
            s.cans_edges,
            s.afa_values_computed,
            s.max_shard_fraction_bits,
        ],
    )
}

/// [`digest`] of an answer the in-process reference computed.
pub fn reference_digest(result: &HypeResult) -> u64 {
    let s = &result.stats;
    digest(
        result.answers.iter().map(|n| n.0),
        [
            s.nodes_total as u64,
            s.nodes_visited as u64,
            s.cans_vertices as u64,
            s.cans_edges as u64,
            s.afa_values_computed as u64,
            s.max_shard_fraction.to_bits(),
        ],
    )
}

/// What a registration or edit did, in connection order, so the
/// reference can rebuild every document version the wire answered over.
pub enum DocEvent {
    Register {
        tenant: u32,
        bytes: Arc<Vec<u8>>,
        id: u64,
    },
    Edit {
        tenant: u32,
        old: u64,
        op: ChurnOp,
        new: u64,
    },
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Answered in the traced phase of the window.
    pub traced: bool,
    pub kind: Kind,
    /// Round trip, µs.
    pub us: f64,
    /// Which distinct request this was ([`sample_key`]), so that the
    /// fastest of a request's repeats can be found.
    pub key: u64,
}

/// The identity of a request for its repeats: a query's tenant, mode and
/// text (not its document version); a batch's tenant, mode and texts; a
/// registration's content-addressed document id; an edit's new version.
pub fn sample_key(request: &Request, response: &Response) -> u64 {
    let mut h = DefaultHasher::new();
    match (request, response) {
        (
            Request::Query {
                tenant,
                mode,
                query,
                ..
            },
            _,
        ) => (0u8, tenant, mode_tag(*mode), query).hash(&mut h),
        (
            Request::BatchQuery {
                tenant,
                mode,
                queries,
                ..
            },
            _,
        ) => (1u8, tenant, mode_tag(*mode), queries).hash(&mut h),
        (_, Response::DocumentRegistered { doc }) => (2u8, doc).hash(&mut h),
        (_, Response::EditApplied { new_doc, .. }) => (3u8, new_doc).hash(&mut h),
        _ => 4u8.hash(&mut h),
    }
    h.finish()
}

/// Everything one connection observed.
#[derive(Default)]
pub struct ConnLog {
    /// Each answered request.
    pub samples: Vec<Sample>,
    pub attempted: BTreeMap<Kind, u64>,
    pub failed: BTreeMap<Kind, u64>,
    pub error_codes: BTreeMap<String, u64>,
    pub busy: u64,
    pub transport: u64,
    /// Digest of the first answer per key.
    pub answers: HashMap<AnswerKey, u64>,
    pub inline_mismatches: u64,
    pub events: Vec<DocEvent>,
    /// `(document id, nodes, µs)` per successful ingest call.
    pub ingest: Vec<(u64, usize, f64)>,
}

impl ConnLog {
    fn record_answer(&mut self, key: AnswerKey, digest: u64) {
        match self.answers.get(&key) {
            Some(&seen) if seen != digest => self.inline_mismatches += 1,
            Some(_) => {}
            None => {
                self.answers.insert(key, digest);
            }
        }
    }

    /// Approximate heap bytes of the log's growing parts (samples, answer
    /// digests, document events), for the run record.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.samples.capacity() * size_of::<Sample>()
            + self.answers.capacity() * (size_of::<(AnswerKey, u64)>() + 1)
            + self.events.capacity() * size_of::<DocEvent>()
    }

    pub fn merge(&mut self, other: ConnLog) {
        self.samples.extend(other.samples);
        for (k, v) in other.attempted {
            *self.attempted.entry(k).or_default() += v;
        }
        for (k, v) in other.failed {
            *self.failed.entry(k).or_default() += v;
        }
        for (k, v) in other.error_codes {
            *self.error_codes.entry(k).or_default() += v;
        }
        self.busy += other.busy;
        self.transport += other.transport;
        self.inline_mismatches += other.inline_mismatches;
        for (key, digest) in other.answers {
            self.record_answer(key, digest);
        }
        self.events.extend(other.events);
        self.ingest.extend(other.ingest);
    }
}

/// One client connection, driven through the public protocol functions so
/// the client-side codec and the server interval are separately timed.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    id: u64,
    seq: u64,
    /// In the traced phase: replay each exchange on the mirrors.
    pub trace: bool,
    pub replayer: Option<SharedReplayer>,
    pub log: ConnLog,
}

impl Conn {
    pub fn connect(addr: SocketAddr, id: u64) -> io::Result<Conn> {
        let mut conn = Conn {
            addr,
            stream: None,
            id,
            seq: 0,
            trace: false,
            replayer: None,
            log: ConnLog::default(),
        };
        conn.reconnect()?;
        Ok(conn)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one request and waits for its response. Failures of every
    /// kind are counted against the request; `None` means no usable
    /// response.
    pub fn exchange(&mut self, kind: Kind, request: Request) -> Option<Response> {
        *self.log.attempted.entry(kind).or_default() += 1;
        self.seq += 1;
        let req_id = (self.id << 40) | self.seq;
        let t0 = now_ns();
        let body = encode_request(&request);
        let t1 = now_ns();
        let frame = match self.stream.as_mut() {
            Some(stream) => write_frame(stream, &body)
                .map_err(|e| e.to_string())
                .and_then(|()| read_frame(stream).map_err(|e| e.to_string())),
            None => Err("not connected".to_owned()),
        };
        let t2 = now_ns();
        let (response, bytes) = match frame {
            Ok(Some(body)) => match decode_response(&body) {
                Ok(resp) => (Some(resp), body.len()),
                Err(_) => (None, body.len()),
            },
            _ => (None, 0),
        };
        let t3 = now_ns();
        let ok = match &response {
            None => {
                self.log.transport += 1;
                let _ = self.reconnect();
                false
            }
            Some(Response::Busy { .. }) => {
                self.log.busy += 1;
                let _ = self.reconnect();
                false
            }
            Some(Response::Error { code, .. }) => {
                *self.log.error_codes.entry(format!("{code:?}")).or_default() += 1;
                false
            }
            Some(_) => true,
        };
        // Only answered requests are latency samples; a failure is counted
        // here and fails the run.
        let us = (t3 - t0) as f64 / 1e3;
        if ok {
            let answer = response.as_ref().expect("ok");
            self.log.samples.push(Sample {
                traced: self.trace,
                kind,
                us,
                key: sample_key(&request, answer),
            });
            self.observe(&request, answer, us);
        } else {
            *self.log.failed.entry(kind).or_default() += 1;
        }
        if let (true, Some(replayer)) = (self.trace, &self.replayer) {
            let exchange = Exchange {
                req_id,
                kind,
                request,
                t: [t0, t1, t2, t3],
                response_bytes: bytes,
                response: response.clone(),
            };
            replayer.lock().expect("replayer lock").replay(&exchange);
        }
        if ok {
            response
        } else {
            None
        }
    }

    /// Files answers for the correctness gate and ingest samples.
    fn observe(&mut self, request: &Request, response: &Response, us: f64) {
        match (request, response) {
            (
                Request::Query {
                    tenant,
                    doc,
                    mode,
                    query,
                },
                Response::Answer(result),
            ) => {
                let key = AnswerKey::new(tenant, *doc, *mode, query);
                self.log.record_answer(key, wire_digest(result));
            }
            (
                Request::BatchQuery {
                    tenant,
                    doc,
                    mode,
                    queries,
                },
                Response::BatchAnswer { results, .. },
            ) => {
                for (query, result) in queries.iter().zip(results) {
                    let key = AnswerKey::new(tenant, *doc, *mode, query);
                    self.log.record_answer(key, wire_digest(result));
                }
            }
            (
                Request::RegisterDocument {
                    snapshot: bytes, ..
                },
                Response::DocumentRegistered { doc },
            ) => {
                if let Ok(header) = snapshot::peek_header(bytes) {
                    self.log.ingest.push((*doc, header.node_count as usize, us));
                }
            }
            _ => {}
        }
    }

    pub fn register_view(&mut self, tenant: &str, view: &ViewDefinition) -> bool {
        let (document_dtd, view_dtd, annotations) = view_to_wire(view);
        matches!(
            self.exchange(
                Kind::Admin,
                Request::RegisterView {
                    tenant: tenant.to_owned(),
                    document_dtd,
                    view_dtd,
                    annotations
                },
            ),
            Some(Response::ViewRegistered { .. })
        )
    }

    pub fn register_document(&mut self, tenant: &str, bytes: &Arc<Vec<u8>>) -> Option<u64> {
        let request = Request::RegisterDocument {
            tenant: tenant.to_owned(),
            snapshot: bytes.to_vec(),
        };
        match self.exchange(Kind::Register, request)? {
            Response::DocumentRegistered { doc } => {
                self.log.events.push(DocEvent::Register {
                    tenant: intern(tenant),
                    bytes: Arc::clone(bytes),
                    id: doc,
                });
                Some(doc)
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// Queries a production tenant would hammer (cache-resident).
pub const HOT_QUERIES: &[&str] = &[
    "patient",
    "patient/record/diagnosis",
    "(patient/parent)*/patient",
    "//diagnosis",
];

/// The colder tail of `serve_hot`; with the hot set, 12 distinct queries.
pub const COLD_QUERIES: &[&str] = &[
    "patient/record",
    "patient/parent/patient",
    "patient[not(parent)]",
    "patient[record/diagnosis/text()='heart disease' and parent]",
    "patient/(record | parent/patient/record)",
    "//record[diagnosis]",
    "patient[not(record/diagnosis/text()='heart disease')]",
    "(patient/parent)*/patient[record]",
];

/// Templates of the `churn` query family; `{}` takes a diagnosis value.
const CHURN_TEMPLATES: &[&str] = &[
    "patient[record/diagnosis/text()='{}']",
    "(patient/parent)*/patient[record/diagnosis/text()='{}']",
    "patient/parent/patient[record/diagnosis/text()='{}']",
    "//record[diagnosis/text()='{}']",
];

/// Distinct values per template: 4 × 160 = 640 distinct normalized texts,
/// five times the 128-entry compiled cache.
const CHURN_PARAMS: usize = 160;

pub struct TenantSpec {
    pub name: String,
    pub view: ViewDefinition,
    pub queries: Vec<String>,
}

pub struct DocSpec {
    pub tenant: usize,
    pub nodes: usize,
    pub bytes: Arc<Vec<u8>>,
}

/// The generated inputs of one socket workload.
pub struct WireInputs {
    pub tenants: Vec<TenantSpec>,
    pub docs: Vec<DocSpec>,
    pub workers: usize,
    pub clients: usize,
}

pub fn hospital_doc(patients: usize, departments: usize, seed: u64) -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients,
        departments,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        visits_per_patient: 2,
        seed,
        ..Default::default()
    })
}

fn doc_spec(tenant: usize, tree: &XmlTree) -> DocSpec {
    DocSpec {
        tenant,
        nodes: tree.len(),
        bytes: Arc::new(snapshot::save(tree)),
    }
}

/// Scales of the `eval_large` Standard documents: hospital ≈ 37k nodes
/// (a corpus batch over it takes about 50 ms), the others 11k–15k; about
/// 2.7 MB resident in all. At twice these sizes the documents read more
/// of the neighbours' traffic in the host's shared last-level cache: their
/// fastest repeats drifted about twice as much as at half these sizes
/// over the same runs. At half these sizes a solo request takes under
/// 1 ms, and socket and wake-up time (`server.residual_share`, 0.18) is
/// no longer small beside traversal.
pub const EVAL_LARGE_HOSPITAL_SCALE: usize = 8;
pub const EVAL_LARGE_SCALE: usize = 16;

pub fn wire_inputs(workload: &str, seed: u64) -> WireInputs {
    match workload {
        "serve_hot" => {
            let tree = hospital_doc(150, 6, seed);
            WireInputs {
                tenants: vec![TenantSpec {
                    name: "ward".into(),
                    view: smoqe_views::hospital_view(),
                    queries: HOT_QUERIES
                        .iter()
                        .chain(COLD_QUERIES)
                        .map(|q| q.to_string())
                        .collect(),
                }],
                docs: vec![doc_spec(0, &tree)],
                workers: 1,
                clients: 2,
            }
        }
        "eval_large" => {
            let mut tenants = Vec::new();
            let mut docs = Vec::new();
            for (i, domain) in all_domains().into_iter().enumerate() {
                let scale = if domain.name == "hospital" {
                    EVAL_LARGE_HOSPITAL_SCALE
                } else {
                    EVAL_LARGE_SCALE
                };
                let tree = domain.generate(DocShape::Standard, scale, seed.wrapping_add(i as u64));
                docs.push(doc_spec(i, &tree));
                tenants.push(TenantSpec {
                    name: domain.name.to_owned(),
                    queries: domain.view_queries.iter().map(|q| q.to_string()).collect(),
                    view: domain.view,
                });
            }
            WireInputs {
                tenants,
                docs,
                workers: 0,
                clients: 2,
            }
        }
        "churn" => WireInputs {
            tenants: vec![TenantSpec {
                name: "hospital".into(),
                view: smoqe_views::hospital_view(),
                queries: Vec::new(),
            }],
            docs: Vec::new(),
            workers: 0,
            clients: 2,
        },
        other => panic!("not a socket workload: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Closed-loop drivers
// ---------------------------------------------------------------------------

/// Chooses each connection's next request from what it has seen.
pub trait Driver: Send {
    fn step(&mut self, conn: &mut Conn);
}

/// `serve_hot`: 80% hot / 20% cold solo queries, every 5th request a batch
/// of the hot set, plain HyPE over one shared document.
pub struct ServeHot {
    rng: Rng,
    n: u64,
    doc: u64,
}

impl Driver for ServeHot {
    fn step(&mut self, conn: &mut Conn) {
        self.n += 1;
        let request = if self.n.is_multiple_of(5) {
            Request::BatchQuery {
                tenant: "ward".into(),
                doc: self.doc,
                mode: EvaluationMode::HyPE,
                queries: HOT_QUERIES.iter().map(|q| q.to_string()).collect(),
            }
        } else {
            let query = if self.rng.below(100) < 80 {
                HOT_QUERIES[self.rng.below(HOT_QUERIES.len())]
            } else {
                COLD_QUERIES[self.rng.below(COLD_QUERIES.len())]
            };
            Request::Query {
                tenant: "ward".into(),
                doc: self.doc,
                mode: EvaluationMode::HyPE,
                query: query.into(),
            }
        };
        let kind = if matches!(request, Request::BatchQuery { .. }) {
            Kind::Batch
        } else {
            Kind::Query
        };
        conn.exchange(kind, request);
    }
}

/// `eval_large`: solo requests rotate over the tenants, each tenant
/// cycling through the (query, mode) pairs of its solo queries
/// ([`EVAL_LARGE_SOLO_QUERIES`]) query by query, so any prefix of the
/// sequence keeps the tenant and mode mix balanced and every run poses
/// the same requests (the seed varies the documents). Every 4th request
/// is an OptHyPE batch of the whole hospital corpus over the largest
/// document, and every 16th re-registers a tenant's document.
pub struct EvalLarge {
    tenants: Vec<(String, u64, Vec<String>)>,
    /// Per tenant: its document's snapshot.
    snapshots: Vec<Arc<Vec<u8>>>,
    /// Per tenant: its (query, mode) pairs.
    cycles: Vec<Vec<(usize, EvaluationMode)>>,
    n: usize,
    solo: usize,
    registered: usize,
}

/// Every this many requests, an `eval_large` connection registers a
/// tenant's document again: a tenant re-uploading its document. The bytes
/// are identical, so the server loads them in full but keeps one copy.
/// These calls are the workload's ingest sample: each document is
/// registered 20–40 times in a 40 s window, so its fastest registration
/// is a steady figure (`ingest_best_nodes_per_s`).
const EVAL_LARGE_REGISTER_EVERY: usize = 16;

/// Solo queries per `eval_large` tenant, evenly spaced over its corpus:
/// 4 tenants × 4 queries × 3 modes = 48 distinct solo requests, each
/// posed 20–40 times in a 40 s window (as the host's speed allows), so
/// that each one's fastest round trip is a steady figure
/// (`query_best_us`). With the whole corpora (156 pairs) each pair came
/// about six times in 25 s, and the figure moved with the host's speed.
pub const EVAL_LARGE_SOLO_QUERIES: usize = 4;

impl Driver for EvalLarge {
    fn step(&mut self, conn: &mut Conn) {
        self.n += 1;
        if self.n % EVAL_LARGE_REGISTER_EVERY == 2 {
            let t = self.registered % self.tenants.len();
            self.registered += 1;
            conn.register_document(&self.tenants[t].0, &self.snapshots[t]);
        } else if self.n.is_multiple_of(4) {
            let (tenant, doc, queries) = &self.tenants[0];
            let request = Request::BatchQuery {
                tenant: tenant.clone(),
                doc: *doc,
                mode: EvaluationMode::OptHyPE,
                queries: queries.clone(),
            };
            conn.exchange(Kind::Batch, request);
        } else {
            let t = self.solo % self.tenants.len();
            let cycle = &self.cycles[t];
            let (q, mode) = cycle[(self.solo / self.tenants.len()) % cycle.len()];
            self.solo += 1;
            let (tenant, doc, queries) = &self.tenants[t];
            let request = Request::Query {
                tenant: tenant.clone(),
                doc: *doc,
                mode,
                query: queries[q].clone(),
            };
            conn.exchange(Kind::Query, request);
        }
    }
}

/// The subtrees `churn` splices into its documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    Patient,
    Visit,
    Annex,
}

impl Payload {
    const ALL: [Payload; 3] = [Payload::Patient, Payload::Visit, Payload::Annex];

    fn xml(self) -> &'static str {
        match self {
            Payload::Patient => "<patient><pname>Churn</pname><address><street>s</street><city>c</city><zip>z</zip></address>\
                 <visit><date>d</date><treatment><medication><type>t</type><diagnosis>flu</diagnosis></medication></treatment></visit></patient>",
            Payload::Visit => "<visit><date>d2</date><treatment><medication><type>t</type><diagnosis>heart disease</diagnosis></medication></treatment></visit>",
            Payload::Annex => "<annex><note>unlisted</note></annex>",
        }
    }
}

/// The payload trees, indexed by `Payload as usize`.
pub fn payload_trees() -> [XmlTree; 3] {
    Payload::ALL.map(|p| parse_document(p.xml()).expect("payload parses"))
}

/// One `churn` edit as the log keeps it: its target and which payload it
/// splices. The log holds these rather than `EditOp`s, which carry a whole
/// subtree each, so that it stays small however many edits a run makes.
#[derive(Debug, Clone, Copy)]
pub enum ChurnOp {
    Insert {
        parent: NodeId,
        position: usize,
        payload: Payload,
    },
    Delete {
        node: NodeId,
    },
    Replace {
        node: NodeId,
        payload: Payload,
    },
}

impl ChurnOp {
    pub fn to_edit(self, payloads: &[XmlTree; 3]) -> EditOp {
        match self {
            ChurnOp::Insert {
                parent,
                position,
                payload,
            } => EditOp::Insert {
                parent,
                position,
                subtree: payloads[payload as usize].clone(),
            },
            ChurnOp::Delete { node } => EditOp::Delete { node },
            ChurnOp::Replace { node, payload } => EditOp::Replace {
                node,
                subtree: payloads[payload as usize].clone(),
            },
        }
    }

    fn to_wire(self, snapshots: &[Vec<u8>; 3]) -> WireEditOp {
        match self {
            ChurnOp::Insert {
                parent,
                position,
                payload,
            } => WireEditOp::Insert {
                parent: parent.0,
                position: position as u32,
                snapshot: snapshots[payload as usize].clone(),
            },
            ChurnOp::Delete { node } => WireEditOp::Delete { node: node.0 },
            ChurnOp::Replace { node, payload } => WireEditOp::Replace {
                node: node.0,
                snapshot: snapshots[payload as usize].clone(),
            },
        }
    }
}

/// A private document of a `churn` connection, mirrored locally so edits
/// can target live nodes.
struct Slot {
    id: u64,
    tree: XmlTree,
}

/// `churn`: per connection, a working set of private documents. Edits
/// (each followed by an OptHyPE query on the new version), batches,
/// long-tail compile misses and periodic fresh registrations. A document
/// retires from the working set after a fixed number of requests, so each
/// carries the same edit history (the store keeps a version's delta log
/// and tombstones) however fast the server runs.
///
/// About 1 in 10 edits splices an alien `annex` element, always into the
/// connection's quarantine document (the slot after the working set). Its
/// versions are all non-conformant, so their label fingerprint is tainted
/// from its first appearance and no conformant version ever shares it:
/// the OptHyPE statistics do not depend on how the two connections'
/// requests interleave, and the working set keeps pruning indexes.
pub struct Churn {
    tenant: String,
    rng: Rng,
    conn_idx: u64,
    seed: u64,
    slots: Vec<Slot>,
    fresh: u64,
    n: u64,
    query_next: Option<usize>,
    payloads: [XmlTree; 3],
    payload_snapshots: [Vec<u8>; 3],
}

/// Working-set documents per connection (plus one quarantine document).
pub const CHURN_SLOTS: usize = 4;
/// A fresh registration at every step of a connection whose number is a
/// multiple of this, unless that step is the query after an edit: about
/// one request in 1,000. The wire has no remove request, so every
/// registered document stays resident; this keeps a run's growth to about
/// a hundred documents.
pub const CHURN_REGISTER_EVERY: u64 = 500;
const CHURN_BATCH_EVERY: u64 = 7;

pub fn churn_fresh_doc(seed: u64, conn: u64, n: u64) -> XmlTree {
    hospital_doc(10, 1, seed ^ (conn << 48) ^ (n.wrapping_mul(0x9e37_79b9)))
}

impl Churn {
    fn new(seed: u64, conn_idx: u64, slots: Vec<(u64, XmlTree)>) -> Churn {
        let payloads = payload_trees();
        let payload_snapshots = payloads.each_ref().map(snapshot::save);
        Churn {
            tenant: "hospital".into(),
            rng: Rng::fork(seed, 100 + conn_idx),
            conn_idx,
            seed,
            slots: slots
                .into_iter()
                .map(|(id, tree)| Slot { id, tree })
                .collect(),
            fresh: CHURN_SLOTS as u64 + 1,
            n: 0,
            query_next: None,
            payloads,
            payload_snapshots,
        }
    }

    fn family_query(&mut self) -> String {
        // A skewed draw: a hot head and a long tail of distinct texts.
        let u = self.rng.unit();
        let k = (u * u * CHURN_PARAMS as f64) as usize;
        let value = if k == 0 {
            "heart disease".to_owned()
        } else {
            format!("d{k}")
        };
        CHURN_TEMPLATES[self.rng.below(CHURN_TEMPLATES.len())].replace("{}", &value)
    }

    fn live_with_label(tree: &XmlTree, label: &str) -> Vec<NodeId> {
        tree.node_ids()
            .filter(|&n| tree.is_live(n) && tree.label_name(n) == label)
            .collect()
    }

    fn pick(&mut self, nodes: &[NodeId]) -> Option<NodeId> {
        (!nodes.is_empty()).then(|| nodes[self.rng.below(nodes.len())])
    }

    /// A small edit: about 1 in 10 splices an alien label into the
    /// quarantine document, the rest insert, replace or delete a small
    /// subtree of a working-set document. Returns the slot edited.
    fn edit_op(&mut self) -> (usize, ChurnOp) {
        let roll = self.rng.below(10);
        if roll == 0 {
            let slot = CHURN_SLOTS;
            let patients = Self::live_with_label(&self.slots[slot].tree, "patient");
            if let Some(p) = self.pick(&patients) {
                let position = self.slots[slot].tree.children(p).len();
                return (
                    slot,
                    ChurnOp::Insert {
                        parent: p,
                        position,
                        payload: Payload::Annex,
                    },
                );
            }
        }
        let slot = self.rng.below(CHURN_SLOTS);
        let tree = &self.slots[slot].tree;
        let visits = Self::live_with_label(tree, "visit");
        let departments = Self::live_with_label(tree, "department");
        let op = match roll % 3 {
            0 => self.pick(&visits).map(|v| ChurnOp::Replace {
                node: v,
                payload: Payload::Visit,
            }),
            1 => self.pick(&visits).map(|v| ChurnOp::Delete { node: v }),
            _ => None,
        };
        let op = op.unwrap_or_else(|| {
            let d = self
                .pick(&departments)
                .unwrap_or(self.slots[slot].tree.root());
            let position = self.slots[slot].tree.children(d).len();
            ChurnOp::Insert {
                parent: d,
                position,
                payload: Payload::Patient,
            }
        });
        (slot, op)
    }

    fn register_fresh(&mut self, conn: &mut Conn) {
        let slot = self.fresh as usize % CHURN_SLOTS;
        self.fresh += 1;
        let tree = churn_fresh_doc(self.seed, self.conn_idx, self.fresh);
        let bytes = Arc::new(snapshot::save(&tree));
        if let Some(id) = conn.register_document(&self.tenant, &bytes) {
            self.slots[slot] = Slot { id, tree };
        }
    }
}

impl Driver for Churn {
    fn step(&mut self, conn: &mut Conn) {
        self.n += 1;
        if let Some(slot) = self.query_next.take() {
            let query = self.family_query();
            let doc = self.slots[slot].id;
            let request = Request::Query {
                tenant: self.tenant.clone(),
                doc,
                mode: EvaluationMode::OptHyPE,
                query,
            };
            conn.exchange(Kind::Query, request);
            return;
        }
        if self.n.is_multiple_of(CHURN_REGISTER_EVERY) {
            self.register_fresh(conn);
            return;
        }
        if self.n.is_multiple_of(CHURN_BATCH_EVERY) {
            let slot = self.rng.below(CHURN_SLOTS);
            let queries = (0..4).map(|_| self.family_query()).collect();
            let request = Request::BatchQuery {
                tenant: self.tenant.clone(),
                doc: self.slots[slot].id,
                mode: EvaluationMode::OptHyPE,
                queries,
            };
            conn.exchange(Kind::Batch, request);
            return;
        }
        let (slot, op) = self.edit_op();
        let old = self.slots[slot].id;
        let request = Request::ApplyEdit {
            tenant: self.tenant.clone(),
            doc: old,
            ops: vec![op.to_wire(&self.payload_snapshots)],
        };
        if let Some(Response::EditApplied { new_doc, .. }) = conn.exchange(Kind::Edit, request) {
            self.slots[slot]
                .tree
                .apply(&op.to_edit(&self.payloads))
                .expect("edit applies locally as on the server");
            self.slots[slot].id = new_doc;
            conn.log.events.push(DocEvent::Edit {
                tenant: intern(&self.tenant),
                old,
                op,
                new: new_doc,
            });
            self.query_next = Some(slot);
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up and the timed window
// ---------------------------------------------------------------------------

/// A running server with the workload's views and documents registered and
/// its caches warm. The set-up connection is closed before this is
/// returned, so the window's connections are the only ones the server
/// serves.
pub struct Deployment {
    pub server: Server,
    /// What the set-up connection observed (registrations, ingest, answers).
    pub setup_log: ConnLog,
    pub inputs: WireInputs,
    /// Doc id of each `inputs.docs` entry.
    pub doc_ids: Vec<u64>,
    /// `churn`: each connection's initial working set.
    pub churn_slots: Vec<Vec<(u64, XmlTree)>>,
    /// The traced run's replayer (set-up and traced window).
    pub replayer: Option<SharedReplayer>,
}

/// Builds the inputs, spawns the server, registers, warms up.
pub fn deploy(workload: &str, seed: u64, trace: bool) -> Deployment {
    let mut inputs = wire_inputs(workload, seed);
    if trace && workload == "eval_large" {
        // A traced client replays each request right after its answer; with
        // a second connection that replay would compete for the cores with
        // the other connection's request on the server, and the
        // decomposition would charge the contention to the residual. The
        // traced run therefore uses a single connection, on which
        // nothing overlaps.
        inputs.clients = 1;
    }
    let server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: inputs.workers,
            queue_capacity: 64,
            service: ServiceConfig::default(),
        },
    )
    .expect("loopback server spawns");
    let replayer = trace.then(|| Arc::new(Mutex::new(Replayer::new(&inputs.tenants))));
    let mut admin = Conn::connect(server.addr(), 0).expect("admin connects");
    admin.trace = trace;
    admin.replayer = replayer.clone();
    for t in &inputs.tenants {
        assert!(
            admin.register_view(&t.name, &t.view),
            "view {} registers",
            t.name
        );
    }
    let mut doc_ids = Vec::new();
    for d in &inputs.docs {
        let tenant = &inputs.tenants[d.tenant].name;
        let id = admin.register_document(tenant, &d.bytes);
        doc_ids.push(id.expect("document registers"));
    }
    let mut churn_slots = Vec::new();
    match workload {
        "serve_hot" => {
            let t = &inputs.tenants[0];
            for q in &t.queries {
                admin.exchange(
                    Kind::Query,
                    Request::Query {
                        tenant: t.name.clone(),
                        doc: doc_ids[0],
                        mode: EvaluationMode::HyPE,
                        query: q.clone(),
                    },
                );
            }
        }
        "eval_large" => {
            for (i, t) in inputs.tenants.iter().enumerate() {
                for mode in MODES {
                    admin.exchange(
                        Kind::Batch,
                        Request::BatchQuery {
                            tenant: t.name.clone(),
                            doc: doc_ids[i],
                            mode,
                            queries: t.queries.clone(),
                        },
                    );
                }
            }
        }
        _ => {
            for c in 0..inputs.clients as u64 {
                let mut slots = Vec::new();
                for n in 0..=CHURN_SLOTS as u64 {
                    let tree = churn_fresh_doc(seed, c, n);
                    let bytes = Arc::new(snapshot::save(&tree));
                    let id = admin
                        .register_document("hospital", &bytes)
                        .expect("fresh document registers");
                    admin.exchange(
                        Kind::Query,
                        Request::Query {
                            tenant: "hospital".into(),
                            doc: id,
                            mode: EvaluationMode::OptHyPE,
                            query: "patient".into(),
                        },
                    );
                    slots.push((id, tree));
                }
                churn_slots.push(slots);
            }
        }
    }
    let setup_log = std::mem::take(&mut admin.log);
    drop(admin);
    Deployment {
        server,
        setup_log,
        inputs,
        doc_ids,
        churn_slots,
        replayer,
    }
}

fn drivers(workload: &str, seed: u64, dep: &mut Deployment) -> Vec<Box<dyn Driver>> {
    let clients = dep.inputs.clients;
    match workload {
        "serve_hot" => (0..clients)
            .map(|c| {
                Box::new(ServeHot {
                    rng: Rng::fork(seed, 10 + c as u64),
                    n: c as u64,
                    doc: dep.doc_ids[0],
                }) as Box<dyn Driver>
            })
            .collect(),
        "eval_large" => {
            let tenants: Vec<(String, u64, Vec<String>)> = dep
                .inputs
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| (t.name.clone(), dep.doc_ids[i], t.queries.clone()))
                .collect();
            let cycles: Vec<Vec<(usize, EvaluationMode)>> = tenants
                .iter()
                .map(|(_, _, queries)| {
                    (0..EVAL_LARGE_SOLO_QUERIES)
                        .map(|i| i * queries.len() / EVAL_LARGE_SOLO_QUERIES)
                        .flat_map(|q| MODES.map(|m| (q, m)))
                        .collect()
                })
                .collect();
            (0..clients)
                .map(|c| {
                    // The second connection starts half the solo sequence apart.
                    Box::new(EvalLarge {
                        tenants: tenants.clone(),
                        snapshots: dep
                            .inputs
                            .docs
                            .iter()
                            .map(|d| Arc::clone(&d.bytes))
                            .collect(),
                        cycles: cycles.clone(),
                        n: 2 * c,
                        solo: 24 * c,
                        registered: 2 * c,
                    }) as Box<dyn Driver>
                })
                .collect()
        }
        _ => std::mem::take(&mut dep.churn_slots)
            .into_iter()
            .enumerate()
            .map(|(c, slots)| Box::new(Churn::new(seed, c as u64, slots)) as Box<dyn Driver>)
            .collect(),
    }
}

/// Runs the closed loop for `seconds`. In a traced run the first half is
/// traced and the second half is not, so the two can be compared. Returns
/// the merged log and the measured seconds of the untraced and traced
/// phases (each client finishes its request in flight at the deadline).
pub fn run_window(
    workload: &str,
    seed: u64,
    dep: &mut Deployment,
    seconds: f64,
    trace: bool,
) -> (ConnLog, [f64; 2]) {
    let addr = dep.server.addr();
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    let switch = if trace {
        start + (seconds * 0.5e9) as u64
    } else {
        start
    };
    let handles: Vec<_> = drivers(workload, seed, dep)
        .into_iter()
        .enumerate()
        .map(|(c, mut driver)| {
            let replayer = dep.replayer.clone();
            thread::spawn(move || {
                let mut conn = Conn::connect(addr, c as u64 + 1).expect("client connects");
                conn.replayer = replayer;
                loop {
                    let now = now_ns();
                    if now >= end {
                        break;
                    }
                    conn.trace = now < switch;
                    driver.step(&mut conn);
                }
                conn.log
            })
        })
        .collect();
    let mut log = ConnLog::default();
    for h in handles {
        log.merge(h.join().expect("client thread"));
    }
    let done = now_ns();
    (
        log,
        [(done - switch) as f64 / 1e9, (switch - start) as f64 / 1e9],
    )
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

#[derive(Default, Debug)]
pub struct GateReport {
    pub checked: u64,
    pub mismatches: u64,
    pub oracle_checked: u64,
    pub oracle_mismatches: u64,
    pub id_mismatches: u64,
    pub first_failure: Option<String>,
}

impl GateReport {
    pub fn ok(&self) -> bool {
        self.mismatches == 0
            && self.oracle_mismatches == 0
            && self.id_mismatches == 0
            && self.checked > 0
    }

    /// Keeps the description of the first failure; callers count it.
    pub fn fail(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }
}

/// Answers of a whole-tree query through the materialize-then-evaluate
/// oracle.
pub fn oracle_answers(view: &ViewDefinition, tree: &XmlTree, query: &str) -> Vec<u32> {
    let materialized = smoqe_views::materialize(view, tree).expect("view materializes");
    let path = smoqe_xpath::parse_path(query).expect("query parses");
    let on_view = smoqe_xpath::evaluate(&materialized.tree, materialized.tree.root(), &path);
    materialized
        .origins_of(&on_view)
        .into_iter()
        .map(|n| n.0)
        .collect()
}

/// Cache capacity of the reference services: larger than any workload's
/// distinct queries, so the reference compiles each query once.
const REFERENCE_CACHE: usize = 4096;

/// Oracle checks per run (materialization is expensive on large documents).
pub const ORACLE_SAMPLE: usize = 4;

/// Compares every distinct answer the wire gave against a direct
/// `QueryService` over rebuilt document versions, and a seeded sample
/// against the materialize-then-evaluate oracle.
pub fn check(tenants: &[TenantSpec], log: &ConnLog, seed: u64) -> GateReport {
    let mut report = GateReport {
        mismatches: log.inline_mismatches,
        ..Default::default()
    };
    if log.inline_mismatches > 0 {
        report.fail(format!(
            "{} repeated answers differed from the first",
            log.inline_mismatches
        ));
    }
    let mut by_doc: HashMap<(u32, u64), Vec<&AnswerKey>> = HashMap::new();
    let mut keys: Vec<&AnswerKey> = log.answers.keys().collect();
    keys.sort_by_cached_key(|k| k.sort_key());
    for key in &keys {
        by_doc.entry((key.tenant, key.doc)).or_default().push(key);
    }
    let mut rng = Rng::fork(seed, 30);
    let mut sample: Vec<&AnswerKey> = Vec::new();
    for _ in 0..ORACLE_SAMPLE.min(keys.len()) {
        sample.push(keys[rng.below(keys.len())]);
    }
    let references: HashMap<u32, (QueryService, DocumentStore, &ViewDefinition)> = tenants
        .iter()
        .map(|t| {
            // Caching is transparent to answers and statistics, so the
            // reference keeps every compilation and index it builds.
            let config = ServiceConfig {
                compiled_capacity: REFERENCE_CACHE,
                index_capacity: REFERENCE_CACHE,
                ..ServiceConfig::default()
            };
            let service = QueryService::with_config(t.view.clone(), config).expect("view valid");
            (intern(&t.name), (service, DocumentStore::new(), &t.view))
        })
        .collect();
    let payloads = payload_trees();
    let mut verify = |tenant: u32, id: u64, report: &mut GateReport| {
        let Some(group) = by_doc.remove(&(tenant, id)) else {
            return;
        };
        let (service, store, view) = &references[&tenant];
        let doc = store.get(DocId(id)).expect("reference holds the version");
        let tenant = text(tenant);
        for mode in MODES {
            let keys: Vec<&AnswerKey> =
                group.iter().copied().filter(|k| k.mode() == mode).collect();
            if keys.is_empty() {
                continue;
            }
            let texts: Vec<Arc<str>> = keys.iter().map(|k| text(k.query)).collect();
            let queries: Vec<&str> = texts.iter().map(|q| &**q).collect();
            let batch = service
                .evaluate_batch(&queries, doc.tree(), mode)
                .expect("reference evaluates");
            for ((key, query), expected) in keys.iter().zip(&queries).zip(&batch.results) {
                report.checked += 1;
                if log.answers[*key] != reference_digest(expected) {
                    report.mismatches += 1;
                    report.fail(format!(
                        "wire vs reference on {tenant}/{id}/{}/`{query}`",
                        mode_name(mode)
                    ));
                }
                if sample.contains(key) {
                    report.oracle_checked += 1;
                    let oracle = oracle_answers(view, doc.tree(), query);
                    let got: Vec<u32> = expected.answers.iter().map(|n| n.0).collect();
                    if oracle != got {
                        report.oracle_mismatches += 1;
                        report.fail(format!("oracle vs reference on {tenant}/{id}/`{query}`"));
                    }
                }
            }
        }
    };
    for event in &log.events {
        match event {
            DocEvent::Register { tenant, bytes, id } => {
                let (_, store, _) = &references[tenant];
                let got = store.insert_snapshot(bytes).expect("reference ingests").0;
                if got != *id {
                    report.id_mismatches += 1;
                    report.fail(format!("registered id {id} vs reference {got}"));
                }
                verify(*tenant, *id, &mut report);
            }
            DocEvent::Edit {
                tenant,
                old,
                op,
                new,
            } => {
                let (service, store, _) = &references[tenant];
                match service.apply_edit(store, DocId(*old), &[op.to_edit(&payloads)]) {
                    Ok(receipt) if receipt.new_id.0 == *new => {}
                    other => {
                        report.id_mismatches += 1;
                        report.fail(format!(
                            "edit of {old}: wire {new} vs reference {:?}",
                            other.map(|r| r.new_id)
                        ));
                        continue;
                    }
                }
                verify(*tenant, *new, &mut report);
            }
        }
    }
    if !by_doc.is_empty() {
        report.mismatches += by_doc.len() as u64;
        report.fail(format!(
            "{} answered documents the reference never saw",
            by_doc.len()
        ));
    }
    report
}
