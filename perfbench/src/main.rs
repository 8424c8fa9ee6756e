//! The SMOQE-RS benchmark: one command, four workloads. `BENCHMARK.json`
//! runs `eval_large` and `embedded_xml`; `serve_hot` and `churn` stay
//! runnable but are left out of it as too unsteady on a shared 2-vCPU
//! host (see `perfbench/NOTES.md`).
//!
//! ```text
//! cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|eval_large|churn|embedded_xml> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this process (at most two
//! client threads). The three socket workloads run `smoqed` in-process
//! through `Server::spawn`; `embedded_xml` calls the library directly. A
//! run sets up, measures for `--seconds`, checks every distinct answer
//! against an in-process reference, and then repeats the set-up so that
//! `setup_s` is a median. Any mismatch, failed request or unmeasured
//! metric exits nonzero without a result line. With `--trace 0` the last
//! stdout line carries the end-to-end metrics (best-case latencies per
//! distinct request, set-up time, memory); with `--trace 1` it carries
//! the per-layer metrics of a traced run (spans written under
//! `perfbench/out/`). The line before it is the run record: host block,
//! input properties, per-kind latencies, failure accounting, self-checks.

mod common;
mod embedded;
mod layers;
mod replay;
mod trace;
mod wire;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use common::{geomean, median, now_ns, peak_rss_mb, percentile, ratio, sorted, Json, Metrics};
use layers::{
    finish_replay, in_order, layer_metrics, layer_sums, probe_library, probe_wire, Counters,
    ProbeItem, ProbeOut,
};
use replay::Replay;
use trace::Tracer;
use wire::{Kind, Sample, TenantSpec};

const WORKLOADS: &[&str] = &["serve_hot", "eval_large", "churn", "embedded_xml"];

/// Set-ups per run (`setup_s` is their median): fewer where one set-up
/// takes seconds.
fn setup_repeats(workload: &str) -> usize {
    match workload {
        "eval_large" => 5,
        _ => 9,
    }
}

/// The latency percentile reported as `query_tail_us`: the highest that
/// keeps at least ten samples beyond it at the workload's request rate.
fn tail_pct(workload: &str) -> f64 {
    match workload {
        "serve_hot" | "churn" => 99.0,
        "eval_large" => 90.0,
        _ => 75.0,
    }
}

/// Layer-sum self-check: on `eval_large` the median residual (wire interval
/// minus the replayed server layers) must stay within this share of the
/// median round trip, or a layer is missing.
const RESIDUAL_TOLERANCE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.5),
        trace,
    })
}

/// What a run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: Metrics,
    layers: Metrics,
    record: Json,
}

fn main() -> ExitCode {
    now_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.workload == "embedded_xml" {
        run_embedded(&args)
    } else {
        run_wire(&args)
    };
    let mut record = Json::obj()
        .with("record", "perfbench")
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host", host_block(args.seed))
        .with("correct", out.correct);
    if let Json::Obj(fields) = out.record {
        for (k, v) in fields {
            record.push(&k, v);
        }
    }
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("record-{}-{}.json", args.workload, args.seed));
        let _ = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, record.render()));
    }
    println!("{}", record.render());
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let result = Json::obj()
        .with("correct", out.correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics.to_json());
    if !out.correct {
        eprintln!("perfbench: correctness check failed; see the run record");
        return ExitCode::from(1);
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} requests failed; the workloads are built so that none does",
            out.failed, out.attempted
        );
        return ExitCode::from(1);
    }
    // A metric that is not a number, or an end-to-end metric that reads 0
    // (its request kind never completed), would read as a gain.
    let mut unmeasured = metrics.non_finite();
    if !args.trace {
        unmeasured.extend(
            out.e2e
                .0
                .iter()
                .filter(|m| m.1 <= 0.0)
                .map(|m| m.0.as_str()),
        );
    }
    if !unmeasured.is_empty() {
        eprintln!("perfbench: metrics not measured: {unmeasured:?}");
        return ExitCode::from(1);
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn host_block(seed: u64) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_default();
    Json::obj()
        .with(
            "cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .with(
            "SMOQE_KERNEL",
            std::env::var("SMOQE_KERNEL").unwrap_or_else(|_| "wide (default)".into()),
        )
        .with("rustc", rustc)
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("seed", seed)
}

/// Latency summary of one request kind in one phase.
fn kind_summary(samples: &[Sample], traced: bool, kind: Kind, tail: f64) -> Option<Json> {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced == traced && s.kind == kind)
        .map(|s| s.us)
        .collect();
    if v.is_empty() {
        return None;
    }
    let s = sorted(&v);
    let fastest = fastest_per_request(samples, traced, kind);
    let mut j = Json::obj()
        .with("n", v.len())
        .with("distinct", fastest.len())
        .with("best_us", geomean(fastest.values().copied()))
        .with("p50_us", median(&v))
        .with(&format!("p{}_us", tail as u32), percentile(&s, tail));
    // p99 only with at least ten samples beyond it.
    if v.len() >= 1000 && tail != 99.0 {
        j.push("p99_us", percentile(&s, 99.0));
    }
    let deciles: Vec<Json> = (1..10)
        .map(|d| Json::from(percentile(&s, d as f64 * 10.0)))
        .collect();
    Some(j.with("max_us", s[s.len() - 1]).with("deciles_us", deciles))
}

/// Per distinct request of `kind` answered in the phase: its fastest
/// round trip (µs).
fn fastest_per_request(samples: &[Sample], traced: bool, kind: Kind) -> HashMap<u64, f64> {
    let mut fastest: HashMap<u64, f64> = HashMap::new();
    for s in samples
        .iter()
        .filter(|s| s.traced == traced && s.kind == kind)
    {
        let best = fastest.entry(s.key).or_insert(f64::INFINITY);
        *best = best.min(s.us);
    }
    fastest
}

/// `kind`'s best-case latency: the geometric mean, over the distinct
/// requests of that kind answered in the phase, of each one's fastest
/// round trip. A request's fastest repeat is the one the host slowed
/// least, so this follows the program's cost and not the host's speed.
fn best_us(samples: &[Sample], traced: bool, kind: Kind) -> f64 {
    geomean(fastest_per_request(samples, traced, kind).into_values())
}

/// Ingest rate at each document's fastest ingest call: the geometric mean,
/// over the distinct documents ingested, of nodes ÷ that call's seconds.
fn best_ingest_rate(ingest: &[(u64, usize, f64)]) -> f64 {
    let mut fastest: HashMap<u64, f64> = HashMap::new();
    for &(doc, nodes, us) in ingest {
        let rate = ratio(nodes as f64, us / 1e6);
        let best = fastest.entry(doc).or_insert(0.0);
        *best = best.max(rate);
    }
    geomean(fastest.into_values())
}

/// The end-to-end metrics `BENCHMARK.json` gates, for one phase
/// (`traced` false = untraced).
fn e2e_metrics(
    samples: &[Sample],
    traced: bool,
    setup_s: f64,
    ingest: &[(u64, usize, f64)],
    peak_rss: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("query_best_us", best_us(samples, traced, Kind::Query), "us");
    m.set("batch_best_us", best_us(samples, traced, Kind::Batch), "us");
    m.set(
        "ingest_best_nodes_per_s",
        best_ingest_rate(ingest),
        "nodes/s",
    );
    m.set("peak_rss_mb", peak_rss, "MB");
    m
}

/// Whole-window figures of one phase, for the run record: throughput,
/// per-kind median and tail latency, and the ingest rate over all ingest
/// calls. They follow the host's speed, which on a shared host drifts by
/// tens of percent between runs minutes apart, so `BENCHMARK.json` does
/// not gate them (see `perfbench/NOTES.md`).
fn window_metrics(
    workload: &str,
    samples: &[Sample],
    traced: bool,
    phase_s: f64,
    ingest: &[(u64, usize, f64)],
) -> Metrics {
    let pick = |kind: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced && s.kind == kind)
            .map(|s| s.us)
            .collect()
    };
    let queries = pick(Kind::Query);
    let done = samples.iter().filter(|s| s.traced == traced).count();
    let nodes: f64 = ingest.iter().map(|i| i.1 as f64).sum();
    let secs: f64 = ingest.iter().map(|i| i.2 / 1e6).sum();
    let mut m = Metrics::default();
    m.set("qps", ratio(done as f64, phase_s), "req/s");
    m.set("query_p50_us", median(&queries), "us");
    m.set(
        "query_tail_us",
        percentile(&sorted(&queries), tail_pct(workload)),
        "us",
    );
    m.set("batch_p50_us", median(&pick(Kind::Batch)), "us");
    m.set("ingest_nodes_per_s", ratio(nodes, secs), "nodes/s");
    m
}

/// `traced / untraced − 1` for set-up, throughput and the best-case
/// latencies; each phase's figures are looked up in its metric sets in
/// turn.
fn overhead(traced: &[&Metrics], plain: &[&Metrics]) -> Metrics {
    let get = |sets: &[&Metrics], name: &str| sets.iter().find_map(|m| m.get(name)).unwrap_or(0.0);
    let mut m = Metrics::default();
    for name in ["qps", "query_best_us", "batch_best_us", "setup_s"] {
        m.set(
            &format!("trace.overhead.{name}"),
            ratio(get(traced, name), get(plain, name)) - 1.0,
            "ratio",
        );
    }
    m.set("trace.peak_rss_mb", peak_rss_mb(), "MB");
    m
}

fn latency_block(samples: &[Sample], traced: bool, tail: f64) -> Json {
    let mut j = Json::obj();
    for kind in Kind::ALL {
        if let Some(s) = kind_summary(samples, traced, kind, tail) {
            j.push(kind.name(), s);
        }
    }
    j
}

fn run_wire(args: &Args) -> Outcome {
    let w = args.workload.as_str();
    // The set-up the window runs on is timed from process start. The other
    // set-ups that time `setup_s` run after the gate, so the memory they
    // leave behind cannot raise the window's peak.
    let mut dep = wire::deploy(w, args.seed, args.trace);
    let first_setup_s = now_ns() as f64 / 1e9;
    let mut ingest = dep.setup_log.ingest.clone();
    let tenant_names: Vec<String> = dep.inputs.tenants.iter().map(|t| t.name.clone()).collect();
    // Server and service counters are read in-process, so no connection
    // besides the workload's own is open during the window.
    let service_stats = |dep: &wire::Deployment| -> Vec<_> {
        tenant_names
            .iter()
            .map(|t| dep.server.registry().get(t).map(|t| t.service.stats()))
            .collect()
    };
    let service_before = service_stats(&dep);
    let before = ServerCount::read(&dep);
    let (mut log, [plain_s, traced_s]) =
        wire::run_window(w, args.seed, &mut dep, args.seconds, args.trace);
    let window_rss = peak_rss_mb();
    let log_mb = log.approx_bytes() as f64 / (1024.0 * 1024.0);
    let after = ServerCount::read(&dep);
    let service_after = service_stats(&dep);

    // Failure accounting, cross-checked against the server's counters.
    let attempted: u64 = log.attempted.values().sum();
    let failed: u64 = log.failed.values().sum();
    let protocol_errors_seen = log.error_codes.get("Protocol").copied().unwrap_or(0);
    let served = after.requests_total - before.requests_total;
    let cross_check = Json::obj()
        .with("client_attempted", attempted)
        .with("client_answered", attempted - log.transport - log.busy)
        .with("server_requests", served)
        .with("client_busy", log.busy)
        .with("server_shed", after.shed_total - before.shed_total)
        .with("client_protocol_errors", protocol_errors_seen)
        .with(
            "server_protocol_errors",
            after.protocol_errors - before.protocol_errors,
        );
    let counts_agree = served == attempted - log.transport - log.busy
        && after.shed_total - before.shed_total == log.busy
        && after.protocol_errors - before.protocol_errors == protocol_errors_seen;
    let mut counters = Counters {
        shed: after.shed_total - before.shed_total,
        protocol_errors: after.protocol_errors - before.protocol_errors,
        ..Counters::default()
    };
    let mut cache_block = Json::obj();
    for ((name, b), a) in tenant_names.iter().zip(&service_before).zip(&service_after) {
        let (Some(b), Some(a)) = (b, a) else {
            continue;
        };
        counters.compiled_hits += a.compiled_hits - b.compiled_hits;
        counters.compiled_misses += a.compiled_misses - b.compiled_misses;
        counters.index_hits += a.index_hits - b.index_hits;
        counters.index_misses += a.index_misses - b.index_misses;
        counters.index_invalidations += a.index_invalidations - b.index_invalidations;
        cache_block.push(
            name,
            Json::obj()
                .with("compiled_cached", a.compiled_cached)
                .with("compiled_capacity", 128u64)
                .with("index_cached", a.index_cached)
                .with("index_capacity", 64u64)
                .with(
                    "compile_hit_share",
                    1.0 - ratio(
                        (a.compiled_misses - b.compiled_misses) as f64,
                        (a.compiled_hits + a.compiled_misses - b.compiled_hits - b.compiled_misses)
                            as f64,
                    ),
                )
                .with(
                    "index_hit_share",
                    1.0 - ratio(
                        (a.index_misses - b.index_misses) as f64,
                        (a.index_hits + a.index_misses - b.index_hits - b.index_misses) as f64,
                    ),
                ),
        );
    }

    // Input properties and the final resident set.
    let (mut resident, mut bytes) = (0usize, 0usize);
    for name in &tenant_names {
        if let Some(t) = dep.server.registry().get(name) {
            for id in t.store.ids() {
                if let Some(d) = t.store.get(id) {
                    resident += d.tree().live_len();
                    bytes += d.tree().approximate_byte_size() + d.snapshot_bytes().len();
                }
            }
        }
    }
    let mut distinct: BTreeMap<String, std::collections::BTreeSet<u32>> = BTreeMap::new();
    for key in log.answers.keys() {
        distinct
            .entry(wire::text(key.tenant).to_string())
            .or_default()
            .insert(key.query);
    }
    let inputs = Json::obj()
        .with(
            "documents",
            Json::Arr(
                dep.inputs
                    .docs
                    .iter()
                    .map(|d| {
                        Json::obj()
                            .with("tenant", dep.inputs.tenants[d.tenant].name.as_str())
                            .with("nodes", d.nodes)
                            .with("snapshot_bytes", d.bytes.len())
                    })
                    .collect(),
            ),
        )
        .with(
            "distinct_queries",
            Json::Obj(
                distinct
                    .iter()
                    .map(|(t, q)| (t.clone(), Json::from(q.len())))
                    .collect(),
            ),
        )
        .with("caches", cache_block)
        .with("resident_nodes", resident)
        .with("resident_bytes", bytes)
        .with("client_log_mb", log_mb)
        .with(
            "resident_documents",
            tenant_names
                .iter()
                .filter_map(|n| dep.server.registry().get(n))
                .map(|t| t.store.len())
                .sum::<usize>(),
        );

    // Correctness gate, outside the timed window.
    let samples = std::mem::take(&mut log.samples);
    ingest.extend(log.ingest.iter().copied());
    let latency = latency_block(&samples, false, tail_pct(w));
    let failures = failure_block(attempted, failed, &log, &cross_check, counts_agree);
    let mut full_log = std::mem::take(&mut dep.setup_log);
    full_log.merge(log);
    let gate = wire::check(&dep.inputs.tenants, &full_log, args.seed);
    let correct = gate.ok() && counts_agree;

    let mut extra_setups = Vec::new();
    for _ in 1..setup_repeats(w) {
        let start = now_ns();
        let extra = wire::deploy(w, args.seed, false);
        extra_setups.push((now_ns() - start) as f64 / 1e9);
        ingest.extend(extra.setup_log.ingest.iter().copied());
    }
    let setup_plain = if args.trace {
        median(&extra_setups)
    } else {
        median(&[&[first_setup_s][..], &extra_setups].concat())
    };
    let e2e_plain = e2e_metrics(&samples, false, setup_plain, &ingest, window_rss);
    let window_plain = window_metrics(w, &samples, false, plain_s, &ingest);

    let mut record = Json::obj()
        .with("inputs", inputs)
        .with("setups_s", setups_json(first_setup_s, &extra_setups))
        .with("latency", latency)
        .with("end_to_end", e2e_plain.to_json())
        .with("window", window_plain.to_json())
        .with("failures", failures)
        .with("gate", gate_block(&gate));

    let mut layers = Metrics::default();
    if args.trace {
        let rp = finish_replay(dep.replayer.take().expect("traced run has a replayer"));
        let mut probe = Tracer::default();
        let items = probe_items(w, &dep.inputs, args.seed);
        let probe_out = {
            let t_self = rp.tracer.self_times_us();
            let need = |name: &str| match name {
                "xml.events" => true,
                other => !t_self.contains_key(other),
            };
            probe_library(&mut probe, &items, &need)
        };
        let e2e_traced = e2e_metrics(&samples, true, first_setup_s, &ingest, window_rss);
        let window_traced = window_metrics(w, &samples, true, traced_s, &ingest);
        let overhead = overhead(&[&e2e_traced, &window_traced], &[&e2e_plain, &window_plain]);
        let (m, sources) = layer_metrics(
            &rp,
            &probe,
            &probe_out,
            counters,
            (ratio(bytes as f64, resident as f64), resident as f64),
            &overhead,
        );
        layers = in_order(&m);
        let sums = layer_sum_block(&rp, w, &layers, &mut record);
        record.push("layer_sums", sums);
        record.push("layer_sources", sources);
        record.push("traced_latency", latency_block(&samples, true, tail_pct(w)));
        record.push("traced_end_to_end", e2e_traced.to_json());
        record.push("traced_window", window_traced.to_json());
        record.push("index_pruning", pruning_block(&probe_out));
        record.push("replay_mismatches", rp.mismatches);
        let mut all = rp.tracer;
        all.absorb(probe);
        record.push("spans", span_summary(&all));
        write_trace(&all, w, args.seed);
    }
    Outcome {
        correct,
        attempted,
        failed,
        e2e: e2e_plain,
        layers,
        record,
    }
}

/// Every set-up's seconds, the window's (timed from process start) first.
fn setups_json(first: f64, extra: &[f64]) -> Json {
    Json::Arr(
        std::iter::once(first)
            .chain(extra.iter().copied())
            .map(Json::from)
            .collect(),
    )
}

/// The server's own request counters, read in-process.
struct ServerCount {
    requests_total: u64,
    shed_total: u64,
    protocol_errors: u64,
}

impl ServerCount {
    fn read(dep: &wire::Deployment) -> ServerCount {
        let c = dep.server.counters();
        ServerCount {
            requests_total: c.requests_total.load(Ordering::Relaxed),
            shed_total: c.shed_total.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

fn failure_block(
    attempted: u64,
    failed: u64,
    log: &wire::ConnLog,
    cross: &Json,
    agree: bool,
) -> Json {
    Json::obj()
        .with("attempted", attempted)
        .with("failed", failed)
        .with("failed_frac", ratio(failed as f64, attempted as f64))
        .with("busy", log.busy)
        .with("transport", log.transport)
        .with(
            "error_codes",
            Json::Obj(
                log.error_codes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        )
        .with("cross_check", cross.clone())
        .with("counts_agree", agree)
}

fn gate_block(gate: &wire::GateReport) -> Json {
    Json::obj()
        .with("checked", gate.checked)
        .with("mismatches", gate.mismatches + gate.id_mismatches)
        .with("oracle_checked", gate.oracle_checked)
        .with("oracle_mismatches", gate.oracle_mismatches)
        .with(
            "first_failure",
            gate.first_failure
                .clone()
                .map(Json::from)
                .unwrap_or(Json::Null),
        )
}

fn pruning_block(p: &ProbeOut) -> Json {
    Json::Arr(
        p.per_item
            .iter()
            .map(|p| {
                Json::obj()
                    .with("input", p.name.as_str())
                    .with("nodes", p.nodes)
                    .with("queries", p.queries)
                    .with("hype_visits", p.hype_visits)
                    .with("extra_pruned", p.extra_pruned)
                    .with("useful", p.useful)
            })
            .collect(),
    )
}

/// Per kind: median wire round trip beside the median layer sum (client
/// codec plus replayed server layers), with totals. The self-check takes
/// `server.residual_us` (median per-request residual) as a share of the
/// median round trip; on `eval_large` it must stay within
/// `RESIDUAL_TOLERANCE`, or a layer is missing from the decomposition.
fn layer_sum_block(rp: &Replay, workload: &str, layers: &Metrics, record: &mut Json) -> Json {
    let mut j = Json::obj();
    for s in layer_sums(rp) {
        j.push(
            s.kind.name(),
            Json::obj()
                .with("n", s.n)
                .with("rtt_us", s.rtt_us)
                .with("layers_us", s.layers_us)
                .with("residual_us", s.residual_us)
                .with("rtt_total_us", s.rtt_total_us)
                .with("residual_total_us", s.residual_total_us),
        );
    }
    let share = layers.get("server.residual_share").unwrap_or(0.0);
    let within = share <= RESIDUAL_TOLERANCE;
    if workload == "eval_large" && !within {
        eprintln!("perfbench: layer-sum check: residual share {share:.3} exceeds {RESIDUAL_TOLERANCE} on eval_large; a layer is missing");
    }
    record.push(
        "layer_sum_check",
        Json::obj()
            .with("residual_share", share)
            .with("tolerance", RESIDUAL_TOLERANCE)
            .with("applies", workload == "eval_large")
            .with("within", within),
    );
    j
}

/// Median self time and count per span name.
fn span_summary(tracer: &Tracer) -> Json {
    let mut names: Vec<_> = tracer.self_times_us().into_iter().collect();
    names.sort_by_key(|(name, _)| *name);
    Json::Obj(
        names
            .into_iter()
            .map(|(name, v)| {
                (
                    name.to_owned(),
                    Json::obj()
                        .with("n", v.len())
                        .with("self_p50_us", median(&v)),
                )
            })
            .collect(),
    )
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new("perfbench/out").join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// The library-probe inputs of a socket workload: its tenants' documents
/// and queries (for `churn`, a fresh private document and a family sample).
fn probe_items(workload: &str, inputs: &wire::WireInputs, seed: u64) -> Vec<ProbeItem> {
    if workload == "churn" {
        let t = &inputs.tenants[0];
        let queries = [
            "patient[record/diagnosis/text()='heart disease']",
            "(patient/parent)*/patient[record/diagnosis/text()='d7']",
            "//record[diagnosis/text()='d3']",
            "patient",
        ]
        .iter()
        .map(|q| q.to_string())
        .collect();
        return vec![ProbeItem {
            name: t.name.clone(),
            view: t.view.clone(),
            tree: std::sync::Arc::new(wire::churn_fresh_doc(seed, 9, 0)),
            queries,
        }];
    }
    inputs
        .docs
        .iter()
        .map(|d| {
            let t = &inputs.tenants[d.tenant];
            ProbeItem {
                name: t.name.clone(),
                view: t.view.clone(),
                tree: std::sync::Arc::new(
                    smoqe_xml::snapshot::load(&d.bytes).expect("own snapshot loads"),
                ),
                queries: t.queries.clone(),
            }
        })
        .collect()
}

fn run_embedded(args: &Args) -> Outcome {
    // As for the socket workloads: the set-up the window uses is timed from
    // process start, the others after the gate.
    let mut setup_tracer = Tracer::default();
    let inputs = embedded::setup(args.seed, args.trace.then_some(&mut setup_tracer));
    let first_setup_s = now_ns() as f64 / 1e9;
    let before = inputs.service.stats();
    let (log, [plain_s, traced_s]) = embedded::run_window(&inputs, args.seconds, args.trace);
    let window_rss = peak_rss_mb();
    let after = inputs.service.stats();
    let attempted = log.samples.len() as u64;
    let gate = embedded::check(&inputs, &log, args.seed);
    let correct = gate.ok();
    let mut extra_setups = Vec::new();
    for _ in 1..setup_repeats("embedded_xml") {
        let start = now_ns();
        drop(embedded::setup(args.seed, None));
        extra_setups.push((now_ns() - start) as f64 / 1e9);
    }
    let setup_s = if args.trace {
        median(&extra_setups)
    } else {
        median(&[&[first_setup_s][..], &extra_setups].concat())
    };
    let e2e = e2e_metrics(&log.samples, false, setup_s, &log.ingest, window_rss);
    let window = window_metrics("embedded_xml", &log.samples, false, plain_s, &log.ingest);
    let first = inputs.texts.first().map(|t| t.len()).unwrap_or(0);
    let mut record = Json::obj()
        .with(
            "inputs",
            Json::obj()
                .with("documents", embedded::DOCS)
                .with("nodes_per_document", log.peak_resident_nodes)
                .with("xml_bytes", first)
                .with("distinct_queries", embedded::QUERIES.len())
                .with("compiled_capacity", 128u64)
                .with(
                    "compile_hit_share",
                    1.0 - ratio(
                        (after.compiled_misses - before.compiled_misses) as f64,
                        (after.compiled_hits + after.compiled_misses
                            - before.compiled_hits
                            - before.compiled_misses) as f64,
                    ),
                )
                .with("resident_documents_at_end", inputs.store.ids().len()),
        )
        .with("setups_s", setups_json(first_setup_s, &extra_setups))
        .with(
            "latency",
            latency_block(&log.samples, false, tail_pct("embedded_xml")),
        )
        .with("end_to_end", e2e.to_json())
        .with("window", window.to_json())
        .with(
            "failures",
            Json::obj()
                .with("attempted", attempted)
                .with("failed", 0u64)
                .with("failed_frac", 0.0),
        )
        .with("gate", gate_block(&gate));
    let mut layers = Metrics::default();
    if args.trace {
        let traced_e2e = e2e_metrics(&log.samples, true, first_setup_s, &log.ingest, window_rss);
        let traced_window =
            window_metrics("embedded_xml", &log.samples, true, traced_s, &log.ingest);
        let hospital = smoqe_toxgene::domain("hospital").expect("hospital domain");
        let tree =
            std::sync::Arc::new(smoqe_xml::parse_document(&inputs.texts[0]).expect("XML parses"));
        let tenant = TenantSpec {
            name: "embedded".into(),
            view: hospital.view.clone(),
            queries: embedded::QUERIES.iter().map(|q| q.to_string()).collect(),
        };
        // The socket layers on this workload's document and queries.
        let mut rp = probe_wire(&tenant, &tree);
        let mut probe = Tracer::default();
        let items = vec![ProbeItem {
            name: "hospital".into(),
            view: hospital.view.clone(),
            tree,
            queries: tenant.queries.clone(),
        }];
        let mut traffic = log.tracer;
        traffic.absorb(setup_tracer);
        let t_self = traffic.self_times_us();
        let need = |name: &str| match name {
            "xml.events" => true,
            other => !t_self.contains_key(other),
        };
        let mut probe_out = probe_library(&mut probe, &items, &need);
        probe_out.max_shard = log.max_shard.clone();
        traffic.absorb(std::mem::take(&mut rp.tracer));
        rp.tracer = traffic;
        let counters = Counters {
            compiled_hits: after.compiled_hits - before.compiled_hits,
            compiled_misses: after.compiled_misses - before.compiled_misses,
            index_hits: after.index_hits - before.index_hits,
            index_misses: after.index_misses - before.index_misses,
            index_invalidations: after.index_invalidations - before.index_invalidations,
            ..Counters::default()
        };
        let overhead = overhead(&[&traced_e2e, &traced_window], &[&e2e, &window]);
        let store_stats = (median(&log.bytes_per_node), log.peak_resident_nodes as f64);
        let (m, sources) = layer_metrics(&rp, &probe, &probe_out, counters, store_stats, &overhead);
        layers = in_order(&m);
        let sums = layer_sum_block(&rp, "embedded_xml", &layers, &mut record);
        record.push("layer_sums", sums);
        record.push("layer_sources", sources);
        record.push(
            "socket_layers_from",
            "probe: one-worker server over this workload's document and queries",
        );
        record.push(
            "traced_latency",
            latency_block(&log.samples, true, tail_pct("embedded_xml")),
        );
        record.push("traced_end_to_end", traced_e2e.to_json());
        record.push("traced_window", traced_window.to_json());
        record.push("index_pruning", pruning_block(&probe_out));
        record.push("replay_mismatches", rp.mismatches);
        let mut all = rp.tracer;
        all.absorb(probe);
        record.push("spans", span_summary(&all));
        write_trace(&all, "embedded_xml", args.seed);
    }
    Outcome {
        correct,
        attempted,
        failed: 0,
        e2e,
        layers,
        record,
    }
}
