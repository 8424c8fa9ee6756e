//! `smoqed` server integration suite: a real TCP server on a loopback
//! port, driven over the wire.
//!
//! Locks the serving surface end to end:
//!
//! * wire answers **and stats** are bit-identical to direct
//!   [`QueryService`] calls, across two tenants with *different* security
//!   views, under ≥8 concurrent clients;
//! * tenant isolation: a tenant cannot see another tenant's documents,
//!   and each tenant's answers come from its own σ;
//! * robustness: abrupt disconnects mid-request and malformed frames
//!   degrade one connection at most — the accept loop keeps admitting;
//! * admission control: a full queue sheds with a typed `Busy` frame.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use integration_tests::{standard_hospital_document, view_query_corpus};
use smoqe::{DocId, DocumentStore, EvaluationMode, QueryService, ServiceConfig};
use smoqed::protocol::{ErrorCode, Request, Response, WireEditOp, WireResult};
use smoqed::{ClientError, Server, ServerConfig, SmoqedClient};
use smoqe_views::{derive_view, hospital_view, Access, SecuritySpec, ViewDefinition};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::snapshot;

/// A second, genuinely different σ (an *open* variant of the
/// research-institute policy from the security-views suite): every patient
/// visible — unlike σ₀'s heart-disease condition — but most structure
/// hidden.
fn research_view() -> ViewDefinition {
    let mut spec = SecuritySpec::new(hospital_document_dtd());
    spec.annotate("hospital", "department", Access::Deny);
    spec.annotate("department", "patient", Access::Allow);
    spec.annotate("patient", "visit", Access::Deny);
    spec.annotate("visit", "treatment", Access::Deny);
    spec.annotate("treatment", "medication", Access::Deny);
    spec.annotate("visit", "date", Access::Deny);
    spec.annotate("department", "name", Access::Deny);
    for hidden in [
        "pname", "address", "doctor", "sibling", "test", "street", "city", "zip", "dname",
        "specialty", "type",
    ] {
        spec.deny_everywhere(hidden);
    }
    derive_view(&spec).expect("research policy derives")
}

fn research_query_corpus() -> Vec<&'static str> {
    vec![
        "patient",
        "patient/diagnosis",
        "(patient/parent)*/patient/diagnosis",
        "patient[not(parent)]",
        "//diagnosis",
    ]
}

fn spawn_server(queue_capacity: usize) -> Server {
    Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_capacity,
            service: ServiceConfig::default(),
        },
    )
    .expect("loopback server spawns")
}

#[test]
fn wire_answers_and_stats_match_direct_service_calls_across_tenants() {
    let server = spawn_server(64);
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);

    // Reference side: the same views and document, evaluated directly.
    // Both sides start with cold caches and see the same request order per
    // tenant, so even cache-fill statistics must agree.
    let tenants: Vec<(&str, ViewDefinition, Vec<&'static str>)> = vec![
        ("nurse", hospital_view(), view_query_corpus()),
        ("research", research_view(), research_query_corpus()),
    ];

    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    for (name, view, queries) in &tenants {
        let fingerprint = client.register_view(name, view).expect("register view");
        assert_eq!(fingerprint, view.fingerprint(), "fingerprint for {name}");
        let id = client.register_document(name, &bytes).expect("register doc");

        let reference =
            QueryService::with_config(view.clone(), ServiceConfig::default()).unwrap();
        let store = DocumentStore::new();
        let ref_id = store.insert_snapshot(&bytes).unwrap();
        assert_eq!(id, ref_id.0, "content-addressed ids must agree");

        for query in queries {
            let wire = client
                .query(name, id, EvaluationMode::HyPE, query)
                .unwrap_or_else(|e| panic!("`{query}` on {name}: {e}"));
            let direct = reference
                .evaluate(query, store.get(ref_id).unwrap().tree(), EvaluationMode::HyPE)
                .unwrap();
            assert_eq!(
                wire,
                WireResult::from_result(&direct),
                "answers+stats differ on `{query}` for tenant {name}"
            );
        }

        // Batched path too: one shared pass, same per-query results.
        let refs: Vec<&str> = queries.clone();
        let (wire_results, wire_stats) = client
            .batch_query(name, id, EvaluationMode::HyPE, &refs)
            .expect("batch");
        let direct = reference
            .evaluate_batch(&refs, &doc, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(wire_results.len(), direct.results.len());
        for (w, d) in wire_results.iter().zip(&direct.results) {
            assert_eq!(w, &WireResult::from_result(d), "batch result for {name}");
        }
        assert_eq!(wire_stats.to_stats(), direct.stats, "batch stats for {name}");

        // And the per-tenant cache accounting matches the reference
        // service that saw the identical request sequence.
        let stats = client.stats(Some(name)).expect("stats");
        let direct_stats = reference.stats();
        let wire_service = stats.service.expect("tenant stats present");
        assert_eq!(wire_service.compiled_hits, direct_stats.compiled_hits);
        assert_eq!(wire_service.compiled_misses, direct_stats.compiled_misses);
        assert_eq!(wire_service.index_hits, direct_stats.index_hits);
        assert_eq!(wire_service.index_misses, direct_stats.index_misses);
        assert_eq!(wire_service.compiled_cached as usize, direct_stats.compiled_cached);
        assert_eq!(wire_service.index_cached as usize, direct_stats.index_cached);
    }
}

#[test]
fn eight_concurrent_clients_across_two_tenants_get_exact_answers() {
    let server = spawn_server(64);
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);

    let mut setup = SmoqedClient::connect(server.addr()).expect("connect");
    let nurse_doc = {
        setup.register_view("nurse", &hospital_view()).unwrap();
        setup.register_document("nurse", &bytes).unwrap()
    };
    let research_doc = {
        setup.register_view("research", &research_view()).unwrap();
        setup.register_document("research", &bytes).unwrap()
    };

    // Expected answers, computed once, directly.
    type TenantExpectations = (&'static str, u64, Vec<(String, WireResult)>);
    let nurse_ref =
        QueryService::with_config(hospital_view(), ServiceConfig::default()).unwrap();
    let research_ref =
        QueryService::with_config(research_view(), ServiceConfig::default()).unwrap();
    let expected: Vec<TenantExpectations> = vec![
        (
            "nurse",
            nurse_doc,
            view_query_corpus()
                .into_iter()
                .map(|q| {
                    let r = nurse_ref.evaluate(q, &doc, EvaluationMode::HyPE).unwrap();
                    (q.to_owned(), WireResult::from_result(&r))
                })
                .collect(),
        ),
        (
            "research",
            research_doc,
            research_query_corpus()
                .into_iter()
                .map(|q| {
                    let r = research_ref.evaluate(q, &doc, EvaluationMode::HyPE).unwrap();
                    (q.to_owned(), WireResult::from_result(&r))
                })
                .collect(),
        ),
    ];

    // 8 concurrent clients, alternating tenants, several passes each, so
    // both tenants are hammered concurrently through shared caches.
    let addr = server.addr();
    thread::scope(|scope| {
        for i in 0..8 {
            let expected = &expected;
            scope.spawn(move || {
                let (tenant, doc_id, answers) = &expected[i % expected.len()];
                let mut client = SmoqedClient::connect(addr).expect("client connects");
                for _pass in 0..3 {
                    for (query, want) in answers {
                        let got = client
                            .query(tenant, *doc_id, EvaluationMode::HyPE, query)
                            .unwrap_or_else(|e| panic!("client {i} `{query}`: {e}"));
                        assert_eq!(
                            &got, want,
                            "client {i}: wire answer differs on `{query}` for {tenant}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn tenants_cannot_reach_each_others_documents_or_views() {
    let server = spawn_server(64);
    let bytes = snapshot::save(&standard_hospital_document());

    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    client.register_view("nurse", &hospital_view()).unwrap();
    client.register_view("research", &research_view()).unwrap();
    let nurse_doc = client.register_document("nurse", &bytes).unwrap();

    // The document id is real — but only inside the nurse tenant.
    let err = client
        .query("research", nurse_doc, EvaluationMode::HyPE, "patient")
        .expect_err("cross-tenant document access must fail");
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::UnknownDocument, .. }),
        "got {err}"
    );

    // An unregistered tenant cannot evaluate at all.
    let err = client
        .query("ghost", nurse_doc, EvaluationMode::HyPE, "patient")
        .expect_err("unknown tenant must fail");
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::UnknownTenant, .. }),
        "got {err}"
    );

    // Each tenant's answers come from its *own* σ: the same query on the
    // same bytes differs across views (σ₀ exposes only heart-disease
    // patients, the open research policy exposes every patient).
    let research_doc = client.register_document("research", &bytes).unwrap();
    assert_eq!(nurse_doc, research_doc, "same bytes, same content address");
    let from_nurse = client
        .query("nurse", nurse_doc, EvaluationMode::HyPE, "patient")
        .unwrap();
    let from_research = client
        .query("research", research_doc, EvaluationMode::HyPE, "patient")
        .unwrap();
    assert!(
        from_research.answers.len() > from_nurse.answers.len(),
        "the open research view must expose strictly more patients ({} vs {})",
        from_research.answers.len(),
        from_nurse.answers.len()
    );
}

#[test]
fn query_and_batch_query_route_through_one_index_key_path() {
    // Both request kinds resolve the document in the tenant's store and
    // evaluate through the same service path, so the index cache key comes
    // from one place: an OptHyPE `Query` builds the index and a
    // `BatchQuery` holding the same query on the same document hits it.
    let server = spawn_server(64);
    let bytes = snapshot::save(&standard_hospital_document());
    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    client.register_view("nurse", &hospital_view()).unwrap();
    client.register_view("research", &research_view()).unwrap();
    let id = client.register_document("nurse", &bytes).unwrap();

    let query = "patient/record/diagnosis";
    let mode = EvaluationMode::OptHyPE;
    let solo = client.query("nurse", id, mode, query).expect("query");
    let (batch, _) = client.batch_query("nurse", id, mode, &[query]).expect("batch query");

    let stats = client.stats(Some("nurse")).expect("stats");
    let service = stats.service.expect("tenant stats present");
    assert_eq!(service.index_misses, 1, "the Query builds the index");
    assert_eq!(service.index_hits, 1, "the BatchQuery finds it under the same key");

    // Both answers equal QueryService::evaluate on the same document.
    let reference = QueryService::new(hospital_view()).unwrap();
    let loaded = snapshot::load(&bytes).unwrap();
    let direct = WireResult::from_result(&reference.evaluate(query, &loaded, mode).unwrap());
    assert_eq!(solo, direct);
    assert_eq!(batch, vec![direct]);

    // A document registered with another tenant is unknown to this one,
    // whichever request kind names it.
    let other = snapshot::save(&smoqe_xml::parse_document("<hospital/>").unwrap());
    let foreign = client.register_document("research", &other).unwrap();
    assert_ne!(foreign, id);
    let err = client
        .query("nurse", foreign, mode, query)
        .expect_err("a foreign id must fail on Query");
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::UnknownDocument, .. }),
        "got {err}"
    );
    let err = client
        .batch_query("nurse", foreign, mode, &[query])
        .expect_err("a foreign id must fail on BatchQuery");
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::UnknownDocument, .. }),
        "got {err}"
    );
}

#[test]
fn abrupt_disconnects_and_malformed_frames_do_not_wedge_the_server() {
    let server = spawn_server(64);
    let bytes = snapshot::save(&standard_hospital_document());
    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    client.register_view("nurse", &hospital_view()).unwrap();
    let doc = client.register_document("nurse", &bytes).unwrap();

    // 1. A client that sends half a frame and vanishes.
    {
        let mut rude = TcpStream::connect(server.addr()).unwrap();
        rude.write_all(&100u32.to_le_bytes()).unwrap();
        rude.write_all(&[0x03, 1, 2]).unwrap(); // 3 of the declared 100 bytes
        drop(rude); // abrupt disconnect mid-request
    }

    // 2. A client that sends a hostile length prefix.
    {
        let mut hostile = TcpStream::connect(server.addr()).unwrap();
        hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // The server may also close before the error frame lands, so only
        // a delivered frame is inspected.
        if let Ok(Some(body)) = smoqed::read_frame(&mut hostile) {
            let resp = smoqed::decode_response(&body).unwrap();
            assert!(
                matches!(resp, Response::Error { code: ErrorCode::Protocol, .. }),
                "oversized prefix must earn a typed error, got {resp:?}"
            );
        }
    }

    // The accept loop is alive: a fresh, polite client still gets exact
    // service.
    let mut polite = SmoqedClient::connect(server.addr()).expect("accept loop alive");
    let result = polite
        .query("nurse", doc, EvaluationMode::HyPE, "patient")
        .expect("server still answers");
    assert!(!result.answers.is_empty());

    // And the protocol errors were counted, not swallowed (the rude
    // clients' workers run asynchronously, so poll briefly).
    let mut counted = 0;
    for _ in 0..50 {
        counted = polite.stats(None).expect("stats").protocol_errors;
        if counted >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(40));
    }
    assert!(counted >= 1, "expected counted protocol errors, got {counted}");
}

#[test]
fn a_garbage_body_in_a_valid_frame_keeps_the_connection_serving() {
    let server = spawn_server(64);
    let bytes = snapshot::save(&standard_hospital_document());
    let mut setup = SmoqedClient::connect(server.addr()).expect("connect");
    setup.register_view("nurse", &hospital_view()).unwrap();
    let doc = setup.register_document("nurse", &bytes).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A well-formed frame carrying an unknown tag.
    smoqed::write_frame(&mut stream, &[0x7f, 1, 2, 3]).unwrap();
    let body = smoqed::read_frame(&mut stream).unwrap().expect("an answer");
    let resp = smoqed::decode_response(&body).unwrap();
    assert!(
        matches!(resp, Response::Error { code: ErrorCode::Protocol, .. }),
        "got {resp:?}"
    );

    // Same socket, now a valid request: still served.
    let query = Request::Query {
        tenant: "nurse".into(),
        doc,
        mode: EvaluationMode::HyPE,
        query: "patient".into(),
    };
    smoqed::write_frame(&mut stream, &smoqed::encode_request(&query)).unwrap();
    let body = smoqed::read_frame(&mut stream).unwrap().expect("an answer");
    match smoqed::decode_response(&body).unwrap() {
        Response::Answer(result) => assert!(!result.answers.is_empty()),
        other => panic!("expected an answer after recovery, got {other:?}"),
    }
}

#[test]
fn edits_over_the_wire_match_direct_apply_edit() {
    let server = spawn_server(64);
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);
    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    client.register_view("nurse", &hospital_view()).unwrap();
    let id = client.register_document("nurse", &bytes).unwrap();

    // Delete the first top-level subtree, over the wire and directly.
    let victim = doc.children(doc.root())[0];
    let (old_id, new_id, generation) = client
        .apply_edit(
            "nurse",
            id,
            vec![WireEditOp::Delete { node: victim.0 }],
        )
        .expect("edit applies");
    assert_eq!(old_id, id);
    assert_eq!(generation, 1);

    let reference =
        QueryService::with_config(hospital_view(), ServiceConfig::default()).unwrap();
    let store = DocumentStore::new();
    let ref_id = store.insert_snapshot(&bytes).unwrap();
    let receipt = store
        .apply_edit(ref_id, &[smoqe_xml::EditOp::Delete { node: victim }])
        .expect("direct edit applies");
    assert_eq!(new_id, receipt.new_id.0, "edited versions content-address equal");

    // Post-edit answers agree too.
    let wire = client
        .query("nurse", new_id, EvaluationMode::HyPE, "patient")
        .unwrap();
    let direct = reference
        .evaluate("patient", store.get(DocId(new_id)).unwrap().tree(), EvaluationMode::HyPE)
        .unwrap();
    assert_eq!(wire, WireResult::from_result(&direct));

    // The old id is retired in both worlds.
    let err = client
        .query("nurse", old_id, EvaluationMode::HyPE, "patient")
        .expect_err("retired id");
    assert!(matches!(
        err,
        ClientError::Server { code: ErrorCode::UnknownDocument, .. }
    ));
}

#[test]
fn a_full_admission_queue_sheds_with_a_typed_busy_frame() {
    // Queue of 0: admission is impossible, so *every* connection is shed
    // with a typed Busy frame — never a silent drop.
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 0,
            service: ServiceConfig::default(),
        },
    )
    .expect("server spawns");

    for i in 0..3 {
        let mut victim = TcpStream::connect(server.addr()).expect("tcp connect");
        victim.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let body = smoqed::read_frame(&mut victim)
            .unwrap_or_else(|e| panic!("shed connection {i} got no frame: {e}"))
            .expect("a Busy frame, not silence");
        let resp = smoqed::decode_response(&body).expect("typed frame");
        assert!(
            matches!(resp, Response::Busy { queue_capacity: 0 }),
            "expected Busy, got {resp:?}"
        );
    }
    assert!(server.counters().shed_total.load(Ordering::Relaxed) >= 3);
    server.shutdown();
}

#[test]
fn an_idle_connection_never_starves_waiting_clients_on_a_single_worker() {
    // Regression test for a real deadlock: with blocking sockets and
    // workers that own a connection until EOF, one idle-but-open client
    // wedges every later client as soon as live connections ≥ workers (on
    // a 1-core default server, a single held setup connection froze the
    // whole bench). The fix is rotation — a worker polls with a short read
    // timeout and hands an idle connection back to the queue when someone
    // is waiting. Force the worst case: ONE worker, an idle client that
    // never disconnects, and a second client that must still be served.
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            service: ServiceConfig::default(),
        },
    )
    .expect("server spawns");
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);

    // The idle camper: proves the worker is bound to it, then goes silent
    // WITHOUT closing its connection.
    let mut camper = SmoqedClient::connect(server.addr()).expect("camper connects");
    camper
        .register_view("nurse", &hospital_view())
        .expect("camper is being served");
    let id = camper.register_document("nurse", &bytes).expect("register doc");

    // The waiting client: with connection-until-EOF workers this would
    // block forever; with rotation it must be answered promptly. Bounded
    // by a watchdog so a regression fails instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn({
        let addr = server.addr();
        move || {
            let mut late = SmoqedClient::connect(addr).expect("late client connects");
            let answers = late
                .query("nurse", id, EvaluationMode::HyPE, "patient")
                .expect("late client is served despite the camper")
                .answers;
            let _ = tx.send(answers);
        }
    });
    let answers = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("late client starved: the idle connection still owns the only worker");
    assert!(!answers.is_empty(), "late client got real answers");

    // And the camper is not starved either: rotation parks it, it does
    // not evict it.
    let again = camper
        .query("nurse", id, EvaluationMode::HyPE, "patient")
        .expect("camper still served after rotation");
    assert_eq!(again.answers, answers, "same document, same answers");
    server.shutdown();
}
