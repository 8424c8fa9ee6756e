//! Integration of the optional pipeline passes — query normalisation
//! (`smoqe-xpath::normalize`) and MFA optimization
//! (`smoqe-automata::optimize`) — with the rewriting and evaluation stack:
//! applying either or both passes must never change an answer, and the
//! optimizer must never grow the automaton.

use integration_tests::{hype, standard_hospital_document, view_query_corpus};
use smoqe_automata::{compile_query, optimize_mfa};
use smoqe_rewrite::rewrite_to_mfa;
use smoqe_views::hospital_view;
use smoqe_xpath::{evaluate as reference_evaluate, normalize, parse_path};

#[test]
fn normalisation_does_not_change_view_query_answers() {
    let doc = standard_hospital_document();
    let view = hospital_view();
    for query in view_query_corpus() {
        let parsed = parse_path(query).unwrap();
        let normalised = normalize(&parsed);
        assert!(normalised.size() <= parsed.size());
        let original = hype(
            &doc,
            doc.root(),
            &rewrite_to_mfa(&parsed, &view).unwrap(),
            None,
        )
        .answers;
        let simplified = hype(
            &doc,
            doc.root(),
            &rewrite_to_mfa(&normalised, &view).unwrap(),
            None,
        )
        .answers;
        assert_eq!(original, simplified, "normalisation changed `{query}`");
    }
}

#[test]
fn optimizer_preserves_rewritten_mfa_answers_and_shrinks_them() {
    let doc = standard_hospital_document();
    let view = hospital_view();
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for query in view_query_corpus() {
        let parsed = parse_path(query).unwrap();
        let mfa = rewrite_to_mfa(&parsed, &view).unwrap();
        let (optimized, stats) = optimize_mfa(&mfa);
        assert!(stats.nfa_states_after <= stats.nfa_states_before);
        total_before += mfa.size();
        total_after += optimized.size();
        assert_eq!(
            hype(&doc, doc.root(), &mfa, None).answers,
            hype(&doc, doc.root(), &optimized, None).answers,
            "optimization changed `{query}`"
        );
    }
    assert!(
        total_after < total_before,
        "the optimizer should shrink at least some rewritten MFAs ({total_before} -> {total_after})"
    );
}

#[test]
fn optimizer_preserves_direct_query_answers() {
    let doc = standard_hospital_document();
    for query in [
        "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
        "//zip",
        "department/patient/(parent/patient)*/visit/treatment/test",
        "department/doctor[not(diagnosis)]",
    ] {
        let parsed = parse_path(query).unwrap();
        let reference = reference_evaluate(&doc, doc.root(), &parsed);
        let mfa = compile_query(&parsed);
        let (optimized, _) = optimize_mfa(&mfa);
        assert_eq!(
            hype(&doc, doc.root(), &optimized, None).answers,
            reference,
            "`{query}`"
        );
    }
}

#[test]
fn combined_passes_compose() {
    let doc = standard_hospital_document();
    let view = hospital_view();
    for query in [
        "./patient/./record | patient/record",
        "patient[not(not(record))][. ]",
        "((patient/parent)*)*/patient[record and record]",
    ] {
        let parsed = parse_path(query).unwrap();
        let baseline = hype(
            &doc,
            doc.root(),
            &rewrite_to_mfa(&parsed, &view).unwrap(),
            None,
        )
        .answers;
        let tuned = {
            let normalised = normalize(&parsed);
            let mfa = rewrite_to_mfa(&normalised, &view).unwrap();
            let (optimized, _) = optimize_mfa(&mfa);
            hype(&doc, doc.root(), &optimized, None).answers
        };
        assert_eq!(baseline, tuned, "pipeline passes changed `{query}`");
    }
}
