//! The HyPE evaluation engine (Fig. 6 of the paper) and its one tree
//! entry point.
//!
//! One depth-first pass over the document drives the selecting NFA
//! (`mstates`), propagates pending filter states downwards (`fstates↓`),
//! computes filter values upwards (`fstates↑`) as soon as the relevant
//! subtree is complete, and materialises the candidate-answer DAG `cans`.
//! A final traversal of `cans` — whose size is bounded by `|T|·|M|` but is
//! usually far smaller than `T` — produces the answer set.
//!
//! Pruning (the `OptHyPE` variants) additionally consults a
//! [`ReachabilityIndex`]: a subtree rooted at a child labelled `L` is
//! skipped outright when, given the labels the DTD allows below `L`,
//! (a) no selecting-NFA state pending at that child can reach a final
//! state, and (b) every pending filter state is necessarily false there.
//! Correctness of that rule assumes the document conforms to the DTD used
//! to build the index, which is the same assumption the paper makes.
//!
//! Every tree evaluation goes through [`evaluate_tree`]: a batch of
//! compiled queries, an evaluation context and a thread budget. A solo
//! query is a batch of one. At a budget of one thread the batch is walked
//! sequentially ([`crate::batch`]); at larger budgets the walk is sharded
//! over scoped workers ([`crate::parallel`]) with bit-identical answers
//! and statistics. [`evaluate_compiled_at_with`] and
//! [`evaluate_batch_compiled`] are the sequential solo and root-batch
//! special cases.

use std::collections::BTreeSet;
use std::sync::Arc;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::batch::{evaluate_sequential, BatchResult, BatchStats, CompiledBatchQuery};
use crate::index::ReachabilityIndex;
use crate::parallel::{evaluate_sharded, resolve_threads};

/// Execution statistics of one HyPE run, used to reproduce the paper's
/// pruning measurements ("HyPE prunes, on average, 78.2% of the element
/// nodes, OptHyPE 88%").
///
/// Accounting contract (relied on by the benchmark harness and locked in by
/// unit tests):
///
/// * `nodes_total` counts the element nodes of the **evaluated subtree** —
///   the whole document when [`evaluate_tree`] runs at the root, the
///   context's subtree otherwise — never the whole arena.
/// * `nodes_visited` counts every node the traversal actually entered, and a
///   subtree skipped by pruning contributes zero, in **every** mode; HyPE
///   and OptHyPE therefore share the same denominator and their
///   [`pruned_fraction`](Self::pruned_fraction) values are directly
///   comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct HypeStats {
    /// Number of element nodes in the evaluated subtree.
    pub nodes_total: usize,
    /// Number of element nodes actually visited by the traversal.
    pub nodes_visited: usize,
    /// Number of vertices of the candidate-answer DAG `cans`.
    pub cans_vertices: usize,
    /// Number of edges of `cans`.
    pub cans_edges: usize,
    /// Number of Boolean filter variables (`X(node, state)`) computed.
    pub afa_values_computed: usize,
    /// Largest single work unit's share of the physically visited nodes in
    /// the parallel pass that produced this result, in `[0, 1]` — `0.0` for
    /// sequential, streamed and incremental runs. Pure scheduling
    /// observability (shard skew), dependent on the thread budget:
    /// **excluded from equality**, so parallel results still compare equal
    /// to sequential ones under the bit-identity contract.
    pub max_shard_fraction: f64,
}

// Equality covers the five evaluation counters only — `max_shard_fraction`
// describes how the work was *scheduled*, not what was computed, and the
// differential suites assert parallel == sequential stats.
impl PartialEq for HypeStats {
    fn eq(&self, other: &Self) -> bool {
        self.nodes_total == other.nodes_total
            && self.nodes_visited == other.nodes_visited
            && self.cans_vertices == other.cans_vertices
            && self.cans_edges == other.cans_edges
            && self.afa_values_computed == other.afa_values_computed
    }
}

impl Eq for HypeStats {}

impl HypeStats {
    /// Fraction of element nodes that were *not* visited (pruned), in `[0, 1]`.
    pub fn pruned_fraction(&self) -> f64 {
        if self.nodes_total == 0 {
            0.0
        } else {
            1.0 - self.nodes_visited as f64 / self.nodes_total as f64
        }
    }
}

/// The result of a HyPE run: the answer set and the run's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypeResult {
    /// The answer `n[[M]]`.
    pub answers: BTreeSet<NodeId>,
    /// Traversal statistics.
    pub stats: HypeStats,
}

/// Evaluates every query of `queries` at `context` in one pass over the
/// subtree of `tree` rooted there — the one tree entry point all the
/// others reduce to.
///
/// `threads` is the thread budget: `0` means all available cores. When the
/// resolved budget is one, the subtree is walked sequentially on the
/// calling thread; otherwise its subtrees are sharded over that many scoped
/// workers. Either way the results are index-aligned with `queries`, each
/// one exactly what a solo run of that query would produce — answers *and*
/// [`HypeStats`] — while the document is traversed only once. Only
/// [`HypeStats::max_shard_fraction`] tells the two executions apart.
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
/// use smoqe_xml::XmlTreeBuilder;
/// use smoqe_xpath::parse_path;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("hospital");
/// for name in ["Alice", "Bob"] {
///     let patient = b.child(root, "patient");
///     b.child_with_text(patient, "pname", name);
/// }
/// let doc = b.finish();
///
/// let ir = |q: &str| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).unwrap())));
/// let queries = [
///     CompiledBatchQuery::new(ir("patient")),
///     CompiledBatchQuery::new(ir("patient/pname")),
/// ];
/// let sequential = evaluate_tree(&doc, doc.root(), &queries, 1);
/// assert_eq!(sequential.results[0].answers.len(), 2); // the <patient>s
/// assert_eq!(sequential.results[1].answers.len(), 2); // their <pname>s
/// // The shared pass performs no more visits than N solo runs would.
/// assert!(sequential.stats.nodes_visited <= sequential.stats.sequential_node_visits);
///
/// // Sharded over four workers: the same answers and statistics.
/// let sharded = evaluate_tree(&doc, doc.root(), &queries, 4);
/// assert_eq!(sharded.stats, sequential.stats);
/// for (p, s) in sharded.results.iter().zip(&sequential.results) {
///     assert_eq!((&p.answers, p.stats), (&s.answers, s.stats));
/// }
/// ```
pub fn evaluate_tree(
    tree: &XmlTree,
    context: NodeId,
    queries: &[CompiledBatchQuery],
    threads: usize,
) -> BatchResult {
    if queries.is_empty() {
        return BatchResult {
            results: Vec::new(),
            stats: BatchStats {
                nodes_total: tree.subtree_size(context),
                ..BatchStats::default()
            },
        };
    }
    match resolve_threads(threads) {
        1 => evaluate_sequential(tree, context, queries),
        threads => evaluate_sharded(tree, context, queries, threads),
    }
}

/// Evaluates one pre-compiled query at `context`, optionally with an
/// OptHyPE(-C) index, on the calling thread.
pub fn evaluate_compiled_at_with(
    tree: &XmlTree,
    context: NodeId,
    compiled: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
) -> HypeResult {
    let query = CompiledBatchQuery { compiled: Arc::clone(compiled), index };
    evaluate_tree(tree, context, &[query], 1).results.pop().expect("one result per query")
}

/// Evaluates every pre-compiled query at the root of `tree` in one pass on
/// the calling thread.
pub fn evaluate_batch_compiled(tree: &XmlTree, queries: &[CompiledBatchQuery]) -> BatchResult {
    evaluate_tree(tree, tree.root(), queries, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{evaluate, evaluate_at, evaluate_with_index};
    use smoqe_automata::{compile_query, evaluate_mfa_at};
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::{XmlTree, XmlTreeBuilder};
    use smoqe_xpath::parse_path;

    /// The view-shaped tree of the paper's Fig. 4.
    fn fig4_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let n1 = b.root("hospital");
        let n2 = b.child(n1, "patient");
        let n3 = b.child(n2, "parent");
        let n4 = b.child(n3, "patient");
        let n5 = b.child(n4, "parent");
        let n6 = b.child(n5, "patient");
        let rec = b.child(n6, "record");
        b.child_with_text(rec, "diagnosis", "lung disease");
        let n7 = b.child(n2, "record");
        b.child_with_text(n7, "diagnosis", "lung disease");
        let n9 = b.child(n1, "patient");
        let n10 = b.child(n9, "parent");
        let n11 = b.child(n10, "patient");
        let n12 = b.child(n11, "record");
        b.child_with_text(n12, "diagnosis", "heart disease");
        let n14 = b.child(n9, "record");
        b.child_with_text(n14, "diagnosis", "brain disease");
        b.finish()
    }

    /// A small document conforming to the hospital DTD, for index tests.
    fn hospital_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");
        for (name, diag) in [("Alice", "heart disease"), ("Bob", "flu"), ("Carol", "heart disease")] {
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let addr = b.child(p, "address");
            b.child_with_text(addr, "street", "s");
            b.child_with_text(addr, "city", "c");
            b.child_with_text(addr, "zip", "z");
            let v = b.child(p, "visit");
            b.child_with_text(v, "date", "2006-01-01");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "type", "tablet");
            b.child_with_text(m, "diagnosis", diag);
            let d = b.child(dept, "doctor");
            b.child_with_text(d, "dname", "Dr X");
            b.child_with_text(d, "specialty", "cardiology");
        }
        b.finish()
    }

    /// HyPE must agree with the naive MFA evaluator.
    fn assert_hype_matches_naive(tree: &XmlTree, query: &str) {
        let q = parse_path(query).unwrap();
        let mfa = compile_query(&q);
        let expected = evaluate_mfa_at(tree, tree.root(), &mfa);
        let basic = evaluate(tree, &mfa);
        assert_eq!(basic.answers, expected, "HyPE differs on `{query}`");
        assert!(basic.stats.nodes_visited <= basic.stats.nodes_total);
    }

    #[test]
    fn matches_naive_on_plain_paths() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "patient");
        assert_hype_matches_naive(&t, "patient/parent/patient");
        assert_hype_matches_naive(&t, "patient/record/diagnosis");
    }

    #[test]
    fn matches_naive_on_stars_and_descendants() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "(patient/parent)*/patient");
        assert_hype_matches_naive(&t, "//diagnosis");
        assert_hype_matches_naive(&t, "patient//record");
    }

    #[test]
    fn matches_naive_on_filters() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "patient[record]");
        assert_hype_matches_naive(&t, "patient[not(record)]");
        assert_hype_matches_naive(&t, "patient[record/diagnosis/text()='brain disease']");
        assert_hype_matches_naive(
            &t,
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        );
        assert_hype_matches_naive(
            &t,
            "patient[*//record/diagnosis/text()='heart disease']",
        );
        assert_hype_matches_naive(&t, "patient[record and not(parent)]");
        assert_hype_matches_naive(&t, "patient[record or parent]");
    }

    #[test]
    fn fig4_answer_is_nodes_9_and_11() {
        // The paper's running evaluation example: Q0 selects the two
        // patients on the heart-disease branch.
        let t = fig4_tree();
        let q = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        let mfa = compile_query(&q);
        let result = evaluate(&t, &mfa);
        let labels: Vec<&str> = result
            .answers
            .iter()
            .map(|&n| t.label_name(n))
            .collect();
        assert_eq!(result.answers.len(), 2);
        assert!(labels.iter().all(|&l| l == "patient"));
    }

    #[test]
    fn index_variants_agree_with_basic_hype() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        for query in [
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
            "department/patient/pname",
            "//diagnosis",
            "//zip",
            "department/patient[visit/treatment/test]",
            "department/doctor[specialty/text()='cardiology']/dname",
            "department/doctor[diagnosis]",
            "department/patient[not(visit)]",
        ] {
            let q = parse_path(query).unwrap();
            let mfa = compile_query(&q);
            let plain = evaluate(&doc, &mfa);
            let naive = evaluate_mfa_at(&doc, doc.root(), &mfa);
            assert_eq!(plain.answers, naive, "HyPE differs on `{query}`");
            let opt_index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
            let opt = evaluate_with_index(&doc, &mfa, &opt_index);
            let optc_index = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
            let optc = evaluate_with_index(&doc, &mfa, &optc_index);
            assert_eq!(plain.answers, opt.answers, "OptHyPE differs on `{query}`");
            assert_eq!(plain.answers, optc.answers, "OptHyPE-C differs on `{query}`");
            assert!(
                opt.stats.nodes_visited <= plain.stats.nodes_visited,
                "index must not visit more nodes (`{query}`)"
            );
        }
    }

    #[test]
    fn pruning_skips_irrelevant_subtrees() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // The query only cares about pname; address/visit/doctor subtrees
        // are irrelevant and must be skipped even by basic HyPE.
        let q = parse_path("department/patient/pname").unwrap();
        let mfa = compile_query(&q);
        let basic = evaluate(&doc, &mfa);
        assert!(basic.stats.pruned_fraction() > 0.3, "basic pruning too weak");
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = evaluate_with_index(&doc, &mfa, &index);
        assert!(opt.stats.nodes_visited <= basic.stats.nodes_visited);
    }

    #[test]
    fn index_prunes_descendant_queries_that_basic_hype_cannot() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // `//zip`: plain HyPE must visit essentially the whole document (the
        // wildcard loop matches everything); OptHyPE knows from the DTD that
        // zip can only occur below address and skips everything else.
        let q = parse_path("//zip").unwrap();
        let mfa = compile_query(&q);
        let basic = evaluate(&doc, &mfa);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = evaluate_with_index(&doc, &mfa, &index);
        assert_eq!(basic.answers, opt.answers);
        assert_eq!(basic.answers.len(), 3);
        assert!(
            opt.stats.nodes_visited * 2 < basic.stats.nodes_visited,
            "expected OptHyPE ({}) to visit far fewer nodes than HyPE ({})",
            opt.stats.nodes_visited,
            basic.stats.nodes_visited
        );
    }

    #[test]
    fn negated_filters_disable_unsafe_pruning() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // not(//diagnosis) is true at doctors even though no diagnosis can
        // occur below them; the index must not assume the filter is false.
        let q = parse_path("department/doctor[not(.//diagnosis)]").unwrap();
        let mfa = compile_query(&q);
        let basic = evaluate(&doc, &mfa);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = evaluate_with_index(&doc, &mfa, &index);
        assert_eq!(basic.answers, opt.answers);
        assert_eq!(basic.answers.len(), 3, "all three doctors qualify");
    }

    #[test]
    fn evaluation_from_inner_context() {
        let t = fig4_tree();
        let q = parse_path("parent/patient[record/diagnosis/text()='heart disease']").unwrap();
        let mfa = compile_query(&q);
        for ctx in t.node_ids() {
            let expected = evaluate_mfa_at(&t, ctx, &mfa);
            let got = evaluate_at(&t, ctx, &mfa);
            assert_eq!(got.answers, expected, "context {ctx:?}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let t = fig4_tree();
        let q = parse_path("(patient/parent)*/patient[record]").unwrap();
        let mfa = compile_query(&q);
        let r = evaluate(&t, &mfa);
        assert_eq!(r.stats.nodes_total, t.len());
        assert!(r.stats.nodes_visited > 0);
        assert!(r.stats.cans_vertices > 0);
        assert!(r.stats.afa_values_computed > 0);
        assert!(r.stats.pruned_fraction() >= 0.0 && r.stats.pruned_fraction() <= 1.0);
    }

    #[test]
    fn empty_answer_queries() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "doctor");
        assert_hype_matches_naive(&t, "patient[visit]");
        let q = parse_path("doctor").unwrap();
        let mfa = compile_query(&q);
        let r = evaluate(&t, &mfa);
        assert!(r.answers.is_empty());
        // Nothing matches at the root's children, so only the root is visited.
        assert_eq!(r.stats.nodes_visited, 1);
    }

    // -----------------------------------------------------------------------
    // HypeStats accounting sweep (PR 2): the invariants documented on
    // `HypeStats` are locked in here so later evaluator changes cannot
    // silently break the pruning-percentage comparisons.
    // -----------------------------------------------------------------------

    #[test]
    fn evaluate_at_counts_totals_over_the_context_subtree() {
        // `nodes_total` must be the context's subtree size, not the arena
        // size, for every possible context node.
        let t = fig4_tree();
        let q = parse_path("parent/patient[record]").unwrap();
        let mfa = compile_query(&q);
        for ctx in t.node_ids() {
            let r = evaluate_at(&t, ctx, &mfa);
            assert_eq!(
                r.stats.nodes_total,
                t.subtree_size(ctx),
                "nodes_total must be the subtree size at {ctx:?}"
            );
            assert!(
                r.stats.nodes_visited <= r.stats.nodes_total,
                "visited {} > total {} at {ctx:?}",
                r.stats.nodes_visited,
                r.stats.nodes_total
            );
            assert!(r.stats.nodes_visited >= 1, "the context itself is always visited");
        }
    }

    #[test]
    fn pruned_fraction_is_comparable_across_modes() {
        // HyPE, OptHyPE and OptHyPE-C must share the same `nodes_total`
        // denominator and count skipped subtrees identically (as zero
        // visits), so the paper's 78.2% vs 88% comparison is meaningful.
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        for query in [
            "department/patient/pname",
            "//zip",
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
            "department/doctor[specialty/text()='cardiology']/dname",
        ] {
            let q = parse_path(query).unwrap();
            let mfa = compile_query(&q);
            let plain = evaluate(&doc, &mfa);
            let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
            let opt = evaluate_with_index(&doc, &mfa, &index);
            let cindex = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
            let optc = evaluate_with_index(&doc, &mfa, &cindex);
            assert_eq!(plain.stats.nodes_total, opt.stats.nodes_total, "on `{query}`");
            assert_eq!(plain.stats.nodes_total, optc.stats.nodes_total, "on `{query}`");
            assert_eq!(plain.stats.nodes_total, doc.len(), "root run counts the whole document");
            assert_eq!(
                opt.stats.nodes_visited, optc.stats.nodes_visited,
                "the two index flavours answer the same lookups on `{query}`"
            );
            assert!(
                opt.stats.pruned_fraction() >= plain.stats.pruned_fraction() - 1e-12,
                "OptHyPE must never prune less than HyPE on `{query}`"
            );
        }
    }

    #[test]
    fn pruned_fraction_handles_degenerate_subtrees() {
        let t = fig4_tree();
        let q = parse_path("diagnosis").unwrap();
        let mfa = compile_query(&q);
        // A leaf context: subtree of size 1, the context is visited, nothing
        // is pruned.
        let leaf = t
            .node_ids()
            .find(|&n| t.children(n).is_empty())
            .expect("tree has leaves");
        let r = evaluate_at(&t, leaf, &mfa);
        assert_eq!(r.stats.nodes_total, 1);
        assert_eq!(r.stats.nodes_visited, 1);
        assert_eq!(r.stats.pruned_fraction(), 0.0);
        // The zero-total guard.
        assert_eq!(HypeStats::default().pruned_fraction(), 0.0);
    }
}
