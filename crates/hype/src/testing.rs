//! Unit-test helpers: the compile-once entry points driven from builder
//! MFAs, compiled afresh on every call.

use std::sync::Arc;

use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_xml::{NodeId, XmlTree};
use smoqe_xpath::parse_path;

use crate::{evaluate_compiled_at_with, HypeResult, ReachabilityIndex};

/// The execution IR of `mfa`.
pub(crate) fn compile(mfa: &Mfa) -> Arc<CompiledMfa> {
    Arc::new(CompiledMfa::new(mfa))
}

/// The execution IR of the regular XPath `query`.
pub(crate) fn ir(query: &str) -> Arc<CompiledMfa> {
    compile(&compile_query(&parse_path(query).unwrap()))
}

/// Plain HyPE at the root of `tree`.
pub(crate) fn evaluate(tree: &XmlTree, mfa: &Mfa) -> HypeResult {
    evaluate_compiled_at_with(tree, tree.root(), &compile(mfa), None)
}

/// Plain HyPE at `context`.
pub(crate) fn evaluate_at(tree: &XmlTree, context: NodeId, mfa: &Mfa) -> HypeResult {
    evaluate_compiled_at_with(tree, context, &compile(mfa), None)
}

/// OptHyPE(-C) at the root of `tree`.
pub(crate) fn evaluate_with_index(
    tree: &XmlTree,
    mfa: &Mfa,
    index: &ReachabilityIndex,
) -> HypeResult {
    evaluate_compiled_at_with(tree, tree.root(), &compile(mfa), Some(index))
}

/// One pre-compiled query at `context` under the thread budget `threads`
/// (sharded when it resolves above one).
pub(crate) fn evaluate_solo(
    tree: &XmlTree,
    context: NodeId,
    compiled: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
    threads: usize,
) -> HypeResult {
    let query = crate::CompiledBatchQuery {
        compiled: Arc::clone(compiled),
        index,
    };
    crate::evaluate_tree(tree, context, &[query], threads)
        .results
        .pop()
        .unwrap()
}
