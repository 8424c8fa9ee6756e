//! # smoqe-hype
//!
//! **HyPE** (Hybrid Pass Evaluation, Section 6 of the paper): evaluation of
//! MFAs — and therefore of regular XPath queries and of rewritten queries
//! over views — in a **single top-down pass** over the document tree plus a
//! single pass over a small auxiliary structure.
//!
//! During the depth-first traversal the algorithm simultaneously:
//!
//! * runs the selecting NFA top-down (`mstates`), pruning subtrees that no
//!   automaton state can make progress in,
//! * evaluates the AFAs (filters) *bottom-up on the same pass* (`fstates↓`
//!   requests flowing down, Boolean values flowing back up),
//! * records candidate answers in a DAG (`cans`) whose vertices are
//!   `(node, state)` pairs; vertices whose AFA turned out false are marked
//!   invalid, and a final traversal of `cans` from the initial vertices
//!   yields exactly the answer set.
//!
//! The complexity is `O(|T|·|M|)` time and space (Theorem 6.1); together
//! with the rewriting algorithm this gives linear data complexity for
//! answering queries on virtual views (Theorem 6.2).
//!
//! Two optimised variants are provided, mirroring the paper's **OptHyPE**
//! and **OptHyPE-C**: both consult a DTD-derived [`ReachabilityIndex`]
//! telling which labels can occur below an element of a given type, letting
//! the evaluator skip subtrees in which neither the NFA nor any pending AFA
//! can ever fire another transition; the `-C` variant stores the index
//! compressed (deduplicated rows), trading a little lookup indirection for
//! memory.
//!
//! ## One entry point per shape
//!
//! * **A tree** — [`evaluate_tree`] evaluates a batch of compiled queries
//!   ([`CompiledBatchQuery`]: an execution IR plus an optional index) at a
//!   context node under a thread budget, and returns a [`BatchResult`]. A
//!   solo query is a batch of one. The batch is driven through **one**
//!   shared pass ([`batch`]): nodes pending for several queries are visited
//!   once, a subtree is skipped only when every query agrees it is dead,
//!   and each query still receives exactly the answers and [`HypeStats`] a
//!   solo run would produce. When the budget resolves to one thread the
//!   pass runs sequentially on the calling thread; otherwise the context's
//!   subtrees are sharded over scoped workers with Chase–Lev work stealing
//!   ([`parallel`]), and the per-shard artefacts are merged
//!   deterministically, so results are **bit-identical** at every budget
//!   (the `parallel_differential` suite enforces it).
//!   [`evaluate_compiled_at_with`] (one query) and
//!   [`evaluate_batch_compiled`] (a batch at the root) are its sequential
//!   special cases.
//! * **Many documents** — [`evaluate_corpus_parallel`] routes (document,
//!   query) pairs across the same kind of scoped worker pool, one pair per
//!   work item on the unchanged sequential engine ([`corpus`]). That
//!   sidesteps the shard-skew cap of within-document sharding while
//!   keeping every answer and per-pair [`HypeStats`] bit-identical.
//! * **An event stream** — [`StreamHype`] is a stack-machine port of the
//!   same pass driven by the `Open`/`Text`/`Close` events of
//!   `smoqe_xml::stream` ([`stream`]). It evaluates documents that are
//!   never materialized as trees — larger than RAM, network-fed, or
//!   filtered on the fly — in `O(depth · |M|)` working memory, with answers
//!   and statistics identical to the tree engine's.
//! * **An evolving tree** — [`IncrementalEvaluator`] re-walks only the
//!   subtrees an edit dirtied ([`incremental`]).
//!
//! The per-node math every entry point shares lives in one internal
//! `runtime` module, so the backends cannot drift apart.
//!
//! ## Compile once, run hot
//!
//! Every engine runs on the [`CompiledMfa`] **execution IR** of
//! `smoqe_automata::compiled` rather than interpreting the builder `Mfa`:
//! pending sets and filter values are `u64`-word bitsets, label matching is
//! one table column read, and ε-/operator-closures are precompiled rows.
//! Callers compile the IR once per query ([`CompiledMfa::new`]) and share
//! it by `Arc` — the `smoqe` service layer caches it next to the rewritten
//! query. The pre-IR engines live on in the integration test crate as the
//! interpreted reference implementation: the differential suites assert
//! that the compiled engines reproduce their answers and [`HypeStats`] bit
//! for bit, and the `compiled_throughput` bench measures the speedup
//! against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod engine;
pub mod incremental;
pub mod index;
pub mod parallel;
mod runtime;
pub mod stream;
#[cfg(test)]
mod testing;

pub use batch::{BatchResult, BatchStats, CompiledBatchQuery};
pub use corpus::{evaluate_corpus_parallel, CorpusTask};
pub use engine::{
    evaluate_batch_compiled, evaluate_compiled_at_with, evaluate_tree, HypeResult, HypeStats,
};
pub use incremental::{IncrementalEvaluator, IncrementalQuery};
pub use index::ReachabilityIndex;
pub use smoqe_automata::CompiledMfa;
pub use stream::{StreamHype, StreamResult, StreamStats};
