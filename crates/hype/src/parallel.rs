//! Parallel sharded HyPE evaluation: the batched compiled walk spread
//! across a pool of scoped threads, with answers and statistics
//! **bit-identical** to the sequential walk. [`crate::evaluate_tree`]
//! routes here whenever its resolved thread budget exceeds one.
//!
//! ## Sharding strategy
//!
//! A HyPE pass is a single DFS whose only cross-subtree coupling sits at
//! the evaluation context: the context frame's pending states are fixed
//! *before* any child is visited, children communicate with the context
//! exclusively by OR-ing their filter-value rows into its accumulators
//! (commutative, order-free), and every candidate-DAG edge points strictly
//! downwards. The top-level subtrees under the context are therefore
//! embarrassingly parallel:
//!
//! 1. the calling thread opens the context node exactly as the sequential
//!    engine does and snapshots the context frame;
//! 2. a **split planner** turns the context's children into leaf *tasks*,
//!    recursively re-splitting any oversized child (≥ 2 children of its
//!    own and more than `max(256, nodes_total / (2 · threads))` subtree
//!    nodes) into a *spine*: the oversized node is opened once on the
//!    calling thread under its parent's replayed frame, its own frame is
//!    snapshotted, and its children re-enter the planner — so a single
//!    dominant subtree no longer pins the whole document to one worker;
//! 3. tasks are distributed round-robin over per-worker fixed-capacity
//!    **Chase–Lev work-stealing deques** (`TaskDeque`, plain `std`
//!    atomics): each of `min(threads, tasks)` scoped workers drains its
//!    own deque LIFO and steals FIFO from the others when it runs dry.
//!    Each worker replays a seed frame **once per group** it touches into
//!    a private core (one label-column map, pruning-table set and scratch
//!    pool per *worker and group*, so the hot path stays allocation-free
//!    per node) and runs the **unchanged** sequential `open`/`close`
//!    logic over every subtree it claims — including per-query basic and
//!    OptHyPE(-C) pruning;
//! 4. the main thread merges spines bottom-up — absorbing their units'
//!    accumulator rows, closing the spine node, and grafting the unit
//!    arenas (`ShardQueryOutput::graft_child_unit`) so each spine
//!    collapses into one ordinary shard unit of its parent group — then
//!    ORs every top-level unit's accumulator rows back into the real
//!    context frame, closes the context, and merges.
//!
//! ## Determinism guarantee
//!
//! Each per-query artefact is merged exactly, not approximately:
//!
//! * **Answers** — every unit's arena keeps its group frame's vertices as
//!   its first `k` ids, so the sequential DAG is the disjoint union of the
//!   context block and the unit arenas glued at those shared ids (spine
//!   units are grafted into the same shape before they reach the context
//!   merge). Answer collection runs the context block first, then seeds
//!   every unit arena with the reached context vertices; the union (a
//!   `BTreeSet` over pre-order [`NodeId`]s) is the sequential answer set
//!   in pre-order index order, whatever order tasks were claimed, stolen
//!   or finished in.
//! * **[`HypeStats`]** — every counter is a sum of per-node contributions
//!   that depend only on that query's own state at the node, so summing
//!   context + spines + tasks reproduces the sequential numbers exactly;
//!   the differential suite (`tests/tests/parallel_differential.rs`)
//!   asserts equality for answers *and* statistics at several thread
//!   budgets. The one non-sequential field, `max_shard_fraction`, is a
//!   skew diagnostic excluded from [`HypeStats`] equality.
//! * **[`BatchStats`]** — all queries of a batch travel *together* through
//!   every task (a node is physically visited once however many queries
//!   are pending there), preserving the shared-traversal semantics of
//!   [`BatchStats::nodes_visited`]. Batched runs additionally parallelize
//!   **across queries** in the merge phase: each query's DAG collection is
//!   independent and is distributed over the same thread budget.
//!
//! ## Thread budget
//!
//! [`crate::evaluate_tree`] takes a `threads` knob: `0` means "all
//! available cores" ([`std::thread::available_parallelism`]). A resolved
//! budget of one never reaches the sharded walk — the plain sequential walk
//! is faster than the shard machinery on one thread — so sharding always
//! runs with at least two workers. Larger budgets are capped by the **task
//! count after re-splitting**: a two-subtree document with one dominant
//! subtree still fans out to every worker. Workers are spawned per
//! evaluation; for a parsed document the spawn cost is noise next to the
//! traversal.

use std::sync::atomic::{fence, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::batch::{walk, BatchResult, BatchStats, CompiledBatchQuery};
use crate::engine::{HypeResult, HypeStats};
use crate::index::ReachabilityIndex;
use crate::runtime::{
    collect_answers, collect_answers_and_reached, CollectScratch, ContextBlock, ContextSeed,
    HypeCore, QueryRuntime, ShardQueryOutput,
};

// The parallel evaluator shares these across worker threads by reference;
// losing `Sync` on any of them must fail to compile right here rather than
// in a distant caller.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<XmlTree>();
    assert_sync::<CompiledMfa>();
    assert_sync::<ReachabilityIndex>();
    assert_sync::<CompiledBatchQuery<'static>>();
    assert_sync::<TaskDeque>();
};

/// Subtrees at or below this node count are never re-split: the spine
/// bookkeeping (a private core seeded and opened on the main thread) only
/// pays for itself on subtrees big enough to dominate a worker.
const MIN_SPLIT_NODES: usize = 256;

/// Resolves a thread-budget knob: `0` means all available cores.
pub(crate) fn resolve_threads(budget: usize) -> usize {
    if budget == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        budget
    }
}

/// Shards the walk of `context`'s subtree over `threads` (already
/// resolved, at least two) scoped workers for a non-empty batch — the
/// multi-threaded arm of [`crate::evaluate_tree`]. Per-query results *and*
/// the aggregate [`BatchStats`] are identical to the sequential walk's.
pub(crate) fn evaluate_sharded(
    tree: &XmlTree,
    context: NodeId,
    queries: &[CompiledBatchQuery],
    threads: usize,
) -> BatchResult {
    let nodes_total = tree.subtree_size(context);

    // Open the evaluation context on the calling thread, exactly as the
    // sequential engine would (vertices, ε edges, λ triggers, statistics).
    let runtimes: Vec<QueryRuntime> = queries
        .iter()
        .map(|q| QueryRuntime::new(tree.labels(), Arc::clone(&q.compiled), q.index))
        .collect();
    let mut core = HypeCore::new(runtimes);
    let opened = core.open(context, tree.label(context));
    debug_assert!(opened, "the evaluation context is never pruned");
    let seeds = core.context_seeds();

    // Plan → execute → merge.
    let mut plan = plan_shards(tree, context, queries, seeds, threads, nodes_total);
    let (mut units, max_task_visits) = run_tasks(tree, queries, &plan, threads);
    merge_spines(tree, &mut plan.spines, &mut units);
    let top_units = units.swap_remove(0);

    // Fold the top-level units' value rows into the real context frame (OR
    // is order-free) and close the context bottom-up as usual.
    for (unit, _) in &top_units {
        for (query, sq) in unit.iter().enumerate() {
            core.absorb_child_values(query, &sq.acc_any, &sq.acc);
        }
    }
    core.close(tree.text(context));
    let (blocks, context_physical) = core.into_context_parts();

    // Per-query merge + answer collection, parallel across queries.
    let mut results = finalize_queries(
        blocks,
        |query| top_units.iter().map(|(unit, _)| &unit[query]).collect(),
        nodes_total,
        threads,
    );

    let nodes_visited =
        context_physical + top_units.iter().map(|(_, physical)| physical).sum::<usize>();
    let max_shard_fraction = if nodes_visited > 0 {
        max_task_visits as f64 / nodes_visited as f64
    } else {
        0.0
    };
    for result in &mut results {
        result.stats.max_shard_fraction = max_shard_fraction;
    }
    let sequential_node_visits = results.iter().map(|r| r.stats.nodes_visited).sum();
    BatchResult {
        results,
        stats: BatchStats {
            queries: queries.len(),
            nodes_total,
            nodes_visited,
            sequential_node_visits,
        },
    }
}

/// One leaf work unit: a subtree walked whole by whichever worker claims
/// it, under the seed frame of its `group` (0 = the context, `g > 0` =
/// spine `g - 1`).
#[derive(Debug, Clone, Copy)]
struct Task {
    node: NodeId,
    group: u32,
}

/// One re-split oversized subtree: its node was opened on the calling
/// thread under a replay of its parent group's frame, and its own frame
/// snapshot seeds the cores that walk its children.
struct SpinePlan<'a> {
    /// The spine core — parent-group frame seeded, spine node opened.
    /// Held until the merge phase closes it over its units.
    core: HypeCore<'a>,
    node: NodeId,
    /// Group the finished spine unit merges into (0 = context).
    parent_group: u32,
    /// Query id at each spine-frame position (the frame may cover a query
    /// subset — queries pruned at the spine have no work in its subtree);
    /// maps unit outputs to `absorb_child_values` positions at merge time.
    frame_queries: Vec<u32>,
    /// Spine-frame snapshot: the seed for every core walking its children.
    seeds: Vec<ContextSeed>,
}

/// The split planner's output: leaf tasks plus the spine scaffolding, in
/// creation order (parents before their nested spines).
struct ShardPlan<'a> {
    context: NodeId,
    context_seeds: Vec<ContextSeed>,
    tasks: Vec<Task>,
    spines: Vec<SpinePlan<'a>>,
}

/// Counts the subtree rooted at `node` without materialising the node
/// list ([`XmlTree::subtree_size`] allocates the full descendant vector).
fn subtree_nodes(tree: &XmlTree, node: NodeId) -> usize {
    let mut count = 1usize;
    let mut stack: Vec<NodeId> = tree.children(node).to_vec();
    while let Some(n) = stack.pop() {
        count += 1;
        stack.extend_from_slice(tree.children(n));
    }
    count
}

/// Turns the context's children into leaf tasks, recursively re-splitting
/// oversized children into spines. The split predicate is uniform across
/// thread budgets (so a budget of one still exercises the spine machinery
/// on skewed documents), and the spine count is capped at `4 · threads` —
/// past that there is already enough fan-out to keep every worker busy,
/// and an unbounded pathological chain of nested spines would otherwise
/// allocate a core per level.
fn plan_shards<'a>(
    tree: &'a XmlTree,
    context: NodeId,
    queries: &'a [CompiledBatchQuery],
    context_seeds: Vec<ContextSeed>,
    threads: usize,
    nodes_total: usize,
) -> ShardPlan<'a> {
    let limit = (nodes_total / threads.saturating_mul(2).max(1)).max(MIN_SPLIT_NODES);
    let max_spines = threads.saturating_mul(4);
    let mut plan = ShardPlan {
        context,
        context_seeds,
        tasks: Vec::new(),
        spines: Vec::new(),
    };
    // FIFO worklist: a spine's children re-enter behind the current level,
    // so spines are created parents-first (the merge pops them in reverse).
    let mut pending: Vec<(NodeId, u32)> = tree
        .children(context)
        .iter()
        .map(|&child| (child, 0u32))
        .collect();
    let mut i = 0;
    while i < pending.len() {
        let (node, group) = pending[i];
        i += 1;
        let split = plan.spines.len() < max_spines
            && tree.children(node).len() >= 2
            && subtree_nodes(tree, node) > limit;
        if !split {
            plan.tasks.push(Task { node, group });
            continue;
        }
        let runtimes: Vec<QueryRuntime> = queries
            .iter()
            .map(|q| QueryRuntime::new(tree.labels(), Arc::clone(&q.compiled), q.index))
            .collect();
        let mut core = HypeCore::new(runtimes);
        let (group_node, group_seeds) = if group == 0 {
            (plan.context, &plan.context_seeds)
        } else {
            let spine = &plan.spines[group as usize - 1];
            (spine.node, &spine.seeds)
        };
        core.seed_context_frame(group_node, group_seeds);
        if !core.open(node, tree.label(node)) {
            // Every query pruned the whole subtree. Dropping the probe core
            // discards its counters, and the leaf task re-runs the same
            // cheap failed open in a worker core — which records them once,
            // exactly like the sequential walk.
            plan.tasks.push(Task { node, group });
            continue;
        }
        let seeds = core.context_seeds();
        let frame_queries = core.frame_query_ids();
        plan.spines.push(SpinePlan {
            core,
            node,
            parent_group: group,
            frame_queries,
            seeds,
        });
        let new_group = plan.spines.len() as u32;
        for &child in tree.children(node) {
            pending.push((child, new_group));
        }
    }
    plan
}

/// A fixed-capacity Chase–Lev work-stealing deque over task indices.
///
/// Every item is pushed by the planner **before** the workers spawn (the
/// spawn is the happens-before edge that publishes the buffer), so the
/// buffer is immutable while the deque is shared and only the two cursors
/// are atomic: the owner pops `bottom` LIFO (hot subtrees stay cache-warm),
/// thieves race CAS on `top` FIFO (the oldest — round-robin ⇒ typically
/// largest-remaining — task moves, minimising steal traffic). `pop` must
/// only ever be called by the deque's owner; `steal` by anyone.
pub(crate) struct TaskDeque {
    items: Box<[usize]>,
    top: AtomicIsize,
    bottom: AtomicIsize,
}

/// Outcome of a [`TaskDeque::steal`] attempt. `Retry` means the CAS lost
/// to a concurrent pop/steal — the deque may still hold work, so an
/// all-`Empty` sweep (and only that) lets a worker retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Steal {
    Success(usize),
    Empty,
    Retry,
}

impl TaskDeque {
    fn new(items: Vec<usize>) -> Self {
        let bottom = items.len() as isize;
        TaskDeque {
            items: items.into_boxed_slice(),
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(bottom),
        }
    }

    /// Owner-only LIFO pop. The SeqCst fence orders the speculative
    /// `bottom` decrement against thieves' `top` reads; the final item is
    /// raced for with a CAS on `top` so it is handed out exactly once.
    fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty: undo the decrement.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let item = self.items[b as usize];
        if t == b {
            // Last item: win it from any concurrent thief via `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(item);
        }
        Some(item)
    }

    /// Thief-side FIFO steal; any thread but the owner may call it.
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let item = self.items[t as usize];
        match self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        {
            Ok(_) => Steal::Success(item),
            Err(_) => Steal::Retry,
        }
    }
}

/// One worker's outputs: per-group shard artefacts covering every task the
/// worker claimed, plus skew bookkeeping. Which task lands on which worker
/// is scheduling-dependent, but the merge only ever sums counters, ORs
/// bitset rows, grafts arenas and unions ordered sets — all commutative —
/// so the result is deterministic regardless.
struct DequeWorkerResult {
    /// `(group, per-query outputs, physical visits)` for every group this
    /// worker created a core for.
    groups: Vec<(usize, Vec<ShardQueryOutput>, usize)>,
    /// The largest single task the worker ran, in physical node visits —
    /// the numerator of [`HypeStats::max_shard_fraction`].
    max_task_visits: usize,
}

/// One worker's whole run: drain the own deque, then steal. Cores are
/// created lazily, one per *group* the worker actually touches — a single
/// `QueryRuntime` set (ColumnMap, scratch pools, pruning tables) per
/// worker and group, seeded once and fed every task of that group the
/// worker claims. Walking several children under one seeded frame is
/// exactly what the sequential walk does, so per-query artefacts stay
/// bit-exact while setup cost scales with the worker count, not the
/// (possibly huge) child count.
fn run_deque_worker(
    tree: &XmlTree,
    queries: &[CompiledBatchQuery],
    groups: &[(NodeId, &[ContextSeed])],
    tasks: &[Task],
    deques: &[TaskDeque],
    me: usize,
) -> DequeWorkerResult {
    let mut cores: Vec<Option<HypeCore>> = (0..groups.len()).map(|_| None).collect();
    let mut max_task_visits = 0usize;
    {
        let mut run_task = |index: usize| {
            let task = tasks[index];
            let g = task.group as usize;
            let core = cores[g].get_or_insert_with(|| {
                let runtimes: Vec<QueryRuntime> = queries
                    .iter()
                    .map(|q| QueryRuntime::new(tree.labels(), Arc::clone(&q.compiled), q.index))
                    .collect();
                let mut core = HypeCore::new(runtimes);
                let (group_node, group_seeds) = groups[g];
                core.seed_context_frame(group_node, group_seeds);
                core
            });
            let before = core.physical_visits;
            walk(core, tree, task.node);
            max_task_visits = max_task_visits.max(core.physical_visits - before);
        };
        let mine = &deques[me];
        loop {
            if let Some(index) = mine.pop() {
                run_task(index);
                continue;
            }
            // Own deque drained: sweep the other workers' deques. No task
            // is ever pushed after spawn, so a full all-`Empty` sweep means
            // the run is globally out of work.
            let mut retry = false;
            let mut stolen = None;
            for other in (me + 1..deques.len()).chain(0..me) {
                match deques[other].steal() {
                    Steal::Success(index) => {
                        stolen = Some(index);
                        break;
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            match stolen {
                Some(index) => run_task(index),
                None if retry => std::hint::spin_loop(),
                None => break,
            }
        }
    }
    let groups = cores
        .into_iter()
        .enumerate()
        .filter_map(|(g, core)| {
            core.map(|core| {
                let (outputs, physical) = core.into_shard_outputs();
                (g, outputs, physical)
            })
        })
        .collect();
    DequeWorkerResult {
        groups,
        max_task_visits,
    }
}

/// One merged work unit: per-query shard outputs plus the unit's physical
/// visit count.
type Unit = (Vec<ShardQueryOutput>, usize);

/// Runs the planned tasks over up to `threads` scoped workers claiming off
/// per-worker Chase–Lev deques, and buckets the resulting units by group.
/// Also returns the largest single task in physical visits (the
/// `max_shard_fraction` numerator).
fn run_tasks<'a>(
    tree: &XmlTree,
    queries: &[CompiledBatchQuery],
    plan: &ShardPlan<'a>,
    threads: usize,
) -> (Vec<Vec<Unit>>, usize) {
    let mut units: Vec<Vec<Unit>> = (0..1 + plan.spines.len()).map(|_| Vec::new()).collect();
    if plan.tasks.is_empty() {
        return (units, 0);
    }
    // Cap by the task count *after* re-splitting: a two-subtree document
    // with one dominant subtree still occupies every worker.
    let workers = threads.min(plan.tasks.len()).max(1);
    let mut lists: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    for index in 0..plan.tasks.len() {
        lists[index % workers].push(index);
    }
    let deques: Vec<TaskDeque> = lists.into_iter().map(TaskDeque::new).collect();
    let groups: Vec<(NodeId, &[ContextSeed])> =
        std::iter::once((plan.context, plan.context_seeds.as_slice()))
            .chain(plan.spines.iter().map(|s| (s.node, s.seeds.as_slice())))
            .collect();
    let results: Vec<DequeWorkerResult> = if workers <= 1 {
        // Budget 1 exercises the same deque code path, unspawned.
        vec![run_deque_worker(tree, queries, &groups, &plan.tasks, &deques, 0)]
    } else {
        let mut collected = Vec::with_capacity(workers);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let groups = &groups;
                    let deques = &deques;
                    let tasks = &plan.tasks;
                    scope.spawn(move || run_deque_worker(tree, queries, groups, tasks, deques, me))
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(result) => collected.push(result),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        collected
    };
    let mut max_task_visits = 0;
    for result in results {
        max_task_visits = max_task_visits.max(result.max_task_visits);
        for (group, outputs, physical) in result.groups {
            units[group].push((outputs, physical));
        }
    }
    (units, max_task_visits)
}

/// Collapses every spine into one ordinary unit of its parent group,
/// bottom-up (spines are created parents-first, so popping runs nested
/// spines before the spines they feed): absorb each unit's accumulator
/// rows at the spine-frame positions, close the spine node exactly as the
/// sequential walk would, extract the spine's own shard outputs, and graft
/// the unit arenas in. After the loop `units[0]` holds only context-level
/// units and the context merge proceeds as if no re-splitting happened.
fn merge_spines<'a>(
    tree: &XmlTree,
    spines: &mut Vec<SpinePlan<'a>>,
    units: &mut [Vec<Unit>],
) {
    while let Some(spine) = spines.pop() {
        let group = spines.len() + 1;
        let SpinePlan {
            mut core,
            node,
            parent_group,
            frame_queries,
            seeds: _,
        } = spine;
        let my_units = std::mem::take(&mut units[group]);
        for (unit, _) in &my_units {
            for (position, &query) in frame_queries.iter().enumerate() {
                let sq = &unit[query as usize];
                core.absorb_child_values(position, &sq.acc_any, &sq.acc);
            }
        }
        core.close(tree.text(node));
        let (mut outputs, spine_physical) = core.into_shard_outputs();
        let mut physical = spine_physical;
        for (unit, unit_physical) in &my_units {
            physical += unit_physical;
            for (query, sq) in unit.iter().enumerate() {
                outputs[query].graft_child_unit(sq);
            }
        }
        units[parent_group as usize].push((outputs, physical));
    }
}

/// The shared worker scaffold of the finalize phase (and of
/// [`crate::corpus`]'s across-documents axis): runs `worker` once per
/// worker slot, handing each the claim counter the bodies pull work-item
/// indices from. One worker runs inline (budget 1 exercises the same code
/// path, unspawned); panics inside a spawned worker are re-raised on the
/// calling thread after all workers joined.
pub(crate) fn claim_parallel<T: Send>(
    workers: usize,
    worker: impl Fn(&AtomicUsize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    if workers <= 1 {
        return vec![worker(&next)];
    }
    let mut collected = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let worker = &worker;
                scope.spawn(move || worker(next))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(result) => collected.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    collected
}

/// Merges one query from its per-shard-unit outputs: answers collected
/// over the context block first (also yielding the reached context
/// vertices), then over every shard unit seeded with that reached set;
/// statistics summed exactly.
///
/// A *shard unit* is whatever arena granularity the caller evaluated with —
/// one output per worker or merged spine here, one per top-level child in
/// [`crate::incremental`]. The merge is invariant to the partition: every
/// counter is a sum of per-node contributions and the context placeholders
/// (the first `context_vertices` ids of every unit) are discounted once per
/// unit.
pub(crate) fn finalize_one(
    block: ContextBlock,
    shard_outputs: &[&ShardQueryOutput],
    nodes_total: usize,
    scratch: &mut CollectScratch,
) -> HypeResult {
    let context_vertices = block.cans.len();
    let (mut answers, reached) =
        collect_answers_and_reached(&block.cans, &block.edges, &block.init, scratch);
    let mut stats = block.stats;
    stats.nodes_total = nodes_total;
    stats.cans_vertices = context_vertices;
    stats.cans_edges = block.edges.len();
    for sq in shard_outputs {
        debug_assert_eq!(sq.context_vertices as usize, context_vertices);
        // Destructured so adding a counter to `HypeStats` fails to compile
        // here instead of being silently dropped from parallel results.
        // The two DAG-size counters are derived from the arenas (the shard
        // core never finalises them); `nodes_total` is context-wide, and
        // `max_shard_fraction` is a whole-run diagnostic the parallel
        // entry points stamp after the merge.
        let HypeStats {
            nodes_total: _,
            nodes_visited,
            cans_vertices: _,
            cans_edges: _,
            afa_values_computed,
            max_shard_fraction: _,
        } = sq.stats;
        stats.nodes_visited += nodes_visited;
        stats.afa_values_computed += afa_values_computed;
        stats.cans_vertices += sq.cans.len() - context_vertices;
        stats.cans_edges += sq.edges.len();
        answers.append(&mut collect_answers(&sq.cans, &sq.edges, &reached, scratch));
    }
    HypeResult { answers, stats }
}

/// Finalizes every query, distributing the per-query DAG collections over
/// up to `threads` workers when the batch is large enough to pay for it.
/// `outputs_of` names each query's shard-unit outputs (see
/// [`finalize_one`]); it is called once per query, from whichever worker
/// claims that query.
pub(crate) fn finalize_queries<'a>(
    blocks: Vec<ContextBlock>,
    outputs_of: impl Fn(usize) -> Vec<&'a ShardQueryOutput> + Sync,
    nodes_total: usize,
    threads: usize,
) -> Vec<HypeResult> {
    let workers = threads.min(blocks.len()).max(1);
    // Each block is consumed by exactly one worker; the Mutex<Option<..>>
    // wrapper is what lets a worker move its claim out of the shared Vec.
    let slots: Vec<Mutex<Option<ContextBlock>>> =
        blocks.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let mut collected: Vec<(usize, HypeResult)> = claim_parallel(workers, |next| {
        let mut scratch = CollectScratch::new();
        let mut mine = Vec::new();
        loop {
            let q = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(q) else {
                break;
            };
            let block = slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take()
                .expect("each slot is claimed exactly once");
            let outputs = outputs_of(q);
            mine.push((q, finalize_one(block, &outputs, nodes_total, &mut scratch)));
        }
        mine
    })
    .into_iter()
    .flatten()
    .collect();
    collected.sort_by_key(|&(q, _)| q);
    collected.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{compile, evaluate_solo, ir};
    use crate::{evaluate_batch_compiled, evaluate_compiled_at_with, evaluate_tree};
    use smoqe_automata::compile_query;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    /// Plain HyPE at the root under the thread budget `threads`.
    fn evaluate_parallel(
        tree: &XmlTree,
        compiled: &Arc<CompiledMfa>,
        threads: usize,
    ) -> HypeResult {
        evaluate_solo(tree, tree.root(), compiled, None, threads)
    }

    /// Plain HyPE at the root on the calling thread.
    fn sequential(tree: &XmlTree, compiled: &Arc<CompiledMfa>) -> HypeResult {
        evaluate_compiled_at_with(tree, tree.root(), compiled, None)
    }

    /// A document whose root has several structurally different subtrees.
    fn doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        for (name, diag) in [("Alice", "heart disease"), ("Bob", "flu"), ("Carol", "heart disease")] {
            let dept = b.child(root, "department");
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", diag);
        }
        b.finish()
    }

    /// Two top-level subtrees, one holding ~99% of the nodes — the shape
    /// the pre-splitting evaluator pinned to two workers.
    fn skewed_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let big = b.child(root, "department");
        for i in 0..300 {
            let p = b.child(big, "patient");
            b.child_with_text(p, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", if i % 3 == 0 { "flu" } else { "heart disease" });
        }
        let small = b.child(root, "department");
        let p = b.child(small, "patient");
        b.child_with_text(p, "pname", "Carol");
        b.finish()
    }

    /// Like [`skewed_doc`], but the dominant subtree's bulk hides one
    /// level deeper — forcing a spine *inside* a spine.
    fn nested_skew_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        let big_ward = b.child(dept, "ward");
        for i in 0..290 {
            let p = b.child(big_ward, "patient");
            b.child_with_text(p, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", "flu");
        }
        let small_ward = b.child(dept, "ward");
        for _ in 0..3 {
            let p = b.child(small_ward, "patient");
            b.child_with_text(p, "pname", "Carol");
        }
        b.finish()
    }

    #[test]
    fn solo_matches_sequential_at_every_budget() {
        let doc = doc();
        for query in ["//diagnosis", "department/patient/pname", "doctor"] {
            let compiled = ir(query);
            let sequential = sequential(&doc, &compiled);
            for threads in [0, 1, 2, 5, 64] {
                let parallel = evaluate_parallel(&doc, &compiled, threads);
                assert_eq!(parallel.answers, sequential.answers, "`{query}` @{threads}");
                assert_eq!(parallel.stats, sequential.stats, "`{query}` @{threads}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_including_aggregate_stats() {
        let doc = doc();
        let queries: Vec<CompiledBatchQuery> = ["//diagnosis", "department/patient/pname"]
            .iter()
            .map(|q| CompiledBatchQuery::new(ir(q)))
            .collect();
        let sequential = evaluate_batch_compiled(&doc, &queries);
        for threads in [1, 2, 8] {
            let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
            for (p, s) in parallel.results.iter().zip(&sequential.results) {
                assert_eq!(p.answers, s.answers, "@{threads}");
                assert_eq!(p.stats, s.stats, "@{threads}");
            }
        }
    }

    #[test]
    fn resplitting_matches_sequential_on_skewed_doc() {
        let doc = skewed_doc();
        for query in ["//diagnosis", "department/patient/pname", "//patient[visit]"] {
            let compiled = ir(query);
            let sequential = sequential(&doc, &compiled);
            for threads in [1, 2, 4, 8] {
                let parallel = evaluate_parallel(&doc, &compiled, threads);
                assert_eq!(parallel.answers, sequential.answers, "`{query}` @{threads}");
                assert_eq!(parallel.stats, sequential.stats, "`{query}` @{threads}");
            }
        }
    }

    #[test]
    fn nested_spines_match_sequential() {
        let doc = nested_skew_doc();
        let queries: Vec<CompiledBatchQuery> =
            ["//diagnosis", "department/ward/patient/pname", "//patient"]
                .iter()
                .map(|q| CompiledBatchQuery::new(ir(q)))
                .collect();
        let sequential = evaluate_batch_compiled(&doc, &queries);
        for threads in [1, 2, 4, 8] {
            let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
            for (p, s) in parallel.results.iter().zip(&sequential.results) {
                assert_eq!(p.answers, s.answers, "@{threads}");
                assert_eq!(p.stats, s.stats, "@{threads}");
            }
        }
        // The dominant chain really is split twice: department, then ward.
        let compiled = ir("//diagnosis");
        let q = [CompiledBatchQuery::new(compiled)];
        let (plan, _seeds) = plan_for(&doc, &q, 4);
        assert!(plan.spines.len() >= 2, "nested spines expected");
    }

    /// Builds the shard plan the evaluator would use, for plan-shape tests.
    fn plan_for<'a>(
        tree: &'a XmlTree,
        queries: &'a [CompiledBatchQuery<'a>],
        threads: usize,
    ) -> (ShardPlan<'a>, Vec<ContextSeed>) {
        let runtimes: Vec<QueryRuntime> = queries
            .iter()
            .map(|q| QueryRuntime::new(tree.labels(), Arc::clone(&q.compiled), q.index))
            .collect();
        let mut core = HypeCore::new(runtimes);
        assert!(core.open(tree.root(), tree.label(tree.root())));
        let seeds = core.context_seeds();
        let plan = plan_shards(
            tree,
            tree.root(),
            queries,
            seeds.clone(),
            threads,
            tree.subtree_size(tree.root()),
        );
        (plan, seeds)
    }

    #[test]
    fn two_subtree_doc_occupies_four_workers_after_resplitting() {
        // Regression for the pre-splitting cap `threads.min(children.len())`:
        // a two-subtree document saturated at two workers no matter the
        // budget. Re-splitting the dominant subtree yields enough tasks for
        // the full budget.
        let doc = skewed_doc();
        assert_eq!(doc.children(doc.root()).len(), 2);
        let queries = [CompiledBatchQuery::new(ir("//diagnosis"))];
        let threads = 4;
        let (plan, _seeds) = plan_for(&doc, &queries, threads);
        assert!(!plan.spines.is_empty(), "the dominant subtree is re-split");
        assert!(
            plan.tasks.len() >= threads,
            "re-splitting yields at least one task per worker ({} tasks)",
            plan.tasks.len()
        );
        assert_eq!(threads.min(plan.tasks.len()), 4, "all four workers occupied");
    }

    #[test]
    fn skewed_run_reports_shard_fraction() {
        let doc = skewed_doc();
        let compiled = ir("//diagnosis");
        let sequential = sequential(&doc, &compiled);
        assert_eq!(sequential.stats.max_shard_fraction, 0.0);
        let parallel = evaluate_parallel(&doc, &compiled, 4);
        let frac = parallel.stats.max_shard_fraction;
        assert!(frac > 0.0 && frac <= 1.0, "fraction in (0, 1]: {frac}");
        // Re-splitting bounds every task well below the dominant subtree's
        // ~99% share of the document.
        assert!(frac < 0.5, "no task dominates after re-splitting: {frac}");
    }

    #[test]
    fn deque_owner_pops_lifo_and_thief_steals_fifo() {
        let d = TaskDeque::new(vec![10, 11, 12]);
        assert_eq!(d.steal(), Steal::Success(10));
        assert_eq!(d.pop(), Some(12));
        assert_eq!(d.pop(), Some(11));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);

        let d = TaskDeque::new(Vec::new());
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn deque_concurrent_drain_yields_each_item_exactly_once() {
        const ITEMS: usize = 10_000;
        const THIEVES: usize = 3;
        let d = TaskDeque::new((0..ITEMS).collect());
        let mut claimed: Vec<Vec<usize>> = Vec::new();
        thread::scope(|scope| {
            let thieves: Vec<_> = (0..THIEVES)
                .map(|_| {
                    let d = &d;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match d.steal() {
                                Steal::Success(i) => got.push(i),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => break,
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut own = Vec::new();
            while let Some(i) = d.pop() {
                own.push(i);
            }
            claimed.push(own);
            for t in thieves {
                claimed.push(t.join().unwrap());
            }
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn single_node_context_has_no_shards() {
        let doc = doc();
        let compiled = ir("diagnosis");
        let leaf = doc
            .node_ids()
            .find(|&n| doc.children(n).is_empty())
            .expect("tree has leaves");
        let sequential = evaluate_compiled_at_with(&doc, leaf, &compiled, None);
        let parallel = evaluate_solo(&doc, leaf, &compiled, None, 8);
        assert_eq!(parallel.answers, sequential.answers);
        assert_eq!(parallel.stats, sequential.stats);
    }

    #[test]
    fn indexed_pruning_matches_sequential() {
        let doc = doc();
        let dtd = hospital_document_dtd();
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let sequential = evaluate_compiled_at_with(&doc, doc.root(), &compiled, Some(&index));
        for threads in [1, 3] {
            let parallel = evaluate_solo(&doc, doc.root(), &compiled, Some(&index), threads);
            assert_eq!(parallel.answers, sequential.answers, "@{threads}");
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
        }
    }

    #[test]
    fn indexed_pruning_matches_sequential_on_skewed_doc() {
        // Spine probes run the same pruning logic as the sequential walk;
        // a pruned spine candidate must fall back to a leaf task with
        // identical statistics.
        let doc = skewed_doc();
        let dtd = hospital_document_dtd();
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let sequential = evaluate_compiled_at_with(&doc, doc.root(), &compiled, Some(&index));
        for threads in [1, 4] {
            let parallel = evaluate_solo(&doc, doc.root(), &compiled, Some(&index), threads);
            assert_eq!(parallel.answers, sequential.answers, "@{threads}");
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let doc = doc();
        let batch = evaluate_tree(&doc, doc.root(), &[], 4);
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats.queries, 0);
        assert_eq!(batch.stats.nodes_visited, 0);
        assert_eq!(batch.stats.nodes_total, doc.len());
    }

    #[test]
    fn mirrors_sequential_batch_with_builder_queries() {
        // Two separate compilations of one builder MFA behave identically.
        let doc = doc();
        let mfa = compile_query(&parse_path("department/patient[visit]").unwrap());
        let sequential =
            evaluate_batch_compiled(&doc, &[CompiledBatchQuery::new(compile(&mfa))]);
        let parallel =
            evaluate_tree(&doc, doc.root(), &[CompiledBatchQuery::new(compile(&mfa))], 2);
        assert_eq!(parallel.results[0].answers, sequential.results[0].answers);
        assert_eq!(parallel.results[0].stats, sequential.results[0].stats);
    }
}
