//! Pluggable task-ordering and slot-choice policies for the async
//! replay — the [`Scheduler`] trait and its implementations.
//!
//! [`crate::Simulation::run_async_schedule`] used to hard-code one
//! greedy policy: visit pending tasks in list order and place each on
//! the slot with the earliest *estimated* start
//! ([`NetworkModel::estimate`]). That policy survives bit-identically as
//! [`ListScheduler`], the default. Beside it, this module adds the
//! classic alternative from the DAG-scheduling literature:
//!
//! | scheduler | ordering | slot choice |
//! |---|---|---|
//! | [`ListScheduler`] | list (topological) order | earliest estimated **start** |
//! | [`Heft`] | upward-rank (critical path first) | earliest estimated **finish** (speed-aware) |
//!
//! Every policy decides from **estimates only** — pure reads of the
//! network model and the borrowed slot state — and draws no randomness,
//! so the replay stays a pure function of
//! `(ClusterSpec, FailurePlan, NodeFailurePlan, NetworkModel,
//! SchedulerSpec, seed, tasks)`: the same determinism contract the
//! event core documents, extended by the scheduler axis (pinned by
//! `tests/determinism_prop.rs` over the full scheduler × model matrix).
//!
//! The split mirrors the estimate-then-commit shape of `place()`:
//! the scheduler *ranks and chooses* (this module), the run *commits*
//! the chosen slot's edges through the mutable network model
//! ([`crate::asyncsched`]), where contention may push the real start
//! past the estimate (metered by
//! [`crate::AsyncScheduleStats::commit`]).

use std::fmt;

use crate::asyncsched::AsyncTaskSpec;
use crate::cluster::ClusterSpec;
use crate::network::NetworkModel;
use crate::time::SimTime;

/// Which [`Scheduler`] a simulation's async replay uses — the
/// builder-level description injected via
/// [`crate::Simulation::with_scheduler`] and instantiated fresh per
/// replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// The pre-refactor greedy policy (the default): list order,
    /// earliest estimated start. Byte-identical to the inline scheduler
    /// the replay-fidelity goldens were pinned under.
    #[default]
    List,
    /// Heterogeneous-Earliest-Finish-Time: upward-rank priority order,
    /// earliest-finish slot choice. The classic win on clusters with
    /// heterogeneous node speeds.
    Heft,
}

impl SchedulerSpec {
    /// Short stable name (bench/JSON keys, stats labels).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::List => "list",
            SchedulerSpec::Heft => "heft",
        }
    }

    /// Builds a fresh scheduler instance for one replay (per-run caches
    /// start empty, so consecutive replays on one simulation stay
    /// independent).
    pub fn instantiate(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::List => Box::new(ListScheduler),
            SchedulerSpec::Heft => Box::new(Heft::new()),
        }
    }
}

/// The immutable inputs a scheduling decision may read: the task graph,
/// its fan-out counts, the cluster, and the (read-only) network model.
pub struct SchedView<'a> {
    /// The full schedule being replayed (a topological order).
    pub tasks: &'a [AsyncTaskSpec],
    /// Consumers per producer (message bytes are split across them).
    pub consumers: &'a [u32],
    /// The cluster the schedule runs on.
    pub spec: &'a ClusterSpec,
    /// The network model, for pure estimates and wire times.
    pub net: &'a dyn NetworkModel,
}

impl SchedView<'_> {
    /// The per-consumer share of producer `d`'s output bytes.
    pub fn share(&self, d: usize) -> u64 {
        self.tasks[d].output_bytes / u64::from(self.consumers[d].max(1))
    }
}

/// The mutable placement state a decision ranks against, borrowed from
/// the live run.
pub struct SlotState<'a> {
    /// `(free instant, node)` per map slot.
    pub slots: &'a [(SimTime, usize)],
    /// Committed finish per task.
    pub finish: &'a [SimTime],
    /// Node each placed task ran on.
    pub node_of: &'a [usize],
    /// Per-task dispatch gate (death-detection delays).
    pub gate: &'a [SimTime],
    /// Per-task placement exclusion (the node that lost it).
    pub excluded: &'a [Option<usize>],
}

/// One admissible slot for a task, with its pure estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index into the slot table.
    pub slot: usize,
    /// The slot's node.
    pub node: usize,
    /// Estimated start: `max(slot free, gate, dependency arrivals)`.
    pub est_start: SimTime,
    /// Estimated finish at the node's speed (nominal — no straggler
    /// draw; randomness belongs to the commit, not the ranking).
    pub est_finish: SimTime,
}

/// Enumerates the admissible slots for `task` with their estimated
/// start/finish, in slot-index order — the shared first half of every
/// placement decision.
///
/// Start = `max(slot free, task gate, extra_gate, per-dependency
/// estimated arrival)` ([`NetworkModel::estimate`] — the exact formula
/// the pre-refactor greedy ranked with). Finish adds the launch
/// overhead, the iteration-0 DFS read, and the node-speed-scaled
/// nominal compute + sort. Slots on the task's excluded node are
/// skipped unless it is the only node.
pub fn candidates(
    view: &SchedView<'_>,
    state: &SlotState<'_>,
    task: usize,
    extra_gate: SimTime,
) -> Vec<Candidate> {
    // On a single-node cluster there is nowhere else to go: the
    // rebooted node must take its own lost work back.
    let exclude_node =
        state.excluded[task].filter(|&n| state.slots.iter().any(|&(_, node)| node != n));
    let t = &view.tasks[task];
    let gate = state.gate[task].max(extra_gate);
    let mut out = Vec::with_capacity(state.slots.len());
    for (s, &(free, node)) in state.slots.iter().enumerate() {
        if exclude_node == Some(node) {
            continue;
        }
        let mut start = free.max(gate);
        for &d in &t.deps {
            debug_assert!(d < task, "async schedule must be topologically ordered");
            let arrival = view.net.estimate(state.node_of[d], node, view.share(d), state.finish[d]);
            start = start.max(arrival);
        }
        let read = if t.iteration == 0 {
            SimTime::from_secs_f64(t.input_bytes as f64 / view.spec.disk_bandwidth)
        } else {
            SimTime::ZERO
        };
        let speed = view.spec.nodes[node].speed;
        let compute = view.spec.cost.compute_time(t.ops, t.output_records, speed);
        let sort = view.spec.cost.sort_time(t.output_bytes, speed);
        let est_finish = start + view.spec.task_launch + read + compute + sort;
        out.push(Candidate { slot: s, node, est_start: start, est_finish });
    }
    out
}

/// A task-ordering and slot-choice policy for the async replay.
///
/// Implementations must be pure functions of their inputs: no
/// randomness, no hidden clocks — determinism across the scheduler
/// matrix is part of the replay contract. All methods take `&mut self`
/// so implementations may keep per-run caches (HEFT ranks).
pub trait Scheduler: fmt::Debug + Send {
    /// Short stable name (stats label).
    fn name(&self) -> &'static str;

    /// The dispatch order for this epoch's pending tasks (a permutation
    /// of `pending`; must keep every task after the dependencies it has
    /// inside the batch).
    fn order(&mut self, view: &SchedView<'_>, pending: &[usize]) -> Vec<usize>;

    /// Picks one of the `candidates` (returns its index; `candidates`
    /// is never empty).
    fn choose(
        &mut self,
        view: &SchedView<'_>,
        state: &SlotState<'_>,
        task: usize,
        candidates: &[Candidate],
    ) -> usize;
}

// ---------------------------------------------------------------------------
// ListScheduler: the pre-refactor greedy, bit-identical.
// ---------------------------------------------------------------------------

/// The default policy — exactly the scheduler `run_async_schedule`
/// inlined before the trait existed: tasks in list order, each on the
/// slot with the earliest estimated **start**, ties to the lowest slot
/// index. The replay-fidelity goldens pin this equivalence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler;

impl Scheduler for ListScheduler {
    fn name(&self) -> &'static str {
        "list"
    }

    fn order(&mut self, _view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        pending.to_vec()
    }

    fn choose(
        &mut self,
        _view: &SchedView<'_>,
        _state: &SlotState<'_>,
        _task: usize,
        candidates: &[Candidate],
    ) -> usize {
        // Strict `<` keeps the first (lowest-indexed) slot on ties —
        // the pre-refactor tie-break.
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.est_start < candidates[best].est_start {
                best = i;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Heft: upward-rank priority + earliest-finish choice.
// ---------------------------------------------------------------------------

/// Heterogeneous-Earliest-Finish-Time (Topcuoglu et al.): order tasks
/// by *upward rank* — nominal execution time plus the heaviest
/// communication-inclusive path to a sink — and place each on the slot
/// with the earliest estimated **finish**, so slow nodes are charged
/// their real compute cost instead of winning on an early free slot.
///
/// Rank order is provably topological here: for a dependency `d` of
/// `i`, `rank(d) ≥ comm(d→i) + rank(i) ≥ rank(i)`, and the index
/// tie-break preserves `d < i` when ranks are equal.
#[derive(Debug, Default)]
pub struct Heft {
    /// Upward rank per task, in seconds (computed lazily, once per
    /// replay — the schedule is immutable).
    ranks: Option<Vec<f64>>,
}

impl Heft {
    /// A fresh HEFT instance (ranks computed on first use).
    pub fn new() -> Self {
        Heft { ranks: None }
    }

    /// One reverse-index sweep computes every upward rank: `deps`
    /// always point backwards, so by the time `i` is visited
    /// (descending), every dependent of each of its deps with a higher
    /// index has already pushed its `comm + rank` maximum down.
    fn ranks<'s>(&'s mut self, view: &SchedView<'_>) -> &'s [f64] {
        self.ranks.get_or_insert_with(|| {
            let n = view.tasks.len();
            let nodes = &view.spec.nodes;
            let avg_speed = nodes.iter().map(|nd| nd.speed).sum::<f64>() / nodes.len() as f64;
            let mut rank = vec![0.0f64; n];
            for i in (0..n).rev() {
                let t = &view.tasks[i];
                // rank[i] currently holds max over dependents of
                // (comm + their full rank); add this task's own weight.
                let w = view.spec.cost.compute_time(t.ops, t.output_records, avg_speed)
                    + view.spec.cost.sort_time(t.output_bytes, avg_speed)
                    + view.spec.task_launch;
                rank[i] += w.as_secs_f64();
                for &d in &t.deps {
                    let comm = view.net.wire_time(view.share(d)).as_secs_f64();
                    if comm + rank[i] > rank[d] {
                        rank[d] = comm + rank[i];
                    }
                }
            }
            rank
        })
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn order(&mut self, view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        let ranks = self.ranks(view);
        let mut order = pending.to_vec();
        // Rank descending, index ascending on ties (f64 ranks are
        // finite by construction, so the comparison is total).
        order.sort_by(|&a, &b| {
            ranks[b].partial_cmp(&ranks[a]).expect("ranks are finite").then(a.cmp(&b))
        });
        order
    }

    fn choose(
        &mut self,
        _view: &SchedView<'_>,
        _state: &SlotState<'_>,
        _task: usize,
        candidates: &[Candidate],
    ) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.est_finish < candidates[best].est_finish {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(SchedulerSpec::List.name(), "list");
        assert_eq!(SchedulerSpec::Heft.name(), "heft");
    }

    #[test]
    fn heft_rank_order_is_topological() {
        // A diamond: 0 → {1, 2} → 3, all same cost. Whatever the ranks,
        // the order must keep deps first.
        let tasks = vec![
            AsyncTaskSpec::new(0, 0, 1 << 20, 1_000_000).with_output(10, 1 << 16),
            AsyncTaskSpec::new(0, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(1, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(0, 2, 0, 1_000_000).with_deps(vec![1, 2]),
        ];
        let consumers = vec![2, 1, 1, 0];
        let spec = ClusterSpec::ec2_2010();
        let net = crate::network::Constant::new(8, spec.nic_bandwidth, spec.net_latency);
        let view = SchedView { tasks: &tasks, consumers: &consumers, spec: &spec, net: &net };
        let mut heft = Heft::new();
        let order = heft.order(&view, &[0, 1, 2, 3]);
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2), "source first");
        assert!(pos(1) < pos(3) && pos(2) < pos(3), "sink last");
        assert!(pos(1) < pos(2), "equal ranks tie-break by index");
    }
}
