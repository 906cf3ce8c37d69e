//! The session layer: **cross-iteration eager scheduling**.
//!
//! PR 2's pipelined engine deleted every *intra-job* stage barrier, but
//! an iterative run still pays the paper's headline cost in full: one
//! global synchronization per iteration ([`crate::FixedPointDriver`]
//! runs one [`crate::Engine::run`] job per global iteration, and
//! iteration *i+1* cannot start until every partition of iteration *i*
//! has reduced). This module lifts eager scheduling from the stage
//! level to the **iteration** level:
//!
//! * [`AsyncIterative`] re-expresses one global iteration as a
//!   per-partition `gmap` (the heavy local solve, on the pool) plus a
//!   per-partition `absorb` (that partition's slice of the global
//!   reduce, on the scheduler thread), with **declared dependencies**:
//!   the set of partitions whose messages a partition consumes each
//!   iteration (derived from cross-partition edges for the graph
//!   applications; algorithms with genuinely global state — K-Means
//!   centroids, component relabeling — keep the default
//!   [`Dependence::Full`] and degrade gracefully to barrier-equivalent
//!   scheduling).
//! * [`AsyncFixedPointDriver`] keeps **one long-lived
//!   [`asyncmr_runtime::ThreadPool::par_multiwave`] scope alive across
//!   global iterations** and launches iteration *i+1*'s gmap for
//!   partition *p* the moment the iteration-*i* outputs *p* depends on
//!   have arrived — no global barrier anywhere.
//! * A bounded-staleness knob ([`AsyncFixedPointDriver::max_lag`])
//!   optionally lets a partition proceed on messages up to `max_lag`
//!   iterations old. At the default `max_lag = 0` every consumed
//!   message is exactly one iteration fresh, and the computed states —
//!   and the convergence decision — are **byte-identical** to the
//!   barrier driver's (asserted by the `session_equivalence`
//!   integration tests); only the schedule differs. `max_lag` is the
//!   session's whole admission rule: absorb on batches no older than
//!   `max_lag` iterations, and launch no further ahead than the
//!   globally-complete frontier plus `max_lag` plus a fixed runahead
//!   slack.
//!
//! Convergence detection stays barrier-equivalent: a partition's delta
//! counts toward iteration *i* only once it has absorbed *i* against
//! sufficiently fresh neighbor state, and the session declares
//! convergence only after `max_lag + 1` *consecutive fully-absorbed*
//! iterations pass the convergence test — for `max_lag = 0` that is
//! exactly the barrier rule. Work that was speculatively started beyond
//! the convergence iteration is discarded (and reported).
//!
//! Every executed gmap is metered into an
//! [`asyncmr_simcluster::AsyncTaskSpec`]; replaying the recorded
//! schedule with [`asyncmr_simcluster::Simulation::run_async_schedule`]
//! shows the win in *simulated* cluster time too, not just host
//! wall-clock.
//!
//! ## Fault tolerance (deterministic replay)
//!
//! The paper's §VI argument is that MapReduce's deterministic-replay
//! recovery *carries over* to partial synchronization. The session
//! reproduces it in-process: a [`SessionFailurePlan`] kills individual
//! gmap *attempts* (each attempt's fate is a pure function of
//! `(seed, partition, iteration, attempt)`, so chaos runs are
//! reproducible regardless of thread interleaving), and the driver's
//! attempt-tracking layer re-executes the task — on the *same*
//! immutable input state `Arc` — up to
//! [`SessionFailurePlan::max_attempts`].
//!
//! The invalidation rule is structural: message delivery is **atomic**
//! (a completed gmap delivers its whole outbox in one scheduler step,
//! or — if the attempt died — nothing at all), so a downstream consumer can
//! only ever have absorbed *delivered* versions. "Invalidating
//! speculative consumers back to the last delivered version" is
//! therefore a no-op by construction: their mailboxes still hold
//! exactly the last delivered batch per source, and the bounded-
//! staleness bookkeeping (`max_lag` selection, runahead slack, windowed
//! convergence) is untouched by a failure — the failed partition simply
//! cannot absorb (and so cannot launch further) until a retry delivers.
//! Because `gmap` is a pure function of `(p, iteration, state)`, the
//! retry emits bitwise-identical output, and the converged result —
//! pinned by `tests/chaos_session.rs` — is byte-identical to a
//! failure-free run; only wall-clock (and the wasted attempt time
//! reported in [`SessionReport::failed_attempt_time`]) changes.
//!
//! ## Checkpoint/rollback (correlated node failures)
//!
//! Attempt-level recovery leans on delivery atomicity: a dead attempt
//! delivered nothing, so nothing downstream needs undoing. A **node**
//! failure breaks that: a dying virtual node
//! ([`crate::checkpoint::NodeFailurePlan`], partitions mapped
//! `p % num_nodes`) takes every resident in-flight attempt *and every
//! output its partitions already delivered past the last checkpoint*
//! with it — so consumers that absorbed those outputs hold state
//! derived from data that no longer exists, and the session must
//! perform real **rollback** rather than re-execution:
//!
//! 1. **Checkpoints** ([`crate::checkpoint::CheckpointPolicy`], every
//!    k iterations) are declared at frontier advances, so they are
//!    *coordinated*: the same iteration for every partition. The
//!    retained history `Arc`s at the checkpoint iteration are the
//!    snapshot; what a durable store would write is metered into
//!    [`SessionReport::checkpoint_bytes`].
//! 2. **Node death** is evaluated once per frontier advance (an
//!    *epoch*) with a pure `(seed, node, epoch)` verdict, capped per
//!    node so sessions terminate. The dead node's partitions rewind to
//!    the last checkpoint `C`; their delivered batches with source
//!    iteration ≥ `C` are revoked from every consumer mailbox.
//! 3. **Transitive invalidation**: any partition that *absorbed* a
//!    revoked batch holds contaminated state and rewinds to `C` too —
//!    a closure over the declared dependency topology (the
//!    [`Dependence`] graph the apps derive from
//!    `PartitionTopology`), using the per-iteration consumption log.
//!    Rewound partitions discard parked work, orphan their in-flight
//!    attempts (stale-generation completions are dropped and billed as
//!    failed attempts), and relaunch from the checkpoint state.
//!
//! Because gmaps are pure and the checkpoint cut is consistent,
//! re-execution regenerates byte-identical messages and states: at
//! `max_lag = 0` the converged result under injected node failures is
//! **byte-identical** to the failure-free barrier driver (the headline
//! contract, pinned by `tests/chaos_session.rs`), while the recovery
//! cost shows up in [`SessionReport::rollbacks`],
//! [`SessionReport::rolled_back_iterations`], and the wasted-work
//! meters. Bounded history is what makes this tractable: the session
//! retains states back to the last checkpoint only (plus mailbox
//! batches back to `C − max_lag` when node failures are enabled), and
//! [`SessionReport::peak_state_bytes`] meters the high-water mark of
//! everything held.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncmr_runtime::{PoolMetrics, ThreadPool, Wave};
use asyncmr_simcluster::{AsyncTaskSpec, MarkKind, SessionTrace, SpanKind};

use crate::checkpoint::{CheckpointPolicy, CheckpointTracker, NodeFailurePlan};
use crate::hash::verdict_unit;
use crate::obs::{SessionObs, SpanRecorder};

/// Transient-failure injection for in-process sessions, mirroring
/// `asyncmr_simcluster::FailurePlan` for the simulated cluster: each
/// gmap *attempt* fails independently with a configured probability and
/// is re-executed up to `max_attempts`.
///
/// Whether attempt `a` of partition `p` at iteration `i` fails is a
/// pure function of `(seed, p, i, a)` (a splitmix64-style hash, not a
/// shared sequential RNG), so an injected failure pattern is
/// reproducible no matter how pool threads interleave — the property
/// the chaos tests rely on. Like Hadoop's re-execution budget (and the
/// simulator), the *last* admissible attempt never fails, so a session
/// under injection always terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionFailurePlan {
    /// Probability that any single gmap attempt fails, in `[0, 1)`.
    pub attempt_failure_prob: f64,
    /// Attempts before a task would be declared failed (Hadoop's
    /// `mapred.map.max.attempts` default of 4). Must be ≥ 1.
    pub max_attempts: u32,
    /// Seed for the per-attempt failure decision.
    pub seed: u64,
}

impl SessionFailurePlan {
    /// No injected failures (the default).
    pub fn none() -> Self {
        SessionFailurePlan { attempt_failure_prob: 0.0, max_attempts: 4, seed: 0 }
    }

    /// A transient-failure regime: `prob` per attempt, Hadoop's default
    /// attempt budget, failures drawn from `seed`.
    pub fn transient(prob: f64, seed: u64) -> Self {
        let plan = SessionFailurePlan { attempt_failure_prob: prob, max_attempts: 4, seed };
        plan.validate();
        plan
    }

    /// Whether this plan can ever fail an attempt.
    pub fn enabled(&self) -> bool {
        self.attempt_failure_prob > 0.0
    }

    /// Panics unless the fields are in range (`prob ∈ [0, 1)`,
    /// `max_attempts ≥ 1`). The driver calls this once at injection
    /// time, so a plan constructed literally with out-of-range fields
    /// is rejected before it can bias a run.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.attempt_failure_prob),
            "session failure probability must be in [0, 1), got {}",
            self.attempt_failure_prob
        );
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
    }

    /// The deterministic per-attempt verdict (see the type docs), a
    /// [`crate::hash::verdict_unit`] draw over
    /// `(seed, p, iteration, attempt)`.
    fn attempt_fails(&self, p: usize, iteration: usize, attempt: u32) -> bool {
        if !self.enabled() || attempt + 1 >= self.max_attempts {
            return false;
        }
        verdict_unit(self.seed, &[p as u64, iteration as u64, u64::from(attempt)])
            < self.attempt_failure_prob
    }
}

impl Default for SessionFailurePlan {
    fn default() -> Self {
        SessionFailurePlan::none()
    }
}

/// Which partitions' outputs a partition consumes each iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dependence {
    /// Depends on every other partition. The safe default: scheduling
    /// degrades to barrier-equivalent order (a partition can only
    /// advance once all others finished the iteration it consumes).
    Full,
    /// Depends only on the listed partitions (self is implicit and
    /// ignored if listed). For the graph applications this is "the
    /// partitions with cross edges into mine".
    Sparse(Vec<usize>),
}

/// Reusable cross-partition message staging for one `gmap` call: one
/// batch slot per destination partition, **pooled by the session** and
/// recycled across waves so the steady-state hot path performs no
/// per-gmap `Vec<Vec<_>>` allocation (batches drained into mailboxes
/// return to the pool when pruned).
///
/// A gmap pushes messages in emission order. Destinations must be
/// partitions that declare the producer as a dependency (enforced by
/// the session after delivery); destinations a task has nothing for are
/// simply never pushed — the session delivers an empty batch on the
/// producer's behalf so consumers never wait on a message that will
/// never come.
#[derive(Debug)]
pub struct Outbox<M> {
    /// One staged message batch per destination partition.
    per_dest: Vec<Vec<M>>,
    /// Destinations pushed to since the last recycle (first touch
    /// recorded once), so recycling clears only the slots used.
    touched: Vec<u32>,
}

impl<M> Outbox<M> {
    /// An empty outbox with `slots` destination slots (one per
    /// partition). The session pools these; barrier oracles and tests
    /// may construct their own.
    pub fn new(slots: usize) -> Self {
        Outbox { per_dest: (0..slots).map(|_| Vec::new()).collect(), touched: Vec::new() }
    }

    /// Stages one message for partition `dest`.
    pub fn push(&mut self, dest: usize, msg: M) {
        let slot = &mut self.per_dest[dest];
        if slot.is_empty() {
            self.touched.push(dest as u32);
        }
        slot.push(msg);
    }

    /// The batch currently staged for `dest` (empty if untouched).
    pub fn batch(&self, dest: usize) -> &[M] {
        &self.per_dest[dest]
    }

    /// Clears every touched slot, keeping all allocations for reuse.
    pub fn recycle(&mut self) {
        for &t in &self.touched {
            self.per_dest[t as usize].clear();
        }
        self.touched.clear();
    }
}

/// Everything one asynchronous `gmap` invocation produced besides its
/// staged messages (those go into the borrowed [`Outbox`]).
#[derive(Debug)]
pub struct GmapOutput<U> {
    /// The owner-side product of the local solve (e.g. converged local
    /// contribution sums), consumed by the partition's own
    /// [`AsyncIterative::absorb`].
    pub update: U,
    /// Abstract operations performed by the local solve.
    pub ops: u64,
    /// Partial synchronizations (`lreduce` barriers) performed.
    pub local_syncs: u64,
    /// The partition's input split size (simulated DFS read at
    /// iteration 0).
    pub input_bytes: u64,
    /// Messages emitted (cross-partition records, for the replay's
    /// framework overhead accounting).
    pub msg_records: u64,
    /// Bytes of cross-partition messages emitted.
    pub msg_bytes: u64,
}

/// What one [`AsyncIterative::absorb`] call produced.
#[derive(Debug)]
pub struct Absorbed<S> {
    /// The partition's state entering the next iteration.
    pub state: S,
    /// The partition's convergence delta for this iteration (e.g. max
    /// absolute state change); folded with `max` across partitions and
    /// tested with [`AsyncIterative::converged`].
    pub delta: f64,
    /// Abstract operations performed by the absorb (the partition's
    /// slice of the global reduce).
    pub ops: u64,
}

/// An iterative computation decomposed for cross-iteration eager
/// scheduling.
///
/// One barrier iteration of the classic formulation splits into, per
/// partition *p*:
///
/// 1. [`gmap`](AsyncIterative::gmap) — the heavy local solve on *p*'s
///    state (runs on the thread pool), emitting the owner-side update
///    plus per-destination message batches into a pooled [`Outbox`];
/// 2. [`absorb`](AsyncIterative::absorb) — *p*'s slice of the global
///    reduce: combine the own update with the dependencies' message
///    batches into the next state (runs on the session's scheduler
///    thread; keep it cheap).
///
/// The contract that makes `max_lag = 0` byte-identical to the barrier
/// driver: `absorb` must perform the same floating-point reduction the
/// barrier `greduce` performs, with message batches consumed in
/// ascending source-partition order (the engine's map-task-ordered
/// value semantics) — the session guarantees it presents them that way.
pub trait AsyncIterative: Sync {
    /// Per-partition state (e.g. owned ranks + frozen remote inputs).
    type State: Send + Sync;
    /// Owner-side gmap product consumed by the partition's own absorb.
    type Update: Send;
    /// One cross-partition message payload.
    type Msg: Send;

    /// Number of partitions (= gmap tasks per global iteration).
    fn partitions(&self) -> usize;

    /// Partitions whose iteration outputs partition `p` consumes.
    ///
    /// The default declares [`Dependence::Full`]: correct for any
    /// algorithm, and it degrades scheduling to the barrier order —
    /// which is exactly how algorithms with global coupling (K-Means,
    /// connected components) should run until someone derives a real
    /// dependency structure for them.
    fn dependencies(&self, p: usize) -> Dependence {
        let _ = p;
        Dependence::Full
    }

    /// Initial state of partition `p` (global iteration 0 input).
    fn init_state(&self, p: usize) -> Self::State;

    /// The local solve for partition `p` at global iteration
    /// `iteration`, given the state produced by its previous absorb.
    ///
    /// Cross-partition messages are staged into `outbox`, a pooled
    /// buffer the session recycles across waves (it arrives empty; do
    /// not clear it). The returned [`GmapOutput`] carries the owner-side
    /// update and the meters.
    fn gmap(
        &self,
        p: usize,
        iteration: usize,
        state: &Self::State,
        outbox: &mut Outbox<Self::Msg>,
    ) -> GmapOutput<Self::Update>;

    /// Partition `p`'s slice of the global reduce for `iteration`.
    ///
    /// `inbox` holds one entry per declared dependency, in **ascending
    /// source-partition order**, each with the message batch selected
    /// under the staleness bound (empty if the source had nothing for
    /// `p` that iteration).
    fn absorb(
        &self,
        p: usize,
        iteration: usize,
        state: &Self::State,
        update: Self::Update,
        inbox: &[(usize, &[Self::Msg])],
    ) -> Absorbed<Self::State>;

    /// Whether an iteration whose partition deltas folded to
    /// `max_delta` has globally converged.
    fn converged(&self, max_delta: f64) -> bool;

    /// Approximate serialized bytes of one partition state — what a
    /// durable checkpoint of it would write, and what holding it in
    /// history costs. Drives [`SessionReport::checkpoint_bytes`] and
    /// [`SessionReport::peak_state_bytes`].
    ///
    /// The default is the shallow `size_of` — exact for plain-data
    /// states (the common trait-test case); override it for states
    /// with heap payloads (the graph apps report their owned vectors).
    fn state_bytes(&self, state: &Self::State) -> u64 {
        let _ = state;
        std::mem::size_of::<Self::State>() as u64
    }
}

/// Summary of one asynchronous session run.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Global iterations the result is built from (= the barrier
    /// driver's iteration count at `max_lag = 0`).
    pub global_iterations: usize,
    /// Whether the run converged (vs. hit the iteration cap).
    pub converged: bool,
    /// Partial synchronizations inside gmaps, over the contributing
    /// iterations (barrier-comparable).
    pub local_syncs: u64,
    /// Abstract ops (gmap + absorb) over the contributing iterations.
    pub total_ops: u64,
    /// Gmap tasks that contributed to the result
    /// (= `global_iterations × partitions`).
    pub gmap_tasks: usize,
    /// Gmap tasks whose iteration exceeded the convergence point —
    /// work the eager schedule started speculatively and discarded.
    pub speculative_tasks: usize,
    /// Wall-clock burned by those discarded speculative gmaps (wasted
    /// gmap-seconds from runahead past convergence).
    pub speculative_time: Duration,
    /// Injected gmap attempts that died before delivering —
    /// transient deaths re-executed by the attempt-tracking layer,
    /// plus in-flight attempts orphaned by a node-failure rollback
    /// (0 without a [`SessionFailurePlan`] or
    /// [`crate::checkpoint::NodeFailurePlan`]).
    pub failed_attempts: usize,
    /// Wall-clock burned by failed attempts before they died (wasted
    /// gmap-seconds from transient failures and orphaned attempts).
    pub failed_attempt_time: Duration,
    /// Injected node-failure events (each fired node death triggers
    /// one rollback of its resident partitions and their transitive
    /// dependents; 0 without a
    /// [`crate::checkpoint::NodeFailurePlan`]).
    pub rollbacks: usize,
    /// Absorbed iterations undone by rollbacks, summed over affected
    /// partitions — the re-execution debt node failures created. How
    /// far past the checkpoint each partition had run is
    /// timing-dependent, so (unlike `rollbacks`) this meter can vary
    /// run to run; the *results* never do.
    pub rolled_back_iterations: usize,
    /// Bytes a durable checkpoint store would have written over the
    /// run (declared snapshots × per-partition
    /// [`AsyncIterative::state_bytes`]); 0 with
    /// [`crate::checkpoint::CheckpointPolicy::Off`].
    pub checkpoint_bytes: u64,
    /// High-water mark of bytes the session held at once: state
    /// history (all retained iterations, all partitions) plus mailbox
    /// message batches. Checkpoint retention makes this grow with the
    /// checkpoint interval.
    pub peak_state_bytes: u64,
    /// The staleness bound the session ran under
    /// ([`AsyncFixedPointDriver::max_lag`]).
    pub max_lag: usize,
    /// Real time of the whole session (the driver-level wall).
    pub wall_time: Duration,
    /// Thread-pool activity over this run: a fieldwise delta of
    /// [`asyncmr_runtime::ThreadPool::metrics`] across the session, so
    /// steals, parks, and the steal ratio attribute to *this* run even
    /// on a long-lived pool.
    pub pool: PoolMetrics,
    /// The per-attempt span trace, when the driver ran
    /// [`AsyncFixedPointDriver::with_trace`]; `None` (and zero
    /// recording cost) otherwise. Feed it to
    /// `asyncmr_simcluster::ReportModel::from_session` together with
    /// [`SessionReport::schedule`] for the Chrome-trace/HTML report.
    pub trace: Option<SessionTrace>,
    /// The executed cross-iteration schedule (contributing tasks only,
    /// topologically ordered), ready for
    /// [`asyncmr_simcluster::Simulation::run_async_schedule`].
    pub schedule: Vec<AsyncTaskSpec>,
}

/// What [`AsyncFixedPointDriver::run`] returns.
#[derive(Debug)]
pub struct SessionOutcome<S> {
    /// Final per-partition states, all at the same global iteration
    /// (the convergence iteration, or the cap).
    pub states: Vec<Arc<S>>,
    /// Scheduling and metering summary.
    pub report: SessionReport,
}

/// Runs an [`AsyncIterative`] computation to convergence with
/// cross-iteration eager scheduling.
#[derive(Debug, Clone, Copy)]
pub struct AsyncFixedPointDriver {
    /// Upper bound on global iterations.
    pub max_iterations: usize,
    /// Bounded staleness: a partition may absorb iteration *i* using a
    /// dependency's messages from any iteration in `[i - max_lag, i]`
    /// (the freshest available is used). `0` (the default) means every
    /// consumed message is exactly fresh — byte-identical results to
    /// the barrier driver.
    pub max_lag: usize,
    /// Transient-failure injection (defaults to
    /// [`SessionFailurePlan::none`]). Validated once at the start of
    /// [`AsyncFixedPointDriver::run`].
    pub failures: SessionFailurePlan,
    /// Checkpoint policy (defaults to
    /// [`CheckpointPolicy::Off`]). Required (and validated) when node
    /// failures are injected — rollback needs a target.
    pub checkpoints: CheckpointPolicy,
    /// Correlated node-failure injection (defaults to
    /// [`NodeFailurePlan::none`]). Validated once at the start of
    /// [`AsyncFixedPointDriver::run`].
    pub node_failures: NodeFailurePlan,
    /// When `true`, the run records a per-attempt span trace (see
    /// [`crate::obs`]) and attaches it as
    /// [`SessionReport::trace`]. Off by default: an untraced run pays
    /// zero recording cost (the recorder is never constructed), and a
    /// traced `max_lag = 0` run stays bitwise identical to the barrier
    /// driver — recording never touches scheduling decisions.
    pub trace: bool,
}

/// How many iterations past the globally-complete frontier a partition
/// may speculate (on top of `max_lag`). Bounds state/mailbox history
/// per partition without throttling the overlap that pays for the
/// schedule: a straggler's *neighbors* are gated by messages, not by
/// this constant.
const RUNAHEAD_SLACK: usize = 8;

impl Default for AsyncFixedPointDriver {
    fn default() -> Self {
        AsyncFixedPointDriver {
            max_iterations: 1_000,
            max_lag: 0,
            failures: SessionFailurePlan::none(),
            checkpoints: CheckpointPolicy::Off,
            node_failures: NodeFailurePlan::none(),
            trace: false,
        }
    }
}

impl AsyncFixedPointDriver {
    /// A driver capped at `max_iterations`, with `max_lag = 0`
    /// (barrier-identical results, asynchronous schedule).
    pub fn new(max_iterations: usize) -> Self {
        AsyncFixedPointDriver { max_iterations: max_iterations.max(1), ..Default::default() }
    }

    /// Sets the bounded-staleness knob.
    pub fn with_max_lag(mut self, max_lag: usize) -> Self {
        self.max_lag = max_lag;
        self
    }

    /// Enables transient-failure injection (see the
    /// [module docs](self): failed attempts deliver nothing and are
    /// re-executed deterministically, so converged results are
    /// unchanged).
    pub fn with_failures(mut self, failures: SessionFailurePlan) -> Self {
        self.failures = failures;
        self
    }

    /// Sets the checkpoint policy (see the
    /// [module docs](self#checkpointrollback-correlated-node-failures)):
    /// state history is retained back to the last declared checkpoint
    /// and the snapshot bytes are metered. Results are unaffected —
    /// checkpoints only bound how far a node-failure rollback rewinds.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = policy;
        self
    }

    /// Enables correlated node-failure injection (see the
    /// [module docs](self#checkpointrollback-correlated-node-failures)).
    /// Requires a checkpoint policy
    /// ([`AsyncFixedPointDriver::with_checkpoints`]) — enforced at the
    /// start of [`AsyncFixedPointDriver::run`]. Converged results stay
    /// byte-identical at `max_lag = 0`; only the rollback/wasted-work
    /// accounting and wall-clock change.
    pub fn with_node_failures(mut self, plan: NodeFailurePlan) -> Self {
        self.node_failures = plan;
        self
    }

    /// Enables per-attempt span recording for this run (see
    /// [`crate::obs`]): every launch/gmap/deliver/absorb/blocked-wait/
    /// rollback becomes a timestamped span in
    /// [`SessionReport::trace`], ready for the unified
    /// Chrome-trace/HTML renderer in
    /// `asyncmr_simcluster::trace::report`. Results are unchanged —
    /// only observation is added.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Runs `algo` until convergence or the iteration cap, keeping one
    /// multiwave scope alive across all global iterations (see the
    /// [module docs](self)).
    pub fn run<A: AsyncIterative>(&self, pool: &ThreadPool, algo: &A) -> SessionOutcome<A::State> {
        let started = Instant::now();
        let pool_before = pool.metrics();
        // Injection-time validation: a plan assembled literally with
        // out-of-range fields is rejected here, before any scheduling.
        self.failures.validate();
        self.checkpoints.validate();
        self.node_failures.validate();
        assert!(
            !self.node_failures.enabled() || self.checkpoints.enabled(),
            "node-failure injection requires a checkpoint policy (nothing to roll back to)"
        );
        let k = algo.partitions();
        if k == 0 {
            return SessionOutcome {
                states: Vec::new(),
                report: SessionReport {
                    global_iterations: 0,
                    converged: true,
                    local_syncs: 0,
                    total_ops: 0,
                    gmap_tasks: 0,
                    speculative_tasks: 0,
                    speculative_time: Duration::ZERO,
                    failed_attempts: 0,
                    failed_attempt_time: Duration::ZERO,
                    rollbacks: 0,
                    rolled_back_iterations: 0,
                    checkpoint_bytes: 0,
                    peak_state_bytes: 0,
                    max_lag: self.max_lag,
                    wall_time: started.elapsed(),
                    pool: pool.metrics().since(&pool_before),
                    trace: None,
                    schedule: Vec::new(),
                },
            };
        }

        let failures = self.failures;
        // The recorder exists only on traced runs: untraced runs take
        // no per-attempt branches beyond one `Option` test.
        let recorder = self.trace.then(|| Arc::new(SpanRecorder::new(pool.num_threads())));
        if let Some(rec) = &recorder {
            pool.set_park_observer(Some(rec.clone()));
        }
        let mut sess = Session::new(
            algo,
            self.max_iterations.max(1),
            self.max_lag,
            self.checkpoints,
            self.node_failures,
            recorder.clone().map(|rec| SessionObs::new(rec, k)),
        );
        let mut initial = Vec::new();
        for p in 0..k {
            if let Some(launch) = sess.make_launch(p) {
                initial.push((p, launch));
            }
        }
        pool.par_multiwave(
            initial,
            |_id, mut launch: Launch<A::State, A::Msg>| {
                // A doomed attempt still runs: the task process does
                // real work before dying, and that work — billed to
                // `failed_attempt_time` — is exactly the wasted
                // gmap-seconds the accounting reports. Its output is
                // discarded (never delivered), which is the whole
                // fault model: deterministic replay re-executes the
                // pure gmap on the same state and reproduces it. The
                // pooled outbox it filled travels back either way and
                // is recycled by the scheduler.
                let start_ns = recorder.as_ref().map_or(0, |rec| rec.now_ns());
                let t0 = Instant::now();
                let out = algo.gmap(launch.p, launch.iter, &launch.state, &mut launch.outbox);
                let died = failures.attempt_fails(launch.p, launch.iter, launch.attempt);
                // One measurement feeds both the span and the meters:
                // the trace report's conservation law (Σ gmap span
                // durations == metered gmap time, exactly) depends on
                // this identity.
                let elapsed = t0.elapsed();
                if let Some(rec) = recorder.as_ref() {
                    rec.record(
                        SpanKind::Gmap,
                        launch.p,
                        launch.iter,
                        launch.attempt,
                        start_ns,
                        elapsed,
                    );
                }
                AttemptDone {
                    p: launch.p,
                    iter: launch.iter,
                    attempt: launch.attempt,
                    generation: launch.generation,
                    start_ns,
                    elapsed,
                    outbox: launch.outbox,
                    output: (!died).then_some(out),
                }
            },
            |_id, done: AttemptDone<A::Update, A::Msg>, wave| {
                if done.generation != sess.parts[done.p].generation {
                    // An attempt orphaned by a node-failure rollback:
                    // its input state was rewound, so its output — even
                    // a successful one — describes a version of the
                    // computation that no longer exists. Bill the
                    // wasted time and drop it; the rollback already
                    // relaunched the partition from the checkpoint.
                    sess.recycle_outbox(done.outbox);
                    sess.on_orphaned(done.elapsed);
                } else {
                    match done.output {
                        Some(out) => sess.on_gmap_done(
                            algo,
                            done.p,
                            done.iter,
                            out,
                            done.outbox,
                            done.start_ns,
                            done.elapsed,
                            wave,
                        ),
                        None => {
                            sess.recycle_outbox(done.outbox);
                            sess.on_gmap_failed(done.p, done.iter, done.attempt, done.elapsed, wave)
                        }
                    }
                }
                Vec::new()
            },
        );
        // Stop observing parks before draining, so the trace's park
        // totals are settled when `finish` reads them.
        if recorder.is_some() {
            pool.set_park_observer(None);
        }
        sess.finish(started.elapsed(), pool.metrics().since(&pool_before))
    }
}

/// One pool task: attempt `attempt` of partition `p`'s gmap at `iter`,
/// on the state its previous absorb produced.
struct Launch<S, M> {
    p: usize,
    iter: usize,
    attempt: u32,
    /// The partition's rollback generation at launch time: a completion
    /// whose generation is stale was orphaned by a node-failure
    /// rollback and is discarded (billed as a failed attempt).
    generation: u64,
    state: Arc<S>,
    /// A pooled (empty, capacity-retaining) outbox for the gmap to fill;
    /// it returns with the completion for delivery and recycling.
    outbox: Outbox<M>,
}

/// What one pool attempt reported back to the scheduler.
struct AttemptDone<U, M> {
    p: usize,
    iter: usize,
    attempt: u32,
    generation: u64,
    /// Recorder-clock start of the attempt (0 on untraced runs).
    start_ns: u64,
    elapsed: Duration,
    /// The filled outbox (recycled into the pool after delivery — or
    /// without delivery, if the attempt died or was orphaned).
    outbox: Outbox<M>,
    /// `None` = the injected failure killed this attempt before it
    /// could deliver; the scheduler re-executes it.
    output: Option<GmapOutput<U>>,
}

/// Meters of one recorded gmap, kept per iteration so a rollback can
/// subtract exactly what it undoes (the re-execution re-adds it).
struct GmapRec {
    ops: u64,
    syncs: u64,
    elapsed: Duration,
}

/// What one absorb consumed and contributed, kept per iteration: the
/// selected source iteration per dependency (the rollback engine's
/// consumption log — how transitive invalidation decides whether a
/// partition touched revoked data) and the absorb's op count.
struct AbsorbRec {
    selected: Vec<usize>,
    ops: u64,
}

/// Per-partition scheduler state.
struct Part<S, U, M> {
    /// Declared dependency sources, ascending.
    deps: Vec<usize>,
    /// Partitions that declared *this* partition as a dependency,
    /// ascending — the destinations every gmap must deliver to (empty
    /// batches included).
    out_deps: Vec<usize>,
    /// States for iterations `[hist_base ..]`; pruned as the globally
    /// complete frontier advances — or, with checkpoints enabled, only
    /// up to the last declared checkpoint (the rollback target).
    history: VecDeque<Arc<S>>,
    /// `state_bytes` of each retained state, aligned with `history`
    /// (held-bytes accounting).
    hist_bytes: VecDeque<u64>,
    hist_base: usize,
    /// Iterations absorbed (state index `absorbed` is available).
    absorbed: usize,
    /// Gmap iterations launched (∈ {absorbed, absorbed + 1}).
    launched: usize,
    /// Bumped by every rollback of this partition; completions carrying
    /// an older generation are orphaned.
    generation: u64,
    /// Own gmap output awaiting dependency messages.
    parked: Option<(usize, U)>,
    /// Per dependency (aligned with `deps`): iteration → message batch.
    mailbox: Vec<BTreeMap<usize, Vec<M>>>,
    /// Schedule indices the *next* gmap of this partition depends on
    /// (set by the absorb that enabled it).
    next_dep_tasks: Vec<usize>,
    /// Schedule index of each completed gmap, by iteration (truncated
    /// and re-filled across rollbacks).
    sched_of_iter: Vec<usize>,
    /// Meters of each completed gmap, aligned with `sched_of_iter`.
    gmap_log: Vec<GmapRec>,
    /// Consumption/op log of each absorbed iteration
    /// (`absorb_log.len() == absorbed`).
    absorb_log: Vec<AbsorbRec>,
}

/// Scheduler state for one session run (lives on the multiwave caller
/// thread; no locks anywhere).
struct Session<S, U, M> {
    parts: Vec<Part<S, U, M>>,
    k: usize,
    max_iterations: usize,
    /// The staleness bound: the one admission rule (absorb on batches
    /// no older than `max_lag`, launch no further than
    /// `frontier + max_lag + RUNAHEAD_SLACK`), and the size of mailbox
    /// retention and the convergence window.
    max_lag: usize,
    /// Per-iteration: partitions that absorbed it.
    absorbed_count: Vec<usize>,
    /// Per-iteration: max absorb delta so far.
    max_delta: Vec<f64>,
    iter_ops: Vec<u64>,
    iter_syncs: Vec<u64>,
    /// Iterations absorbed by *every* partition.
    frontier: usize,
    /// No further launches (converged or capped); in-flight tasks drain.
    stopped: bool,
    converged_at: Option<usize>,
    schedule: Vec<AsyncTaskSpec>,
    /// Successful gmap completions observed (including post-stop
    /// stragglers; injected failures are counted separately).
    executed: usize,
    /// Injected attempts that died before delivering.
    failed_attempts: usize,
    /// Wall-clock burned by failed attempts.
    failed_time: Duration,
    /// Wall-clock of every *successful* gmap (contributing or not).
    total_gmap_time: Duration,
    /// Per-iteration successful gmap wall-clock (contributing slice
    /// subtracted from the total yields the speculative waste).
    iter_gmap_time: Vec<Duration>,
    /// Checkpoint bookkeeping (last declared checkpoint = rollback
    /// target and retention floor; snapshot byte metering).
    ckpt: CheckpointTracker,
    /// Correlated node-failure injection.
    node_plan: NodeFailurePlan,
    /// Deaths fired per virtual node (the termination budget).
    node_deaths: Vec<u32>,
    /// Frontier-advance counter — the node-failure verdict epoch.
    /// Counts *advances*, not iteration values, so re-advancing over
    /// rolled-back ground draws fresh verdicts instead of looping on
    /// the same one.
    epoch: u64,
    /// Node-failure events fired.
    rollbacks: usize,
    /// Absorbed iterations undone across all rollbacks.
    rolled_back_iterations: usize,
    /// Dead entries of `schedule` (rolled back; superseded by a
    /// re-execution), filtered out of the report.
    dead: Vec<bool>,
    /// Currently held state-history bytes, all partitions.
    held_state_bytes: u64,
    /// Currently held mailbox bytes, all partitions (shallow message
    /// sizes).
    held_msg_bytes: u64,
    /// High-water mark of `held_state_bytes + held_msg_bytes`.
    peak_state_bytes: u64,
    /// Recycled outboxes awaiting the next launch (all pool traffic is
    /// on the scheduler thread; no locks).
    outbox_pool: Vec<Outbox<M>>,
    /// Recycled message-batch `Vec`s: pruned/revoked mailbox batches
    /// come back here and re-enter outbox slots at delivery time.
    batch_pool: Vec<Vec<M>>,
    /// Span/mark/stall recording for this run (`None` = untraced:
    /// every instrumentation site is a single `Option` test).
    obs: Option<SessionObs>,
}

impl<S: Send + Sync, U: Send, M: Send> Session<S, U, M> {
    fn new<A>(
        algo: &A,
        max_iterations: usize,
        max_lag: usize,
        checkpoints: CheckpointPolicy,
        node_plan: NodeFailurePlan,
        obs: Option<SessionObs>,
    ) -> Self
    where
        A: AsyncIterative<State = S, Update = U, Msg = M>,
    {
        let k = algo.partitions();
        let deps: Vec<Vec<usize>> = (0..k)
            .map(|p| match algo.dependencies(p) {
                Dependence::Full => (0..k).filter(|&q| q != p).collect(),
                Dependence::Sparse(mut v) => {
                    v.retain(|&q| q != p);
                    v.sort_unstable();
                    v.dedup();
                    assert!(v.iter().all(|&q| q < k), "dependency out of range");
                    v
                }
            })
            .collect();
        let mut out_deps: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (p, ds) in deps.iter().enumerate() {
            for &q in ds {
                out_deps[q].push(p); // ascending p by construction
            }
        }
        let mut held_state_bytes = 0u64;
        let parts: Vec<Part<S, U, M>> = deps
            .into_iter()
            .zip(out_deps)
            .enumerate()
            .map(|(p, (deps, out_deps))| {
                let init = algo.init_state(p);
                let bytes = algo.state_bytes(&init);
                held_state_bytes += bytes;
                Part {
                    mailbox: (0..deps.len()).map(|_| BTreeMap::new()).collect(),
                    deps,
                    out_deps,
                    history: VecDeque::from([Arc::new(init)]),
                    hist_bytes: VecDeque::from([bytes]),
                    hist_base: 0,
                    absorbed: 0,
                    launched: 0,
                    generation: 0,
                    parked: None,
                    next_dep_tasks: Vec::new(),
                    sched_of_iter: Vec::new(),
                    gmap_log: Vec::new(),
                    absorb_log: Vec::new(),
                }
            })
            .collect();
        let node_deaths = vec![0u32; node_plan.num_nodes.max(1)];
        Session {
            parts,
            k,
            max_iterations,
            max_lag,
            absorbed_count: Vec::new(),
            max_delta: Vec::new(),
            iter_ops: Vec::new(),
            iter_syncs: Vec::new(),
            frontier: 0,
            stopped: false,
            converged_at: None,
            schedule: Vec::new(),
            executed: 0,
            failed_attempts: 0,
            failed_time: Duration::ZERO,
            total_gmap_time: Duration::ZERO,
            iter_gmap_time: Vec::new(),
            ckpt: CheckpointTracker::new(checkpoints),
            node_plan,
            node_deaths,
            epoch: 0,
            rollbacks: 0,
            rolled_back_iterations: 0,
            dead: Vec::new(),
            peak_state_bytes: held_state_bytes,
            held_state_bytes,
            held_msg_bytes: 0,
            outbox_pool: Vec::new(),
            batch_pool: Vec::new(),
            obs,
        }
    }

    /// Returns a filled outbox to the pool (clearing only its touched
    /// slots, keeping all allocations).
    fn recycle_outbox(&mut self, mut outbox: Outbox<M>) {
        outbox.recycle();
        self.outbox_pool.push(outbox);
    }

    /// A pooled empty outbox for the next launch.
    fn take_outbox(&mut self) -> Outbox<M> {
        self.outbox_pool.pop().unwrap_or_else(|| Outbox::new(self.k))
    }

    /// Updates the held-bytes high-water mark.
    fn note_peak(&mut self) {
        self.peak_state_bytes =
            self.peak_state_bytes.max(self.held_state_bytes + self.held_msg_bytes);
    }

    /// Bills an attempt orphaned by a rollback (its completion carries
    /// a stale generation): the work is wasted exactly like a
    /// transiently failed attempt, and the partition was already
    /// relaunched from the checkpoint.
    fn on_orphaned(&mut self, elapsed: Duration) {
        self.failed_attempts += 1;
        self.failed_time += elapsed;
    }

    fn ensure_iter(&mut self, iter: usize) {
        if iter >= self.absorbed_count.len() {
            self.absorbed_count.resize(iter + 1, 0);
            self.max_delta.resize(iter + 1, 0.0);
            self.iter_ops.resize(iter + 1, 0);
            self.iter_syncs.resize(iter + 1, 0);
            self.iter_gmap_time.resize(iter + 1, Duration::ZERO);
        }
    }

    /// Launches the partition's next gmap if its state is ready and the
    /// caps (iteration budget, runahead slack) allow it.
    fn make_launch(&mut self, p: usize) -> Option<Launch<S, M>> {
        if self.stopped {
            return None;
        }
        let runahead_cap = self.frontier + self.max_lag + RUNAHEAD_SLACK;
        let part = &self.parts[p];
        if part.launched != part.absorbed
            || part.launched >= self.max_iterations
            || part.launched > runahead_cap
        {
            return None;
        }
        let outbox = self.take_outbox();
        let part = &mut self.parts[p];
        let iter = part.launched;
        let state = Arc::clone(&part.history[iter - part.hist_base]);
        let generation = part.generation;
        part.launched += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.mark(MarkKind::Launch, p, iter, 0);
        }
        Some(Launch { p, iter, attempt: 0, generation, state, outbox })
    }

    /// The attempt-tracking layer's failure path: meter the wasted
    /// attempt and re-execute the task on the same input state.
    ///
    /// Nothing else needs rolling back: the dead attempt delivered no
    /// messages and no update, so every downstream consumer still sees
    /// exactly the last *delivered* version per source (see the module
    /// docs). The partition itself simply stays un-absorbed at `iter`
    /// until a retry delivers, which also keeps the staleness and
    /// runahead bookkeeping untouched.
    fn on_gmap_failed(
        &mut self,
        p: usize,
        iter: usize,
        attempt: u32,
        elapsed: Duration,
        wave: &mut Wave<Launch<S, M>>,
    ) {
        self.failed_attempts += 1;
        self.failed_time += elapsed;
        if self.stopped {
            // A doomed straggler dying after convergence/cap: the
            // result no longer needs its retry.
            return;
        }
        if let Some(obs) = self.obs.as_mut() {
            // A retry launch: `value` carries the attempt number.
            obs.mark(MarkKind::Launch, p, iter, u64::from(attempt) + 1);
        }
        let outbox = self.take_outbox();
        let part = &self.parts[p];
        debug_assert_eq!(part.absorbed, iter, "a failed gmap cannot have been absorbed");
        let state = Arc::clone(&part.history[iter - part.hist_base]);
        wave.push(
            p,
            Launch { p, iter, attempt: attempt + 1, generation: part.generation, state, outbox },
        );
    }

    fn push_launch(&mut self, p: usize, wave: &mut Wave<Launch<S, M>>) {
        if let Some(launch) = self.make_launch(p) {
            wave.push(p, launch);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_gmap_done<A>(
        &mut self,
        algo: &A,
        p: usize,
        iter: usize,
        out: GmapOutput<U>,
        mut outbox: Outbox<M>,
        start_ns: u64,
        elapsed: Duration,
        wave: &mut Wave<Launch<S, M>>,
    ) where
        A: AsyncIterative<State = S, Update = U, Msg = M>,
    {
        self.executed += 1;
        self.total_gmap_time += elapsed;
        if self.stopped {
            // A straggler finishing after convergence/cap: its output
            // can no longer influence the result. (Its wall-clock is in
            // the total but not in any contributing iteration, so it is
            // billed as speculative waste.)
            self.recycle_outbox(outbox);
            return;
        }
        self.ensure_iter(iter);
        self.iter_ops[iter] += out.ops;
        self.iter_syncs[iter] += out.local_syncs;
        self.iter_gmap_time[iter] += elapsed;

        // Record the task for simulated replay; its dependency edges
        // were fixed by the absorb that launched it.
        let sched_idx = self.schedule.len();
        let deps = std::mem::take(&mut self.parts[p].next_dep_tasks);
        debug_assert_eq!(self.parts[p].sched_of_iter.len(), iter);
        self.parts[p].sched_of_iter.push(sched_idx);
        self.parts[p].gmap_log.push(GmapRec { ops: out.ops, syncs: out.local_syncs, elapsed });
        self.dead.push(false);
        self.schedule.push(AsyncTaskSpec {
            partition: p,
            iteration: iter,
            input_bytes: out.input_bytes,
            ops: out.ops,
            output_records: out.msg_records,
            output_bytes: out.msg_bytes,
            deps,
        });
        if let Some(obs) = self.obs.as_mut() {
            // Aligned index-for-index with `schedule`/`dead`, so the
            // same remap `finish` applies to the schedule keeps the
            // trace's task timings in lockstep.
            obs.task_times.push((start_ns, start_ns + elapsed.as_nanos() as u64));
        }

        // Deliver one batch to every declared consumer — empty if this
        // gmap emitted nothing for it — so consumers never wait on a
        // message that will never come. Non-empty slots are swapped out
        // against recycled batch `Vec`s, so steady-state delivery moves
        // capacity between the outbox pool and the mailboxes without
        // allocating.
        let deliver_t0 = self.obs.as_ref().map(|obs| obs.recorder.now_ns());
        let msg_size = std::mem::size_of::<M>() as u64;
        let out_deps = std::mem::take(&mut self.parts[p].out_deps);
        for &dest in &out_deps {
            let slot = &mut outbox.per_dest[dest];
            let msgs = if slot.is_empty() {
                Vec::new()
            } else {
                std::mem::replace(slot, self.batch_pool.pop().unwrap_or_default())
            };
            let dest_part = &mut self.parts[dest];
            let pos = dest_part.deps.binary_search(&p).expect("out_deps is the inverse of deps");
            self.held_msg_bytes += msgs.len() as u64 * msg_size;
            if let Some(mut old) = dest_part.mailbox[pos].insert(iter, msgs) {
                // A rollback re-delivery replacing a surviving batch
                // of identical content.
                self.held_msg_bytes -= old.len() as u64 * msg_size;
                old.clear();
                self.batch_pool.push(old);
            }
        }
        self.note_peak();
        // Hard assert (touched slots are few, this is once per gmap):
        // silently dropping a batch for an undeclared consumer would
        // converge to a *wrong* fixed point, not fail. Declared slots
        // were just emptied by the swap, so any survivor is undeclared.
        for &t in &outbox.touched {
            assert!(
                outbox.per_dest[t as usize].is_empty() || out_deps.contains(&(t as usize)),
                "gmap of partition {p} emitted to a partition that does not declare it as a \
                 dependency"
            );
        }
        self.parts[p].out_deps = out_deps;
        self.recycle_outbox(outbox);
        if let Some(t0) = deliver_t0 {
            let obs = self.obs.as_ref().expect("deliver_t0 implies obs");
            let now = obs.recorder.now_ns();
            obs.recorder.record(
                SpanKind::Deliver,
                p,
                iter,
                0,
                t0,
                Duration::from_nanos(now.saturating_sub(t0)),
            );
        }

        debug_assert!(self.parts[p].parked.is_none(), "one gmap in flight per partition");
        self.parts[p].parked = Some((iter, out.update));

        self.try_absorb(algo, p, wave);
        // Index-based fan-out, NOT a take/restore of `out_deps`: an
        // absorb can advance the frontier and fire a node-failure
        // rollback, whose contamination scan and revocation walk every
        // partition's `out_deps` — a temporarily emptied list would
        // silently exempt this partition from the rollback.
        let mut idx = 0;
        while let Some(&dest) = self.parts[p].out_deps.get(idx) {
            self.try_absorb(algo, dest, wave);
            idx += 1;
        }
    }

    /// Absorbs the partition's parked iteration if every dependency has
    /// delivered a fresh-enough batch.
    fn try_absorb<A>(&mut self, algo: &A, p: usize, wave: &mut Wave<Launch<S, M>>)
    where
        A: AsyncIterative<State = S, Update = U, Msg = M>,
    {
        if self.stopped {
            return;
        }
        let Some(i) = self.parts[p].parked.as_ref().map(|&(i, _)| i) else {
            return;
        };
        debug_assert_eq!(i, self.parts[p].absorbed, "absorbs are strictly in iteration order");

        // Staleness bound: per dependency, use the freshest batch of
        // iteration ≤ i, requiring it be ≥ i − max_lag. A missing or
        // too-stale batch blocks the parked absorb.
        let min_fresh = i.saturating_sub(self.max_lag);
        let mut selected = Vec::with_capacity(self.parts[p].deps.len());
        for mb in &self.parts[p].mailbox {
            match mb.range(..=i).next_back() {
                Some((&key, _)) if key >= min_fresh => selected.push(key),
                _ => {
                    if let Some(obs) = self.obs.as_mut() {
                        obs.open_stall(p, i);
                    }
                    return;
                }
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.close_stall(p);
        }

        let absorb_t0 = self.obs.as_ref().map(|obs| obs.recorder.now_ns());
        let absorbed = {
            let part = &mut self.parts[p];
            let (_, update) = part.parked.take().expect("checked above");
            let inbox: Vec<(usize, &[M])> = part
                .deps
                .iter()
                .zip(part.mailbox.iter().zip(&selected))
                .map(|(&q, (mb, sel))| (q, mb[sel].as_slice()))
                .collect();
            let state = &part.history[i - part.hist_base];
            algo.absorb(p, i, state, update, &inbox)
        };
        if let Some(t0) = absorb_t0 {
            let obs = self.obs.as_ref().expect("absorb_t0 implies obs");
            let now = obs.recorder.now_ns();
            obs.recorder.record(
                SpanKind::Absorb,
                p,
                i,
                0,
                t0,
                Duration::from_nanos(now.saturating_sub(t0)),
            );
        }

        // Dependency edges of the gmap this absorb enables: the own
        // task plus the producers whose batches were consumed.
        let mut dep_tasks = vec![self.parts[p].sched_of_iter[i]];
        for (j, &sel) in selected.iter().enumerate() {
            let q = self.parts[p].deps[j];
            dep_tasks.push(self.parts[q].sched_of_iter[sel]);
        }
        dep_tasks.sort_unstable();
        dep_tasks.dedup();

        // Mailbox retention floor: absorb(i+1) selects keys ≥
        // i+1 − max_lag, but with node failures enabled a rollback may
        // rewind this partition to the last checkpoint C and re-absorb
        // from there — which needs surviving producers' batches back to
        // C − max_lag, so those must outlive the ordinary pruning.
        let mut keep_from = (i + 1).saturating_sub(self.max_lag);
        if self.node_plan.enabled() {
            keep_from = keep_from.min(self.ckpt.last_checkpoint().saturating_sub(self.max_lag));
        }
        let state_bytes = algo.state_bytes(&absorbed.state);
        let msg_size = std::mem::size_of::<M>() as u64;
        {
            let part = &mut self.parts[p];
            part.next_dep_tasks = dep_tasks;
            part.history.push_back(Arc::new(absorbed.state));
            part.hist_bytes.push_back(state_bytes);
            part.absorbed = i + 1;
            part.absorb_log.push(AbsorbRec { selected, ops: absorbed.ops });
            debug_assert_eq!(part.absorb_log.len(), part.absorbed);
            for mb in &mut part.mailbox {
                while let Some((&key, _)) = mb.first_key_value() {
                    if key >= keep_from {
                        break;
                    }
                    let mut batch = mb.remove(&key).expect("first key exists");
                    self.held_msg_bytes -= batch.len() as u64 * msg_size;
                    batch.clear();
                    self.batch_pool.push(batch);
                }
            }
        }
        self.held_state_bytes += state_bytes;
        self.note_peak();

        self.ensure_iter(i);
        self.iter_ops[i] += absorbed.ops;
        self.max_delta[i] = self.max_delta[i].max(absorbed.delta);
        self.absorbed_count[i] += 1;
        self.advance_frontier(algo, wave);
        self.push_launch(p, wave);
    }

    /// Advances the globally-complete frontier, declaring checkpoints,
    /// evaluating convergence and node-failure epochs, and releasing
    /// runahead-capped partitions as it moves.
    fn advance_frontier<A>(&mut self, algo: &A, wave: &mut Wave<Launch<S, M>>)
    where
        A: AsyncIterative<State = S, Update = U, Msg = M>,
    {
        while self.absorbed_count.get(self.frontier).is_some_and(|&done| done == self.k) {
            let f = self.frontier;
            self.frontier += 1;

            // Coordinated checkpoint declaration: every partition has
            // absorbed iteration f, so every state entering
            // `self.frontier` exists — the policy decides whether this
            // iteration becomes the new rollback target.
            if self.ckpt.enabled() {
                let snapshot: u64 = self
                    .parts
                    .iter()
                    .map(|part| part.hist_bytes[self.frontier - part.hist_base])
                    .sum();
                let declared = self.ckpt.on_frontier_advance(self.frontier, snapshot);
                if declared {
                    if let Some(obs) = self.obs.as_mut() {
                        obs.mark(MarkKind::CheckpointCommit, 0, self.frontier, snapshot);
                    }
                }
            }

            // States below the retention floor can never become the
            // final answer (convergence candidates are ≥ the frontier
            // and yield state index candidate + 1), feed a gmap, or be
            // a rollback target — with checkpoints enabled the floor is
            // the last declared checkpoint, not the frontier (that
            // retained tail IS the snapshot).
            let retain =
                if self.ckpt.enabled() { self.ckpt.last_checkpoint() } else { self.frontier };
            for part in &mut self.parts {
                while part.hist_base < retain && part.history.len() > 1 {
                    part.history.pop_front();
                    self.held_state_bytes -= part.hist_bytes.pop_front().expect("aligned");
                    part.hist_base += 1;
                }
            }

            // Barrier-equivalent convergence: max_lag + 1 consecutive
            // fully-absorbed iterations must pass the test (for
            // max_lag = 0 this is exactly the barrier rule).
            let window = self.max_lag + 1;
            if f + 1 >= window && ((f + 1 - window)..=f).all(|j| algo.converged(self.max_delta[j]))
            {
                self.converged_at = Some(f);
                self.stopped = true;
                if let Some(obs) = self.obs.as_mut() {
                    obs.mark(MarkKind::Converged, 0, f, 0);
                }
                return;
            }
            if self.frontier >= self.max_iterations {
                self.stopped = true;
                return;
            }

            // Node-failure epoch: one deterministic verdict per node
            // per frontier advance (the epoch counts advances, so a
            // re-advance over rolled-back ground draws fresh verdicts
            // and the session cannot livelock on one fatal epoch).
            // Only nodes that host a partition (`node_of(p) = p %
            // num_nodes`, so nodes below `k`) can die: an empty node's
            // death loses nothing and must not count as a rollback.
            if self.node_plan.enabled() {
                let epoch = self.epoch;
                self.epoch += 1;
                let fired: Vec<usize> = (0..self.node_plan.num_nodes.min(self.k))
                    .filter(|&n| {
                        self.node_deaths[n] < self.node_plan.max_node_failures
                            && self.node_plan.node_fails(n, epoch)
                    })
                    .collect();
                if !fired.is_empty() {
                    for &n in &fired {
                        self.node_deaths[n] += 1;
                    }
                    self.rollbacks += fired.len();
                    self.rollback(&fired, wave);
                    return;
                }
            }

            // The frontier moved: runahead-capped partitions may go.
            for p in 0..self.k {
                self.push_launch(p, wave);
            }
        }
    }

    /// The rollback engine: rewinds everything a set of dying virtual
    /// nodes contaminated back to the last declared checkpoint `C` and
    /// relaunches it from the checkpointed states.
    ///
    /// The affected set starts with the dead nodes' resident partitions
    /// and closes transitively over the dependency topology: a
    /// partition that *absorbed* a batch whose producer is affected and
    /// whose source iteration is ≥ `C` (per its consumption log) holds
    /// contaminated state and is rewound too. Affected partitions'
    /// delivered batches ≥ `C` are revoked from consumer mailboxes
    /// (re-execution re-delivers byte-identical ones); their recorded
    /// schedule entries ≥ `C` are marked dead and their meter
    /// contributions subtracted (re-execution re-records them); their
    /// in-flight attempts are orphaned by a generation bump. Stale
    /// `max_delta` maxima are deliberately left in place: at
    /// `max_lag = 0` re-absorption reproduces them bitwise, and at
    /// `max_lag > 0` a stale maximum can only delay convergence, never
    /// fake it.
    fn rollback(&mut self, fired: &[usize], wave: &mut Wave<Launch<S, M>>) {
        let rollback_t0 = self.obs.as_ref().map(|obs| obs.recorder.now_ns());
        let c = self.ckpt.last_checkpoint();
        debug_assert!(c <= self.frontier, "checkpoints are declared at frontier advances");

        // Seed: partitions resident on a dead node.
        let mut affected = vec![false; self.k];
        let mut queue: Vec<usize> = Vec::new();
        for (p, hit) in affected.iter_mut().enumerate() {
            if fired.contains(&self.node_plan.node_of(p)) {
                *hit = true;
                queue.push(p);
            }
        }
        // Transitive closure over consumed-revoked-batch edges.
        while let Some(x) = queue.pop() {
            let out = std::mem::take(&mut self.parts[x].out_deps);
            for &q in &out {
                if affected[q] {
                    continue;
                }
                let pos =
                    self.parts[q].deps.binary_search(&x).expect("out_deps is the inverse of deps");
                let part = &self.parts[q];
                let contaminated = part.absorb_log[c.min(part.absorbed)..]
                    .iter()
                    .any(|rec| rec.selected[pos] >= c);
                if contaminated {
                    affected[q] = true;
                    queue.push(q);
                }
            }
            self.parts[x].out_deps = out;
        }

        let rewound: Vec<usize> = (0..self.k).filter(|&x| affected[x]).collect();

        // Revoke affected producers' delivered batches ≥ C from every
        // consumer (the dead node's stored outputs are gone; rewound
        // survivors will re-deliver identical ones anyway).
        let msg_size = std::mem::size_of::<M>() as u64;
        for &x in &rewound {
            let out = std::mem::take(&mut self.parts[x].out_deps);
            for &q in &out {
                let pos =
                    self.parts[q].deps.binary_search(&x).expect("out_deps is the inverse of deps");
                let mb = &mut self.parts[q].mailbox[pos];
                while let Some((&key, _)) = mb.last_key_value() {
                    if key < c {
                        break;
                    }
                    let mut batch = mb.remove(&key).expect("last key exists");
                    self.held_msg_bytes -= batch.len() as u64 * msg_size;
                    batch.clear();
                    self.batch_pool.push(batch);
                }
            }
            self.parts[x].out_deps = out;
        }

        // Rewind each affected partition to the checkpoint state,
        // unwinding its meter contributions so re-execution re-adds
        // them exactly once.
        for &x in &rewound {
            let part = &mut self.parts[x];
            if part.absorbed > c {
                self.rolled_back_iterations += part.absorbed - c;
            }
            for i in c..part.absorbed {
                self.absorbed_count[i] -= 1;
                self.iter_ops[i] -= part.absorb_log[i].ops;
            }
            for i in c..part.sched_of_iter.len() {
                let rec = &part.gmap_log[i];
                self.iter_ops[i] -= rec.ops;
                self.iter_syncs[i] -= rec.syncs;
                self.iter_gmap_time[i] = self.iter_gmap_time[i].saturating_sub(rec.elapsed);
                self.dead[part.sched_of_iter[i]] = true;
            }
            part.sched_of_iter.truncate(c);
            part.gmap_log.truncate(c);
            part.absorb_log.truncate(c);
            debug_assert!(part.hist_base <= c, "retention keeps the checkpoint state");
            while part.hist_base + part.history.len() > c + 1 {
                part.history.pop_back();
                self.held_state_bytes -= part.hist_bytes.pop_back().expect("aligned");
            }
            part.parked = None;
            part.generation += 1; // orphan anything still in flight
            part.absorbed = c;
            part.launched = c;
        }

        // Rebuild the re-executed gmap's dependency edges (normally set
        // by the absorb that enabled it; that absorb is below the
        // checkpoint and its consumption log survived). Needs
        // cross-partition reads, hence the second pass.
        for &x in &rewound {
            let dep_tasks = if c == 0 {
                Vec::new()
            } else {
                let selected = &self.parts[x].absorb_log[c - 1];
                let mut d = vec![self.parts[x].sched_of_iter[c - 1]];
                for (j, &sel) in selected.selected.iter().enumerate() {
                    let q = self.parts[x].deps[j];
                    d.push(self.parts[q].sched_of_iter[sel]);
                }
                d.sort_unstable();
                d.dedup();
                d
            };
            self.parts[x].next_dep_tasks = dep_tasks;
        }

        // Rewind the frontier to the checkpoint and relaunch the
        // affected partitions from it; unaffected partitions keep
        // their in-flight work and re-drive the frontier as deliveries
        // resume.
        self.frontier = self.frontier.min(c);
        for &x in &rewound {
            self.push_launch(x, wave);
        }
        if let Some(t0) = rollback_t0 {
            let obs = self.obs.as_ref().expect("rollback_t0 implies obs");
            let now = obs.recorder.now_ns();
            // One span per rollback event, on the scheduler lane:
            // `partition` = lowest rewound partition, `iteration` = the
            // checkpoint rewound to, `attempt` = rewound partition count.
            obs.recorder.record(
                SpanKind::Rollback,
                rewound.first().copied().unwrap_or(0),
                c,
                rewound.len() as u32,
                t0,
                Duration::from_nanos(now.saturating_sub(t0)),
            );
        }
    }

    /// Builds the outcome: final states at the result iteration, meters
    /// over contributing iterations only, and the contributing slice of
    /// the schedule (speculative tasks filtered out, indices remapped).
    fn finish(mut self, wall_time: Duration, pool: PoolMetrics) -> SessionOutcome<S> {
        let (iterations, converged) = match self.converged_at {
            Some(f) => (f + 1, true),
            None => (self.frontier, false),
        };
        let states: Vec<Arc<S>> = self
            .parts
            .iter()
            .map(|part| Arc::clone(&part.history[iterations - part.hist_base]))
            .collect();

        let mut remap = vec![usize::MAX; self.schedule.len()];
        let mut kept = Vec::with_capacity(iterations * self.k);
        let mut kept_times = Vec::new();
        for (idx, mut spec) in std::mem::take(&mut self.schedule).into_iter().enumerate() {
            // Dead entries were rolled back past a checkpoint; their
            // surviving re-execution is recorded further down the list.
            if spec.iteration < iterations && !self.dead[idx] {
                remap[idx] = kept.len();
                for d in &mut spec.deps {
                    debug_assert_ne!(remap[*d], usize::MAX, "deps precede their consumers");
                    *d = remap[*d];
                }
                if let Some(obs) = self.obs.as_ref() {
                    kept_times.push(obs.task_times[idx]);
                }
                kept.push(spec);
            }
        }

        // Drain the recorder into the report's trace: the session fills
        // in what only it knows — marks, stalls (still-open ones close
        // at the drain instant), the kept schedule's timings, and the
        // metered gmap nanoseconds the span sum must equal exactly.
        let trace = self.obs.take().map(|mut obs| {
            for p in 0..self.k {
                obs.close_stall(p);
            }
            let mut t = obs.recorder.drain();
            t.marks = obs.marks;
            t.stalls = obs.stalls;
            t.task_start_ns = kept_times.iter().map(|&(s, _)| s).collect();
            t.task_finish_ns = kept_times.iter().map(|&(_, f)| f).collect();
            t.metered_gmap_ns = (self.total_gmap_time + self.failed_time).as_nanos() as u64;
            t
        });

        let contributing_time: Duration = self.iter_gmap_time[..iterations].iter().sum();
        let report = SessionReport {
            global_iterations: iterations,
            converged,
            local_syncs: self.iter_syncs[..iterations].iter().sum(),
            total_ops: self.iter_ops[..iterations].iter().sum(),
            gmap_tasks: kept.len(),
            speculative_tasks: self.executed - kept.len(),
            speculative_time: self.total_gmap_time.saturating_sub(contributing_time),
            failed_attempts: self.failed_attempts,
            failed_attempt_time: self.failed_time,
            rollbacks: self.rollbacks,
            rolled_back_iterations: self.rolled_back_iterations,
            checkpoint_bytes: self.ckpt.checkpoint_bytes(),
            peak_state_bytes: self.peak_state_bytes,
            max_lag: self.max_lag,
            wall_time,
            pool,
            trace,
            schedule: kept,
        };
        SessionOutcome { states, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring diffusion: partition p owns one scalar; each iteration
    /// x_p ← 0.4·x_p + 0.2·(x_{p−1} + x_{p+1}) + heat_p. Coefficients
    /// sum to 0.8 < 1, so the fixpoint is a strict contraction, with a
    /// sparse (ring) dependency structure.
    struct Ring {
        k: usize,
        heat: Vec<f64>,
        tolerance: f64,
        sparse: bool,
    }

    impl Ring {
        fn new(k: usize, tolerance: f64, sparse: bool) -> Self {
            let heat = (0..k).map(|p| (p as f64 * 0.37).sin().abs() * 0.1).collect();
            Ring { k, heat, tolerance, sparse }
        }

        fn neighbors(&self, p: usize) -> Vec<usize> {
            if self.k == 1 {
                return Vec::new();
            }
            let mut v = vec![(p + self.k - 1) % self.k, (p + 1) % self.k];
            v.sort_unstable();
            v.dedup();
            v.retain(|&q| q != p);
            v
        }
    }

    impl AsyncIterative for Ring {
        type State = f64;
        type Update = f64;
        type Msg = f64;

        fn partitions(&self) -> usize {
            self.k
        }

        fn dependencies(&self, p: usize) -> Dependence {
            if self.sparse {
                Dependence::Sparse(self.neighbors(p))
            } else {
                Dependence::Full
            }
        }

        fn init_state(&self, p: usize) -> f64 {
            p as f64
        }

        fn gmap(
            &self,
            p: usize,
            _iteration: usize,
            state: &f64,
            outbox: &mut Outbox<f64>,
        ) -> GmapOutput<f64> {
            for q in self.neighbors(p) {
                outbox.push(q, 0.2 * *state);
            }
            GmapOutput {
                update: 0.4 * *state + self.heat[p],
                ops: 4,
                local_syncs: 1,
                input_bytes: 16,
                msg_records: 2,
                msg_bytes: 16,
            }
        }

        fn absorb(
            &self,
            _p: usize,
            _iteration: usize,
            state: &f64,
            update: f64,
            inbox: &[(usize, &[f64])],
        ) -> Absorbed<f64> {
            let mut x = update;
            for (_, msgs) in inbox {
                for m in *msgs {
                    x += m;
                }
            }
            Absorbed { state: x, delta: (x - *state).abs(), ops: 1 }
        }

        fn converged(&self, max_delta: f64) -> bool {
            max_delta < self.tolerance
        }
    }

    /// The barrier oracle: the same trait methods driven by a plain
    /// sequential loop with a global barrier per iteration.
    fn run_barrier(algo: &Ring, max_iterations: usize) -> (Vec<f64>, usize, bool) {
        let k = algo.partitions();
        let mut states: Vec<f64> = (0..k).map(|p| algo.init_state(p)).collect();
        for i in 0..max_iterations {
            let outs: Vec<(GmapOutput<f64>, Outbox<f64>)> = (0..k)
                .map(|p| {
                    let mut outbox = Outbox::new(k);
                    let out = algo.gmap(p, i, &states[p], &mut outbox);
                    (out, outbox)
                })
                .collect();
            let mut max_delta = 0.0f64;
            let mut next = Vec::with_capacity(k);
            for p in 0..k {
                let deps = match algo.dependencies(p) {
                    Dependence::Full => (0..k).filter(|&q| q != p).collect::<Vec<_>>(),
                    Dependence::Sparse(v) => v,
                };
                let inbox: Vec<(usize, &[f64])> =
                    deps.iter().map(|&q| (q, outs[q].1.batch(p))).collect();
                let absorbed = algo.absorb(p, i, &states[p], outs[p].0.update, &inbox);
                max_delta = max_delta.max(absorbed.delta);
                next.push(absorbed.state);
            }
            states = next;
            if algo.converged(max_delta) {
                return (states, i + 1, true);
            }
        }
        (states, max_iterations, false)
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn lag_zero_matches_the_barrier_oracle_bitwise() {
        let algo = Ring::new(9, 1e-10, true);
        let driver = AsyncFixedPointDriver::new(500);
        let outcome = driver.run(&pool(), &algo);
        let (oracle, iters, converged) = run_barrier(&algo, 500);
        assert!(converged && outcome.report.converged);
        assert_eq!(outcome.report.global_iterations, iters);
        for (p, (got, want)) in outcome.states.iter().zip(&oracle).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "partition {p}: {got} vs {want}");
        }
    }

    #[test]
    fn full_dependence_degrades_to_the_same_fixpoint_bitwise() {
        // Same arithmetic, denser dependency structure: Full must give
        // identical states (non-neighbors contribute empty batches) and
        // identical iteration counts.
        let sparse = Ring::new(7, 1e-9, true);
        let full = Ring::new(7, 1e-9, false);
        let driver = AsyncFixedPointDriver::new(500);
        let p = pool();
        let a = driver.run(&p, &sparse);
        let b = driver.run(&p, &full);
        assert_eq!(a.report.global_iterations, b.report.global_iterations);
        for (x, y) in a.states.iter().zip(&b.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bounded_staleness_reaches_the_same_fixpoint() {
        let algo = Ring::new(8, 1e-12, true);
        let exact = AsyncFixedPointDriver::new(2_000).run(&pool(), &algo);
        let stale = AsyncFixedPointDriver::new(2_000).with_max_lag(2).run(&pool(), &algo);
        assert!(exact.report.converged && stale.report.converged);
        assert_eq!(stale.report.max_lag, 2);
        for (x, y) in exact.states.iter().zip(&stale.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "lagged fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn iteration_cap_stops_an_unconverged_run() {
        let algo = Ring::new(5, 0.0, true); // tolerance 0: never converges
        let outcome = AsyncFixedPointDriver::new(13).run(&pool(), &algo);
        assert!(!outcome.report.converged);
        assert_eq!(outcome.report.global_iterations, 13);
        let (oracle, _, oracle_conv) = run_barrier(&algo, 13);
        assert!(!oracle_conv);
        for (got, want) in outcome.states.iter().zip(&oracle) {
            assert_eq!(got.to_bits(), want.to_bits(), "capped run must match the barrier cap");
        }
    }

    #[test]
    fn single_partition_session_runs() {
        let algo = Ring::new(1, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(200).run(&pool(), &algo);
        assert!(outcome.report.converged);
        assert_eq!(outcome.states.len(), 1);
    }

    #[test]
    fn schedule_is_topological_and_covers_contributing_work() {
        let algo = Ring::new(6, 1e-8, true);
        let outcome = AsyncFixedPointDriver::new(500).run(&pool(), &algo);
        let sched = &outcome.report.schedule;
        assert_eq!(sched.len(), outcome.report.global_iterations * 6);
        assert_eq!(sched.len(), outcome.report.gmap_tasks);
        for (i, t) in sched.iter().enumerate() {
            assert!(t.deps.iter().all(|&d| d < i), "task {i} has a forward dep");
            assert!(t.iteration < outcome.report.global_iterations);
            if t.iteration > 0 {
                // Own previous iteration plus two ring neighbors.
                assert_eq!(t.deps.len(), 3, "ring deps: {:?}", t.deps);
            }
        }
        // Meters accumulated over contributing iterations.
        assert_eq!(outcome.report.local_syncs, sched.len() as u64);
        assert!(outcome.report.total_ops > 0);
    }

    #[test]
    fn empty_algorithm_returns_immediately() {
        let algo = Ring::new(0, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(10).run(&pool(), &algo);
        assert!(outcome.states.is_empty());
        assert_eq!(outcome.report.global_iterations, 0);
        assert!(outcome.report.converged);
    }

    #[test]
    fn injected_transient_failures_leave_the_fixpoint_bitwise_identical() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(500).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(500)
            .with_failures(SessionFailurePlan::transient(0.3, 42))
            .run(&p, &algo);
        assert!(faulty.report.failed_attempts > 0, "0.3/attempt over this many tasks must fire");
        assert_eq!(
            clean.report.global_iterations, faulty.report.global_iterations,
            "recovery must not change the iteration count"
        );
        assert_eq!(clean.report.gmap_tasks, faulty.report.gmap_tasks);
        for (i, (x, y)) in clean.states.iter().zip(&faulty.states).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "partition {i} diverged under failures");
        }
        assert_eq!(clean.report.failed_attempts, 0);
    }

    #[test]
    fn near_certain_failures_still_terminate_via_the_attempt_budget() {
        // 0.99 per attempt: progress relies on the last-attempt-never-
        // fails rule (the simulator's rule, Hadoop's bounded budget).
        let algo = Ring::new(5, 1e-8, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(300).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(300)
            .with_failures(SessionFailurePlan::transient(0.99, 3))
            .run(&p, &algo);
        assert!(faulty.report.converged);
        // Roughly max_attempts − 1 failures per task at p = 0.99.
        assert!(
            faulty.report.failed_attempts > faulty.report.gmap_tasks,
            "expected ≈3 failures per task, got {} over {} tasks",
            faulty.report.failed_attempts,
            faulty.report.gmap_tasks
        );
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn failure_decision_is_deterministic_and_spares_the_last_attempt() {
        let plan = SessionFailurePlan::transient(0.9, 7);
        let mut fired = 0;
        for p in 0..4 {
            for i in 0..10 {
                for a in 0..plan.max_attempts {
                    assert_eq!(
                        plan.attempt_fails(p, i, a),
                        plan.attempt_fails(p, i, a),
                        "verdict must be a pure function of (seed, p, iter, attempt)"
                    );
                    if a + 1 >= plan.max_attempts {
                        assert!(!plan.attempt_fails(p, i, a), "last attempt must succeed");
                    } else if plan.attempt_fails(p, i, a) {
                        fired += 1;
                    }
                }
            }
        }
        assert!(fired > 0, "0.9/attempt must fire somewhere in 120 draws");
        assert!(!SessionFailurePlan::none().enabled());
        assert!(!SessionFailurePlan::none().attempt_fails(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn literally_constructed_out_of_range_plan_is_rejected_at_injection() {
        // The fields are `pub`, so `transient`'s range check can be
        // bypassed; `run` validates once at injection time instead.
        let plan = SessionFailurePlan { attempt_failure_prob: 1.5, max_attempts: 4, seed: 0 };
        let algo = Ring::new(3, 1e-6, true);
        let _ = AsyncFixedPointDriver::new(10).with_failures(plan).run(&pool(), &algo);
    }

    #[test]
    fn bounded_staleness_with_failures_reaches_the_same_fixpoint() {
        let algo = Ring::new(8, 1e-12, true);
        let p = pool();
        let exact = AsyncFixedPointDriver::new(2_000).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(2_000)
            .with_max_lag(2)
            .with_failures(SessionFailurePlan::transient(0.2, 11))
            .run(&p, &algo);
        assert!(exact.report.converged && faulty.report.converged);
        for (x, y) in exact.states.iter().zip(&faulty.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "stale + faulty fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn checkpoints_meter_bytes_without_changing_results() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let plain = AsyncFixedPointDriver::new(500).run(&p, &algo);
        let ckpt = AsyncFixedPointDriver::new(500)
            .with_checkpoints(CheckpointPolicy::EveryK(2))
            .run(&p, &algo);
        assert_eq!(plain.report.global_iterations, ckpt.report.global_iterations);
        for (x, y) in plain.states.iter().zip(&ckpt.states) {
            assert_eq!(x.to_bits(), y.to_bits(), "checkpointing must not touch results");
        }
        assert_eq!(plain.report.checkpoint_bytes, 0);
        assert_eq!(plain.report.rollbacks, 0);
        // Ring state is one f64: every-2 checkpoints over n iterations
        // write ~n/2 × 8 × 8 bytes.
        let iters = ckpt.report.global_iterations as u64;
        assert_eq!(ckpt.report.checkpoint_bytes, (iters / 2) * 8 * 8);
        assert!(plain.report.peak_state_bytes >= 8 * 8, "holds at least one state per partition");
        assert!(
            ckpt.report.peak_state_bytes >= plain.report.peak_state_bytes,
            "checkpoint retention cannot hold less than frontier pruning"
        );
    }

    #[test]
    fn node_failure_rollback_leaves_the_fixpoint_bitwise_identical() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(500).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(500)
            .with_checkpoints(CheckpointPolicy::EveryK(2))
            .with_node_failures(NodeFailurePlan::correlated(0.2, 3, 42))
            .run(&p, &algo);
        assert!(faulty.report.rollbacks > 0, "0.2/(node, epoch) must fire");
        assert!(
            faulty.report.rolled_back_iterations > 0,
            "a mid-interval death must undo absorbed work"
        );
        assert_eq!(
            clean.report.global_iterations, faulty.report.global_iterations,
            "rollback recovery must not change the iteration count"
        );
        assert_eq!(clean.report.gmap_tasks, faulty.report.gmap_tasks);
        assert_eq!(clean.report.local_syncs, faulty.report.local_syncs);
        assert_eq!(clean.report.total_ops, faulty.report.total_ops);
        for (i, (x, y)) in clean.states.iter().zip(&faulty.states).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "partition {i} diverged under node failures");
        }
    }

    #[test]
    fn node_failures_compose_with_transient_attempt_failures() {
        let algo = Ring::new(7, 1e-9, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(400).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(400)
            .with_failures(SessionFailurePlan::transient(0.2, 5))
            .with_checkpoints(CheckpointPolicy::EveryK(1))
            .with_node_failures(NodeFailurePlan::correlated(0.15, 2, 11))
            .run(&p, &algo);
        assert!(faulty.report.failed_attempts > 0);
        assert!(faulty.report.rollbacks > 0);
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn node_failure_rollback_under_staleness_still_converges() {
        let algo = Ring::new(8, 1e-12, true);
        let p = pool();
        let exact = AsyncFixedPointDriver::new(2_000).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(2_000)
            .with_max_lag(2)
            .with_checkpoints(CheckpointPolicy::EveryK(4))
            .with_node_failures(NodeFailurePlan::correlated(0.15, 3, 9))
            .run(&p, &algo);
        assert!(exact.report.converged && faulty.report.converged);
        for (x, y) in exact.states.iter().zip(&faulty.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "stale + node-faulty fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn near_certain_node_failures_terminate_via_the_death_budget() {
        let algo = Ring::new(6, 1e-8, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(300).run(&p, &algo);
        let plan =
            NodeFailurePlan { node_failure_prob: 0.9, num_nodes: 2, max_node_failures: 3, seed: 4 };
        let faulty = AsyncFixedPointDriver::new(300)
            .with_checkpoints(CheckpointPolicy::EveryK(1))
            .with_node_failures(plan)
            .run(&p, &algo);
        assert!(faulty.report.converged, "the per-node budget must guarantee termination");
        assert!(faulty.report.rollbacks <= 2 * 3, "budget: ≤ max_node_failures per node");
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn deaths_of_nodes_that_host_no_partition_are_not_rollbacks() {
        // Two partitions live on nodes 0 and 1; nodes 2..16 host
        // nothing. Only the two hosting nodes may die, each at most
        // `max_node_failures` times.
        let algo = Ring::new(2, 1e-8, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(300).run(&p, &algo);
        let plan = NodeFailurePlan {
            node_failure_prob: 0.9,
            num_nodes: 16,
            max_node_failures: 3,
            seed: 4,
        };
        let faulty = AsyncFixedPointDriver::new(300)
            .with_checkpoints(CheckpointPolicy::EveryK(1))
            .with_node_failures(plan)
            .run(&p, &algo);
        assert!(faulty.report.converged);
        assert!(
            faulty.report.rollbacks <= 2 * 3,
            "{} rollbacks from 2 hosting nodes with a budget of 3 each",
            faulty.report.rollbacks
        );
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "requires a checkpoint policy")]
    fn node_failures_without_checkpoints_are_rejected() {
        let algo = Ring::new(3, 1e-6, true);
        let _ = AsyncFixedPointDriver::new(10)
            .with_node_failures(NodeFailurePlan::correlated(0.1, 2, 0))
            .run(&pool(), &algo);
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn literally_constructed_node_plan_is_rejected_at_injection() {
        let plan = NodeFailurePlan { node_failure_prob: 2.0, ..NodeFailurePlan::none() };
        let algo = Ring::new(3, 1e-6, true);
        let _ = AsyncFixedPointDriver::new(10)
            .with_checkpoints(CheckpointPolicy::EveryK(1))
            .with_node_failures(plan)
            .run(&pool(), &algo);
    }

    #[test]
    fn wasted_work_accounting_splits_failed_from_speculative() {
        let algo = Ring::new(6, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(400)
            .with_failures(SessionFailurePlan::transient(0.4, 9))
            .run(&pool(), &algo);
        assert!(outcome.report.failed_attempts > 0);
        // Failed attempts are not speculative tasks and vice versa:
        // contributing + speculative tasks account for every success.
        assert_eq!(
            outcome.report.gmap_tasks,
            outcome.report.global_iterations * 6,
            "every contributing (p, iter) executes exactly once"
        );
    }

    #[test]
    fn outbox_recycle_clears_only_touched_slots() {
        let mut outbox: Outbox<u32> = Outbox::new(4);
        outbox.push(1, 10);
        outbox.push(1, 11);
        outbox.push(3, 30);
        assert_eq!(outbox.batch(1), &[10, 11]);
        assert_eq!(outbox.batch(3), &[30]);
        assert!(outbox.batch(0).is_empty() && outbox.batch(2).is_empty());
        outbox.recycle();
        for d in 0..4 {
            assert!(outbox.batch(d).is_empty(), "slot {d} survived recycling");
        }
        // Reuse after recycling records fresh touches.
        outbox.push(0, 1);
        assert_eq!(outbox.batch(0), &[1]);
    }
}
