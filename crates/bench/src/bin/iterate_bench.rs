//! Barrier vs. asynchronous *driver* wall-clock on the iterative graph
//! workloads.
//!
//! `pipeline_bench` measures what deleting the *intra-job* stage
//! barriers buys; this bench measures the next layer up — deleting the
//! **global synchronization between iterations** (the paper's headline
//! cost, §IV):
//!
//! * **barrier** — [`asyncmr_core::FixedPointDriver`] + the staged
//!   engine: one MapReduce job per global iteration; every iteration
//!   re-runs the full shuffle machinery (hash-routing, bucket
//!   transposition, sort-based grouping) and iteration *i+1* waits for
//!   the slowest partition of iteration *i*;
//! * **async (lag 0)** — [`asyncmr_core::AsyncFixedPointDriver`]: one
//!   long-lived multiwave scope across all global iterations; a
//!   partition's next gmap starts the moment the outputs it depends on
//!   (its cross-edge sources) have arrived, and boundary messages are
//!   delivered straight to their owner's mailbox — no global barrier,
//!   no per-iteration shuffle. Results are **byte-identical** to the
//!   barrier driver — gated below before any timing;
//! * **async (lag 1)** — additionally admits one iteration of
//!   staleness. In-process this buys nothing (it trades extra
//!   iterations for slack the single host does not need) and is
//!   reported for honesty; its payoff regime is a cluster with
//!   stragglers.
//!
//! The headline rows run **barrier-bound** workloads: full-cut (hash)
//! partitionings where the cross-partition exchange dominates
//! per-iteration compute — the regime the paper attributes global
//! synchronization cost to. A locality-partitioned PageRank row shows
//! the compute-dominated end for honesty. The recorded cross-iteration
//! schedule is also replayed on the simulated 2010 EC2/Hadoop cluster
//! ([`Simulation::run_async_schedule`]) against the barrier driver's
//! per-iteration job replay, where per-job setup dominates and the gap
//! is far larger.
//!
//! A **failure-probability sweep** (paper §VI) rides along: the same
//! headline PageRank workload re-run under injected transient failures
//! (`SessionFailurePlan` in-process, the matching `FailurePlan` on the
//! simulated replay, identity-gated bitwise against the failure-free
//! fixed point), reporting the *wasted gmap-seconds* — discarded
//! speculative work plus failed-attempt time — and the simulated
//! recovery cost of async vs. barrier under the same regime.
//!
//! Emits machine-readable `BENCH_iterate.json` (working directory) and
//! prints a table. Wall-clock varies with the host; the speedup *ratio*
//! is the tracked quantity.
//!
//! `iterate_bench --trace [--nodes N] [--dir PATH]` instead runs the
//! in-process span recorder's acceptance gates (bitwise identity of a
//! traced lag-0 run, ≤ 5% recording overhead, exact span/meter
//! conservation) and writes the unified trace report of a live session
//! — `report.html` + `BENCH_trace.json` (Chrome trace) — alongside a
//! live-vs-simulated critical-path comparison of the same recorded
//! schedule.

use std::time::{Duration, Instant};

use asyncmr_apps::pagerank::{self, PageRankConfig};
use asyncmr_apps::sssp::{self, SsspConfig};
use asyncmr_core::{
    AsyncFixedPointDriver, CheckpointPolicy, Engine, GroupingStrategy, NodeFailurePlan,
    SessionFailurePlan,
};
use asyncmr_graph::{generators, CsrGraph, WeightedGraph};
use asyncmr_partition::{
    apply_locality_order, HashPartitioner, MultilevelKWay, Partitioner, Partitioning,
    RangePartitioner,
};
use asyncmr_runtime::ThreadPool;
use asyncmr_simcluster::{
    ClusterSpec, Constant, FailurePlan, NodeFailurePlan as SimNodeFailurePlan, ReportModel,
    RunRecord, SharedBandwidth, Simulation, TraceReader,
};

const REPS: usize = 5;

struct AppReport {
    name: &'static str,
    iterations: usize,
    partitions: usize,
    edges: usize,
    cut_percent: f64,
    fixpoint_diff_lag0: f64,
    fixpoint_diff_lag1: f64,
    barrier: Duration,
    async_lag0: Duration,
    async_lag1: Duration,
    barrier_sim_secs: f64,
    async_sim_secs: f64,
    speculative_tasks: usize,
    /// Wasted gmap-seconds: wall-clock of discarded speculative work
    /// (failure-free rows have no failed attempts to add).
    wasted_gmap_secs: f64,
}

/// One row of the §VI failure sweep: the headline async workload under
/// injected transient failures, in-process and on the simulated
/// cluster.
struct FailureRow {
    app: &'static str,
    prob: f64,
    /// In-process injected attempts that died (and were re-executed).
    failed_attempts: usize,
    /// In-process wasted gmap-seconds: failed-attempt time plus
    /// discarded speculative time.
    wasted_gmap_secs: f64,
    /// Simulated replay of the same schedule, failure-free.
    sim_clean_secs: f64,
    /// Simulated replay under the failure regime.
    sim_faulty_secs: f64,
    /// Dead attempts in the simulated replay.
    sim_failed_attempts: usize,
    /// Serialized recovery time metered by the replay.
    sim_recovery_secs: f64,
    /// The barrier job sequence under the *same* failure regime.
    barrier_sim_faulty_secs: f64,
}

impl FailureRow {
    /// Total simulated slowdown of the faulty replay vs. the clean
    /// replay of the same schedule (includes everything failures
    /// perturb — the *recovery-attributable* serialized cost is
    /// `sim_recovery_secs`).
    fn sim_slowdown(&self) -> f64 {
        self.sim_faulty_secs / self.sim_clean_secs
    }
    /// How much faster async completes than barrier under failures.
    fn faulty_speedup(&self) -> f64 {
        self.barrier_sim_faulty_secs / self.sim_faulty_secs
    }
}

impl AppReport {
    fn speedup(&self) -> f64 {
        self.barrier.as_secs_f64() / self.async_lag0.as_secs_f64()
    }
    fn speedup_lag1(&self) -> f64 {
        self.barrier.as_secs_f64() / self.async_lag1.as_secs_f64()
    }
    fn sim_speedup(&self) -> f64 {
        self.barrier_sim_secs / self.async_sim_secs
    }
    /// Edge relaxations per second of wall-clock: the workload's edge
    /// count times its global iteration count (each global iteration
    /// touches every edge at least once), over the measured median.
    /// Comparable across drivers because the iteration counts are
    /// identity-gated equal at lag 0.
    fn barrier_edges_per_sec(&self) -> f64 {
        (self.edges * self.iterations) as f64 / self.barrier.as_secs_f64()
    }
    fn async_edges_per_sec(&self) -> f64 {
        (self.edges * self.iterations) as f64 / self.async_lag0.as_secs_f64()
    }
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn inf_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| if x.is_infinite() && y.is_infinite() { 0.0 } else { (x - y).abs() })
        .fold(0.0f64, f64::max)
}

/// Times barrier vs async for one workload. `run_barrier` /
/// `run_async` return `(values, iterations, sim_secs?, schedule?)`.
#[allow(clippy::too_many_arguments)]
fn bench_app(
    name: &'static str,
    pool: &ThreadPool,
    partitions: usize,
    edges: usize,
    cut_percent: f64,
    mut run_barrier: impl FnMut(&mut Engine<'_>) -> (Vec<f64>, usize, Option<f64>),
    mut run_async: impl FnMut(usize) -> (Vec<f64>, asyncmr_core::SessionReport),
    lag1_tolerance: f64,
) -> AppReport {
    // ---- Identity gate (before any timing) ----
    let (barrier_vals, barrier_iters, _) = run_barrier(&mut Engine::in_process(pool));
    let (lag0_vals, lag0_report) = run_async(0);
    let (lag1_vals, _) = run_async(1);
    assert_eq!(lag0_report.global_iterations, barrier_iters, "{name}: lag-0 iterations diverged");
    let diff0 = inf_diff(&lag0_vals, &barrier_vals);
    let diff1 = inf_diff(&lag1_vals, &barrier_vals);
    // The lag-0 gate is *bitwise*, matching the documented contract
    // (tolerance-level agreement would let low-order reduction-order
    // drift through a bench that advertises byte identity).
    for (v, (a, b)) in lag0_vals.iter().zip(&barrier_vals).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
            "{name}: lag-0 value {v} not bitwise identical ({a} vs {b})"
        );
    }
    assert!(diff1 < lag1_tolerance, "{name}: lag-1 fixed point diverged by {diff1}");

    // ---- Simulated replay: per-iteration jobs vs one async session ----
    let sim = Simulation::new(ClusterSpec::ec2_2010(), 7);
    let (_, _, barrier_sim) = run_barrier(&mut Engine::with_simulation(pool, sim));
    let barrier_sim_secs = barrier_sim.expect("simulated run");
    let mut replay = Simulation::new(ClusterSpec::ec2_2010(), 7);
    let async_sim_secs = replay.run_async_schedule(&lag0_report.schedule).duration.as_secs_f64();

    // ---- Timing (interleaved reps, median) ----
    let mut barrier_times = Vec::with_capacity(REPS);
    let mut lag0_times = Vec::with_capacity(REPS);
    let mut lag1_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let _ = run_barrier(&mut Engine::in_process(pool));
        barrier_times.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = run_async(0);
        lag0_times.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = run_async(1);
        lag1_times.push(t0.elapsed());
    }
    AppReport {
        name,
        iterations: barrier_iters,
        partitions,
        edges,
        cut_percent,
        fixpoint_diff_lag0: diff0,
        fixpoint_diff_lag1: diff1,
        barrier: median(barrier_times),
        async_lag0: median(lag0_times),
        async_lag1: median(lag1_times),
        barrier_sim_secs,
        async_sim_secs,
        speculative_tasks: lag0_report.speculative_tasks,
        wasted_gmap_secs: lag0_report.speculative_time.as_secs_f64()
            + lag0_report.failed_attempt_time.as_secs_f64(),
    }
}

/// The §VI failure sweep on the headline (barrier-bound, full-cut)
/// PageRank workload: in-process chaos identity-gated bitwise, then the
/// same failure regime replayed on the simulated cluster for both the
/// async schedule and the barrier job sequence.
fn failure_sweep(pool: &ThreadPool) -> Vec<FailureRow> {
    let g = crawl_graph(1_500, 11);
    let parts = HashPartitioner.partition(&g, 16);
    let cfg = PageRankConfig::default();

    let clean = pagerank::run_async(pool, &g, &parts, &cfg, 0);
    let sim_clean_secs = Simulation::new(ClusterSpec::ec2_2010(), 7)
        .run_async_schedule(&clean.report.schedule)
        .duration
        .as_secs_f64();

    [0.05f64, 0.2]
        .into_iter()
        .map(|prob| {
            // ---- In-process: recovery must be invisible in the result ----
            let faulty = pagerank::run_async_with_driver(
                pool,
                &g,
                &parts,
                &cfg,
                AsyncFixedPointDriver::new(cfg.max_iterations)
                    .with_failures(SessionFailurePlan::transient(prob, 0xC4A05)),
            );
            assert!(faulty.report.failed_attempts > 0, "p = {prob}: injection must fire");
            assert_eq!(
                faulty.report.global_iterations, clean.report.global_iterations,
                "p = {prob}: iteration count diverged under failures"
            );
            for (v, (a, b)) in faulty.ranks.iter().zip(&clean.ranks).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "p = {prob}: rank {v} not bitwise identical under failures ({a} vs {b})"
                );
            }

            // ---- Simulated: same regime on both execution styles ----
            // Replay the SAME recorded schedule the clean figure used:
            // contributing schedules are recorded in (nondeterministic)
            // completion order, and the greedy placement is sensitive
            // to that order among same-iteration tasks — comparing two
            // different recordings would mix schedule-order noise into
            // the failure slowdown.
            let replay = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_failures(FailurePlan::transient(prob))
                .run_async_schedule(&clean.report.schedule);
            let sim = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_failures(FailurePlan::transient(prob));
            let barrier =
                pagerank::run_eager(&mut Engine::with_simulation(pool, sim), &g, &parts, &cfg);

            FailureRow {
                app: "pagerank",
                prob,
                failed_attempts: faulty.report.failed_attempts,
                wasted_gmap_secs: faulty.report.failed_attempt_time.as_secs_f64()
                    + faulty.report.speculative_time.as_secs_f64(),
                sim_clean_secs,
                sim_faulty_secs: replay.duration.as_secs_f64(),
                sim_failed_attempts: replay.failed_attempts,
                sim_recovery_secs: replay.recovery_time.as_secs_f64(),
                barrier_sim_faulty_secs: barrier
                    .report
                    .sim_time
                    .expect("simulated run")
                    .as_secs_f64(),
            }
        })
        .collect()
}

/// One cell of the checkpoint-interval × node-failure-probability
/// sweep: the headline async PageRank workload under correlated node
/// deaths with checkpoint/rollback recovery, in-process (identity-gated
/// bitwise) and on the simulated cluster.
struct NodeFailureRow {
    app: &'static str,
    prob: f64,
    checkpoint_interval: usize,
    /// In-process node-failure events (each triggered a rollback).
    rollbacks: usize,
    /// Absorbed iterations undone and re-executed in-process.
    rolled_back_iterations: usize,
    /// Bytes a durable checkpoint store would have written.
    checkpoint_bytes: u64,
    /// High-water mark of history + mailbox bytes held (the cost of
    /// retaining rollback history at this interval).
    peak_state_bytes: u64,
    /// Simulated replay of the same schedule, failure-free.
    sim_clean_secs: f64,
    /// Simulated replay under the node-death regime.
    sim_faulty_secs: f64,
    /// Node deaths in the simulated replay.
    sim_node_failures: usize,
    /// Serialized rollback cost metered by the replay (lost task
    /// durations + detection delays).
    sim_rollback_secs: f64,
}

impl NodeFailureRow {
    fn sim_slowdown(&self) -> f64 {
        self.sim_faulty_secs / self.sim_clean_secs
    }
}

/// The checkpoint-interval × node-failure-probability sweep on the
/// headline PageRank workload. In-process runs are identity-gated
/// bitwise against the failure-free fixed point before anything is
/// reported; simulated replays are run twice and asserted
/// byte-identical (the determinism contract).
fn node_failure_sweep(pool: &ThreadPool) -> Vec<NodeFailureRow> {
    let g = crawl_graph(1_500, 11);
    let parts = HashPartitioner.partition(&g, 16);
    let cfg = PageRankConfig::default();
    let clean = pagerank::run_async(pool, &g, &parts, &cfg, 0);
    let sim_clean_secs = Simulation::new(ClusterSpec::ec2_2010(), 7)
        .run_async_schedule(&clean.report.schedule)
        .duration
        .as_secs_f64();

    let mut rows = Vec::new();
    for k in [1usize, 4] {
        for prob in [0.05f64, 0.2] {
            // ---- In-process: rollback recovery must be invisible ----
            let faulty = pagerank::run_async_with_driver(
                pool,
                &g,
                &parts,
                &cfg,
                AsyncFixedPointDriver::new(cfg.max_iterations)
                    .with_checkpoints(CheckpointPolicy::EveryK(k))
                    .with_node_failures(NodeFailurePlan::correlated(prob, 8, 0xC4A05)),
            );
            assert!(
                faulty.report.rollbacks > 0,
                "k = {k}, p = {prob}: node-failure injection must fire"
            );
            assert_eq!(
                faulty.report.global_iterations, clean.report.global_iterations,
                "k = {k}, p = {prob}: iteration count diverged under node failures"
            );
            for (v, (a, b)) in faulty.ranks.iter().zip(&clean.ranks).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "k = {k}, p = {prob}: rank {v} not bitwise identical after rollback ({a} vs {b})"
                );
            }

            // ---- Simulated: same regime on the recorded schedule ----
            let sim_plan = SimNodeFailurePlan::correlated(prob, k, 0xC4A05);
            let replay = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_node_failures(sim_plan.clone())
                .run_async_schedule(&clean.report.schedule);
            let again = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_node_failures(sim_plan)
                .run_async_schedule(&clean.report.schedule);
            assert_eq!(
                replay, again,
                "k = {k}, p = {prob}: node-death replay must be deterministic"
            );

            rows.push(NodeFailureRow {
                app: "pagerank",
                prob,
                checkpoint_interval: k,
                rollbacks: faulty.report.rollbacks,
                rolled_back_iterations: faulty.report.rolled_back_iterations,
                checkpoint_bytes: faulty.report.checkpoint_bytes,
                peak_state_bytes: faulty.report.peak_state_bytes,
                sim_clean_secs,
                sim_faulty_secs: replay.duration.as_secs_f64(),
                sim_node_failures: replay.node_failures,
                sim_rollback_secs: replay.rollback_time.as_secs_f64(),
            });
        }
    }
    rows
}

fn crawl_graph(n: usize, seed: u64) -> CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 2, 1, 0.95, 40, seed)
}

/// One cell of the scheduler sweep: a placement policy priced on a
/// straggler regime.
struct SchedRow {
    regime: &'static str,
    scheduler: &'static str,
    makespan_secs: f64,
    /// Commits the estimate-then-commit invariant metered as delayed
    /// past their estimate (the greedy-admission gap under contention).
    commit_overruns: usize,
    commit_overrun_secs: f64,
}

/// The `--sched` sweep: every placement policy on a heterogeneous-node
/// straggler regime (half the cluster at quarter speed — the
/// [`ClusterSpec::with_slow_nodes`] knob), on the uncontended default
/// network and again under fair-share NIC contention. The DAG is the
/// ring-exchange shape the scheduler unit tests pin (each task feeds
/// its own next iteration plus both neighbors), sized so the critical
/// path through slow nodes dominates a start-time-greedy placement.
///
/// Emits `BENCH_sched.json` and asserts its acceptance criterion
/// before reporting: HEFT must beat the greedy list scheduler by ≥ 10%
/// simulated makespan on the straggler regime. Every cell must also
/// finish without a time underflow.
fn scheduler_sweep() -> (Vec<SchedRow>, SchedTrace) {
    use asyncmr_simcluster::workloads::ring_exchange;
    use asyncmr_simcluster::SchedulerSpec;

    let tasks = ring_exchange(8, 8, 40_000_000);
    let scheds = [SchedulerSpec::List, SchedulerSpec::Heft];

    let mut rows = Vec::new();
    for regime in ["straggler", "straggler-shared-net"] {
        for sched in &scheds {
            let spec = ClusterSpec::ec2_2010().with_slow_nodes(4, 0.25);
            let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
            let mut sim = Simulation::new(spec, 7).with_scheduler(sched.clone());
            if regime == "straggler-shared-net" {
                sim = sim.with_network(SharedBandwidth::new(n, bw, lat));
            }
            let stats = sim.run_async_schedule(&tasks);
            assert_eq!(
                stats.commit.time_underflows, 0,
                "{regime}/{}: a simulated time subtraction underflowed",
                stats.scheduler
            );
            rows.push(SchedRow {
                regime,
                scheduler: stats.scheduler,
                makespan_secs: stats.duration.as_secs_f64(),
                commit_overruns: stats.commit.overruns,
                commit_overrun_secs: stats.commit.overrun_time.as_secs_f64(),
            });
        }
    }

    // Acceptance gate: on the headline straggler regime, HEFT's
    // finish-aware placement must beat the greedy list scheduler by >= 10%.
    let cell = |s: &str| {
        rows.iter()
            .find(|r| r.regime == "straggler" && r.scheduler == s)
            .map(|r| r.makespan_secs)
            .expect("sweep covers every scheduler")
    };
    assert!(
        cell("heft") <= cell("list") * 0.9,
        "HEFT ({:.1}s) must beat greedy ({:.1}s) by >= 10% under stragglers",
        cell("heft"),
        cell("list")
    );

    // Trace analysis of the headline pair: re-run list and heft on the
    // straggler regime keeping both simulations (and their recorded
    // traces) alive, then diff. The diff must *name* the gap: one
    // critical-path component (and the slower run's task chain) has to
    // account for at least half of the list-vs-heft makespan delta, or
    // the analysis layer is not explaining the number BENCH_sched.json
    // headlines.
    let run = |sched: SchedulerSpec| {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010().with_slow_nodes(4, 0.25), 7)
            .with_scheduler(sched);
        let stats = sim.run_async_schedule(&tasks);
        (sim, stats)
    };
    let (list_sim, list_stats) = run(SchedulerSpec::List);
    let (heft_sim, heft_stats) = run(SchedulerSpec::Heft);
    let nodes = list_sim.spec().num_nodes();
    let rec_list = asyncmr_simcluster::RunRecord {
        tasks: &tasks,
        stats: &list_stats,
        trace: list_sim.last_trace(),
        nodes,
    };
    let rec_heft = asyncmr_simcluster::RunRecord {
        tasks: &tasks,
        stats: &heft_stats,
        trace: heft_sim.last_trace(),
        nodes,
    };
    let diff = asyncmr_simcluster::diff_runs(&rec_list, &rec_heft);
    assert!(
        diff.dominant_share >= 0.5 && !diff.slower_chain.is_empty(),
        "the trace diff must name a component and chain covering >= 50% of the \
         list-vs-heft gap (got {} at {:.0}%)",
        diff.dominant,
        diff.dominant_share * 100.0,
    );
    let trace = SchedTrace {
        list: list_sim.analyze_async_run(&tasks, &list_stats),
        heft: heft_sim.analyze_async_run(&tasks, &heft_stats),
        diff,
    };
    (rows, trace)
}

/// The `--sched` sweep's trace-analysis section: where the simulated
/// time went under the two headline schedulers, and the diff naming the
/// component responsible for the gap between them.
struct SchedTrace {
    list: asyncmr_simcluster::TraceAnalysis,
    heft: asyncmr_simcluster::TraceAnalysis,
    diff: asyncmr_simcluster::TraceDiff,
}

/// Prints the scheduler sweep and writes `BENCH_sched.json` plus the
/// CSV trace artifacts (`BENCH_sched_critical_path.csv`,
/// `BENCH_sched_timelines.csv`).
fn report_scheduler_sweep(rows: &[SchedRow], trace: &SchedTrace) {
    println!("scheduler sweep (8-node cluster, 4 nodes at 0.25x speed, ring exchange 8x8)");
    println!(
        "  {:<22} {:<10} {:>13} {:>10} {:>12}",
        "regime", "scheduler", "makespan (s)", "overruns", "overrun (s)"
    );
    let list_of = |regime: &str| {
        rows.iter()
            .find(|r| r.regime == regime && r.scheduler == "list")
            .map(|r| r.makespan_secs)
            .unwrap_or(f64::NAN)
    };
    for r in rows {
        println!(
            "  {:<22} {:<10} {:>13.1} {:>10} {:>12.1}   ({:.2}x vs list)",
            r.regime,
            r.scheduler,
            r.makespan_secs,
            r.commit_overruns,
            r.commit_overrun_secs,
            list_of(r.regime) / r.makespan_secs,
        );
    }

    let mut cells = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            cells.push_str(",\n");
        }
        cells.push_str(&format!(
            "    {{\n      \"regime\": \"{}\",\n      \"scheduler\": \"{}\",\n      \"makespan_secs\": {:.3},\n      \"speedup_vs_list\": {:.3},\n      \"commit_overruns\": {},\n      \"commit_overrun_secs\": {:.3}\n    }}",
            r.regime,
            r.scheduler,
            r.makespan_secs,
            list_of(r.regime) / r.makespan_secs,
            r.commit_overruns,
            r.commit_overrun_secs,
        ));
    }
    print!("{}", trace.diff.to_text());

    let trace_json = format!(
        "{{\n    \"list\": {},\n    \"heft\": {},\n    \"diff\": {}\n  }}",
        trace.list.to_json(),
        trace.heft.to_json(),
        trace.diff.to_json(),
    );
    let json = format!(
        "{{\n  \"bench\": \"scheduler_makespan_sweep\",\n  \"config\": {{\n    \"cluster\": \"ec2_2010, 4 of 8 nodes at 0.25x speed\",\n    \"workload\": \"ring exchange, 8 partitions x 8 iterations, 40M ops/task, 16 MiB inputs\",\n    \"schedulers\": [\"list (greedy default)\", \"heft (upward-rank critical path)\"],\n    \"gate\": \"HEFT must beat list by >= 10% makespan on the straggler regime; the trace diff must attribute >= 50% of the list-vs-heft gap to one critical-path component (both asserted before reporting)\"\n  }},\n  \"sweep\": [\n{cells}\n  ],\n  \"trace_analysis\": {trace_json}\n}}\n",
    );
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");

    // CSV renderings for plotting: critical-path hops and link
    // timelines of both headline runs, tagged by scheduler.
    let tag_csv = |analysis: &asyncmr_simcluster::TraceAnalysis, csv: String| -> String {
        csv.lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    format!("scheduler,{l}\n")
                } else {
                    format!("{},{l}\n", analysis.scheduler)
                }
            })
            .collect()
    };
    let mut cp_csv = tag_csv(&trace.list, trace.list.critical_path_csv());
    cp_csv.extend(
        tag_csv(&trace.heft, trace.heft.critical_path_csv())
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n")),
    );
    std::fs::write("BENCH_sched_critical_path.csv", &cp_csv)
        .expect("write BENCH_sched_critical_path.csv");
    let mut tl_csv = tag_csv(&trace.list, trace.list.to_csv());
    tl_csv.extend(
        tag_csv(&trace.heft, trace.heft.to_csv()).lines().skip(1).map(|l| format!("{l}\n")),
    );
    std::fs::write("BENCH_sched_timelines.csv", &tl_csv).expect("write BENCH_sched_timelines.csv");
    println!("wrote BENCH_sched.json, BENCH_sched_critical_path.csv, BENCH_sched_timelines.csv");
}

/// The network-model contention probe: the same recorded PageRank
/// workload priced under the uncontended [`Constant`] model vs
/// fair-share [`SharedBandwidth`], on **both** execution styles. The
/// unified event core routes barrier shuffle/DFS traffic and async
/// message edges through one pluggable model, so shuffle contention now
/// lengthens both paths — this row reports by how much.
struct ContentionRow {
    barrier_constant_secs: f64,
    barrier_shared_secs: f64,
    async_constant_secs: f64,
    async_shared_secs: f64,
}

impl ContentionRow {
    fn barrier_slowdown(&self) -> f64 {
        self.barrier_shared_secs / self.barrier_constant_secs
    }
    fn async_slowdown(&self) -> f64 {
        self.async_shared_secs / self.async_constant_secs
    }
}

fn contention_probe() -> ContentionRow {
    // The in-process bench graphs are miniatures — their recorded
    // schedules move too few bytes for NIC contention to register. The
    // probe instead prices a paper-scale full-cut PageRank shape
    // (48 MiB splits, 24 MiB of messages per task broadcast to every
    // partition — the barrier-bound regime the headline rows model) on
    // both styles.
    use asyncmr_simcluster::{AsyncTaskSpec, JobSpec, MapTaskSpec, ReduceTaskSpec};
    let (parts, iters) = (16usize, 10usize);
    let job = JobSpec::named("contention-probe")
        .with_maps(vec![MapTaskSpec::new(48 << 20, 30_000_000, 24 << 20); parts])
        .with_reduces(vec![ReduceTaskSpec::new(2_000_000, 24 << 20); 8]);
    let mut schedule = Vec::with_capacity(parts * iters);
    for i in 0..iters {
        for p in 0..parts {
            let mut t = AsyncTaskSpec::new(p, i, 48 << 20, 30_000_000)
                .with_output((24 << 20) / 64, 24 << 20);
            if i > 0 {
                let base = (i - 1) * parts;
                t = t.with_deps((0..parts).map(|d| base + d).collect());
            }
            schedule.push(t);
        }
    }

    let spec = ClusterSpec::ec2_2010();
    let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
    let constant_sim =
        || Simulation::new(ClusterSpec::ec2_2010(), 7).with_network(Constant::new(n, bw, lat));
    let shared_sim = || {
        Simulation::new(ClusterSpec::ec2_2010(), 7).with_network(SharedBandwidth::new(n, bw, lat))
    };

    let barrier_secs = |mut sim: Simulation| {
        (0..iters).map(|_| sim.run_job(&job).duration.as_secs_f64()).sum::<f64>()
    };
    let row = ContentionRow {
        barrier_constant_secs: barrier_secs(constant_sim()),
        barrier_shared_secs: barrier_secs(shared_sim()),
        async_constant_secs: constant_sim().run_async_schedule(&schedule).duration.as_secs_f64(),
        async_shared_secs: shared_sim().run_async_schedule(&schedule).duration.as_secs_f64(),
    };
    // The acceptance property the replay-fidelity suite pins, re-checked
    // on the bench workload before it is reported.
    assert!(
        row.barrier_slowdown() > 1.0 && row.async_slowdown() > 1.0,
        "shuffle contention must lengthen both paths: barrier {:.3}x, async {:.3}x",
        row.barrier_slowdown(),
        row.async_slowdown()
    );
    row
}

fn pagerank_case(
    name: &'static str,
    pool: &ThreadPool,
    g: &CsrGraph,
    parts: &Partitioning,
    k: usize,
) -> AppReport {
    let cfg = PageRankConfig::default();
    let cut = parts.cut_fraction(g) * 100.0;
    bench_app(
        name,
        pool,
        k,
        g.num_edges(),
        cut,
        |engine| {
            let out = pagerank::run_eager(engine, g, parts, &cfg);
            let sim = out.report.sim_time.map(|t| t.as_secs_f64());
            (out.ranks, out.report.global_iterations, sim)
        },
        |lag| {
            let out = pagerank::run_async(pool, g, parts, &cfg, lag);
            (out.ranks, out.report)
        },
        // One iteration of staleness perturbs the stopping point by at
        // most ~tol/(1−χ); bound it loosely.
        1e-3,
    )
}

/// The `--trace` mode: the in-process span recorder's acceptance gates
/// plus the unified report artifacts on a **live** session.
///
/// Runs kernel_bench's PageRank workload (crawl-locality streamed
/// graph, range partitions + locality reorder, radix grouping — the
/// overhead-contract config) four ways:
///
/// 1. bitwise identity — a traced lag-0 run must reproduce the
///    untraced run's ranks and iteration count exactly (recording
///    never touches scheduling);
/// 2. overhead — interleaved traced/untraced reps; the documented
///    target is ≤ 5% median overhead (asserted here with headroom for
///    shared-runner noise);
/// 3. conservation — the trace's summed gmap span nanoseconds must
///    equal the session's metered gmap time *exactly* (one
///    measurement feeds both);
/// 4. artifacts — `report.html` + `BENCH_trace.json` (Chrome
///    trace/Perfetto) under `--dir`, and a live-vs-simulated
///    critical-path comparison of the same recorded schedule.
fn trace_report(pool: &ThreadPool, n: usize, dir: &str) {
    let g = generators::preferential_attachment_streamed(n, 5, 0.95, 1024, 42);
    let k = (n / 15_000).clamp(4, 64);
    let parts = RangePartitioner.partition(&g, k);
    let (g, parts, _perm) = apply_locality_order(&g, &parts);
    let cfg = PageRankConfig { grouping: GroupingStrategy::Radix, ..PageRankConfig::default() };
    let driver = AsyncFixedPointDriver::new(cfg.max_iterations);
    println!(
        "trace mode: pagerank, {n} vertices / {} edges, {k} partitions, {} threads",
        g.num_edges(),
        pool.num_threads()
    );

    // ---- Gate 1: traced lag-0 == untraced lag-0, bitwise ----
    let untraced = pagerank::run_async_with_driver(pool, &g, &parts, &cfg, driver);
    let traced = pagerank::run_async_with_driver(pool, &g, &parts, &cfg, driver.with_trace());
    assert_eq!(
        traced.report.global_iterations, untraced.report.global_iterations,
        "tracing must not change the iteration count"
    );
    for (v, (a, b)) in traced.ranks.iter().zip(&untraced.ranks).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "rank {v} not bitwise identical under tracing ({a} vs {b})"
        );
    }

    // ---- Gate 2: recording overhead (interleaved reps, median) ----
    let mut untraced_times = Vec::with_capacity(REPS);
    let mut traced_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let _ = pagerank::run_async_with_driver(pool, &g, &parts, &cfg, driver);
        untraced_times.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = pagerank::run_async_with_driver(pool, &g, &parts, &cfg, driver.with_trace());
        traced_times.push(t0.elapsed());
    }
    let (un, tr) = (median(untraced_times), median(traced_times));
    let overhead = tr.as_secs_f64() / un.as_secs_f64();
    println!(
        "overhead: untraced {:.2} ms, traced {:.2} ms = {:.1}% (target <= 5%)",
        un.as_secs_f64() * 1e3,
        tr.as_secs_f64() * 1e3,
        (overhead - 1.0) * 100.0
    );
    // The contract is 5%; the assert leaves headroom for noisy shared
    // runners so CI failures mean a real regression, not scheduling
    // jitter on a loaded host.
    assert!(
        overhead <= 1.10,
        "traced run is {:.1}% slower than untraced — recording overhead regressed",
        (overhead - 1.0) * 100.0
    );

    // ---- Gate 3: exact span/meter conservation ----
    let trace = traced.report.trace.as_ref().expect("traced run records a trace");
    assert_eq!(
        trace.gmap_span_ns(),
        trace.metered_gmap_ns,
        "summed gmap span nanoseconds must equal the metered gmap time exactly"
    );

    // ---- Artifacts: unified renderer on the live session ----
    let title = format!("live pagerank session ({n} vertices, {k} partitions)");
    let model = ReportModel::from_session(trace, &traced.report.schedule, &title);
    std::fs::create_dir_all(dir).expect("create report dir");
    let html_path = format!("{dir}/report.html");
    let json_path = format!("{dir}/BENCH_trace.json");
    std::fs::write(&html_path, model.html()).expect("write report.html");
    std::fs::write(&json_path, model.chrome_trace_json()).expect("write BENCH_trace.json");

    // ---- Live vs simulated critical path of the same schedule ----
    let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 7);
    let stats = sim.run_async_schedule(&traced.report.schedule);
    let rec = RunRecord {
        tasks: &traced.report.schedule,
        stats: &stats,
        trace: sim.last_trace(),
        nodes: sim.spec().num_nodes(),
    };
    let sim_cp = TraceReader::new(rec).critical_path();
    let live_cp = &model.critical_path;
    let share = |part: asyncmr_simcluster::SimTime, cp: &asyncmr_simcluster::CriticalPath| {
        100.0 * part.as_secs_f64() / cp.total().as_secs_f64().max(f64::MIN_POSITIVE)
    };
    println!("critical path, live session vs simulated replay of the same schedule:");
    println!(
        "  live:      {} hops, compute {:.0}% / queue {:.0}% / overhead {:.0}% of {:?}",
        live_cp.hops.len(),
        share(live_cp.compute, live_cp),
        share(live_cp.queue, live_cp),
        share(live_cp.overhead, live_cp),
        live_cp.total()
    );
    println!(
        "  simulated: {} hops, compute {:.0}% / wire {:.0}% / queue {:.0}% of {:?}",
        sim_cp.hops.len(),
        share(sim_cp.compute, &sim_cp),
        share(sim_cp.wire, &sim_cp),
        share(sim_cp.queue, &sim_cp),
        sim_cp.total()
    );
    let pm = &traced.report.pool;
    println!(
        "pool over the traced run: {} jobs, {} steals (ratio {:.2}), {} parks",
        pm.executed,
        pm.steals,
        pm.steal_ratio(),
        pm.parks
    );
    println!("wrote {html_path} and {json_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--sched` runs only the scheduler makespan sweep (fast,
    // simulator-only — the CI artifact path); `--nodes N` overrides
    // every headline workload's vertex count (defaults:
    // 1500 / 2000 / 2500); a bare integer arg sets threads.
    if args.iter().any(|a| a == "--sched") {
        let (rows, trace) = scheduler_sweep();
        report_scheduler_sweep(&rows, &trace);
        return;
    }
    let mut nodes_override = None;
    let mut threads = None;
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--nodes" {
            i += 1;
            nodes_override = Some(
                args.get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .expect("--nodes requires an integer argument"),
            );
        } else if threads.is_none() {
            threads = args[i].parse::<usize>().ok();
        }
        i += 1;
    }
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(4)
    });
    let pool = ThreadPool::new(threads);
    // `--trace` runs only the span-recorder gates + report artifacts
    // (see `trace_report`); `--dir` overrides the artifact directory.
    if args.iter().any(|a| a == "--trace") {
        let dir = args
            .iter()
            .position(|a| a == "--dir")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "target/trace_report".to_string());
        trace_report(&pool, nodes_override.unwrap_or(60_000), &dir);
        return;
    }
    let mut reports = Vec::new();

    // PageRank, barrier-bound: full-cut partitioning makes every global
    // iteration exchange ~all edges — the shuffle machinery the async
    // session deletes is the dominant cost.
    {
        let g = crawl_graph(nodes_override.unwrap_or(1_500), 11);
        let parts = HashPartitioner.partition(&g, 16);
        reports.push(pagerank_case("pagerank", &pool, &g, &parts, 16));
    }

    // PageRank, locality partitions: the compute-dominated end — local
    // solves dwarf the exchange, so the async win shrinks (honesty row).
    {
        let g = crawl_graph(nodes_override.unwrap_or(2_000), 11);
        let parts = MultilevelKWay::default().partition(&g, 16);
        reports.push(pagerank_case("pagerank-multilevel", &pool, &g, &parts, 16));
    }

    // SSSP, barrier-bound: min-relaxation is cheap, the exchange is
    // everything; min is exact so any lag is quality-free.
    {
        let g = crawl_graph(nodes_override.unwrap_or(2_500), 13);
        let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 4);
        let parts = HashPartitioner.partition(wg.graph(), 16);
        let cfg = SsspConfig::default();
        let cut = parts.cut_fraction(wg.graph()) * 100.0;
        reports.push(bench_app(
            "sssp",
            &pool,
            16,
            wg.graph().num_edges(),
            cut,
            |engine| {
                let out = sssp::run_eager(engine, &wg, &parts, &cfg);
                let sim = out.report.sim_time.map(|t| t.as_secs_f64());
                (out.distances, out.report.global_iterations, sim)
            },
            |lag| {
                let out = sssp::run_async(&pool, &wg, &parts, &cfg, lag);
                (out.distances, out.report)
            },
            1e-6, // min is exact: staleness cannot move the fixed point
        ));
    }

    let sweep = failure_sweep(&pool);
    let node_sweep = node_failure_sweep(&pool);
    let contention = contention_probe();

    // ---- Table ----
    println!("barrier vs async driver wall-clock ({threads} threads, median of {REPS} reps)");
    println!(
        "  {:<20} {:>6} {:>6} {:>6} {:>13} {:>11} {:>11} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "app",
        "iters",
        "parts",
        "cut%",
        "barrier (ms)",
        "lag0 (ms)",
        "lag1 (ms)",
        "speedup",
        "lag1 x",
        "sim x",
        "bar ME/s",
        "lag0 ME/s"
    );
    for r in &reports {
        println!(
            "  {:<20} {:>6} {:>6} {:>6.1} {:>13.2} {:>11.2} {:>11.2} {:>7.2}x {:>7.2}x {:>7.2}x {:>10.2} {:>10.2}",
            r.name,
            r.iterations,
            r.partitions,
            r.cut_percent,
            r.barrier.as_secs_f64() * 1e3,
            r.async_lag0.as_secs_f64() * 1e3,
            r.async_lag1.as_secs_f64() * 1e3,
            r.speedup(),
            r.speedup_lag1(),
            r.sim_speedup(),
            r.barrier_edges_per_sec() / 1e6,
            r.async_edges_per_sec() / 1e6
        );
    }

    println!();
    println!("failure sweep (transient failures, results identity-gated bitwise)");
    println!(
        "  {:<10} {:>6} {:>8} {:>11} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "app",
        "prob",
        "failed",
        "wasted (s)",
        "sim clean",
        "sim fail",
        "slowdown",
        "barrier f.",
        "speedup"
    );
    for f in &sweep {
        println!(
            "  {:<10} {:>6.2} {:>8} {:>11.4} {:>9.1}s {:>9.1}s {:>8.2}x {:>9.1}s {:>8.2}x",
            f.app,
            f.prob,
            f.failed_attempts,
            f.wasted_gmap_secs,
            f.sim_clean_secs,
            f.sim_faulty_secs,
            f.sim_slowdown(),
            f.barrier_sim_faulty_secs,
            f.faulty_speedup(),
        );
    }

    println!();
    println!("node-failure sweep (correlated node death, checkpoint/rollback, bitwise-gated)");
    println!(
        "  {:<10} {:>4} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "app",
        "k",
        "prob",
        "rollbacks",
        "rb iters",
        "ckpt KiB",
        "peak KiB",
        "sim clean",
        "sim fail",
        "slowdown"
    );
    for r in &node_sweep {
        println!(
            "  {:<10} {:>4} {:>6.2} {:>9} {:>10} {:>10.1} {:>10.1} {:>9.1}s {:>9.1}s {:>8.2}x",
            r.app,
            r.checkpoint_interval,
            r.prob,
            r.rollbacks,
            r.rolled_back_iterations,
            r.checkpoint_bytes as f64 / 1024.0,
            r.peak_state_bytes as f64 / 1024.0,
            r.sim_clean_secs,
            r.sim_faulty_secs,
            r.sim_slowdown(),
        );
    }

    println!();
    println!("network contention (pagerank, Constant vs SharedBandwidth, unified event core)");
    println!("  {:<10} {:>13} {:>12} {:>9}", "path", "constant (s)", "shared (s)", "slowdown");
    println!(
        "  {:<10} {:>13.1} {:>12.1} {:>8.2}x",
        "barrier",
        contention.barrier_constant_secs,
        contention.barrier_shared_secs,
        contention.barrier_slowdown()
    );
    println!(
        "  {:<10} {:>13.1} {:>12.1} {:>8.2}x",
        "async",
        contention.async_constant_secs,
        contention.async_shared_secs,
        contention.async_slowdown()
    );

    // ---- JSON ----
    let mut apps_json = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\n      \"app\": \"{}\",\n      \"global_iterations\": {},\n      \"partitions\": {},\n      \"cut_percent\": {:.1},\n      \"edges\": {},\n      \"barrier_edges_per_sec\": {:.0},\n      \"async_lag0_edges_per_sec\": {:.0},\n      \"barrier_median_secs\": {:.6},\n      \"async_lag0_median_secs\": {:.6},\n      \"async_lag1_median_secs\": {:.6},\n      \"speedup\": {:.3},\n      \"speedup_lag1\": {:.3},\n      \"fixpoint_diff_lag0\": {:.3e},\n      \"fixpoint_diff_lag1\": {:.3e},\n      \"barrier_sim_secs\": {:.1},\n      \"async_sim_secs\": {:.1},\n      \"sim_speedup\": {:.3},\n      \"speculative_tasks\": {},\n      \"wasted_gmap_secs\": {:.6}\n    }}",
            r.name,
            r.iterations,
            r.partitions,
            r.cut_percent,
            r.edges,
            r.barrier_edges_per_sec(),
            r.async_edges_per_sec(),
            r.barrier.as_secs_f64(),
            r.async_lag0.as_secs_f64(),
            r.async_lag1.as_secs_f64(),
            r.speedup(),
            r.speedup_lag1(),
            r.fixpoint_diff_lag0,
            r.fixpoint_diff_lag1,
            r.barrier_sim_secs,
            r.async_sim_secs,
            r.sim_speedup(),
            r.speculative_tasks,
            r.wasted_gmap_secs,
        ));
    }
    let mut sweep_json = String::new();
    for (i, f) in sweep.iter().enumerate() {
        if i > 0 {
            sweep_json.push_str(",\n");
        }
        sweep_json.push_str(&format!(
            "    {{\n      \"app\": \"{}\",\n      \"attempt_failure_prob\": {:.2},\n      \"failed_attempts\": {},\n      \"wasted_gmap_secs\": {:.6},\n      \"sim_clean_secs\": {:.1},\n      \"sim_faulty_secs\": {:.1},\n      \"sim_failed_attempts\": {},\n      \"sim_recovery_secs\": {:.1},\n      \"sim_failure_slowdown\": {:.3},\n      \"barrier_sim_faulty_secs\": {:.1},\n      \"faulty_sim_speedup\": {:.3}\n    }}",
            f.app,
            f.prob,
            f.failed_attempts,
            f.wasted_gmap_secs,
            f.sim_clean_secs,
            f.sim_faulty_secs,
            f.sim_failed_attempts,
            f.sim_recovery_secs,
            f.sim_slowdown(),
            f.barrier_sim_faulty_secs,
            f.faulty_speedup(),
        ));
    }
    let headline =
        reports.iter().find(|r| r.name == "pagerank").map(AppReport::speedup).unwrap_or(0.0);
    let contention_json = format!(
        "  \"network_contention\": {{\n    \"workload\": \"paper-scale full-cut pagerank shape: 48 MiB splits, 24 MiB messages/task broadcast, 16 partitions x 10 iterations\",\n    \"models\": [\"Constant (uncontended)\", \"SharedBandwidth (max-min fair NIC sharing)\"],\n    \"barrier_constant_secs\": {:.1},\n    \"barrier_shared_secs\": {:.1},\n    \"barrier_contention_slowdown\": {:.3},\n    \"async_constant_secs\": {:.1},\n    \"async_shared_secs\": {:.1},\n    \"async_contention_slowdown\": {:.3}\n  }}",
        contention.barrier_constant_secs,
        contention.barrier_shared_secs,
        contention.barrier_slowdown(),
        contention.async_constant_secs,
        contention.async_shared_secs,
        contention.async_slowdown(),
    );
    let json = format!(
        "{{\n  \"bench\": \"async_vs_barrier_driver_wall_clock\",\n  \"config\": {{\n    \"threads\": {threads},\n    \"reps\": {REPS},\n    \"drivers\": [\"FixedPointDriver + staged engine (barrier)\", \"AsyncFixedPointDriver lag 0 (byte-identical results)\", \"AsyncFixedPointDriver lag 1 (bounded staleness)\"],\n    \"identity_gate\": \"lag-0 fixed points pinned byte-identical to the barrier driver before timing; lag-0 iteration counts equal; failure-sweep results pinned bitwise against the failure-free run\"\n  }},\n  \"apps\": [\n{apps_json}\n  ],\n  \"failure_sweep\": [\n{sweep_json}\n  ],\n{contention_json},\n  \"pagerank_speedup\": {headline:.3}\n}}\n",
    );
    std::fs::write("BENCH_iterate.json", &json).expect("write BENCH_iterate.json");
    println!("wrote BENCH_iterate.json");

    // ---- Node-failure sweep artifact (its own file, CI-uploaded) ----
    let mut node_json = String::new();
    for (i, r) in node_sweep.iter().enumerate() {
        if i > 0 {
            node_json.push_str(",\n");
        }
        node_json.push_str(&format!(
            "    {{\n      \"app\": \"{}\",\n      \"checkpoint_interval\": {},\n      \"node_failure_prob\": {:.2},\n      \"rollbacks\": {},\n      \"rolled_back_iterations\": {},\n      \"checkpoint_bytes\": {},\n      \"peak_state_bytes\": {},\n      \"sim_clean_secs\": {:.1},\n      \"sim_faulty_secs\": {:.1},\n      \"sim_node_failures\": {},\n      \"sim_rollback_secs\": {:.1},\n      \"sim_failure_slowdown\": {:.3}\n    }}",
            r.app,
            r.checkpoint_interval,
            r.prob,
            r.rollbacks,
            r.rolled_back_iterations,
            r.checkpoint_bytes,
            r.peak_state_bytes,
            r.sim_clean_secs,
            r.sim_faulty_secs,
            r.sim_node_failures,
            r.sim_rollback_secs,
            r.sim_slowdown(),
        ));
    }
    let node_json = format!(
        "{{\n  \"bench\": \"node_failure_checkpoint_rollback_sweep\",\n  \"config\": {{\n    \"threads\": {threads},\n    \"workload\": \"pagerank, full-cut hash partitioning, 16 partitions, max_lag 0\",\n    \"virtual_nodes\": 8,\n    \"identity_gate\": \"ranks and iteration counts pinned bitwise against the failure-free run for every (checkpoint interval, probability) cell; simulated node-death replays run twice and asserted byte-identical\"\n  }},\n  \"node_failure_sweep\": [\n{node_json}\n  ]\n}}\n",
    );
    std::fs::write("BENCH_node_failure_sweep.json", &node_json)
        .expect("write BENCH_node_failure_sweep.json");
    println!("wrote BENCH_node_failure_sweep.json");
}
