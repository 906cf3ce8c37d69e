//! Time to a PageRank fixed point of checked quality, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pagerank-fullcut --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run builds the workload's inputs from `--seed` (see
//! [`workload`]) and solves each of them again and again, sharing
//! `--seconds` of solving between them, one solve at a time from this
//! one process (a closed loop with one caller). Every result is
//! checked. The pool has `nproc - 1` workers because the calling
//! thread also runs gmaps, so the process runs `nproc` threads.
//!
//! `--trace 0` reports the end-to-end metrics from plain calls to the
//! public solvers. Its solve and set-up times are CPU time as the
//! kernel charges it, scaled by a calibration kernel to a nominal host
//! speed; the wall time is printed beside them (see [`untraced_run`]
//! for why). `--trace 1` reports the per-layer metrics instead: it
//! alternates plain and instrumented solves, and records spans only
//! here, around calls into each layer's public functions — the timing
//! adaptor around `PrAsync`, `Engine::history()`, `ThreadPool::metrics()`
//! deltas, `Simulation::run_async_schedule` and the sequential
//! reference. The program's own `with_trace` is not used.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod adaptor;
mod calib;
mod host;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use asyncmr_apps::pagerank::{self, inf_norm_diff, reference::pagerank_sequential};
use asyncmr_apps::pagerank::{session::PrAsync, PageRankConfig};
use asyncmr_core::{AsyncFixedPointDriver, AsyncIterative, Dependence, Engine};
use asyncmr_runtime::{PoolMetrics, ThreadPool};
use asyncmr_simcluster::{AsyncTaskSpec, ClusterSpec, Simulation};

use adaptor::{SpanSummary, Timed};
use calib::Calibration;
use host::{CpuClock, Host};
use workload::{Input, Solver, Workload};

/// Tolerance of the reference fixed point each result is measured
/// against: far below the solvers' 1e-5, so the residual is the
/// solver's own error.
const REF_TOLERANCE: f64 = 1e-9;
/// The quality every solve must reach: ∞-norm distance from the
/// reference fixed point.
const RESIDUAL_BOUND: f64 = 1e-3;
/// Sequential reference sweeps cap (never reached at these sizes).
const MAX_SWEEPS: usize = 100_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

pub(crate) fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The result of one solve, whichever solver made it.
struct Solved {
    ranks: Vec<f64>,
    converged: bool,
    iterations: usize,
    total_ops: u64,
}

/// The checks every solve must pass.
struct Checker {
    reference: Vec<f64>,
    /// The barrier driver's ranks, which a lag-0 session result must
    /// equal bit for bit.
    oracle: Option<Vec<f64>>,
}

impl Checker {
    /// Returns the residual, or what failed.
    fn check(&self, s: &Solved) -> Result<f64, String> {
        if !s.converged {
            return Err(format!("did not converge in {} iterations", s.iterations));
        }
        let residual = inf_norm_diff(&s.ranks, &self.reference);
        if residual.is_nan() || residual > RESIDUAL_BOUND {
            return Err(format!("residual {residual:e} exceeds {RESIDUAL_BOUND:e}"));
        }
        if let Some(oracle) = &self.oracle {
            if let Some(v) =
                (0..oracle.len()).find(|&v| s.ranks[v].to_bits() != oracle[v].to_bits())
            {
                return Err(format!(
                    "rank {v} differs from the barrier driver's ({} vs {})",
                    s.ranks[v], oracle[v]
                ));
            }
        }
        Ok(residual)
    }
}

/// Tallies checked solves.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<f64, String>) -> Option<f64> {
        self.attempted += 1;
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed on {what} solve {}: {e}", self.attempted);
                None
            }
        }
    }
}

fn solve(pool: &ThreadPool, solver: Solver, input: &Input, cfg: &PageRankConfig) -> Solved {
    match solver {
        Solver::Session { max_lag } => {
            let out = pagerank::run_async(pool, &input.graph, &input.parts, cfg, max_lag);
            Solved {
                ranks: out.ranks,
                converged: out.report.converged,
                iterations: out.report.global_iterations,
                total_ops: out.report.total_ops,
            }
        }
        Solver::Barrier => {
            let out =
                pagerank::run_eager(&mut Engine::in_process(pool), &input.graph, &input.parts, cfg);
            Solved {
                ranks: out.ranks,
                converged: out.report.converged,
                iterations: out.report.global_iterations,
                total_ops: out.report.total_ops,
            }
        }
    }
}

/// One input of the run, built and ready to be solved and checked.
struct Prepared {
    input: Input,
    checker: Checker,
}

/// Builds input `i` of the run (timing each set-up step into `setups`)
/// and, untimed, what its solves are checked against: the tight
/// reference and, where the workload asks for it, the barrier driver's
/// result as a bitwise oracle.
fn prepare(
    args: &Args,
    i: u64,
    pool: &ThreadPool,
    cfg: &PageRankConfig,
    setups: &mut Vec<workload::SetupTimes>,
) -> Prepared {
    let wl = args.workload;
    let mut built = None;
    for _ in 0..wl.setup_reps {
        let (input, times) = wl.build_input(args.seed, i);
        setups.push(times);
        built = Some(input);
    }
    let input = built.expect("at least one set-up");
    let (reference, _) = pagerank_sequential(&input.graph, cfg.damping, REF_TOLERANCE, MAX_SWEEPS);
    let oracle = wl.bitwise_oracle.then(|| solve(pool, Solver::Barrier, &input, cfg).ranks);
    Prepared { input, checker: Checker { reference, oracle } }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    println!("host {}", host.json());
    println!("workload {} seed {} trace {}", args.workload.name, args.seed, args.trace as u8);
    let pool = ThreadPool::new(host.workers);
    let cfg = PageRankConfig::default();

    let (tally, metrics) = if args.trace {
        traced_run(&args, &host, &pool, &cfg)
    } else {
        untraced_run(&args, &pool, &cfg)
    };
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value} {unit}");
    }
    println!(
        "fail_rate {} ({} of {} solves failed a check)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.json()
    );
}

/// Solve time the run may have spent once input `i` is done: the
/// run's `--seconds`, shared evenly between its inputs. Every input is
/// solved at least once.
fn solve_deadline(args: &Args, i: u64) -> f64 {
    args.seconds * (i + 1) as f64 / args.workload.inputs as f64
}

/// End-to-end metrics from plain calls to the public solver.
///
/// Times are medians over every solve, taken as CPU time rather than
/// wall time: on a host whose virtual CPUs the hypervisor shares, the
/// same barrier solve's wall time varied 2.6x with the share of CPU
/// time stolen (0.98 s at none, 2.6 s at about half) while the CPU time
/// its threads were charged moved far less. The solve's CPU time counts
/// every thread, including time spent looking for work, but not time
/// parked, so a change that only shortens waits shows in the printed
/// wall time and in `runtime.park_s`, not here. Solve and set-up times
/// are then scaled to nominal-host seconds by the [`calib`] kernel run
/// before each solve; the unscaled times are printed.
///
/// Iterations, work and accuracy are properties of the input more than
/// of the run (exactly so at lag 0), so they are taken per input and
/// averaged over the inputs.
fn untraced_run(args: &Args, pool: &ThreadPool, cfg: &PageRankConfig) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut setups = vec![];
    let (mut walls, mut cpus) = (vec![], vec![]);
    let (mut iterations, mut ops, mut residuals) = (vec![], vec![], vec![]);
    let mut spent = 0.0;
    let mut stolen = 0.0;
    let mut calibration = Calibration::new();
    for i in 0..args.workload.inputs {
        let p = prepare(args, i, pool, cfg, &mut setups);
        let (mut input_iterations, mut input_ops, mut input_residuals) = (vec![], vec![], vec![]);
        while input_ops.is_empty() || spent < solve_deadline(args, i) {
            calibration.sample();
            let steal = host::steal_seconds();
            let cpu = CpuClock::Process.now();
            let t = Instant::now();
            let solved = solve(pool, args.workload.solver, &p.input, cfg);
            let wall = t.elapsed().as_secs_f64();
            cpus.push((CpuClock::Process.now() - cpu).as_secs_f64());
            if let (Some(before), Some(after)) = (steal, host::steal_seconds()) {
                stolen += after - before;
            }
            spent += wall;
            walls.push(wall);
            input_iterations.push(solved.iterations as f64);
            input_ops.push(solved.total_ops as f64);
            if let Some(r) = tally.record("plain", p.checker.check(&solved)) {
                input_residuals.push(r);
            }
        }
        iterations.push(median(&input_iterations));
        ops.push(median(&input_ops));
        if !input_residuals.is_empty() {
            residuals.push(median(&input_residuals));
        }
    }
    // Wall time is printed, not reported: it moves with the time the
    // hypervisor steals from this machine's CPUs, which the stolen
    // share printed here shows.
    println!("solve_s {} s (median wall over {} solves)", median(&walls), walls.len());
    println!("solve_s samples {walls:?}");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("cpu_stolen_frac {} (of all CPUs while solving)", stolen / (nproc as f64 * spent));
    let setup: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    let scale = calibration.scale();
    println!(
        "calibration {} s median kernel CPU time (nominal {} s); measured solve_cpu {} s, setup {} s",
        calibration.median_s(),
        calib::NOMINAL_S,
        median(&cpus),
        median(&setup)
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mut m = Metrics::default();
    m.put("solve_cpu_s", median(&cpus) * scale, "s");
    m.put("setup_s", median(&setup) * scale, "s");
    m.put("iterations", mean(&iterations), "count");
    m.put("work_ops", mean(&ops), "count");
    // Digits of accuracy: -log10 of the ∞-norm distance from the
    // reference. Where in an iteration the stopping test happens to
    // pass scales one input's distance by a factor of up to about 1.6;
    // on a log scale that is a bounded step, which the mean over the
    // inputs keeps steady.
    println!("residual mean over inputs {}", mean(&residuals));
    let digits: Vec<f64> = residuals.iter().map(|r| -r.log10()).collect();
    m.put("residual_digits", mean(&digits), "digits");
    m.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");
    (tally, m)
}

/// Per-layer figures of one instrumented solve.
#[derive(Default)]
struct LayerSample {
    wall: f64,
    spans: Option<SpanSummary>,
    sched_self_s: f64,
    useful_frac: f64,
    speculative_s: f64,
    peak_state_mb: f64,
    pool: Option<PoolMetrics>,
    cpu_s: f64,
    engine: Option<EngineSample>,
    total_ops: u64,
    /// The session's executed schedule and wall, for the replay, and
    /// its spans, lane by lane.
    schedule: Vec<AsyncTaskSpec>,
    session_wall: f64,
    lanes: Vec<Vec<adaptor::Span>>,
}

#[derive(Default, Clone, Copy)]
struct EngineSample {
    jobs: usize,
    map_s: f64,
    combine_s: f64,
    shuffle_s: f64,
    reduce_s: f64,
    driver_other_s: f64,
    shuffle_records: u64,
    shuffle_mb: f64,
}

/// Why an instrumented solve's layer figures are not reported.
enum Rejected {
    /// A check failed: the solve counts as failed.
    Failed(String),
    /// The spans claim more busy time than the lanes had: the solve is
    /// flagged and its spans are dropped.
    LaneBound(String),
}

/// One instrumented session solve through the timing adaptor. The
/// algorithm is built inside the timed region, as `run_async` does.
fn traced_session(
    pool: &ThreadPool,
    workers: usize,
    input: &Input,
    cfg: &PageRankConfig,
    max_lag: usize,
) -> (Solved, Result<LayerSample, Rejected>) {
    let pool_before = pool.metrics();
    let cpu_before = CpuClock::Process.now();
    let t = Instant::now();
    let algo = PrAsync::new(&input.graph, &input.parts, cfg);
    let timed = Timed::new(&algo, workers);
    let t_run = Instant::now();
    let outcome =
        AsyncFixedPointDriver::new(cfg.max_iterations).with_max_lag(max_lag).run(pool, &timed);
    let session_wall = t_run.elapsed();
    let mut ranks = vec![0.0f64; input.graph.num_nodes()];
    for (part, state) in algo.partitions().iter().zip(&outcome.states) {
        for (li, &v) in part.nodes.iter().enumerate() {
            ranks[v as usize] = state.ranks[li];
        }
    }
    let wall = t.elapsed();
    let cpu_s = (CpuClock::Process.now() - cpu_before).as_secs_f64();
    let pool_delta = pool.metrics().since(&pool_before);

    let report = outcome.report;
    let solved = Solved {
        ranks,
        converged: report.converged,
        iterations: report.global_iterations,
        total_ops: report.total_ops,
    };
    let spans = timed.into_spans();
    let summary = SpanSummary::of(&spans);
    let checked = summary
        .check_call_identity(&report)
        .map_err(Rejected::Failed)
        .and_then(|()| summary.check_lane_bound(session_wall).map_err(Rejected::LaneBound));
    let sample = checked.map(|()| LayerSample {
        wall: wall.as_secs_f64(),
        sched_self_s: session_wall.saturating_sub(summary.caller_busy).as_secs_f64(),
        useful_frac: report.gmap_tasks as f64 / summary.gmap_calls as f64,
        speculative_s: report.speculative_time.as_secs_f64(),
        peak_state_mb: report.peak_state_bytes as f64 / 1e6,
        spans: Some(summary),
        pool: Some(pool_delta),
        cpu_s,
        engine: None,
        total_ops: report.total_ops,
        schedule: report.schedule,
        session_wall: session_wall.as_secs_f64(),
        lanes: spans,
    });
    (solved, sample)
}

/// One instrumented barrier solve: the engine's job history, read after
/// `run_eager` returns.
fn traced_barrier(
    pool: &ThreadPool,
    input: &Input,
    cfg: &PageRankConfig,
) -> (Solved, Result<LayerSample, Rejected>) {
    let pool_before = pool.metrics();
    let cpu_before = CpuClock::Process.now();
    let t = Instant::now();
    let mut engine = Engine::in_process(pool);
    let out = pagerank::run_eager(&mut engine, &input.graph, &input.parts, cfg);
    let wall = t.elapsed();
    let cpu_s = (CpuClock::Process.now() - cpu_before).as_secs_f64();
    let pool_delta = pool.metrics().since(&pool_before);

    let history = engine.history();
    let mut e = EngineSample { jobs: history.len(), ..Default::default() };
    let mut job_wall = Duration::ZERO;
    let mut checked = Ok(());
    for job in history {
        if job.stages.total() > job.wall {
            checked = Err(Rejected::Failed(format!(
                "job {}: stages {:?} exceed job wall {:?}",
                job.name,
                job.stages.total(),
                job.wall
            )));
        }
        e.map_s += job.stages.map.as_secs_f64();
        e.combine_s += job.stages.combine.as_secs_f64();
        e.shuffle_s += job.stages.shuffle.as_secs_f64();
        e.reduce_s += job.stages.reduce.as_secs_f64();
        e.shuffle_records += job.meter.shuffle_records;
        e.shuffle_mb += job.meter.shuffle_bytes as f64 / 1e6;
        job_wall += job.wall;
    }
    let driver_wall = out.report.driver_wall;
    if job_wall > driver_wall {
        checked = Err(Rejected::Failed(format!(
            "job walls {job_wall:?} exceed driver wall {driver_wall:?}"
        )));
    }
    e.driver_other_s = (driver_wall - job_wall.min(driver_wall)).as_secs_f64();
    let solved = Solved {
        ranks: out.ranks,
        converged: out.report.converged,
        iterations: out.report.global_iterations,
        total_ops: out.report.total_ops,
    };
    let sample = checked.map(|()| LayerSample {
        wall: wall.as_secs_f64(),
        pool: Some(pool_delta),
        cpu_s,
        engine: Some(e),
        total_ops: out.report.total_ops,
        ..Default::default()
    });
    (solved, sample)
}

/// Where the spans of the last checked instrumented session solve are
/// written when the run ends: next to the benchmark's executable,
/// inside its build directory.
fn spans_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spans")))
        .unwrap_or_else(|| PathBuf::from("spans"));
    dir.join(format!("{}-seed{}.csv", args.workload.name, args.seed))
}

/// Per-input figures the reference split needs.
struct RefSample {
    /// Median plain solve time on this input.
    solve_s: f64,
    sequential_s: f64,
    /// Vertex-or-edge touches: the reference's `sweeps * (n + m)`, and
    /// the solver's metered ops over the 3 it meters per touch.
    ref_units: f64,
    solver_units: f64,
}

/// Per-layer metrics: plain and instrumented solves alternate, so the
/// tracing overhead is measured under the same conditions.
fn traced_run(
    args: &Args,
    host: &Host,
    pool: &ThreadPool,
    cfg: &PageRankConfig,
) -> (Tally, Metrics) {
    let wl = args.workload;
    let mut tally = Tally::default();
    let mut setups = vec![];
    let (mut plain_walls, mut samples, mut refs) = (vec![], vec![], vec![]);
    let (mut cut_frac, mut dep_edges) = (vec![], vec![]);
    let mut last_schedule: Option<(Vec<AsyncTaskSpec>, f64)> = None;
    let mut last_lanes = vec![];
    let mut lane_bound_failures = 0usize;
    let mut spent = 0.0;
    for i in 0..args.workload.inputs {
        let p = prepare(args, i, pool, cfg, &mut setups);
        cut_frac.push(p.input.parts.cut_fraction(&p.input.graph));
        dep_edges.push(declared_dependencies(&p.input, cfg) as f64);
        let (mut input_walls, mut input_ops) = (vec![], vec![]);
        while input_walls.is_empty() || spent < solve_deadline(args, i) {
            let t = Instant::now();
            let solved = solve(pool, wl.solver, &p.input, cfg);
            let wall = t.elapsed().as_secs_f64();
            input_walls.push(wall);
            tally.record("plain", p.checker.check(&solved));

            let t = Instant::now();
            let (solved, sample) = match wl.solver {
                Solver::Session { max_lag } => {
                    traced_session(pool, host.workers, &p.input, cfg, max_lag)
                }
                Solver::Barrier => traced_barrier(pool, &p.input, cfg),
            };
            spent += wall + t.elapsed().as_secs_f64();
            let residual = p.checker.check(&solved);
            match sample {
                Ok(mut s) => {
                    tally.record("traced", residual);
                    input_ops.push(s.total_ops as f64);
                    if !s.schedule.is_empty() {
                        last_schedule = Some((std::mem::take(&mut s.schedule), s.session_wall));
                        last_lanes = std::mem::take(&mut s.lanes);
                    }
                    samples.push(s);
                }
                Err(Rejected::LaneBound(e)) => {
                    lane_bound_failures += 1;
                    eprintln!("traced solve flagged, spans dropped: lane bound: {e}");
                    tally.record("traced", residual);
                }
                Err(Rejected::Failed(e)) => {
                    tally.record("traced", Err(e));
                }
            }
        }
        // Single-threaded baseline at the solvers' own tolerance.
        let t = Instant::now();
        let (ranks, sweeps) =
            pagerank_sequential(&p.input.graph, cfg.damping, cfg.tolerance, MAX_SWEEPS);
        let sequential_s = t.elapsed().as_secs_f64();
        std::hint::black_box(ranks);
        if !input_ops.is_empty() {
            refs.push(RefSample {
                solve_s: median(&input_walls),
                sequential_s,
                ref_units: (sweeps * (p.input.graph.num_nodes() + p.input.graph.num_edges()))
                    as f64,
                solver_units: median(&input_ops) / 3.0,
            });
        }
        plain_walls.extend(input_walls);
    }
    println!("lane_bound_failures {lane_bound_failures} of {}", plain_walls.len());
    if samples.is_empty() {
        eprintln!("no instrumented solve passed its checks");
        std::process::exit(1);
    }
    if !last_lanes.is_empty() {
        let path = spans_path(args);
        if let Err(e) = adaptor::write_spans(&path, &last_lanes) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());

    let mut m = Metrics::default();
    let secs = |f: fn(&workload::SetupTimes) -> Duration| {
        median(&setups.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>())
    };
    m.put("graph.generate_s", secs(|s| s.generate), "s");
    m.put("partition.partition_s", secs(|s| s.partition), "s");
    m.put("partition.reorder_s", secs(|s| s.reorder), "s");
    m.put("partition.cut_frac", median(&cut_frac), "1");
    m.put("partition.dep_edges", median(&dep_edges), "count");

    let span = |f: fn(&SpanSummary) -> f64| med(&|s: &LayerSample| s.spans.as_ref().map_or(0.0, f));
    m.put("apps.gmap_calls", span(|s| s.gmap_calls as f64), "count");
    m.put("apps.gmap_busy_s", span(|s| s.gmap_busy.as_secs_f64()), "s");
    m.put(
        "apps.gmap_ns_per_op",
        span(
            |s| {
                if s.gmap_ops == 0 {
                    0.0
                } else {
                    s.gmap_busy.as_nanos() as f64 / s.gmap_ops as f64
                }
            },
        ),
        "ns",
    );
    m.put("apps.local_syncs", span(|s| s.local_syncs as f64), "count");
    m.put("apps.msg_records", span(|s| s.msg_records as f64), "count");
    m.put("apps.absorb_calls", span(|s| s.absorb_calls as f64), "count");
    m.put("apps.absorb_busy_s", span(|s| s.absorb_busy.as_secs_f64()), "s");

    m.put("session.sched_self_s", med(&|s| s.sched_self_s), "s");
    m.put("session.useful_frac", med(&|s| s.useful_frac), "1");
    m.put("session.speculative_s", med(&|s| s.speculative_s), "s");
    m.put("session.peak_state_mb", med(&|s| s.peak_state_mb), "MB");

    let pool_m =
        |f: fn(&PoolMetrics) -> f64| med(&|s: &LayerSample| s.pool.as_ref().map_or(0.0, f));
    m.put("runtime.executed", pool_m(|p| p.executed as f64), "count");
    m.put("runtime.steals", pool_m(|p| p.steals as f64), "count");
    m.put("runtime.parks", pool_m(|p| p.parks as f64), "count");
    m.put("runtime.park_s", pool_m(|p| p.park_nanos as f64 / 1e9), "s");
    m.put("runtime.cpu_s", med(&|s| s.cpu_s), "s");

    let eng =
        |f: fn(&EngineSample) -> f64| med(&|s: &LayerSample| s.engine.as_ref().map_or(0.0, f));
    m.put("engine.jobs", eng(|e| e.jobs as f64), "count");
    m.put("engine.map_s", eng(|e| e.map_s), "s");
    m.put("engine.combine_s", eng(|e| e.combine_s), "s");
    m.put("engine.shuffle_s", eng(|e| e.shuffle_s), "s");
    m.put("engine.reduce_s", eng(|e| e.reduce_s), "s");
    m.put("engine.driver_other_s", eng(|e| e.driver_other_s), "s");
    m.put("engine.shuffle_records", eng(|e| e.shuffle_records as f64), "count");
    m.put("engine.shuffle_mb", eng(|e| e.shuffle_mb), "MB");

    // Replay the last instrumented session's schedule on the simulated
    // 2010 cluster. Traced runs only: the replay's event state roughly
    // doubles the process's resident memory.
    let (replay_s, makespan_ratio) = match last_schedule {
        Some((schedule, session_wall)) => {
            let t = Instant::now();
            let stats =
                Simulation::new(ClusterSpec::ec2_2010(), args.seed).run_async_schedule(&schedule);
            (t.elapsed().as_secs_f64(), stats.duration.as_secs_f64() / session_wall)
        }
        None => (0.0, 0.0),
    };
    m.put("simcluster.replay_s", replay_s, "s");
    m.put("simcluster.makespan_ratio", makespan_ratio, "1");

    // solve / sequential = work_ratio * unit_cost_ratio, exactly, over
    // the run's inputs.
    let total = |f: fn(&RefSample) -> f64| refs.iter().map(f).sum::<f64>();
    let work_ratio = total(|r| r.solver_units) / total(|r| r.ref_units);
    let time_ratio = total(|r| r.solve_s) / total(|r| r.sequential_s);
    m.put(
        "ref.sequential_s",
        median(&refs.iter().map(|r| r.sequential_s).collect::<Vec<_>>()),
        "s",
    );
    m.put("ref.work_ratio", work_ratio, "1");
    m.put("ref.unit_cost_ratio", time_ratio / work_ratio, "1");
    m.put("trace.overhead_frac", med(&|s| s.wall) / median(&plain_walls) - 1.0, "1");
    (tally, m)
}

/// Sum over partitions of the dependencies the session algorithm
/// declares for this input.
fn declared_dependencies(input: &Input, cfg: &PageRankConfig) -> usize {
    let algo = PrAsync::new(&input.graph, &input.parts, cfg);
    let k = algo.partitions().len();
    (0..k)
        .map(|p| match AsyncIterative::dependencies(&algo, p) {
            Dependence::Full => k - 1,
            Dependence::Sparse(deps) => deps.iter().filter(|&&d| d != p).count(),
        })
        .sum()
}
