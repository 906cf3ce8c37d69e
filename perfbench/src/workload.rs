//! The benchmark's workloads and the inputs they are built from.
//!
//! The seed is a command-line argument. Everything the program under
//! test receives — the graph, its partitioning, its vertex order — is
//! generated here from that seed; the program gets only these
//! generated inputs, never the seed or the workload's name.
//!
//! A run solves several graphs drawn from its seed rather than one.
//! Iterations to converge and the residual depend on where in a global
//! iteration the stopping test happens to pass, which differs from
//! graph to graph (18 to 21 iterations, and residuals up to 1.6x apart,
//! at 1M vertices); averaging over several inputs keeps one run's
//! figures close to the next run's.

use std::time::Duration;

use asyncmr_graph::{generators, CsrGraph};
use asyncmr_partition::{
    apply_locality_order, HashPartitioner, Partitioner, Partitioning, RangePartitioner,
};

use crate::host::CpuClock;

/// How a workload reaches its fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// The asynchronous session (`pagerank::run_async`) at this
    /// staleness bound.
    Session { max_lag: usize },
    /// The barrier driver over the staged engine (`pagerank::run_eager`).
    Barrier,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Range,
    Hash,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub parts: usize,
    pub split: Split,
    pub solver: Solver,
    /// Whether each lag-0 session solve is compared bitwise against the
    /// barrier driver's result on the same input. Affordable on the
    /// small input only.
    pub bitwise_oracle: bool,
    /// Graphs solved per run, each from its own seed derived from the
    /// run's seed.
    pub inputs: u64,
    /// Times each input is set up; `setup_s` is the median over all.
    pub setup_reps: usize,
}

/// Crawl-graph shape shared by every workload: 5 out-edges per joining
/// vertex, 95% of them into the most recent 1024 vertices.
const EDGES_PER_NODE: usize = 5;
const LOCALITY: f64 = 0.95;
const WINDOW: usize = 1024;

/// Full-cut input: small enough that the kernels are cheap and a
/// bitwise oracle is affordable, hashed so every partition depends on
/// every other. Session time grows faster than the partition count
/// here; 128 partitions is well into that regime while a lag-0 solve
/// still takes about 2 s on 2 cores (256 take 8 to 11 s), so a run
/// can take the median of several.
const FULLCUT_NODES: usize = 20_000;
const FULLCUT_PARTS: usize = 128;

pub const WORKLOADS: &[Workload] = &[
    // Kernel-bound. A 1M-vertex crawl graph in 64 contiguous ranges,
    // relabelled so each partition is one dense id window: the cut is
    // small, the flat gmap kernels do almost all the work, and the
    // working set is larger than the last-level cache. Kernel, local
    // threshold and partition-to-worker affinity changes show here.
    Workload {
        name: "pagerank-local",
        nodes: 1_000_000,
        parts: 64,
        split: Split::Range,
        solver: Solver::Session { max_lag: 0 },
        bitwise_oracle: false,
        inputs: 6,
        setup_reps: 1,
    },
    // Session-bound. The same kind of graph at 20K vertices hashed into
    // 128 partitions: nearly every edge is cut and every partition
    // depends on every other, so the kernels are tiny and the session's
    // bookkeeping and the pool's park/wake take most of the wall time.
    // Session and scheduler changes show here and not on
    // pagerank-local.
    Workload {
        name: "pagerank-fullcut",
        nodes: FULLCUT_NODES,
        parts: FULLCUT_PARTS,
        split: Split::Hash,
        solver: Solver::Session { max_lag: 0 },
        bitwise_oracle: true,
        inputs: 8,
        setup_reps: 5,
    },
    // The same input at lag 1: bounded staleness, mailbox retention and
    // runahead use the session differently, so a lag-0 fast path that
    // costs lag > 0 shows here.
    Workload {
        name: "pagerank-fullcut-lag1",
        nodes: FULLCUT_NODES,
        parts: FULLCUT_PARTS,
        split: Split::Hash,
        solver: Solver::Session { max_lag: 1 },
        bitwise_oracle: false,
        inputs: 8,
        setup_reps: 5,
    },
    // Engine-bound. The same input through the barrier driver and the
    // staged map/combine/shuffle/reduce engine. It never enters the
    // session, so engine changes show here and session changes should
    // not. Its bitwise identity with the lag-0 session is checked on
    // pagerank-fullcut, where the barrier is the cheap side.
    Workload {
        name: "pagerank-fullcut-barrier",
        nodes: FULLCUT_NODES,
        parts: FULLCUT_PARTS,
        split: Split::Hash,
        solver: Solver::Barrier,
        bitwise_oracle: false,
        inputs: 8,
        setup_reps: 5,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated input: the relabelled graph and its partitioning.
pub struct Input {
    pub graph: CsrGraph,
    pub parts: Partitioning,
}

/// CPU time of the building thread in each set-up step of one build of
/// the input. Set-up is single-threaded, so this is its wall time less
/// any time the thread was descheduled or its CPU stolen.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate: Duration,
    pub partition: Duration,
    pub reorder: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.partition + self.reorder
    }
}

impl Workload {
    /// Generates, partitions and locality-orders input `i` of the run
    /// with seed `seed`.
    pub fn build_input(&self, seed: u64, i: u64) -> (Input, SetupTimes) {
        let seed = seed.wrapping_mul(self.inputs).wrapping_add(i);
        let clock = CpuClock::Thread;
        let t = clock.now();
        let g = generators::preferential_attachment_streamed(
            self.nodes,
            EDGES_PER_NODE,
            LOCALITY,
            WINDOW,
            seed,
        );
        let generate = clock.now() - t;
        let t = clock.now();
        let parts = match self.split {
            Split::Range => RangePartitioner.partition(&g, self.parts),
            Split::Hash => HashPartitioner.partition(&g, self.parts),
        };
        let partition = clock.now() - t;
        let t = clock.now();
        let (graph, parts, _perm) = apply_locality_order(&g, &parts);
        let reorder = clock.now() - t;
        (Input { graph, parts }, SetupTimes { generate, partition, reorder })
    }
}
