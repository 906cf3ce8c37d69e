//! A fixed kernel that measures how fast the host runs the benchmark
//! right now.
//!
//! On a host shared with other machines, the speed a thread gets moves
//! with what the neighbours do: single-threaded set-ups of the same
//! size took from 1.9 to 3.7 ms of CPU time, and lag-1 session solves
//! of the same size from 1.1 to 2.3 s, in runs minutes apart. The
//! benchmark runs this kernel before every solve and scales its solve
//! and set-up times by `NOMINAL_S / median(kernel time)`: a reported
//! time is what the work would take on a host where this kernel takes
//! [`NOMINAL_S`] of CPU time. In 19 runs of the lag-1 session workload, dividing the median
//! solve CPU time by either of this kernel's two halves, timed the same
//! way, cut the spread between runs from 13% to 7%.
//!
//! The kernel is the benchmark's own code, so no change to the program
//! under test moves it. It mixes the two kinds of work the solvers do:
//! dependent floating-point arithmetic, and a PageRank-style pull sweep
//! of gathers over a small random graph. It runs on one thread over
//! about 3 MB, so it corrects only part of a slowdown that hits
//! cross-thread synchronisation or DRAM bandwidth: when its own time
//! rose 48%, the lag-1 solve's CPU time rose about 80%.

use crate::host::CpuClock;

/// The kernel's CPU time on the nominal host, in seconds. Only ratios
/// to it matter; it is about what the kernel took on the 2-vCPU host
/// the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.018;

/// Vertices and out-edges per vertex of the sweep's graph: 2 MB of
/// edges and 1 MB of ranks, so the kernel adds little to peak RSS.
const VERTICES: usize = 1 << 16;
const DEGREE: usize = 8;
const SWEEPS: usize = 10;
const ARITH_STEPS: u64 = 3_000_000;

pub struct Calibration {
    targets: Vec<u32>,
    ranks: Vec<f64>,
    next: Vec<f64>,
    samples: Vec<f64>,
}

fn xorshift(r: &mut u64) -> u64 {
    *r ^= *r << 13;
    *r ^= *r >> 7;
    *r ^= *r << 17;
    *r
}

impl Calibration {
    pub fn new() -> Self {
        let mut r = 0x2545_F491_4F6C_DD1D;
        let targets =
            (0..VERTICES * DEGREE).map(|_| (xorshift(&mut r) % VERTICES as u64) as u32).collect();
        Calibration {
            targets,
            ranks: vec![1.0 / VERTICES as f64; VERTICES],
            next: vec![0.0; VERTICES],
            samples: vec![],
        }
    }

    /// Runs the kernel once on the calling thread and records its CPU
    /// time.
    pub fn sample(&mut self) {
        let t = CpuClock::Thread.now();
        let mut r = 0x9E37_79B9_7F4A_7C15;
        let mut a = 1.0f64;
        for _ in 0..ARITH_STEPS {
            a = a * 0.999_999 + (xorshift(&mut r) >> 40) as f64 * 1e-12;
        }
        std::hint::black_box(a);
        self.ranks.fill(1.0 / VERTICES as f64);
        for _ in 0..SWEEPS {
            for (v, out) in self.next.iter_mut().enumerate() {
                let edges = &self.targets[v * DEGREE..(v + 1) * DEGREE];
                let sum: f64 = edges.iter().map(|&u| self.ranks[u as usize]).sum();
                *out = 0.15 / VERTICES as f64 + 0.85 * sum / DEGREE as f64;
            }
            std::mem::swap(&mut self.ranks, &mut self.next);
        }
        std::hint::black_box(&self.ranks);
        self.samples.push((CpuClock::Thread.now() - t).as_secs_f64());
    }

    /// Median kernel time over the samples taken so far.
    pub fn median_s(&self) -> f64 {
        crate::median(&self.samples)
    }

    /// Factor that turns a time measured in this run into nominal-host
    /// seconds.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.median_s()
    }
}
