//! The timing adaptor: a delegate-only [`AsyncIterative`] wrapper that
//! records one span per `gmap`/`absorb` call from outside the session.
//!
//! Every trait method forwards to the wrapped algorithm unchanged; the
//! wrapper only reads the clock before and after the two calls that do
//! work and appends a [`Span`] to the calling thread's lane. Lanes
//! follow the pool's numbering: `0..workers` are pool workers (from
//! [`asyncmr_runtime::current_worker`]) and lane `workers` is the
//! calling thread, which runs the scheduler, every absorb, and the
//! gmaps it helps with while it waits. Each thread only pushes to its
//! own lane, so the per-lane mutexes are uncontended; they exist to
//! make the wrapper `Sync`.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asyncmr_core::session::SessionReport;
use asyncmr_core::{Absorbed, AsyncIterative, Dependence, GmapOutput, Outbox};
use asyncmr_runtime::current_worker;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Gmap,
    Absorb,
}

/// One timed call. Times are nanoseconds from the adaptor's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub partition: u32,
    pub iteration: u32,
    pub lane: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Abstract ops the call reported (gmap: `GmapOutput::ops`,
    /// absorb: `Absorbed::ops`).
    pub ops: u64,
    /// Gmap only: partial synchronizations and emitted messages.
    pub local_syncs: u64,
    pub msg_records: u64,
}

impl Span {
    fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Timed<'a, A> {
    inner: &'a A,
    epoch: Instant,
    workers: usize,
    lanes: Vec<Mutex<Vec<Span>>>,
}

impl<'a, A: AsyncIterative> Timed<'a, A> {
    /// Wraps `inner` for one run on a pool with `workers` threads.
    pub fn new(inner: &'a A, workers: usize) -> Self {
        Timed {
            inner,
            epoch: Instant::now(),
            workers,
            lanes: (0..=workers).map(|_| Mutex::new(Vec::with_capacity(4096))).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> usize {
        match current_worker() {
            Some(w) if w < self.workers => w,
            _ => self.workers,
        }
    }

    fn record(&self, span: Span) {
        self.lanes[span.lane as usize].lock().expect("span lane poisoned").push(span);
    }

    /// Ends recording: the spans of every lane, lane by lane.
    pub fn into_spans(self) -> Vec<Vec<Span>> {
        self.lanes.into_iter().map(|l| l.into_inner().expect("span lane poisoned")).collect()
    }
}

impl<A: AsyncIterative> AsyncIterative for Timed<'_, A> {
    type State = A::State;
    type Update = A::Update;
    type Msg = A::Msg;

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn dependencies(&self, p: usize) -> Dependence {
        self.inner.dependencies(p)
    }

    fn init_state(&self, p: usize) -> A::State {
        self.inner.init_state(p)
    }

    fn gmap(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        outbox: &mut Outbox<A::Msg>,
    ) -> GmapOutput<A::Update> {
        let lane = self.lane();
        let start_ns = self.now_ns();
        let out = self.inner.gmap(p, iteration, state, outbox);
        let end_ns = self.now_ns();
        self.record(Span {
            kind: Kind::Gmap,
            partition: p as u32,
            iteration: iteration as u32,
            lane: lane as u16,
            start_ns,
            end_ns,
            ops: out.ops,
            local_syncs: out.local_syncs,
            msg_records: out.msg_records,
        });
        out
    }

    fn absorb(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        update: A::Update,
        inbox: &[(usize, &[A::Msg])],
    ) -> Absorbed<A::State> {
        let lane = self.lane();
        let start_ns = self.now_ns();
        let out = self.inner.absorb(p, iteration, state, update, inbox);
        let end_ns = self.now_ns();
        self.record(Span {
            kind: Kind::Absorb,
            partition: p as u32,
            iteration: iteration as u32,
            lane: lane as u16,
            start_ns,
            end_ns,
            ops: out.ops,
            local_syncs: 0,
            msg_records: 0,
        });
        out
    }

    fn converged(&self, max_delta: f64) -> bool {
        self.inner.converged(max_delta)
    }

    fn state_bytes(&self, state: &A::State) -> u64 {
        self.inner.state_bytes(state)
    }
}

/// What the spans of one traced session solve add up to.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    pub gmap_calls: usize,
    pub gmap_busy: Duration,
    pub gmap_ops: u64,
    pub local_syncs: u64,
    pub msg_records: u64,
    pub absorb_calls: usize,
    pub absorb_busy: Duration,
    /// The calling thread's gmap + absorb time.
    pub caller_busy: Duration,
    pub lanes: usize,
}

impl SpanSummary {
    pub fn of(spans: &[Vec<Span>]) -> Self {
        let caller = spans.len() - 1;
        let mut s = SpanSummary { lanes: spans.len(), ..Default::default() };
        let (mut gmap_ns, mut absorb_ns, mut caller_ns) = (0u64, 0u64, 0u64);
        for (lane, buf) in spans.iter().enumerate() {
            for span in buf {
                match span.kind {
                    Kind::Gmap => {
                        s.gmap_calls += 1;
                        gmap_ns += span.busy_ns();
                        s.gmap_ops += span.ops;
                        s.local_syncs += span.local_syncs;
                        s.msg_records += span.msg_records;
                    }
                    Kind::Absorb => {
                        s.absorb_calls += 1;
                        absorb_ns += span.busy_ns();
                    }
                }
                if lane == caller {
                    caller_ns += span.busy_ns();
                }
            }
        }
        s.gmap_busy = Duration::from_nanos(gmap_ns);
        s.absorb_busy = Duration::from_nanos(absorb_ns);
        s.caller_busy = Duration::from_nanos(caller_ns);
        s
    }

    /// Every gmap call the session made is accounted for by its report:
    /// kept, speculative past convergence, or a failed attempt.
    pub fn check_call_identity(&self, report: &SessionReport) -> Result<(), String> {
        let accounted = report.gmap_tasks + report.speculative_tasks + report.failed_attempts;
        if self.gmap_calls == accounted {
            Ok(())
        } else {
            Err(format!(
                "gmap calls {} != gmap_tasks {} + speculative_tasks {} + failed_attempts {}",
                self.gmap_calls,
                report.gmap_tasks,
                report.speculative_tasks,
                report.failed_attempts
            ))
        }
    }

    /// Busy time cannot exceed what the lanes could run in `wall`.
    pub fn check_lane_bound(&self, wall: Duration) -> Result<(), String> {
        let busy = self.gmap_busy + self.absorb_busy;
        let cap = wall * self.lanes as u32;
        if busy <= cap {
            Ok(())
        } else {
            Err(format!(
                "gmap + absorb busy {:.6} s > {} lanes x wall {:.6} s",
                busy.as_secs_f64(),
                self.lanes,
                wall.as_secs_f64()
            ))
        }
    }
}

/// Writes the spans as CSV, one row per call.
pub fn write_spans(path: &Path, spans: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind,partition,iteration,lane,start_ns,end_ns,ops")?;
    for span in spans.iter().flatten() {
        let kind = match span.kind {
            Kind::Gmap => "gmap",
            Kind::Absorb => "absorb",
        };
        writeln!(
            out,
            "{kind},{},{},{},{},{},{}",
            span.partition, span.iteration, span.lane, span.start_ns, span.end_ns, span.ops
        )?;
    }
    out.flush()
}
