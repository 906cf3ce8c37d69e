//! What the host is and what the process has used, read from the
//! kernel's files (absent files read as `None`) and CPU-time clocks.

use std::fs;
use std::time::Duration;

/// Clock ticks per second in `/proc/stat` (Linux's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

pub struct Host {
    pub nproc: usize,
    pub workers: usize,
    pub profile: &'static str,
    pub llc: Option<String>,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Host {
            nproc,
            // The calling thread runs gmaps too, so `nproc - 1` workers
            // keep the process at `nproc` runnable threads.
            workers: nproc.saturating_sub(1).max(1),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            llc: last_level_cache(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_workers\": {}, \"profile\": \"{}\", \"llc\": \"{}\"}}",
            self.nproc,
            self.workers,
            self.profile,
            self.llc.as_deref().unwrap_or("unknown")
        )
    }
}

/// Size of the highest-level cache of CPU 0, e.g. `"L3 32768K"`.
fn last_level_cache() -> Option<String> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for entry in fs::read_dir(dir).ok()? {
        let path = entry.ok()?.path();
        let read = |f: &str| fs::read_to_string(path.join(f)).ok().map(|s| s.trim().to_string());
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.parse::<u32>() else { continue };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map(|(level, size)| format!("L{level} {size}"))
}

/// Process high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU time charged to the whole process (every thread, live or
/// exited) or to the calling thread. This is the scheduler's run time:
/// time a virtual CPU spent stolen by the hypervisor, or a thread spent
/// parked or waiting for a CPU, is not in it.
#[derive(Clone, Copy)]
pub enum CpuClock {
    Process,
    Thread,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

impl CpuClock {
    pub fn now(self) -> Duration {
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
        let id = match self {
            CpuClock::Process => 2,
            CpuClock::Thread => 3,
        };
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({id}) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

/// Time the host's hypervisor took from this machine's CPUs (the
/// `steal` column of `/proc/stat`), summed over CPUs, in seconds.
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}
