//! Clocks and host probes.
//!
//! End-to-end timings use the calling thread's on-CPU clock
//! (`CLOCK_THREAD_CPUTIME_ID`). On a shared virtual machine wall time
//! also absorbs hypervisor steal, which the thread clock (with the
//! kernel's steal accounting) leaves out. That clock is only valid because
//! every workload runs on one thread; a workload that hands work to a pool
//! must time with wall clock instead.

use std::time::Instant;

/// Nanoseconds of CPU time consumed by the calling thread.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel always accepts, so the call writes only inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback off Linux: monotonic wall time since the first call.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    wall_ns()
}

/// Monotonic wall nanoseconds since the first call (span clock).
pub fn wall_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Rows and columns of the probe's dense matrix (2 MiB).
const PROBE_ROWS: usize = 256;
const PROBE_COLS: usize = 1024;

/// A fixed kernel, timed before every pass to gauge how fast the host runs
/// at that moment: sums of random rows of a 2 MiB matrix and scattered
/// 64-byte reads over a 4 MiB array, the access patterns of the dense
/// and implicit metrics. Returns its on-CPU nanoseconds. Its arrays are
/// built before and freed after the timed part, so that they are not
/// resident while a pass runs (see [`reset_peak_rss`]).
pub fn probe_ns() -> u64 {
    let matrix: Vec<f64> = (0..PROBE_ROWS * PROBE_COLS)
        .map(|i| 1.0 + (i % 977) as f64 * 1e-3)
        .collect();
    let scattered: Vec<f64> = (0..1usize << 19)
        .map(|i| (i % 1013) as f64 * 1e-3)
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let start = thread_cpu_ns();
    let mut acc = vec![0.0; PROBE_COLS];
    for _ in 0..256 {
        let row = (next() % PROBE_ROWS as u64) as usize;
        for (a, x) in acc
            .iter_mut()
            .zip(&matrix[row * PROBE_COLS..][..PROBE_COLS])
        {
            *a += x;
        }
    }
    let mut sum = 0.0;
    for _ in 0..100_000 {
        let at = (next() % (scattered.len() - 8) as u64) as usize;
        let d: f64 = scattered[at..at + 8]
            .iter()
            .map(|x| (x - 0.5) * (x - 0.5))
            .sum();
        sum += d.sqrt();
    }
    std::hint::black_box((acc, sum));
    thread_cpu_ns() - start
}

/// Interference counters read at the start and end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Steal ticks summed over all CPUs (`/proc/stat`).
    steal_ticks: u64,
    /// This thread's on-CPU and run-queue-wait nanoseconds
    /// (`/proc/thread-self/schedstat`).
    oncpu_ns: u64,
    runq_ns: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().next()?.to_owned();
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        let (oncpu_ns, runq_ns) = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| {
                let mut f = s.split_whitespace().map(|x| x.parse::<u64>().ok());
                Some((f.next()??, f.next()??))
            })
            .unwrap_or((0, 0));
        HostSample {
            steal_ticks,
            oncpu_ns,
            runq_ns,
        }
    }
}

/// Interference over one run.
#[derive(Debug, Clone, Copy)]
pub struct HostDelta {
    pub steal_s: f64,
    pub runq_wait_s: f64,
    pub oncpu_s: f64,
}

impl HostDelta {
    pub fn between(a: HostSample, b: HostSample) -> Self {
        // USER_HZ is 100 on every mainstream Linux build.
        HostDelta {
            steal_s: b.steal_ticks.saturating_sub(a.steal_ticks) as f64 / 100.0,
            runq_wait_s: b.runq_ns.saturating_sub(a.runq_ns) as f64 * 1e-9,
            oncpu_s: b.oncpu_ns.saturating_sub(a.oncpu_ns) as f64 * 1e-9,
        }
    }
}

/// Restarts the peak resident set (`VmHWM`) from the current one, so that
/// a later [`peak_rss_mib`] covers only what ran in between. Without
/// `/proc/self/clear_refs` the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB, or 0 when unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision when run inside a git working tree (read
/// from `.git` directly, no subprocess), else `"unknown"`.
pub fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
