//! Process counters: CPU time and context switches of the whole process
//! (terminated threads included, via `getrusage`), peak RSS and thread
//! count from `/proc/self/status`; and a host writeback barrier.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sync();
}

const RUSAGE_SELF: i32 = 0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// User + system CPU time.
    pub cpu: Duration,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcStats {
    /// Read the counters now.
    pub fn read() -> ProcStats {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a properly aligned, writable `struct rusage`
        // (the x86_64/aarch64 Linux layout) that outlives the call.
        if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
            return ProcStats::default();
        }
        let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
        ProcStats {
            cpu: tv(&ru.utime) + tv(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }
}

/// Write every dirty page of the host back to disk, so that writeback
/// left by an earlier run (or set-up) is not charged to the next one.
pub fn settle_writeback() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (VmHWM) in MiB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}
