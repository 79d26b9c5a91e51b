//! Small shared helpers: order statistics, `/proc` readers, a seeded
//! shuffle, and the few libc calls the harness needs.

use std::time::Instant;
use symbio_workloads::SplitMix64;

/// Linear-interpolated quantile of an ascending-sorted slice (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// `(q1, median, q3)` of an unsorted sample by the "exclusive" method
/// (the `p`-th quantile sits at rank `p * (n + 1)`), which is what
/// Python's `statistics.quantiles(values, n=4)` — and so the driver that
/// judges this benchmark's spread — computes.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let at = |p: f64| {
        let rank = (p * (s.len() + 1) as f64).clamp(1.0, s.len() as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (rank - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Seconds since `t0` as a float.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread or child process it
/// starts afterwards — to CPUs `cpus` (indices below 1024). See
/// `daemon::on_daemon_cores` for what the benchmark uses it for.
pub fn pin_to_cpus(cpus: std::ops::Range<usize>) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, correctly sized `cpu_set_t` (1024 bits)
    // that the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Let the calling thread's sleeps end within about a microsecond of
/// their deadline instead of the default 50 µs timer slack, so the
/// open-loop pacer can sleep almost up to each due time and spin only
/// briefly — a pacer that spins for long takes a core from the daemon
/// it is measuring.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes integers only and
    // changes one scheduling attribute of the calling thread. A failure
    // leaves the default slack, which costs accuracy, not correctness.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: i32,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// `POLLIN` from `<poll.h>`.
pub const POLLIN: i16 = 0x001;

/// Block until one of `fds` is readable or `timeout_ms` elapses; returns
/// how many are ready. The open-loop receiver uses this so one thread
/// can wait on both connections without spinning (std has no readiness
/// API and the repo's epoll binding is private to `symbio-serve`).
pub fn poll_readable(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `repr(C)`
    // `pollfd` records and `nfds` is its exact length; `poll` writes only
    // the `revents` field of those records.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Kernel clock ticks per second (`_SC_CLK_TCK`): the unit of the
/// `utime`/`stime` fields in `/proc/<pid>/stat`.
fn clock_ticks_per_sec() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes a plain integer selector and returns a
    // value; it touches no memory of ours.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds a process (all threads, exited ones
/// included) has consumed, from `/proc/<pid>/stat`. An error once the
/// process is gone.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let parse = || {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // The command name (field 2) may contain spaces; fields resume
        // after the closing parenthesis, at field 3 (state), which makes
        // utime and stime (fields 14 and 15) indices 11 and 12.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / clock_ticks_per_sec())
    };
    parse().ok_or_else(|| format!("cannot read the CPU time of process {pid}"))
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let parse = || {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    parse().ok_or_else(|| format!("cannot read the peak RSS of process {pid}"))
}

/// Cores the generator may use; every thread count in the harness is
/// set explicitly against this (`symbio::parallel::default_threads()`
/// is `nproc - 1`, which is 1 on the 2-core reference box).
pub fn nproc() -> usize {
    // Read once: `available_parallelism` follows the thread's affinity,
    // which the open-loop workload narrows later.
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn own_proc_entries_parse() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_ok());
        assert!(peak_rss_mb(me).is_ok_and(|mb| mb > 0.5));
    }
}
