//! What the benchmark can read about the box it runs on: enough to tell,
//! after the fact, whether a run shared its two cores with something.

use std::path::Path;

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Hypervisor steal time so far, ms (the `cpu` line of `/proc/stat`,
/// eighth field, in 10 ms ticks).
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok())))
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// CPU time this process (every thread, the in-process daemon included)
/// has used so far, µs: `utime + stime` of `/proc/self/stat`.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name, which may hold spaces
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let field = |i: usize| after.split_whitespace().nth(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (field(11) + field(12)) * 10_000.0
}

/// Peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `dir` lives on: the longest mount point of
/// `/proc/mounts` that prefixes it.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// CPUs this process could run on when it first asked — before any
/// workload confined it.
pub fn nproc() -> usize {
    static AT_START: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AT_START.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A CPU set as `sched_setaffinity(2)` takes it: bit `n` is CPU `n`.
pub type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread is allowed on, if the kernel will say.
pub fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc >= 0).then_some(mask)
}

/// Confines the calling thread — and every thread it spawns from here
/// on — to `mask`. Returns whether the kernel accepted it.
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live, readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The mask holding only `cpu`.
fn only(cpu: usize) -> CpuMask {
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    one
}

/// The CPUs of `mask`, ascending.
fn cpus_of(mask: &CpuMask) -> Vec<usize> {
    (0..mask.len() * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Where the threads of a daemon workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the in-process daemon's threads.
    pub daemon_cpu: usize,
    /// CPU of the load thread (the plugin's client).
    pub client_cpu: usize,
}

impl Placement {
    /// The placement within `allowed`: the daemon on the highest-numbered
    /// CPU, the client beside it when `apart` is false, on the
    /// lowest-numbered one when it is true (on the reference box the two
    /// CPUs measured alike). `None` when `allowed` is empty.
    pub fn within(allowed: &CpuMask, apart: bool) -> Option<Placement> {
        let cpus = cpus_of(allowed);
        let (first, last) = (*cpus.first()?, *cpus.last()?);
        Some(Placement { daemon_cpu: last, client_cpu: if apart { first } else { last } })
    }

    /// Confines the calling thread, and every thread it spawns from here
    /// on, to the daemon's CPU.
    pub fn enter_daemon(&self) -> Result<(), String> {
        confine_to(self.daemon_cpu)
    }

    /// Confines the calling thread to the client's CPU.
    pub fn enter_client(&self) -> Result<(), String> {
        confine_to(self.client_cpu)
    }
}

fn confine_to(cpu: usize) -> Result<(), String> {
    if set_affinity(&only(cpu)) {
        Ok(())
    } else {
        Err(format!("the kernel refused to confine the thread to cpu {cpu}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_picks_the_outermost_cpus() {
        let mut mask: CpuMask = [0; 16];
        assert_eq!(Placement::within(&mask, true), None);
        mask[0] = 0b0110;
        mask[1] = 0b1;
        assert_eq!(Placement::within(&mask, true), Some(Placement { daemon_cpu: 64, client_cpu: 1 }));
        assert_eq!(Placement::within(&mask, false), Some(Placement { daemon_cpu: 64, client_cpu: 64 }));
        mask[1] = 0;
        mask[0] = 0b0100;
        assert_eq!(Placement::within(&mask, true), Some(Placement { daemon_cpu: 2, client_cpu: 2 }));
        assert_eq!(cpus_of(&only(70)), vec![70]);
    }

    #[test]
    fn confining_and_restoring_round_trips() {
        let Some(before) = affinity() else { return };
        let place = Placement::within(&before, false).expect("the test runs on some CPU");
        assert_eq!(place.enter_daemon(), Ok(()));
        assert_eq!(affinity(), Some(only(place.daemon_cpu)));
        assert!(set_affinity(&before));
        assert_eq!(affinity(), Some(before));
    }
}
