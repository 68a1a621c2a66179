//! Process accounting: CPU clocks, resource usage and `/proc` readings
//! for the process under test (this process, or the `simcov serve`
//! child).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("simbench reads Linux /proc and 64-bit libc structures");

/// User plus system CPU time of this whole process (all threads,
/// including exited ones), at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on this target) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The slice of `getrusage(RUSAGE_SELF)` the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// System (kernel) CPU time.
    pub sys: Duration,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Resource usage of this process so far.
pub fn usage() -> Usage {
    // SAFETY: all-zero bytes are a valid `Rusage` (plain integers).
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` matches the kernel's 64-bit `struct rusage` layout and
    // is writable for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    Usage {
        sys: Duration::from_secs(ru.ru_stime.tv_sec as u64)
            + Duration::from_micros(ru.ru_stime.tv_usec as u64),
        minor_faults: ru.ru_minflt as u64,
    }
}

fn clock_ticks_per_sec() -> f64 {
    // SAFETY: `sysconf` takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// A process as seen through `/proc/<pid>` (`pid` may be `"self"`).
#[derive(Debug, Clone)]
pub struct Proc {
    pid: String,
}

impl Proc {
    /// This process.
    pub fn this() -> Proc {
        Proc {
            pid: "self".to_string(),
        }
    }

    /// Another process by id.
    pub fn pid(pid: u32) -> Proc {
        Proc {
            pid: pid.to_string(),
        }
    }

    fn path(&self, file: &str) -> String {
        format!("/proc/{}/{file}", self.pid)
    }

    /// Resets the peak-RSS high-water mark (`VmHWM`) to the current RSS.
    pub fn reset_peak_rss(&self) -> Result<(), String> {
        std::fs::write(self.path("clear_refs"), "5")
            .map_err(|e| format!("cannot reset {}: {e}", self.path("clear_refs")))
    }

    fn status_kb(&self, field: &str) -> Result<u64, String> {
        let status = std::fs::read_to_string(self.path("status"))
            .map_err(|e| format!("cannot read {}: {e}", self.path("status")))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no `{field}` in {}", self.path("status")))
    }

    /// Peak resident set size since the last reset, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(self.status_kb("VmHWM:")? as f64 / 1024.0)
    }

    /// Current thread count.
    pub fn threads(&self) -> Result<u64, String> {
        self.status_kb("Threads:")
    }

    /// User plus system CPU seconds consumed so far, at clock-tick
    /// resolution.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(self.path("stat"))
            .map_err(|e| format!("cannot read {}: {e}", self.path("stat")))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat line")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| format!("malformed stat field {i}"))
        };
        // `rest` starts at field 3 (state), so utime is index 11.
        Ok((tick(11)? + tick(12)?) / clock_ticks_per_sec())
    }
}

/// The machine-wide CPU time counters of `/proc/stat`'s `cpu` line.
pub struct CpuTimes(Vec<u64>);

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        line.split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<Vec<u64>>>()
            .map(CpuTimes)
    }

    /// Percentage of CPU time since `earlier` that the hypervisor gave to
    /// other guests (`steal`, the eighth field).
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> Option<f64> {
        let delta: Vec<u64> = self
            .0
            .iter()
            .zip(&earlier.0)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let total: u64 = delta.iter().sum();
        let steal = *delta.get(7)?;
        (total > 0).then(|| 100.0 * steal as f64 / total as f64)
    }
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let me = Proc::this();
        me.reset_peak_rss()
            .expect("clear_refs is writable for our own process");
        assert!(me.peak_rss_mb().unwrap() > 0.0);
        assert!(me.threads().unwrap() >= 1);
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu() > before);
        assert!(me.cpu_s().unwrap() >= 0.0);
        assert!(usage().minor_faults > 0);
    }
}
