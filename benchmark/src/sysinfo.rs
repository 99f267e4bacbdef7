//! What the benchmark reads from the machine: process CPU time, resident
//! memory, and the fingerprint stamped into every report.

use std::fs;
use std::path::Path;

use serde_json::{json, Value};

/// Process CPU time (user + system, every thread that ever ran) in
/// microseconds; 0 where it cannot be read.
///
/// `/proc/self/stat` counts in 10 ms ticks, which is 2 % of a half-second
/// segment and far more of the CPU a few hundred cheap ops use in one, so
/// on 64-bit Linux the process CPU-time clock is read instead.
pub fn process_cpu_us() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of every 64-bit Linux ABI.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable, correctly laid out `timespec`
        // for the duration of the call, which writes nothing else.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3;
        }
    }
    proc_stat_cpu_us()
}

/// The fallback: `utime` + `stime` of `/proc/self/stat`, in `USER_HZ`
/// ticks, which is 100 on every architecture Linux supports.
fn proc_stat_cpu_us() -> f64 {
    const TICK_US: f64 = 10_000.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name may hold spaces and parentheses; fields are
    // counted from after its closing one. utime and stime are fields 14
    // and 15, so 11 and 12 counting from the state field.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick() + tick()) as f64 * TICK_US
}

/// Resident set size in MiB from `/proc/self/status`; 0 where missing.
pub fn rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands freed heap pages back to the kernel, so that what set-up
/// allocated and dropped (the corpus, the as-built index, the serialized
/// bytes) does not read as resident while the workload runs. glibc keeps
/// freed memory in its arenas otherwise, and `rss_mib` would mostly be
/// the high-water mark of set-up.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and has no
        // preconditions; glibc documents it as safe to call from any
        // thread at any time. Its result (whether memory was released)
        // is only informational.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Bytes of every regular file directly under `dir` (the live index keeps
/// a flat directory).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

fn simd_level() -> &'static str {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if is_x86_feature_detected!("ssse3") {
            return "ssse3";
        }
        if is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "scalar"
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Machine fingerprint: timings compare only across reports whose
/// fingerprints agree.
pub fn machine() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    json!({
        "nproc": nproc,
        "cpu_model": first_line_value("/proc/cpuinfo", "model name"),
        "simd": simd_level(),
        "kernel": fs::read_to_string("/proc/sys/kernel/osrelease").ok().map(|s| s.trim().to_string()),
        "rustc": rustc,
    })
}
