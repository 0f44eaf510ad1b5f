//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the description of the box a result came from.

use std::fs;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

extern "C" {
    /// libc `clock_gettime(2)`.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of this process (all threads, exited ones
/// included), in microseconds. `None` where the clock is not supported.
pub fn cpu_micros() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `struct timespec` of the 64-bit Linux layout
    // (two 64-bit fields); the call writes it and retains no pointer.
    let ok = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) } == 0;
    ok.then(|| ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3)
}

/// Steps in one reading of the yardstick.
const YARDSTICK_STEPS: u32 = 200_000;

/// The step time at which every time of an end-to-end metric is quoted:
/// about what the yardstick reads on the reference box when its neighbours
/// are quiet. It only fixes the scale of the numbers; comparisons are ratios
/// and do not depend on it.
pub const REFERENCE_STEP_NS: f64 = 60.0;

/// Nanoseconds one step of the yardstick takes right now: a dependent chain
/// of pseudo-random read-modify-writes over a 4 MiB table, which misses the
/// core's own caches the way the engines' pointer chasing does.
///
/// The box is a shared virtual machine whose speed moves by a tenth to a
/// half for minutes at a time: with times as taken, ten consecutive runs of
/// `wire_point` spread by a third to a half, and the median set-up time of
/// `shard_mixed` moved by 36 % between two batches a quarter of an hour apart
/// (`results/BENCH_0.json`, `times_as_taken`), which no bound survives. Every round
/// therefore reads this yardstick around and within its measured region, and
/// a run quotes its times at [`REFERENCE_STEP_NS`]: each round's times are
/// multiplied by the reference over the round's own mean reading. The
/// reading is reported (`box.step_ns`), so the time as taken can be had back.
/// The yardstick is benchmark code, so no change under test can move it.
pub fn yardstick_step_ns() -> f64 {
    const WORDS: usize = 1 << 19;
    static TABLE: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
    let mut table = TABLE.lock().unwrap_or_else(|p| p.into_inner());
    if table.is_empty() {
        table.extend(0..WORDS as u64);
    }
    let started = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..YARDSTICK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize % WORDS];
        *slot = slot.wrapping_mul(31).wrapping_add(x);
        x = x.wrapping_add(*slot);
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64 / YARDSTICK_STEPS as f64
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

fn proc_value(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The box description a ledger entry is disclosed with, as `(key, value)`.
pub fn box_info() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        (
            "cpu_model",
            proc_value("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        (
            "ram",
            proc_value("/proc/meminfo", "MemTotal").unwrap_or_else(unknown),
        ),
        (
            "kernel",
            fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        ),
        (
            "rustc",
            first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "commit",
            first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let Some(before) = cpu_micros() else { return };
        let mut x = 0u64;
        while cpu_micros().unwrap() < before + 20_000.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
