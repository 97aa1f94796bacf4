//! What ran where: the host block every result file carries, the fixed
//! calibration kernel that makes numbers from different hosts comparable
//! without mixing them, the cost of reading the clock, the thread's CPU
//! clock, and peak memory.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::stats::median;

/// Bytes the calibration kernel moves: one 273-PRB BFP9 U-plane frame.
pub const CALIB_BYTES: usize = 7_680;

/// Identity of the host and the build, recorded once per result file.
#[derive(Debug, Clone)]
pub struct HostBlock {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, `-dirty` appended
    /// when the tree has uncommitted changes; `unknown` outside a clone.
    pub commit: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    // `output` waits for the child, so no process outlives this call.
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string)
}

impl HostBlock {
    /// Probe the current host.
    pub fn probe() -> HostBlock {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = match first_line_of("git", &["rev-parse", "HEAD"]) {
            Some(head) => {
                let dirty = first_line_of("git", &["status", "--porcelain"]).is_some();
                if dirty {
                    format!("{head}-dirty")
                } else {
                    head
                }
            }
            None => "unknown".into(),
        };
        HostBlock {
            nproc: nproc(),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> Value {
        obj([
            ("nproc", (self.nproc as u64).into()),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("commit", self.commit.as_str().into()),
        ])
    }
}

/// Hardware threads available to this process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `harness.calib_ns`: nanoseconds for one pass of the calibration kernel
/// — copy a 7.7 KB buffer and XOR-fold the copy — as the median of 31
/// batches of 200 passes. Every host-dependent time can be divided by
/// it to get a number in kernel-units.
pub fn calib_ns() -> f64 {
    let src: Vec<u8> = (0..CALIB_BYTES).map(|k| (k * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; CALIB_BYTES];
    const PASSES: u32 = 200;
    let mut batches = Vec::with_capacity(31);
    for _ in 0..31 {
        let t0 = Instant::now();
        let mut fold = 0u64;
        for _ in 0..PASSES {
            dst.copy_from_slice(black_box(&src));
            for w in black_box(&dst).chunks_exact(8) {
                fold ^= u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
            }
        }
        black_box(fold);
        batches.push(t0.elapsed().as_nanos() as f64 / f64::from(PASSES));
    }
    median(&batches)
}

/// `harness.clock_ns`: cost of one `Instant::now()`, from back-to-back
/// reads (median of 31 batches of 1 000).
pub fn clock_ns() -> f64 {
    const READS: u32 = 1_000;
    let mut batches = Vec::with_capacity(31);
    for _ in 0..31 {
        let t0 = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        batches.push(t0.elapsed().as_nanos() as f64 / f64::from(READS));
    }
    median(&batches)
}

/// Nanoseconds the calling thread has run on a CPU so far
/// (`CLOCK_THREAD_CPUTIME_ID`), or `None` where that clock does not exist.
///
/// A single-threaded loop that never blocks spends its wall time either
/// running or waiting for a CPU the host keeps from it. On the shared
/// sandbox the second part ("steal" in `/proc/stat`) swings between 1 %
/// and 40 % for minutes at a time while work done per on-CPU second stays
/// within 2 %, so the service-time phase divides this clock, not the wall
/// clock, by its frames.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of 64-bit Linux: `time_t` and `long` are both
        /// 64 bits wide.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` of the C library std already links
        // writes one `struct timespec` through the pointer, which points
        // to a live, exclusively borrowed value of that layout, and keeps
        // nothing.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return u64::try_from(ts.tv_sec)
                .ok()?
                .checked_mul(1_000_000_000)?
                .checked_add(u64::try_from(ts.tv_nsec).ok()?);
        }
    }
    None
}

/// [`thread_cpu_ns`]; where that clock is missing, wall-clock nanoseconds
/// since the first call. For differences taken on one thread.
pub fn busy_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    thread_cpu_ns()
        .unwrap_or_else(|| EPOCH.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64)
}

/// `peak_rss_mib`: the process's `VmHWM` (peak resident set) in MiB, or
/// `None` where `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_positive_and_finite() {
        assert!(nproc() >= 1);
        let c = calib_ns();
        assert!(c.is_finite() && c > 0.0, "{c}");
        let k = clock_ns();
        assert!(k.is_finite() && k > 0.0, "{k}");
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
        if let (Some(a), Some(b)) = (thread_cpu_ns(), thread_cpu_ns()) {
            assert!(b >= a, "a thread's CPU clock never runs backwards");
        }
        let h = HostBlock::probe();
        assert!(h.to_json().get("nproc").is_some());
    }
}
