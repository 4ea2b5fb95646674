//! The two libc calls the harness needs and `std` does not expose:
//! `wait4` (a child's own CPU time and peak RSS, collected as it is
//! reaped) and `getrusage` (this process's CPU time across all threads).
//! Linux, 64-bit — the only platform the benchmark is run on.

use std::process::{Child, ExitStatus};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn cpu_seconds(ru: &Rusage) -> f64 {
    (ru.utime.sec + ru.stime.sec) as f64 + (ru.utime.usec + ru.stime.usec) as f64 / 1e6
}

/// What the kernel accounted to one reaped child.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    pub status: ExitStatus,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size in MB (`ru_maxrss` is kB on Linux).
    pub peak_rss_mb: f64,
}

/// Blocks until `child` exits and returns its exit status with its resource
/// usage. The usage is that child's alone: nothing this process or an
/// earlier child did can leak into it.
pub fn wait_with_usage(child: Child) -> std::io::Result<ChildUsage> {
    use std::os::unix::process::ExitStatusExt as _;
    let pid = i32::try_from(child.id()).expect("pid fits pid_t");
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, correctly laid-out
        // out-parameters for the duration of the call; `pid` is a child of
        // this process that has not been waited for (`child` is consumed
        // here and `Child` never reaps on drop).
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(ChildUsage {
        status: ExitStatus::from_raw(status),
        cpu_s: cpu_seconds(&ru),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    })
}

/// User + system CPU seconds this process has consumed so far, summed over
/// every thread it has run.
pub fn self_cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, correctly laid-out out-parameter.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(r, 0, "getrusage(RUSAGE_SELF) cannot fail");
    cpu_seconds(&ru)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn child_usage_reports_status_and_nonzero_rss() {
        let ok = wait_with_usage(Command::new("true").spawn().unwrap()).unwrap();
        assert!(ok.status.success());
        assert!(ok.peak_rss_mb > 0.0);
        assert!(ok.cpu_s >= 0.0);
        let bad = wait_with_usage(Command::new("false").spawn().unwrap()).unwrap();
        assert_eq!(bad.status.code(), Some(1));
    }

    #[test]
    fn self_cpu_time_advances_with_work() {
        let before = self_cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(self_cpu_seconds() > before);
    }
}
