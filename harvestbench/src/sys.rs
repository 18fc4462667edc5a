//! Process accounting: CPU time from `getrusage` (microsecond
//! resolution, so no clock-tick steps) and peak resident memory from
//! `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn cpu(who: i32) -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and `who` is one of the two values the
    // kernel accepts for the calling process or thread.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&usage.utime) + us(&usage.stime))
}

/// CPU time of this whole process, threads that already exited included.
pub fn process_cpu() -> Duration {
    cpu(RUSAGE_SELF)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu(RUSAGE_THREAD)
}

/// Peak resident set (`VmHWM`) of a process, in kB.
pub fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Worker and connection budget: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_has_sub_tick_resolution() {
        let t0 = thread_cpu();
        let mut x = 0u64;
        while thread_cpu() - t0 < Duration::from_millis(3) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = thread_cpu() - t0;
        assert!(spent >= Duration::from_millis(3));
        // A 10 ms scheduler tick would have jumped straight past 10 ms.
        assert!(spent < Duration::from_millis(10), "{spent:?}");
        assert!(process_cpu() >= spent);
        assert!(peak_rss_kb(std::process::id()) > 0);
    }
}
