//! Load generation shared by the workloads: what a generator lane
//! records, the closed-loop runner and the wall clock of the open loop.
//!
//! Every figure is taken over the whole run. The machine's speed drifts
//! between fast and slow spells lasting seconds to minutes; a per-round
//! median jumps between the two, while whole-run figures move with the
//! share of the run each spell took.

use crate::report::Report;
use crate::stats::{median, Clock};
use crate::sys;
use crate::world::Outcome;
use std::time::{Duration, Instant};

/// What one generator lane (a thread, with its own connection when the
/// system is served) saw.
#[derive(Default)]
pub struct Lane {
    /// `(work index, outcome)`; `None` when an op of the session failed.
    pub outcomes: Vec<(usize, Option<Outcome>)>,
    /// Step request latencies, seconds (a failed step is infinite).
    pub step_s: Vec<f64>,
    /// Open loop: how late each request was sent, seconds.
    pub lag_s: Vec<f64>,
    /// Steps that advanced a harvest.
    pub steps: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Lane {
    pub fn absorb(&mut self, other: Lane) {
        self.outcomes.extend(other.outcomes);
        self.step_s.extend(other.step_s);
        self.lag_s.extend(other.lag_s);
        self.steps += other.steps;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one session op (anything but a step) and whether it failed.
    pub fn op_done(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Wall-clock and system CPU time of a measured window.
pub struct Window {
    pub wall: f64,
    pub cpu: Duration,
}

/// Drive `work` in a closed loop, one thread per client: lane `i` of
/// `clients.len()` takes every item `j` with `j % lanes == i`, in order,
/// and waits for each before the next. Returns the wall time in seconds
/// and every lane's record with the CPU time of the lane's own thread.
pub fn closed_loop<C: Send, W: Sync, L: Default + Send>(
    work: &[W],
    clients: &mut [C],
    run_one: impl Fn(&mut C, usize, &W, &mut L) + Sync,
) -> (f64, Vec<(L, Duration)>) {
    let lanes = clients.len();
    let t0 = Instant::now();
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let run_one = &run_one;
                s.spawn(move || {
                    let c0 = sys::thread_cpu();
                    let mut lane = L::default();
                    for j in (i..work.len()).step_by(lanes) {
                        run_one(client, j, &work[j], &mut lane);
                    }
                    (lane, sys::thread_cpu() - c0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    (t0.elapsed().as_secs_f64(), done)
}

/// The wall clock of an open-loop schedule, in seconds since `.0`.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
    fn sleep_until(&mut self, t: f64) {
        let left = t - self.now();
        if left > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(left));
        }
    }
}

/// Outcomes in work-list order, `None` for sessions that failed.
pub fn ordered(n: usize, lane: &mut Lane) -> Vec<Option<Outcome>> {
    let mut out = vec![None; n];
    for (i, o) in lane.outcomes.drain(..) {
        out[i] = o;
    }
    out
}

impl Report {
    /// The end-to-end metrics of a run: set-up, throughput, CPU and
    /// latency over the measured window, quality, failures and memory.
    #[allow(clippy::too_many_arguments)]
    pub fn push_end_to_end(
        &mut self,
        setup_times: &[f64],
        window: &Window,
        all: &Lane,
        f1: f64,
        finished: usize,
        peak_rss_mb: f64,
        processes: usize,
    ) {
        let steps = all.steps;
        self.push("setup_s", median(setup_times), "s", setup_times.len());
        self.push("steps_per_s", steps as f64 / window.wall, "1/s", steps);
        let cpu_ms = window.cpu.as_secs_f64() * 1e3 / steps.max(1) as f64;
        self.push("cpu_ms_per_step", cpu_ms, "ms", steps);
        self.push_percentile("step_p50_ms", &all.step_s, 0.5, 1e3, "ms");
        // The tail is printed, not gated: on the shared machine this was
        // tuned on it moved by more than any usable bound between runs.
        match crate::stats::percentile(&all.step_s, 0.99) {
            Some(p99) => println!("info step_p99_ms {} (n={})", p99 * 1e3, all.step_s.len()),
            None => println!(
                "info step_p99_ms needs more than {} samples",
                all.step_s.len()
            ),
        }
        self.push("harvest_f1", f1, "f1", finished);
        self.attempted += all.attempted;
        self.failed += all.failed;
        self.push(
            "ok_ratio",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted as usize,
        );
        self.push("peak_rss_mb", peak_rss_mb, "MB", processes);
    }
}
