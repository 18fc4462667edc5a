//! The benchmark's own arithmetic: percentiles that refuse to speak
//! without a tail to stand on, open-loop latency accounting, paired
//! differences and span self times. Everything here is pure so the unit
//! tests below pin it down.

/// Samples that must lie strictly beyond a quoted percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..1) of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond the selected rank. The median
/// of fewer than 21 samples is refused for the same reason.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank: the smallest rank r with r/n >= q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median without the tail requirement (for small sets of repeated
/// whole-run measurements such as set-up time).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One request of an open-loop schedule, in seconds since the run
/// started: when it was due, when it was actually written, and when its
/// reply arrived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub intended: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as the user sees it: from the intended send time, so a
    /// request that waited behind a stalled one is charged that wait.
    pub fn latency(&self) -> f64 {
        self.done - self.intended
    }

    /// How late the generator put the request on the wire.
    pub fn send_lag(&self) -> f64 {
        self.sent - self.intended
    }
}

/// A source of time for [`run_lane`]: the wall clock in the benchmark,
/// a virtual one in tests.
pub trait Clock {
    /// Seconds since the run started.
    fn now(&mut self) -> f64;
    /// Block until `t` (returns at once if `t` has passed).
    fn sleep_until(&mut self, t: f64);
}

/// Drive one connection through its share of an open-loop schedule:
/// each request is sent at its intended time or, if the connection is
/// still busy with an earlier one, as soon as it frees up. `send`
/// performs the request and reports whether it succeeded.
pub fn run_lane<C: Clock, T>(
    clock: &mut C,
    schedule: &[(f64, T)],
    mut send: impl FnMut(&mut C, &T) -> bool,
) -> Vec<(Timing, bool)> {
    let mut out = Vec::with_capacity(schedule.len());
    for (intended, op) in schedule {
        clock.sleep_until(*intended);
        let sent = clock.now();
        let ok = send(clock, op);
        let done = clock.now();
        out.push((
            Timing {
                intended: *intended,
                sent,
                done,
            },
            ok,
        ));
    }
    out
}

/// Median of the paired differences `a[i] - b[i]`. Pairs are taken
/// back to back (alternating which side goes first), so drift over the
/// run lands on both sides of each pair and cancels in the difference.
pub fn paired_median_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must match");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&diffs)
}

/// One span of a traced request: a layer name, its interval and the
/// index of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent). Over a well-nested tree the self times sum to
/// the root's duration.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples leave only nine beyond the p99 rank.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // A median of 20 samples has exactly ten beyond it.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 7919) % 200)).collect();
        let a = percentile(&v, 0.9);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile_sorted(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// A virtual clock: sleeping jumps forward, each request costs the
    /// service time the test scripts for it.
    struct Virtual(f64);

    impl Clock for Virtual {
        fn now(&mut self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        // Requests due every 10 ms; each takes 1 ms except the third,
        // which stalls for 45 ms.
        let schedule: Vec<(f64, f64)> = (0..6)
            .map(|i| (i as f64 * 0.010, if i == 2 { 0.045 } else { 0.001 }))
            .collect();
        let out = run_lane(&mut Virtual(0.0), &schedule, |c, service| {
            c.0 += service;
            true
        });
        let lat: Vec<f64> = out.iter().map(|(t, _)| t.latency()).collect();
        let lag: Vec<f64> = out.iter().map(|(t, _)| t.send_lag()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(lat[0], 0.001) && close(lat[1], 0.001));
        assert!(close(lat[2], 0.045));
        // Due at 30 ms, sent at 65 ms when the stall cleared: charged 36 ms,
        // where timing from the send would report 1 ms.
        assert!(close(lag[3], 0.035) && close(lat[3], 0.036));
        assert!(close(lag[4], 0.026) && close(lat[4], 0.027));
        assert!(close(lag[5], 0.017) && close(lat[5], 0.018));
        assert!(out.iter().all(|(t, _)| t.sent >= t.intended));
    }

    #[test]
    fn open_loop_does_not_send_early() {
        let schedule = [(0.5, ()), (0.7, ())];
        let out = run_lane(&mut Virtual(0.0), &schedule, |c, _| {
            c.0 += 0.01;
            true
        });
        assert_eq!(out[0].0.sent, 0.5);
        assert_eq!(out[1].0.sent, 0.7);
        assert!(out.iter().all(|(t, _)| t.send_lag() == 0.0));
    }

    #[test]
    fn paired_difference_cancels_shared_drift() {
        // Both sides drift upward together; the routed side costs 30 more.
        let direct: Vec<f64> = (0..21).map(|i| 100.0 + 5.0 * i as f64).collect();
        let routed: Vec<f64> = direct.iter().map(|d| d + 30.0).collect();
        assert_eq!(paired_median_diff(&routed, &direct), 30.0);
        // Unpaired medians would mix the drift into the answer only if
        // the sides were sampled at different times; pairing is exact.
        let mut noisy = routed.clone();
        noisy[3] += 500.0;
        assert_eq!(paired_median_diff(&noisy, &direct), 30.0);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        // root [0,10]: queue [0,2], step [2,9] { select [2,6] { solve [3,5] },
        // search [6,8] }, append [9,9.5]
        let spans = vec![
            Span {
                layer: "root",
                parent: None,
                start: 0.0,
                end: 10.0,
            },
            Span {
                layer: "queue",
                parent: Some(0),
                start: 0.0,
                end: 2.0,
            },
            Span {
                layer: "step",
                parent: Some(0),
                start: 2.0,
                end: 9.0,
            },
            Span {
                layer: "select",
                parent: Some(2),
                start: 2.0,
                end: 6.0,
            },
            Span {
                layer: "solve",
                parent: Some(3),
                start: 3.0,
                end: 5.0,
            },
            Span {
                layer: "search",
                parent: Some(2),
                start: 6.0,
                end: 8.0,
            },
            Span {
                layer: "append",
                parent: Some(0),
                start: 9.0,
                end: 9.5,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![0.5, 2.0, 1.0, 2.0, 2.0, 2.0, 0.5]);
        let total: f64 = st.iter().sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            Span {
                layer: "root",
                parent: None,
                start: 0.0,
                end: 10.0,
            },
            Span {
                layer: "a",
                parent: Some(0),
                start: 1.0,
                end: 5.0,
            },
            Span {
                layer: "b",
                parent: Some(0),
                start: 3.0,
                end: 7.0,
            },
            // Sticks out past the root: only the inside part counts.
            Span {
                layer: "c",
                parent: Some(0),
                start: 9.0,
                end: 12.0,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 6.0 - 1.0);
    }
}
