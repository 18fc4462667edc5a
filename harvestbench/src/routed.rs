//! `interactive_routed`: independent users, sent through the router to
//! two shards over one durable store. Open loop: steps arrive as a
//! Poisson process at one fixed total rate, spread over many sessions
//! open at once. Latency is charged from each step's intended send time.

use crate::fleet::{self, Fleet};
use crate::load::{self, Lane, Window};
use crate::report::Report;
use crate::stats::{percentile, run_lane, Timing};
use crate::sys;
use crate::trace::{Input, Plan};
use crate::world::{self, Harvest, Outcome, SELECTORS};
use l2q_service::{Client, ClientError, Request, Response};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Offered load of `interactive_routed`, steps per second: about half
/// the knee measured with `--rate` sweeps (see README.md).
pub const RATE: f64 = 75.0;
/// Fleet starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Single-step requests per interactive session.
const STEPS_PER_SESSION: usize = 3;
/// Sessions open at once in the interactive schedule.
const OPEN_SESSIONS: usize = 32;

/// `count` seeded sessions over the served corpus, each on its own
/// (entity, aspect) pair under a seeded selector.
fn sessions(seed: u64, count: usize) -> Vec<Harvest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_1075);
    let aspects = world::aspect_names();
    let mut keys: Vec<(u32, usize)> = world::targets(fleet::SCALE, seed)
        .into_iter()
        .flat_map(|e| (0..aspects.len()).map(move |a| (e, a)))
        .collect();
    keys.shuffle(&mut rng);
    assert!(
        count <= keys.len(),
        "{count} sessions need more than the {} distinct pairs",
        keys.len()
    );
    keys.into_iter()
        .take(count)
        .map(|(entity, a)| Harvest {
            entity,
            aspect: aspects[a].clone(),
            selector: SELECTORS.choose(&mut rng).expect("selectors"),
            n_queries: STEPS_PER_SESSION,
        })
        .collect()
}

/// The interactive work: sessions, and a Poisson arrival schedule of
/// their step requests as `(seconds, session)` (given the count, Poisson
/// arrival times are uniform order statistics over the run). Sessions
/// are taken in blocks of `OPEN_SESSIONS` whose steps interleave round
/// robin.
pub fn interactive_work(seed: u64, seconds: u64, rate: f64) -> (Vec<Harvest>, Vec<(f64, usize)>) {
    let total = (rate * seconds as f64).round() as usize;
    let n_sessions = total.div_ceil(STEPS_PER_SESSION);
    let work = sessions(seed, n_sessions);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa771_7a15);
    let mut times: Vec<f64> = (0..n_sessions * STEPS_PER_SESSION)
        .map(|_| rng.r#gen::<f64>() * seconds as f64)
        .collect();
    times.sort_by(f64::total_cmp);
    let mut order = Vec::with_capacity(times.len());
    for block in (0..n_sessions).step_by(OPEN_SESSIONS) {
        let open = OPEN_SESSIONS.min(n_sessions - block);
        order.extend((0..open * STEPS_PER_SESSION).map(|j| block + j % open));
    }
    (work, times.into_iter().zip(order).collect())
}

/// A served session op: counted, and a failure reported.
fn op(
    lane: &mut Lane,
    kind: &str,
    f: impl FnOnce() -> Result<Response, ClientError>,
) -> Option<Response> {
    let r = f();
    lane.op_done(r.is_ok());
    r.map_err(|e| eprintln!("{kind} failed: {e}")).ok()
}

/// One single-step request with zero overload retries.
fn step(lane: &mut Lane, client: &mut Client, id: u64) -> bool {
    lane.attempted += 1;
    match client.step(id, 1, 0) {
        Ok(resp) => {
            lane.steps += resp.advanced.unwrap_or(0) as usize;
            true
        }
        Err(e) => {
            lane.failed += 1;
            eprintln!("step failed: {e}");
            false
        }
    }
}

/// Fetch the session's pages and queries, then close it.
fn finish(lane: &mut Lane, client: &mut Client, session: usize, id: u64) {
    let snap = op(lane, "snapshot", || client.snapshot(id));
    let closed = op(lane, "close", || client.close(id)).is_some();
    let out = snap.filter(|_| closed).map(|r| Outcome {
        pages: r.pages.unwrap_or_default(),
        queries: r.queries.unwrap_or_default(),
    });
    lane.outcomes.push((session, out));
}

/// The `create` request of a harvest whose domain is the first `domain`
/// corpus entities.
pub fn create_request(h: &Harvest, domain: usize) -> Request {
    let mut req = Request::op("create");
    req.entity = Some(h.entity);
    req.aspect = Some(h.aspect.clone());
    req.selector = Some(h.selector.into());
    req.n_queries = Some(h.n_queries as u32);
    req.domain_size = Some(domain as u32);
    req
}

fn create(lane: &mut Lane, client: &mut Client, h: &Harvest) -> Option<u64> {
    let req = create_request(h, fleet::SCALE.domain);
    op(lane, "create", || client.request(&req))?.session
}

fn connect(addr: &str) -> Client {
    Client::connect_with(addr, fleet::client_config()).expect("connect to router")
}

/// One lane of the open loop: its share of the schedule, each step
/// request timed from its intended send time.
fn open_lane(
    client: &mut Client,
    ids: &[Option<u64>],
    mine: &[(f64, usize)],
    t0: Instant,
) -> (Lane, Vec<(Timing, bool)>) {
    let mut lane = Lane::default();
    let timings = run_lane(&mut load::Wall(t0), mine, |_, &session| {
        match ids[session] {
            Some(id) => step(&mut lane, client, id),
            None => false,
        }
    });
    (lane, timings)
}

/// Run `body` once per connection, each on its own thread, lane `i`
/// taking the sessions `s` with `s % lanes == i`.
fn each_lane<T: Send>(
    clients: &mut [Client],
    body: impl Fn(usize, &mut Client, &mut Lane) -> T + Sync,
) -> Vec<(Lane, T)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let body = &body;
                s.spawn(move || {
                    let mut lane = Lane::default();
                    let out = body(i, client, &mut lane);
                    (lane, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator lane panicked"))
            .collect()
    })
}

/// The open loop. Sessions are created before the schedule starts and
/// finished (pages fetched, closed) after it ends, on the same `nproc`
/// connections, so the measured window holds step requests only.
fn interactive_window(
    fleet: &mut Fleet,
    work: &[Harvest],
    schedule: &[(f64, usize)],
) -> (Window, Lane) {
    let lanes = sys::nproc();
    let mut clients: Vec<Client> = (0..lanes).map(|_| connect(fleet.router_addr())).collect();
    let mut all = Lane::default();
    let mut ids: Vec<Option<u64>> = vec![None; work.len()];
    for (lane, created) in each_lane(&mut clients, |i, client, lane| {
        (i..work.len())
            .step_by(lanes)
            .map(|s| (s, create(lane, client, &work[s])))
            .collect::<Vec<_>>()
    }) {
        all.absorb(lane);
        for (s, id) in created {
            ids[s] = id;
        }
    }

    let cpu0 = fleet.cpu();
    let t0 = Instant::now();
    let results = each_lane(&mut clients, |i, client, _| {
        let mine: Vec<(f64, usize)> = schedule
            .iter()
            .filter(|(_, s)| s % lanes == i)
            .copied()
            .collect();
        open_lane(client, &ids, &mine, t0)
    });
    let window = Window {
        wall: t0.elapsed().as_secs_f64(),
        cpu: fleet.cpu() - cpu0,
    };
    for (_, (mut lane, timed)) in results {
        for (t, ok) in timed {
            // A failed step counts as missing any latency limit.
            lane.step_s
                .push(if ok { t.latency() } else { f64::INFINITY });
            lane.lag_s.push(t.send_lag());
        }
        all.absorb(lane);
    }

    for (lane, ()) in each_lane(&mut clients, |i, client, lane| {
        for s in (i..work.len()).step_by(lanes) {
            match ids[s] {
                Some(id) => finish(lane, client, s, id),
                None => lane.outcomes.push((s, None)),
            }
        }
    }) {
        all.absorb(lane);
    }
    (window, all)
}

/// The interactive workload: start the fleet, drive the open loop,
/// check every finished session against its reference.
pub fn interactive(seed: u64, seconds: u64, rate: f64) -> Report {
    let (work, schedule) = interactive_work(seed, seconds, rate);
    let dir = fleet::data_dir("interactive_routed");
    // Half the set-ups run before the measured window and half after it,
    // so their median samples the machine at both ends of the run.
    let after = SETUP_REPS / 2;
    let (mut fleet, mut setup_times) =
        Fleet::start_repeatedly(&dir, SETUP_REPS - after).expect("start fleet");
    let (window, mut all) = interactive_window(&mut fleet, &work, &schedule);
    let peak_rss_mb = fleet.peak_rss_mb();
    drop(fleet);
    let (fleet, times) = Fleet::start_repeatedly(&dir, after).expect("start fleet");
    drop(fleet);
    setup_times.extend(times);

    let finished: Vec<(Harvest, Outcome)> = work
        .iter()
        .zip(load::ordered(work.len(), &mut all))
        .filter_map(|(h, o)| o.map(|o| (h.clone(), o)))
        .collect();
    let bundle = world::bundle(fleet::SCALE);
    let verdict = world::check(&bundle, fleet::SCALE, &finished);
    let mut report = Report {
        correct: verdict.mismatches == 0 && finished.len() == work.len(),
        ..Report::default()
    };
    println!(
        "interactive_routed: {} sessions, {} steps, {} mismatches",
        work.len(),
        all.steps,
        verdict.mismatches
    );
    if let Some(lag) = percentile(&all.lag_s, 0.99) {
        println!(
            "info gen.send_lag_us_p99 {:.1} (n={})",
            lag * 1e6,
            all.lag_s.len()
        );
    }
    report.push_end_to_end(
        &setup_times,
        &window,
        &all,
        verdict.f1,
        finished.len(),
        peak_rss_mb,
        fleet::SHARDS.len() + 1,
    );
    report
}

/// The interactive sessions and arrival schedule for the traced run.
pub fn interactive_trace_input(seed: u64, seconds: u64, rate: f64) -> Input {
    let (work, schedule) = interactive_work(seed, seconds, rate);
    Input {
        scale: fleet::SCALE,
        scale_name: "served",
        plans: work
            .into_iter()
            .map(|harvest| Plan {
                harvest,
                steps: STEPS_PER_SESSION,
            })
            .collect(),
        served: true,
        open: Some(schedule),
    }
}
