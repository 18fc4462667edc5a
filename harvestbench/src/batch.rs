//! `batch_harvest`: offline evaluation traffic. A fixed list of harvests
//! runs to completion in one process through `SessionManager` and
//! `Scheduler` — no wire, no router, no store. Closed loop: `nproc`
//! generator threads each drive one session at a time; every session op
//! (create, each step, the final snapshot and close) runs as a job on the
//! scheduler's workers.

use crate::load::{self, Lane, Window};
use crate::report::Report;
use crate::sys;
use crate::world::{self, Harvest, Outcome, Scale, SELECTORS};
use l2q_service::{
    Scheduler, SelectorKind, ServiceError, ServiceMetrics, ServingBundle, SessionManager,
    SessionSpec,
};
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A bench-scale researchers corpus.
pub const SCALE: Scale = Scale {
    entities: 150,
    pages: 30,
    domain: 16,
};
const N_QUERIES: usize = 10;
/// (entity, aspect) pairs per second of `--seconds`; each pair is
/// harvested by the three selectors.
const PAIRS_PER_SECOND: f64 = 11.2;
/// Chunks the work is cut into; a set-up and check follow each, so a run
/// times `CHUNKS + 1` set-ups.
const CHUNKS: usize = 12;

/// A seeded split of (target entity, aspect) pairs × the three L2Q
/// selectors. The split is stratified: pair `j` takes entity `j % E` of
/// the seeded entity order and aspect `(j % E + j / E) % A`, so every
/// target entity gets the same number of pairs (± 1), each with a
/// different aspect, and every aspect as many pairs as the others (± 1).
/// Seeds differ in which aspects each entity is asked about, not in which
/// entities are harvested, so per-entity cost differences do not become
/// run-to-run differences. An entity's pairs, and the three selectors of
/// each pair, sit next to each other, so they re-fire shared queries
/// while the retrieval cache holds them.
pub fn work(seed: u64, seconds: u64) -> Vec<Harvest> {
    let entities = world::targets(SCALE, seed);
    let aspects = world::aspect_names();
    let (e, a) = (entities.len(), aspects.len());
    let n = ((seconds as f64 * PAIRS_PER_SECOND).round() as usize).clamp(1, e * a);
    let mut pairs: Vec<(usize, usize)> = (0..n).map(|j| (j % e, (j % e + j / e) % a)).collect();
    pairs.sort_unstable();
    let mut out = Vec::with_capacity(n * SELECTORS.len());
    for (ei, ai) in pairs {
        for selector in SELECTORS {
            out.push(Harvest {
                entity: entities[ei],
                aspect: aspects[ai].clone(),
                selector,
                n_queries: N_QUERIES,
            });
        }
    }
    out
}

/// The same harvests for the traced run: each runs its step requests
/// until it reports finished (budget plus the finishing request).
pub fn trace_input(seed: u64, seconds: u64) -> crate::trace::Input {
    crate::trace::Input {
        scale: SCALE,
        scale_name: "batch",
        plans: work(seed, seconds)
            .into_iter()
            .map(|harvest| crate::trace::Plan {
                steps: harvest.n_queries + 1,
                harvest,
            })
            .collect(),
        served: false,
        open: None,
    }
}

/// The system under test, warm.
pub struct Sut {
    pub bundle: Arc<ServingBundle>,
    pub manager: Arc<SessionManager>,
    pub scheduler: Scheduler,
}

/// Build the bundle, learn the domain model and start the worker pool.
pub fn set_up() -> Sut {
    let bundle = world::bundle(SCALE);
    world::warm(&bundle, SCALE);
    let metrics = Arc::new(ServiceMetrics::default());
    let manager = SessionManager::new(bundle.clone(), Duration::from_secs(3600), metrics.clone());
    let scheduler = Scheduler::new(sys::nproc(), 64, metrics);
    Sut {
        bundle,
        manager: Arc::new(manager),
        scheduler,
    }
}

/// `--role setup SEED SECONDS`: one set-up in a fresh process, then the
/// correctness check of a slice of the run's sessions on the bundle it
/// built. Prints `setup <seconds>`, reads `(work index, pages, queries)`
/// JSON lines from stdin and prints `checked <index> <matched> <f1>` for
/// each.
pub fn setup_main(seed: &str, seconds: &str) {
    let work = work(
        seed.parse().expect("set-up child: seed"),
        seconds.parse().expect("set-up child: seconds"),
    );
    let t = Instant::now();
    let sut = set_up();
    println!("setup {}", t.elapsed().as_secs_f64());
    let (index, finished): (Vec<usize>, Vec<(Harvest, Outcome)>) = std::io::stdin()
        .lines()
        .map(|line| {
            let (i, pages, queries): (usize, Vec<u32>, Vec<String>) =
                serde_json::from_str(&line.expect("read stdin")).expect("session line");
            (i, (work[i].clone(), Outcome { pages, queries }))
        })
        .unzip();
    let checked = world::check_each(&sut.bundle, SCALE, &finished);
    for (i, (matched, f1)) in index.iter().zip(checked) {
        let f1 = f1.map_or("none".to_owned(), |v| format!("{v:?}"));
        println!("checked {i} {} {f1}", u8::from(matched));
    }
}

/// One set-up in a child process (this binary re-executed), which then
/// checks `finished` against references computed on its own bundle. The
/// child keeps both its memory and the checking work out of the measured
/// process. Returns the set-up time and one check per session.
fn set_up_and_check_in_child(
    seed: u64,
    seconds: u64,
    finished: &[(usize, Outcome)],
) -> (f64, Vec<(usize, world::Checked)>) {
    let mut child = Command::new(std::env::current_exe().expect("own executable"))
        .args(["--role", "setup", &seed.to_string(), &seconds.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("start set-up child");
    {
        let mut stdin = std::io::BufWriter::new(child.stdin.take().expect("child stdin"));
        for (i, o) in finished {
            let line = serde_json::to_string(&(i, &o.pages, &o.queries)).expect("session json");
            writeln!(stdin, "{line}").expect("write to set-up child");
        }
    }
    let out = child.wait_with_output().expect("run set-up child");
    let text = String::from_utf8_lossy(&out.stdout);
    let setup = text
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .unwrap_or_else(|| panic!("set-up child failed: {text:?}"));
    let checked: Vec<(usize, world::Checked)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("checked "))
        .map(|l| {
            let mut f = l.split(' ');
            let mut next = || f.next().expect("checked line field");
            let i = next().parse().expect("work index");
            let matched = next() == "1";
            let f1 = match next() {
                "none" => None,
                v => Some(v.parse().expect("f1")),
            };
            (i, (matched, f1))
        })
        .collect();
    assert_eq!(
        checked.len(),
        finished.len(),
        "set-up child checked too few"
    );
    (setup, checked)
}

fn spec(h: &Harvest, sut: &Sut) -> SessionSpec {
    SessionSpec {
        entity: l2q_corpus::EntityId(h.entity),
        aspect: sut
            .bundle
            .corpus
            .aspect_by_name(&h.aspect)
            .expect("known aspect"),
        selector: SelectorKind::parse(h.selector).expect("known selector"),
        n_queries: Some(h.n_queries),
        domain_size: SCALE.domain,
    }
}

/// Run `f` as a scheduler job and wait for its result, so its CPU time
/// falls on the workers, not on the generator thread.
fn on_worker<T: Send + 'static>(
    sut: &Sut,
    f: impl FnOnce(&SessionManager) -> T + Send + 'static,
) -> Result<T, ServiceError> {
    let (tx, rx) = mpsc::channel();
    let manager = sut.manager.clone();
    sut.scheduler.submit_task(Box::new(move || {
        let _ = tx.send(f(&manager));
    }))?;
    rx.recv().map_err(|_| ServiceError::Canceled)
}

/// Run one session to completion; `None` when any of its ops failed.
fn harvest(sut: &Sut, h: &Harvest, lane: &mut Lane) -> Option<Outcome> {
    let spec = spec(h, sut);
    let created = on_worker(sut, move |m| m.create(&spec)).and_then(|r| r);
    lane.op_done(created.is_ok());
    let id = created.ok()?.id;
    loop {
        let t = Instant::now();
        let report = sut
            .manager
            .get(id)
            .and_then(|slot| sut.scheduler.run(slot, 1));
        lane.attempted += 1;
        match report {
            Ok(r) => {
                lane.step_s.push(t.elapsed().as_secs_f64());
                lane.steps += r.advanced;
                if r.status.finished.is_some() {
                    break;
                }
            }
            Err(_) => {
                lane.step_s.push(f64::INFINITY);
                lane.failed += 1;
                return None;
            }
        }
    }
    // The session's pages and queries, then its close, in one job.
    let finished = on_worker(sut, move |m| {
        let snap = m.get(id).map(|slot| {
            let (pages, queries) = l2q_service::session::lock_recover(&slot).snapshot();
            Outcome { pages, queries }
        });
        (snap.ok(), m.close(id).is_ok())
    });
    let (snap, closed) = finished.unwrap_or((None, false));
    lane.op_done(snap.is_some());
    lane.op_done(closed);
    snap.filter(|_| closed)
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let work = work(seed, seconds);
    let t = Instant::now();
    let sut = set_up();
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    // After each chunk of the work a child process sets up once more and
    // checks that chunk, so the measured chunks and the set-ups sample
    // the machine over the whole run rather than over one stretch of it.
    let chunk_len = work.len().div_ceil(CHUNKS);
    let mut lanes = vec![(); sys::nproc()];
    let mut all = Lane::default();
    let mut checked: Vec<Option<world::Checked>> = vec![None; work.len()];
    let mut window = Window {
        wall: 0.0,
        cpu: Duration::ZERO,
    };
    for (c, chunk) in work.chunks(chunk_len).enumerate() {
        let base = c * chunk_len;
        let cpu0 = sys::process_cpu();
        let (wall, done) = load::closed_loop(chunk, &mut lanes, |_, j, h, lane: &mut Lane| {
            let out = harvest(&sut, h, lane);
            lane.outcomes.push((base + j, out));
        });
        // The system's CPU time is the process's without the generator
        // threads'.
        let mut cpu = sys::process_cpu() - cpu0;
        let mut finished = Vec::with_capacity(chunk.len());
        for (mut lane, lane_cpu) in done {
            cpu = cpu.saturating_sub(lane_cpu);
            finished.extend(lane.outcomes.drain(..).filter_map(|(i, o)| Some((i, o?))));
            all.absorb(lane);
        }
        window.wall += wall;
        window.cpu += cpu;
        finished.sort_unstable_by_key(|(i, _)| *i);
        let (setup, results) = set_up_and_check_in_child(seed, seconds, &finished);
        setup_times.push(setup);
        for (i, c) in results {
            checked[i] = Some(c);
        }
    }
    let peak_rss_mb = sys::peak_rss_kb(std::process::id()) as f64 / 1024.0;

    let checked: Vec<world::Checked> = checked.into_iter().flatten().collect();
    let verdict = world::Verdict::of(&checked);
    let mut report = Report {
        correct: verdict.mismatches == 0 && checked.len() == work.len(),
        ..Report::default()
    };
    println!(
        "batch_harvest: {} harvests, {} steps, {} mismatches",
        work.len(),
        all.steps,
        verdict.mismatches
    );
    report.push_end_to_end(
        &setup_times,
        &window,
        &all,
        verdict.f1,
        checked.len(),
        peak_rss_mb,
        1,
    );
    report
}
