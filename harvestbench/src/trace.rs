//! The traced run (`--trace 1`): the per-layer table.
//!
//! End-to-end runs carry no benchmark spans. This run feeds the
//! workload's same seeded sessions through the layers in process, with
//! the benchmark's own span around each call into a layer:
//!
//! * `Scheduler::submit_task` with a closure that stamps its own start
//!   (queue wait),
//! * `HarvestState::step_with`, with timing wrappers implementing
//!   `QuerySelector` (around `L2qSelector`) and `SearchBackend` (around
//!   `CachedSearch`),
//! * `SessionStore::append_steps` with each step's `WalRecord`, and the
//!   snapshot, fence and recovery of each session's final hand-off.
//!
//! Boundaries the benchmark cannot split from outside — the graph solver
//! inside selection, a server's own scheduler — are read from the
//! program's own histograms and counters: `l2q_obs::global()` in process,
//! the `metrics` op of a server. Wire and router costs come from probes
//! against a fleet: direct and routed requests, interleaved in pairs, and
//! the workload's first sessions stepped through the router.
//!
//! One request in [`BARE_EVERY`] runs bare (no wrappers, no inner spans),
//! spread evenly over sessions and step positions and interleaved in
//! time with the traced ones, so drift lands on both sides; the gap
//! between the two kinds' mean request time is `trace.overhead_pct`.

use crate::fleet::{self, Fleet};
use crate::load::{self, Wall};
use crate::report::Report;
use crate::routed;
use crate::stats::{median, paired_median_diff, run_lane, self_times, Span};
use crate::sys;
use crate::world::{self, Harvest, Outcome, Scale};
use l2q_aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q_core::{
    learn_domain, DomainModel, HarvestState, Harvester, L2qSelector, PortableCollective, Query,
    QuerySelector, SelectionInput, StepOutcome,
};
use l2q_corpus::{EntityId, PageId};
use l2q_retrieval::{CachedSearch, SearchBackend, SearchEngine};
use l2q_service::{Client, Request, Scheduler, ServiceMetrics, ServingBundle};
use l2q_store::{PortableSession, SessionStore, StoreConfig, WalRecord, SESSION_FORMAT_VERSION};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every `BARE_EVERY`-th request of the pass runs without tracing.
const BARE_EVERY: usize = 10;
/// Sessions of the workload the fleet probes step through the router.
const PROBE_SESSIONS: usize = 30;

/// One session of the traced pass: its harvest and its number of step
/// requests. The session ends with a hand-off: snapshot, fence and
/// recovery, as a migration or a detach + restore does.
pub struct Plan {
    pub harvest: Harvest,
    pub steps: usize,
}

/// A workload as the traced run replays it.
pub struct Input {
    pub scale: Scale,
    /// Which server corpus the fleet probes start (`batch` or `served`).
    pub scale_name: &'static str,
    pub plans: Vec<Plan>,
    /// A served workload: each step appends its WAL record in the step,
    /// and the end-to-end step is a request through the router. Otherwise
    /// (`batch_harvest`, which runs without a store) the records are only
    /// replayed into the store at the hand-off, and the end-to-end step is
    /// the scheduler round trip.
    pub served: bool,
    /// Open-loop arrival schedule `(seconds, plan)`, one entry per step
    /// request; `None` for a closed loop of `nproc` generator threads.
    pub open: Option<Vec<(f64, usize)>>,
}

/// `QuerySelector` wrapper recording each selection's interval and the
/// number of page candidates it chose from.
struct TimedSelector {
    inner: L2qSelector,
    last: Option<(Instant, Instant, usize)>,
}

impl QuerySelector for TimedSelector {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
        let t = Instant::now();
        let q = self.inner.select(input);
        self.last = Some((t, Instant::now(), input.page_candidates.len()));
        q
    }
    fn collective_state(&self) -> Option<l2q_core::CollectiveState> {
        self.inner.collective_state()
    }
    fn restore_collective(&mut self, state: l2q_core::CollectiveState) {
        self.inner.restore_collective(state);
    }
}

/// `SearchBackend` wrapper recording each fired query's interval.
struct TimedSearch<'a> {
    inner: CachedSearch<'a>,
    log: Mutex<Vec<(Instant, Instant)>>,
}

impl SearchBackend for TimedSearch<'_> {
    fn search(&self, entity: EntityId, query: &[l2q_text::Sym]) -> Vec<PageId> {
        let t = Instant::now();
        let r = self.inner.search(entity, query);
        self.log
            .lock()
            .expect("search log lock")
            .push((t, Instant::now()));
        r
    }
}

/// Shared state of one in-process pass.
struct Ctx {
    bundle: Arc<ServingBundle>,
    domain: Arc<DomainModel>,
    store: SessionStore,
    scale: Scale,
    served: bool,
    epoch: Instant,
}

impl Ctx {
    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }
}

/// One live session of a pass.
struct Live {
    id: u64,
    harvest: Harvest,
    state: HarvestState,
    selector: TimedSelector,
    genesis_logged: bool,
    /// Records not yet in the store (passes that are not served).
    pending: Vec<WalRecord>,
}

impl Live {
    fn begin(ctx: &Ctx, plan: usize, harvest: &Harvest) -> Self {
        // As a session create does: fetch the domain model, fire the seed.
        let domain = ctx.bundle.domain_model(&world::peers(ctx.scale));
        let b = &ctx.bundle;
        let harvester = Harvester {
            corpus: &b.corpus,
            engine: &b.engine,
            oracle: &b.oracle,
            domain: Some(&domain),
            cfg: b.cfg.with_n_queries(harvest.n_queries),
        };
        let backend = CachedSearch::new(&b.engine, b.retrieval_cache());
        let aspect = b.corpus.aspect_by_name(&harvest.aspect).expect("aspect");
        let state =
            HarvestState::begin_with(&harvester, EntityId(harvest.entity), aspect, &backend);
        let mut inner = world::selector(harvest.selector);
        inner.reset();
        Self {
            id: plan as u64 + 1,
            harvest: harvest.clone(),
            state,
            selector: TimedSelector { inner, last: None },
            genesis_logged: false,
            pending: Vec::new(),
        }
    }

    fn export(&self, ctx: &Ctx) -> PortableSession {
        PortableSession {
            version: SESSION_FORMAT_VERSION,
            id: self.id,
            selector: self.harvest.selector.to_owned(),
            domain_size: ctx.scale.domain as u64,
            n_queries: self.harvest.n_queries as u64,
            state: self
                .state
                .export(&ctx.bundle.corpus, self.selector.collective_state()),
        }
    }

    /// The WAL record of the step just taken, led by a genesis record
    /// on the session's first write (the serving layer's record shapes).
    fn records(&mut self, ctx: &Ctx) -> Vec<WalRecord> {
        let it = self.state.iterations().last().expect("just advanced");
        let step = WalRecord {
            session: self.id,
            step_index: self.state.steps_taken() as u64 - 1,
            query: it
                .query
                .words()
                .iter()
                .map(|&w| ctx.bundle.corpus.symbols.resolve(w).to_owned())
                .collect(),
            new_pages: it.new_pages.iter().map(|p| p.0).collect(),
            selection_time_nanos: self.state.selection_time().as_nanos() as u64,
            collective: self
                .selector
                .collective_state()
                .map(|s| PortableCollective::from_state(&s)),
            finished: None,
            genesis: None,
        };
        let mut out = Vec::with_capacity(2);
        if !self.genesis_logged {
            self.genesis_logged = true;
            out.push(WalRecord {
                session: self.id,
                step_index: 0,
                query: Vec::new(),
                new_pages: Vec::new(),
                selection_time_nanos: 0,
                collective: None,
                finished: None,
                genesis: Some(serde_json::to_string(&self.export(ctx)).expect("session json")),
            });
        }
        out.push(step);
        out
    }

    fn outcome(&self, ctx: &Ctx) -> Outcome {
        Outcome {
            pages: self.state.gathered().iter().map(|p| p.0).collect(),
            queries: self
                .state
                .iterations()
                .iter()
                .map(|it| it.query.render(&ctx.bundle.corpus.symbols))
                .collect(),
        }
    }
}

/// Store calls of one hand-off, in seconds.
#[derive(Default)]
struct Handoff {
    appends: Vec<f64>,
    snapshot: f64,
    fence: f64,
    recover: f64,
}

/// Snapshot, fence and recover the session, and replace its state with
/// the recovered one (as the target shard of a migration does), so the
/// outcome read afterwards is what recovery produced.
fn handoff(ctx: &Ctx, live: &mut Live) -> Handoff {
    let mut h = Handoff::default();
    for rec in std::mem::take(&mut live.pending) {
        let t = Instant::now();
        ctx.store
            .append_steps(live.id, &[rec])
            .expect("replay append");
        h.appends.push(t.elapsed().as_secs_f64());
    }
    let portable = live.export(ctx);
    let t = Instant::now();
    ctx.store.snapshot(live.id, &portable).expect("snapshot");
    h.snapshot = t.elapsed().as_secs_f64();
    let t = Instant::now();
    ctx.store.fence(live.id).expect("fence");
    h.fence = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let recovered = ctx
        .store
        .load(live.id)
        .expect("load")
        .expect("stored session");
    h.recover = t.elapsed().as_secs_f64();
    let (state, collective) =
        HarvestState::import(&recovered.session.state, &ctx.bundle.corpus).expect("import");
    let mut inner = world::selector(live.harvest.selector);
    inner.reset();
    if let Some(c) = collective {
        inner.restore_collective(c);
    }
    live.state = state;
    live.selector = TimedSelector { inner, last: None };
    h
}

/// What one step request left behind, times in seconds since the pass
/// started.
struct StepRec {
    plan: usize,
    traced: bool,
    submitted: f64,
    started: f64,
    step: (f64, f64),
    select: Option<(f64, f64)>,
    candidates: usize,
    searches: Vec<(f64, f64)>,
    append: Option<(f64, f64)>,
    end: f64,
    /// When the generator had the reply (closed loop only).
    received: Option<f64>,
    advanced: bool,
}

impl StepRec {
    /// When the request ended for its sender: the reply, or the end of
    /// the job when no reply time was taken.
    fn root_end(&self) -> f64 {
        self.received.unwrap_or(self.end)
    }

    fn root(&self) -> f64 {
        self.root_end() - self.submitted
    }

    /// The request's span tree: root, queue wait, the core step with its
    /// selection and searches, and the WAL append.
    fn spans(&self) -> Vec<Span> {
        let mut s = vec![
            Span {
                layer: "root",
                parent: None,
                start: self.submitted,
                end: self.root_end(),
            },
            Span {
                layer: "scheduler.queue",
                parent: Some(0),
                start: self.submitted,
                end: self.started,
            },
            Span {
                layer: "core.step",
                parent: Some(0),
                start: self.step.0,
                end: self.step.1,
            },
        ];
        if let Some((a, b)) = self.select {
            s.push(Span {
                layer: "core.select",
                parent: Some(2),
                start: a,
                end: b,
            });
        }
        for &(a, b) in &self.searches {
            s.push(Span {
                layer: "retrieval.search",
                parent: Some(2),
                start: a,
                end: b,
            });
        }
        if let Some((a, b)) = self.append {
            s.push(Span {
                layer: "store.append",
                parent: Some(0),
                start: a,
                end: b,
            });
        }
        s
    }
}

/// Run one step request of `live` on a worker.
fn step_task(
    ctx: &Ctx,
    slot: &Mutex<Live>,
    plan: usize,
    submitted: Instant,
    traced: bool,
) -> StepRec {
    let started = Instant::now();
    let mut guard = slot.lock().expect("live session lock");
    let live = &mut *guard;
    let b = &ctx.bundle;
    let harvester = Harvester {
        corpus: &b.corpus,
        engine: &b.engine,
        oracle: &b.oracle,
        domain: Some(&ctx.domain),
        cfg: b.cfg.with_n_queries(live.harvest.n_queries),
    };
    let cached = CachedSearch::new(&b.engine, b.retrieval_cache());
    let timed = TimedSearch {
        inner: CachedSearch::new(&b.engine, b.retrieval_cache()),
        log: Mutex::new(Vec::new()),
    };
    live.selector.last = None;
    let t0 = Instant::now();
    let outcome = if traced {
        live.state.step_with(&harvester, &mut live.selector, &timed)
    } else {
        live.state
            .step_with(&harvester, &mut live.selector.inner, &cached)
    };
    let t1 = Instant::now();
    let advanced = matches!(outcome, StepOutcome::Advanced { .. });
    let mut append = None;
    if advanced {
        let records = live.records(ctx);
        if ctx.served {
            let a = Instant::now();
            ctx.store.append_steps(live.id, &records).expect("append");
            append = Some((ctx.secs(a), ctx.secs(Instant::now())));
        } else {
            live.pending.extend(records);
        }
    }
    let end = Instant::now();
    let (select, candidates) = match live.selector.last {
        Some((a, b, n)) => (Some((ctx.secs(a), ctx.secs(b))), n),
        None => (None, 0),
    };
    let searches = timed
        .log
        .into_inner()
        .expect("search log lock")
        .into_iter()
        .map(|(a, b)| (ctx.secs(a), ctx.secs(b)))
        .collect();
    StepRec {
        plan,
        traced,
        submitted: ctx.secs(submitted),
        started: ctx.secs(started),
        step: (ctx.secs(t0), ctx.secs(t1)),
        select,
        candidates,
        searches,
        append,
        end: ctx.secs(end),
        received: None,
        advanced,
    }
}

/// Whether request `k` of plan `plan` is traced: one in [`BARE_EVERY`]
/// runs bare, rotating over sessions and step positions.
fn traced(plan: usize, k: usize) -> bool {
    !(plan + k).is_multiple_of(BARE_EVERY)
}

/// Everything one pass produced.
#[derive(Default)]
struct Pass {
    recs: Vec<StepRec>,
    /// Per session: its final hand-off and the outcome recovered by it.
    finals: Vec<(usize, Handoff, Outcome)>,
    /// Generator lag per request: open loop, submit − intended; closed
    /// loop, submit − previous reply.
    lag: Vec<f64>,
    rejected: u64,
}

/// Submit request `k` of plan `plan`; its record goes to `tx`. False
/// when the scheduler refused it.
fn submit(
    sched: &Scheduler,
    ctx: &Arc<Ctx>,
    slot: &Arc<Mutex<Live>>,
    plan: usize,
    k: usize,
    tx: &mpsc::Sender<StepRec>,
) -> bool {
    let (ctx, slot, tx) = (ctx.clone(), slot.clone(), tx.clone());
    let submitted = Instant::now();
    sched
        .submit_task(Box::new(move || {
            let rec = step_task(&ctx, &slot, plan, submitted, traced(plan, k));
            let _ = tx.send(rec);
        }))
        .is_ok()
}

/// One closed-loop generator lane of a pass.
#[derive(Default)]
struct PassLane {
    pass: Pass,
    live: Vec<(usize, Arc<Mutex<Live>>)>,
    last_reply: Option<Instant>,
}

fn run_pass(input: &Input, bundle: Arc<ServingBundle>, dir: &std::path::Path) -> Pass {
    let domain = bundle.domain_model(&world::peers(input.scale));
    std::fs::create_dir_all(dir).expect("store dir");
    let ctx = Arc::new(Ctx {
        bundle,
        domain,
        store: SessionStore::open(dir, StoreConfig::default()).expect("open store"),
        scale: input.scale,
        served: input.served,
        epoch: Instant::now(),
    });
    let sched = Scheduler::new(sys::nproc(), 64, Arc::new(ServiceMetrics::default()));
    let mut pass = Pass::default();
    let mut live: Vec<(usize, Arc<Mutex<Live>>)> = Vec::new();
    match &input.open {
        Some(schedule) => {
            // As in the end-to-end run, every session is open before the
            // schedule starts.
            live = input
                .plans
                .iter()
                .enumerate()
                .map(|(p, plan)| (p, Arc::new(Mutex::new(Live::begin(&ctx, p, &plan.harvest)))))
                .collect();
            let (tx, rx) = mpsc::channel();
            let mut made = vec![0usize; input.plans.len()];
            let timings = run_lane(&mut Wall(Instant::now()), schedule, |_, &p| {
                made[p] += 1;
                submit(&sched, &ctx, &live[p].1, p, made[p] - 1, &tx)
            });
            drop(tx);
            for (t, ok) in timings {
                pass.lag.push(t.send_lag());
                pass.rejected += u64::from(!ok);
            }
            // Ends once every submitted job has sent its record.
            pass.recs = rx.iter().collect();
        }
        None => {
            let mut lanes = vec![(); sys::nproc()];
            let (_, done) = load::closed_loop(
                &input.plans,
                &mut lanes,
                |_, p, plan, lane: &mut PassLane| {
                    let slot = Arc::new(Mutex::new(Live::begin(&ctx, p, &plan.harvest)));
                    let (tx, rx) = mpsc::channel();
                    for k in 0..plan.steps {
                        if let Some(t) = lane.last_reply {
                            lane.pass.lag.push(t.elapsed().as_secs_f64());
                        }
                        if !submit(&sched, &ctx, &slot, p, k, &tx) {
                            lane.pass.rejected += 1;
                            continue;
                        }
                        let mut rec = rx.recv().expect("step reply");
                        let now = Instant::now();
                        rec.received = Some(ctx.secs(now));
                        lane.pass.recs.push(rec);
                        lane.last_reply = Some(now);
                    }
                    lane.live.push((p, slot));
                },
            );
            for (lane, _) in done {
                pass.recs.extend(lane.pass.recs);
                pass.lag.extend(lane.pass.lag);
                pass.rejected += lane.pass.rejected;
                live.extend(lane.live);
            }
        }
    }
    drop(sched);
    // The final hand-off of every session (detach + restore, or the spill
    // a closing session would take), one session at a time; the outcome
    // is read from the recovered state.
    for (p, slot) in live {
        let mut live = slot.lock().expect("live session lock");
        let h = handoff(&ctx, &mut live);
        pass.finals.push((p, h, live.outcome(&ctx)));
        ctx.store.remove(live.id).ok();
    }
    std::fs::remove_dir_all(dir).ok();
    pass
}

/// Program counters read around the traced pass.
struct Counters {
    solve_count: u64,
    solve_sum: f64,
    solve_buckets: Vec<(f64, u64)>,
    solve_overflow: u64,
    exact: u64,
    pruned: u64,
    reuses: u64,
    rebuilds: u64,
}

fn counters() -> Counters {
    let reg = l2q_obs::global();
    let solve = reg
        .histogram("graph_solve_seconds")
        .snapshot("graph_solve_seconds", &[]);
    Counters {
        solve_count: solve.count,
        solve_sum: solve.sum,
        solve_buckets: solve.buckets,
        solve_overflow: solve.overflow,
        exact: reg.counter("selection_exact_solves_total").get(),
        pruned: reg.counter("selection_candidates_pruned_total").get(),
        reuses: reg.counter("entity_phase_incremental_reuses_total").get(),
        rebuilds: reg.counter("entity_phase_rebuilds_total").get(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Set-up layer timings: corpus generation, classifier training with the
/// oracle, index build and domain learning, each the median of three.
fn setup_layers(report: &mut Report, scale: Scale) {
    let (mut gen, mut train, mut index, mut learn) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let t = Instant::now();
        let corpus = Arc::new(world::corpus(scale));
        gen.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let models = train_aspect_models(&corpus, &TrainConfig::default());
        let oracle = RelevanceOracle::from_models(&corpus, &models);
        train.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let engine = SearchEngine::with_defaults(corpus.clone());
        index.push(t.elapsed().as_secs_f64() * 1e3);
        drop(engine);
        let t = Instant::now();
        learn_domain(
            &corpus,
            &world::peers(scale),
            &oracle,
            &l2q_core::L2qConfig::default(),
        );
        learn.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.push("corpus.generate_ms", median(&gen), "ms", 3);
    report.push("aspect.train_ms", median(&train), "ms", 3);
    report.push("retrieval.index_build_ms", median(&index), "ms", 3);
    report.push("core.domain_learn_ms", median(&learn), "ms", 3);
}

/// What the fleet probes measured for the attribution of a served step,
/// in microseconds.
struct Probed {
    /// Mean round trip of a direct `ping`: wire and reactor.
    ping_mean: f64,
    /// Mean paired routed − direct `status` difference: the router hop.
    hop_mean: f64,
    /// Mean scheduler queue wait of the shards' jobs during the routed
    /// steps.
    queue_mean: f64,
    /// The shards' own `harvest_step_seconds` over the routed step
    /// requests, per request.
    core_step_mean: f64,
    /// Round trips of the step requests of the first sessions, routed.
    routed_steps: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Histograms of a server read around the routed steps.
const SERVER_HISTOGRAMS: [&str; 2] = ["scheduler_queue_wait_seconds", "harvest_step_seconds"];

/// `(sum, count)` of each of [`SERVER_HISTOGRAMS`] on a server.
fn server_histograms(client: &mut Client) -> Vec<(f64, f64)> {
    let m = client
        .metrics("json")
        .expect("metrics op")
        .metrics
        .expect("json metrics");
    SERVER_HISTOGRAMS
        .iter()
        .map(|series| {
            let field = |name: &str| {
                m.get("histograms")
                    .and_then(|h| h.get(series))
                    .and_then(|h| h.get(name))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            (field("sum"), field("count"))
        })
        .collect()
}

/// Wire and router probes against a fleet: paired direct/routed
/// requests, then the workload's first sessions, each stepped directly
/// on a shard and then through the router with a migration after its
/// first step.
fn probes(report: &mut Report, input: &Input) -> Probed {
    const PAIRS: usize = 400;
    let dir = fleet::data_dir("probe");
    let fleet = Fleet::start(&dir, input.scale_name).expect("start fleet");
    let connect = |addr: &str| Client::connect_with(addr, fleet::client_config()).expect("connect");
    let mut routed = connect(fleet.router_addr());
    let mut shards: Vec<Client> = (0..fleet::SHARDS.len())
        .map(|i| connect(fleet.shard_addr(i)))
        .collect();
    let create = |c: &mut Client, h: &Harvest| {
        c.request(&routed::create_request(h, input.scale.domain))
            .expect("create")
    };
    let time = |c: &mut Client, req: &Request| {
        let t = Instant::now();
        c.request(req).expect("probe request");
        t.elapsed().as_secs_f64() * 1e6
    };
    // The router answers `ping` itself, so the paired op that crosses the
    // hop is `status`, sent to the session's owner directly and routed.
    let resp = create(&mut routed, &input.plans[0].harvest);
    let id = resp.session.expect("session id");
    let owner = resp.shard.expect("owner shard");
    let owner_ix = fleet::SHARDS
        .iter()
        .position(|s| *s == owner)
        .expect("known shard");
    let direct = &mut shards[owner_ix];
    let status = Request::for_session("status", id);
    let ping = Request::op("ping");
    let (mut via_router, mut to_shard, mut pings) = (vec![], vec![], vec![]);
    for i in 0..PAIRS {
        if i % 2 == 0 {
            to_shard.push(time(direct, &status));
            via_router.push(time(&mut routed, &status));
        } else {
            via_router.push(time(&mut routed, &status));
            to_shard.push(time(direct, &status));
        }
        pings.push(time(direct, &ping));
    }
    routed.close(id).expect("close probe session");
    report.push(
        "router.hop_us_p50",
        paired_median_diff(&via_router, &to_shard),
        "us",
        PAIRS,
    );
    report.push_percentile("wire.ping_rtt_us_p50", &pings, 0.5, 1.0, "us");

    let step = |id| {
        let mut r = Request::for_session("step", id);
        r.steps = Some(1);
        r
    };
    let (mut steps, mut routed_steps, mut migrations) = (vec![], vec![], vec![]);
    for plan in input.plans.iter().take(PROBE_SESSIONS) {
        let direct = &mut shards[0];
        let id = create(direct, &plan.harvest).session.expect("session id");
        for _ in 0..plan.steps {
            steps.push(time(direct, &step(id)));
        }
        direct.close(id).expect("close");
    }
    let before: Vec<Vec<(f64, f64)>> = shards.iter_mut().map(server_histograms).collect();
    for plan in input.plans.iter().take(PROBE_SESSIONS) {
        let id = create(&mut routed, &plan.harvest)
            .session
            .expect("session id");
        for k in 0..plan.steps {
            routed_steps.push(time(&mut routed, &step(id)));
            if k == 0 {
                let t = Instant::now();
                routed.migrate(id, None).expect("migrate");
                migrations.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        routed.close(id).expect("close");
    }
    // Summed over the shards: [(queue wait sum, jobs), (step sum, steps)].
    let mut delta = [(0.0, 0.0); SERVER_HISTOGRAMS.len()];
    for (c, b) in shards.iter_mut().zip(before) {
        for ((d, a), b) in delta.iter_mut().zip(server_histograms(c)).zip(b) {
            d.0 += a.0 - b.0;
            d.1 += a.1 - b.1;
        }
    }
    report.push_percentile("wire.step_rtt_us_p50", &steps, 0.5, 1.0, "us");
    report.push(
        "router.migrate_ms_p50",
        median(&migrations),
        "ms",
        migrations.len(),
    );
    let hops: Vec<f64> = via_router
        .iter()
        .zip(&to_shard)
        .map(|(r, d)| r - d)
        .collect();
    Probed {
        ping_mean: mean(&pings),
        hop_mean: mean(&hops),
        queue_mean: delta[0].0 / delta[0].1.max(1.0) * 1e6,
        core_step_mean: delta[1].0 / routed_steps.len().max(1) as f64 * 1e6,
        routed_steps,
    }
}

pub fn run(input: Input) -> Report {
    let mut report = Report::default();
    setup_layers(&mut report, input.scale);

    let bundle = world::bundle(input.scale);
    world::warm(&bundle, input.scale);
    let before = counters();
    let pass = run_pass(&input, bundle.clone(), &fleet::data_dir("trace"));
    let after = counters();

    // Correctness: the traced sessions must match their references.
    let mut outcomes: Vec<Option<Outcome>> = vec![None; input.plans.len()];
    for (p, _, o) in &pass.finals {
        outcomes[*p] = Some(o.clone());
    }
    let finished: Vec<(Harvest, Outcome)> = input
        .plans
        .iter()
        .zip(outcomes)
        .filter_map(|(p, o)| o.map(|o| (p.harvest.clone(), o)))
        .collect();
    let verdict = world::check(&bundle, input.scale, &finished);
    report.correct = verdict.mismatches == 0 && finished.len() == input.plans.len();
    report.attempted = pass.recs.len() as u64 + pass.rejected;
    report.failed = pass.rejected;
    let (traced, bare): (Vec<&StepRec>, Vec<&StepRec>) = pass.recs.iter().partition(|r| r.traced);

    // Per-request layer samples, in microseconds.
    let us = |v: f64| v * 1e6;
    let (mut step, mut select, mut enumerate, mut cands, mut search) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut queue, mut append) = (vec![], vec![]);
    let (mut snapshot, mut fence, mut recover) = (vec![], vec![], vec![]);
    let (mut root_sum, mut root_self_sum) = (0.0, 0.0);
    for r in &pass.recs {
        // Queue wait, the step call and the append are timed around the
        // layer on every request; what happens inside the step only on
        // the traced ones.
        queue.push(us(r.started - r.submitted));
        if r.advanced {
            step.push(us(r.step.1 - r.step.0));
        }
        if let Some((a, b)) = r.append {
            append.push(us(b - a));
        }
        if !r.traced {
            continue;
        }
        let spans = r.spans();
        let st = self_times(&spans);
        root_sum += r.root();
        root_self_sum += st[0];
        if let Some((a, b)) = r.select {
            select.push(us(b - a));
            cands.push(r.candidates as f64);
        }
        if r.advanced {
            enumerate.push(us(st[2]));
        }
        search.extend(r.searches.iter().map(|(a, b)| us(b - a)));
    }
    for (_, h, _) in &pass.finals {
        append.extend(h.appends.iter().map(|&v| us(v)));
        snapshot.push(us(h.snapshot));
        fence.push(us(h.fence));
        recover.push(us(h.recover));
    }
    let dc = bundle.domain_cache();
    report.push(
        "core.domain_cache_hit_ratio",
        ratio(dc.hits(), dc.hits() + dc.misses()),
        "ratio",
        (dc.hits() + dc.misses()) as usize,
    );
    report.push_percentile("core.step_us_p50", &step, 0.5, 1.0, "us");
    report.push_percentile("core.step_us_p99", &step, 0.99, 1.0, "us");
    report.push_percentile("core.select_us_p50", &select, 0.5, 1.0, "us");
    report.push_percentile("core.select_us_p99", &select, 0.99, 1.0, "us");
    report.push_percentile("core.enumerate_us_p50", &enumerate, 0.5, 1.0, "us");
    report.push_percentile("core.candidates_p50", &cands, 0.5, 1.0, "count");
    let (reuses, rebuilds) = (
        after.reuses - before.reuses,
        after.rebuilds - before.rebuilds,
    );
    report.push(
        "core.phase_reuse_ratio",
        ratio(reuses, reuses + rebuilds),
        "ratio",
        (reuses + rebuilds) as usize,
    );

    let solves = after.solve_count - before.solve_count;
    report.push("graph.solve_calls", solves as f64, "count", 1);
    report.push(
        "graph.solve_busy_ms",
        (after.solve_sum - before.solve_sum) * 1e3,
        "ms",
        solves as usize,
    );
    let delta: Vec<(f64, u64)> = after
        .solve_buckets
        .iter()
        .zip(&before.solve_buckets)
        .map(|(a, b)| (a.0, a.1 - b.1))
        .collect();
    let p99 =
        l2q_obs::quantile_from_buckets(0.99, &delta, after.solve_overflow - before.solve_overflow);
    if solves < 1000 {
        report
            .errors
            .push(format!("graph.solve_us_p99: only {solves} solves"));
    }
    report.push("graph.solve_us_p99", p99 * 1e6, "us", solves as usize);
    let (exact, pruned) = (after.exact - before.exact, after.pruned - before.pruned);
    report.push(
        "graph.exact_solve_ratio",
        ratio(exact, exact + pruned),
        "ratio",
        (exact + pruned) as usize,
    );

    let cache = bundle.retrieval_cache();
    // Every fired query, seeds included, is one lookup in the cache.
    let fired = cache.hits() + cache.misses();
    report.push("retrieval.search_calls", fired as f64, "count", 1);
    report.push_percentile("retrieval.search_us_p50", &search, 0.5, 1.0, "us");
    report.push(
        "retrieval.cache_hit_ratio",
        cache.hit_rate(),
        "ratio",
        fired as usize,
    );

    report.push_percentile("store.append_us_p50", &append, 0.5, 1.0, "us");
    report.push_percentile("store.append_us_p99", &append, 0.99, 1.0, "us");
    report.push_percentile("store.snapshot_us_p50", &snapshot, 0.5, 1.0, "us");
    report.push_percentile("store.fence_us_p50", &fence, 0.5, 1.0, "us");
    report.push_percentile("store.recover_us_p50", &recover, 0.5, 1.0, "us");

    report.push_percentile("scheduler.queue_wait_us_p50", &queue, 0.5, 1.0, "us");
    report.push_percentile("scheduler.queue_wait_us_p99", &queue, 0.99, 1.0, "us");
    report.push(
        "scheduler.rejected",
        pass.rejected as f64,
        "count",
        pass.recs.len(),
    );

    let probed = probes(&mut report, &input);

    let lag: Vec<f64> = pass.lag.iter().map(|&v| us(v)).collect();
    report.push_percentile("gen.send_lag_us_p99", &lag, 0.99, 1.0, "us");
    // How far the layer times fall short of the end-to-end step.
    let (unattributed, samples) = if input.served {
        // End to end: the probes' routed step requests. Layers: wire and
        // reactor, router hop, the shards' own queue wait and core step
        // over those requests, and the WAL append of the same requests in
        // the pass.
        let appends: Vec<f64> = pass
            .recs
            .iter()
            .filter(|r| r.plan < PROBE_SESSIONS)
            .map(|r| r.append.map_or(0.0, |(a, b)| us(b - a)))
            .collect();
        let layers = probed.ping_mean
            + probed.hop_mean
            + probed.queue_mean
            + probed.core_step_mean
            + mean(&appends);
        (
            1.0 - layers / mean(&probed.routed_steps),
            probed.routed_steps.len(),
        )
    } else {
        // End to end: submit to reply, as the batch generator sees a step.
        (root_self_sum / root_sum, traced.len())
    };
    report.push("layers.unattributed_share", unattributed, "ratio", samples);
    let mean_root = |v: &[&StepRec]| mean(&v.iter().map(|r| r.root()).collect::<Vec<_>>());
    let (t, b) = (mean_root(&traced), mean_root(&bare));
    report.push(
        "trace.overhead_pct",
        (t - b) / b * 100.0,
        "%",
        pass.recs.len(),
    );
    report
}
