//! The router's front door: the reactor engine, the health prober and
//! the load rebalancer.
//!
//! Speaks the same line-delimited JSON protocol as `l2q-serve`, so any
//! existing client points at the router unchanged. The reactor engine
//! owns the listener and admission control; every shard-touching request
//! is dispatched through [`RouterCore`] on a bounded forward pool. A
//! background prober pings every registered shard on a jittered schedule
//! so the whole fleet never probes in lockstep and a dead shard is
//! noticed within a couple of intervals.

use crate::router::RouterCore;
use crate::shard::Shard;
use l2q_service::reactor::{
    spawn_engine, EngineConfig, EngineHandle, ReplyHandle, TaskPool, WireHandler,
};
use l2q_service::{Request, Response};
use std::collections::HashMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running router; dropping the handle shuts it down.
pub struct RouterHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    prober_thread: Option<JoinHandle<()>>,
    rebalancer_thread: Option<JoinHandle<()>>,
    engine: Option<EngineHandle>,
}

impl RouterHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (e.g. by a client's
    /// `shutdown` op).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting (new connects are refused), drain in-flight
    /// requests (bounded), join the prober and rebalancer; idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(mut engine) = self.engine.take() {
            engine.join();
        }
        if let Some(h) = self.prober_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.rebalancer_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The router server: binds, spawns the engine and the prober.
pub struct RouterServer;

impl RouterServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and route against `core` until
    /// the returned handle shuts down.
    pub fn spawn(core: Arc<RouterCore>, addr: impl ToSocketAddrs) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = core.config().clone();

        let engine = spawn_engine(
            Arc::new(RouterWire {
                core: core.clone(),
                pool: TaskPool::new(cfg.forward_workers, cfg.forward_queue_cap, "l2q-router-fwd"),
            }),
            listener,
            EngineConfig {
                name: "l2q-router-reactor".into(),
                max_line_bytes: cfg.max_line_bytes,
                max_connections: cfg.max_connections,
                refusal: Response {
                    ok: false,
                    error: Some("router at capacity".into()),
                    retry_after_ms: Some(100),
                    ..Response::default()
                },
                drain_timeout: cfg.drain_timeout,
                stop: stop.clone(),
            },
        )?;

        let probe_core = core.clone();
        let probe_stop = stop.clone();
        let prober_thread = std::thread::Builder::new()
            .name("l2q-router-prober".into())
            .spawn(move || prober_loop(probe_core, probe_stop))?;

        // The load rebalancer is opt-in: a zero interval keeps the fleet
        // placement purely ring + explicit migrations.
        let rebalancer_thread = if cfg.rebalance_interval > Duration::ZERO {
            let rebalance_core = core;
            let rebalance_stop = stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("l2q-router-rebalancer".into())
                    .spawn(move || rebalancer_loop(rebalance_core, rebalance_stop))?,
            )
        } else {
            None
        };

        Ok(RouterHandle {
            addr: local,
            stop,
            prober_thread: Some(prober_thread),
            rebalancer_thread,
            engine: Some(engine),
        })
    }
}

/// The router's [`WireHandler`]. Only purely local ops run inline on the
/// reactor thread; every shard-touching op blocks on shard sockets, so
/// it is forwarded from a dedicated bounded pool.
struct RouterWire {
    core: Arc<RouterCore>,
    pool: TaskPool,
}

impl WireHandler for RouterWire {
    fn run_inline(&self, req: &Request) -> Option<Response> {
        match req.op.as_str() {
            "ping" | "shutdown" => Some(self.core.dispatch(req)),
            _ => None,
        }
    }

    fn deadline_ms(&self, _req: &Request) -> u64 {
        // Deadlines are enforced end-to-end by the shard that executes
        // the step; the router does not double-time its forwards.
        0
    }

    fn dispatch(&self, req: Request, reply: ReplyHandle) {
        // Reply stays outside the closure until the pool accepts the
        // task, so a full forward queue answers `Overloaded`.
        let slot = Arc::new(Mutex::new(Some(reply)));
        let task_slot = slot.clone();
        let core = self.core.clone();
        let task: Box<dyn FnOnce() + Send> = Box::new(move || {
            let reply = task_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(reply) = reply {
                reply.complete(core.dispatch(&req));
            }
        });
        if let Err(e) = self.pool.submit(task) {
            if let Some(reply) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                reply.complete(Response::err(&e));
            }
        }
    }
}

/// Deterministic per-shard probe jitter: a splitmix of the shard name and
/// the probe round spreads deadlines over ±interval/4 so probes never
/// synchronize, without pulling in an RNG.
fn probe_jitter(name: &str, round: u64, interval: Duration) -> Duration {
    let quarter = (interval.as_millis() as u64 / 4).max(1);
    let mut z = round.wrapping_mul(0x9e3779b97f4a7c15);
    for b in name.as_bytes() {
        z = (z ^ u64::from(*b)).wrapping_mul(0xbf58476d1ce4e5b9);
    }
    z ^= z >> 31;
    Duration::from_millis(z % quarter)
}

fn prober_loop(core: Arc<RouterCore>, stop: Arc<AtomicBool>) {
    let interval = core.config().probe_interval;
    let client_cfg = core.config().client;
    // Per-shard next-probe deadline; new shards (join_shard) get probed
    // within one interval of appearing.
    let mut schedule: HashMap<String, (Instant, u64)> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        for shard in core.all_shards() {
            let (due, round) = *schedule
                .entry(shard.name().to_owned())
                .or_insert_with(|| (now + probe_jitter(shard.name(), 0, interval), 0));
            if now < due {
                continue;
            }
            probe_one(&core, &shard, &client_cfg);
            let next_round = round + 1;
            schedule.insert(
                shard.name().to_owned(),
                (
                    now + interval + probe_jitter(shard.name(), next_round, interval),
                    next_round,
                ),
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn probe_one(core: &Arc<RouterCore>, shard: &Arc<Shard>, cfg: &l2q_service::ClientConfig) {
    if shard.probe(cfg) {
        shard.note_ok();
    } else {
        core.note_probe_failure(shard);
    }
}

/// Background load rebalancer: one [`RouterCore::rebalance_once`] pass
/// per interval. Hysteresis and the per-pass budget live in the core;
/// this loop only paces it (and sleeps in short slices so shutdown never
/// waits out a long interval).
fn rebalancer_loop(core: Arc<RouterCore>, stop: Arc<AtomicBool>) {
    let interval = core.config().rebalance_interval;
    let mut next = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            core.rebalance_once();
            next = Instant::now() + interval;
        }
        std::thread::sleep(Duration::from_millis(50).min(interval));
    }
}
