//! The served system under test: two `l2q-serve` shards over one shared
//! durable store, fronted by an `l2q-router`, each in a process of its
//! own (this binary re-executed in a server role). Separate processes
//! keep the servers' CPU time and memory apart from the load generator's.
//!
//! A server child prints `ready <addr>` once it answers requests, then
//! serves until its stdin closes; the line `usage` on stdin makes it
//! print `usage <cpu_us>`, its whole-process CPU time.

use crate::sys;
use crate::world::{self, Scale};
use l2q_router::{RouterConfig, RouterCore, RouterServer};
use l2q_service::{Client, ClientConfig, HarvestServer, ServerConfig};
use l2q_store::{SessionStore, StoreConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The corpus every served workload harvests: small, so a step's
/// selection costs a couple of milliseconds and the wire, router,
/// scheduler and store are a large share of it.
pub const SCALE: Scale = Scale {
    entities: 160,
    pages: 12,
    domain: 16,
};
pub const SHARDS: [&str; 2] = ["alpha", "beta"];

/// Serve until stdin closes (the body of a server child).
fn serve_until_eof(addr: std::net::SocketAddr) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {addr}").expect("write ready line");
    out.flush().expect("flush ready line");
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "usage" {
            writeln!(out, "usage {}", sys::process_cpu().as_micros()).expect("write usage");
            out.flush().expect("flush usage");
        }
    }
}

/// The corpus a shard serves: `served` (the served workloads) or `batch`
/// (the batch corpus, for the traced run's probes).
pub fn scale_named(name: &str) -> Scale {
    match name {
        "batch" => crate::batch::SCALE,
        _ => SCALE,
    }
}

/// `--role shard <name> <data-dir> <scale>`: build the bundle, learn the
/// domain model, and serve with a durable store at the default fsync
/// policy.
pub fn shard_main(name: &str, data_dir: &Path, scale: &str) {
    let scale = scale_named(scale);
    let bundle = world::bundle(scale);
    world::warm(&bundle, scale);
    let store = Arc::new(SessionStore::open(data_dir, StoreConfig::default()).expect("open store"));
    let mut server = HarvestServer::spawn_with_store(
        bundle,
        ServerConfig {
            workers: sys::nproc(),
            shard_id: Some(name.to_owned()),
            ..ServerConfig::default()
        },
        Some(store),
        "127.0.0.1:0",
    )
    .expect("bind shard");
    serve_until_eof(server.addr());
    server.shutdown();
}

/// `--role router <name>=<addr>...`: front the given shards.
pub fn router_main(shards: &[String]) {
    let core = Arc::new(RouterCore::new(RouterConfig::default()));
    for spec in shards {
        let (name, addr) = spec.split_once('=').expect("shard spec is name=addr");
        core.add_shard(name, addr).expect("register shard");
    }
    let mut router = RouterServer::spawn(core, "127.0.0.1:0").expect("bind router");
    serve_until_eof(router.addr());
    router.shutdown();
}

/// A server child process.
struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    fn spawn(args: &[String]) -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self {
            child,
            stdin,
            stdout,
            addr: String::new(),
        })
    }

    /// Wait for the child's `ready <addr>` line.
    fn await_ready(&mut self) -> std::io::Result<()> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("ready ") {
            Some(addr) => {
                self.addr = addr.to_owned();
                Ok(())
            }
            None => Err(std::io::Error::other(format!(
                "server child failed to start: {line:?}"
            ))),
        }
    }

    fn cpu(&mut self) -> Duration {
        let stdin = self.stdin.as_mut().expect("child running");
        writeln!(stdin, "usage").expect("ask child for usage");
        stdin.flush().expect("flush usage request");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read usage");
        let us = line
            .trim()
            .strip_prefix("usage ")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad usage line {line:?}"));
        Duration::from_micros(us)
    }

    fn stop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running fleet: two shards and the router in front of them.
pub struct Fleet {
    shards: Vec<Proc>,
    router: Proc,
    data_dir: PathBuf,
}

/// Client policy for the load generator: no overload retries (every
/// refusal counts as a failure) and a generous response timeout.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

fn ping(addr: &str) -> std::io::Result<()> {
    let mut c = Client::connect_with(addr, client_config())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    c.request(&l2q_service::Request::op("ping"))
        .map(drop)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

impl Fleet {
    /// Start the shards (in parallel), then the router, and wait until
    /// every server answers `ping`.
    pub fn start(data_dir: &Path, scale: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(data_dir)?;
        let dir = data_dir.to_string_lossy().into_owned();
        let mut shards = SHARDS
            .iter()
            .map(|name| {
                Proc::spawn(&[
                    "--role".into(),
                    "shard".into(),
                    (*name).into(),
                    dir.clone(),
                    scale.into(),
                ])
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        for s in &mut shards {
            s.await_ready()?;
        }
        let mut args = vec!["--role".to_owned(), "router".to_owned()];
        args.extend(
            SHARDS
                .iter()
                .zip(&shards)
                .map(|(name, s)| format!("{name}={}", s.addr)),
        );
        let mut router = Proc::spawn(&args)?;
        router.await_ready()?;
        for addr in shards.iter().map(|s| &s.addr).chain([&router.addr]) {
            ping(addr)?;
        }
        Ok(Self {
            shards,
            router,
            data_dir: data_dir.to_owned(),
        })
    }

    /// Start the served fleet `reps` times (tearing down all but the
    /// last) and return it with each start's wall time in seconds.
    pub fn start_repeatedly(data_dir: &Path, reps: usize) -> std::io::Result<(Self, Vec<f64>)> {
        let mut times = Vec::with_capacity(reps);
        let mut fleet: Option<Fleet> = None;
        for _ in 0..reps {
            drop(fleet.take());
            let t = Instant::now();
            fleet = Some(Fleet::start(data_dir, "served")?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((fleet.expect("at least one start"), times))
    }

    pub fn router_addr(&self) -> &str {
        &self.router.addr
    }

    pub fn shard_addr(&self, i: usize) -> &str {
        &self.shards[i].addr
    }

    /// CPU time of every server process so far, summed.
    pub fn cpu(&mut self) -> Duration {
        self.shards
            .iter_mut()
            .chain([&mut self.router])
            .map(Proc::cpu)
            .sum()
    }

    /// Peak resident memory of the server processes, summed, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .chain([&self.router])
            .map(|p| sys::peak_rss_kb(p.child.id()) as f64 / 1024.0)
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Router first, so no forward lands on a shard that is stopping.
        self.router.stop();
        for s in &mut self.shards {
            s.stop();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// A fresh store directory inside the working directory.
pub fn data_dir(tag: &str) -> PathBuf {
    PathBuf::from(".harvestbench-data").join(format!("{}-{tag}", std::process::id()))
}
