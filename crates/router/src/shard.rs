//! One registered `l2q-serve` shard: address, health state, and a small
//! pool of reusable client connections.

use crate::lock::lock_recover;
use l2q_service::{Client, ClientConfig, ClientError, Request, Response};
use std::sync::{Arc, Mutex};

/// How many idle connections to keep pooled per shard.
const POOL_CAP: usize = 8;

/// A shard's health as the router sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Probes pass; full traffic.
    Healthy,
    /// A recent probe or request failed; still routable (the next
    /// failure past the threshold marks it dead).
    Suspect,
    /// Probes keep failing; skipped by routing until a probe succeeds.
    Dead,
    /// Administratively draining (`drain_shard`); not routable, but
    /// reachable for migration drains.
    Draining,
}

impl Health {
    /// Wire/diagnostic name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Dead => "dead",
            Self::Draining => "draining",
        }
    }

    /// Gauge encoding (`router_shard_health{shard=...}`): 0 dead,
    /// 1 suspect, 2 healthy, 3 draining.
    fn gauge_value(self) -> i64 {
        match self {
            Self::Dead => 0,
            Self::Suspect => 1,
            Self::Healthy => 2,
            Self::Draining => 3,
        }
    }
}

struct HealthState {
    health: Health,
    consecutive_failures: u32,
}

/// A registered shard. All methods take `&self`; the router shares each
/// shard behind an `Arc` across forward workers and the prober.
pub struct Shard {
    name: String,
    addr: String,
    state: Mutex<HealthState>,
    pool: Mutex<Vec<Client>>,
    health_gauge: Arc<l2q_obs::Gauge>,
}

impl Shard {
    /// Register a shard, initially healthy.
    pub fn new(name: &str, addr: &str) -> Self {
        let health_gauge = l2q_obs::global().gauge_with("router_shard_health", &[("shard", name)]);
        health_gauge.set(Health::Healthy.gauge_value());
        Self {
            name: name.to_owned(),
            addr: addr.to_owned(),
            state: Mutex::new(HealthState {
                health: Health::Healthy,
                consecutive_failures: 0,
            }),
            pool: Mutex::new(Vec::new()),
            health_gauge,
        }
    }

    /// The shard's ring name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current health.
    pub fn health(&self) -> Health {
        lock_recover(&self.state).health
    }

    /// Whether routing may send session traffic here.
    pub fn routable(&self) -> bool {
        matches!(self.health(), Health::Healthy | Health::Suspect)
    }

    /// Force a health state (admin drain / undrain).
    pub fn set_health(&self, health: Health) {
        let mut st = lock_recover(&self.state);
        st.health = health;
        st.consecutive_failures = 0;
        self.health_gauge.set(health.gauge_value());
    }

    /// Record a successful probe or request: failures reset, and a
    /// suspect/dead shard recovers (draining is sticky — only an admin
    /// undrains).
    pub fn note_ok(&self) {
        let mut st = lock_recover(&self.state);
        st.consecutive_failures = 0;
        if !matches!(st.health, Health::Draining) && st.health != Health::Healthy {
            st.health = Health::Healthy;
            self.health_gauge.set(Health::Healthy.gauge_value());
        }
    }

    /// Record a transport failure: suspect immediately, dead once
    /// `threshold` consecutive failures accumulate. Returns the new
    /// health.
    pub fn note_failure(&self, threshold: u32) -> Health {
        let mut st = lock_recover(&self.state);
        st.consecutive_failures = st.consecutive_failures.saturating_add(1);
        if !matches!(st.health, Health::Draining) {
            st.health = if st.consecutive_failures >= threshold.max(1) {
                Health::Dead
            } else {
                Health::Suspect
            };
            self.health_gauge.set(st.health.gauge_value());
        }
        st.health
    }

    /// Send one request over a pooled connection (dialing a fresh one
    /// when the pool is empty or its connection has gone stale). Returns
    /// the raw response — `ok:false` refusals pass through untouched;
    /// `Err` means transport failure after a fresh dial, i.e. the shard
    /// itself is unreachable.
    pub fn request(&self, cfg: &ClientConfig, req: &Request) -> Result<Response, ClientError> {
        // Bind the pop so the pool guard drops here — an `if let` on the
        // locked pop would hold the pool mutex across the request (and
        // self-deadlock on check_in).
        let pooled = lock_recover(&self.pool).pop();
        if let Some(mut conn) = pooled {
            if let Ok(resp) = conn.request_raw(req) {
                self.check_in(conn);
                self.note_ok();
                return Ok(resp);
            }
            // Stale pooled connection (idle close, shard restart): fall
            // through to a fresh dial before declaring the shard gone.
        }
        let mut conn = Client::connect_with(self.addr.as_str(), *cfg)?;
        let resp = conn.request_raw(req)?;
        self.check_in(conn);
        self.note_ok();
        Ok(resp)
    }

    fn check_in(&self, conn: Client) {
        let mut pool = lock_recover(&self.pool);
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }

    /// One health probe: a `ping` over the pooled transport.
    pub fn probe(&self, cfg: &ClientConfig) -> bool {
        matches!(self.request(cfg, &Request::op("ping")), Ok(resp) if resp.ok)
    }
}
