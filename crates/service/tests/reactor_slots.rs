//! Reactor connection-slot accounting: churning accept/refuse cycles
//! must leave no leaked slots — the `reactor_registered_connections`
//! gauge returns to zero, refusals carry the `retry_after_ms` hint, and
//! a fresh connection is admitted once the churn ends. Once shutdown
//! begins, new connects are refused or closed, never served.
//!
//! This lives in its own test binary on purpose: the gauge is process
//! global, so the zero assertions need no other test holding reactor
//! connections open in parallel (the tests here take [`serial`]).

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, Corpus, CorpusConfig};
use l2q_service::{BundleConfig, Client, HarvestServer, ServerConfig, ServingBundle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One test at a time in this binary: each asserts on the global gauge.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn bundle() -> Arc<ServingBundle> {
    let corpus: Arc<Corpus> = Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 4,
                pages_per_entity: 8,
                seed: 11,
                ..CorpusConfig::tiny()
            },
        )
        .unwrap(),
    );
    let oracle = RelevanceOracle::from_truth(&corpus);
    Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ))
}

fn read_line_raw(stream: &mut TcpStream, timeout: Duration) -> std::io::Result<String> {
    stream.set_read_timeout(Some(timeout))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed before newline",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            return Ok(String::from_utf8_lossy(&buf[..pos]).into_owned());
        }
    }
}

fn registered() -> i64 {
    l2q_obs::global()
        .gauge("reactor_registered_connections")
        .get()
}

/// Wait (bounded) for the registered-connections gauge to drain to the
/// expected value; the reactor notices peer closes on its next poll wake.
fn wait_registered(expect: i64, timeout: Duration) -> i64 {
    let deadline = Instant::now() + timeout;
    loop {
        let now = registered();
        if now == expect || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Churn accept/refuse cycles against a server with a tiny
/// connection cap: every cycle fills the slots, collects a polite
/// refusal with a retry hint, then drops everything. No slot may leak —
/// the gauge returns to zero and a fresh connection is admitted.
#[test]
fn conn_slot_churn_leaves_no_leaked_slots() {
    let _serial = serial();
    let mut handle = HarvestServer::spawn(
        bundle(),
        ServerConfig {
            workers: 2,
            queue_cap: 32,
            max_connections: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();
    let refused_before = l2q_obs::global()
        .counter("wire_connections_refused_total")
        .get();

    for cycle in 0..15 {
        // Fill both admission slots and prove they are being served (the
        // ping round-trip also guarantees the reactor registered them).
        let mut held: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(addr).expect("connect holder"))
            .collect();
        for conn in held.iter_mut() {
            conn.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
            let resp = read_line_raw(conn, Duration::from_secs(5)).expect("pong");
            assert!(resp.contains("\"ok\":true"), "holder not served: {resp}");
        }

        // The next connection gets the one-line refusal with a retry
        // hint, written by the nonblocking writer, then a graceful
        // close. The engine's slot accounting only lags in the other
        // direction (a freed slot is noticed on a later readiness pass),
        // so with both slots held this must refuse on the first try.
        let mut extra = TcpStream::connect(addr).expect("connect extra");
        let refusal = read_line_raw(&mut extra, Duration::from_secs(5)).expect("refusal line");
        assert!(
            refusal.contains("server at capacity"),
            "cycle {cycle}: expected capacity refusal, got: {refusal}"
        );
        assert!(
            refusal.contains("\"retry_after_ms\":"),
            "cycle {cycle}: refusal missing retry hint: {refusal}"
        );
        let mut rest = Vec::new();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            extra.read_to_end(&mut rest).is_ok() && rest.is_empty(),
            "cycle {cycle}: refusal connection not closed gracefully"
        );

        // Drop the holders (one abruptly, via SO_LINGER-less close) and
        // the refusal socket; every slot must come back.
        drop(held);
        drop(extra);
        let now = wait_registered(0, Duration::from_secs(5));
        assert_eq!(now, 0, "cycle {cycle}: leaked reactor slots (gauge={now})");
    }

    let refused = l2q_obs::global()
        .counter("wire_connections_refused_total")
        .get();
    assert!(
        refused >= refused_before + 15,
        "refusals not accounted: before={refused_before} after={refused}"
    );

    // After all that churn a fresh connection is admitted and served.
    let mut conn = TcpStream::connect(addr).expect("connect after churn");
    conn.write_all(b"{\"op\":\"ping\",\"request_id\":99}\n")
        .expect("ping");
    let resp = read_line_raw(&mut conn, Duration::from_secs(5)).expect("pong");
    assert!(
        resp.contains("\"ok\":true"),
        "post-churn ping failed: {resp}"
    );
    drop(conn);

    handle.shutdown();
    assert_eq!(
        wait_registered(0, Duration::from_secs(5)),
        0,
        "shutdown left registered connections behind"
    );
}

/// What a connect attempt got from a server.
#[derive(Debug)]
enum Attempt {
    Refused,
    Closed,
    Served(String),
    Hung,
}

/// Connect, send a ping, and classify the outcome.
fn ping_attempt(addr: std::net::SocketAddr) -> Attempt {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return Attempt::Refused;
    };
    if conn.write_all(b"{\"op\":\"ping\"}\n").is_err() {
        return Attempt::Closed;
    }
    match read_line_raw(&mut conn, Duration::from_secs(2)) {
        Ok(line) => Attempt::Served(line),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Attempt::Hung,
        Err(_) => Attempt::Closed, // EOF or reset
    }
}

/// The engine drops its listener as soon as the stop flag starts the
/// drain: while an in-flight batch holds the bounded drain open, a new
/// connect is refused or closed — never served — and the in-flight
/// request still gets its answer.
#[test]
fn connects_after_shutdown_begins_are_never_served() {
    let _serial = serial();
    let mut handle = HarvestServer::spawn(
        bundle(),
        ServerConfig {
            workers: 1,
            queue_cap: 8,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();
    assert!(
        matches!(ping_attempt(addr), Attempt::Served(ref l) if l.contains("\"ok\":true")),
        "server not serving before shutdown"
    );

    // An 800ms batch in flight keeps the drain open. The reactor marks
    // the request in flight before it submits the job, so a new
    // scheduler job means the step is pending on its connection.
    let mut client = Client::connect(addr).expect("connect");
    let session = client
        .create(0, "RESEARCH", "sleep=800", Some(4), 0)
        .expect("create sleep session");
    let jobs = || l2q_obs::global().counter("scheduler_jobs_total").get();
    let jobs_before = jobs();
    let in_flight = std::thread::spawn(move || client.step(session, 1, 0));
    let deadline = Instant::now() + Duration::from_secs(5);
    while jobs() == jobs_before {
        assert!(
            Instant::now() < deadline,
            "step never reached the scheduler"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The `shutdown` op sets the same stop flag `ServerHandle::shutdown`
    // does; once its reply arrives the drain has begun.
    let mut admin = Client::connect(addr).expect("connect admin");
    let resp = admin
        .request(&l2q_service::Request::op("shutdown"))
        .expect("shutdown op");
    assert_eq!(resp.state.as_deref(), Some("shutting_down"));

    for attempt in 0..5 {
        let got = ping_attempt(addr);
        assert!(
            matches!(got, Attempt::Refused | Attempt::Closed),
            "attempt {attempt} during the drain: {got:?}"
        );
    }
    let step = in_flight.join().expect("in-flight thread");
    assert!(step.is_ok(), "in-flight step lost in the drain: {step:?}");

    handle.shutdown();
    let got = ping_attempt(addr);
    assert!(
        matches!(got, Attempt::Refused | Attempt::Closed),
        "after shutdown: {got:?}"
    );
    assert_eq!(
        wait_registered(0, Duration::from_secs(5)),
        0,
        "shutdown left registered connections behind"
    );
}
