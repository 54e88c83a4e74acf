//! Hostile-workload generators and attack clients for the bench harness.
//!
//! `bench/`'s workloads measure the proxy on its best day: polite
//! keep-alive clients, complete requests, drained responses.  This
//! module measures its worst day — the traffic mixes
//! that killed unguarded event loops in practice:
//!
//! * **Skewed load** — `ZipfKeys` and `FlashCrowd` port the
//!   Zipf-popularity idiom of `nakika-sim`'s workload generators onto
//!   real TCP: most requests hammer a few hot keys, a flash crowd
//!   collapses the whole population onto one.
//! * **Attack clients** — [`slow_loris`] (one header byte per tick,
//!   forever), [`header_flood`] (an unbounded header list),
//!   [`oversized_body`] (a `Content-Length` past the parser cap),
//!   [`SlowReader`] (requests a large body, then reads one byte per
//!   tick), and `connection_churn` (open, dawdle, vanish).
//! * **Endurance** — [`keepalive_soak`] holds thousands of polite
//!   keep-alive sessions open at once (scaled to the process's fd
//!   budget by [`fd_budget_connections`]) and counts every dropped
//!   connection, and `run_barrage` measures what an active attack
//!   does to the warm-path p99 of clients that did nothing wrong.
//!
//! Everything here is a *client*: the defenses under test (progress
//! deadlines, header caps, connection caps) live in `nakika-server` and
//! `nakika-http`.

use crate::hist::LatencyRecorder;
use nakika_core::service::{service_fn, NakikaError};
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ReactorConfig, ServerOptions, TcpOrigin,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Skewed-popularity generators
// ---------------------------------------------------------------------------

/// Zipf-distributed key popularity over `n` keys with exponent `s`:
/// key `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^s`.  Deterministic per seed, like the sim workloads.
pub(crate) struct ZipfKeys {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfKeys {
    /// A generator over `n` keys (`n >= 1`) with skew `s` (1.0 is the
    /// classic web-caching value; 0.0 degenerates to uniform).
    pub(crate) fn new(n: usize, s: f64, seed: u64) -> ZipfKeys {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfKeys {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next key index (0-based; 0 is the most popular).
    pub(crate) fn next_key(&mut self) -> usize {
        let r: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < r).min(self.cdf.len() - 1)
    }
}

/// A flash crowd layered over a [`ZipfKeys`] background: after
/// `flash_after` draws, each draw lands on the single hot key with
/// probability `hot_fraction`, modelling the population collapsing onto
/// one suddenly-famous URL.
pub(crate) struct FlashCrowd {
    background: ZipfKeys,
    chooser: StdRng,
    drawn: usize,
    /// Draws before the crowd forms.
    pub(crate) flash_after: usize,
    /// Post-flash probability that a draw hits the hot key.
    pub(crate) hot_fraction: f64,
    /// The suddenly-famous key.
    pub(crate) hot_key: usize,
}

impl FlashCrowd {
    /// A crowd over `n` keys: Zipf(`s`) until `flash_after` draws, then
    /// `hot_fraction` of traffic piles onto key 0.
    pub(crate) fn new(
        n: usize,
        s: f64,
        flash_after: usize,
        hot_fraction: f64,
        seed: u64,
    ) -> FlashCrowd {
        FlashCrowd {
            background: ZipfKeys::new(n, s, seed),
            chooser: StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
            drawn: 0,
            flash_after,
            hot_fraction: hot_fraction.clamp(0.0, 1.0),
            hot_key: 0,
        }
    }

    /// Draws the next key index.
    pub(crate) fn next_key(&mut self) -> usize {
        self.drawn += 1;
        if self.drawn > self.flash_after && self.chooser.gen::<f64>() < self.hot_fraction {
            return self.hot_key;
        }
        self.background.next_key()
    }
}

// ---------------------------------------------------------------------------
// Attack clients
// ---------------------------------------------------------------------------

/// What became of one attack connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The server cut the connection (or refused the request) — the
    /// defense worked.
    pub evicted: bool,
    /// Status code the server sent before closing, if any (408 from a
    /// deadline, 431/413 from a parser cap, 503 from the connection cap).
    pub status: Option<u16>,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// Reads whatever response the server manages to send before closing and
/// extracts its status code.  `None` means the connection died with no
/// parseable status line.
fn read_status(stream: &mut TcpStream) -> Option<u16> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = buf.split(|&b| b == b'\r').next()?;
    let line = std::str::from_utf8(line).ok()?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A slow-loris client: sends a valid request line, then drips one header
/// byte every `drip` for at most `give_up`, never completing the head.
/// Returns as soon as the server cuts the connection (`evicted: true`,
/// possibly with a 408) or when `give_up` expires with the server still
/// humouring us (`evicted: false` — the defense failed).
pub fn slow_loris(addr: SocketAddr, drip: Duration, give_up: Duration) -> AttackOutcome {
    let Ok(mut stream) = connect(addr) else {
        return AttackOutcome {
            evicted: true,
            status: None,
        };
    };
    if stream
        .write_all(b"GET http://origin.invalid/ HTTP/1.1\r\nHost: origin.invalid\r\nX-Drip: ")
        .is_err()
    {
        return AttackOutcome {
            evicted: true,
            status: None,
        };
    }
    stream.set_read_timeout(Some(Duration::from_millis(1))).ok();
    let start = Instant::now();
    let mut chunk = [0u8; 1024];
    let mut got = Vec::new();
    while start.elapsed() < give_up {
        std::thread::sleep(drip);
        // Probe for a server verdict (408 / close) between drips.
        match stream.read(&mut chunk) {
            Ok(0) => {
                return AttackOutcome {
                    evicted: true,
                    status: parse_status_bytes(&got),
                }
            }
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                return AttackOutcome {
                    evicted: true,
                    status: parse_status_bytes(&got),
                }
            }
        }
        if stream.write_all(b"a").is_err() {
            return AttackOutcome {
                evicted: true,
                status: parse_status_bytes(&got),
            };
        }
    }
    AttackOutcome {
        evicted: false,
        status: parse_status_bytes(&got),
    }
}

fn parse_status_bytes(buf: &[u8]) -> Option<u16> {
    let line = buf.split(|&b| b == b'\r').next()?;
    std::str::from_utf8(line)
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// A header flood: one complete request carrying `headers` header lines
/// (far past the parser's count cap).  Returns the server's verdict —
/// a healthy server answers 431 and closes instead of buffering the lot.
pub fn header_flood(addr: SocketAddr, headers: usize) -> AttackOutcome {
    let Ok(mut stream) = connect(addr) else {
        return AttackOutcome {
            evicted: true,
            status: None,
        };
    };
    let mut request =
        String::from("GET http://origin.invalid/ HTTP/1.1\r\nHost: origin.invalid\r\n");
    for i in 0..headers {
        request.push_str(&format!("X-Flood-{i}: aaaaaaaaaaaaaaaa\r\n"));
    }
    request.push_str("\r\n");
    // The server may slam the door mid-write; that is success too.
    let _ = stream.write_all(request.as_bytes());
    let status = read_status(&mut stream);
    AttackOutcome {
        evicted: true,
        status,
    }
}

/// Announces a body far past the parser's size cap and sends none of it.
/// A healthy server answers 413 from the `Content-Length` alone.
pub fn oversized_body(addr: SocketAddr, declared_bytes: u64) -> AttackOutcome {
    let Ok(mut stream) = connect(addr) else {
        return AttackOutcome {
            evicted: true,
            status: None,
        };
    };
    let head = format!(
        "POST http://origin.invalid/upload HTTP/1.1\r\nHost: origin.invalid\r\n\
         Content-Length: {declared_bytes}\r\n\r\n"
    );
    let _ = stream.write_all(head.as_bytes());
    let status = read_status(&mut stream);
    AttackOutcome {
        evicted: true,
        status,
    }
}

/// A slow-read client: requests `url` (typically a large cached body),
/// then drains one byte every `drip`.  The server's output buffer for
/// this connection never empties, so its progress deadline must fire.
pub struct SlowReader {
    stream: TcpStream,
}

impl SlowReader {
    /// Sends the request and returns the draining handle.
    pub fn start(addr: SocketAddr, url: &str) -> std::io::Result<SlowReader> {
        let mut stream = connect(addr)?;
        let request = format!("GET {url} HTTP/1.1\r\nHost: origin.invalid\r\n\r\n");
        stream.write_all(request.as_bytes())?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(SlowReader { stream })
    }

    /// Reads one byte per `drip` until the server gives up on us or
    /// `give_up` expires.  `true` means we were evicted mid-body.
    pub fn drain(mut self, drip: Duration, give_up: Duration) -> bool {
        let start = Instant::now();
        let mut byte = [0u8; 1];
        while start.elapsed() < give_up {
            match self.stream.read(&mut byte) {
                Ok(0) => return true,
                Ok(_) => std::thread::sleep(drip),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return true,
            }
        }
        false
    }
}

/// Connection churn: `count` times, connect, linger briefly, and vanish
/// without sending a byte.  Exercises accept-path bookkeeping (slot
/// claim/release, deadline arm/disarm) at a hostile rate.
pub(crate) fn connection_churn(addr: SocketAddr, count: usize, linger: Duration) {
    for _ in 0..count {
        if let Ok(stream) = connect(addr) {
            std::thread::sleep(linger);
            drop(stream);
        }
    }
}

// ---------------------------------------------------------------------------
// Endurance: the keep-alive soak
// ---------------------------------------------------------------------------

/// Result of a [`keepalive_soak`] run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Keep-alive connections actually opened.
    pub connections: usize,
    /// Requests completed across all rounds.
    pub completed: u64,
    /// Connections that died mid-soak (must be zero for a healthy server).
    pub dropped: usize,
    /// Latency distribution over every soak request.
    pub hist: LatencyRecorder,
    /// Wall-clock duration of the soak.
    pub(crate) elapsed: Duration,
}

/// The soft fd limit of this process, read from `/proc/self/limits`
/// (falls back to 1024, the classic default, when unreadable).
pub(crate) fn fd_soft_limit() -> usize {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Scales a requested soak size to what the fd budget can hold: each
/// soak connection costs two descriptors (client end and server end
/// share this process), plus headroom for the harness itself.
pub fn fd_budget_connections(requested: usize) -> usize {
    let limit = fd_soft_limit();
    let headroom = 256;
    let usable = limit.saturating_sub(headroom) / 2;
    requested.min(usable).max(1)
}

/// Holds `connections` polite keep-alive sessions open simultaneously and
/// drives `rounds` request/response cycles over every one of them,
/// round-robin.  A healthy server with a progress-based idle policy
/// drops none of them: every connection completes a request each round,
/// which re-arms its deadline.
pub fn keepalive_soak(
    addr: SocketAddr,
    url: &str,
    connections: usize,
    rounds: usize,
) -> Result<SoakReport, NakikaError> {
    let start = Instant::now();
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        clients.push(Some(ProxyClient::connect(addr)?));
    }
    let hist = LatencyRecorder::new();
    let mut completed = 0u64;
    let mut dropped = 0usize;
    for _ in 0..rounds {
        for slot in clients.iter_mut() {
            let Some(client) = slot.as_mut() else {
                continue;
            };
            let t = Instant::now();
            match client.get(url) {
                Ok(_) => {
                    hist.record(t.elapsed());
                    completed += 1;
                }
                Err(_) => {
                    dropped += 1;
                    *slot = None;
                }
            }
        }
    }
    Ok(SoakReport {
        connections,
        completed,
        dropped,
        hist,
        elapsed: start.elapsed(),
    })
}

// ---------------------------------------------------------------------------
// The barrage: polite latency under active attack
// ---------------------------------------------------------------------------

/// Result of a [`run_barrage`] run: warm keep-alive latency with and
/// without a concurrent attack.
#[derive(Debug, Clone)]
pub(crate) struct BarrageReport {
    /// p50/p99 (µs) of the polite clients with no attack running.
    pub(crate) baseline_p50_us: u64,
    /// See `baseline_p50_us`.
    pub(crate) baseline_p99_us: u64,
    /// p50/p99 (µs) of the polite clients while the barrage ran.
    pub(crate) attacked_p50_us: u64,
    /// See `attacked_p50_us`.
    pub(crate) attacked_p99_us: u64,
    /// Slow-loris clients the server evicted (all of them, ideally).
    pub(crate) loris_evicted: usize,
    /// Slow-loris clients launched.
    pub(crate) loris_launched: usize,
    /// Header floods answered with 431.
    pub(crate) floods_rejected: usize,
    /// Header floods launched.
    pub(crate) floods_launched: usize,
}

/// Measures warm keep-alive latency across `clients` threads doing
/// `per_client` requests each, all recording into one shared histogram.
fn polite_wave(
    addr: SocketAddr,
    url: &str,
    clients: usize,
    per_client: usize,
) -> Result<LatencyRecorder, NakikaError> {
    let hist = Arc::new(LatencyRecorder::new());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let hist = hist.clone();
                scope.spawn(move || -> Result<(), NakikaError> {
                    let mut client = ProxyClient::connect(addr)?;
                    for _ in 0..per_client {
                        let t = Instant::now();
                        client.get(url)?;
                        hist.record(t.elapsed());
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join()
                .map_err(|_| NakikaError::Internal("polite client panicked".into()))??;
        }
        Ok::<(), NakikaError>(())
    })?;
    Ok(Arc::try_unwrap(hist).unwrap_or_else(|shared| {
        let copy = LatencyRecorder::new();
        copy.merge(&shared);
        copy
    }))
}

/// Runs the headline hostile experiment: measure the warm keep-alive
/// distribution clean, then re-measure it while slow-loris clients,
/// header floods, and connection churn hammer the same server.  The
/// attack clients run on their own threads for the whole attacked wave;
/// the report pairs the two distributions so the caller can assert the
/// polite p99 stayed put.
pub(crate) fn run_barrage(
    addr: SocketAddr,
    url: &str,
    clients: usize,
    per_client: usize,
    loris_count: usize,
) -> Result<BarrageReport, NakikaError> {
    let baseline = polite_wave(addr, url, clients, per_client)?;

    let stop = Arc::new(AtomicBool::new(false));
    let lorises: Vec<_> = (0..loris_count)
        .map(|_| {
            std::thread::spawn(move || {
                // Drip fast enough to look alive to a naive byte-activity
                // timer, far too slow to ever finish a request.
                slow_loris(addr, Duration::from_millis(20), Duration::from_secs(30))
            })
        })
        .collect();
    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut launched = 0usize;
            let mut rejected = 0usize;
            while !stop.load(Ordering::Relaxed) {
                launched += 1;
                if header_flood(addr, 512).status == Some(431) {
                    rejected += 1;
                }
            }
            (launched, rejected)
        })
    };
    let churner = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                connection_churn(addr, 8, Duration::from_millis(1));
            }
        })
    };

    let attacked = polite_wave(addr, url, clients, per_client);

    stop.store(true, Ordering::Relaxed);
    let loris_launched = lorises.len();
    // The lorises give up on their own after the give_up window; we only
    // wait, never kill.
    let loris_evicted = lorises
        .into_iter()
        .filter_map(|t| t.join().ok())
        .filter(|outcome| outcome.evicted)
        .count();
    let (floods_launched, floods_rejected) = flooder.join().unwrap_or((0, 0));
    churner.join().ok();
    let attacked = attacked?;

    Ok(BarrageReport {
        baseline_p50_us: baseline.percentile_us(0.50),
        baseline_p99_us: baseline.percentile_us(0.99),
        attacked_p50_us: attacked.percentile_us(0.50),
        attacked_p99_us: attacked.percentile_us(0.99),
        loris_evicted,
        loris_launched,
        floods_rejected,
        floods_launched,
    })
}

// ---------------------------------------------------------------------------
// The full hostile suite, as run by the experiments harness
// ---------------------------------------------------------------------------

/// Scale knobs for [`run_hostile_suite`].
#[derive(Debug, Clone, Copy)]
pub struct HostileKnobs {
    /// Requests drawn from the flash-crowd generator.
    pub(crate) flash_requests: usize,
    /// Keep-alive connections the soak asks for (scaled down to the fd
    /// budget by [`fd_budget_connections`]).
    pub soak_connections: usize,
    /// Request/response rounds over every soak connection.
    pub(crate) soak_rounds: usize,
    /// Polite keep-alive clients in each barrage wave.
    pub(crate) barrage_clients: usize,
    /// Requests per polite client per wave.
    pub(crate) barrage_per_client: usize,
    /// Concurrent slow-loris clients during the attacked wave.
    pub(crate) loris_count: usize,
}

impl HostileKnobs {
    /// The CI-sized run.
    pub fn quick() -> HostileKnobs {
        HostileKnobs {
            flash_requests: 2_000,
            soak_connections: 1_000,
            soak_rounds: 3,
            barrage_clients: 8,
            barrage_per_client: 64,
            loris_count: 4,
        }
    }

    /// The full run recorded in EXPERIMENTS.md — including the
    /// 10k-connection soak (fd budget permitting).
    pub fn full() -> HostileKnobs {
        HostileKnobs {
            flash_requests: 20_000,
            soak_connections: 10_000,
            soak_rounds: 3,
            barrage_clients: 8,
            barrage_per_client: 256,
            loris_count: 8,
        }
    }
}

/// Everything [`run_hostile_suite`] measures.
#[derive(Debug, Clone)]
pub struct HostileSuiteReport {
    /// Flash-crowd throughput (requests per second).
    pub(crate) flash_rps: f64,
    /// Flash-crowd p99 latency, µs.
    pub(crate) flash_p99_us: u64,
    /// Polite latency with and without the active attack.
    pub(crate) barrage: BarrageReport,
    /// The keep-alive soak outcome.
    pub soak: SoakReport,
    /// Deadline evictions the server counted over the whole suite.
    pub(crate) timeouts: u64,
    /// Connections refused over the cap (0: the suite sets no cap).
    pub(crate) rejected_over_cap: u64,
}

/// Stands up an origin + plain proxy and runs the whole hostile suite
/// against it: the flash-crowd workload, the slow-loris/flood barrage,
/// and the keep-alive soak.  The flash/barrage proxy runs with a
/// 1-second progress deadline so the attack phases resolve quickly; the
/// soak gets its own front-end with the default deadline (round-robin
/// over thousands of connections makes polite clients slow by nature).
pub fn run_hostile_suite(knobs: HostileKnobs) -> Result<HostileSuiteReport, NakikaError> {
    let internal = |context: &str| {
        let context = context.to_string();
        move |e: std::io::Error| NakikaError::Internal(format!("{context}: {e}"))
    };
    let origin = HttpServer::start(
        0,
        service_fn(|_req: Request, _ctx| {
            Ok(Response::ok("text/html", "x".repeat(2096))
                .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .map_err(internal("hostile origin failed to start"))?;
    let edge = NodeBuilder::plain_proxy("hostile-bench")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = HttpServer::start_reactor(
        0,
        edge.service(),
        ReactorConfig {
            options: ServerOptions {
                idle_timeout_ms: 1_000,
                ..ServerOptions::default()
            },
            ..ReactorConfig::default()
        },
    )
    .map_err(internal("hostile proxy failed to start"))?;
    let base = origin.base_url();
    let addr = proxy.addr();

    // Flash crowd: Zipf background, then 80% of traffic on one hot key.
    let mut crowd = FlashCrowd::new(256, 1.0, knobs.flash_requests / 2, 0.8, 42);
    let flash_hist = LatencyRecorder::new();
    let start = Instant::now();
    let mut client = ProxyClient::connect(addr)?;
    for _ in 0..knobs.flash_requests {
        let key = crowd.next_key();
        let t = Instant::now();
        client.get(&format!("{base}/flash/{key}.html"))?;
        flash_hist.record(t.elapsed());
    }
    let flash_secs = start.elapsed().as_secs_f64().max(1e-9);
    drop(client);

    // The barrage: polite latency clean, then under active attack.
    let hot_url = format!("{base}/flash/0.html");
    let barrage = run_barrage(
        addr,
        &hot_url,
        knobs.barrage_clients,
        knobs.barrage_per_client,
        knobs.loris_count,
    )?;

    // The soak: thousands of polite keep-alive sessions, zero drops
    // allowed.  It runs against a second front-end with the *default* progress
    // deadline: one client round-robining thousands of connections
    // leaves each one idle for whole seconds between its requests, so
    // the barrage proxy's deliberately aggressive 1-second deadline
    // would evict polite clients for being patient.
    let soak_proxy = HttpServer::start(0, edge.service())
        .map_err(internal("hostile soak proxy failed to start"))?;
    let conns = fd_budget_connections(knobs.soak_connections);
    http_get_via_proxy(soak_proxy.addr(), &hot_url)?;
    let soak = keepalive_soak(soak_proxy.addr(), &hot_url, conns, knobs.soak_rounds)?;

    Ok(HostileSuiteReport {
        flash_rps: knobs.flash_requests as f64 / flash_secs,
        flash_p99_us: flash_hist.percentile_us(0.99),
        barrage,
        soak,
        timeouts: proxy.stats().timeouts(),
        rejected_over_cap: proxy.stats().rejected_over_cap(),
    })
}

/// Formats one [`HostileSuiteReport`] as the block the experiments
/// harness prints.
pub fn format_hostile_report(r: &HostileSuiteReport) -> String {
    format!(
        "\x20 flash crowd: {flash_rps:.0} rps, p99 {flash_p99} us\n\
         \x20 barrage: polite p50/p99 {b50}/{b99} us clean -> {a50}/{a99} us under attack \
         ({ratio:.2}x p99)\n\
         \x20 attackers: {loris_evicted}/{loris_launched} slow-loris evicted, \
         {floods_rejected}/{floods_launched} header floods answered 431\n\
         \x20 soak: {conns} keep-alive connections x {completed} requests, {dropped} dropped, \
         p99 {soak_p99} us in {elapsed:.1} s\n\
         \x20 server counters: {timeouts} deadline evictions, {over_cap} over-cap refusals\n",
        flash_rps = r.flash_rps,
        flash_p99 = r.flash_p99_us,
        b50 = r.barrage.baseline_p50_us,
        b99 = r.barrage.baseline_p99_us,
        a50 = r.barrage.attacked_p50_us,
        a99 = r.barrage.attacked_p99_us,
        ratio = r.barrage.attacked_p99_us as f64 / r.barrage.baseline_p99_us.max(1) as f64,
        loris_evicted = r.barrage.loris_evicted,
        loris_launched = r.barrage.loris_launched,
        floods_rejected = r.barrage.floods_rejected,
        floods_launched = r.barrage.floods_launched,
        conns = r.soak.connections,
        completed = r.soak.completed,
        dropped = r.soak.dropped,
        soak_p99 = r.soak.hist.percentile_us(0.99),
        elapsed = r.soak.elapsed.as_secs_f64(),
        timeouts = r.timeouts,
        over_cap = r.rejected_over_cap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let mut a = ZipfKeys::new(100, 1.0, 7);
        let mut b = ZipfKeys::new(100, 1.0, 7);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            let k = a.next_key();
            assert_eq!(k, b.next_key(), "same seed must replay");
            counts[k] += 1;
        }
        // Under Zipf(1.0) over 100 keys the top key draws ~19% of traffic.
        assert!(
            counts[0] > counts[50].max(1) * 5,
            "head not hot: {counts:?}"
        );
        let top10: usize = counts[..10].iter().sum();
        assert!(top10 > 5_000, "top-10 keys drew only {top10}/10000");
    }

    #[test]
    fn flash_crowd_concentrates_after_the_flash() {
        let mut crowd = FlashCrowd::new(1000, 1.0, 500, 0.9, 11);
        let before_hot = (0..500).filter(|_| crowd.next_key() == 0).count();
        let after_hot = (0..500).filter(|_| crowd.next_key() == 0).count();
        assert!(
            after_hot > before_hot * 2 && after_hot > 400,
            "flash did not concentrate: {before_hot} -> {after_hot}"
        );
    }

    #[test]
    fn fd_budget_is_sane() {
        let n = fd_budget_connections(10_000);
        assert!(n >= 1);
        assert!(n <= 10_000);
        assert!(fd_soft_limit() >= 64);
    }
}
