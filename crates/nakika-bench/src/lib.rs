//! Shared helpers for the Na Kika benchmark and experiment harness.
//!
//! The interesting code lives in the `nakika-experiments` binary (which
//! regenerates every table and figure of the paper) and in the
//! workspace-level examples and integration tests this package hosts.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod hist;
pub mod hostile;

use hist::LatencyRecorder;
use nakika_core::service::{service_fn, NakikaError};
use nakika_core::{scripts, NodeBuilder};
use nakika_http::{Request, Response};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ProxyServer, ReactorConfig, TcpOrigin,
};
use nakika_sim::experiments::{MicroRow, ResourceControlRow, SimmResult, SpecResult};
use std::sync::Arc;
use std::time::Instant;

/// How the proxy front-end a benchmark scenario measures relays misses.
///
/// The server appears twice because its cache-miss path has two
/// implementations: [`BenchTransport::Reactor`] pins the historical
/// worker-pool offload (`splice_origin = false`), keeping the `reactor`
/// rows in `BENCH_proxy.json` comparable across runs, while
/// [`BenchTransport::ReactorSplice`] measures the production default — the
/// event-loop origin splice, which relays a miss with zero worker
/// hand-offs.  The miss-heavy scenarios run both so the splice-vs-offload
/// delta is recorded side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchTransport {
    /// Reactor with misses offloaded to the worker pool (recorded as
    /// `reactor`).
    Reactor,
    /// Reactor with the event-loop origin splice, the production default
    /// (recorded as `reactor-splice`).
    ReactorSplice,
}

/// One measured proxy-path scenario: a named workload against one miss path.
#[derive(Debug, Clone)]
pub struct ProxyBenchScenario {
    /// Workload name (`cold-cache`, `warm-keepalive`, `warm-close`,
    /// `warm-concurrent`).
    pub name: String,
    /// Miss path under test (`reactor` or `reactor-splice`).
    pub transport: String,
    /// Total requests issued through the proxy.
    pub requests: usize,
    /// Simultaneous keep-alive client connections.
    pub concurrency: usize,
    /// Wall-clock time for the measured run, in seconds.
    pub elapsed_secs: f64,
    /// Throughput in requests per second.
    pub requests_per_sec: f64,
    /// Median per-request latency, in microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-request latency, in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile per-request latency, in microseconds.  Only
    /// meaningful once a scenario records >= 1000 samples; below that it
    /// degenerates to the maximum observed latency.
    pub p999_us: u64,
}

/// Builds the scenario record from the measured run and its histogram.
fn scenario_result(
    name: &str,
    transport: BenchTransport,
    requests: usize,
    concurrency: usize,
    elapsed_secs: f64,
    hist: &LatencyRecorder,
) -> ProxyBenchScenario {
    let (p50_us, p99_us, p999_us) = hist.summary_us();
    ProxyBenchScenario {
        name: name.to_string(),
        transport: transport_name(transport),
        requests,
        concurrency,
        elapsed_secs,
        requests_per_sec: requests as f64 / elapsed_secs,
        p50_us,
        p99_us,
        p999_us,
    }
}

/// The full multi-scenario result set recorded in `BENCH_proxy.json`.
#[derive(Debug, Clone, Default)]
pub struct ProxyBenchSuite {
    /// All measured scenarios, in run order.
    pub scenarios: Vec<ProxyBenchScenario>,
}

impl ProxyBenchSuite {
    /// Serialises the suite as a small JSON document (no serde in this
    /// offline environment — the format is flat enough to emit by hand).
    pub fn to_json(&self) -> String {
        let mut out =
            String::from("{\n  \"benchmark\": \"proxy_path_scenarios\",\n  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"transport\": \"{}\", \"requests\": {}, \
                 \"concurrency\": {}, \"elapsed_secs\": {:.6}, \"requests_per_sec\": {:.2}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{}\n",
                s.name,
                s.transport,
                s.requests,
                s.concurrency,
                s.elapsed_secs,
                s.requests_per_sec,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The scenario named `name` on `transport`, if measured.
    pub fn scenario(&self, name: &str, transport: &str) -> Option<&ProxyBenchScenario> {
        self.scenarios
            .iter()
            .find(|s| s.name == name && s.transport == transport)
    }
}

/// Formats the suite as an aligned text table for the job log, one line per
/// scenario, so CI shows the per-scenario trajectory without parsing JSON.
pub fn format_proxy_suite(suite: &ProxyBenchSuite) -> String {
    let mut out = String::from(
        "Scenario          Transport   Requests  Conns   Elapsed (s)  Requests/sec  \
         p50 (us)  p99 (us)  p999 (us)\n",
    );
    for s in &suite.scenarios {
        out.push_str(&format!(
            "{:<17} {:<11} {:>8} {:>6} {:>12.3} {:>13.0} {:>9} {:>9} {:>10}\n",
            s.name,
            s.transport,
            s.requests,
            s.concurrency,
            s.elapsed_secs,
            s.requests_per_sec,
            s.p50_us,
            s.p99_us,
            s.p999_us
        ));
    }
    out
}

fn internal(context: &str) -> impl Fn(std::io::Error) -> NakikaError + '_ {
    move |e| NakikaError::Internal(format!("{context}: {e}"))
}

/// Body size used by the `bench_stream` scenario (1 MiB).
pub const STREAM_SCENARIO_BODY_BYTES: usize = 1024 * 1024;

/// Latency the `bench_mixed` origin injects into every cold fetch (25 ms —
/// a plausible slow-origin round trip, long enough that a transport which
/// blocks its event loop on origin I/O visibly collapses).
pub const MIXED_SCENARIO_ORIGIN_DELAY_MS: u64 = 25;

/// Iterations of the numeric loop the `bench_scripted` site handler runs on
/// every response — enough script work that executing it dominates the
/// per-request cost, small enough that a single request stays far under the
/// pipeline fuel budget.
pub const SCRIPTED_SCENARIO_LOOP_ITERS: usize = 600;

/// The `transport` field value recorded for a scenario.
fn transport_name(transport: BenchTransport) -> String {
    match transport {
        BenchTransport::Reactor => "reactor".to_string(),
        BenchTransport::ReactorSplice => "reactor-splice".to_string(),
    }
}

/// The server configuration a scenario's front-end runs with.
fn reactor_config(transport: BenchTransport) -> ReactorConfig {
    ReactorConfig {
        splice_origin: transport == BenchTransport::ReactorSplice,
        ..ReactorConfig::default()
    }
}

/// Stands up the deployment every scenario measures against: an origin
/// serving `origin_service`, a plain-proxy edge fetching through
/// `TcpOrigin`, and a front-end relaying misses as `transport` says.
fn stand_up(
    origin_service: Arc<dyn nakika_core::service::HttpService>,
    transport: BenchTransport,
) -> Result<(HttpServer, ProxyServer), NakikaError> {
    let origin =
        HttpServer::start(0, origin_service).map_err(internal("origin server failed to start"))?;
    let edge = NodeBuilder::plain_proxy("bench-proxy")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = ProxyServer::start_reactor(0, edge.service(), reactor_config(transport))
        .map_err(internal("proxy failed to start"))?;
    Ok((origin, proxy))
}

/// Runs `work` against a fresh [`stand_up`] deployment and times it;
/// returns the measured scenario.  `body_bytes` sizes the origin's
/// responses (the classic scenarios use the paper's 2,096-byte page;
/// `bench_stream` uses 1 MiB).  `work` records every request's latency
/// into the supplied [`LatencyRecorder`]; the recorder is shared, so
/// concurrent scenarios hand the same `&LatencyRecorder` to every
/// client thread.
fn run_scenario(
    name: &str,
    transport: BenchTransport,
    requests: usize,
    concurrency: usize,
    body_bytes: usize,
    work: impl FnOnce(&ProxyServer, &str, &LatencyRecorder) -> Result<(), NakikaError>,
) -> Result<ProxyBenchScenario, NakikaError> {
    let (origin, proxy) = stand_up(
        service_fn(move |_req: Request, _ctx| {
            Ok(Response::ok("text/html", "x".repeat(body_bytes))
                .with_header("Cache-Control", "max-age=600"))
        }),
        transport,
    )?;
    let hist = LatencyRecorder::new();
    let start = Instant::now();
    work(&proxy, &origin.base_url(), &hist)?;
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    Ok(scenario_result(
        name,
        transport,
        requests,
        concurrency,
        elapsed_secs,
        &hist,
    ))
}

/// Issues one keep-alive GET and records its latency.
fn timed_get(
    client: &mut ProxyClient,
    url: &str,
    hist: &LatencyRecorder,
) -> Result<Response, NakikaError> {
    let t = Instant::now();
    let response = client.get(url)?;
    hist.record(t.elapsed());
    Ok(response)
}

/// Measures `bench_mixed` on one miss path: `concurrency` warm keep-alive
/// clients hammer a cached URL while one background client keeps cold
/// misses against a deliberately slow origin
/// ([`MIXED_SCENARIO_ORIGIN_DELAY_MS`] per fetch) in flight for the whole
/// run.  The recorded throughput counts only the warm requests — the
/// number under threat when origin I/O shares a thread with the event
/// loop.  Reuses the [`stand_up`] deployment but keeps its own timing
/// discipline: the cache warm-up, the cold-client spawn, and the cold
/// client's join (which can tail out by one slow origin round trip) must
/// all sit outside the measured window, which `run_scenario`'s
/// whole-closure timer cannot express.
fn run_mixed_scenario(
    transport: BenchTransport,
    warm_requests: usize,
    concurrency: usize,
) -> Result<ProxyBenchScenario, NakikaError> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (origin, proxy) = stand_up(
        service_fn(|req: Request, _ctx| {
            if req.uri.path.starts_with("/slow/") {
                std::thread::sleep(std::time::Duration::from_millis(
                    MIXED_SCENARIO_ORIGIN_DELAY_MS,
                ));
            }
            Ok(Response::ok("text/html", "x".repeat(2096))
                .with_header("Cache-Control", "max-age=600"))
        }),
        transport,
    )?;

    let hot_url = format!("{}/hot.html", origin.base_url());
    http_get_via_proxy(proxy.addr(), &hot_url)?; // warm the cache

    let per_client = (warm_requests / concurrency).max(8);
    let total = per_client * concurrency;
    let hist = Arc::new(LatencyRecorder::new());
    let stop = Arc::new(AtomicBool::new(false));
    let cold_client = {
        let stop = stop.clone();
        let base = origin.base_url();
        let addr = proxy.addr();
        std::thread::spawn(move || -> Result<(), NakikaError> {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Distinct URLs: every fetch misses and pays the delay.
                http_get_via_proxy(addr, &format!("{base}/slow/{i}.html"))?;
                i += 1;
            }
            Ok(())
        })
    };
    let start = Instant::now();
    let warm_clients: Vec<_> = (0..concurrency)
        .map(|_| {
            let url = hot_url.clone();
            let addr = proxy.addr();
            let hist = hist.clone();
            std::thread::spawn(move || -> Result<(), NakikaError> {
                let mut client = ProxyClient::connect(addr)?;
                for _ in 0..per_client {
                    timed_get(&mut client, &url, &hist)?;
                }
                Ok(())
            })
        })
        .collect();
    for worker in warm_clients {
        worker
            .join()
            .map_err(|_| NakikaError::Internal("mixed warm client panicked".into()))??;
    }
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    stop.store(true, Ordering::Relaxed);
    cold_client
        .join()
        .map_err(|_| NakikaError::Internal("mixed cold client panicked".into()))??;

    Ok(scenario_result(
        "bench_mixed",
        transport,
        total,
        concurrency,
        elapsed_secs,
        &hist,
    ))
}

/// Measures `bench_peer` on one miss path: two cooperating edge nodes over
/// real TCP sharing one overlay view.  Distinct URLs are warmed through
/// node A, then fetched once each through node B, whose local misses route
/// to A over the peer-fetch path instead of the origin.  The recorded
/// throughput is the cost of a peer-answered miss, to set against
/// `cold-cache` (origin-answered miss) and `warm-keepalive` (local hit).
/// The run fails loudly if any measured request fell back to the origin —
/// a silent fallback would quietly benchmark the wrong code path.
fn run_peer_scenario(
    transport: BenchTransport,
    requests: usize,
) -> Result<ProxyBenchScenario, NakikaError> {
    let origin = HttpServer::start(
        0,
        service_fn(|_req: Request, _ctx| {
            Ok(Response::ok("text/html", "x".repeat(2096))
                .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .map_err(internal("peer origin failed to start"))?;
    let overlay = Arc::new(nakika_overlay::Overlay::with_defaults());
    let config = reactor_config(transport);
    let node_a = cluster::start_local_node("bench-peer-a", &overlay, config, None)?;
    // Warm every key through A while it is the cluster's only member, so
    // all of them live in A's cache (were B already joined, keys B owns
    // would be forwarded to — and cached on — B during the warm-up).
    let base = origin.base_url();
    // Half the suite's scaling knob: peer-answered misses are cheap
    // enough that percentiles need a real sample count to mean anything.
    let keys = (requests / 2).max(8);
    for i in 0..keys {
        http_get_via_proxy(node_a.server.addr(), &format!("{base}/peer/{i}.html"))?;
    }
    let node_b = cluster::start_local_node("bench-peer-b", &overlay, config, None)?;
    let hist = LatencyRecorder::new();
    let start = Instant::now();
    let mut client = ProxyClient::connect(node_b.server.addr())?;
    for i in 0..keys {
        timed_get(&mut client, &format!("{base}/peer/{i}.html"), &hist)?;
    }
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    let stats = node_b.handle.node().stats();
    if stats.peer_hits as usize != keys {
        return Err(NakikaError::Internal(format!(
            "bench_peer expected {keys} peer hits, saw {} ({} peer misses)",
            stats.peer_hits, stats.peer_misses
        )));
    }
    Ok(scenario_result(
        "bench_peer",
        transport,
        keys,
        1,
        elapsed_secs,
        &hist,
    ))
}

/// Measures `bench_scripted` on one miss path: a fully scripted edge node
/// (walls plus a compute-heavy site `nakika.js`) serving one hot cached URL
/// over a keep-alive connection.  Every request re-runs the wall and site
/// handlers — [`SCRIPTED_SCENARIO_LOOP_ITERS`] loop iterations of script
/// work per response — while the page itself is a cache hit, so the number
/// isolates script-execution cost on the warm path.  The run fails loudly
/// if the handler did not actually execute or if any stage script was
/// recompiled after warm-up (which would mean the program cache — the thing
/// that makes per-request compilation disappear — silently regressed).
fn run_scripted_scenario(
    transport: BenchTransport,
    requests: usize,
) -> Result<ProxyBenchScenario, NakikaError> {
    let site_script = format!(
        r#"
p = new Policy();
p.onResponse = function() {{
    var acc = 0;
    for (var i = 0; i < {iters}; i = i + 1) {{
        acc = (acc + i * 3) % 9973;
    }}
    Response.setHeader('X-Script-Work', '' + acc);
}};
p.register();
"#,
        iters = SCRIPTED_SCENARIO_LOOP_ITERS
    );
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            let path = req.uri.path.as_str();
            if path.ends_with("nakika.js") {
                return Ok(Response::ok("application/javascript", site_script.as_str())
                    .with_header("Cache-Control", "max-age=600"));
            }
            if path.ends_with("clientwall.js") || path.ends_with("serverwall.js") {
                return Ok(Response::ok("application/javascript", scripts::EMPTY_WALL)
                    .with_header("Cache-Control", "max-age=600"));
            }
            Ok(Response::ok("text/html", "x".repeat(2096))
                .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .map_err(internal("scripted origin failed to start"))?;
    let base = origin.base_url();
    let edge = NodeBuilder::scripted("bench-scripted")
        .wall_urls(
            &format!("{base}/clientwall.js"),
            &format!("{base}/serverwall.js"),
        )
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = ProxyServer::start_reactor(0, edge.service(), reactor_config(transport))
        .map_err(internal("scripted proxy failed to start"))?;
    let url = format!("{base}/hot.html");
    // Warm-up: compiles the two walls and the site stage, caches the page.
    http_get_via_proxy(proxy.addr(), &url)?;
    let compiles_after_warmup = edge.node().cache_stats().script_compiles;
    let hist = LatencyRecorder::new();
    let start = Instant::now();
    let mut client = ProxyClient::connect(proxy.addr())?;
    for _ in 0..requests {
        let response = timed_get(&mut client, &url, &hist)?;
        if response.headers.get("x-script-work").is_none() {
            return Err(NakikaError::Internal(
                "bench_scripted response missing the handler's header".into(),
            ));
        }
    }
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    let compiles = edge.node().cache_stats().script_compiles;
    if compiles != compiles_after_warmup {
        return Err(NakikaError::Internal(format!(
            "bench_scripted recompiled scripts on the warm path \
             ({compiles_after_warmup} compiles after warm-up, {compiles} after the run)"
        )));
    }
    Ok(scenario_result(
        "bench_scripted",
        transport,
        requests,
        1,
        elapsed_secs,
        &hist,
    ))
}

/// Measures the proxy-path scenario suite:
///
/// - `cold-cache` — every request targets a distinct URL, so each one runs
///   the full parse → service → origin-fetch → store path.
/// - `warm-keepalive` — one hot URL over a single keep-alive connection:
///   the pure cache-hit fast path.
/// - `warm-close` — the same hot URL but a fresh connection with
///   `Connection: close` per request, isolating connection-setup cost.
/// - `warm-concurrent` — `concurrency` simultaneous keep-alive clients
///   hammering the hot URL, the scenario where transport architecture and
///   cache sharding actually matter.
/// - `bench_stream` — 1 MiB bodies over a warm cache, isolating large-body
///   copy/buffering cost on the streaming path.
/// - `bench_mixed` — the warm-concurrent workload with continuous cold
///   misses against a slow origin interleaved; measures whether cold
///   origin I/O steals throughput from warm hits (the reactor origin
///   offload exists for exactly this number).
/// - `bench_peer` — a second edge node answers every miss over the
///   peer-fetch protocol; the cost of a cooperative (peer-answered) miss
///   versus an origin-answered one.
/// - `bench_scripted` — a warm scripted pipeline (walls + a compute-heavy
///   site handler on every response): script-execution cost on the hot
///   path.
///
/// Every scenario runs as `reactor` (the worker-pool miss offload, pinned
/// with `splice_origin = false`); the
/// miss-dominated ones — `cold-cache`, `bench_stream`, `bench_mixed` —
/// additionally run as `reactor-splice`, the production default that
/// relays misses on the event loop, so the splice-vs-offload delta is
/// recorded side by side (see [`format_splice_comparison`]).
///
/// `requests` scales every scenario (the slower workloads run a fraction of
/// it); `concurrency` is the client count for `warm-concurrent` and
/// `bench_mixed`.  `docs/BENCHMARKING.md` documents each scenario.
pub fn bench_proxy_suite(
    requests: usize,
    concurrency: usize,
) -> Result<ProxyBenchSuite, NakikaError> {
    let requests = requests.max(16);
    let concurrency = concurrency.max(1);
    let mut suite = ProxyBenchSuite::default();
    let transport = BenchTransport::Reactor;
    suite
        .scenarios
        .push(run_cold_scenario(transport, requests)?);

    suite.scenarios.push(run_scenario(
        "warm-keepalive",
        transport,
        requests,
        1,
        2096,
        |proxy, base, hist| {
            let url = format!("{base}/hot.html");
            let mut client = ProxyClient::connect(proxy.addr())?;
            // The first request warms the cache; it is counted, and at
            // these request counts its contribution is noise.
            timed_get(&mut client, &url, hist)?;
            for _ in 1..requests {
                timed_get(&mut client, &url, hist)?;
            }
            Ok(())
        },
    )?);

    let close_requests = requests / 2;
    suite.scenarios.push(run_scenario(
        "warm-close",
        transport,
        close_requests,
        1,
        2096,
        |proxy, base, hist| {
            let url = format!("{base}/hot.html");
            for _ in 0..close_requests {
                let t = Instant::now();
                http_get_via_proxy(proxy.addr(), &url)?;
                hist.record(t.elapsed());
            }
            Ok(())
        },
    )?);

    let per_client = (requests / concurrency).max(8);
    let total = per_client * concurrency;
    suite.scenarios.push(run_scenario(
        "warm-concurrent",
        transport,
        total,
        concurrency,
        2096,
        |proxy, base, hist| {
            let url = format!("{base}/hot.html");
            // Warm the cache before the clients pile in.
            http_get_via_proxy(proxy.addr(), &url)?;
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..concurrency)
                    .map(|_| {
                        let url = url.clone();
                        let addr = proxy.addr();
                        // Per-thread recorders merged at join time, so
                        // this scenario also exercises the merge path.
                        scope.spawn(move || -> Result<LatencyRecorder, NakikaError> {
                            let local = LatencyRecorder::new();
                            let mut client = ProxyClient::connect(addr)?;
                            for _ in 0..per_client {
                                timed_get(&mut client, &url, &local)?;
                            }
                            Ok(local)
                        })
                    })
                    .collect();
                for worker in workers {
                    let local = worker
                        .join()
                        .map_err(|_| NakikaError::Internal("bench client panicked".into()))??;
                    hist.merge(&local);
                }
                Ok(())
            })
        },
    )?);

    suite
        .scenarios
        .push(run_stream_scenario(transport, requests)?);

    // bench_mixed: warm concurrency under continuous slow cold misses —
    // the workload that used to collapse the reactor to origin latency
    // before cold fetches were offloaded from its event loop.
    suite
        .scenarios
        .push(run_mixed_scenario(transport, requests, concurrency)?);

    // bench_peer: the cooperative data path — misses answered by a
    // peer edge node over TCP rather than the origin.
    suite
        .scenarios
        .push(run_peer_scenario(transport, requests)?);

    // bench_scripted: the warm scripted pipeline.  Half (not a
    // quarter) of the scaling knob, for the same percentile-stability
    // reason as bench_stream.
    suite
        .scenarios
        .push(run_scripted_scenario(transport, (requests / 2).max(8))?);

    // The splice variant: re-measure the scenarios a cache-miss relay
    // actually dominates under the production default (the event-loop
    // origin splice), recorded as `reactor-splice` so the splice and the
    // pooled-offload `reactor` rows sit side by side in the results —
    // cold-cache (every request is a relayed miss), bench_stream (the
    // 1 MiB warm-up tee crosses the splice's backpressure windows), and
    // bench_mixed (the headline number: warm throughput while relays run).
    let splice = BenchTransport::ReactorSplice;
    suite.scenarios.push(run_cold_scenario(splice, requests)?);
    suite.scenarios.push(run_stream_scenario(splice, requests)?);
    suite
        .scenarios
        .push(run_mixed_scenario(splice, requests, concurrency)?);
    Ok(suite)
}

/// Runs `cold-cache` on one transport: every request targets a distinct
/// URL, so each one is a full miss — parse → service → origin relay →
/// store.  On `reactor-splice` this is the purest splice measurement:
/// every single request crosses the event-loop relay.
fn run_cold_scenario(
    transport: BenchTransport,
    requests: usize,
) -> Result<ProxyBenchScenario, NakikaError> {
    let cold = requests / 4;
    run_scenario(
        "cold-cache",
        transport,
        cold,
        1,
        2096,
        |proxy, base, hist| {
            let mut client = ProxyClient::connect(proxy.addr())?;
            for i in 0..cold {
                timed_get(&mut client, &format!("{base}/cold/{i}.html"), hist)?;
            }
            Ok(())
        },
    )
}

/// Runs `bench_stream` on one transport: 1 MiB bodies over a warm cache on
/// one keep-alive connection — the scenario the streaming `Body` redesign
/// targets.  Throughput here is dominated by how many times the stack
/// copies (or used to double-buffer) a large response.
/// A quarter (not an eighth) of the scaling knob: 30 one-MiB transfers
/// left the percentiles hostage to a single scheduler hiccup; see
/// docs/BENCHMARKING.md on the noise floor.
fn run_stream_scenario(
    transport: BenchTransport,
    requests: usize,
) -> Result<ProxyBenchScenario, NakikaError> {
    let stream_requests = (requests / 4).max(8);
    run_scenario(
        "bench_stream",
        transport,
        stream_requests,
        1,
        STREAM_SCENARIO_BODY_BYTES,
        |proxy, base, hist| {
            let url = format!("{base}/stream.bin");
            let mut client = ProxyClient::connect(proxy.addr())?;
            // Warm the cache (the first fetch tees the streamed body in).
            timed_get(&mut client, &url, hist)?;
            for _ in 1..stream_requests {
                let response = timed_get(&mut client, &url, hist)?;
                if response.body.len() != STREAM_SCENARIO_BODY_BYTES {
                    return Err(NakikaError::Internal(format!(
                        "short stream body: {}",
                        response.body.len()
                    )));
                }
            }
            Ok(())
        },
    )
}

/// Formats the splice-vs-offload comparison: for every scenario measured
/// on both `reactor` (worker-pool offload) and `reactor-splice` (event-loop
/// splice), one line with both throughputs, the splice/offload ratio, and
/// both p99s.  Empty when no scenario carries both rows.
pub fn format_splice_comparison(suite: &ProxyBenchSuite) -> String {
    let mut out = String::new();
    for s in &suite.scenarios {
        if s.transport != "reactor-splice" {
            continue;
        }
        let Some(offload) = suite.scenario(&s.name, "reactor") else {
            continue;
        };
        if out.is_empty() {
            out.push_str(
                "Scenario          Offload rps   Splice rps   Splice/Offload  \
                 Offload p99 (us)  Splice p99 (us)\n",
            );
        }
        out.push_str(&format!(
            "{:<17} {:>11.0} {:>12.0} {:>15.2}x {:>16} {:>16}\n",
            s.name,
            offload.requests_per_sec,
            s.requests_per_sec,
            s.requests_per_sec / offload.requests_per_sec.max(1e-9),
            offload.p99_us,
            s.p99_us
        ));
    }
    out
}

/// Formats Table 2 (micro-benchmark latency) as an aligned text table.
pub fn format_table2(rows: &[MicroRow]) -> String {
    let mut out = String::from("Configuration  Cold Cache (ms)  Warm Cache (ms)\n");
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>15.2} {:>16.3}\n",
            row.config, row.cold_ms, row.warm_ms
        ));
    }
    out
}

/// Formats the resource-control rows (§5.1).
pub fn format_resource_controls(rows: &[ResourceControlRow]) -> String {
    let mut out = String::from(
        "Scenario                              rps w/o ctl   rps w/ ctl   rejected   dropped\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<36} {:>11.1} {:>12.1} {:>9.2}% {:>8.2}%\n",
            row.scenario,
            row.rps_without,
            row.rps_with,
            row.reject_fraction * 100.0,
            row.drop_fraction * 100.0
        ));
    }
    out
}

/// Formats SIMM / Figure 7 results.
pub fn format_simm(rows: &[SimmResult]) -> String {
    let mut out = String::from(
        "Configuration    Clients  p90 HTML (ms)  mean HTML (ms)  video>=140kbps  video failures\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>7} {:>14.1} {:>15.1} {:>14.1}% {:>14.1}%\n",
            row.config,
            row.clients,
            row.html_p90_ms,
            row.html_mean_ms,
            row.video_ok_fraction * 100.0,
            row.video_failure_fraction * 100.0
        ));
    }
    out
}

/// Formats the SPECweb99-like results (§5.3).
pub fn format_spec(rows: &[SpecResult]) -> String {
    let mut out =
        String::from("Configuration                mean response (ms)     throughput (rps)\n");
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:>18.1} {:>20.1}\n",
            row.config, row.mean_response_ms, row.rps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_sim::experiments::MicroRow;

    #[test]
    fn formatting_produces_one_line_per_row() {
        let rows = vec![
            MicroRow {
                config: "Proxy".into(),
                cold_ms: 3.0,
                warm_ms: 1.0,
            },
            MicroRow {
                config: "Match-1".into(),
                cold_ms: 21.0,
                warm_ms: 2.0,
            },
        ];
        let table = format_table2(&rows);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("Match-1"));
    }

    #[test]
    fn scripted_scenario_runs() {
        let scenario =
            run_scripted_scenario(BenchTransport::Reactor, 8).expect("scripted scenario runs");
        assert_eq!(scenario.requests, 8);
        assert!(scenario.requests_per_sec > 0.0);
    }
}
