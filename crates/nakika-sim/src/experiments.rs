//! Reproductions of every table and figure in the paper's evaluation (§5).
//!
//! Each function returns structured rows so the `nakika-bench` experiment
//! binaries can print them and EXPERIMENTS.md can record paper-vs-measured.
//! Absolute numbers differ from the paper (2006 Pentium 4 + Apache vs. a
//! modern CPU + this reimplementation); what is reproduced is the *shape*:
//! orderings, ratios and crossovers.

use crate::net::{LinkModel, ServerModel, SimProxy};
use crate::stats::Summary;
use crate::workload::{client_ip, ScriptedOrigin, SimmWorkload, SpecWorkload, MICRO_PAGE_BYTES};
use nakika_core::node::OriginFetch;
use nakika_core::resource::ResourceKind;
use nakika_core::scripts;
use nakika_core::service::{HttpService, RequestCtx};
use nakika_core::{NodeBuilder, NodeHandle};
use nakika_http::Request;
use nakika_overlay::cluster::sites;
use nakika_overlay::{key_for, Location, Overlay};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Table 1 / Table 2: micro-benchmark configurations and latency
// ---------------------------------------------------------------------------

/// The nine micro-benchmark configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroConfig {
    /// A regular Apache proxy.
    Proxy,
    /// The proxy with an integrated DHT.
    Dht,
    /// Empty event handlers for the two administrative control stages.
    Admin,
    /// Admin plus a stage evaluating predicates for `n` policy objects, none
    /// matching.
    Pred(usize),
    /// Admin plus a stage with one matching predicate and empty handlers.
    Match1,
}

impl MicroConfig {
    /// All configurations in the order Table 2 reports them.
    pub(crate) fn all() -> Vec<MicroConfig> {
        vec![
            MicroConfig::Proxy,
            MicroConfig::Dht,
            MicroConfig::Admin,
            MicroConfig::Pred(0),
            MicroConfig::Pred(1),
            MicroConfig::Match1,
            MicroConfig::Pred(10),
            MicroConfig::Pred(50),
            MicroConfig::Pred(100),
        ]
    }

    /// The configuration's display name as used in Table 2.
    pub(crate) fn name(&self) -> String {
        match self {
            MicroConfig::Proxy => "Proxy".to_string(),
            MicroConfig::Dht => "DHT".to_string(),
            MicroConfig::Admin => "Admin".to_string(),
            MicroConfig::Pred(n) => format!("Pred-{n}"),
            MicroConfig::Match1 => "Match-1".to_string(),
        }
    }
}

/// One row of Table 2: latency for accessing the static page.
#[derive(Debug, Clone)]
pub struct MicroRow {
    /// Configuration name.
    pub config: String,
    /// Cold-cache latency in milliseconds.
    pub cold_ms: f64,
    /// Warm-cache latency in milliseconds.
    pub warm_ms: f64,
}

/// The benchmark URL: Google's home page without inline images.
const MICRO_URL: &str = "http://www.google.com/";

fn build_micro_setup(config: MicroConfig) -> NodeHandle {
    let origin = ScriptedOrigin::micro_benchmark();
    let mut builder = match config {
        MicroConfig::Proxy => NodeBuilder::plain_proxy("bench"),
        MicroConfig::Dht => NodeBuilder::proxy_with_dht("bench"),
        _ => NodeBuilder::scripted("bench"),
    }
    .without_resource_controls(); // resource control disabled (§5.1)
    match config {
        MicroConfig::Proxy | MicroConfig::Dht => {}
        MicroConfig::Admin => {
            origin.route_script("/clientwall.js", scripts::EMPTY_WALL);
            origin.route_script("/serverwall.js", scripts::EMPTY_WALL);
        }
        MicroConfig::Pred(n) => {
            origin.route_script("/clientwall.js", scripts::EMPTY_WALL);
            origin.route_script("/serverwall.js", scripts::EMPTY_WALL);
            origin.route_script("/nakika.js", &scripts::pred_n_stage(n));
        }
        MicroConfig::Match1 => {
            origin.route_script("/clientwall.js", scripts::EMPTY_WALL);
            origin.route_script("/serverwall.js", scripts::EMPTY_WALL);
            origin.route_script("/nakika.js", &scripts::match_1_stage("www.google.com"));
        }
    }
    if config == MicroConfig::Dht {
        let overlay = Arc::new(Overlay::with_defaults());
        let id = key_for("bench");
        overlay.join(id, sites::US_EAST);
        overlay.join(key_for("other"), sites::US_EAST_LAN);
        builder = builder.overlay(overlay, id);
    }
    builder.origin(Arc::new(origin)).build()
}

/// Runs the Table 2 micro-benchmark: cold- and warm-cache latency for
/// accessing the 2,096-byte static page under each configuration.  Latency is
/// the measured processing time of the real node plus the modelled LAN
/// exchange (client, proxy and server share a switched 100 Mbit Ethernet).
pub fn table2(iterations: usize) -> Vec<MicroRow> {
    let lan = LinkModel::lan();
    let link_ms = lan.exchange_ms(400, MICRO_PAGE_BYTES) + lan.exchange_ms(400, MICRO_PAGE_BYTES);
    MicroConfig::all()
        .into_iter()
        .map(|config| {
            let mut cold = Summary::new();
            let mut warm = Summary::new();
            for i in 0..iterations.max(1) {
                let edge = build_micro_setup(config);
                let start = Instant::now();
                let _ = edge.call(Request::get(MICRO_URL), &RequestCtx::at(10));
                cold.add(start.elapsed().as_secs_f64() * 1000.0 + link_ms);
                // Warm cache: the page, the scripts, the decision trees and
                // the scripting contexts are all reused.
                let start = Instant::now();
                let _ = edge.call(Request::get(MICRO_URL), &RequestCtx::at(20 + i as u64));
                warm.add(
                    start.elapsed().as_secs_f64() * 1000.0 + lan.exchange_ms(400, MICRO_PAGE_BYTES),
                );
            }
            MicroRow {
                config: config.name(),
                cold_ms: cold.mean(),
                warm_ms: warm.mean(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §5.1 capacity: scripted node vs. plain proxy
// ---------------------------------------------------------------------------

/// Result of the capacity experiment.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Plain-proxy capacity in requests per second.
    pub proxy_rps: f64,
    /// Match-1 (scripted) capacity in requests per second.
    pub match1_rps: f64,
    /// Sustained throughput with `clients` load generators for the proxy.
    pub proxy_at_load: f64,
    /// Sustained throughput with `clients` load generators for Match-1.
    pub match1_at_load: f64,
    /// Number of load generators used for the `*_at_load` figures.
    pub clients: usize,
}

fn measure_warm_service_ms(config: MicroConfig, samples: usize) -> f64 {
    let edge = build_micro_setup(config);
    let _ = edge.call(Request::get(MICRO_URL), &RequestCtx::at(1)); // warm everything
    let start = Instant::now();
    for i in 0..samples.max(1) {
        let _ = edge.call(Request::get(MICRO_URL), &RequestCtx::at(2 + i as u64));
    }
    (start.elapsed().as_secs_f64() * 1000.0 / samples.max(1) as f64).max(0.001)
}

/// Measures node capacity (requests per second at saturation) for the plain
/// proxy and the Match-1 scripted configuration, and the sustained throughput
/// with `clients` closed-loop load generators — the paper reports 603 rps vs
/// 294 rps on its hardware, i.e. roughly a 2× gap.
pub fn capacity(clients: usize, samples: usize) -> CapacityResult {
    let proxy_ms = measure_warm_service_ms(MicroConfig::Proxy, samples);
    let match1_ms = measure_warm_service_ms(MicroConfig::Match1, samples);
    let think_ms = 1.0;
    let proxy_model = ServerModel {
        service_ms: proxy_ms,
        think_ms,
    };
    let match1_model = ServerModel {
        service_ms: match1_ms,
        think_ms,
    };
    CapacityResult {
        proxy_rps: proxy_model.capacity_rps(),
        match1_rps: match1_model.capacity_rps(),
        proxy_at_load: proxy_model.throughput_rps(clients),
        match1_at_load: match1_model.throughput_rps(clients),
        clients,
    }
}

// ---------------------------------------------------------------------------
// §5.1 resource controls under a flash crowd
// ---------------------------------------------------------------------------

/// Result of one resource-control run.
#[derive(Debug, Clone)]
pub struct ResourceControlRow {
    /// Scenario label (e.g. "30 generators", "30 generators + misbehaving").
    pub scenario: String,
    /// Throughput without resource controls (requests per second).
    pub rps_without: f64,
    /// Throughput with resource controls.
    pub rps_with: f64,
    /// Fraction of requests rejected by throttling (with controls).
    pub reject_fraction: f64,
    /// Fraction of requests dropped by termination (with controls).
    pub drop_fraction: f64,
}

/// The misbehaving script: consumes all available memory by repeatedly
/// doubling a string (paper §5.1).
const MISBEHAVING_SITE_SCRIPT: &str = r#"
p = new Policy();
p.url = ["hog.example.org"];
p.onResponse = function() {
    var s = 'xxxxxxxxxxxxxxxx';
    while (true) { s = s + s; }
};
p.register();
"#;

fn flash_crowd_origin(with_hog: bool) -> Arc<ScriptedOrigin> {
    let origin = ScriptedOrigin::micro_benchmark().with_empty_walls();
    origin.route_script("/clientwall.js", scripts::EMPTY_WALL);
    origin.route_script("/serverwall.js", scripts::EMPTY_WALL);
    if with_hog {
        origin.route_script("/nakika.js", MISBEHAVING_SITE_SCRIPT);
    }
    Arc::new(origin)
}

fn run_flash_crowd(controls: bool, requests: usize, hog_every: Option<usize>) -> (f64, f64, f64) {
    // Calibrate CPU/memory capacity per control period so a flash crowd of
    // this size congests the node (the paper's proxy saturates at ~300 rps).
    let mut builder = NodeBuilder::scripted("edge")
        .control_period_secs(1)
        .resource_capacity(ResourceKind::Cpu, 40_000.0)
        .resource_capacity(ResourceKind::Memory, 8.0 * 1024.0 * 1024.0)
        .origin(flash_crowd_origin(hog_every.is_some()));
    if !controls {
        builder = builder.without_resource_controls();
    }
    let edge = builder.build();

    let start = Instant::now();
    let mut completed = 0u64;
    for i in 0..requests {
        let now = i as u64 / 10; // ~10 offered requests per virtual second
        let url = match hog_every {
            Some(every) if i % every == 0 => "http://hog.example.org/burn",
            _ => "http://www.google.com/",
        };
        let result = edge.call(
            Request::get(url).with_client_ip(client_ip(i)),
            &RequestCtx::at(now),
        );
        if matches!(result, Ok(ref r) if r.status.is_success()) {
            completed += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-6);
    let stats = edge.node().stats();
    let offered = requests as f64;
    (
        completed as f64 / elapsed,
        stats.throttled as f64 / offered,
        stats.terminated as f64 / offered,
    )
}

/// Runs the flash-crowd / misbehaving-script experiment with and without
/// congestion-based resource controls.  `requests` is the offered load per
/// scenario (the paper drives the node at and beyond its ~300 rps capacity).
pub fn resource_controls(requests: usize) -> Vec<ResourceControlRow> {
    let scenarios: [(&str, Option<usize>); 3] = [
        ("flash crowd (at capacity)", None),
        ("flash crowd (3x overload)", None),
        ("flash crowd + misbehaving script", Some(10)),
    ];
    scenarios
        .iter()
        .enumerate()
        .map(|(i, (label, hog))| {
            let load = if i == 1 { requests * 3 } else { requests };
            let (rps_without, _, _) = run_flash_crowd(false, load, *hog);
            let (rps_with, reject, drop) = run_flash_crowd(true, load, *hog);
            ResourceControlRow {
                scenario: label.to_string(),
                rps_without,
                rps_with,
                reject_fraction: reject,
                drop_fraction: drop,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §5.2 SIMMs: single server vs Na Kika, local and wide-area (Figure 7)
// ---------------------------------------------------------------------------

/// One configuration's results for a SIMM experiment.
#[derive(Debug, Clone)]
pub struct SimmResult {
    /// Configuration label ("single server", "Na Kika cold", "Na Kika warm").
    pub config: String,
    /// Number of simulated clients.
    pub clients: usize,
    /// 90th-percentile latency for HTML content, in milliseconds.
    pub html_p90_ms: f64,
    /// Mean latency for HTML content, in milliseconds.
    pub html_mean_ms: f64,
    /// Fraction of multimedia accesses seeing at least 140 kbit/s.
    pub video_ok_fraction: f64,
    /// Fraction of multimedia accesses that failed outright.
    pub video_failure_fraction: f64,
    /// CDF of HTML latency (seconds), for Figure 7.
    pub html_cdf: crate::stats::Cdf,
}

/// Parameters of a SIMM experiment run.
#[derive(Debug, Clone)]
pub struct SimmScenario {
    /// Number of clients.
    pub(crate) clients: usize,
    /// Accesses per client.
    pub(crate) accesses_per_client: usize,
    /// Client-to-proxy link.
    pub(crate) client_link: LinkModel,
    /// Proxy-to-origin (and client-to-origin, for the single server) link.
    pub(crate) origin_link: LinkModel,
    /// Origin service time for a personalised XML page (content creation).
    pub(crate) origin_dynamic_ms: f64,
    /// Origin service time for rendering XML to HTML (offloaded to the edge
    /// in the Na Kika port).
    pub(crate) origin_render_ms: f64,
    /// Client think time between accesses.
    pub(crate) think_ms: f64,
}

impl SimmScenario {
    /// The paper's local setup: everything on a switched 100 Mbit LAN.
    pub fn local(clients: usize) -> SimmScenario {
        SimmScenario {
            clients,
            accesses_per_client: 8,
            client_link: LinkModel::lan(),
            origin_link: LinkModel::lan(),
            origin_dynamic_ms: 4.0,
            origin_render_ms: 6.0,
            think_ms: 2_000.0,
        }
    }

    /// The paper's shaped-WAN setup: 80 ms artificial delay and an 8 Mbit/s
    /// cap between the server and everyone else.
    pub fn shaped_wan(clients: usize) -> SimmScenario {
        SimmScenario {
            origin_link: LinkModel {
                latency_ms: 40.0,
                bandwidth_bps: 8e6,
            },
            ..SimmScenario::local(clients)
        }
    }

    /// The PlanetLab-style wide-area setup: clients on the US East Coast,
    /// West Coast and Asia; origin in New York; per-slice bandwidth limited.
    pub(crate) fn wide_area(clients: usize) -> SimmScenario {
        SimmScenario {
            clients,
            accesses_per_client: 6,
            client_link: LinkModel {
                latency_ms: 3.0,
                bandwidth_bps: 5e6,
            },
            origin_link: LinkModel::between(&sites::US_EAST, &sites::ASIA, 2e6),
            origin_dynamic_ms: 4.0,
            origin_render_ms: 6.0,
            think_ms: 1_000.0,
        }
    }
}

/// Runs the single-server baseline for a SIMM scenario.
pub fn simm_single_server(scenario: &SimmScenario) -> SimmResult {
    let workload = SimmWorkload::default();
    let accesses = workload.generate(scenario.clients, scenario.accesses_per_client);
    // The single server performs personalisation *and* rendering for HTML and
    // serves all multimedia itself.
    let html_model = ServerModel {
        service_ms: scenario.origin_dynamic_ms + scenario.origin_render_ms,
        think_ms: scenario.think_ms,
    };
    let mut html = Summary::new();
    let mut video_kbps = Summary::new();
    let mut video_failures = 0usize;
    let mut videos = 0usize;
    // Bandwidth at the origin's access link is shared by the clients that are
    // *concurrently active* (downloading rather than thinking); this is what
    // starves video playback in the paper's WAN runs while leaving the LAN
    // runs unconstrained.
    let avg_bytes = workload.html_bytes as f64 * (1.0 - workload.video_fraction)
        + workload.video_bytes as f64 * workload.video_fraction;
    let base_transfer_ms =
        crate::net::transfer_ms(avg_bytes as usize, scenario.origin_link.bandwidth_bps);
    let busy_ms = html_model.service_ms + 2.0 * scenario.origin_link.latency_ms + base_transfer_ms;
    let active = ((scenario.clients as f64) * busy_ms / (busy_ms + scenario.think_ms)).max(1.0);
    let shared_origin_link = LinkModel {
        latency_ms: scenario.origin_link.latency_ms,
        bandwidth_bps: (scenario.origin_link.bandwidth_bps / active).max(8_000.0),
    };
    for access in &accesses {
        match access {
            crate::workload::SimmAccess::Html { .. } => {
                let latency = html_model.response_ms(scenario.clients)
                    + shared_origin_link.exchange_ms(400, workload.html_bytes);
                html.add(latency);
            }
            crate::workload::SimmAccess::Video { .. } => {
                videos += 1;
                let kbps = shared_origin_link.effective_kbps(workload.video_bytes);
                if kbps < 20.0 {
                    video_failures += 1;
                } else {
                    video_kbps.add(kbps);
                }
            }
        }
    }
    SimmResult {
        config: "single server".to_string(),
        clients: scenario.clients,
        html_p90_ms: html.percentile(90.0),
        html_mean_ms: html.mean(),
        video_ok_fraction: if videos == 0 {
            0.0
        } else {
            video_kbps.fraction(|k| k >= 140.0) * (videos - video_failures) as f64 / videos as f64
        },
        video_failure_fraction: if videos == 0 {
            0.0
        } else {
            video_failures as f64 / videos as f64
        },
        html_cdf: html.cdf(40),
    }
}

/// Runs the Na Kika configuration for a SIMM scenario.  `warm` pre-populates
/// every proxy cache before measurement (the paper's warm-cache runs).
pub fn simm_nakika(scenario: &SimmScenario, proxies: usize, warm: bool) -> SimmResult {
    let workload = SimmWorkload::default();
    let origin = workload.origin();
    let dyn_origin: Arc<dyn OriginFetch> = origin.clone();
    let overlay = Arc::new(Overlay::with_defaults());

    // Proxies spread over the client regions; each client uses the proxy for
    // its region (DNS redirection to a nearby node).
    let regions = [sites::US_EAST, sites::US_WEST, sites::ASIA];
    let mut sim_proxies = Vec::new();
    for i in 0..proxies.max(1) {
        let location = regions[i % regions.len()];
        let id = key_for(&format!("edge-{i}"));
        overlay.join(id, location);
        let handle = NodeBuilder::scripted(&format!("edge-{i}"))
            .without_resource_controls()
            .overlay(overlay.clone(), id)
            .origin(dyn_origin.clone())
            .build();
        sim_proxies.push(SimProxy::new(
            handle,
            scenario.client_link,
            LinkModel {
                latency_ms: location
                    .latency_ms(&sites::US_EAST)
                    .max(scenario.origin_link.latency_ms),
                bandwidth_bps: scenario.origin_link.bandwidth_bps,
            },
            ServerModel {
                // The origin only personalises; rendering happens on the edge.
                service_ms: scenario.origin_dynamic_ms,
                think_ms: scenario.think_ms,
            },
            2.0 + scenario.origin_render_ms,
        ));
    }

    let accesses = workload.generate(scenario.clients, scenario.accesses_per_client);
    if warm {
        // Pre-warm: each proxy sees the shared content once.
        for (i, proxy) in sim_proxies.iter().enumerate() {
            for access in accesses.iter().filter(|a| a.is_video()).take(200) {
                let req = access.to_request(client_ip(1000 + i));
                proxy.run_request(req, 1, 1);
            }
        }
    }

    // The origin's load now comes only from misses / personalised pages; the
    // per-client origin load is far lower than in the single-server case.
    let origin_load_per_request = (scenario.clients / sim_proxies.len().max(1)).max(1);

    let mut html = Summary::new();
    let mut video_kbps = Summary::new();
    let mut video_failures = 0usize;
    let mut videos = 0usize;
    for (i, access) in accesses.iter().enumerate() {
        let proxy = &sim_proxies[i % sim_proxies.len()];
        let req = access.to_request(client_ip(i % scenario.clients.max(1)));
        let now = 100 + (i / 50) as u64;
        let (_, timing) = proxy.run_request(req, now, origin_load_per_request);
        match access {
            crate::workload::SimmAccess::Html { .. } => html.add(timing.total_ms),
            crate::workload::SimmAccess::Video { .. } => {
                videos += 1;
                // Served from the edge when cached: the client link's
                // bandwidth applies; otherwise the (shared) origin path does.
                let link = if timing.origin_accesses == 0 {
                    scenario.client_link
                } else {
                    LinkModel {
                        latency_ms: proxy.origin_link.latency_ms,
                        bandwidth_bps: (proxy.origin_link.bandwidth_bps
                            / origin_load_per_request as f64)
                            .max(8_000.0),
                    }
                };
                let kbps = link.effective_kbps(timing.response_bytes.max(workload.video_bytes));
                if kbps < 20.0 {
                    video_failures += 1;
                } else {
                    video_kbps.add(kbps);
                }
            }
        }
    }
    SimmResult {
        config: if warm { "Na Kika warm" } else { "Na Kika cold" }.to_string(),
        clients: scenario.clients,
        html_p90_ms: html.percentile(90.0),
        html_mean_ms: html.mean(),
        video_ok_fraction: if videos == 0 {
            0.0
        } else {
            video_kbps.fraction(|k| k >= 140.0) * (videos - video_failures) as f64 / videos as f64
        },
        video_failure_fraction: if videos == 0 {
            0.0
        } else {
            video_failures as f64 / videos as f64
        },
        html_cdf: html.cdf(40),
    }
}

/// Runs the Figure-7 wide-area comparison for the given client counts,
/// returning (single server, Na Kika cold, Na Kika warm) per count.
pub fn figure7(client_counts: &[usize], proxies: usize) -> Vec<SimmResult> {
    let mut results = Vec::new();
    for &clients in client_counts {
        let scenario = SimmScenario::wide_area(clients);
        results.push(simm_single_server(&scenario));
        results.push(simm_nakika(&scenario, proxies, false));
        results.push(simm_nakika(&scenario, proxies, true));
    }
    results
}

// ---------------------------------------------------------------------------
// §5.3 SPECweb99-like hard-state experiment
// ---------------------------------------------------------------------------

/// Result of the SPECweb99-like experiment.
#[derive(Debug, Clone)]
pub struct SpecResult {
    /// Configuration label.
    pub config: String,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// Throughput in requests per second.
    pub rps: f64,
}

/// Runs the hard-state experiment: a single PHP-style dynamic server on the
/// East Coast versus the same workload spread over `edge_nodes` Na Kika nodes
/// on the West Coast with replicated user registrations.
pub fn specweb(connections: usize, requests: usize, edge_nodes: usize) -> Vec<SpecResult> {
    let workload = SpecWorkload::default();
    let accesses = workload.generate(connections, requests);
    let coast_to_coast = LinkModel::between(&sites::US_WEST, &sites::US_EAST, 5e6);
    let local = LinkModel::lan();

    // --- Single PHP server -------------------------------------------------
    // Every request crosses the country and queues at one server; dynamic
    // requests are expensive (interpreted PHP + database access).
    let php_model = ServerModel {
        service_ms: 14.0,
        think_ms: 500.0,
    };
    let mut php = Summary::new();
    for access in &accesses {
        let dynamic = !matches!(access, crate::workload::SpecAccess::Static { .. });
        let service = php_model.response_ms(connections) * if dynamic { 1.0 } else { 0.3 };
        php.add(service + coast_to_coast.exchange_ms(500, workload.static_bytes));
    }
    let php_mean = php.mean();
    let php_rps = (connections as f64 * 1000.0) / (php_mean + 500.0);

    // --- Na Kika -----------------------------------------------------------
    // Five edge nodes near the clients serve static content from cache and
    // dynamic content from scripts over replicated hard state; only cache
    // misses cross the country.
    let origin = workload.origin();
    let dyn_origin: Arc<dyn OriginFetch> = origin.clone();
    let overlay = Arc::new(Overlay::with_defaults());
    let mut proxies = Vec::new();
    for i in 0..edge_nodes.max(1) {
        let id = key_for(&format!("spec-edge-{i}"));
        let location = Location::new(sites::US_WEST.x + i as f64 * 0.5, 0.0);
        overlay.join(id, location);
        let handle = NodeBuilder::scripted(&format!("spec-edge-{i}"))
            .without_resource_controls()
            .overlay(overlay.clone(), id)
            .origin(dyn_origin.clone())
            .build();
        proxies.push(SimProxy::new(
            handle,
            local,
            coast_to_coast,
            ServerModel {
                service_ms: 8.0,
                think_ms: 500.0,
            },
            3.0,
        ));
    }
    let mut nakika = Summary::new();
    let origin_load = (connections / proxies.len().max(1)).max(1);
    for (i, access) in accesses.iter().enumerate() {
        let proxy = &proxies[i % proxies.len()];
        let req = access.to_request(client_ip(i % connections.max(1)));
        let now = 100 + (i / 20) as u64;
        let (_, timing) = proxy.run_request(req, now, origin_load);
        nakika.add(timing.total_ms);
    }
    let nakika_mean = nakika.mean();
    let nakika_rps = (connections as f64 * 1000.0) / (nakika_mean + 500.0);

    vec![
        SpecResult {
            config: "single PHP server".to_string(),
            mean_response_ms: php_mean,
            rps: php_rps,
        },
        SpecResult {
            config: format!("Na Kika ({edge_nodes} edge nodes)"),
            mean_response_ms: nakika_mean,
            rps: nakika_rps,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ordering_matches_the_paper() {
        let rows = table2(2);
        assert_eq!(rows.len(), 9);
        let get = |name: &str| rows.iter().find(|r| r.config == name).unwrap();
        // Cold: Proxy <= Admin <= Pred-100 (the scripting pipeline costs).
        assert!(get("Proxy").cold_ms <= get("Admin").cold_ms);
        assert!(get("Admin").cold_ms <= get("Pred-100").cold_ms * 1.5);
        assert!(get("Pred-0").cold_ms <= get("Pred-100").cold_ms);
        // Warm is always much cheaper than cold for scripted configurations.
        for name in ["Admin", "Pred-10", "Pred-100", "Match-1"] {
            let row = get(name);
            assert!(
                row.warm_ms < row.cold_ms,
                "{name}: warm {} !< cold {}",
                row.warm_ms,
                row.cold_ms
            );
        }
    }

    #[test]
    fn capacity_gap_between_proxy_and_scripted_node() {
        let result = capacity(30, 50);
        assert!(
            result.proxy_rps > result.match1_rps,
            "scripting costs throughput"
        );
        assert!(result.proxy_at_load > 0.0 && result.match1_at_load > 0.0);
    }

    #[test]
    fn resource_controls_preserve_throughput_under_misbehaviour() {
        // Small run: shapes only.
        let rows = resource_controls(60);
        assert_eq!(rows.len(), 3);
        let misbehaving = &rows[2];
        assert!(
            misbehaving.rps_with > misbehaving.rps_without,
            "controls should win under a misbehaving script: with={} without={}",
            misbehaving.rps_with,
            misbehaving.rps_without
        );
        for row in &rows {
            assert!(
                row.reject_fraction <= 0.6,
                "rejections bounded: {}",
                row.reject_fraction
            );
            assert!(row.drop_fraction <= 0.2);
        }
    }

    #[test]
    fn simm_local_shapes() {
        // On the LAN the single server holds its own; over the shaped WAN the
        // Na Kika proxy wins decisively (paper: 8.88 s vs 1.21 s p90).
        let lan = SimmScenario::local(40);
        let server_lan = simm_single_server(&lan);
        let nakika_lan = simm_nakika(&lan, 1, true);
        assert!(server_lan.html_p90_ms < nakika_lan.html_p90_ms * 4.0);

        let wan = SimmScenario::shaped_wan(40);
        let server_wan = simm_single_server(&wan);
        let nakika_wan = simm_nakika(&wan, 1, true);
        assert!(
            server_wan.html_p90_ms > nakika_wan.html_p90_ms,
            "shaped WAN: single server {} should exceed Na Kika {}",
            server_wan.html_p90_ms,
            nakika_wan.html_p90_ms
        );
        assert!(server_wan.video_ok_fraction <= nakika_wan.video_ok_fraction + 1e-9);
    }

    #[test]
    fn figure7_wide_area_ordering() {
        let results = figure7(&[60], 6);
        assert_eq!(results.len(), 3);
        let server = &results[0];
        let cold = &results[1];
        let warm = &results[2];
        assert!(
            server.html_p90_ms > cold.html_p90_ms,
            "server {} vs cold {}",
            server.html_p90_ms,
            cold.html_p90_ms
        );
        assert!(
            cold.html_p90_ms >= warm.html_p90_ms,
            "cold {} vs warm {}",
            cold.html_p90_ms,
            warm.html_p90_ms
        );
        assert!(warm.video_ok_fraction >= server.video_ok_fraction);
        assert!(server.video_failure_fraction >= warm.video_failure_fraction);
        assert!(!warm.html_cdf.steps.is_empty());
    }

    #[test]
    fn specweb_nakika_outperforms_single_php_server() {
        let results = specweb(40, 200, 5);
        assert_eq!(results.len(), 2);
        let php = &results[0];
        let nakika = &results[1];
        assert!(
            nakika.mean_response_ms < php.mean_response_ms,
            "Na Kika {} should beat PHP {}",
            nakika.mean_response_ms,
            php.mean_response_ms
        );
        assert!(nakika.rps > php.rps);
    }
}
