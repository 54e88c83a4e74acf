//! Network and server models for the wide-area experiments.
//!
//! Latency is modelled with the overlay's 2-D coordinate space (one-way
//! milliseconds), bandwidth with simple store-and-forward transfer times, and
//! origin-server queueing with a closed interactive-system model — enough to
//! reproduce the *shapes* of the paper's end-to-end results (who wins, by
//! what factor, and where the crossovers lie) without packet-level detail.
//!
//! The simulator is a transport like any other: it owns a [`VirtualClock`],
//! mints a [`RequestCtx`] per simulated exchange, and drives the node through
//! the [`HttpService`] stack its [`NodeHandle`] exposes — the same node code
//! that runs under the real TCP servers.

use nakika_core::service::{Clock, CtxFactory, HttpService, NakikaError, RequestCtx};
use nakika_core::NodeHandle;
use nakika_http::{Request, Response};
use nakika_overlay::Location;
use std::sync::Arc;

/// The simulator's [`Clock`]: virtual seconds advanced by the experiment
/// harness, never by wall time.  Same mechanics as the test transport's
/// manually driven clock, re-exported under its domain name.
pub(crate) use nakika_core::service::ManualClock as VirtualClock;

/// A point-to-point link: propagation latency plus bandwidth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkModel {
    /// One-way propagation latency in milliseconds.
    pub(crate) latency_ms: f64,
    /// Bandwidth in bits per second.
    pub(crate) bandwidth_bps: f64,
}

impl LinkModel {
    /// A link between two locations with the given bandwidth.
    pub(crate) fn between(a: &Location, b: &Location, bandwidth_bps: f64) -> LinkModel {
        LinkModel {
            latency_ms: a.latency_ms(b),
            bandwidth_bps,
        }
    }

    /// A LAN link: sub-millisecond latency, 100 Mbit/s (the paper's
    /// micro-benchmark setup).
    pub(crate) fn lan() -> LinkModel {
        LinkModel {
            latency_ms: 0.2,
            bandwidth_bps: 100e6,
        }
    }

    /// Time in milliseconds for one request/response exchange of
    /// `request_bytes` up and `response_bytes` down, including one round
    /// trip of propagation.
    pub(crate) fn exchange_ms(&self, request_bytes: usize, response_bytes: usize) -> f64 {
        2.0 * self.latency_ms
            + transfer_ms(request_bytes, self.bandwidth_bps)
            + transfer_ms(response_bytes, self.bandwidth_bps)
    }

    /// The bandwidth a transfer of `bytes` effectively sees when the transfer
    /// also pays the link's round-trip time, in kilobits per second — the
    /// metric the SIMM experiments report for video playback.
    pub(crate) fn effective_kbps(&self, bytes: usize) -> f64 {
        let ms = self.exchange_ms(200, bytes);
        if ms <= 0.0 {
            return f64::INFINITY;
        }
        (bytes as f64 * 8.0 / 1000.0) / (ms / 1000.0)
    }
}

/// Time to push `bytes` through `bandwidth_bps`, in milliseconds.
pub(crate) fn transfer_ms(bytes: usize, bandwidth_bps: f64) -> f64 {
    if bandwidth_bps <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / bandwidth_bps * 1000.0
}

/// A closed interactive-system model of a server: `n_clients` each issue a
/// request, wait for the response (service time `service_ms` under no load),
/// think for `think_ms`, and repeat.  Standard asymptotic bounds give the
/// throughput and response time; past saturation, response time grows
/// linearly with population — which is exactly the "single dynamic web server
/// collapses under load" behaviour the paper's §5.2/§5.3 baselines show.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerModel {
    /// Service demand per request at the server, in milliseconds.
    pub(crate) service_ms: f64,
    /// Client think time between requests, in milliseconds.
    pub(crate) think_ms: f64,
}

impl ServerModel {
    /// Server capacity in requests per second.
    pub(crate) fn capacity_rps(&self) -> f64 {
        1000.0 / self.service_ms
    }

    /// Throughput (requests per second) with `n_clients` closed-loop clients.
    pub(crate) fn throughput_rps(&self, n_clients: usize) -> f64 {
        let unsaturated = n_clients as f64 * 1000.0 / (self.service_ms + self.think_ms);
        unsaturated.min(self.capacity_rps())
    }

    /// Mean response time in milliseconds with `n_clients` clients
    /// (interactive response-time law `R = N/X - Z`).
    pub(crate) fn response_ms(&self, n_clients: usize) -> f64 {
        if n_clients == 0 {
            return self.service_ms;
        }
        let x = self.throughput_rps(n_clients) / 1000.0; // req per ms
        (n_clients as f64 / x - self.think_ms).max(self.service_ms)
    }
}

/// A Na Kika proxy placed at a location, with links to its clients and to the
/// origin server; wraps a real node's [`HttpService`] stack and converts its
/// observable behaviour (cache hit, peer fetch, origin fetch, script work)
/// into client-perceived latency.
pub(crate) struct SimProxy {
    handle: NodeHandle,
    clock: Arc<VirtualClock>,
    ctx_factory: CtxFactory,
    /// Link from clients (assumed co-located with the proxy's region) to the
    /// proxy.
    pub(crate) client_link: LinkModel,
    /// Link from the proxy to the origin server.
    pub(crate) origin_link: LinkModel,
    /// Origin service model (shared with the single-server baseline).
    pub(crate) origin_model: ServerModel,
    /// Per-request CPU overhead of the scripting pipeline on this node, in
    /// milliseconds (calibrated from the component micro-benchmarks).
    pub(crate) pipeline_overhead_ms: f64,
}

/// Latency breakdown of one simulated request through a proxy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RequestTiming {
    /// Total client-perceived latency in milliseconds.
    pub(crate) total_ms: f64,
    /// Number of origin accesses the request caused (scripts included).
    pub(crate) origin_accesses: u64,
    /// Response body size in bytes.
    pub(crate) response_bytes: usize,
}

impl SimProxy {
    /// Places `handle` behind the given link and server models.
    pub(crate) fn new(
        handle: NodeHandle,
        client_link: LinkModel,
        origin_link: LinkModel,
        origin_model: ServerModel,
        pipeline_overhead_ms: f64,
    ) -> SimProxy {
        let clock = Arc::new(VirtualClock::new(0));
        let ctx_factory = CtxFactory::new(clock.clone() as Arc<dyn Clock>);
        SimProxy {
            handle,
            clock,
            ctx_factory,
            client_link,
            origin_link,
            origin_model,
            pipeline_overhead_ms,
        }
    }

    /// Runs one request through the proxy at virtual time `now_secs`,
    /// charging link and server latencies according to what the node actually
    /// did, with `origin_load` concurrent clients loading the origin.
    pub(crate) fn run_request(
        &self,
        request: Request,
        now_secs: u64,
        origin_load: usize,
    ) -> (Response, RequestTiming) {
        self.clock.set(now_secs);
        let ctx: RequestCtx = self.ctx_factory.make(request.client_ip);
        let request_bytes = request.body.len();

        let before = self.handle.node().stats();
        let result = self.handle.call(request, &ctx);
        let after = self.handle.node().stats();

        let origin_accesses = after.origin_fetches - before.origin_fetches;
        let peer_fetches = after.peer_hits - before.peer_hits;
        // The transport decides the status mapping for platform errors.
        let (response, rejected) = match result {
            Ok(response) => (response, false),
            Err(error @ (NakikaError::Throttled { .. } | NakikaError::Terminated { .. })) => {
                (error.to_response(), true)
            }
            Err(error) => (error.to_response(), false),
        };

        let mut total_ms = self
            .client_link
            .exchange_ms(request_bytes + 400, response.body.len());
        if !rejected {
            total_ms += self.pipeline_overhead_ms;
            // Each origin access pays the wide-area link plus the origin's
            // (load-dependent) service time.
            let origin_response_ms = self.origin_model.response_ms(origin_load);
            total_ms += origin_accesses as f64
                * (self
                    .origin_link
                    .exchange_ms(400, response.body.len().max(2048))
                    + origin_response_ms);
            // Peer fetches pay a regional link (approximated as twice the
            // client link — peers are nearby by construction of the overlay's
            // clusters).
            total_ms += peer_fetches as f64
                * (2.0 * self.client_link.exchange_ms(400, response.body.len()));
        }

        let timing = RequestTiming {
            total_ms,
            origin_accesses,
            response_bytes: response.body.len(),
        };
        (response, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_core::NodeBuilder;
    use nakika_overlay::cluster::sites;

    #[test]
    fn link_arithmetic() {
        let lan = LinkModel::lan();
        assert!(lan.exchange_ms(100, 2096) < 1.0);
        let wan = LinkModel {
            latency_ms: 40.0,
            bandwidth_bps: 8e6,
        };
        let ms = wan.exchange_ms(400, 1_000_000);
        assert!(
            ms > 80.0 + 1000.0,
            "1 MB over 8 Mbit/s takes ~1 s plus RTT, got {ms}"
        );
        assert!(transfer_ms(1_000_000, 8e6) >= 999.0);
        assert_eq!(transfer_ms(0, 8e6), 0.0);
        assert!(transfer_ms(1, 0.0).is_infinite());
    }

    #[test]
    fn effective_bandwidth_reflects_link_capacity() {
        let fast = LinkModel {
            latency_ms: 5.0,
            bandwidth_bps: 10e6,
        };
        let slow = LinkModel {
            latency_ms: 5.0,
            bandwidth_bps: 64e3,
        };
        assert!(fast.effective_kbps(500_000) > 140.0);
        assert!(slow.effective_kbps(500_000) < 140.0);
    }

    #[test]
    fn server_model_saturates() {
        let model = ServerModel {
            service_ms: 10.0,
            think_ms: 90.0,
        };
        assert!((model.capacity_rps() - 100.0).abs() < 1e-9);
        // Few clients: response time near the base service time.
        assert!(model.response_ms(1) <= 11.0);
        // Many clients: throughput pegged at capacity and response time
        // growing roughly linearly.
        assert!((model.throughput_rps(1000) - 100.0).abs() < 1e-9);
        assert!(model.response_ms(1000) > model.response_ms(100) * 5.0);
    }

    #[test]
    fn sim_proxy_latency_tracks_cache_state() {
        let handle = NodeBuilder::plain_proxy("edge")
            .origin_fn(|_req| {
                Response::ok("text/html", "x".repeat(2096))
                    .with_header("Cache-Control", "max-age=300")
            })
            .build();
        let proxy = SimProxy::new(
            handle,
            LinkModel::lan(),
            LinkModel::between(&sites::US_WEST, &sites::US_EAST, 8e6),
            ServerModel {
                service_ms: 5.0,
                think_ms: 1000.0,
            },
            0.5,
        );
        let (_, cold) = proxy.run_request(Request::get("http://site.example/"), 10, 1);
        let (_, warm) = proxy.run_request(Request::get("http://site.example/"), 20, 1);
        assert_eq!(cold.origin_accesses, 1);
        assert_eq!(warm.origin_accesses, 0);
        assert!(
            cold.total_ms > warm.total_ms * 5.0,
            "cold {} should dwarf warm {}",
            cold.total_ms,
            warm.total_ms
        );
    }
}
