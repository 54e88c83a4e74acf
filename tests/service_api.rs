//! Tests of the `HttpService` boundary itself: time injection through
//! `Clock`/`RequestCtx`, middleware composition order, and the typed
//! `NakikaError` → status-code mapping both in-process and over real TCP.

use nakika_core::middleware::{AccessLogLayer, AdmissionLayer};
use nakika_core::resource::{ResourceKind, ResourceManager, ResourceManagerConfig};
use nakika_core::service::{
    layered, service_fn, Clock, CtxFactory, HttpService, ManualClock, NakikaError, RequestCtx,
};
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{http_get, HttpServer};
use nakika_state::AccessLog;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A `ManualClock` drives cache expiry through `RequestCtx` arrival times:
/// the same request is a hit while fresh and goes back to the origin once
/// the manually advanced clock passes the entry's lifetime.
#[test]
fn manual_clock_drives_cache_expiry_through_request_ctx() {
    let clock = Arc::new(ManualClock::new(100));
    let ctx_factory = CtxFactory::new(clock.clone() as Arc<dyn Clock>);
    let hits = Arc::new(AtomicU64::new(0));
    let origin_hits = hits.clone();
    let edge = NodeBuilder::plain_proxy("clock-edge")
        .origin_fn(move |_req: &Request| {
            origin_hits.fetch_add(1, Ordering::SeqCst);
            Response::ok("text/html", "fresh for two minutes")
                .with_header("Cache-Control", "max-age=120")
        })
        .build();
    let request = || Request::get("http://site.example/page");
    let client = "10.0.0.1".parse().unwrap();

    edge.call(request(), &ctx_factory.make(client)).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1, "cold cache fetches");

    clock.advance(60);
    edge.call(request(), &ctx_factory.make(client)).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1, "still fresh at +60 s");

    clock.advance(120);
    edge.call(request(), &ctx_factory.make(client)).unwrap();
    assert_eq!(
        hits.load(Ordering::SeqCst),
        2,
        "expired at +180 s, refetched"
    );
    assert_eq!(edge.node().stats().cache_hits, 1);
}

/// Builds a resource manager whose `hog.example` site is deterministically
/// terminated (congested across two control rounds).
fn terminated_manager() -> Arc<ResourceManager> {
    let mut config = ResourceManagerConfig::default();
    config.capacity.insert(ResourceKind::Cpu, 1.0);
    let resource = Arc::new(ResourceManager::new(config));
    for _ in 0..2 {
        resource.record("hog.example", ResourceKind::Cpu, 1_000.0);
        resource.control();
    }
    resource
}

/// Logging wraps admission wraps the pipeline: the access log (outermost)
/// records even the exchanges admission rejects, while the pipeline
/// (innermost) never sees them.
#[test]
fn middleware_ordering_logging_wraps_admission_wraps_pipeline() {
    let events: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let pipeline_events = events.clone();
    let pipeline = service_fn(move |_req, _ctx| {
        pipeline_events.lock().push("pipeline");
        Ok(Response::ok("text/plain", "served"))
    });
    let log = Arc::new(AccessLog::new());
    log.configure_site("hog.example", Some("http://hog.example/log-sink"));
    log.configure_site("good.example", Some("http://good.example/log-sink"));
    let stack = layered(
        pipeline,
        vec![
            Box::new(AccessLogLayer::new(log.clone())),
            Box::new(AdmissionLayer::new(terminated_manager())),
        ],
    );

    // The terminated site: admission rejects before the pipeline runs, and
    // the outer logging layer still records the rejection's status mapping.
    let rejected = stack.call(Request::get("http://hog.example/x"), &RequestCtx::at(0));
    assert!(matches!(
        rejected,
        Err(NakikaError::Terminated { ref site } | NakikaError::Throttled { ref site })
            if site == "hog.example"
    ));
    assert!(events.lock().is_empty(), "the pipeline never ran");
    assert_eq!(log.pending("hog.example"), 1, "the rejection was logged");

    // A well-behaved site flows through all three layers.
    let ok = stack
        .call(Request::get("http://good.example/x"), &RequestCtx::at(0))
        .unwrap();
    assert_eq!(ok.status, StatusCode::OK);
    assert_eq!(events.lock().as_slice(), ["pipeline"]);
    assert_eq!(log.pending("good.example"), 1);

    let batches = log.flush();
    assert!(
        batches.iter().any(|(_, body)| body.contains(" 503 ")),
        "the logged rejection carries the 503 mapping: {batches:?}"
    );
}

/// Each `NakikaError` variant maps to its documented status code, both via
/// `to_response` and at the TCP wire where a real transport does the mapping.
#[test]
fn typed_errors_map_to_status_codes_at_the_transport() {
    let cases: Vec<(NakikaError, StatusCode)> = vec![
        (
            NakikaError::Throttled {
                site: "a.example".into(),
            },
            StatusCode::SERVICE_UNAVAILABLE,
        ),
        (
            NakikaError::Terminated {
                site: "a.example".into(),
            },
            StatusCode::SERVICE_UNAVAILABLE,
        ),
        (
            NakikaError::Upstream {
                url: "http://o.example/x".into(),
                reason: "connect failed".into(),
            },
            StatusCode::BAD_GATEWAY,
        ),
        (
            NakikaError::Integrity {
                url: "http://o.example/x".into(),
                reason: "body hash mismatch".into(),
            },
            StatusCode::BAD_GATEWAY,
        ),
        (
            NakikaError::Internal("invariant broken".into()),
            StatusCode::INTERNAL_SERVER_ERROR,
        ),
    ];
    for (error, status) in &cases {
        assert_eq!(error.status(), *status, "{error}");
        let response = error.to_response();
        assert_eq!(response.status, *status);
        assert_eq!(
            response.headers.get("X-Nakika-Error"),
            Some(error.kind()),
            "{error}"
        );
    }

    // Over a real socket: the server transport renders the service's typed
    // error, with the kind header and the reason in the body.
    let server = HttpServer::start(
        0,
        service_fn(|_req, _ctx| {
            Err(NakikaError::Upstream {
                url: "http://origin.example/dead".into(),
                reason: "no route to origin".into(),
            })
        }),
    )
    .unwrap();
    let response = http_get(&format!("{}/x", server.base_url())).unwrap();
    assert_eq!(response.status, StatusCode::BAD_GATEWAY);
    assert_eq!(response.headers.get("X-Nakika-Error"), Some("upstream"));
    assert!(response.body.to_text().contains("no route to origin"));
}
