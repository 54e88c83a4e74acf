//! Tests of the `HttpService` boundary itself: time injection through
//! `Clock`/`RequestCtx`, and the typed `NakikaError` → status-code mapping
//! both in-process and over real TCP.

use nakika_core::service::{service_fn, Clock, CtxFactory, HttpService, ManualClock, NakikaError};
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{http_get, HttpServer};
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
