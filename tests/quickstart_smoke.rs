//! Smoke test covering the quickstart example's path end-to-end over real
//! localhost TCP: an [`HttpServer`] origin publishes a site `nakika.js`, a
//! scripted [`NaKikaNode`] sits behind an [`HttpServer`], and a client fetches
//! through the proxy — so `cargo test` exercises the same wiring as
//! `cargo run --example quickstart` plus the real-socket layer around it.

use nakika_core::service::service_fn;
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{http_get_via_proxy, HttpServer, TcpOrigin};
use std::sync::Arc;

fn origin_handler(request: &Request) -> Response {
    match request.uri.path.as_str() {
        "/nakika.js" => Response::ok(
            "application/javascript",
            r#"
                p = new Policy();
                p.url = ["127.0.0.1"];
                p.onResponse = function() {
                    Response.setHeader('X-Processed-By', 'nakika-edge');
                };
                p.register();
            "#,
        )
        .with_header("Cache-Control", "max-age=300"),
        path if path.ends_with(".js") => Response::error(StatusCode::NOT_FOUND),
        path => Response::ok(
            "text/html",
            format!("<html><body>content of {path}</body></html>"),
        )
        .with_header("Cache-Control", "max-age=120"),
    }
}

#[test]
fn quickstart_flow_over_localhost_tcp() {
    let origin = HttpServer::start(
        0,
        service_fn(|request: Request, _ctx| Ok(origin_handler(&request))),
    )
    .expect("origin server starts");
    let edge = NodeBuilder::scripted("smoke-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = HttpServer::start(0, edge.service()).expect("proxy server starts");

    let page_url = format!("{}/welcome.html", origin.base_url());
    let first = http_get_via_proxy(proxy.addr(), &page_url).expect("first fetch succeeds");
    assert_eq!(first.status, StatusCode::OK);
    assert!(
        !first.body.is_empty(),
        "page body should arrive through the proxy"
    );
    assert_eq!(
        first.headers.get("X-Processed-By"),
        Some("nakika-edge"),
        "the site script must run at the edge"
    );

    // The same page again: served from the proxy cache, still processed.
    let second = http_get_via_proxy(proxy.addr(), &page_url).expect("second fetch succeeds");
    assert_eq!(second.status, StatusCode::OK);
    assert_eq!(second.headers.get("X-Processed-By"), Some("nakika-edge"));

    // A different page misses the cache and goes back to the origin.
    let other_url = format!("{}/other.html", origin.base_url());
    let other = http_get_via_proxy(proxy.addr(), &other_url).expect("third fetch succeeds");
    assert_eq!(other.status, StatusCode::OK);

    let stats = edge.node().stats();
    assert_eq!(stats.requests, 3, "proxy saw all three client requests");
    assert!(
        stats.cache_hits >= 1,
        "the repeated page is served from cache (stats: {stats:?})"
    );
}
