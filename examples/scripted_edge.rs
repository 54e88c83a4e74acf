//! Scripted edge: the full Na Kika pipeline — walls, a site `nakika.js`,
//! the bytecode VM, and the compiled-program cache — over real localhost
//! TCP.
//!
//! The site script registers two policies: an API route whose `onRequest`
//! *generates* the response on the edge (the origin is never contacted),
//! and a catch-all `onResponse` that stamps every proxied page (per stage
//! only the closest-matching policy runs, so the stamp covers everything
//! *except* the API route).  Once the
//! stages are compiled and cached, the node classifies the no-fetch
//! generated route as `Inline` — the whole scripted exchange runs on the
//! reactor's event loop, no worker hand-off — while cold or fetch-capable
//! work still parks and offloads.
//!
//! ```text
//! cargo run --example scripted_edge
//! ```

use nakika_core::service::{service_fn, DispatchHint};
use nakika_core::{scripts, NodeBuilder};
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{HttpServer, ProxyClient, TcpOrigin};
use std::sync::Arc;

const SITE_SCRIPT: &str = r#"
api = new Policy();
api.url = ["/api/motd"];
api.onRequest = function() {
    Request.respond('application/json',
        '{"motd": "generated on the edge, origin never contacted"}');
};
api.register();

stamp = new Policy();
stamp.onResponse = function() {
    Response.setHeader('X-Edge', 'nakika-vm');
};
stamp.register();
"#;

fn now_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_secs()
}

fn main() {
    // 1. An origin serving the stage scripts (two empty walls plus the site
    //    policy above) and a handful of cacheable pages.
    let origin = HttpServer::start(
        0,
        service_fn(|request: Request, _ctx| {
            let path = request.uri.path.as_str();
            if path.ends_with("nakika.js") {
                return Ok(Response::ok("application/javascript", SITE_SCRIPT)
                    .with_header("Cache-Control", "max-age=300"));
            }
            if path.ends_with("clientwall.js") || path.ends_with("serverwall.js") {
                return Ok(Response::ok("application/javascript", scripts::EMPTY_WALL)
                    .with_header("Cache-Control", "max-age=300"));
            }
            Ok(
                Response::ok("text/html", format!("<html>origin page {path}</html>"))
                    .with_header("Cache-Control", "max-age=300"),
            )
        }),
    )
    .expect("origin starts");
    let base = origin.base_url();

    // 2. The scripted edge on the reactor transport.  The walls are fetched
    //    from the origin too, so the whole deployment is self-contained.
    let edge = Arc::new(
        NodeBuilder::scripted("scripted-edge")
            .wall_urls(
                &format!("{base}/clientwall.js"),
                &format!("{base}/serverwall.js"),
            )
            .origin(Arc::new(TcpOrigin::new()))
            .build(),
    );
    let proxy = HttpServer::start(0, edge.service()).expect("proxy starts");
    println!(
        "origin at {}, scripted reactor edge at {}\n",
        origin.addr(),
        proxy.addr()
    );

    let api_url = format!("{base}/api/motd");
    let page_url = format!("{base}/welcome.html");

    // 3. Cold: nothing is compiled yet, so the node refuses to run the
    //    pipeline on the event loop.
    let api_request = Request::get(&api_url);
    assert_eq!(
        edge.node().dispatch_hint(&api_request, now_secs()),
        DispatchHint::MayBlock
    );
    println!("cold dispatch hint for {api_url}: MayBlock (stages not compiled)");

    // 4. Drive traffic.  The first exchange compiles the walls and the site
    //    script; everything after reuses the compiled programs.
    let mut client = ProxyClient::connect(proxy.addr()).expect("client connects");
    let generated = client.get(&api_url).expect("generated exchange");
    assert_eq!(generated.status, StatusCode::OK);
    assert!(generated.body.to_text().contains("generated on the edge"));

    let proxied = client.get(&page_url).expect("proxied exchange");
    assert_eq!(proxied.status, StatusCode::OK);
    assert_eq!(proxied.headers.get("x-edge"), Some("nakika-vm"));

    for _ in 0..50 {
        client.get(&api_url).expect("warm generated exchange");
    }

    // 5. Warm: every stage is compiled and cached, the matched policy
    //    cannot fetch and always generates — the scripted exchange is now
    //    event-loop safe.
    assert_eq!(
        edge.node().dispatch_hint(&api_request, now_secs()),
        DispatchHint::Inline
    );
    println!("warm dispatch hint for {api_url}: Inline (runs on the event loop)");

    let stats = edge.node().cache_stats();
    println!(
        "\nscript_compiles = {} (walls share one source; the site script is the other)",
        stats.script_compiles
    );
    println!(
        "script_cache_hits = {} (every reuse of an already-compiled program)",
        stats.script_cache_hits
    );
    assert_eq!(
        stats.script_compiles, 2,
        "two distinct script sources: EMPTY_WALL and the site policy"
    );
    println!("\nscripted edge over TCP: OK");
}
