//! The paper's motivating scenario (§1, §5.2, §5.4): a web-based medical
//! education environment served through Na Kika, with a third party layering
//! an electronic-annotations service on top of the medical school's content
//! by dynamically scheduling extra pipeline stages — all over real TCP
//! sockets on localhost.
//!
//! ```text
//! cargo run --example medical_cdn
//! ```

use nakika_core::service::service_fn;
use nakika_core::{scripts, NodeBuilder};
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{http_get_via_proxy, HttpServer, TcpOrigin};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The medical school's origin server --------------------------------
    // It serves lecture XML and a nakika.js that (a) renders XML to HTML on
    // the edge and (b) schedules the annotation service's stage.
    let origin = HttpServer::start(
        0,
        service_fn(|request: Request, _ctx| {
            Ok(match request.uri.path.as_str() {
            "/nakika.js" => Response::ok(
                "application/javascript",
                r#"
                p = new Policy();
                p.nextStages = ["http://127.0.0.1/annotations.js"];
                p.onResponse = function() {
                    if (Response.contentType != 'text/xml') { return; }
                    var buff = null, body = new ByteArray();
                    while (buff = Response.read()) { body.append(buff); }
                    var html = Xml.toHtml(body.toString());
                    Response.setHeader('Content-Type', 'text/html');
                    Response.setHeader('Content-Length', html.length);
                    Response.write(html);
                };
                p.register();
                "#,
            )
            .with_header("Cache-Control", "max-age=300"),
            path if path.ends_with(".js") => Response::error(StatusCode::NOT_FOUND),
            path if path.starts_with("/simm/") => Response::ok(
                "text/xml",
                format!(
                    "<lecture><title>Module {path}</title><body>workup, treatment, follow-up</body></lecture>"
                ),
            )
            .with_header("Cache-Control", "max-age=60"),
            _ => Response::error(StatusCode::NOT_FOUND),
        })
        }),
    )?;

    // --- The annotation service (a different organisation) -----------------
    // Its stage injects a post-it-notes widget into the rendered HTML.
    let annotations = HttpServer::start(
        0,
        service_fn(|request: Request, _ctx| {
            Ok(if request.uri.path == "/annotations.js" {
                Response::ok("application/javascript", scripts::ANNOTATIONS)
                    .with_header("Cache-Control", "max-age=300")
            } else {
                Response::error(StatusCode::NOT_FOUND)
            })
        }),
    )?;

    // --- The Na Kika edge node ----------------------------------------------
    // Its origin fetch path goes over outbound TCP with keep-alive pooling.
    let edge = NodeBuilder::scripted("medical-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = HttpServer::start(0, edge.service())?;

    // The annotation stage URL in nakika.js points at 127.0.0.1 without a
    // port; rewrite requests by asking for the real annotation server URL.
    // (In a deployment both services use real DNS names.)
    let lecture_url = format!("{}/simm/appendicitis", origin.base_url());
    println!("origin:      {}", origin.base_url());
    println!("annotations: {}", annotations.base_url());
    println!("proxy:       http://{}\n", proxy.addr());

    let response = http_get_via_proxy(proxy.addr(), &lecture_url)?;
    println!("GET {lecture_url} via Na Kika -> {}", response.status);
    let body = response.body.to_text();
    println!(
        "rendered body ({} bytes):\n{}\n",
        body.len(),
        &body[..body.len().min(400)]
    );
    assert!(
        body.contains("<div class=\"lecture\">"),
        "XML was rendered to HTML on the edge"
    );

    // Second access is served from the edge cache.
    let again = http_get_via_proxy(proxy.addr(), &lecture_url)?;
    assert_eq!(again.status, StatusCode::OK);
    let stats = edge.node().stats();
    println!(
        "node stats: {} requests, {} cache hits, {} origin fetches, {} script errors",
        stats.requests, stats.cache_hits, stats.origin_fetches, stats.script_errors
    );
    Ok(())
}
