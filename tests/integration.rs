//! Workspace integration tests spanning crates: a Na Kika node with its
//! policies, resource controls and hard state exercised through the
//! public APIs, plus the paper's three §5.4 extensions composed end to end.

use nakika_core::node::origin_from_fn;
use nakika_core::scripts;
use nakika_core::service::{HttpService, RequestCtx};
use nakika_core::NodeBuilder;
use nakika_http::pattern::Cidr;
use nakika_http::{Request, Response, StatusCode};

#[test]
fn annotation_service_interposes_on_the_simms_as_in_the_paper() {
    // The paper's §5.4 annotations extension: a site *outside* the medical
    // school interposes on the SIMMs by rewriting the request URL to the
    // original content and scheduling the SIMMs' own stage after itself; its
    // onResponse then runs last and injects the annotation widget into the
    // HTML the SIMM stage rendered.
    const NOTES_SITE: &str = r#"
        p = new Policy();
        p.url = ["notes.example.org"];
        p.nextStages = ["http://simms.med.nyu.edu/nakika.js"];
        p.onRequest = function() {
            Request.setUrl('http://simms.med.nyu.edu' + Request.path);
        };
        p.onResponse = function() {
            var buff = null, body = new ByteArray();
            while (buff = Response.read()) { body.append(buff); }
            var html = body.toString().replace('</body>',
                '<div class="nakika-annotations">No annotations yet.</div></body>');
            Response.setHeader('Content-Length', html.length);
            Response.write(html);
        };
        p.register();
    "#;
    const SIMM_SITE: &str = r#"
        p = new Policy();
        p.url = ["simms.med.nyu.edu"];
        p.onResponse = function() {
            if (Response.contentType != 'text/xml') { return; }
            var buff = null, body = new ByteArray();
            while (buff = Response.read()) { body.append(buff); }
            var html = '<html><body>' + Xml.textOf(body.toString(), 'title') + '</body></html>';
            Response.setHeader('Content-Type', 'text/html');
            Response.write(html);
        };
        p.register();
    "#;
    let origin = origin_from_fn(move |request: &Request| {
        match (request.uri.host.as_str(), request.uri.path.as_str()) {
            ("notes.example.org", "/nakika.js") => {
                Response::ok("application/javascript", NOTES_SITE)
                    .with_header("Cache-Control", "max-age=300")
            }
            ("simms.med.nyu.edu", "/nakika.js") => {
                Response::ok("application/javascript", SIMM_SITE)
                    .with_header("Cache-Control", "max-age=300")
            }
            (_, path) if path.ends_with("wall.js") => {
                Response::ok("application/javascript", scripts::EMPTY_WALL)
                    .with_header("Cache-Control", "max-age=300")
            }
            (_, path) if path.ends_with(".js") => Response::error(StatusCode::NOT_FOUND),
            _ => Response::ok(
                "text/xml",
                "<lecture><title>Hernia repair</title></lecture>",
            )
            .with_header("Cache-Control", "max-age=30"),
        }
    });
    let edge = NodeBuilder::scripted("edge").origin(origin).build();
    let resp = edge
        .call(
            Request::get("http://notes.example.org/module1/lecture1"),
            &RequestCtx::at(10),
        )
        .unwrap();
    let body = resp.body.to_text();
    assert!(
        body.contains("Hernia repair"),
        "SIMM stage rendered the XML: {body}"
    );
    assert!(
        body.contains("nakika-annotations"),
        "annotation stage wrapped the rendered page: {body}"
    );
}

#[test]
fn security_policies_and_resource_controls_protect_a_node() {
    let wall: &'static str = scripts::DIGITAL_LIBRARY_POLICY;
    let edge = NodeBuilder::scripted("edge")
        .local_network(Cidr::parse("10.0.0.0/8").unwrap())
        .control_period_secs(1)
        .origin_fn(move |request: &Request| match request.uri.path.as_str() {
            "/clientwall.js" => Response::ok("application/javascript", wall)
                .with_header("Cache-Control", "max-age=300"),
            path if path.ends_with(".js") => Response::error(StatusCode::NOT_FOUND),
            _ => Response::ok("text/html", "article").with_header("Cache-Control", "max-age=60"),
        })
        .build();
    let blocked = edge
        .call(
            Request::get("http://content.nejm.org/cgi/reprint/x")
                .with_client_ip("198.51.100.7".parse().unwrap()),
            &RequestCtx::at(10),
        )
        .unwrap();
    assert_eq!(blocked.status, StatusCode::UNAUTHORIZED);
    let allowed = edge
        .call(
            Request::get("http://content.nejm.org/cgi/reprint/x")
                .with_client_ip("10.3.2.1".parse().unwrap()),
            &RequestCtx::at(11),
        )
        .unwrap();
    assert_eq!(allowed.status, StatusCode::OK);
}

#[test]
fn na_kika_pages_run_with_hard_state_on_the_edge() {
    const GUESTBOOK: &str = r#"
        p = new Policy();
        p.url = ["guestbook.example.org/sign"];
        p.onRequest = function() {
            var name = Request.query('name');
            HardState.put('entry:' + name, name);
            Request.respond('text/html', '<p>thanks, ' + name + '</p>');
        };
        p.register();
    "#;
    let origin = origin_from_fn(move |request: &Request| match request.uri.path.as_str() {
        "/nakika.js" => Response::ok("application/javascript", GUESTBOOK)
            .with_header("Cache-Control", "max-age=300"),
        path if path.ends_with(".js") => Response::error(StatusCode::NOT_FOUND),
        "/view.nkp" => Response::ok(
            "text/nkp",
            "<ul><?nkp var names = HardState.keys('entry:'); \
             for (var i = 0; i < names.length; i++) { echo('<li>' + names[i] + '</li>'); } ?></ul>",
        )
        .with_header("Cache-Control", "no-store"),
        _ => Response::error(StatusCode::NOT_FOUND),
    });
    let edge = NodeBuilder::scripted("edge").origin(origin).build();
    for name in ["ada", "grace"] {
        let resp = edge
            .call(
                Request::get(&format!("http://guestbook.example.org/sign?name={name}")),
                &RequestCtx::at(10),
            )
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    let view = edge
        .call(
            Request::get("http://guestbook.example.org/view.nkp"),
            &RequestCtx::at(20),
        )
        .unwrap();
    let body = view.body.to_text();
    assert!(
        body.contains("<li>entry:ada</li>") && body.contains("<li>entry:grace</li>"),
        "{body}"
    );
    assert_eq!(view.headers.content_type(), Some("text/html"));
}
