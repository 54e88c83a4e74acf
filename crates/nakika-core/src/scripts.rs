//! Administrative-control scripts and the extension scripts the paper
//! evaluates (§3.2, §5.4), shipped as embedded sources.
//!
//! In a deployment these live at well-known URLs (`nakika.net/clientwall.js`,
//! `nakika.net/serverwall.js`) and on the sites that publish them; they are
//! fetched and cached through ordinary HTTP, which is how security-policy
//! updates propagate.  The constants here are the building blocks the
//! examples and experiments serve from their simulated origins.

/// A wall that matches every request with empty handlers — the `Admin`
/// micro-benchmark configuration (Table 1: "evaluating one matching predicate
/// and executing empty event handlers").
pub const EMPTY_WALL: &str = r#"
p = new Policy();
p.onRequest = function() { };
p.onResponse = function() { };
p.register();
"#;

/// The paper's Figure 5: deny access to the BMJ and NEJM digital libraries
/// from clients outside the hosting organisation.
pub const DIGITAL_LIBRARY_POLICY: &str = r#"
bmj = "bmj.bmjjournals.com/cgi/reprint";
nejm = "content.nejm.org/cgi/reprint";
p = new Policy();
p.url = [ bmj, nejm ];
p.onRequest = function() {
    if (! System.isLocal(Request.clientIP)) {
        Request.terminate(401);
    }
}
p.register();
"#;

/// The paper's Figure 2 generalised into the §5.4 cell-phone extension:
/// transcode images to fit a small screen, caching the transformed content,
/// and selected by the device's User-Agent header.
pub const IMAGE_TRANSCODER: &str = r#"
p = new Policy();
p.headers = { "User-Agent": "Nokia" };
p.onResponse = function() {
    if (Response.contentType.indexOf('image/') != 0) { return; }
    var cacheKey = 'transcoded:' + Request.url;
    var cached = Cache.get(cacheKey);
    if (cached != null) {
        Response.setHeader("Content-Type", "image/jpeg");
        Response.write(cached);
        return;
    }
    var buff = null, body = new ByteArray();
    while (buff = Response.read()) {
        body.append(buff);
    }
    var type = ImageTransformer.type(Response.contentType);
    var dim = ImageTransformer.dimensions(body, type);
    if (dim.x > 176 || dim.y > 208) {
        var img;
        if (dim.x/176 > dim.y/208) {
            img = ImageTransformer.transform(body, type, "jpeg", 176, dim.y/dim.x*208);
        } else {
            img = ImageTransformer.transform(body, type, "jpeg", dim.x/dim.y*176, 208);
        }
        Response.setHeader("Content-Type", "image/jpeg");
        Response.setHeader("Content-Length", img.length);
        Response.write(img);
        Cache.put(cacheKey, img, 300);
    }
};
p.register();
"#;

/// The §5.4 content-blocking extension: a static stage whose policies are
/// generated from a blacklist.  [`blacklist_stage`] produces the generated
/// second stage.
pub const BLACKLIST_LOADER: &str = r#"
p = new Policy();
p.nextStages = ["http://nakika.net/blocklist-generated.js"];
p.register();
"#;

/// Generates the blacklist-enforcement stage from a list of URL prefixes —
/// the dynamic code generation step of the paper's third extension.
pub fn blacklist_stage(blocked: &[&str]) -> String {
    let mut script = String::new();
    for url in blocked {
        let escaped = url.replace('\\', "\\\\").replace('"', "\\\"");
        script.push_str(&format!(
            "p = new Policy();\np.url = [\"{escaped}\"];\np.onRequest = function() {{ Request.terminate(403); }};\np.register();\n"
        ));
    }
    script
}

/// The electronic-annotations extension (§5.4): interposes on a site, injects
/// annotation markup into HTML responses, and rewrites embedded URLs to keep
/// itself in the loop.
pub const ANNOTATIONS: &str = r#"
p = new Policy();
p.onResponse = function() {
    if (Response.contentType != 'text/html') { return; }
    var buff = null, body = new ByteArray();
    while (buff = Response.read()) { body.append(buff); }
    var html = body.toString();
    var note = HardState.get('note:' + Request.path);
    var widget = '<div class="nakika-annotations">' +
        (note == null ? 'No annotations yet.' : Xml.escape(note)) +
        '</div>';
    html = html.replace('</body>', widget + '</body>');
    Response.setHeader('Content-Length', html.length);
    Response.write(html);
};
p.register();

q = new Policy();
q.method = ["POST"];
q.onRequest = function() {
    var text = Request.query('text');
    if (text != null) {
        HardState.put('note:' + Request.path, text);
    }
    Request.respond('text/plain', 'annotation saved');
};
q.register();
"#;

/// Generates a predicate micro-benchmark stage with `n` policies, none of
/// which match the benchmark URL (the `Pred-n` configurations of Table 1).
pub fn pred_n_stage(n: usize) -> String {
    let mut script = String::new();
    for i in 0..n {
        script.push_str(&format!(
            "p = new Policy();\np.url = [\"unmatched-site-{i}.example.org\"];\np.onRequest = function() {{ }};\np.onResponse = function() {{ }};\np.register();\n"
        ));
    }
    script
}

/// Generates the `Match-1` micro-benchmark stage: one policy matching `site`
/// with empty handlers.
pub fn match_1_stage(site: &str) -> String {
    format!(
        "p = new Policy();\np.url = [\"{site}\"];\np.onRequest = function() {{ }};\np.onResponse = function() {{ }};\np.register();\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompiledStage;
    use crate::vocab::VocabHooks;

    fn compiles(source: &str) -> usize {
        CompiledStage::compile("http://test/script.js", source, &VocabHooks::default())
            .expect("script compiles")
            .policies
            .len()
    }

    #[test]
    fn all_embedded_scripts_compile() {
        assert_eq!(compiles(EMPTY_WALL), 1);
        assert_eq!(compiles(DIGITAL_LIBRARY_POLICY), 1);
        assert_eq!(compiles(IMAGE_TRANSCODER), 1);
        assert_eq!(compiles(BLACKLIST_LOADER), 1);
        assert_eq!(compiles(ANNOTATIONS), 2);
    }

    #[test]
    fn generated_stages_compile_with_the_requested_policy_counts() {
        assert_eq!(compiles(&pred_n_stage(0)), 0);
        assert_eq!(compiles(&pred_n_stage(10)), 10);
        assert_eq!(compiles(&pred_n_stage(100)), 100);
        assert_eq!(compiles(&match_1_stage("www.google.com")), 1);
        assert_eq!(
            compiles(&blacklist_stage(&[
                "bad.example.com",
                "worse.example.net/illegal"
            ])),
            2
        );
    }

    #[test]
    fn blacklist_stage_blocks_listed_urls_only() {
        let stage = CompiledStage::compile(
            "http://nakika.net/blocklist-generated.js",
            &blacklist_stage(&["bad.example.com"]),
            &VocabHooks::default(),
        )
        .unwrap();
        assert!(stage
            .find_closest_match(&nakika_http::Request::get("http://bad.example.com/warez"))
            .is_some());
        assert!(stage
            .find_closest_match(&nakika_http::Request::get("http://good.example.com/"))
            .is_none());
    }
}
