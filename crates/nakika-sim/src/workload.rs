//! Workload generators and simulated origin servers for the evaluation.
//!
//! Three workloads drive the experiments, mirroring §5 of the paper:
//!
//! * the **micro-benchmark** workload — a single 2,096-byte static page
//!   (Google's home page without inline images) behind the various node
//!   configurations of Table 1;
//! * the **SIMM** workload — a synthetic stand-in for NYU's Surgical
//!   Interactive Multimedia Modules: per-student personalised XML content
//!   rendered to HTML plus large shared multimedia objects;
//! * the **SPECweb99-like** workload — a static/dynamic mix with user
//!   registrations against replicated hard state.

use nakika_core::node::OriginFetch;
use nakika_core::scripts;
use nakika_http::{Method, Request, Response, StatusCode};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The size of the micro-benchmark's static page (paper §5.1).
pub(crate) const MICRO_PAGE_BYTES: usize = 2_096;

/// A configurable simulated origin server: a map from URL paths to responses
/// plus a default page, counting every access.
pub(crate) struct ScriptedOrigin {
    routes: Mutex<HashMap<String, Response>>,
    default_body: Vec<u8>,
    default_type: String,
    default_cache_control: String,
    hits: AtomicU64,
}

impl ScriptedOrigin {
    /// Creates an origin whose default response is a cacheable page of
    /// `MICRO_PAGE_BYTES` bytes.
    pub(crate) fn micro_benchmark() -> ScriptedOrigin {
        ScriptedOrigin {
            routes: Mutex::new(HashMap::new()),
            default_body: vec![b'g'; MICRO_PAGE_BYTES],
            default_type: "text/html".to_string(),
            default_cache_control: "max-age=300".to_string(),
            hits: AtomicU64::new(0),
        }
    }

    /// Creates an origin with an arbitrary default page.
    pub(crate) fn with_default(
        body: Vec<u8>,
        content_type: &str,
        cache_control: &str,
    ) -> ScriptedOrigin {
        ScriptedOrigin {
            routes: Mutex::new(HashMap::new()),
            default_body: body,
            default_type: content_type.to_string(),
            default_cache_control: cache_control.to_string(),
            hits: AtomicU64::new(0),
        }
    }

    /// Serves `body` with `content_type` at `path` (exact match on the URL
    /// path), cacheable for `max_age` seconds.
    pub(crate) fn route(&self, path: &str, content_type: &str, body: &str, max_age: u64) {
        let response = Response::ok(content_type, body)
            .with_header("Cache-Control", &format!("max-age={max_age}"));
        self.routes.lock().insert(path.to_string(), response);
    }

    /// Serves a Na Kika script at `path`.
    pub(crate) fn route_script(&self, path: &str, source: &str) {
        self.route(path, "application/javascript", source, 300);
    }

    /// Installs the empty-handler walls at the well-known wall paths (the
    /// `Admin` baseline of Table 1).
    pub(crate) fn with_empty_walls(self) -> ScriptedOrigin {
        self.route_script("/clientwall.js", scripts::EMPTY_WALL);
        self.route_script("/serverwall.js", scripts::EMPTY_WALL);
        self
    }

    /// Number of requests the origin has served.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

impl OriginFetch for ScriptedOrigin {
    fn fetch_origin(&self, request: &Request) -> Response {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(response) = self.routes.lock().get(&request.uri.path) {
            return response.clone();
        }
        if request.uri.path.ends_with(".js") {
            // Unrouted scripts (e.g. a site without nakika.js) do not exist.
            return Response::error(StatusCode::NOT_FOUND);
        }
        Response::ok(&self.default_type, self.default_body.clone())
            .with_header("Cache-Control", &self.default_cache_control)
    }
}

// --------------------------------------------------------------------------
// SIMM workload (paper §5.2)
// --------------------------------------------------------------------------

/// Parameters of the synthetic SIMM workload.
#[derive(Debug, Clone)]
pub(crate) struct SimmWorkload {
    /// Number of modules (the paper has five).
    pub(crate) modules: usize,
    /// Lecture pages per module.
    pub(crate) pages_per_module: usize,
    /// Size of a rendered HTML/XML lecture page in bytes.
    pub(crate) html_bytes: usize,
    /// Size of one multimedia (video) segment in bytes.
    pub(crate) video_bytes: usize,
    /// Fraction of accesses that go to multimedia content.
    pub(crate) video_fraction: f64,
    /// Deterministic seed for session generation.
    pub(crate) seed: u64,
}

impl Default for SimmWorkload {
    fn default() -> Self {
        SimmWorkload {
            modules: 5,
            pages_per_module: 40,
            html_bytes: 30 * 1024,
            video_bytes: 512 * 1024,
            video_fraction: 0.3,
            seed: 7,
        }
    }
}

/// One request of a SIMM session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SimmAccess {
    /// A personalised lecture page for `student`.
    Html {
        /// Module index.
        module: usize,
        /// Page index within the module.
        page: usize,
        /// Student identifier (URL-based session identifier in the port).
        student: usize,
    },
    /// A shared multimedia segment.
    Video {
        /// Module index.
        module: usize,
        /// Segment index.
        segment: usize,
    },
}

impl SimmAccess {
    /// The request this access issues against the SIMM site.
    pub(crate) fn to_request(&self, client_ip: IpAddr) -> Request {
        let url = match self {
            SimmAccess::Html {
                module,
                page,
                student,
            } => format!(
                "http://simms.med.nyu.edu/module{module}/lecture{page}.nkp?student={student}"
            ),
            SimmAccess::Video { module, segment } => {
                format!("http://simms.med.nyu.edu/module{module}/video{segment}.bin")
            }
        };
        Request::get(&url).with_client_ip(client_ip)
    }

    /// True for multimedia accesses.
    pub(crate) fn is_video(&self) -> bool {
        matches!(self, SimmAccess::Video { .. })
    }
}

impl SimmWorkload {
    /// Generates a log-replay-style access sequence for `students` students
    /// issuing `accesses_per_student` requests each (module popularity is
    /// Zipf-like: earlier modules are used more, as in a curriculum).
    pub(crate) fn generate(&self, students: usize, accesses_per_student: usize) -> Vec<SimmAccess> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut accesses = Vec::with_capacity(students * accesses_per_student);
        for student in 0..students {
            for _ in 0..accesses_per_student {
                // Zipf-ish module choice.
                let r: f64 = rng.gen();
                let module = ((self.modules as f64) * r * r) as usize % self.modules.max(1);
                if rng.gen::<f64>() < self.video_fraction {
                    accesses.push(SimmAccess::Video {
                        module,
                        segment: rng.gen_range(0..self.pages_per_module),
                    });
                } else {
                    accesses.push(SimmAccess::Html {
                        module,
                        page: rng.gen_range(0..self.pages_per_module),
                        student,
                    });
                }
            }
        }
        accesses
    }

    /// Builds the SIMM origin server: per-student lecture pages as Na Kika
    /// Pages (XML rendered on the edge), shared video segments as large
    /// cacheable binaries, and a `nakika.js` that renders lecture XML to HTML
    /// and opts into access logging.
    pub(crate) fn origin(&self) -> Arc<ScriptedOrigin> {
        let origin =
            ScriptedOrigin::with_default(vec![b'v'; self.video_bytes], "video/mp4", "max-age=3600")
                .with_empty_walls();
        // The site script: render lecture XML to HTML on the edge and log
        // accesses back to the medical school (paper §5.2 / §3.3).
        origin.route_script(
            "/nakika.js",
            r#"
            Log.post('http://simms.med.nyu.edu/log-sink');
            p = new Policy();
            p.url = ["simms.med.nyu.edu"];
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
        );
        // Lecture pages: the origin produces personalised XML (it keeps doing
        // the personalisation; the edge renders and distributes).
        let xml_filler = "x".repeat(self.html_bytes / 2);
        for module in 0..self.modules {
            for page in 0..self.pages_per_module {
                origin.route(
                    &format!("/module{module}/lecture{page}.nkp"),
                    "text/xml",
                    &format!(
                        "<lecture><module>{module}</module><page>{page}</page><body>{xml_filler}</body></lecture>"
                    ),
                    120,
                );
            }
        }
        Arc::new(origin)
    }
}

// --------------------------------------------------------------------------
// SPECweb99-like workload (paper §5.3)
// --------------------------------------------------------------------------

/// Parameters of the SPECweb99-like workload.
#[derive(Debug, Clone)]
pub(crate) struct SpecWorkload {
    /// Fraction of requests that are dynamic (the paper uses 80%).
    pub(crate) dynamic_fraction: f64,
    /// Fraction of dynamic requests that are POSTs updating user state.
    pub(crate) post_fraction: f64,
    /// Number of distinct static files.
    pub(crate) static_files: usize,
    /// Static file size in bytes.
    pub(crate) static_bytes: usize,
    /// Deterministic seed.
    pub(crate) seed: u64,
}

impl Default for SpecWorkload {
    fn default() -> Self {
        SpecWorkload {
            dynamic_fraction: 0.8,
            post_fraction: 0.25,
            static_files: 100,
            static_bytes: 14 * 1024,
            seed: 11,
        }
    }
}

/// One SPECweb99-like request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SpecAccess {
    /// A static file fetch.
    Static {
        /// File index.
        file: usize,
    },
    /// A dynamic GET (personalised ad rotation / profile lookup).
    DynamicGet {
        /// User identifier.
        user: usize,
    },
    /// A dynamic POST registering or updating a user profile.
    DynamicPost {
        /// User identifier.
        user: usize,
    },
}

impl SpecAccess {
    /// The request this access issues.
    pub(crate) fn to_request(&self, client_ip: IpAddr) -> Request {
        match self {
            SpecAccess::Static { file } => {
                Request::get(&format!("http://specweb.example.org/file{file}.html"))
                    .with_client_ip(client_ip)
            }
            SpecAccess::DynamicGet { user } => Request::get(&format!(
                "http://specweb.example.org/dynamic.nkp?user={user}"
            ))
            .with_client_ip(client_ip),
            SpecAccess::DynamicPost { user } => Request::new(
                Method::Post,
                format!("http://specweb.example.org/register.nkp?user={user}&name=user{user}")
                    .parse()
                    .expect("valid url"),
            )
            .with_client_ip(client_ip)
            .with_body(format!("user={user}")),
        }
    }

    /// True for the POST (hard-state update) accesses.
    #[cfg(test)]
    pub(crate) fn is_post(&self) -> bool {
        matches!(self, SpecAccess::DynamicPost { .. })
    }
}

impl SpecWorkload {
    /// Generates `count` accesses for `users` distinct users.
    pub(crate) fn generate(&self, users: usize, count: usize) -> Vec<SpecAccess> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..count)
            .map(|_| {
                if rng.gen::<f64>() < self.dynamic_fraction {
                    let user = rng.gen_range(0..users.max(1));
                    if rng.gen::<f64>() < self.post_fraction {
                        SpecAccess::DynamicPost { user }
                    } else {
                        SpecAccess::DynamicGet { user }
                    }
                } else {
                    SpecAccess::Static {
                        file: rng.gen_range(0..self.static_files.max(1)),
                    }
                }
            })
            .collect()
    }

    /// Builds the SPECweb99 origin: static files, and a site script that
    /// serves the dynamic pages on the edge using replicated hard state for
    /// user registrations (paper §5.3).
    pub(crate) fn origin(&self) -> Arc<ScriptedOrigin> {
        let origin =
            ScriptedOrigin::with_default(vec![b's'; self.static_bytes], "text/html", "max-age=600")
                .with_empty_walls();
        origin.route_script(
            "/nakika.js",
            r#"
            p = new Policy();
            p.url = ["specweb.example.org/register"];
            p.method = ["POST"];
            p.onRequest = function() {
                var user = Request.query('user');
                var name = Request.query('name');
                HardState.put('user:' + user, name);
                Request.respond('text/html', '<p>registered ' + name + '</p>');
            };
            p.register();
            q = new Policy();
            q.url = ["specweb.example.org/dynamic"];
            q.onRequest = function() {
                var user = Request.query('user');
                var profile = HardState.get('user:' + user);
                Request.respond('text/html',
                    '<html><body>ad for ' + (profile == null ? 'anonymous' : profile) + '</body></html>');
            };
            q.register();
            "#,
        );
        Arc::new(origin)
    }
}

/// A deterministic client IP for client index `i` (used by all workloads).
pub(crate) fn client_ip(i: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(
        10,
        ((i >> 16) & 0xff) as u8,
        ((i >> 8) & 0xff) as u8,
        (i & 0xff) as u8,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_origin_routes_and_defaults() {
        let origin = ScriptedOrigin::micro_benchmark().with_empty_walls();
        let page = origin.fetch_origin(&Request::get("http://www.google.com/"));
        assert_eq!(page.body.len(), MICRO_PAGE_BYTES);
        let wall = origin.fetch_origin(&Request::get("http://nakika.net/clientwall.js"));
        assert!(wall.body.to_text().contains("Policy"));
        let missing = origin.fetch_origin(&Request::get("http://site.example/nakika.js"));
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        assert_eq!(origin.hits(), 3);
    }

    #[test]
    fn simm_workload_is_deterministic_and_mixed() {
        let workload = SimmWorkload::default();
        let a = workload.generate(10, 20);
        let b = workload.generate(10, 20);
        assert_eq!(a, b, "same seed, same trace");
        assert_eq!(a.len(), 200);
        let videos = a.iter().filter(|x| x.is_video()).count();
        assert!(
            videos > 20 && videos < 120,
            "video mix looks wrong: {videos}"
        );
        // Requests are well-formed.
        let req = a[0].to_request(client_ip(1));
        assert_eq!(req.uri.host, "simms.med.nyu.edu");
    }

    #[test]
    fn simm_origin_serves_xml_pages_and_video() {
        let origin = SimmWorkload::default().origin();
        let page = origin.fetch_origin(&Request::get(
            "http://simms.med.nyu.edu/module0/lecture0.nkp?student=3",
        ));
        assert_eq!(page.headers.content_type(), Some("text/xml"));
        assert!(page.body.to_text().contains("<lecture>"));
        let video =
            origin.fetch_origin(&Request::get("http://simms.med.nyu.edu/module0/video1.bin"));
        assert_eq!(video.body.len(), SimmWorkload::default().video_bytes);
        let script = origin.fetch_origin(&Request::get("http://simms.med.nyu.edu/nakika.js"));
        assert!(script.body.to_text().contains("Xml.toHtml"));
    }

    #[test]
    fn spec_workload_mix_matches_parameters() {
        let workload = SpecWorkload::default();
        let accesses = workload.generate(50, 1000);
        let dynamic = accesses
            .iter()
            .filter(|a| !matches!(a, SpecAccess::Static { .. }))
            .count();
        assert!(
            (700..900).contains(&dynamic),
            "expected ~80% dynamic, got {dynamic}/1000"
        );
        let posts = accesses.iter().filter(|a| a.is_post()).count();
        assert!(posts > 100 && posts < 350);
        let origin = workload.origin();
        let script = origin.fetch_origin(&Request::get("http://specweb.example.org/nakika.js"));
        assert!(script.body.to_text().contains("HardState"));
    }

    #[test]
    fn client_ips_are_distinct() {
        assert_ne!(client_ip(1), client_ip(2));
        assert_ne!(client_ip(1), client_ip(257));
    }
}
