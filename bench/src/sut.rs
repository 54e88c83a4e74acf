//! Everything the harness knows about the system under test.
//!
//! Every `nakika_*` import of the benchmark lives in this file: how a node
//! is built and put on a socket, which getters the counters come from, and
//! which public functions the per-layer probes and the in-process replay
//! call.  A refactor of the program's API is a fix to this one file; the
//! client, origin, histogram, load loops and reporting do not change, so
//! the measuring stick does not move with the thing it measures.

use crate::trace::Recorder;
use crate::workload::{self, Workload, MIB, PAGE_BYTES};
use nakika_core::pipeline::{CompiledStage, StaticStageLoader};
use nakika_core::service::{CtxFactory, DispatchHint, HttpService, RequestCtx};
use nakika_core::vocab::{self, VocabHooks};
use nakika_core::{
    scripts, NodeBuilder, NodeHandle, PipelineRunner, ProgramCache, ProxyCache, ScriptEngine,
};
use nakika_http::{
    parse_request, parse_response_head, Method, ParseOutcome, Request, Response, ResponseWriter,
};
use nakika_script::{compile, parse_program, stdlib, Context, ResourceMeter, Value, Vm};
use nakika_server::{ProxyServer, ReactorConfig, TcpOrigin, WallClock};
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// The cache budget that makes `miss_origin` evict on every insert once the
/// warm-up has filled it.
const SMALL_CACHE_BYTES: usize = 32 * MIB;

/// Iterations of the arithmetic loop in the scripted workload's handler.
const SCRIPT_LOOP_ITERS: u32 = 100;

/// The value the handler leaves in `X-Script-Work`: the loop below, run here.
pub fn expected_script_work() -> String {
    let mut acc = 0u32;
    for i in 0..SCRIPT_LOOP_ITERS {
        acc = (acc + i * 3) % 9973;
    }
    acc.to_string()
}

/// The site script of paper shape Pred-10 + Match-1: ten policies whose URL
/// predicates do not match, then one that matches the harness origin's host
/// and does a fixed amount of work on every response.
fn site_script() -> String {
    format!(
        "{}p = new Policy();\np.url = [\"127.0.0.1\"];\np.onResponse = function() {{\n\
         var acc = 0;\nfor (var i = 0; i < {SCRIPT_LOOP_ITERS}; i = i + 1) {{ acc = (acc + i * 3) % 9973; }}\n\
         Response.setHeader('X-Script-Work', '' + acc);\n}};\np.register();\n",
        scripts::pred_n_stage(10)
    )
}

const SITE_SCRIPT_PATH: &str = "/nakika.js";
const CLIENT_WALL_PATH: &str = "/clientwall.js";
const SERVER_WALL_PATH: &str = "/serverwall.js";

/// The script served at `path`, if it is one of the three.
fn script_source(path: &str) -> Option<String> {
    match path {
        SITE_SCRIPT_PATH => Some(site_script()),
        CLIENT_WALL_PATH | SERVER_WALL_PATH => Some(scripts::EMPTY_WALL.to_string()),
        _ => None,
    }
}

/// The scripts the harness origin must serve for `scripted_hit`, as
/// `(path, source)`.
pub fn script_documents() -> Vec<(&'static str, String)> {
    [SITE_SCRIPT_PATH, CLIENT_WALL_PATH, SERVER_WALL_PATH]
        .into_iter()
        .filter_map(|path| Some((path, script_source(path)?)))
        .collect()
}

/// Counters read from the program's public getters.  Cumulative; phases
/// subtract a snapshot from a later one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub origin_fetches: u64,
    pub script_compiles: u64,
    pub script_errors: u64,
    pub worker_submissions: u64,
    pub spliced_relays: u64,
    pub relay_aborts: u64,
    pub timeouts: u64,
    /// A high-water mark, not a count: `since` keeps the later value.
    pub peak_buffered_output_bytes: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            requests: self.requests - earlier.requests,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            origin_fetches: self.origin_fetches - earlier.origin_fetches,
            script_compiles: self.script_compiles - earlier.script_compiles,
            script_errors: self.script_errors - earlier.script_errors,
            worker_submissions: self.worker_submissions - earlier.worker_submissions,
            spliced_relays: self.spliced_relays - earlier.spliced_relays,
            relay_aborts: self.relay_aborts - earlier.relay_aborts,
            timeouts: self.timeouts - earlier.timeouts,
            peak_buffered_output_bytes: self.peak_buffered_output_bytes,
        }
    }

    /// The counts that moved, by name (for the trace).
    pub fn moved(&self) -> Vec<(&'static str, u64)> {
        [
            ("requests", self.requests),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("origin_fetches", self.origin_fetches),
            ("script_compiles", self.script_compiles),
            ("script_errors", self.script_errors),
        ]
        .into_iter()
        .filter(|(_, by)| *by > 0)
        .collect()
    }
}

fn node_counters(handle: &NodeHandle) -> Counters {
    let node = handle.node().stats();
    let cache = handle.node().cache_stats();
    Counters {
        requests: node.requests,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        origin_fetches: node.origin_fetches,
        script_compiles: cache.script_compiles,
        script_errors: node.script_errors,
        ..Counters::default()
    }
}

/// The node a workload runs against, before an origin is attached.
fn node_for(workload: Workload, origin_base: &str) -> NodeBuilder {
    match workload {
        Workload::HitSmall | Workload::StreamLarge => NodeBuilder::plain_proxy("bench-edge"),
        Workload::MissOrigin => {
            NodeBuilder::plain_proxy("bench-edge").cache_capacity_bytes(SMALL_CACHE_BYTES)
        }
        // Congestion control is off: one site receiving all of a node's
        // traffic is exactly what it throttles, and within seconds every
        // other reply would be a 503.  The workload measures the scripting
        // path, not admission.
        Workload::ScriptedHit => NodeBuilder::scripted("bench-edge")
            .without_resource_controls()
            .wall_urls(
                &format!("{origin_base}{CLIENT_WALL_PATH}"),
                &format!("{origin_base}{SERVER_WALL_PATH}"),
            ),
    }
}

/// One edge node on a loopback socket, started the way the `edge-node`
/// binary starts it: the reactor transport with its default configuration,
/// fetching through a `TcpOrigin`.
pub struct Edge {
    handle: NodeHandle,
    server: ProxyServer,
}

impl Edge {
    pub fn start(workload: Workload, origin_base: &str) -> std::io::Result<Edge> {
        let handle = node_for(workload, origin_base)
            .origin(Arc::new(TcpOrigin::new()))
            .build();
        let server = ProxyServer::start_reactor(0, handle.service(), ReactorConfig::default())?;
        Ok(Edge { handle, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn counters(&self) -> Counters {
        let stats = self.server.stats();
        Counters {
            worker_submissions: stats.worker_submissions(),
            spliced_relays: stats.spliced_relays(),
            relay_aborts: stats.relay_aborts(),
            timeouts: stats.timeouts(),
            peak_buffered_output_bytes: self.server.peak_buffered_output() as u64,
            ..node_counters(&self.handle)
        }
    }
}

/// The origin's reply as the program's own types, for the in-process paths
/// that never touch a socket.
fn canned_response(path: &str) -> Response {
    let (content_type, body) = match script_source(path) {
        Some(source) => ("application/javascript", source.into_bytes()),
        None => (
            "text/html",
            workload::body_for(path, workload::body_len_of(path).unwrap_or(0)),
        ),
    };
    Response::ok(content_type, body).with_header("Cache-Control", "max-age=600")
}

/// The authority the in-process paths pretend the origin listens on.
pub const REPLAY_AUTHORITY: &str = "127.0.0.1:8080";

fn replay_url(path: &str) -> String {
    format!("http://{REPLAY_AUTHORITY}{path}")
}

const LOOPBACK: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);

/// The workload's request sequence served in-process, with the harness
/// standing in for the transport: `parse_request`, `dispatch_hint`, then
/// `call` (or `relay_plan` and the plan's callbacks on a miss), then a
/// `ResponseWriter` drained to nothing.
pub struct Replay {
    handle: NodeHandle,
    ctx_factory: CtxFactory,
}

impl Replay {
    /// Builds the workload's node over an in-memory origin and makes its
    /// resident keys resident.
    pub fn new(workload: Workload) -> Replay {
        let builder = node_for(workload, &format!("http://{REPLAY_AUTHORITY}"));
        let handle = match workload {
            // Only a raw-TCP origin is relay-eligible; the replay never
            // lets it connect, it answers the plan itself.
            Workload::MissOrigin => builder.origin(Arc::new(TcpOrigin::new())),
            _ => builder.origin_fn(|req: &Request| canned_response(&req.uri.path)),
        }
        .build();
        let replay = Replay {
            handle,
            ctx_factory: CtxFactory::new(Arc::new(WallClock)),
        };
        for k in 0..workload.key_count().unwrap_or(0) {
            let request = Request::get(&replay_url(&workload.key_path(k)));
            let warmed = replay
                .handle
                .call(request, &replay.ctx_factory.make(LOOPBACK));
            assert!(
                warmed.is_ok_and(|r| r.status.is_success()),
                "replay warm-up failed"
            );
        }
        replay
    }

    /// Serves one request given as wire bytes; returns the reply's size on
    /// the wire, or what was wrong with it.
    pub fn one(&self, wire: &[u8], rec: &mut Recorder) -> Result<usize, String> {
        let before = rec.enabled().then(|| node_counters(&self.handle));
        rec.begin_request();
        let result = rec.span("request", |rec| {
            let mut request =
                rec.span("nakika-http.parse_request", |_| match parse_request(wire) {
                    Ok(ParseOutcome::Complete { message, .. }) => Ok(message),
                    other => Err(format!("request did not parse: {other:?}")),
                })?;
            request.client_ip = LOOPBACK;
            let ctx = self.ctx_factory.make(LOOPBACK);
            let hint = rec.span("nakika-core.dispatch_hint", |_| {
                self.handle.dispatch_hint(&request, &ctx)
            });
            let plan = match hint {
                DispatchHint::Inline => None,
                DispatchHint::MayBlock => rec.span("nakika-core.relay_plan", |_| {
                    self.handle.relay_plan(&request, &ctx)
                }),
            };
            let response = match plan {
                Some(plan) => {
                    let upstream = canned_response(&request.uri.path);
                    rec.span("nakika-core.relay_finish", |_| {
                        (plan.on_start)();
                        (plan.finish)(upstream, plan.attempts.len() - 1)
                    })
                }
                None => rec
                    .span("nakika-core.service_call", |_| {
                        self.handle.call(request, &ctx)
                    })
                    .map_err(|e| format!("call failed: {e}"))?,
            };
            if !response.status.is_success() {
                return Err(format!("status {}", response.status.as_u16()));
            }
            rec.span("nakika-http.serialize", |_| drain(response))
        });
        if let Some(before) = before {
            rec.note_counters(node_counters(&self.handle).since(&before).moved());
        }
        result
    }
}

/// Serializes `response` part by part, as a transport would, and returns
/// the byte count.
fn drain(response: Response) -> Result<usize, String> {
    let mut writer = ResponseWriter::new(response);
    let mut bytes = 0;
    while let Some(part) = writer
        .next_part()
        .map_err(|e| format!("body failed: {e}"))?
    {
        bytes += black_box(&part).len();
    }
    Ok(bytes)
}

/// How a probe's time per call becomes its metric.
#[derive(Clone, Copy)]
pub enum ProbeUnit {
    Ns,
    Us,
    /// MiB per second, for an operation that moves this many bytes.
    MibPerS(usize),
}

/// One public function of one layer, on the input the named workload gives
/// it.  The harness times `op`; nothing here reads a clock.
pub struct Probe {
    pub name: &'static str,
    pub unit: ProbeUnit,
    pub op: Box<dyn FnMut()>,
}

fn probe(name: &'static str, unit: ProbeUnit, op: impl FnMut() + 'static) -> Probe {
    Probe {
        name,
        unit,
        op: Box::new(op),
    }
}

/// The scripted site stage compiled the way a node compiles it, plus the
/// `onResponse` handler of the policy that matches `request`.
struct LoadedSiteScript {
    ctx: Context,
    program: Arc<nakika_script::CompiledProgram>,
    handler: Value,
    hooks: VocabHooks,
}

fn load_site_script(request: &Request) -> LoadedSiteScript {
    let hooks = VocabHooks::default();
    let ctx = Context::new();
    stdlib::install(&ctx);
    let load_exchange = vocab::new_exchange(Request::get(&replay_url(SITE_SCRIPT_PATH)), 0);
    vocab::install(&ctx, &load_exchange, &hooks);
    let script = ProgramCache::new()
        .get_or_compile(&site_script())
        .expect("the site script parses");
    ScriptEngine::Vm
        .run(&ctx, &script)
        .expect("the site script registers its policies");
    let policies = std::mem::take(&mut load_exchange.lock().registered);
    let handler = policies
        .iter()
        .find(|p| p.matches(request).is_some())
        .and_then(|p| p.on_response.clone())
        .expect("one policy matches the benchmark URL");
    LoadedSiteScript {
        ctx,
        program: script.compiled.clone(),
        handler,
        hooks,
    }
}

impl LoadedSiteScript {
    /// Runs the handler once against a fresh exchange, as the pipeline
    /// does for a response; returns the fuel the VM charged and the value
    /// the handler left in `X-Script-Work`.
    fn run(&self, request: &Request, page: &Response) -> (u64, Option<String>) {
        let exchange = vocab::new_exchange(request.clone(), 1);
        exchange.lock().response = Some(page.clone());
        vocab::install(&self.ctx, &exchange, &self.hooks);
        let accounting = Context::new();
        let mut vm = Vm::new(&accounting);
        vm.call_function(&self.program, &self.handler, &Value::Undefined, &[])
            .expect("the handler runs");
        let work = exchange
            .lock()
            .response
            .as_ref()
            .and_then(|r| r.headers.get("X-Script-Work").map(str::to_string));
        (vm.fuel_used(), work)
    }
}

/// Exact fuel the VM charges for one run of the scripted workload's handler.
pub fn vm_fuel_per_call() -> u64 {
    let request = Request::get(&replay_url(&Workload::ScriptedHit.key_path(0)));
    let page = canned_response(&request.uri.path);
    let (fuel, work) = load_site_script(&request).run(&request, &page);
    assert_eq!(
        work,
        Some(expected_script_work()),
        "the handler did its work"
    );
    fuel
}

/// The probes that need no socket.
pub fn layer_probes() -> Vec<Probe> {
    let ctx = RequestCtx::at(1).with_client_ip(LOOPBACK);
    let small_path = Workload::HitSmall.key_path(0);
    let small_request = Request::get(&replay_url(&small_path));
    let small_wire = crate::client::get_request(REPLAY_AUTHORITY, &small_path);
    let small_page = canned_response(&small_path);
    let large_page = canned_response(&Workload::StreamLarge.key_path(0));
    let scripted_path = Workload::ScriptedHit.key_path(0);
    let scripted_request = Request::get(&replay_url(&scripted_path));
    let mut probes = Vec::new();

    probes.push(probe(
        "nakika-http.parse_request_ns",
        ProbeUnit::Ns,
        move || {
            black_box(parse_request(black_box(&small_wire)).is_ok());
        },
    ));
    {
        let page = small_page.clone();
        probes.push(probe(
            "nakika-http.serialize_small_ns",
            ProbeUnit::Ns,
            move || {
                black_box(drain(page.clone()).is_ok());
            },
        ));
    }
    probes.push(probe(
        "nakika-http.serialize_mib_per_s",
        ProbeUnit::MibPerS(MIB),
        move || {
            black_box(drain(large_page.clone()).is_ok());
        },
    ));
    {
        let mut head =
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nCache-Control: max-age=600\r\n\
                         Content-Length: 2096\r\nConnection: close\r\n\r\n"
                .to_vec();
        head.extend_from_slice(&workload::body_for(&small_path, PAGE_BYTES));
        probes.push(probe(
            "nakika-http.parse_response_head_ns",
            ProbeUnit::Ns,
            move || {
                black_box(parse_response_head(black_box(&head)).is_ok());
            },
        ));
    }

    // A warm plain node: the hit path of `hit_small`.
    {
        let warm = Arc::new(Replay::new(Workload::HitSmall).handle);
        let (node, request) = (warm.clone(), small_request.clone());
        probes.push(probe(
            "nakika-core.dispatch_hint_ns",
            ProbeUnit::Ns,
            move || {
                black_box(node.dispatch_hint(&request, &ctx));
            },
        ));
        let (node, request) = (warm, small_request.clone());
        probes.push(probe(
            "nakika-core.service_call_hit_ns",
            ProbeUnit::Ns,
            move || {
                black_box(node.call(request.clone(), &ctx).is_ok());
            },
        ));
    }
    {
        let cache = ProxyCache::new(256 * MIB, Duration::from_secs(60));
        for k in 0..1000 {
            let path = Workload::HitSmall.key_path(k);
            cache.put(&replay_url(&path), &Method::Get, &canned_response(&path), 1);
        }
        let key = replay_url(&small_path);
        probes.push(probe(
            "nakika-core.cache_get_ns",
            ProbeUnit::Ns,
            move || {
                black_box(cache.get(&key, 2).is_some());
            },
        ));
    }
    {
        // Filled past its budget before the first timed call, so every put
        // evicts, as every insert does on `miss_origin` after its warm-up.
        let cache = ProxyCache::new(4 * MIB, Duration::from_secs(60));
        let page = small_page.clone();
        let mut n = 0u64;
        let mut put = move || {
            n += 1;
            black_box(cache.put(&format!("GET http://h/{n}"), &Method::Get, &page, 1));
        };
        for _ in 0..4096 {
            put();
        }
        probes.push(probe("nakika-core.cache_put_evict_ns", ProbeUnit::Ns, put));
    }

    // The miss path of `miss_origin`: the plan the reactor splices from, and
    // the blocking `call` over an in-memory origin.
    {
        let cold = Replay::new(Workload::MissOrigin).handle;
        let request = Request::get(&replay_url(&workload::unique_path(0, 0)));
        probes.push(probe(
            "nakika-core.relay_plan_ns",
            ProbeUnit::Ns,
            move || {
                black_box(cold.relay_plan(&request, &ctx).is_some());
            },
        ));
        let fetching = node_for(Workload::MissOrigin, "")
            .origin_fn(|req: &Request| canned_response(&req.uri.path))
            .build();
        let mut n = 0u64;
        let mut miss = move || {
            n += 1;
            let request = Request::get(&replay_url(&workload::unique_path(0, n)));
            black_box(fetching.call(request, &ctx).is_ok());
        };
        // Fill the cache first, as the workload's warm-up does, so that
        // every timed call evicts however long the probe is run for.
        for _ in 0..Workload::MissOrigin.warmup_requests() {
            miss();
        }
        probes.push(probe(
            "nakika-core.service_call_miss_us",
            ProbeUnit::Us,
            miss,
        ));
    }

    // The scripted path of `scripted_hit`, outside in.
    {
        let stage = CompiledStage::compile(
            &replay_url(SITE_SCRIPT_PATH),
            &site_script(),
            &VocabHooks::default(),
        )
        .expect("the site script compiles");
        let request = scripted_request.clone();
        probes.push(probe(
            "nakika-core.policy_match_ns",
            ProbeUnit::Ns,
            move || {
                black_box(stage.find_closest_match(&request).is_some());
            },
        ));
    }
    {
        let mut loader = StaticStageLoader::new();
        for (path, source) in script_documents() {
            loader
                .add(&replay_url(path), &source)
                .expect("the stage scripts compile");
        }
        let runner = PipelineRunner::default();
        let hooks = VocabHooks::default();
        let page = canned_response(&scripted_path);
        let request = scripted_request.clone();
        probes.push(probe(
            "nakika-core.pipeline_execute_us",
            ProbeUnit::Us,
            move || {
                let outcome = runner.execute(
                    request.clone(),
                    1,
                    &loader,
                    &replay_url(SITE_SCRIPT_PATH),
                    &replay_url(CLIENT_WALL_PATH),
                    &replay_url(SERVER_WALL_PATH),
                    &|_req: &Request| page.clone(),
                    &hooks,
                    ResourceMeter::new(),
                );
                black_box(outcome.stages_executed);
            },
        ));
    }
    {
        let scripted = Replay::new(Workload::ScriptedHit).handle;
        let request = scripted_request.clone();
        probes.push(probe(
            "nakika-core.service_call_scripted_us",
            ProbeUnit::Us,
            move || {
                black_box(scripted.call(request.clone(), &ctx).is_ok());
            },
        ));
    }
    {
        let loaded = load_site_script(&scripted_request);
        let page = canned_response(&scripted_path);
        let request = scripted_request;
        probes.push(probe(
            "nakika-script.vm_handler_us",
            ProbeUnit::Us,
            move || {
                black_box(loaded.run(&request, &page));
            },
        ));
    }
    let source = site_script();
    probes.push(probe(
        "nakika-script.compile_us",
        ProbeUnit::Us,
        move || {
            let ast = parse_program(black_box(&source)).expect("the site script parses");
            black_box(compile(&ast));
        },
    ));
    probes
}

/// `TcpOrigin::fetch` of one page from the harness origin over its pooled
/// keep-alive connection: the floor for an upstream leg that reuses
/// connections.
pub fn tcp_origin_fetch_probe(origin_base: &str) -> Probe {
    let origin = TcpOrigin::new();
    let request = Request::get(&format!("{origin_base}{}", Workload::HitSmall.key_path(0)));
    probe(
        "nakika-server.tcp_origin_fetch_us",
        ProbeUnit::Us,
        move || {
            let mut response = origin.fetch(&request).expect("the harness origin answers");
            response.body.buffer().expect("the body arrives");
            assert_eq!(response.body.len(), PAGE_BYTES);
        },
    )
}
