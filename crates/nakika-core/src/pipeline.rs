//! The scripting pipeline: stage compilation, the compiled-stage cache, and
//! the `EXECUTE-PIPELINE` algorithm of the paper's Figure 4.
//!
//! Each stage is a script named by a URL.  Loading a stage fetches the script
//! (through ordinary HTTP caching), parses it, executes it once to register
//! its policy objects, and compiles the registered predicates into a decision
//! tree.  Compiled stages live in a dedicated in-memory cache, and the fact
//! that a site publishes *no* `nakika.js` is negatively cached, both exactly
//! as in the paper's implementation (§4).
//!
//! Executing a pipeline interleaves schedule computation with `onRequest`
//! execution (so redirections affect later matching), lets any `onRequest`
//! short-circuit by generating a response, fetches the original resource when
//! nothing did, and then runs the `onResponse` handlers in reverse order.

use crate::policy::{DecisionTree, Matcher, Policy, PolicySet};
use crate::programs::{CachedScript, ProgramCache};
use crate::vocab::{ExchangeState, VocabHooks, Vocabularies};
use nakika_http::{Request, Response, StatusCode};
use nakika_script::{stdlib, Context, ResourceMeter, ScriptError, Value, Vm};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// Well-known URL of the client-side administrative control script.
pub(crate) const CLIENT_WALL_URL: &str = "http://nakika.net/clientwall.js";
/// Well-known URL of the server-side administrative control script.
pub(crate) const SERVER_WALL_URL: &str = "http://nakika.net/serverwall.js";

/// Idle instances a stage keeps for reuse; more are dropped when returned.
const MAX_IDLE_INSTANCES: usize = 32;

/// A stage script compiled and ready for matching: the part every pipeline
/// shares (URL, program, matcher) plus a free list of `StageInstance`s, one
/// of which a pipeline holds while it runs the stage's handlers.
pub struct CompiledStage {
    /// The script's URL.
    pub(crate) url: String,
    /// Decision tree over the stage's registered policies.
    pub(crate) matcher: Arc<DecisionTree>,
    /// The registered policies (kept for introspection and statistics).
    /// Their handler values belong to the first instance; a pipeline runs
    /// the handlers its own instance registered at the same positions.
    pub(crate) policies: PolicySet,
    /// The lowered script; an instance is made by running it.
    script: Arc<CachedScript>,
    /// Instances no pipeline holds, most recently returned last, each with
    /// the thread that returned it.
    idle: Mutex<Vec<(ThreadId, StageInstance)>>,
    /// Instances made so far, the first included.
    instantiations: AtomicU64,
}

/// One pipeline's private copy of a stage's script state: a context in which
/// the stage program has run once, the handlers that run registered, and the
/// vocabularies installed once over this instance's own binding cell.  The
/// script's globals live here, so whatever one exchange's `onRequest` leaves
/// in them its `onResponse` finds.
struct StageInstance {
    /// The scope the handler closures captured.
    ctx: Context,
    vocabularies: Vocabularies,
    /// The handlers of each policy, in registration order.
    handlers: Vec<Handlers>,
}

/// The event handlers one policy registered in one instance.
struct Handlers {
    on_request: Option<Value>,
    on_response: Option<Value>,
}

impl StageInstance {
    /// Runs `script` once in a fresh context with the vocabularies bound to
    /// a throwaway exchange; returns the instance and what it registered.
    fn create(
        url: &str,
        script: &CachedScript,
        hooks: VocabHooks,
    ) -> Result<(StageInstance, Vec<Policy>), ScriptError> {
        let ctx = Context::new();
        stdlib::install(&ctx);
        let binding = Arc::new(Mutex::new(ExchangeState::new(Request::get(url), 0, hooks)));
        let vocabularies = Vocabularies::install(&ctx, binding.clone());
        Vm::new(&ctx).run(&script.compiled)?;
        let registered = std::mem::take(&mut binding.lock().registered);
        let handlers = registered
            .iter()
            .map(|p| Handlers {
                on_request: p.on_request.clone(),
                on_response: p.on_response.clone(),
            })
            .collect();
        let instance = StageInstance {
            ctx,
            vocabularies,
            handlers,
        };
        Ok((instance, registered))
    }
}

impl CompiledStage {
    /// Compiles a stage from script source with a private program cache —
    /// the convenience entry used by tests and ad-hoc loaders.  Nodes use
    /// `CompiledStage::compile_with` so all stages share one hash-keyed
    /// program cache.
    pub fn compile(
        url: &str,
        source: &str,
        hooks: &VocabHooks,
    ) -> Result<CompiledStage, ScriptError> {
        CompiledStage::compile_with(url, source, hooks, &ProgramCache::new())
    }

    /// Compiles a stage from script source.  The script is parsed and
    /// lowered through `programs` (so an unchanged script costs one cache
    /// hit, not a recompile), then runs once — in a sandboxed context with a
    /// throwaway exchange — to register its policies.  That
    /// run is the stage's first instance.
    pub(crate) fn compile_with(
        url: &str,
        source: &str,
        hooks: &VocabHooks,
        programs: &ProgramCache,
    ) -> Result<CompiledStage, ScriptError> {
        let script = programs.get_or_compile(source)?;
        let (instance, registered) = StageInstance::create(url, &script, hooks.clone())?;
        let mut set = PolicySet::new();
        for policy in registered {
            set.push(policy);
        }
        Ok(CompiledStage {
            url: url.to_string(),
            matcher: Arc::new(set.compile()),
            policies: set,
            script,
            idle: Mutex::new(vec![(std::thread::current().id(), instance)]),
            instantiations: AtomicU64::new(1),
        })
    }

    /// FIND-CLOSEST-MATCH for this stage.
    pub fn find_closest_match(&self, request: &Request) -> Option<Arc<Policy>> {
        self.matcher.find_closest_match(request)
    }

    /// How many instances of this stage have been made, the one compilation
    /// made included: at most one per pipeline that ever ran it concurrently
    /// with the others, plus replacements for discarded ones.
    #[cfg(test)]
    pub(crate) fn instantiations(&self) -> u64 {
        self.instantiations.load(Ordering::Relaxed)
    }

    /// Takes the instance this thread returned last, else the one any thread
    /// returned last, else makes one by running the compiled program again
    /// (no parse, no compile) with `hooks`.
    ///
    /// The preference for the thread's own is measured, not decoration: an
    /// instance is a few hundred small heap objects, and two reactors that
    /// pop whichever is on top keep handing them to each other's core
    /// (two pinned threads on one stage: 25 us per empty-handler pipeline
    /// with plain LIFO, 14 us with this, 12 us with a stage each).
    fn check_out(&self, hooks: &VocabHooks) -> Result<StageInstance, ScriptError> {
        {
            let me = std::thread::current().id();
            let mut idle = self.idle.lock();
            let mine = idle.iter().rposition(|(returned_by, _)| *returned_by == me);
            if let Some((_, instance)) = mine.map(|at| idle.remove(at)).or_else(|| idle.pop()) {
                return Ok(instance);
            }
        }
        let (instance, registered) = StageInstance::create(&self.url, &self.script, hooks.clone())?;
        self.instantiations.fetch_add(1, Ordering::Relaxed);
        // Handlers are paired with the shared policies by position, so a
        // script whose registrations vary from run to run cannot be used.
        if registered.len() != self.policies.len() {
            return Err(ScriptError::Host(format!(
                "{} registered {} policies when compiled and {} when instantiated again",
                self.url,
                self.policies.len(),
                registered.len()
            )));
        }
        Ok(instance)
    }

    /// Returns an instance whose pipeline is done with it.  An instance whose
    /// holder panicked never gets here: it is dropped with the pipeline.
    fn check_in(&self, instance: StageInstance) {
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE_INSTANCES {
            idle.push((std::thread::current().id(), instance));
        }
    }

    /// Runs one event handler of `instance` against the exchange in `state`.
    ///
    /// `accounting` supplies the fuel/memory limits and the per-site meter the
    /// resource manager observes.
    fn run_handler(
        &self,
        instance: &StageInstance,
        handler: &Value,
        state: &mut ExchangeState,
        accounting: &Context,
    ) -> Result<Value, ScriptError> {
        instance
            .vocabularies
            .with_exchange(&instance.ctx, state, || {
                Vm::new(accounting).call_function(
                    &self.script.compiled,
                    handler,
                    &Value::Undefined,
                    &[],
                )
            })
    }
}

/// An entry of the compiled-stage cache.
enum StageEntry {
    /// A compiled stage, fresh until the given time.
    Compiled(Arc<CompiledStage>, u64),
    /// Negative entry: the URL does not serve a script (e.g. a site without
    /// `nakika.js`), fresh until the given time.
    Absent(u64),
}

/// The dedicated in-memory cache of compiled stages / decision trees.
#[derive(Default)]
pub(crate) struct StageCache {
    entries: RwLock<HashMap<String, StageEntry>>,
    /// Counting lookups that found a fresh entry, for the evaluation.
    hits: AtomicU64,
    /// Counting lookups that found nothing fresh.
    misses: AtomicU64,
}

/// Result of a stage-cache lookup.
pub(crate) enum StageLookup {
    /// A fresh compiled stage.
    Hit(Arc<CompiledStage>),
    /// A fresh negative entry.
    KnownAbsent,
    /// Nothing fresh is cached.
    Miss,
}

impl StageCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> StageCache {
        StageCache::default()
    }

    /// Looks up a compiled stage and counts the outcome.
    pub(crate) fn get(&self, url: &str, now: u64) -> StageLookup {
        let result = self.probe(url, now);
        let counter = match result {
            StageLookup::Miss => &self.misses,
            _ => &self.hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Non-counting lookup: like [`StageCache::get`] but leaves the
    /// hit/miss counters untouched.  `dispatch_hint` probes the cache with
    /// this so classifying a request never skews the statistics the
    /// evaluation reads.
    pub(crate) fn probe(&self, url: &str, now: u64) -> StageLookup {
        match self.entries.read().get(url) {
            Some(StageEntry::Compiled(stage, fresh_until)) if *fresh_until > now => {
                StageLookup::Hit(stage.clone())
            }
            Some(StageEntry::Absent(fresh_until)) if *fresh_until > now => StageLookup::KnownAbsent,
            _ => StageLookup::Miss,
        }
    }

    /// Inserts a compiled stage valid until `fresh_until`.
    pub(crate) fn put(&self, url: &str, stage: Arc<CompiledStage>, fresh_until: u64) {
        self.entries
            .write()
            .insert(url.to_string(), StageEntry::Compiled(stage, fresh_until));
    }

    /// Records that `url` serves no script, valid until `fresh_until`
    /// (avoiding repeated checks for `nakika.js`).
    pub(crate) fn put_absent(&self, url: &str, fresh_until: u64) {
        self.entries
            .write()
            .insert(url.to_string(), StageEntry::Absent(fresh_until));
    }

    /// `(hits, misses)` counters.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached entries (positive and negative).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.read().len()
    }
}

/// How a stage script is obtained by URL: a fresh compiled stage, a cached
/// one, or nothing (the stage is skipped, e.g. a site without `nakika.js`).
pub trait StageLoader: Send + Sync {
    /// Loads (or retrieves from cache) the compiled stage for `url`.
    fn load(&self, url: &str, now: u64) -> Option<Arc<CompiledStage>>;
}

/// Outcome of executing a pipeline.
pub struct PipelineOutcome {
    /// The response to return to the client.
    pub(crate) response: Response,
    /// True if an `onRequest` handler produced the response (no origin fetch).
    pub(crate) generated_by_script: bool,
    /// The request in its final (possibly rewritten) form.
    pub(crate) final_request: Request,
    /// Number of stages whose handlers actually executed.
    pub stages_executed: usize,
    /// Errors raised by handlers (the pipeline continues past script errors,
    /// but reports them).
    pub(crate) script_errors: Vec<ScriptError>,
}

/// The pipeline executor: the limits every handler execution runs under.
pub struct PipelineRunner {
    /// Fuel limit per handler execution.
    pub(crate) fuel_limit: u64,
    /// Memory cap per handler execution.
    pub(crate) memory_limit: usize,
}

impl Default for PipelineRunner {
    fn default() -> Self {
        PipelineRunner {
            fuel_limit: nakika_script::context::DEFAULT_FUEL,
            memory_limit: nakika_script::context::DEFAULT_MEMORY_LIMIT,
        }
    }
}

impl PipelineRunner {
    /// Executes the scripting pipeline for `request` (Figure 4).
    ///
    /// * `loader` resolves stage URLs to compiled stages;
    /// * `site_stage_url` is the site-specific script URL (`nakika.js`);
    /// * `fetch_resource` obtains the original resource when no handler
    ///   generates a response;
    /// * `hooks` are the vocabularies' bindings to node services;
    /// * `meter` is the per-site resource meter for this pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        request: Request,
        now: u64,
        loader: &dyn StageLoader,
        site_stage_url: &str,
        client_wall_url: &str,
        server_wall_url: &str,
        fetch_resource: &dyn Fn(&Request) -> Response,
        hooks: &VocabHooks,
        meter: ResourceMeter,
    ) -> PipelineOutcome {
        let mut state = ExchangeState::new(request, now, hooks.clone());
        // Carries the limits and the per-site meter to each handler run;
        // nothing reads its globals.
        let mut accounting = Context::with_limits(self.fuel_limit, self.memory_limit);
        accounting.meter = meter;

        // forward stack: POP order is client wall, site stage, server wall.
        let mut forward: Vec<Cow<str>> = vec![
            server_wall_url.into(),
            site_stage_url.into(),
            client_wall_url.into(),
        ];
        // Each scheduled stage with the position of its matched policy and
        // the instance this pipeline holds until the stage's onResponse ran.
        let mut backward: Vec<(Arc<CompiledStage>, usize, StageInstance)> = Vec::new();
        let mut stages_executed = 0usize;
        let mut script_errors = Vec::new();
        let mut scheduled = 0usize;

        // Schedule stages and execute onRequest handlers.
        while let Some(stage_url) = forward.pop() {
            // Bound runaway dynamic scheduling (a misbehaving script could
            // otherwise schedule stages forever).
            scheduled += 1;
            if scheduled > 64 {
                break;
            }
            let Some(stage) = loader.load(&stage_url, now) else {
                continue;
            };
            // The position is where the policy was registered, which is
            // where every instance keeps its handlers.
            let Some((position, policy)) = stage.matcher.closest(&state.request) else {
                continue;
            };
            let policy = policy.clone();
            stages_executed += 1;
            match stage.check_out(hooks) {
                Ok(instance) => {
                    if let Some(handler) = &instance.handlers[position].on_request {
                        let ran = stage.run_handler(&instance, handler, &mut state, &accounting);
                        script_errors.extend(ran.err());
                    }
                    backward.push((stage, position, instance));
                }
                // No instance, no handlers; the stage still schedules.
                Err(e) => script_errors.push(e),
            }
            // A generated response reverses direction immediately.
            if state.generated.is_some() {
                break;
            }
            // Dynamically scheduled stages run next, before already scheduled
            // ones (PREPEND).
            for next in policy.next_stages.iter().rev() {
                forward.push(next.clone().into());
            }
        }

        // Obtain the response: generated by a script, or fetched.
        let generated_by_script = state.generated.is_some();
        let response = match state.generated.take() {
            Some(generated) => generated,
            None => fetch_resource(&state.request),
        };
        state.set_response(response);

        // Execute onResponse handlers in reverse order.
        while let Some((stage, position, instance)) = backward.pop() {
            if let Some(handler) = &instance.handlers[position].on_response {
                let ran = stage.run_handler(&instance, handler, &mut state, &accounting);
                script_errors.extend(ran.err());
                state.commit_output();
            }
            stage.check_in(instance);
        }

        PipelineOutcome {
            response: state
                .response
                .unwrap_or_else(|| Response::error(StatusCode::INTERNAL_SERVER_ERROR)),
            generated_by_script,
            final_request: state.request,
            stages_executed,
            script_errors,
        }
    }
}

/// A [`StageLoader`] backed by a map of pre-compiled stages — used by tests
/// and by configurations that do not fetch scripts over HTTP.
#[derive(Default)]
pub struct StaticStageLoader {
    stages: HashMap<String, Arc<CompiledStage>>,
}

impl StaticStageLoader {
    /// Creates an empty loader.
    pub fn new() -> StaticStageLoader {
        StaticStageLoader::default()
    }

    /// Compiles `source` and registers it under `url`.
    pub fn add(&mut self, url: &str, source: &str) -> Result<(), ScriptError> {
        let stage = CompiledStage::compile(url, source, &VocabHooks::default())?;
        self.stages.insert(url.to_string(), Arc::new(stage));
        Ok(())
    }

    /// Registers an already compiled stage.
    #[cfg(test)]
    pub(crate) fn add_compiled(&mut self, stage: CompiledStage) {
        self.stages.insert(stage.url.clone(), Arc::new(stage));
    }
}

impl StageLoader for StaticStageLoader {
    fn load(&self, url: &str, _now: u64) -> Option<Arc<CompiledStage>> {
        self.stages.get(url).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_http::Method;

    const EMPTY_WALL: &str = r#"
        p = new Policy();
        p.onRequest = function() { };
        p.onResponse = function() { };
        p.register();
    "#;

    fn runner() -> PipelineRunner {
        PipelineRunner::default()
    }

    fn execute(
        loader: &StaticStageLoader,
        request: Request,
        site_stage: &str,
        fetch: &dyn Fn(&Request) -> Response,
    ) -> PipelineOutcome {
        runner().execute(
            request,
            100,
            loader,
            site_stage,
            CLIENT_WALL_URL,
            SERVER_WALL_URL,
            fetch,
            &VocabHooks::default(),
            ResourceMeter::new(),
        )
    }

    #[test]
    fn stage_compilation_registers_policies() {
        let stage = CompiledStage::compile(
            "http://a.com/nakika.js",
            r#"
            p = new Policy();
            p.url = ["a.com"];
            p.onResponse = function() { Response.setHeader('X-Seen', 'yes'); };
            p.register();
            q = new Policy();
            q.url = ["a.com/admin"];
            q.onRequest = function() { Request.terminate(403); };
            q.register();
            "#,
            &VocabHooks::default(),
        )
        .unwrap();
        assert_eq!(stage.policies.len(), 2);
        let m = stage
            .find_closest_match(&Request::get("http://a.com/admin/panel"))
            .unwrap();
        assert!(m.on_request.is_some());
        let m = stage
            .find_closest_match(&Request::get("http://a.com/page"))
            .unwrap();
        assert!(m.on_request.is_none());
    }

    #[test]
    fn stage_compilation_rejects_broken_scripts() {
        assert!(CompiledStage::compile("u", "var x = ;", &VocabHooks::default()).is_err());
        assert!(CompiledStage::compile("u", "undefinedCall();", &VocabHooks::default()).is_err());
    }

    #[test]
    fn stage_cache_hits_misses_and_negative_entries() {
        let cache = StageCache::new();
        assert!(matches!(
            cache.get("http://a.com/nakika.js", 10),
            StageLookup::Miss
        ));
        let stage =
            CompiledStage::compile("http://a.com/nakika.js", EMPTY_WALL, &VocabHooks::default())
                .unwrap();
        cache.put("http://a.com/nakika.js", Arc::new(stage), 100);
        assert!(matches!(
            cache.get("http://a.com/nakika.js", 50),
            StageLookup::Hit(_)
        ));
        assert!(matches!(
            cache.get("http://a.com/nakika.js", 150),
            StageLookup::Miss
        ));
        cache.put_absent("http://nosite.com/nakika.js", 100);
        assert!(matches!(
            cache.get("http://nosite.com/nakika.js", 50),
            StageLookup::KnownAbsent
        ));
        let (hits, misses) = cache.counters();
        assert_eq!(hits, 2);
        assert_eq!(misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pipeline_fetches_origin_when_no_script_matches() {
        let loader = StaticStageLoader::new();
        let outcome = execute(
            &loader,
            Request::get("http://plain.example/page"),
            "http://plain.example/nakika.js",
            &|_req| Response::ok("text/html", "origin content"),
        );
        assert!(!outcome.generated_by_script);
        assert!(!outcome.generated_by_script);
        assert_eq!(outcome.stages_executed, 0);
        assert_eq!(outcome.response.body.to_text(), "origin content");
    }

    #[test]
    fn on_request_can_short_circuit_with_an_error() {
        // Figure 5: block access to digital libraries from outside.
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                CLIENT_WALL_URL,
                r#"
                p = new Policy();
                p.url = [ "bmj.bmjjournals.com/cgi/reprint" ];
                p.onRequest = function() {
                    if (! System.isLocal(Request.clientIP)) {
                        Request.terminate(401);
                    }
                }
                p.register();
                "#,
            )
            .unwrap();
        let fetched = std::sync::atomic::AtomicBool::new(false);
        let outcome = execute(
            &loader,
            Request::get("http://bmj.bmjjournals.com/cgi/reprint/123"),
            "http://bmj.bmjjournals.com/nakika.js",
            &|_req| {
                fetched.store(true, std::sync::atomic::Ordering::SeqCst);
                Response::ok("text/html", "the article")
            },
        );
        assert!(outcome.generated_by_script);
        assert_eq!(outcome.response.status, StatusCode::UNAUTHORIZED);
        assert!(
            !fetched.load(std::sync::atomic::Ordering::SeqCst),
            "origin never contacted"
        );
    }

    #[test]
    fn on_response_handlers_run_in_reverse_order() {
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                CLIENT_WALL_URL,
                r#"
                p = new Policy();
                p.onResponse = function() {
                    Response.setHeader('X-Order', (Response.getHeader('X-Order') || '') + 'wall,');
                };
                p.register();
                "#,
            )
            .unwrap();
        loader
            .add(
                "http://site.example/nakika.js",
                r#"
                p = new Policy();
                p.onResponse = function() {
                    Response.setHeader('X-Order', (Response.getHeader('X-Order') || '') + 'site,');
                };
                p.register();
                "#,
            )
            .unwrap();
        let outcome = execute(
            &loader,
            Request::get("http://site.example/page"),
            "http://site.example/nakika.js",
            &|_req| Response::ok("text/html", "x"),
        );
        // The site stage ran onRequest after the wall, so its onResponse runs
        // first on the way back; the wall sees the response last.
        assert_eq!(outcome.response.headers.get("x-order"), Some("site,wall,"));
        assert_eq!(outcome.stages_executed, 2);
    }

    #[test]
    fn dynamically_scheduled_stages_run_before_remaining_ones() {
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                "http://site.example/nakika.js",
                r#"
                p = new Policy();
                p.nextStages = ["http://services.example/annotate.js"];
                p.onResponse = function() {
                    Response.write('site(' + new ByteArray(Response.body()).toString() + ')');
                };
                p.register();
                "#,
            )
            .unwrap();
        loader
            .add(
                "http://services.example/annotate.js",
                r#"
                p = new Policy();
                p.onResponse = function() {
                    Response.write('annotated(' + new ByteArray(Response.body()).toString() + ')');
                };
                p.register();
                "#,
            )
            .unwrap();
        let outcome = execute(
            &loader,
            Request::get("http://site.example/lecture"),
            "http://site.example/nakika.js",
            &|_req| Response::ok("text/html", "original"),
        );
        // onResponse order: annotation stage (scheduled later, runs later on
        // request side → earlier on response side)… then the site stage wraps.
        assert_eq!(outcome.response.body.to_text(), "site(annotated(original))");
        assert_eq!(outcome.stages_executed, 2);
    }

    #[test]
    fn request_rewriting_affects_later_stage_matching() {
        // A stage rewrites the URL; the site stage selected afterwards must
        // match the rewritten request (the algorithm interleaves scheduling
        // and onRequest execution for exactly this reason).
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                CLIENT_WALL_URL,
                r#"
                p = new Policy();
                p.url = ["alias.example"];
                p.onRequest = function() { Request.setUrl('http://real.example/data'); };
                p.register();
                "#,
            )
            .unwrap();
        loader
            .add(
                "http://real.example/nakika.js",
                r#"
                p = new Policy();
                p.url = ["real.example"];
                p.onResponse = function() { Response.setHeader('X-Real', 'yes'); };
                p.register();
                "#,
            )
            .unwrap();
        let captured = Mutex::new(String::new());
        let outcome = runner().execute(
            Request::get("http://alias.example/data"),
            100,
            &loader,
            // The node recomputes the site stage URL from the (possibly
            // rewritten) request; the test passes the rewritten site's URL to
            // model that.
            "http://real.example/nakika.js",
            CLIENT_WALL_URL,
            SERVER_WALL_URL,
            &|req: &Request| {
                *captured.lock() = req.uri.to_string();
                Response::ok("text/html", "data")
            },
            &VocabHooks::default(),
            ResourceMeter::new(),
        );
        assert_eq!(*captured.lock(), "http://real.example/data");
        assert_eq!(outcome.response.headers.get("x-real"), Some("yes"));
        assert_eq!(outcome.final_request.uri.host, "real.example");
    }

    #[test]
    fn handler_errors_do_not_abort_the_exchange() {
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                CLIENT_WALL_URL,
                r#"
                p = new Policy();
                p.onResponse = function() { callSomethingUndefined(); };
                p.register();
                "#,
            )
            .unwrap();
        let outcome = execute(
            &loader,
            Request::get("http://site.example/x"),
            "http://site.example/nakika.js",
            &|_req| Response::ok("text/html", "still served"),
        );
        assert_eq!(outcome.response.body.to_text(), "still served");
        assert_eq!(outcome.script_errors.len(), 1);
    }

    #[test]
    fn pipeline_reports_post_requests_to_handlers() {
        let mut loader = StaticStageLoader::new();
        loader
            .add(
                "http://forms.example/nakika.js",
                r#"
                p = new Policy();
                p.method = ["POST"];
                p.onRequest = function() { Request.respond('text/plain', 'accepted'); };
                p.register();
                "#,
            )
            .unwrap();
        let post = Request::new(Method::Post, "http://forms.example/submit".parse().unwrap())
            .with_body("payload");
        let outcome = execute(&loader, post, "http://forms.example/nakika.js", &|_req| {
            Response::error(StatusCode::NOT_FOUND)
        });
        assert!(outcome.generated_by_script);
        assert_eq!(outcome.response.body.to_text(), "accepted");
        // GET requests do not match the POST-only policy.
        let get = Request::get("http://forms.example/submit");
        let outcome = execute(&loader, get, "http://forms.example/nakika.js", &|_req| {
            Response::ok("text/plain", "form")
        });
        assert!(!outcome.generated_by_script);
    }

    // --- stage instances ----------------------------------------------------

    const SITE_STAGE: &str = "http://site.example/nakika.js";

    /// A loader holding `source` as the site stage.
    fn site_loader(
        source: &str,
        load_hooks: &VocabHooks,
        programs: &ProgramCache,
    ) -> Arc<StaticStageLoader> {
        let mut loader = StaticStageLoader::new();
        loader.add_compiled(
            CompiledStage::compile_with(SITE_STAGE, source, load_hooks, programs)
                .expect("the stage script compiles"),
        );
        Arc::new(loader)
    }

    fn site_stage(loader: &StaticStageLoader) -> Arc<CompiledStage> {
        loader
            .load(SITE_STAGE, 0)
            .expect("the site stage is loaded")
    }

    /// Runs `url` through the site stage at `now` with the per-request `hooks`.
    fn serve(
        loader: &StaticStageLoader,
        url: &str,
        now: u64,
        hooks: &VocabHooks,
    ) -> PipelineOutcome {
        runner().execute(
            Request::get(url),
            now,
            loader,
            SITE_STAGE,
            CLIENT_WALL_URL,
            SERVER_WALL_URL,
            &|_req| Response::ok("text/html", "page"),
            hooks,
            ResourceMeter::new(),
        )
    }

    fn fetch_hook(f: impl Fn(&Request) -> Response + Send + Sync + 'static) -> VocabHooks {
        VocabHooks {
            fetch: Some(Arc::new(f)),
            ..VocabHooks::default()
        }
    }

    #[test]
    fn two_pipelines_run_one_stage_at_the_same_time() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        // Both threads must be inside the handler's `Fetch.get` at once: the
        // hook returns "met" only if the other party arrives within the
        // deadline, which a lock around handler execution makes impossible.
        struct Rendezvous {
            arrived: Mutex<usize>,
            both_here: Condvar,
        }
        impl Rendezvous {
            fn meet(&self) -> bool {
                let mut arrived = self.arrived.lock().unwrap();
                *arrived += 1;
                self.both_here.notify_all();
                let (arrived, _) = self
                    .both_here
                    .wait_timeout_while(arrived, Duration::from_secs(5), |n| *n < 2)
                    .unwrap();
                *arrived >= 2
            }
        }

        let loader = site_loader(
            r#"
            p = new Policy();
            p.onResponse = function() {
                Response.setHeader('X-Met', Fetch.get('http://peer.example/').text);
            };
            p.register();
            "#,
            &VocabHooks::default(),
            &ProgramCache::new(),
        );
        let rendezvous = Arc::new(Rendezvous {
            arrived: Mutex::new(0),
            both_here: Condvar::new(),
        });
        let hooks = fetch_hook(move |_req| {
            let met = if rendezvous.meet() { "met" } else { "alone" };
            Response::ok("text/plain", met)
        });
        let outcomes: Vec<PipelineOutcome> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| s.spawn(|| serve(&loader, "http://site.example/page", 1, &hooks)))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for outcome in outcomes {
            assert!(outcome.script_errors.is_empty());
            assert_eq!(outcome.response.headers.get("x-met"), Some("met"));
        }
        assert_eq!(site_stage(&loader).instantiations(), 2, "one instance each");
    }

    #[test]
    fn handlers_see_the_request_they_serve_not_the_load_time_bindings() {
        // Two entries under the key the script reads: one that went
        // stale long before the request, one stored just before it.
        let cache = Arc::new(crate::cache::ProxyCache::new(
            1 << 20,
            std::time::Duration::from_secs(60),
        ));
        let short_lived =
            Response::ok("text/plain", "v").with_header("Cache-Control", "max-age=10");
        cache.put(
            "script:site.example:old",
            &nakika_http::Method::Get,
            &short_lived,
            0,
        );
        cache.put(
            "script:site.example:new",
            &nakika_http::Method::Get,
            &short_lived,
            995,
        );
        let load_hooks = fetch_hook(|_req| Response::ok("text/plain", "load-time"));
        let loader = site_loader(
            r#"
            p = new Policy();
            p.onRequest = function() { Request.setUrl('http://site.example/rewritten'); };
            p.onResponse = function() {
                Response.setHeader('X-Time', '' + System.time());
                Response.setHeader('X-Fetched', Fetch.get('http://other.example/').text);
                Response.setHeader('X-Old', '' + (Cache.get('old') == null));
                Response.setHeader('X-New', '' + (Cache.get('new') == null));
                Response.setHeader('X-Url', Request.url);
            };
            p.register();
            "#,
            &load_hooks,
            &ProgramCache::new(),
        );
        let hooks = VocabHooks {
            cache: Some(cache),
            ..fetch_hook(|_req| Response::ok("text/plain", "per-request"))
        };
        let outcome = serve(&loader, "http://site.example/page", 1000, &hooks);
        assert!(
            outcome.script_errors.is_empty(),
            "{:?}",
            outcome.script_errors
        );
        let headers = &outcome.response.headers;
        assert_eq!(headers.get("x-time"), Some("1000"));
        assert_eq!(headers.get("x-fetched"), Some("per-request"));
        assert_eq!(headers.get("x-old"), Some("true"), "stale at 1000");
        assert_eq!(headers.get("x-new"), Some("false"), "fresh at 1000");
        // onResponse sees the URL as onRequest rewrote it.
        assert_eq!(headers.get("x-url"), Some("http://site.example/rewritten"));
    }

    #[test]
    fn globals_and_data_properties_are_restored_before_every_handler_run() {
        // A page under /vandal overwrites two globals and two data
        // properties on its way out; every handler run after that, in
        // the same instance, must find them as a fresh install has them.
        let loader = site_loader(
            r#"
            p = new Policy();
            p.onRequest = function() { Request.setHeader('X-Seen-Url', Request.url); };
            p.onResponse = function() {
                Response.setHeader('X-Url', Request.getHeader('X-Seen-Url'));
                Response.setHeader('X-Status', '' + Response.status);
                if (Request.path == '/vandal') {
                    Request.url = 'clobbered';
                    Response.status = 'clobbered';
                    Request = null;
                    System = 5;
                }
            };
            p.register();
            "#,
            &VocabHooks::default(),
            &ProgramCache::new(),
        );
        let hooks = VocabHooks::default();
        for path in ["/vandal", "/next", "/vandal", "/after"] {
            let url = format!("http://site.example{path}");
            let outcome = serve(&loader, &url, 1, &hooks);
            assert!(
                outcome.script_errors.is_empty(),
                "{:?}",
                outcome.script_errors
            );
            assert_eq!(outcome.response.headers.get("x-url"), Some(url.as_str()));
            assert_eq!(outcome.response.headers.get("x-status"), Some("200"));
        }
        assert_eq!(
            site_stage(&loader).instantiations(),
            1,
            "one instance served all four"
        );
    }

    #[test]
    fn script_globals_live_in_the_instance_from_one_handler_run_to_the_next() {
        // The handlers closed over the scope the stage script ran in: what
        // onRequest leaves there onResponse finds, and so does the next
        // exchange served by the same instance.
        let loader = site_loader(
            r#"
            served = 0;
            last = 'nothing';
            p = new Policy();
            p.onRequest = function() {
                served = served + 1;
                previous = last;
                last = Request.path;
            };
            p.onResponse = function() {
                Response.setHeader('X-Served', served + ' after ' + previous);
            };
            p.register();
            "#,
            &VocabHooks::default(),
            &ProgramCache::new(),
        );
        let hooks = VocabHooks::default();
        for (path, expected) in [
            ("/a", "1 after nothing"),
            ("/b", "2 after /a"),
            ("/c", "3 after /b"),
        ] {
            let outcome = serve(&loader, &format!("http://site.example{path}"), 1, &hooks);
            assert!(
                outcome.script_errors.is_empty(),
                "{:?}",
                outcome.script_errors
            );
            assert_eq!(outcome.response.headers.get("x-served"), Some(expected));
        }
        assert_eq!(site_stage(&loader).instantiations(), 1);
    }

    #[test]
    fn what_one_stage_changes_the_next_stage_is_shown() {
        // The data properties come from values the exchange keeps ready
        // between handler starts, so a handler that changes what they are
        // made from must make the next start — another stage's, in another
        // instance — make them again: the URL rewritten on the way in, the
        // status, type and length changed on the way out.
        let hooks = VocabHooks::default();
        let programs = ProgramCache::new();
        let mut loader = StaticStageLoader::new();
        let mut add = |url: &str, source: &str| {
            loader.add_compiled(
                CompiledStage::compile_with(url, source, &hooks, &programs)
                    .expect("the stage script compiles"),
            );
        };
        add(
            CLIENT_WALL_URL,
            r#"
            p = new Policy();
            p.onRequest = function() {
                Request.setHeader('X-Before', Request.url + ' ' + Request.site);
                Request.setUrl('http://real.example:8080/data?v=2');
            };
            p.onResponse = function() {
                Response.setHeader('X-Wall-Saw', Response.status + ' ' +
                    Response.contentType + ' ' + Response.contentLength);
            };
            p.register();
            "#,
        );
        add(
            "http://real.example:8080/nakika.js",
            r#"
            p = new Policy();
            p.onRequest = function() {
                Request.setHeader('X-After', [Request.url, Request.path, Request.host,
                    Request.site, Request.method, Request.clientIP].join(' '));
            };
            p.onResponse = function() {
                Response.setHeader('X-Site-Saw', Response.status + ' ' +
                    Response.contentType + ' ' + Response.contentLength);
                Response.setStatus(203);
                Response.setHeader('Content-Type', 'text/plain');
                Response.write('rewritten body');
            };
            p.register();
            "#,
        );
        let outcome = runner().execute(
            Request::get("http://alias.example/data"),
            100,
            &loader,
            "http://real.example:8080/nakika.js",
            CLIENT_WALL_URL,
            SERVER_WALL_URL,
            &|_req: &Request| Response::ok("text/html", "data"),
            &hooks,
            ResourceMeter::new(),
        );
        assert!(
            outcome.script_errors.is_empty(),
            "{:?}",
            outcome.script_errors
        );
        let sent = &outcome.final_request.headers;
        assert_eq!(
            sent.get("x-before"),
            Some("http://alias.example/data alias.example")
        );
        assert_eq!(
            sent.get("x-after"),
            Some(
                "http://real.example:8080/data?v=2 /data real.example \
                 real.example:8080 GET 0.0.0.0"
            )
        );
        let replied = &outcome.response.headers;
        assert_eq!(replied.get("x-site-saw"), Some("200 text/html 4"));
        assert_eq!(replied.get("x-wall-saw"), Some("203 text/plain 14"));
    }

    #[test]
    fn what_a_script_stores_inside_a_vocabulary_stays_in_that_instance() {
        // Soft state: the first pipeline breaks `Response.setHeader` in
        // the instance it holds.  A pipeline that holds another instance
        // at the same time is untouched; one that later gets the broken
        // instance reports a script error and still serves the page.
        let loader = site_loader(
            r#"
            p = new Policy();
            p.onRequest = function() {
                if (Request.path == '/vandal') { Fetch.get('http://pause.example/'); }
            };
            p.onResponse = function() {
                Response.setHeader('X-Edge', 'yes');
                if (Request.path == '/vandal') { Response.setHeader = 1; }
            };
            p.register();
            "#,
            &VocabHooks::default(),
            &ProgramCache::new(),
        );
        // While the vandal's onRequest is inside Fetch.get it holds the
        // stage's only instance, so the bystander gets a second one.
        let bystander = {
            let loader = loader.clone();
            fetch_hook(move |_req| {
                let outcome = serve(
                    &loader,
                    "http://site.example/bystander",
                    1,
                    &VocabHooks::default(),
                );
                assert!(outcome.script_errors.is_empty());
                assert_eq!(outcome.response.headers.get("x-edge"), Some("yes"));
                Response::ok("text/plain", "")
            })
        };
        let vandal = serve(&loader, "http://site.example/vandal", 1, &bystander);
        assert!(vandal.script_errors.is_empty());
        assert_eq!(site_stage(&loader).instantiations(), 2);
        // LIFO: the vandal's instance was returned last and is next out.
        let victim = serve(
            &loader,
            "http://site.example/victim",
            1,
            &VocabHooks::default(),
        );
        assert_eq!(victim.script_errors.len(), 1);
        assert_eq!(victim.response.body.to_text(), "page");
    }

    #[test]
    fn an_instance_whose_holder_panicked_is_discarded() {
        let programs = ProgramCache::new();
        let loader = site_loader(
            r#"
            served = 0;
            p = new Policy();
            p.onResponse = function() {
                served = served + 1;
                Response.setHeader('X-Fetched', Fetch.get('http://other.example/').text);
                Response.setHeader('X-Url', Request.url);
            };
            p.register();
            "#,
            &VocabHooks::default(),
            &programs,
        );
        let panicking = fetch_hook(|_req| panic!("the fetch hook dies mid-handler"));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(&loader, "http://site.example/fatal", 1, &panicking)
        }));
        assert!(died.is_err(), "the panic reaches the caller");

        let healthy = fetch_hook(|_req| Response::ok("text/plain", "fetched"));
        for n in 0..100 {
            let url = format!("http://site.example/page/{n}");
            let outcome = serve(&loader, &url, 1, &healthy);
            assert!(
                outcome.script_errors.is_empty(),
                "{:?}",
                outcome.script_errors
            );
            assert_eq!(outcome.response.headers.get("x-fetched"), Some("fetched"));
            assert_eq!(outcome.response.headers.get("x-url"), Some(url.as_str()));
        }
        // The instance the panic interrupted never came back: exactly
        // one replacement was made, by re-running the compiled program.
        assert_eq!(site_stage(&loader).instantiations(), 2);
        assert_eq!(programs.counters().0, 1, "no second compile");
    }

    #[test]
    fn a_script_error_returns_the_instance() {
        let loader = site_loader(
            r#"
            p = new Policy();
            p.onResponse = function() { callSomethingUndefined(); };
            p.register();
            "#,
            &VocabHooks::default(),
            &ProgramCache::new(),
        );
        for _ in 0..3 {
            let outcome = serve(&loader, "http://site.example/x", 1, &VocabHooks::default());
            assert_eq!(outcome.script_errors.len(), 1);
        }
        assert_eq!(site_stage(&loader).instantiations(), 1);
    }

    #[test]
    fn a_stage_that_registers_differently_when_run_again_cannot_be_instantiated() {
        // The script registers one policy while the store is empty and two
        // once it is not, so the second instance does not line up with the
        // shared policies; the pipeline reports it and serves the page.
        let store = Arc::new(nakika_state::SiteStore::new(1 << 20));
        let hooks = VocabHooks {
            store: Some(store.clone()),
            ..fetch_hook(|_req| Response::ok("text/plain", ""))
        };
        let loader = site_loader(
            r#"
            p = new Policy();
            p.onRequest = function() { Fetch.get('http://pause.example/'); };
            p.register();
            if (HardState.get('loaded') != null) { q = new Policy(); q.register(); }
            "#,
            &hooks,
            &ProgramCache::new(),
        );
        store.put("site.example", "loaded", "yes").unwrap();
        // The outer pipeline holds the only instance while its hook serves
        // a second request, which therefore has to instantiate.
        let nested = {
            let (loader, hooks) = (loader.clone(), hooks.clone());
            VocabHooks {
                store: Some(store.clone()),
                ..fetch_hook(move |_req| {
                    let inner = serve(&loader, "http://site.example/inner", 1, &hooks);
                    assert_eq!(inner.script_errors.len(), 1);
                    assert_eq!(inner.response.body.to_text(), "page");
                    Response::ok("text/plain", "")
                })
            }
        };
        let outer = serve(&loader, "http://site.example/outer", 1, &nested);
        assert!(outer.script_errors.is_empty());
    }
}
