//! The Na Kika edge-side computing network (Grimm et al., NSDI 2006).
//!
//! This crate is the paper's primary contribution rebuilt in Rust:
//!
//! * **Policy objects and predicate selection** ([`policy`]) — services and
//!   security policies are pairs of `onRequest` / `onResponse` event handlers
//!   attached to predicates over HTTP messages; for each pipeline stage the
//!   closest-matching pair is selected, with precedence URL > client address
//!   > method > headers, via a decision-tree matcher.
//! * **The scripting pipeline** ([`pipeline`]) — the `EXECUTE-PIPELINE`
//!   algorithm of Figure 4: client-side administrative control, site-specific
//!   processing, server-side administrative control, plus dynamically
//!   scheduled stages, with any `onRequest` handler able to short-circuit the
//!   pipeline by producing a response.
//! * **Vocabularies** ([`vocab`]) — the native-code libraries exposed to
//!   scripts as global objects: `Request`, `Response`, `System`, `Cache`,
//!   `Fetch`, `ImageTransformer`, `Xml`, `HardState`, `Log`, `Policy`.
//! * **Congestion-based resource control** ([`resource`]) — the `CONTROL`
//!   algorithm of Figure 6: track per-site consumption, throttle
//!   proportionally under congestion, terminate the largest contributor if
//!   congestion persists.
//! * **The proxy cache** ([`cache`]) — expiration-based caching of original
//!   and processed content, compiled-stage (decision-tree) caching, negative
//!   caching of absent `nakika.js` scripts, and cooperative lookups through
//!   the structured overlay.
//! * **Na Kika Pages** ([`pages`]) — the `<?nkp ... ?>` markup model layered
//!   on the event model.
//! * **Compiled programs** ([`programs`]) — the hash-keyed cache of NkScript
//!   programs lowered to bytecode (compile once, execute many); the
//!   bytecode VM is the one engine that runs them.
//! * **The node façade** ([`node`]) — [`node::NaKikaNode`] wires the pieces
//!   into a single proxy that mediates one HTTP exchange at a time, in any of
//!   the configurations the paper's evaluation exercises (plain proxy, proxy
//!   + DHT, administrative control only, predicate benchmarks, full node).
//! * **The peer-fetch protocol** ([`peering`]) — the loop-prevention headers
//!   (`X-Nakika-Hops`, `X-Nakika-Via`) and replication marks a node stamps on
//!   requests it forwards to the consistent-hash owner of a missed key, so
//!   the cooperative network runs over real TCP without routing loops.
//! * **The service boundary** ([`service`], [`middleware`], [`builder`]) —
//!   [`service::HttpService`] is the single seam between transports and
//!   everything else: transports mint a [`service::RequestCtx`] from their
//!   [`service::Clock`] and call the stack a [`builder::NodeBuilder`]
//!   produced, optionally wrapped in [`middleware`] layers (access logging,
//!   admission, integrity verification, latency-aware redirection).
//!   Platform failures travel as typed [`service::NakikaError`]s so each
//!   transport decides its own status mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod gossip;
pub mod middleware;
pub mod node;
pub mod pages;
pub mod peering;
pub mod pipeline;
pub mod policy;
pub mod programs;
pub mod resource;
pub mod scripts;
pub mod service;
pub mod vocab;

pub use builder::{NodeBuilder, NodeHandle, NodeService};
pub use cache::{CacheStats, ProxyCache};
pub use gossip::GossipService;
pub use middleware::{
    AccessLogLayer, AdmissionLayer, IntegrityLayer, RateLimitLayer, RedirectLayer,
};
pub use node::{NaKikaNode, NodeConfig, NodeMode, OriginFetch};
pub use pipeline::{PipelineOutcome, PipelineRunner};
pub use policy::{Matcher, Policy, PolicySet};
pub use programs::{ProgramCache, ScriptEngine};
pub use resource::{ResourceKind, ResourceManager, ResourceManagerConfig, SiteUsage};
pub use service::{
    service_fn, Clock, CtxFactory, DispatchHint, HttpService, Layer, ManualClock, NakikaError,
    RequestCtx,
};
pub use vocab::Exchange;
