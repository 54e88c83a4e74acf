//! Wide-area simulation and experiment harness for the Na Kika evaluation.
//!
//! The paper evaluates Na Kika on a LAN testbed and on PlanetLab; neither is
//! available here, so this crate provides the substitute described in
//! DESIGN.md: simulated clients, origin servers and Na Kika proxies connected
//! by links with latency and bandwidth, driven in virtual time.  Every proxy
//! decision — caching, predicate matching, pipeline execution, congestion
//! control, overlay lookups — is made by the *real* `nakika-core` code; only
//! packet transport and server queueing are modelled analytically.
//!
//! The [`experiments`] module reproduces each table and figure of the paper's
//! §5 (see DESIGN.md's experiment index and EXPERIMENTS.md for the measured
//! results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub(crate) mod net;
pub(crate) mod stats;
pub(crate) mod workload;
