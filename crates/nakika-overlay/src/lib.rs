//! Structured overlay network for Na Kika (paper §3.4).
//!
//! Na Kika treats its overlay largely as a black box provided by an existing
//! DHT and builds on Coral, which offers three properties the architecture
//! needs: (1) *sloppy* soft-state storage keyed by URL so that one cached
//! copy anywhere in the network is enough to avoid an origin access, (2)
//! hierarchical locality clusters so lookups prefer nearby nodes, and (3)
//! DNS redirection of clients to nearby edge nodes.
//!
//! This crate implements that substrate from scratch: XOR-metric key-based
//! routing, TTL'd sloppy storage with per-key value limits and Coral-style
//! locality clusters.  Clients reach a nearby node by whatever front-end
//! the deployment picks; the nodes themselves only redirect a client to a
//! key's live owner (`nakika-core`'s owner-aware redirection, which asks
//! [`Overlay::owner_of`]).  The interface is deliberately the small
//! `put / get / nodes_for_key / owner_of` surface the rest of Na Kika
//! consumes.
//!
//! The registry itself always runs in-process, but it serves two deployment
//! styles:
//!
//! * **Simulated** — the simulator joins thousands of nodes with
//!   [`Overlay::join`] and provides latencies from [`Location`]s; values and
//!   lookups never leave the process.
//! * **Real TCP** — each node process joins the shared roster with
//!   [`Overlay::join_with_addr`], carrying the base URL of its proxy
//!   front-end.  A cache miss asks [`Overlay::owner_of`] for the key's
//!   consistent-hash owner and fetches from that peer over a real socket;
//!   hot entries replicate onto [`Overlay::successors_of`].  See
//!   `docs/CLUSTER.md` in the repository for the operator's guide.
//!
//! # Example: routing a key to its owner
//!
//! ```
//! use nakika_overlay::{key_for, Location, Overlay};
//!
//! let overlay = Overlay::with_defaults();
//! for (name, url) in [
//!     ("edge-a", "http://127.0.0.1:4001"),
//!     ("edge-b", "http://127.0.0.1:4002"),
//!     ("edge-c", "http://127.0.0.1:4003"),
//! ] {
//!     // Deterministic ids derived from names keep every process's view of
//!     // the ring identical.
//!     overlay.join_with_addr(key_for(name), Location::new(0.0, 0.0), url);
//! }
//! let owner = overlay.owner_of("GET http://origin.example/object").unwrap();
//! assert!(owner.addr.unwrap().starts_with("http://127.0.0.1:400"));
//! assert_eq!(overlay.successors_of("GET http://origin.example/object", 2).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cluster;
pub(crate) mod dht;
pub(crate) mod gossip;
pub(crate) mod id;

pub use cluster::Location;
pub use dht::Overlay;
pub use gossip::{Membership, MembershipConfig, MembershipEvent, PeerState, ProbeAction};
pub use id::{key_for, NodeId};
