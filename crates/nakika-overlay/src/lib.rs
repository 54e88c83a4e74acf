//! Structured overlay network for Na Kika (paper §3.4).
//!
//! The paper builds on Coral for cooperative caching, locality clusters and
//! DNS redirection.  This crate keeps what a deployment of separate node
//! processes can use: a roster of members, an XOR-metric consistent-hash
//! ring over it, and SWIM-style gossip membership that keeps the roster in
//! step across processes.
//!
//! A cache miss asks [`Overlay::owner_of`] for the key's consistent-hash
//! owner and fetches from that peer over a real socket, before the origin;
//! hot entries replicate onto [`Overlay::successors_of`].  Clients reach a
//! nearby node by whatever front-end the deployment picks; the nodes
//! themselves only redirect a client to a key's live owner (`nakika-core`'s
//! owner-aware redirection).  Each node process joins its own roster with
//! [`Overlay::join_with_addr`], carrying the base URL of its proxy
//! front-end, and [`Membership`] gossip adds the others.  See
//! `docs/CLUSTER.md` in the repository for the operator's guide.
//!
//! # Example: routing a key to its owner
//!
//! ```
//! use nakika_overlay::{key_for, Overlay};
//!
//! let overlay = Overlay::new();
//! for (name, url) in [
//!     ("edge-a", "http://127.0.0.1:4001"),
//!     ("edge-b", "http://127.0.0.1:4002"),
//!     ("edge-c", "http://127.0.0.1:4003"),
//! ] {
//!     // Deterministic ids derived from names keep every process's view of
//!     // the ring identical.
//!     overlay.join_with_addr(key_for(name), url);
//! }
//! let owner = overlay.owner_of("GET http://origin.example/object").unwrap();
//! assert!(owner.addr.unwrap().starts_with("http://127.0.0.1:400"));
//! assert_eq!(overlay.successors_of("GET http://origin.example/object", 2).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod dht;
pub(crate) mod gossip;
pub(crate) mod id;

pub use dht::Overlay;
pub use gossip::{Membership, MembershipConfig, MembershipEvent, PeerState, ProbeAction};
pub use id::{key_for, NodeId};
