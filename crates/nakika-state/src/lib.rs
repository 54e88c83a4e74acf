//! Hard state for Na Kika (paper §3.3), node-local.
//!
//! The web's expiration-based consistency is enough for most edge-side
//! content, but a complete platform also needs *hard state*: edge-side
//! access logs for content producers, and application state that
//! outlives a request.  This crate holds both, on one node:
//!
//! * a per-site partitioned local store with a storage quota
//!   ([`store::SiteStore`], the MySQL substitute), behind the scripts'
//!   `HardState` vocabulary, and
//! * access logging ([`logging::AccessLog`]), which batches entries per
//!   site, at most 4,096 each, for the URL the site's script configured.
//!   Nothing posts them today: the batches wait for a poster.
//!
//! The paper's prototype also replicated hard state between nodes through a
//! message broker.  Nothing here does: a `HardState` write on one node is
//! not visible on another.
//!
//! # Example: one site's partition
//!
//! ```
//! use nakika_state::SiteStore;
//!
//! let store = SiteStore::new(16);
//! store.put("spec.example.org", "user:alice", "v1").unwrap();
//! assert_eq!(store.get("spec.example.org", "user:alice").as_deref(), Some("v1"));
//! assert_eq!(store.get("other.example.org", "user:alice"), None);
//! assert!(store.put("spec.example.org", "user:bob", "over quota").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod logging;
pub(crate) mod store;

pub use logging::{AccessLog, LogEntry};
pub use store::SiteStore;
