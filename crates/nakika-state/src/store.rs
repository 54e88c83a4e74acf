//! Per-site partitioned key-value storage with quota enforcement.
//!
//! Na Kika partitions hard state amongst sites and enforces resource
//! constraints on persistent storage (paper §3.3).  Each site gets its own
//! namespace; writes that would push a site past its byte quota are refused,
//! which is the storage analogue of the congestion controls on CPU and
//! memory.

use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Errors from the site store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The write would exceed the site's storage quota.
    QuotaExceeded {
        /// The site whose quota would be exceeded.
        site: String,
        /// The quota in bytes.
        quota: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::QuotaExceeded { site, quota } => {
                write!(f, "site {site} exceeded its {quota}-byte storage quota")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Default)]
struct SitePartition {
    entries: BTreeMap<String, String>,
    used_bytes: usize,
}

/// A node-local store partitioned by site.
pub struct SiteStore {
    partitions: RwLock<BTreeMap<String, SitePartition>>,
    quota_bytes: usize,
}

impl SiteStore {
    /// Creates a store enforcing `quota_bytes` per site.
    pub fn new(quota_bytes: usize) -> SiteStore {
        SiteStore {
            partitions: RwLock::new(BTreeMap::new()),
            quota_bytes,
        }
    }

    /// Writes `value` under `key` in `site`'s partition.
    pub fn put(&self, site: &str, key: &str, value: &str) -> Result<(), StoreError> {
        let mut partitions = self.partitions.write();
        let partition = partitions.entry(site.to_string()).or_default();
        let old_size = partition
            .entries
            .get(key)
            .map(|v| key.len() + v.len())
            .unwrap_or(0);
        let new_size = key.len() + value.len();
        let projected = partition.used_bytes - old_size + new_size;
        if projected > self.quota_bytes {
            return Err(StoreError::QuotaExceeded {
                site: site.to_string(),
                quota: self.quota_bytes,
            });
        }
        partition.entries.insert(key.to_string(), value.to_string());
        partition.used_bytes = projected;
        Ok(())
    }

    /// Reads a value from a site's partition.
    pub fn get(&self, site: &str, key: &str) -> Option<String> {
        self.partitions
            .read()
            .get(site)
            .and_then(|p| p.entries.get(key).cloned())
    }

    /// Keys in a site's partition starting with `prefix`.
    pub fn keys_with_prefix(&self, site: &str, prefix: &str) -> Vec<String> {
        self.partitions
            .read()
            .get(site)
            .map(|p| {
                p.entries
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Bytes used by a site's partition.
    #[cfg(test)]
    pub(crate) fn used_bytes(&self, site: &str) -> usize {
        self.partitions
            .read()
            .get(site)
            .map(|p| p.used_bytes)
            .unwrap_or(0)
    }

    /// Number of entries stored for a site.
    #[cfg(test)]
    pub(crate) fn len(&self, site: &str) -> usize {
        self.partitions
            .read()
            .get(site)
            .map(|p| p.entries.len())
            .unwrap_or(0)
    }

    /// True if the site's partition holds no entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self, site: &str) -> bool {
        self.len(site) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_isolated_per_site() {
        let store = SiteStore::new(1024);
        store.put("a.com", "k", "from-a").unwrap();
        store.put("b.com", "k", "from-b").unwrap();
        assert_eq!(store.get("a.com", "k").as_deref(), Some("from-a"));
        assert_eq!(store.get("b.com", "k").as_deref(), Some("from-b"));
        assert_eq!(store.len("a.com"), 1);
        assert!(store.is_empty("c.com"));
    }

    #[test]
    fn quota_is_enforced_per_site() {
        let store = SiteStore::new(20);
        store.put("a.com", "k1", "0123456789").unwrap(); // 12 bytes
        let err = store.put("a.com", "k2", "0123456789").unwrap_err();
        assert!(matches!(err, StoreError::QuotaExceeded { .. }));
        // Another site is unaffected.
        store.put("b.com", "k2", "0123456789").unwrap();
        // Overwriting an existing key accounts for the freed space.
        store.put("a.com", "k1", "01234").unwrap();
        assert_eq!(store.used_bytes("a.com"), 7);
    }

    #[test]
    fn prefix_scans() {
        let store = SiteStore::new(4096);
        store.put("spec.org", "user:1", "a").unwrap();
        store.put("spec.org", "user:2", "b").unwrap();
        store.put("spec.org", "profile:1", "c").unwrap();
        assert_eq!(store.keys_with_prefix("spec.org", "user:").len(), 2);
        assert!(store.keys_with_prefix("other.org", "user:").is_empty());
    }
}
