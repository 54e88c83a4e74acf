//! Edge-side access logging (paper §3.3).
//!
//! Na Kika performs access logging per site.  A site's script specifies the
//! URL to which log updates should be posted; in the paper each node
//! periodically scans its log and posts each site's entries there.  This
//! module implements the per-site batching, capped at 4,096 entries a site,
//! and the scan ([`AccessLog::flush`]), which returns `(post_url,
//! serialized_entries)` pairs.  Nothing calls the scan outside tests, so no
//! node posts its log today: a site's batch fills to the cap, and later
//! entries are dropped and counted.

use parking_lot::Mutex;
use std::collections::HashMap;

/// One access-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Time of the access (seconds on the node's clock).
    pub timestamp: u64,
    /// Client address (or resolved domain) as known to the proxy.
    pub client: String,
    /// Request method.
    pub method: String,
    /// Requested URL.
    pub url: String,
    /// Response status code.
    pub status: u16,
    /// Response body size in bytes.
    pub bytes: usize,
}

impl LogEntry {
    /// Serialises the entry in a combined-log-like single line.
    pub(crate) fn to_line(&self) -> String {
        format!(
            "{} {} \"{} {}\" {} {}",
            self.timestamp, self.client, self.method, self.url, self.status, self.bytes
        )
    }
}

/// Most entries one site may have buffered between flushes; a site at the
/// cap loses its newest accesses (counted per site) rather than growing
/// the node without bound when nothing flushes.
pub(crate) const MAX_PENDING_ENTRIES: usize = 4096;

#[derive(Default)]
struct SiteLog {
    post_url: Option<String>,
    entries: Vec<LogEntry>,
    dropped: u64,
}

/// The per-node access log, partitioned by site.
#[derive(Default)]
pub struct AccessLog {
    sites: Mutex<HashMap<String, SiteLog>>,
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> AccessLog {
        AccessLog::default()
    }

    /// Configures where a site's log entries should be posted (called when
    /// the site's script registers logging).  Passing `None` disables
    /// logging for the site.
    pub fn configure_site(&self, site: &str, post_url: Option<&str>) {
        let mut sites = self.sites.lock();
        let log = sites.entry(site.to_string()).or_default();
        log.post_url = post_url.map(str::to_string);
    }

    /// Records an access for `site`, building the entry only if it will be
    /// kept: a site that has no post URL configured buffers nothing (its
    /// entries would be thrown away at flush time anyway), and a site
    /// already holding `MAX_PENDING_ENTRIES` counts the access as dropped.
    pub fn record(&self, site: &str, entry: impl FnOnce() -> LogEntry) {
        let mut sites = self.sites.lock();
        let Some(log) = sites.get_mut(site).filter(|log| log.post_url.is_some()) else {
            return;
        };
        if log.entries.len() < MAX_PENDING_ENTRIES {
            log.entries.push(entry());
        } else {
            log.dropped += 1;
        }
    }

    /// Number of buffered entries for a site.
    pub fn pending(&self, site: &str) -> usize {
        self.sites
            .lock()
            .get(site)
            .map(|l| l.entries.len())
            .unwrap_or(0)
    }

    /// Accesses of a site that were not buffered because it was already at
    /// [`MAX_PENDING_ENTRIES`], over the log's lifetime.
    #[cfg(test)]
    pub(crate) fn dropped(&self, site: &str) -> u64 {
        self.sites.lock().get(site).map(|l| l.dropped).unwrap_or(0)
    }

    /// The scan a periodic poster would run: drains every site's buffered
    /// entries and returns `(post_url, batch_body)` pairs to POST.  A site
    /// whose logging was disabled after it buffered entries has them
    /// cleared and produces nothing.
    pub fn flush(&self) -> Vec<(String, String)> {
        let mut sites = self.sites.lock();
        let mut batches = Vec::new();
        for log in sites.values_mut() {
            let entries = std::mem::take(&mut log.entries);
            if entries.is_empty() {
                continue;
            }
            if let Some(url) = &log.post_url {
                let body = entries
                    .iter()
                    .map(LogEntry::to_line)
                    .collect::<Vec<_>>()
                    .join("\n");
                batches.push((url.clone(), body));
            }
        }
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(url: &str, status: u16) -> LogEntry {
        LogEntry {
            timestamp: 100,
            client: "10.0.0.1".to_string(),
            method: "GET".to_string(),
            url: url.to_string(),
            status,
            bytes: 2096,
        }
    }

    #[test]
    fn records_are_batched_per_site() {
        let log = AccessLog::new();
        log.configure_site("med.nyu.edu", Some("http://med.nyu.edu/log-sink"));
        log.configure_site("other.org", Some("http://other.org/logs"));
        log.record("med.nyu.edu", || entry("/simm/1", 200));
        log.record("med.nyu.edu", || entry("/simm/2", 200));
        log.record("other.org", || entry("/x", 404));
        assert_eq!(log.pending("med.nyu.edu"), 2);

        let mut batches = log.flush();
        batches.sort();
        assert_eq!(batches.len(), 2);
        assert!(batches[0].0.contains("med.nyu.edu"));
        assert_eq!(batches[0].1.lines().count(), 2);
        assert!(batches[1].1.contains("404"));
        // Buffers are drained by the flush.
        assert_eq!(log.pending("med.nyu.edu"), 0);
        assert!(log.flush().is_empty());
    }

    #[test]
    fn unconfigured_sites_buffer_nothing() {
        let log = AccessLog::new();
        log.configure_site("disabled.org", None);
        for _ in 0..10_000 {
            log.record("silent.org", || unreachable!("nobody reads this entry"));
            log.record("disabled.org", || unreachable!("nobody reads this entry"));
        }
        assert_eq!(log.pending("silent.org"), 0);
        assert_eq!(log.pending("disabled.org"), 0);
        assert_eq!(log.dropped("silent.org"), 0, "not logging is not dropping");
        assert!(log.flush().is_empty());
    }

    #[test]
    fn configured_sites_stop_at_the_cap_and_count_the_rest() {
        let log = AccessLog::new();
        log.configure_site("busy.org", Some("http://busy.org/logs"));
        for _ in 0..MAX_PENDING_ENTRIES + 7 {
            log.record("busy.org", || entry("/a", 200));
        }
        assert_eq!(log.pending("busy.org"), MAX_PENDING_ENTRIES);
        assert_eq!(log.dropped("busy.org"), 7);
        // A flush makes room again; the count of what was lost stays.
        assert_eq!(log.flush()[0].1.lines().count(), MAX_PENDING_ENTRIES);
        log.record("busy.org", || entry("/b", 200));
        assert_eq!(log.pending("busy.org"), 1);
        assert_eq!(log.dropped("busy.org"), 7);
    }

    #[test]
    fn log_line_format_is_stable() {
        let line = entry("/simm/1", 200).to_line();
        assert_eq!(line, "100 10.0.0.1 \"GET /simm/1\" 200 2096");
    }
}
