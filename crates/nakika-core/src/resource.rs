//! Congestion-based resource management (paper §3.2, Figure 6).
//!
//! Na Kika rejects a-priori quotas: hosted code may consume as many resources
//! as it wants **as long as it does not cause congestion**.  A resource
//! manager tracks CPU, memory and bandwidth (renewable) plus running time and
//! total bytes transferred (nonrenewable) for each site's pipelines as well
//! as for the whole node.  When a resource is overutilized it throttles
//! requests proportionally to each site's contribution to the congestion and,
//! if the congestion persists into the next control round, terminates the
//! pipelines of the largest contributor.  A site's contribution is a weighted
//! average of past and present consumption and is exposed to scripts so they
//! can adapt and recover from past penalisation.

use nakika_script::ResourceMeter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The resources the manager tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU consumption (interpreter fuel steps).
    Cpu,
    /// Memory consumption (bytes allocated on script heaps).
    Memory,
    /// Network bandwidth (bytes moved on behalf of the site this period).
    Bandwidth,
    /// Wall-clock running time of the site's pipelines (milliseconds).
    RunningTime,
    /// Total bytes transferred over the site's lifetime.
    BytesTransferred,
}

impl ResourceKind {
    /// All tracked resources.
    pub(crate) const ALL: [ResourceKind; 5] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Bandwidth,
        ResourceKind::RunningTime,
        ResourceKind::BytesTransferred,
    ];

    /// Renewable resources are replenished every control period; only their
    /// consumption *under overutilization* counts against a site.
    pub(crate) fn is_renewable(&self) -> bool {
        matches!(
            self,
            ResourceKind::Cpu | ResourceKind::Memory | ResourceKind::Bandwidth
        )
    }

    /// Short name used by `System.congestion(name)`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::Bandwidth => "bandwidth",
            ResourceKind::RunningTime => "time",
            ResourceKind::BytesTransferred => "bytes",
        }
    }

    /// Parses a resource name.
    pub(crate) fn parse(name: &str) -> Option<ResourceKind> {
        ResourceKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// Admission decision for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Process the request normally.
    Accept,
    /// Reject with "server busy" (503) because the site is being throttled.
    Throttle,
    /// Reject because the site's pipelines have been terminated this round.
    Terminate,
}

/// Configuration of the resource manager.
#[derive(Debug, Clone)]
pub struct ResourceManagerConfig {
    /// Master switch; when false every request is accepted and nothing is
    /// tracked (the "without resource controls" experimental arm).
    pub enabled: bool,
    /// Node capacity per control period for each resource.
    pub(crate) capacity: HashMap<ResourceKind, f64>,
    /// Weight of present consumption in the exponentially weighted average
    /// (the paper's "weighted average of past and present consumption").
    pub(crate) ewma_alpha: f64,
    /// Upper bound on the per-site rejection probability while throttling.
    pub(crate) max_reject_fraction: f64,
}

impl Default for ResourceManagerConfig {
    fn default() -> Self {
        let mut capacity = HashMap::new();
        capacity.insert(ResourceKind::Cpu, 50_000_000.0);
        capacity.insert(ResourceKind::Memory, 512.0 * 1024.0 * 1024.0);
        capacity.insert(ResourceKind::Bandwidth, 100.0 * 1024.0 * 1024.0);
        capacity.insert(ResourceKind::RunningTime, 60_000.0);
        capacity.insert(ResourceKind::BytesTransferred, 1024.0 * 1024.0 * 1024.0);
        ResourceManagerConfig {
            enabled: true,
            capacity,
            ewma_alpha: 0.5,
            max_reject_fraction: 0.95,
        }
    }
}

#[derive(Default)]
struct SiteState {
    /// Consumption in the current control period, per resource.
    current: HashMap<ResourceKind, f64>,
    /// Weighted average of (charged) past and present consumption.
    average: HashMap<ResourceKind, f64>,
    /// Rejection probability while this site is throttled.
    reject_fraction: f64,
    /// Accumulator implementing deterministic proportional rejection.
    reject_accumulator: f64,
    /// True once the site's pipelines have been terminated this round.
    terminated: bool,
    /// Meters of the site's currently executing pipelines, each under the
    /// ticket its registration holds, so termination stops even a handler
    /// stuck inside native vocabulary code.
    meters: Vec<(u64, ResourceMeter)>,
}

/// Per-site usage snapshot.
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SiteUsage {
    /// Weighted-average consumption per resource.
    pub(crate) average: HashMap<ResourceKind, f64>,
    /// Current rejection probability.
    pub(crate) reject_fraction: f64,
    /// True if the site was terminated in the current round.
    pub(crate) terminated: bool,
}

/// The congestion controller.
pub(crate) struct ResourceManager {
    config: ResourceManagerConfig,
    sites: Mutex<HashMap<String, SiteState>>,
    /// Node-wide consumption in the current period.
    node_current: Mutex<HashMap<ResourceKind, f64>>,
    /// Resources that were congested in the previous control round (if still
    /// congested now, the top offender is terminated).
    previously_congested: Mutex<Vec<ResourceKind>>,
    /// Source of the tickets meter registrations are listed under.
    next_ticket: AtomicU64,
}

/// A pipeline's entry in its site's list of running meters; dropping it
/// removes the entry (a terminated site's list is already empty).
pub(crate) struct MeterRegistration<'a> {
    manager: &'a ResourceManager,
    site: &'a str,
    ticket: u64,
}

impl Drop for MeterRegistration<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.manager.sites.lock().get_mut(self.site) {
            state.meters.retain(|(ticket, _)| *ticket != self.ticket);
        }
    }
}

impl ResourceManager {
    /// Creates a manager with the given configuration.
    pub(crate) fn new(config: ResourceManagerConfig) -> ResourceManager {
        ResourceManager {
            config,
            sites: Mutex::new(HashMap::new()),
            node_current: Mutex::new(HashMap::new()),
            previously_congested: Mutex::new(Vec::new()),
            next_ticket: AtomicU64::new(0),
        }
    }

    /// True when congestion control is active.
    pub(crate) fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Admission control for a request to `site`, applied *before* resources
    /// are expended (the paper's "drop requests early" principle).
    pub(crate) fn admit(&self, site: &str) -> Admission {
        if !self.config.enabled {
            return Admission::Accept;
        }
        let mut sites = self.sites.lock();
        let state = sites.entry(site.to_string()).or_default();
        if state.terminated {
            Admission::Terminate
        } else if state.reject_fraction > 0.0 {
            state.reject_accumulator += state.reject_fraction;
            if state.reject_accumulator >= 1.0 {
                state.reject_accumulator -= 1.0;
                Admission::Throttle
            } else {
                Admission::Accept
            }
        } else {
            Admission::Accept
        }
    }

    /// Records consumption of `amount` of `kind` by `site`.
    pub(crate) fn record(&self, site: &str, kind: ResourceKind, amount: f64) {
        if !self.config.enabled || amount <= 0.0 {
            return;
        }
        let mut sites = self.sites.lock();
        *sites
            .entry(site.to_string())
            .or_default()
            .current
            .entry(kind)
            .or_insert(0.0) += amount;
        drop(sites);
        *self.node_current.lock().entry(kind).or_insert(0.0) += amount;
    }

    /// Registers the meter of a pipeline that has started executing for
    /// `site`, so a termination while it runs stops it immediately.  The
    /// meter stays listed until the returned registration is dropped; a
    /// disabled manager lists nothing and returns `None`.
    #[must_use = "the meter is unregistered when the registration is dropped"]
    pub(crate) fn register_meter<'a>(
        &'a self,
        site: &'a str,
        meter: ResourceMeter,
    ) -> Option<MeterRegistration<'a>> {
        if !self.config.enabled {
            return None;
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.sites
            .lock()
            .entry(site.to_string())
            .or_default()
            .meters
            .push((ticket, meter));
        Some(MeterRegistration {
            manager: self,
            site,
            ticket,
        })
    }

    /// Number of pipelines of `site` executing right now (registered meters).
    #[cfg(test)]
    pub(crate) fn live_meters(&self, site: &str) -> usize {
        self.sites.lock().get(site).map_or(0, |s| s.meters.len())
    }

    /// The congestion level of a resource: node consumption this period
    /// divided by capacity (values above 1.0 mean overutilization).  Exposed
    /// to scripts as `System.congestion(name)`.
    pub(crate) fn congestion_level(&self, kind: ResourceKind) -> f64 {
        let used = *self.node_current.lock().get(&kind).unwrap_or(&0.0);
        let capacity = *self.config.capacity.get(&kind).unwrap_or(&f64::INFINITY);
        if capacity <= 0.0 || capacity.is_infinite() {
            0.0
        } else {
            used / capacity
        }
    }

    /// One execution of the paper's CONTROL procedure across all tracked
    /// resources; the node calls this periodically (once per control period).
    ///
    /// For each congested resource: charge the period's consumption to every
    /// active site's weighted average and set throttling proportional to the
    /// site's contribution.  If the same resource was congested in the
    /// previous round as well (throttling did not relieve it), terminate the
    /// largest contributor.  Non-congested renewable resources are simply
    /// reset; nonrenewable resources are always charged.
    pub(crate) fn control(&self) {
        if !self.config.enabled {
            return;
        }
        let mut sites = self.sites.lock();
        let mut node_current = self.node_current.lock();
        let mut previously = self.previously_congested.lock();

        // Lift last round's throttling and termination; persistent offenders
        // are re-penalised below from fresh measurements.
        for state in sites.values_mut() {
            state.reject_fraction = 0.0;
            state.terminated = false;
        }

        let mut congested_now = Vec::new();
        for kind in ResourceKind::ALL {
            let capacity = *self.config.capacity.get(&kind).unwrap_or(&f64::INFINITY);
            let used = *node_current.get(&kind).unwrap_or(&0.0);
            let congested = capacity.is_finite() && capacity > 0.0 && used > capacity;

            if congested || !kind.is_renewable() {
                // UPDATE(site.usage, resource): fold this period into the
                // weighted average.
                for state in sites.values_mut() {
                    let current = *state.current.get(&kind).unwrap_or(&0.0);
                    let avg = state.average.entry(kind).or_insert(0.0);
                    *avg = (1.0 - self.config.ewma_alpha) * *avg + self.config.ewma_alpha * current;
                }
            }

            if congested {
                congested_now.push(kind);
                let load_factor = used / capacity;
                let shed = 1.0 - 1.0 / load_factor;
                let total: f64 = sites
                    .values()
                    .map(|s| *s.current.get(&kind).unwrap_or(&0.0))
                    .sum();
                let active = sites
                    .values()
                    .filter(|s| *s.current.get(&kind).unwrap_or(&0.0) > 0.0)
                    .count()
                    .max(1) as f64;
                // THROTTLE proportionally to the site's contribution.
                for state in sites.values_mut() {
                    let share = if total > 0.0 {
                        *state.current.get(&kind).unwrap_or(&0.0) / total
                    } else {
                        0.0
                    };
                    let fraction = (shed * share * active).min(self.config.max_reject_fraction);
                    state.reject_fraction = state.reject_fraction.max(fraction);
                }

                // If throttling last round did not relieve this resource,
                // TERMINATE the top offender (dequeue of the priority queue).
                if previously.contains(&kind) {
                    if let Some((_, state)) = sites
                        .iter_mut()
                        .filter(|(_, s)| *s.current.get(&kind).unwrap_or(&0.0) > 0.0)
                        .max_by(|a, b| {
                            let ka = *a.1.average.get(&kind).unwrap_or(&0.0);
                            let kb = *b.1.average.get(&kind).unwrap_or(&0.0);
                            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                    {
                        state.terminated = true;
                        state.reject_fraction = 1.0;
                        for (_, meter) in state.meters.drain(..) {
                            meter.kill();
                        }
                    }
                }
            }
        }

        // Start the next period: renewable consumption resets; nonrenewable
        // totals keep accumulating in the averages (already folded above).
        for state in sites.values_mut() {
            state.current.clear();
        }
        node_current.clear();
        *previously = congested_now;
        drop(previously);
        drop(node_current);
        drop(sites);
    }

    /// Snapshot of a site's usage.
    #[cfg(test)]
    pub(crate) fn site_usage(&self, site: &str) -> SiteUsage {
        let sites = self.sites.lock();
        match sites.get(site) {
            Some(state) => SiteUsage {
                average: state.average.clone(),
                reject_fraction: state.reject_fraction,
                terminated: state.terminated,
            },
            None => SiteUsage::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ResourceManagerConfig {
        let mut capacity = HashMap::new();
        capacity.insert(ResourceKind::Cpu, 1_000.0);
        capacity.insert(ResourceKind::Memory, 1_000.0);
        capacity.insert(ResourceKind::Bandwidth, 1_000.0);
        capacity.insert(ResourceKind::RunningTime, 1_000.0);
        capacity.insert(ResourceKind::BytesTransferred, 1_000_000.0);
        ResourceManagerConfig {
            enabled: true,
            capacity,
            ewma_alpha: 0.5,
            max_reject_fraction: 0.95,
        }
    }

    #[test]
    fn renewable_classification() {
        assert!(ResourceKind::Cpu.is_renewable());
        assert!(ResourceKind::Bandwidth.is_renewable());
        assert!(!ResourceKind::RunningTime.is_renewable());
        assert!(!ResourceKind::BytesTransferred.is_renewable());
        assert_eq!(ResourceKind::parse("cpu"), Some(ResourceKind::Cpu));
        assert_eq!(ResourceKind::parse("nope"), None);
    }

    #[test]
    fn disabled_manager_accepts_everything() {
        let manager = ResourceManager::new(ResourceManagerConfig {
            enabled: false,
            ..ResourceManagerConfig::default()
        });
        manager.record("a.com", ResourceKind::Cpu, 1e12);
        manager.control();
        assert_eq!(manager.admit("a.com"), Admission::Accept);
        assert_eq!(manager.congestion_level(ResourceKind::Cpu), 0.0);
    }

    #[test]
    fn no_congestion_means_no_throttling() {
        let manager = ResourceManager::new(tiny_config());
        manager.record("a.com", ResourceKind::Cpu, 500.0);
        manager.control();
        assert_eq!(manager.admit("a.com"), Admission::Accept);
        assert_eq!(manager.site_usage("a.com").reject_fraction, 0.0);
    }

    #[test]
    fn congestion_throttles_proportionally_to_contribution() {
        let manager = ResourceManager::new(tiny_config());
        // hog consumes 10x what bystander consumes; the node is 4x over
        // capacity.
        manager.record("hog.com", ResourceKind::Cpu, 3_600.0);
        manager.record("bystander.org", ResourceKind::Cpu, 360.0);
        manager.control();
        let hog = manager.site_usage("hog.com").reject_fraction;
        let bystander = manager.site_usage("bystander.org").reject_fraction;
        assert!(
            hog > bystander,
            "hog {hog} should be throttled harder than {bystander}"
        );
        assert!(hog > 0.5);
        assert!(
            !manager.site_usage("hog.com").terminated,
            "no kill on first round"
        );

        // Throttled admission rejects roughly the configured fraction.
        let mut rejected = 0;
        for _ in 0..100 {
            if manager.admit("hog.com") == Admission::Throttle {
                rejected += 1;
            }
        }
        assert!(rejected > 40, "saw only {rejected} rejections");
    }

    #[test]
    fn persistent_congestion_terminates_the_top_offender() {
        let manager = ResourceManager::new(tiny_config());
        let meter = ResourceMeter::new();
        // A pipeline that finished before the rounds is off the list...
        drop(manager.register_meter("hog.com", ResourceMeter::new()));
        assert_eq!(manager.live_meters("hog.com"), 0);
        // ...and one that is still running when the site is terminated is
        // killed.
        let running = manager.register_meter("hog.com", meter.clone());
        assert_eq!(manager.live_meters("hog.com"), 1);
        // Round 1: congested — throttle.
        manager.record("hog.com", ResourceKind::Memory, 10_000.0);
        manager.record("small.org", ResourceKind::Memory, 100.0);
        manager.control();
        assert!(!manager.site_usage("hog.com").terminated);
        // Round 2: still congested — terminate the largest contributor.
        manager.record("hog.com", ResourceKind::Memory, 10_000.0);
        manager.record("small.org", ResourceKind::Memory, 100.0);
        manager.control();
        assert!(manager.site_usage("hog.com").terminated);
        assert!(!manager.site_usage("small.org").terminated);
        assert!(
            meter.is_killed(),
            "running pipelines of the offender are killed"
        );
        assert_eq!(manager.admit("hog.com"), Admission::Terminate);
        assert_eq!(manager.admit("small.org"), Admission::Accept);
        // Its registration outlived the list it was on; dropping it is a no-op.
        drop(running);
        assert_eq!(manager.live_meters("hog.com"), 0);
    }

    #[test]
    fn recovery_after_congestion_clears() {
        let manager = ResourceManager::new(tiny_config());
        manager.record("hog.com", ResourceKind::Cpu, 5_000.0);
        manager.control();
        manager.record("hog.com", ResourceKind::Cpu, 5_000.0);
        manager.control();
        assert!(manager.site_usage("hog.com").terminated);
        // The site stops misbehaving; the next control round restores it.
        manager.control();
        assert_eq!(manager.admit("hog.com"), Admission::Accept);
        // Its average decays over further quiet rounds (recovery from past
        // penalisation).
        let before = *manager
            .site_usage("hog.com")
            .average
            .get(&ResourceKind::Cpu)
            .unwrap_or(&0.0);
        // Need congestion for renewables to be charged; quiet rounds leave the
        // average as-is, but nonrenewable averages decay.
        assert!(before > 0.0);
    }

    #[test]
    fn congestion_level_reflects_usage_and_is_visible_to_scripts() {
        let manager = ResourceManager::new(tiny_config());
        assert_eq!(manager.congestion_level(ResourceKind::Cpu), 0.0);
        manager.record("a.com", ResourceKind::Cpu, 2_000.0);
        assert!((manager.congestion_level(ResourceKind::Cpu) - 2.0).abs() < 1e-9);
        manager.control();
        assert_eq!(
            manager.congestion_level(ResourceKind::Cpu),
            0.0,
            "new period"
        );
    }

    #[test]
    fn nonrenewable_resources_accumulate_without_congestion() {
        let manager = ResourceManager::new(tiny_config());
        manager.record("a.com", ResourceKind::BytesTransferred, 100.0);
        manager.control();
        manager.record("a.com", ResourceKind::BytesTransferred, 100.0);
        manager.control();
        let usage = manager.site_usage("a.com");
        assert!(*usage.average.get(&ResourceKind::BytesTransferred).unwrap() > 0.0);
    }
}
