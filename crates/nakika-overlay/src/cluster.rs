//! Coral-style hierarchical locality clusters.
//!
//! Coral organises nodes into levels of clusters by round-trip time: level 2
//! clusters group nodes within ~30 ms of each other, level 1 within ~100 ms,
//! and level 0 spans the whole network.  Lookups proceed from the most local
//! level outward, so a node usually discovers a nearby cached copy without
//! touching distant nodes.  Na Kika inherits exactly this behaviour for
//! cooperative caching and uses the same locality information for DNS
//! redirection.

/// Cluster levels, from global to most local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClusterLevel {
    /// The whole network (no RTT bound).
    Global,
    /// Regional cluster (RTT below `REGIONAL_RTT_MS`).
    Regional,
    /// Local cluster (RTT below `LOCAL_RTT_MS`).
    Local,
}

/// RTT threshold for regional clusters, in milliseconds (Coral's level 1).
pub(crate) const REGIONAL_RTT_MS: f64 = 100.0;
/// RTT threshold for local clusters, in milliseconds (Coral's level 2).
pub(crate) const LOCAL_RTT_MS: f64 = 30.0;

impl ClusterLevel {
    /// Levels ordered from most local to global — the lookup order.
    pub(crate) const LOOKUP_ORDER: [ClusterLevel; 3] = [
        ClusterLevel::Local,
        ClusterLevel::Regional,
        ClusterLevel::Global,
    ];
}

/// A node's position in a simple 2-D latency space.
///
/// The simulator places nodes in a plane where Euclidean distance corresponds
/// to one-way latency in milliseconds — a standard network-coordinate
/// abstraction that is accurate enough to reproduce the paper's east-coast /
/// west-coast / Asia layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// X coordinate (ms).
    pub x: f64,
    /// Y coordinate (ms).
    pub(crate) y: f64,
}

impl Location {
    /// Creates a location.
    pub fn new(x: f64, y: f64) -> Location {
        Location { x, y }
    }

    /// One-way latency in milliseconds to another location.
    pub fn latency_ms(&self, other: &Location) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Round-trip time in milliseconds to another location.
    pub(crate) fn rtt_ms(&self, other: &Location) -> f64 {
        2.0 * self.latency_ms(other)
    }

    /// The most local cluster level this location shares with another.
    pub(crate) fn shared_level(&self, other: &Location) -> ClusterLevel {
        let rtt = self.rtt_ms(other);
        if rtt <= LOCAL_RTT_MS {
            ClusterLevel::Local
        } else if rtt <= REGIONAL_RTT_MS {
            ClusterLevel::Regional
        } else {
            ClusterLevel::Global
        }
    }
}

/// Canonical locations used by the wide-area experiments (one-way ms scale,
/// roughly matching US-East / US-West / Asia PlanetLab latencies).
pub mod sites {
    use super::Location;

    /// New York (the paper's origin-server location).
    pub const US_EAST: Location = Location { x: 0.0, y: 0.0 };
    /// US West Coast (~35 ms one-way from the east coast).
    pub const US_WEST: Location = Location { x: 35.0, y: 0.0 };
    /// Asia (~90 ms one-way from the east coast).
    pub const ASIA: Location = Location { x: 90.0, y: 30.0 };
    /// A LAN neighbour of the east-coast site (sub-millisecond).
    pub const US_EAST_LAN: Location = Location { x: 0.2, y: 0.0 };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_geometry() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        assert_eq!(a.latency_ms(&b), 5.0);
        assert_eq!(a.rtt_ms(&b), 10.0);
        assert_eq!(a.latency_ms(&a), 0.0);
    }

    #[test]
    fn cluster_levels_follow_rtt() {
        let east = sites::US_EAST;
        assert_eq!(east.shared_level(&sites::US_EAST_LAN), ClusterLevel::Local);
        assert_eq!(east.shared_level(&sites::US_WEST), ClusterLevel::Regional);
        assert_eq!(east.shared_level(&sites::ASIA), ClusterLevel::Global);
    }

    #[test]
    fn lookup_order_is_most_local_first() {
        assert_eq!(ClusterLevel::LOOKUP_ORDER[0], ClusterLevel::Local);
        assert_eq!(ClusterLevel::LOOKUP_ORDER[2], ClusterLevel::Global);
    }
}
