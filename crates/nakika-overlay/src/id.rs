//! Node and key identifiers with the XOR distance metric.

use std::fmt;

/// A 64-bit identifier in the overlay's key space.
///
/// Coral and Kademlia use 160-bit SHA-1 identifiers; 64 bits of a good mixing
/// function give the same uniform-distribution and XOR-metric properties at
/// the scales exercised here (hundreds of nodes, millions of keys) while
/// keeping arithmetic cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// XOR distance to another identifier.
    pub(crate) fn distance(&self, other: &NodeId) -> u64 {
        self.0 ^ other.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hashes an arbitrary string (typically a URL) into the overlay key space
/// using the 64-bit FNV-1a mixing function followed by a finalizer.
pub fn key_for(s: &str) -> NodeId {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in s.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    // splitmix64 finalizer for better avalanche than raw FNV.
    let mut z = hash.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    NodeId(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = NodeId(0b1010);
        let b = NodeId(0b0110);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0);
        assert_eq!(a.distance(&b), 0b1100);
    }

    #[test]
    fn key_hashing_is_deterministic_and_spreads() {
        assert_eq!(key_for("http://a.com/x"), key_for("http://a.com/x"));
        assert_ne!(key_for("http://a.com/x"), key_for("http://a.com/y"));
        let keys: HashSet<u64> = (0..10_000)
            .map(|i| key_for(&format!("http://site{}.example/page{}", i % 100, i)).0)
            .collect();
        assert_eq!(keys.len(), 10_000, "no collisions across 10k URLs");
        // Rough uniformity: top bit should split keys near 50/50.
        let high = keys.iter().filter(|k| *k >> 63 == 1).count();
        assert!((4_000..6_000).contains(&high), "top-bit split was {high}");
    }

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(NodeId(0xff).to_string(), "00000000000000ff");
    }

    #[test]
    fn triangle_inequality_of_xor_metric() {
        // d(a,c) <= d(a,b) XOR-combined: the XOR metric satisfies
        // d(a,c) = d(a,b) ^ d(b,c); verify the algebraic identity.
        let (a, b, c) = (NodeId(123456), NodeId(987654), NodeId(555));
        assert_eq!(a.distance(&c), a.distance(&b) ^ b.distance(&c));
    }
}
