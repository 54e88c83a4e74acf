//! The four workloads: what each one asks for, and the deterministic
//! content both the harness origin and the response check derive from a URL.
//!
//! The names and shapes are fixed (later issues cite them); a seed only
//! changes the order keys are asked for in, never the key set or the sizes.

/// The paper's micro-benchmark page size (§5.1).
pub const PAGE_BYTES: usize = 2096;
pub const MIB: usize = 1024 * 1024;

/// Open-loop arrival rates in requests per second, both connections
/// together.  Set once, to a round number between a third and a half of
/// the seed commit's closed-loop `rps` on that workload (155k, 12.7k, 7.7k
/// and 2.05k on the machine the bounds were set on), and never derived at
/// run time: a faster or slower commit is offered exactly the same load.
const OPEN_RATE_HIT_SMALL: f64 = 50_000.0;
const OPEN_RATE_MISS_ORIGIN: f64 = 5_000.0;
const OPEN_RATE_SCRIPTED_HIT: f64 = 4_000.0;
const OPEN_RATE_STREAM_LARGE: f64 = 1_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HitSmall,
    MissOrigin,
    ScriptedHit,
    StreamLarge,
}

pub const ALL: [Workload; 4] = [
    Workload::HitSmall,
    Workload::MissOrigin,
    Workload::ScriptedHit,
    Workload::StreamLarge,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitSmall => "hit_small",
            Workload::MissOrigin => "miss_origin",
            Workload::ScriptedHit => "scripted_hit",
            Workload::StreamLarge => "stream_large",
        }
    }

    pub fn open_rate(self) -> f64 {
        match self {
            Workload::HitSmall => OPEN_RATE_HIT_SMALL,
            Workload::MissOrigin => OPEN_RATE_MISS_ORIGIN,
            Workload::ScriptedHit => OPEN_RATE_SCRIPTED_HIT,
            Workload::StreamLarge => OPEN_RATE_STREAM_LARGE,
        }
    }

    /// Requests sent (over both connections) before anything is measured.
    /// On `miss_origin` this is what fills the 32 MiB cache, so every
    /// measured insert evicts.
    pub fn warmup_requests(self) -> u64 {
        match self {
            Workload::HitSmall => 20_000,
            Workload::MissOrigin => 20_000,
            Workload::ScriptedHit => 5_000,
            Workload::StreamLarge => 200,
        }
    }

    /// Requests of the sequence the traced run replays in-process (and so
    /// request spans in the trace file).
    pub fn replay_requests(self) -> usize {
        match self {
            Workload::HitSmall => 5_000,
            Workload::MissOrigin | Workload::ScriptedHit => 2_000,
            Workload::StreamLarge => 200,
        }
    }

    pub fn body_bytes(self) -> usize {
        match self {
            Workload::StreamLarge => MIB,
            _ => PAGE_BYTES,
        }
    }

    /// How many distinct URLs the workload draws from; `None` means every
    /// request gets a URL never used before.
    pub fn key_count(self) -> Option<usize> {
        match self {
            Workload::HitSmall => Some(1000),
            Workload::MissOrigin => None,
            Workload::ScriptedHit => Some(1),
            Workload::StreamLarge => Some(16),
        }
    }

    /// Fraction of measured client requests expected to reach the origin.
    pub fn expected_origin_fetch_ratio(self) -> f64 {
        match self {
            Workload::MissOrigin => 1.0,
            _ => 0.0,
        }
    }

    /// The path of resident key `k`.
    pub fn key_path(self, k: usize) -> String {
        format!("/b{}/{}-k{k}.html", self.body_bytes(), self.name())
    }
}

/// The path of the `n`-th never-repeating URL of a run.
pub fn unique_path(seed: u64, n: u64) -> String {
    format!("/b{PAGE_BYTES}/u{seed}-{n}.html")
}

/// The body size a path asks for: the digits after `/b`, up to 64 MiB.
pub fn body_len_of(path: &str) -> Option<usize> {
    let digits = path.strip_prefix("/b")?;
    let end = digits.find('/')?;
    digits[..end].parse().ok().filter(|len| *len <= 64 * MIB)
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The eight body bytes at word `word` of the body served for `path`.
fn body_word(path_hash: u64, word: u64) -> [u8; 8] {
    let mut state = path_hash.wrapping_add(word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state).to_le_bytes()
}

/// Origin content: a pure function of the path, so any window of any body
/// can be recomputed by the checker without keeping the body around.
pub fn body_for(path: &str, len: usize) -> Vec<u8> {
    let hash = fnv1a(path.as_bytes());
    let mut body = Vec::with_capacity(len + 8);
    let mut word = 0u64;
    while body.len() < len {
        body.extend_from_slice(&body_word(hash, word));
        word += 1;
    }
    body.truncate(len);
    body
}

/// True when `body` carries the bytes `body_for(path, ..)` would at three
/// 32-byte windows: the start, the end, and one whose place depends on the
/// path (so a body shifted or spliced anywhere is caught over many
/// requests without comparing a megabyte on every reply).
pub fn body_windows_match(path: &str, body: &[u8]) -> bool {
    const WINDOW: usize = 32;
    let hash = fnv1a(path.as_bytes());
    let last = body.len().saturating_sub(WINDOW);
    let middle = if last == 0 {
        0
    } else {
        (hash >> 17) as usize % last
    };
    [0, middle, last].into_iter().all(|start| {
        let end = (start + WINDOW).min(body.len());
        (start..end).all(|i| body[i] == body_word(hash, (i / 8) as u64)[i % 8])
    })
}

/// Key order for the resident-key workloads: Zipf with exponent 1.0 over
/// the workload's keys, drawn from the seed.
pub struct KeySequence {
    cdf: Vec<f64>,
    state: u64,
}

impl KeySequence {
    pub fn new(keys: usize, seed: u64) -> KeySequence {
        let mut cdf = Vec::with_capacity(keys);
        let mut total = 0.0;
        for rank in 1..=keys {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        KeySequence { cdf, state: seed }
    }

    pub fn next_key(&mut self) -> usize {
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_windows_accept_the_real_body_and_reject_a_shifted_one() {
        let path = Workload::HitSmall.key_path(7);
        let body = body_for(&path, PAGE_BYTES);
        assert_eq!(body.len(), PAGE_BYTES);
        assert!(body_windows_match(&path, &body));
        let mut shifted = body.clone();
        shifted.rotate_left(1);
        assert!(!body_windows_match(&path, &shifted));
        assert!(!body_windows_match(&Workload::HitSmall.key_path(8), &body));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_repeats_for_a_seed() {
        let draw = |seed| {
            let mut seq = KeySequence::new(1000, seed);
            (0..10_000).map(|_| seq.next_key()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let firsts = a.iter().filter(|&&k| k == 0).count();
        let lasts = a.iter().filter(|&&k| k == 999).count();
        assert!(firsts > 1000 && lasts < 50, "{firsts} {lasts}");
    }

    #[test]
    fn paths_carry_their_body_size() {
        assert_eq!(body_len_of(&Workload::StreamLarge.key_path(3)), Some(MIB));
        assert_eq!(body_len_of(&unique_path(5, 9)), Some(PAGE_BYTES));
        assert_eq!(body_len_of("/nakika.js"), None);
    }
}
