//! SWIM-style gossip membership: dynamic rosters with failure detection.
//!
//! The simulator and the early TCP cluster distributed their rosters by
//! hand — every process was told the full membership once and never learned
//! about a crash.  This module is the *dynamic* membership layer: each node
//! runs a [`Membership`] state machine that periodically probes one peer,
//! escalates an unresponsive peer through indirect probes, and moves it
//! `alive → suspect → faulty` on a timeout, with incarnation numbers letting
//! a falsely accused node refute the suspicion.  Every probe doubles as an
//! anti-entropy exchange: both sides swap compact roster *digests*, so a
//! node seeded with a single `--join` address converges to the full roster
//! in a handful of rounds.
//!
//! The state machine is deliberately **sans-I/O**: it never opens a socket
//! and never reads a wall clock behind the caller's back.  A driver (the
//! gossip worker in `nakika-core`) calls [`Membership::poll`], performs the
//! [`ProbeAction`]s it returns over whatever transport it has, and reports
//! the outcomes back via [`Membership::on_ack`] /
//! [`Membership::on_probe_failed`] / [`Membership::merge_digest`].  Tests
//! drive the identical code on a manual clock
//! ([`Membership::with_manual_clock`] + [`Membership::advance`]), so the
//! suspect/faulty timing is pinned deterministically.
//!
//! State changes that matter to routing come back as [`MembershipEvent`]s;
//! the driver applies them to the [`Overlay`](crate::Overlay)
//! (`join_with_addr` on joins and recoveries, [`fail`](crate::Overlay::fail)
//! on faulty verdicts), which re-homes key ownership automatically — the
//! consistent-hash owner of a key is always computed from the *live* roster.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Timing and fan-out knobs for the membership protocol.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// Milliseconds between probe rounds (one direct ping per round).
    pub probe_interval_ms: u64,
    /// How long a suspect may stay unrefuted before it is declared faulty.
    pub suspect_timeout_ms: u64,
    /// How many relays are asked to probe indirectly when a direct probe
    /// fails (SWIM's `k`).
    pub indirect_probes: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            probe_interval_ms: 250,
            suspect_timeout_ms: 1_000,
            indirect_probes: 2,
        }
    }
}

/// A member's health as judged by the local failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Responding to probes (or not yet probed).
    Alive,
    /// Missed a direct and indirect probe round; awaiting refutation.
    Suspect,
    /// Suspicion timed out unrefuted: treated as crashed.
    Faulty,
}

/// A snapshot of one peer as the membership currently sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerInfo {
    /// The peer's node name (its overlay identity is `key_for(name)`).
    pub name: String,
    /// Base URL of the peer's proxy front-end.
    pub addr: String,
    /// The peer's incarnation number (bumped by the peer itself to refute
    /// suspicion; higher incarnations supersede lower ones everywhere).
    pub incarnation: u64,
    /// Current failure-detector verdict.
    pub state: PeerState,
}

/// A roster change the driver must apply to the routing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MembershipEvent {
    /// A member was learned for the first time: join it into the overlay.
    Joined {
        /// The member's node name.
        name: String,
        /// Base URL of the member's proxy front-end.
        addr: String,
    },
    /// A previously suspect or faulty member proved alive again.
    Recovered {
        /// The member's node name.
        name: String,
        /// Base URL of the member's proxy front-end.
        addr: String,
    },
    /// A member was declared faulty: fail it out of the overlay so key
    /// ownership re-homes.
    Failed {
        /// The member's node name.
        name: String,
    },
}

/// Work the driver should perform for this probe round.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeAction {
    /// Exchange digests with this address.  `name` is `None` when the
    /// target is a bootstrap seed whose identity is not yet known; named
    /// targets that fail the direct exchange should be probed indirectly
    /// (see [`Membership::relay_candidates`]) before
    /// [`Membership::on_probe_failed`] is called.
    Ping {
        /// The target's node name, if already a roster member.
        name: Option<String>,
        /// The target's base URL.
        addr: String,
    },
}

/// Counters the stats endpoint exposes; see `/__nakika/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Members currently alive, the local node included.
    pub alive: u64,
    /// Members currently under unrefuted suspicion.
    pub suspect: u64,
    /// Members declared faulty (kept as tombstones so stale gossip cannot
    /// resurrect them without a higher incarnation).
    pub faulty: u64,
    /// Direct probes issued by the local prober.
    pub probes_sent: u64,
    /// Bumped on every roster change (joins, state transitions, refutations).
    pub roster_version: u64,
}

/// Placeholder emitted in digests while the local address is unknown;
/// parsers skip entries carrying it.
const NO_ADDR: &str = "-";

enum ClockSource {
    Wall(Instant),
    Manual(AtomicU64),
}

struct PeerRecord {
    addr: String,
    incarnation: u64,
    state: PeerState,
    /// When the current suspicion started (meaningful while `Suspect`).
    suspected_at: u64,
}

struct Inner {
    peers: HashMap<String, PeerRecord>,
    self_addr: Option<String>,
    self_incarnation: u64,
    roster_version: u64,
    seeds: Vec<String>,
    probe_cursor: usize,
    last_probe_ms: Option<u64>,
    /// Peer addresses (or names) the data path reported as unreachable;
    /// drained by [`Membership::poll`] into suspicion.
    failure_hints: Vec<String>,
    probes_sent: u64,
}

/// The SWIM-style membership state machine for one node.  Thread-safe: the
/// gossip worker, the gossip endpoint and the data path all hold one `Arc`.
pub struct Membership {
    name: String,
    config: MembershipConfig,
    clock: ClockSource,
    inner: Mutex<Inner>,
}

impl Membership {
    /// A membership for the node `name`, timing probes on the wall clock.
    pub fn new(name: &str, config: MembershipConfig) -> Membership {
        Membership::with_clock(name, config, ClockSource::Wall(Instant::now()))
    }

    /// A membership timed by [`advance`](Self::advance) instead of the wall
    /// clock, so tests pin suspect/faulty transitions deterministically.
    pub fn with_manual_clock(name: &str, config: MembershipConfig) -> Membership {
        Membership::with_clock(name, config, ClockSource::Manual(AtomicU64::new(0)))
    }

    fn with_clock(name: &str, config: MembershipConfig, clock: ClockSource) -> Membership {
        Membership {
            name: name.to_string(),
            config,
            clock,
            inner: Mutex::new(Inner {
                peers: HashMap::new(),
                self_addr: None,
                self_incarnation: 0,
                roster_version: 0,
                seeds: Vec::new(),
                probe_cursor: 0,
                last_probe_ms: None,
                failure_hints: Vec::new(),
                probes_sent: 0,
            }),
        }
    }

    /// The local node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured timing knobs.
    pub fn config(&self) -> &MembershipConfig {
        &self.config
    }

    /// Advances the manual clock by `ms`.  No-op on a wall-clock membership.
    pub fn advance(&self, ms: u64) {
        if let ClockSource::Manual(now) = &self.clock {
            now.fetch_add(ms, Ordering::SeqCst);
        }
    }

    fn now_ms(&self) -> u64 {
        match &self.clock {
            ClockSource::Wall(start) => start.elapsed().as_millis() as u64,
            ClockSource::Manual(now) => now.load(Ordering::SeqCst),
        }
    }

    /// Records the local node's base URL once the server has bound its
    /// port.  Probing stays dormant until this is called — a digest without
    /// a reply address would be useless to the peers merging it.
    pub fn set_self_addr(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.self_addr = Some(addr.to_string());
        inner.roster_version += 1;
    }

    /// The announced local base URL, if known yet.
    pub fn self_addr(&self) -> Option<String> {
        self.inner.lock().self_addr.clone()
    }

    /// Adds a bootstrap seed address.  Seeds are probed whenever the roster
    /// holds no live peer, so a node started with one `--join` address finds
    /// the cluster and a fully partitioned node keeps retrying.
    pub fn add_seed(&self, addr: &str) {
        let mut inner = self.inner.lock();
        let addr = addr.trim_end_matches('/').to_string();
        if !inner.seeds.contains(&addr) {
            inner.seeds.push(addr);
        }
    }

    /// Negative evidence from the data path: a peer fetch to `peer` (a base
    /// URL or node name) failed.  The hint is queued and converted into
    /// suspicion on the next [`poll`](Self::poll) — suspicion, not a
    /// verdict, because a single failed fetch may be the fetcher's fault,
    /// and the suspect can still refute through gossip.
    pub fn note_failure(&self, peer: &str) {
        let mut inner = self.inner.lock();
        let peer = peer.trim_end_matches('/');
        if inner.failure_hints.iter().any(|h| h == peer) {
            return;
        }
        inner.failure_hints.push(peer.to_string());
    }

    /// One scheduler tick: drains queued failure hints into suspicion,
    /// times suspects out into faulty verdicts, and — when a probe round is
    /// due — picks the next probe target (round-robin over non-faulty
    /// peers, falling back to the seeds while no live peer is known).
    /// Returns the probes to perform and the roster events to apply.
    /// Returns nothing until [`set_self_addr`](Self::set_self_addr).
    pub fn poll(&self) -> (Vec<ProbeAction>, Vec<MembershipEvent>) {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        if inner.self_addr.is_none() {
            return (Vec::new(), Vec::new());
        }
        let mut events = Vec::new();

        // Failure hints from the data path start (or refresh) suspicion.
        let hints = std::mem::take(&mut inner.failure_hints);
        for hint in hints {
            let hit = inner
                .peers
                .iter_mut()
                .find(|(name, rec)| rec.addr.trim_end_matches('/') == hint || **name == hint);
            if let Some((_, rec)) = hit {
                if rec.state == PeerState::Alive {
                    rec.state = PeerState::Suspect;
                    rec.suspected_at = now;
                    inner.roster_version += 1;
                }
            }
        }

        // Unrefuted suspicion times out into a faulty verdict.
        let timeout = self.config.suspect_timeout_ms;
        for (name, rec) in inner.peers.iter_mut() {
            if rec.state == PeerState::Suspect && now >= rec.suspected_at.saturating_add(timeout) {
                rec.state = PeerState::Faulty;
                events.push(MembershipEvent::Failed {
                    name: clone_name(name),
                });
            }
        }
        inner.roster_version += events.len() as u64;

        // Probe scheduling.
        let due = match inner.last_probe_ms {
            None => true,
            Some(last) => now >= last.saturating_add(self.config.probe_interval_ms),
        };
        let mut actions = Vec::new();
        if due {
            inner.last_probe_ms = Some(now);
            let candidates: Vec<(String, String)> = inner
                .peers
                .iter()
                .filter(|(_, rec)| rec.state != PeerState::Faulty)
                .map(|(name, rec)| (name.clone(), rec.addr.clone()))
                .collect();
            let any_alive = inner
                .peers
                .values()
                .any(|rec| rec.state == PeerState::Alive);
            if let Some((name, addr)) = pick_round_robin(&candidates, &mut inner.probe_cursor) {
                actions.push(ProbeAction::Ping {
                    name: Some(name),
                    addr,
                });
            }
            if !any_alive {
                let self_addr = inner.self_addr.clone();
                for seed in inner.seeds.clone() {
                    if self_addr.as_deref() == Some(seed.as_str()) {
                        continue;
                    }
                    if actions
                        .iter()
                        .any(|ProbeAction::Ping { addr, .. }| *addr == seed)
                    {
                        continue;
                    }
                    actions.push(ProbeAction::Ping {
                        name: None,
                        addr: seed,
                    });
                }
            }
            inner.probes_sent += actions.len() as u64;
        }
        (actions, events)
    }

    /// A probe target answered: a suspect is cleared back to alive on this
    /// direct evidence (gossiped suspicion elsewhere still needs the
    /// target's own incarnation bump to die out).
    pub fn on_ack(&self, name: &str) {
        let mut inner = self.inner.lock();
        if let Some(rec) = inner.peers.get_mut(name) {
            if rec.state == PeerState::Suspect {
                rec.state = PeerState::Alive;
                inner.roster_version += 1;
            }
        }
    }

    /// Both the direct probe and every indirect relay failed to reach
    /// `name`: start (or keep) suspicion.  The faulty verdict only comes
    /// from [`poll`](Self::poll) once the suspicion times out unrefuted.
    pub fn on_probe_failed(&self, name: &str) {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        if let Some(rec) = inner.peers.get_mut(name) {
            if rec.state == PeerState::Alive {
                rec.state = PeerState::Suspect;
                rec.suspected_at = now;
                inner.roster_version += 1;
            }
        }
    }

    /// Up to `indirect_probes` alive peers other than `exclude`, to relay
    /// an indirect probe (SWIM's ping-req) through.
    pub fn relay_candidates(&self, exclude: &str) -> Vec<PeerInfo> {
        let inner = self.inner.lock();
        inner
            .peers
            .iter()
            .filter(|(name, rec)| rec.state == PeerState::Alive && name.as_str() != exclude)
            .take(self.config.indirect_probes)
            .map(|(name, rec)| PeerInfo {
                name: name.clone(),
                addr: rec.addr.clone(),
                incarnation: rec.incarnation,
                state: rec.state,
            })
            .collect()
    }

    /// The wire digest: `;`-separated `state name addr incarnation`
    /// entries, the local node first as `self`.  Single-line by
    /// construction, so it rides equally well in the `X-Nakika-Gossip`
    /// header and a response body.
    pub fn digest(&self) -> String {
        let inner = self.inner.lock();
        let mut out = format!(
            "self {} {} {}",
            self.name,
            inner.self_addr.as_deref().unwrap_or(NO_ADDR),
            inner.self_incarnation
        );
        for (name, rec) in inner.peers.iter() {
            let state = match rec.state {
                PeerState::Alive => "alive",
                PeerState::Suspect => "suspect",
                PeerState::Faulty => "faulty",
            };
            out.push_str(&format!(";{state} {name} {} {}", rec.addr, rec.incarnation));
        }
        out
    }

    /// Merges a digest received from a peer (entries split on `;` or
    /// newlines; unparseable entries are skipped, never fatal).  Returns
    /// the roster events the merge produced.  An entry accusing the local
    /// node of being suspect or faulty at our current incarnation is
    /// refuted by bumping our incarnation, which our next digests carry.
    pub fn merge_digest(&self, digest: &str) -> Vec<MembershipEvent> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let mut events = Vec::new();
        for entry in digest
            .split([';', '\n'])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let mut fields = entry.split_whitespace();
            let (Some(state), Some(name), Some(addr), Some(inc)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            let Ok(incarnation) = inc.parse::<u64>() else {
                continue;
            };
            let state = match state {
                "self" | "alive" => PeerState::Alive,
                "suspect" => PeerState::Suspect,
                "faulty" => PeerState::Faulty,
                _ => continue,
            };
            if addr == NO_ADDR {
                continue;
            }
            if name == self.name {
                if state != PeerState::Alive && incarnation >= inner.self_incarnation {
                    // Refute: a higher incarnation supersedes the suspicion
                    // wherever the accusation has spread.
                    inner.self_incarnation = incarnation + 1;
                    inner.roster_version += 1;
                }
                continue;
            }
            merge_entry(
                &self.name,
                &mut inner,
                &mut events,
                state,
                name,
                addr,
                incarnation,
                now,
            );
        }
        events
    }

    /// Snapshot of every known peer (all states; the local node excluded).
    pub fn members(&self) -> Vec<PeerInfo> {
        let inner = self.inner.lock();
        inner
            .peers
            .iter()
            .map(|(name, rec)| PeerInfo {
                name: name.clone(),
                addr: rec.addr.clone(),
                incarnation: rec.incarnation,
                state: rec.state,
            })
            .collect()
    }

    /// Counter snapshot for the stats endpoint.
    pub fn stats(&self) -> GossipStats {
        let inner = self.inner.lock();
        let mut stats = GossipStats {
            alive: 1, // the local node
            probes_sent: inner.probes_sent,
            roster_version: inner.roster_version,
            ..GossipStats::default()
        };
        for rec in inner.peers.values() {
            match rec.state {
                PeerState::Alive => stats.alive += 1,
                PeerState::Suspect => stats.suspect += 1,
                PeerState::Faulty => stats.faulty += 1,
            }
        }
        stats
    }
}

fn clone_name(name: &str) -> String {
    name.to_string()
}

fn pick_round_robin(
    candidates: &[(String, String)],
    cursor: &mut usize,
) -> Option<(String, String)> {
    if candidates.is_empty() {
        return None;
    }
    let (name, addr) = candidates[*cursor % candidates.len()].clone();
    *cursor = cursor.wrapping_add(1);
    Some((name, addr))
}

/// SWIM's merge precedence for one digest entry about peer `name`:
/// `alive{i}` supersedes any record with a lower incarnation; `suspect{i}`
/// additionally supersedes `alive{i}` at the *same* incarnation (that is
/// what forces the accused to bump); `faulty{i}` supersedes anything up to
/// and including incarnation `i` except an existing faulty record.
#[allow(clippy::too_many_arguments)]
fn merge_entry(
    self_name: &str,
    inner: &mut Inner,
    events: &mut Vec<MembershipEvent>,
    state: PeerState,
    name: &str,
    addr: &str,
    incarnation: u64,
    now: u64,
) {
    debug_assert_ne!(name, self_name, "self entries are handled by the caller");
    match inner.peers.get_mut(name) {
        None => {
            inner.peers.insert(
                name.to_string(),
                PeerRecord {
                    addr: addr.to_string(),
                    incarnation,
                    state,
                    suspected_at: now,
                },
            );
            inner.roster_version += 1;
            if state != PeerState::Faulty {
                events.push(MembershipEvent::Joined {
                    name: name.to_string(),
                    addr: addr.to_string(),
                });
            }
        }
        Some(rec) => {
            let supersedes = match (state, rec.state) {
                (PeerState::Suspect, PeerState::Alive) => incarnation >= rec.incarnation,
                (PeerState::Faulty, PeerState::Alive | PeerState::Suspect) => {
                    incarnation >= rec.incarnation
                }
                _ => incarnation > rec.incarnation,
            };
            if !supersedes {
                return;
            }
            let was = rec.state;
            rec.incarnation = incarnation;
            rec.addr = addr.to_string();
            rec.state = state;
            if state == PeerState::Suspect && was != PeerState::Suspect {
                rec.suspected_at = now;
            }
            inner.roster_version += 1;
            match (was, state) {
                (PeerState::Suspect | PeerState::Faulty, PeerState::Alive) => {
                    events.push(MembershipEvent::Recovered {
                        name: name.to_string(),
                        addr: addr.to_string(),
                    });
                }
                (PeerState::Alive | PeerState::Suspect, PeerState::Faulty) => {
                    events.push(MembershipEvent::Failed {
                        name: name.to_string(),
                    });
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MembershipConfig {
        MembershipConfig {
            probe_interval_ms: 100,
            suspect_timeout_ms: 400,
            indirect_probes: 2,
        }
    }

    fn member(name: &str) -> Membership {
        let m = Membership::with_manual_clock(name, config());
        m.set_self_addr(&format!(
            "http://127.0.0.1:1{name_port}",
            name_port = name.len()
        ));
        m
    }

    fn states(m: &Membership) -> HashMap<String, PeerState> {
        m.members().into_iter().map(|p| (p.name, p.state)).collect()
    }

    #[test]
    fn probing_is_dormant_until_the_self_addr_is_known() {
        let m = Membership::with_manual_clock("alpha", config());
        m.add_seed("http://127.0.0.1:9001");
        let (actions, events) = m.poll();
        assert!(actions.is_empty() && events.is_empty());
        m.set_self_addr("http://127.0.0.1:9000");
        let (actions, _) = m.poll();
        assert_eq!(
            actions,
            vec![ProbeAction::Ping {
                name: None,
                addr: "http://127.0.0.1:9001".to_string()
            }]
        );
    }

    #[test]
    fn seeds_are_probed_until_a_live_peer_is_known() {
        let m = member("alpha");
        m.add_seed("http://127.0.0.1:9001");
        let (actions, _) = m.poll();
        assert_eq!(actions.len(), 1, "the seed is the only target");
        // Merging the seed's digest names it; the next round probes it as a
        // member, not as a seed.
        m.merge_digest("self beta http://127.0.0.1:9001 0");
        m.advance(100);
        let (actions, _) = m.poll();
        assert_eq!(
            actions,
            vec![ProbeAction::Ping {
                name: Some("beta".to_string()),
                addr: "http://127.0.0.1:9001".to_string()
            }]
        );
    }

    #[test]
    fn merge_learns_the_full_roster_from_one_digest() {
        let m = member("alpha");
        let events = m.merge_digest(
            "self beta http://b:1 0;alive gamma http://c:2 3;faulty dead http://d:3 1",
        );
        assert_eq!(events.len(), 2, "faulty members do not emit joins");
        let s = states(&m);
        assert_eq!(s["beta"], PeerState::Alive);
        assert_eq!(s["gamma"], PeerState::Alive);
        assert_eq!(s["dead"], PeerState::Faulty, "tombstone recorded");
        // Stale gossip cannot resurrect the tombstone at the same incarnation.
        let events = m.merge_digest("alive dead http://d:3 1");
        assert!(events.is_empty());
        assert_eq!(states(&m)["dead"], PeerState::Faulty);
        // A higher incarnation (the node actually restarted) can.
        let events = m.merge_digest("alive dead http://d:3 2");
        assert_eq!(
            events,
            vec![MembershipEvent::Recovered {
                name: "dead".to_string(),
                addr: "http://d:3".to_string()
            }]
        );
    }

    #[test]
    fn failed_probes_suspect_then_fault_on_the_manual_clock() {
        let m = member("alpha");
        m.merge_digest("self beta http://b:1 0");
        m.on_probe_failed("beta");
        assert_eq!(states(&m)["beta"], PeerState::Suspect);
        // Just before the timeout the suspect is still only a suspect.
        m.advance(399);
        let (_, events) = m.poll();
        assert!(events.is_empty());
        assert_eq!(states(&m)["beta"], PeerState::Suspect);
        // One more millisecond and the verdict lands, exactly once.
        m.advance(1);
        let (_, events) = m.poll();
        assert_eq!(
            events,
            vec![MembershipEvent::Failed {
                name: "beta".to_string()
            }]
        );
        assert_eq!(states(&m)["beta"], PeerState::Faulty);
        let (_, events) = m.poll();
        assert!(events.is_empty(), "the verdict does not repeat");
    }

    #[test]
    fn an_ack_clears_suspicion_before_the_timeout() {
        let m = member("alpha");
        m.merge_digest("self beta http://b:1 0");
        m.on_probe_failed("beta");
        m.advance(399);
        m.on_ack("beta");
        m.advance(1_000);
        let (_, events) = m.poll();
        assert!(events.is_empty());
        assert_eq!(states(&m)["beta"], PeerState::Alive);
    }

    #[test]
    fn suspicion_supersedes_alive_at_the_same_incarnation_only() {
        let m = member("alpha");
        m.merge_digest("self beta http://b:1 4");
        // Gossiped suspicion at the current incarnation sticks...
        m.merge_digest("suspect beta http://b:1 4");
        assert_eq!(states(&m)["beta"], PeerState::Suspect);
        // ...and the refutation (alive at a higher incarnation) clears it.
        let events = m.merge_digest("alive beta http://b:1 5");
        assert_eq!(
            events,
            vec![MembershipEvent::Recovered {
                name: "beta".to_string(),
                addr: "http://b:1".to_string()
            }]
        );
        // Stale suspicion at the old incarnation no longer bites.
        m.merge_digest("suspect beta http://b:1 4");
        assert_eq!(states(&m)["beta"], PeerState::Alive);
    }

    #[test]
    fn being_accused_bumps_the_local_incarnation() {
        let m = member("alpha");
        let before = m.digest();
        assert!(before.starts_with("self alpha "));
        assert!(before.ends_with(" 0"));
        m.merge_digest("suspect alpha http://a:1 0");
        assert!(m.digest().ends_with(" 1"), "refutation carried in digests");
        // An accusation at a stale incarnation is ignored.
        m.merge_digest("faulty alpha http://a:1 0");
        assert!(m.digest().ends_with(" 1"));
    }

    #[test]
    fn data_path_failure_hints_become_suspicion_on_the_next_poll() {
        let m = member("alpha");
        m.merge_digest("self beta http://b:1 0");
        m.note_failure("http://b:1/");
        assert_eq!(states(&m)["beta"], PeerState::Alive, "hint is queued only");
        let _ = m.poll();
        assert_eq!(states(&m)["beta"], PeerState::Suspect);
        // The suspicion then times out like any other.
        m.advance(400);
        let (_, events) = m.poll();
        assert_eq!(
            events,
            vec![MembershipEvent::Failed {
                name: "beta".to_string()
            }]
        );
    }

    #[test]
    fn two_memberships_converge_by_swapping_digests() {
        let a = member("alpha");
        let b = member("beta");
        let c = member("gamma");
        // beta knows gamma; alpha only knows beta.
        b.merge_digest(&c.digest());
        a.merge_digest(&b.digest());
        let s = states(&a);
        assert_eq!(s.len(), 2, "alpha learned gamma transitively: {s:?}");
        assert!(s.contains_key("beta") && s.contains_key("gamma"));
        // And the digests agree on the roster version's purpose: counting.
        assert!(a.stats().roster_version >= 2);
        assert_eq!(a.stats().alive, 3);
    }

    #[test]
    fn probe_rounds_honor_the_interval_and_rotate_targets() {
        let m = member("alpha");
        m.merge_digest("self beta http://b:1 0;alive gamma http://c:2 0");
        let (first, _) = m.poll();
        assert_eq!(first.len(), 1);
        // Not due yet: no probe.
        m.advance(50);
        assert!(m.poll().0.is_empty());
        m.advance(50);
        let (second, _) = m.poll();
        assert_eq!(second.len(), 1);
        assert_ne!(first, second, "round-robin rotates across the roster");
        assert_eq!(m.stats().probes_sent, 2);
    }

    #[test]
    fn relay_candidates_exclude_the_target_and_non_alive_peers() {
        let m = member("alpha");
        m.merge_digest(
            "self beta http://b:1 0;alive gamma http://c:2 0;suspect delta http://d:3 0",
        );
        let relays = m.relay_candidates("beta");
        assert_eq!(relays.len(), 1);
        assert_eq!(relays[0].name, "gamma");
    }
}
