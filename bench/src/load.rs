//! The load generator: two threads, one keep-alive connection each, one
//! request in flight per connection.
//!
//! Three loops share one request source and one reply check: a fixed count
//! (warm-up), a fixed arrival rate (open loop: requests leave on a schedule
//! and are timed from when they were due, so a stall is charged to every
//! request it delays) and a fixed duration (closed loop: the next request
//! leaves when the reply arrives, so the figures are capacity figures).

use crate::client::{get_request, Client};
use crate::hist::Histogram;
use crate::procstat;
use crate::workload::{body_windows_match, unique_path, KeySequence, Workload};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Connections, and threads driving them.  Equal to the cores of the
/// machine the bounds were set on; one connection would measure the
/// kernel's idle wake-up, not the program (see the README).
pub const CONNECTIONS: usize = 2;

/// One connection plus the part of the request sequence it sends.
pub struct Connection {
    client: Client,
    workload: Workload,
    origin_authority: String,
    seed: u64,
    index: usize,
    /// Resident keys: their paths and ready-made request bytes.
    keys: Vec<(String, Vec<u8>)>,
    order: KeySequence,
    /// Never-repeating URLs sent so far by this connection.
    uniques: u64,
    /// Header the scripted workload's handler must have set.
    expect_script_work: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failure_notes: Vec<String>,
}

impl Connection {
    pub fn open(
        proxy: SocketAddr,
        origin_authority: &str,
        workload: Workload,
        seed: u64,
        index: usize,
        expect_script_work: Option<String>,
    ) -> std::io::Result<Connection> {
        let keys = (0..workload.key_count().unwrap_or(0))
            .map(|k| {
                let path = workload.key_path(k);
                let wire = get_request(origin_authority, &path);
                (path, wire)
            })
            .collect::<Vec<_>>();
        Ok(Connection {
            client: Client::connect(proxy)?,
            workload,
            origin_authority: origin_authority.to_string(),
            seed,
            index,
            order: KeySequence::new(keys.len().max(1), seed * CONNECTIONS as u64 + index as u64),
            keys,
            uniques: 0,
            expect_script_work,
            attempted: 0,
            failed: 0,
            failure_notes: Vec::new(),
        })
    }

    /// Sends the next request of the sequence and checks the reply.  False
    /// for a failure (already counted; the connection has been replaced).
    pub fn request(&mut self) -> bool {
        self.send(None)
    }

    /// Requests this connection's share of the resident keys, each once.
    fn request_own_keys(&mut self) {
        for k in (self.index..self.keys.len()).step_by(CONNECTIONS) {
            self.send(Some(k));
        }
    }

    /// One checked exchange for resident key `key`, or for the next request
    /// of the sequence when `None`.  The check: status, length, sampled byte
    /// windows, and the script's header where one is due.
    fn send(&mut self, key: Option<usize>) -> bool {
        let unique;
        let (path, wire): (&str, &[u8]) = if self.keys.is_empty() {
            let n = self.uniques * CONNECTIONS as u64 + self.index as u64;
            self.uniques += 1;
            let path = unique_path(self.seed, n);
            let wire = get_request(&self.origin_authority, &path);
            unique = (path, wire);
            (&unique.0, &unique.1)
        } else {
            let k = match key {
                Some(k) => k,
                None => self.order.next_key(),
            };
            let (path, wire) = &self.keys[k];
            (path, wire)
        };
        self.attempted += 1;
        let want_len = self.workload.body_bytes();
        let checked = self.client.exchange(wire).and_then(|reply| {
            if reply.status != 200 {
                return Err(format!("status {}", reply.status));
            }
            if reply.body.len() != want_len {
                return Err(format!(
                    "{} body bytes, expected {want_len}",
                    reply.body.len()
                ));
            }
            if !body_windows_match(path, reply.body) {
                return Err("body bytes differ from the origin's".into());
            }
            if let Some(want) = &self.expect_script_work {
                if reply.header("x-script-work") != Some(want) {
                    return Err(format!(
                        "X-Script-Work is {:?}, expected {want}",
                        reply.header("x-script-work")
                    ));
                }
            }
            Ok(())
        });
        match checked {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failure_notes.len() < 5 {
                    self.failure_notes.push(format!("{path}: {why}"));
                }
                // The connection's state is unknown; start over on a new one.
                if let Err(e) = self.client.reconnect() {
                    self.failure_notes.push(format!("reconnect: {e}"));
                }
                false
            }
        }
    }
}

/// What one slice — about a second — of a phase measured.
pub struct Slice {
    pub completed: u64,
    /// Closed loop only: processor time the whole process used meanwhile.
    pub cpu_seconds: f64,
    /// Reply latency: from the send in a closed loop, from the due time in
    /// an open one.
    pub latency: Histogram,
    /// Open loop only: how long after its due time each request left.
    pub lateness: Histogram,
}

/// What one phase measured, merged over the connections.
///
/// Every figure is computed per slice, and the figure reported is that of
/// the best slice — the second with the most replies, the lowest
/// percentile, the least processor time per reply.  On a shared virtual
/// machine the disturbances are one-sided: a neighbour, a migration or a
/// scheduler reshuffle only ever makes a slice slower, and they come in
/// episodes longer than a slice, so a median over slices still moves with
/// how many of them were hit.  The least-disturbed second is what repeats
/// from run to run (see the README for the spreads measured both ways).
pub struct PhaseStats {
    pub seconds: f64,
    pub slice_seconds: f64,
    pub completed: u64,
    pub slices: Vec<Slice>,
}

impl PhaseStats {
    /// A phase of `seconds` cut into slices of about one second each.
    fn new(seconds: f64) -> PhaseStats {
        let count = (seconds.round() as usize).max(1);
        PhaseStats {
            seconds,
            slice_seconds: seconds / count as f64,
            completed: 0,
            slices: (0..count)
                .map(|_| Slice {
                    completed: 0,
                    cpu_seconds: 0.0,
                    latency: Histogram::new(),
                    lateness: Histogram::new(),
                })
                .collect(),
        }
    }

    /// The slice that `at` (time since the phase began) falls in.
    fn slice_at(&self, at: Duration) -> usize {
        (at.as_secs_f64() / self.slice_seconds) as usize
    }

    /// Books one reply against the slice `at` falls in; a reply past the
    /// last slice only counts in the total.
    fn record(&mut self, at: Duration, latency: Duration, lateness: Duration) {
        self.completed += 1;
        let index = self.slice_at(at);
        if let Some(slice) = self.slices.get_mut(index) {
            slice.completed += 1;
            slice.latency.record(latency.as_nanos() as u64);
            slice.lateness.record(lateness.as_nanos() as u64);
        }
    }

    fn absorb(&mut self, other: &PhaseStats) {
        self.completed += other.completed;
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.completed += theirs.completed;
            mine.cpu_seconds += theirs.cpu_seconds;
            mine.latency.merge(&theirs.latency);
            mine.lateness.merge(&theirs.lateness);
        }
    }

    /// Replies per second in the slice with the most replies.
    pub fn rps(&self) -> f64 {
        let most = self.slices.iter().map(|s| s.completed).max().unwrap_or(0);
        most as f64 / self.slice_seconds
    }

    fn lowest(&self, of: impl Fn(&Slice) -> f64) -> f64 {
        self.slices
            .iter()
            .filter(|s| s.completed > 0)
            .map(of)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// The `q` quantile of reply latency in the slice where it is lowest,
    /// in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        self.lowest(|s| s.latency.quantile_us(q))
    }

    /// The `q` quantile of send lateness in the slice where it is lowest,
    /// in microseconds.
    pub fn lateness_us(&self, q: f64) -> f64 {
        self.lowest(|s| s.lateness.quantile_us(q))
    }

    /// Process CPU time per reply in the slice where it is lowest, in
    /// microseconds (closed loop only).
    pub fn cpu_us_per_reply(&self) -> f64 {
        // A slice the first connection skipped over has no CPU reading.
        self.lowest(|s| match s.cpu_seconds > 0.0 {
            true => s.cpu_seconds * 1e6 / s.completed as f64,
            false => f64::INFINITY,
        })
    }

    /// Latency samples behind each per-slice quantile, in the smallest slice.
    pub fn samples_per_slice(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.latency.count())
            .min()
            .unwrap_or(0)
    }
}
/// Runs `per_connection` on every connection at once, one thread each, from
/// a common start a little in the future so that no thread is ahead.
fn on_all<T: Send>(
    connections: &mut [Connection],
    per_connection: impl Fn(&mut Connection, Instant) -> T + Sync,
) -> Vec<T> {
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .iter_mut()
            .map(|connection| {
                let per_connection = &per_connection;
                scope.spawn(move || {
                    spin_until(start);
                    per_connection(connection, start)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a load thread panicked"))
            .collect()
    })
}

fn merged(seconds: f64, per_connection: Vec<PhaseStats>) -> PhaseStats {
    let mut all = PhaseStats::new(seconds);
    for stats in &per_connection {
        all.absorb(stats);
    }
    all
}

/// Waits for `due` by spinning: the only wait that ends within a
/// microsecond of it.  A sleep ends tens of microseconds late and leaves
/// the processor idle, so the next reply would also pay the virtual
/// machine's wake-up; `yield_now` in a loop gets the thread starved.
fn spin_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The cache fill of set-up: every resident key requested once, the keys
/// dealt out over the connections.
pub fn fill_keys(connections: &mut [Connection]) {
    on_all(connections, |connection, _| connection.request_own_keys());
}

/// Warm-up: `total` requests split evenly over the connections, unmeasured.
pub fn fixed_count(connections: &mut [Connection], total: u64) {
    let each = total / connections.len() as u64;
    on_all(connections, |connection, _| {
        for _ in 0..each {
            connection.request();
        }
    });
}

/// Open loop: `rate` requests per second over all connections for
/// `seconds`, each connection taking every `CONNECTIONS`-th arrival.  A
/// request is booked in the slice it was due in.
pub fn open_loop(connections: &mut [Connection], rate: f64, seconds: f64) -> PhaseStats {
    let interval = Duration::from_secs_f64(connections.len() as f64 / rate);
    let each = (seconds * rate / connections.len() as f64) as u32;
    let stagger = interval / connections.len() as u32;
    let per_connection = on_all(connections, |connection, start| {
        let mut stats = PhaseStats::new(seconds);
        let first = start + stagger * connection.index as u32;
        for i in 0..each {
            let due = first + interval * i;
            spin_until(due);
            let sent = Instant::now();
            if connection.request() {
                stats.record(due - start, due.elapsed(), sent - due);
            }
        }
        stats
    });
    merged(seconds, per_connection)
}

/// Closed loop: every connection sends its next request as soon as the
/// reply to the last one has been read and checked, for `seconds`.  A
/// reply is booked in the slice it arrived in.  The first connection also
/// reads the process's CPU time each time it crosses into a new slice, so
/// every slice knows the processor time all threads spent during it.
pub fn closed_loop(connections: &mut [Connection], seconds: f64) -> PhaseStats {
    let length = Duration::from_secs_f64(seconds);
    let per_connection = on_all(connections, |connection, start| {
        let mut stats = PhaseStats::new(seconds);
        let keeps_cpu_time = connection.index == 0;
        let mut cpu_slice = 0;
        let mut cpu_mark = procstat::cpu_seconds();
        loop {
            let sent = Instant::now();
            let in_slice = stats.slice_at(sent - start).min(stats.slices.len());
            if keeps_cpu_time && in_slice > cpu_slice {
                let now = procstat::cpu_seconds();
                stats.slices[cpu_slice].cpu_seconds = now - cpu_mark;
                (cpu_slice, cpu_mark) = (in_slice, now);
            }
            if sent >= start + length {
                break;
            }
            if connection.request() {
                let done = Instant::now();
                stats.record(done - start, done - sent, Duration::ZERO);
            }
        }
        stats
    });
    merged(seconds, per_connection)
}
