//! Helpers for standing up cooperative edge clusters over real TCP.
//!
//! Everything the multi-node story needs outside the core crates lives
//! here, in three layers:
//!
//! * [`LocalNode`] — an in-process edge node (overlay-joined
//!   [`nakika_core::NaKikaNode`] + [`TcpOrigin`] + [`ProxyServer`] on an
//!   ephemeral port) for benchmarks and integration tests that want real
//!   sockets without real processes.
//! * [`node_main`] — the child entrypoint behind the `edge-node` binary and
//!   the `edge_cluster` example: one OS process per node, which prints
//!   `READY <name> <base-url>` once listening and serves until its stdin
//!   reaches EOF.
//! * [`spawn_gossip_cluster`] / [`ClusterProc`] — the parent side: spawn a
//!   seed and N-1 children that `--join` it, collect their `READY` lines,
//!   and shut everything down by closing stdin on drop.
//!
//! Every node also serves its counters at [`STATS_PATH`] as plain text
//! (`key value` per line) so tests and operators can assert cluster-wide
//! cache-stat consistency over the same HTTP port that serves traffic.
//! `docs/CLUSTER.md` is the operator-facing guide to the same machinery.

use nakika_core::service::{DispatchHint, HttpService, NakikaError, RequestCtx};
use nakika_core::{NodeBuilder, NodeHandle};
use nakika_http::{Request, Response};
use nakika_overlay::{key_for, Location, Membership, MembershipConfig, Overlay};
use nakika_server::{http_get_via_proxy, ProxyServer, TcpOrigin};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;

/// Path every cluster node answers with its counters (plain text, one
/// `key value` pair per line) instead of proxying.
pub const STATS_PATH: &str = "/__nakika/stats";

/// Wraps a node's service to answer [`STATS_PATH`] locally; everything
/// else is forwarded untouched.  The stats response is assembled from
/// in-memory counters, so it is safe to serve inline on the event loop.
pub struct ClusterService {
    handle: Arc<NodeHandle>,
    name: String,
}

impl ClusterService {
    /// Wraps `handle`, reporting stats under `name`.
    pub fn new(handle: Arc<NodeHandle>, name: &str) -> ClusterService {
        ClusterService {
            handle,
            name: name.to_string(),
        }
    }
}

impl HttpService for ClusterService {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        if req.uri.path == STATS_PATH {
            return Ok(Response::ok(
                "text/plain",
                stats_text(&self.handle, &self.name),
            ));
        }
        self.handle.call(req, ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        if req.uri.path == STATS_PATH {
            DispatchHint::Inline
        } else {
            self.handle.dispatch_hint(req, ctx)
        }
    }
}

/// Renders the counters served at [`STATS_PATH`]: the node's request
/// counters plus the cache shard totals, one `key value` pair per line
/// (the `node` line carries the node's name instead of a number).  Nodes
/// running gossip membership append their `gossip_*` counters.
pub fn stats_text(handle: &NodeHandle, name: &str) -> String {
    let stats = handle.node().stats();
    let cache = handle.node().cache_stats();
    let mut text = format!(
        "node {name}\n\
         requests {}\n\
         cache_hits {}\n\
         cache_misses {}\n\
         cache_inserts {}\n\
         peer_hits {}\n\
         peer_misses {}\n\
         origin_fetches {}\n\
         replication_pushes {}\n\
         owner_redirects {}\n\
         script_compiles {}\n\
         script_cache_hits {}\n",
        stats.requests,
        cache.hits,
        cache.misses,
        cache.inserts,
        stats.peer_hits,
        stats.peer_misses,
        stats.origin_fetches,
        stats.replication_pushes,
        stats.owner_redirects,
        cache.script_compiles,
        cache.script_cache_hits,
    );
    if let Some(membership) = handle.membership() {
        let gossip = membership.stats();
        text.push_str(&format!(
            "gossip_alive {}\n\
             gossip_suspect {}\n\
             gossip_faulty {}\n\
             gossip_probes {}\n\
             gossip_roster_version {}\n",
            gossip.alive, gossip.suspect, gossip.faulty, gossip.probes_sent, gossip.roster_version,
        ));
    }
    text
}

/// Parses a [`STATS_PATH`] response body back into a counter map.
/// Non-numeric values (the `node` name line) are skipped.
pub fn parse_stats(body: &str) -> HashMap<String, u64> {
    body.lines()
        .filter_map(|line| {
            let (key, value) = line.trim().split_once(' ')?;
            Some((key.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Fetches and parses the stats of the node listening at `base_url`
/// (e.g. `http://127.0.0.1:4701`).
pub fn fetch_stats(base_url: &str) -> Result<HashMap<String, u64>, NakikaError> {
    let addr = parse_base_url(base_url)?;
    let response = http_get_via_proxy(addr, &format!("{base_url}{STATS_PATH}"))?;
    let body = response.body.to_bytes();
    Ok(parse_stats(&String::from_utf8_lossy(&body)))
}

/// Parses `http://host:port` into a socket address.
fn parse_base_url(base_url: &str) -> Result<SocketAddr, NakikaError> {
    let hostport = base_url
        .strip_prefix("http://")
        .unwrap_or(base_url)
        .trim_end_matches('/');
    hostport
        .parse()
        .map_err(|e| NakikaError::Internal(format!("bad node url {base_url}: {e}")))
}

/// An in-process cooperative edge node listening on a real TCP port.
///
/// All nodes of one logical cluster share an [`Overlay`] instance (each
/// process in a real deployment holds its own replica of the membership
/// view; in-process they can simply share one), so this helper covers the
/// peer-routing data path — DNS-free, fork-free — while
/// [`spawn_gossip_cluster`] covers the full multi-process story.
pub struct LocalNode {
    /// The node's name (also its overlay identity: `key_for(name)`).
    pub name: String,
    /// `http://127.0.0.1:port` for this node's proxy front-end.
    pub base_url: String,
    /// The node stack behind the server, for direct stat inspection.
    pub handle: Arc<NodeHandle>,
    /// The listening front-end; dropping it stops the node.
    pub server: ProxyServer,
}

/// Starts an in-process edge node named `name`, joins it to `overlay`
/// with its listening address announced, and returns it ready to serve.
/// `replicate` optionally enables hot-entry replication as
/// `(successors, threshold)`.
pub fn start_local_node(
    name: &str,
    overlay: &Arc<Overlay>,
    replicate: Option<(usize, u32)>,
) -> Result<LocalNode, NakikaError> {
    let id = key_for(name);
    overlay.join(id, Location::new(0.0, 0.0));
    let mut builder = NodeBuilder::proxy_with_dht(name)
        .overlay(Arc::clone(overlay), id)
        .origin(Arc::new(TcpOrigin::new()));
    if let Some((successors, threshold)) = replicate {
        builder = builder.replicate_hot(successors, threshold);
    }
    let handle = Arc::new(builder.build());
    let service = Arc::new(ClusterService::new(Arc::clone(&handle), name));
    let server = ProxyServer::start(0, service)
        .map_err(|e| NakikaError::Internal(format!("node {name} failed to listen: {e}")))?;
    let base_url = format!("http://{}", server.addr());
    handle.node().set_public_addr(&base_url);
    overlay.set_addr(id, &base_url);
    Ok(LocalNode {
        name: name.to_string(),
        base_url,
        handle,
        server,
    })
}

/// The `edge-node --help` text, printed verbatim.
pub const NODE_USAGE: &str = "\
usage: edge-node NAME [flags]

One cooperative edge node.  Serves client traffic, the gossip membership
exchange (/__nakika/gossip) and its counters (/__nakika/stats) on one port,
and exits cleanly when stdin reaches EOF.

flags:
  --port P                 listen port (0 = ephemeral, the default)
  --replicate N            hot-entry replication onto N successors (0 = off)
  --threshold T            local hits before an entry counts as hot
  --join URL               gossip seed to bootstrap the roster from; repeat
                           for multiple seeds.  One seed is enough: the
                           roster converges through the gossip exchange.
  --probe-interval-ms MS   gossip probe interval (default 250)
  --suspect-timeout-ms MS  unrefuted suspicion before faulty (default 1000)
  --redirect-to-owner      answer cacheable requests owned by another live
                           member with a 307 to that member instead of
                           relaying (counted as owner_redirects in stats)

The node prints `READY <name> <base-url>` on stdout once listening, and
nothing after it; whatever arrives on stdin before EOF is ignored.
";

/// Runs one cluster node as a child process until stdin closes.
///
/// `args` is the argument list after the program name; see [`NODE_USAGE`]
/// for the flags.  The node prints `READY <name> <base-url>` once it is
/// listening and serves until stdin reaches EOF, then exits cleanly.
///
/// Membership is learned over gossip from the `--join` seeds.
///
/// Returns an error string suitable for printing to stderr.
pub fn node_main<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or(NODE_USAGE)?;
    if name == "--help" || name == "-h" {
        print!("{NODE_USAGE}");
        return Ok(());
    }
    let mut port = 0u16;
    let mut replicate = 0usize;
    let mut threshold = 2u32;
    let mut joins: Vec<String> = Vec::new();
    let mut gossip_config = MembershipConfig::default();
    let mut redirect_to_owner = false;
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{NODE_USAGE}");
            return Ok(());
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--port" => port = value()?.parse().map_err(|e| format!("--port: {e}"))?,
            "--replicate" => {
                replicate = value()?.parse().map_err(|e| format!("--replicate: {e}"))?
            }
            "--threshold" => {
                threshold = value()?.parse().map_err(|e| format!("--threshold: {e}"))?
            }
            "--join" => joins.push(value()?),
            "--redirect-to-owner" => redirect_to_owner = true,
            "--probe-interval-ms" => {
                gossip_config.probe_interval_ms = value()?
                    .parse()
                    .map_err(|e| format!("--probe-interval-ms: {e}"))?
            }
            "--suspect-timeout-ms" => {
                gossip_config.suspect_timeout_ms = value()?
                    .parse()
                    .map_err(|e| format!("--suspect-timeout-ms: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let overlay = Arc::new(Overlay::with_defaults());
    let id = key_for(&name);
    overlay.join(id, Location::new(0.0, 0.0));
    let membership = Arc::new(Membership::new(&name, gossip_config));
    let mut builder = NodeBuilder::proxy_with_dht(&name)
        .overlay(Arc::clone(&overlay), id)
        .gossip(Arc::clone(&membership))
        .origin(Arc::new(TcpOrigin::new()));
    if replicate > 0 {
        builder = builder.replicate_hot(replicate, threshold);
    }
    if redirect_to_owner {
        builder = builder.redirect_to_owner();
    }
    let handle = Arc::new(builder.build());
    let service = Arc::new(ClusterService::new(Arc::clone(&handle), &name));
    let server = ProxyServer::start(port, service).map_err(|e| format!("listen failed: {e}"))?;
    let base_url = format!("http://{}", server.addr());
    handle.node().set_public_addr(&base_url);
    overlay.set_addr(id, &base_url);
    for seed in &joins {
        membership.add_seed(seed);
    }
    // Probing starts only now that the node knows its own address.
    membership.set_self_addr(&base_url);

    let stdout = std::io::stdout();
    writeln!(stdout.lock(), "READY {name} {base_url}").map_err(|e| e.to_string())?;
    stdout.lock().flush().map_err(|e| e.to_string())?;

    // Serve until stdin reaches EOF; nothing that arrives on it is read.
    std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink()).map_err(|e| e.to_string())?;
    // Stdin closed: the parent is done with us.  Dropping the server (and
    // with it the node's replication worker) shuts the node down.
    drop(server);
    Ok(())
}

/// One child node spawned by [`spawn_gossip_cluster`], shut down on drop by
/// closing its stdin and waiting for it to exit.
pub struct ClusterProc {
    /// The node's name, as passed to [`spawn_gossip_cluster`].
    pub name: String,
    /// `http://127.0.0.1:port`, as reported by the child's `READY` line.
    pub base_url: String,
    child: Child,
    stdin: Option<ChildStdin>,
}

impl ClusterProc {
    /// Fetches and parses this node's [`STATS_PATH`] counters.
    pub fn stats(&self) -> Result<HashMap<String, u64>, NakikaError> {
        fetch_stats(&self.base_url)
    }

    /// Kills the node abruptly (SIGKILL, no shutdown handshake) and reaps
    /// it — the churn tests' stand-in for a crashed member.  The survivors
    /// must notice through gossip, not through any exit notification.
    pub fn kill(&mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for ClusterProc {
    fn drop(&mut self) {
        // EOF on stdin is the shutdown signal; then reap the child so the
        // test binary leaves no zombies behind.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// Spawns one `program` child per name in `names`, a cluster that
/// bootstraps itself over gossip: the first name becomes the seed (started
/// with no `--join`), every later node is started with `--join <seed-url>`
/// and learns the rest of the roster through the gossip exchange.  No roster
/// is ever broadcast — follow with [`wait_for_members`] to block until the
/// views converge.  `prefix_args` is inserted before the node name (the
/// `edge_cluster` example re-invokes itself with `--node`; tests invoke the
/// `edge-node` binary with no prefix); `extra_args` is appended after it
/// (e.g. `--replicate 1`).
///
/// The returned processes shut down (stdin EOF, then reaped) when
/// dropped.
pub fn spawn_gossip_cluster(
    program: &std::path::Path,
    prefix_args: &[&str],
    names: &[&str],
    extra_args: &[&str],
) -> std::io::Result<Vec<ClusterProc>> {
    let mut procs: Vec<ClusterProc> = Vec::with_capacity(names.len());
    for name in names {
        let mut command = Command::new(program);
        command.args(prefix_args).arg(name).args(extra_args);
        if let Some(seed) = procs.first() {
            command.arg("--join").arg(&seed.base_url);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        // Empty if the child exited before it was listening.
        let mut ready = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut ready)?;
        let mut parts = ready.split_whitespace();
        let base_url = match (parts.next(), parts.next(), parts.next()) {
            (Some("READY"), Some(n), Some(url)) if n == *name => url.to_string(),
            _ => {
                return Err(std::io::Error::other(format!(
                    "bad READY line from {name}: {ready:?}"
                )));
            }
        };
        procs.push(ClusterProc {
            name: name.to_string(),
            base_url,
            child,
            stdin: Some(stdin),
        });
    }
    Ok(procs)
}

/// Polls every node at `base_urls` until each reports `gossip_alive >=
/// alive` (the counter includes the node itself), i.e. until the rosters
/// have converged to at least `alive` live members everywhere.  Errors out
/// after `deadline`.
pub fn wait_for_members(
    base_urls: &[&str],
    alive: u64,
    deadline: std::time::Duration,
) -> Result<(), NakikaError> {
    let start = std::time::Instant::now();
    loop {
        let converged = base_urls.iter().all(|url| {
            fetch_stats(url)
                .ok()
                .and_then(|stats| stats.get("gossip_alive").copied())
                .is_some_and(|n| n >= alive)
        });
        if converged {
            return Ok(());
        }
        if start.elapsed() > deadline {
            let views: Vec<String> = base_urls
                .iter()
                .map(|url| {
                    let seen = fetch_stats(url)
                        .ok()
                        .and_then(|stats| stats.get("gossip_alive").copied());
                    format!("{url}={seen:?}")
                })
                .collect();
            return Err(NakikaError::Internal(format!(
                "rosters did not converge to {alive} live members within {deadline:?}: {}",
                views.join(", ")
            )));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_the_node_does_not_know_is_refused_before_anything_is_bound() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let refused = node_main(args(&["n", "--peers", "a=http://a"]));
        assert_eq!(refused, Err("unknown flag --peers".to_string()));
        let refused = node_main(args(&["n", "--join"]));
        assert_eq!(refused, Err("--join needs a value".to_string()));
    }

    #[test]
    fn there_is_no_transport_to_choose() {
        let args = ["n", "--transport", "reactor"].map(str::to_string);
        assert_eq!(node_main(args), Err("unknown flag --transport".to_string()));
        assert!(!NODE_USAGE.contains("--transport"), "{NODE_USAGE}");
    }

    #[test]
    fn stats_round_trip_through_the_text_format() {
        let handle = Arc::new(NodeBuilder::plain_proxy("stats-node").build());
        let text = stats_text(&handle, "stats-node");
        let parsed = parse_stats(&text);
        assert_eq!(parsed.get("requests"), Some(&0));
        assert_eq!(parsed.get("peer_hits"), Some(&0));
        assert_eq!(parsed.get("origin_fetches"), Some(&0));
        assert_eq!(parsed.get("script_compiles"), Some(&0));
        assert_eq!(parsed.get("script_cache_hits"), Some(&0));
        // The name line is not a counter and must be skipped, not mangled.
        assert!(!parsed.contains_key("node"));
    }
}
