//! The repository's benchmark: one workload per invocation, end-to-end
//! metrics over real loopback sockets (`--trace 0`) or the per-layer ledger
//! (`--trace 1`).  See `README.md` beside this package and `BENCHMARK.json`
//! at the repository root.
//!
//! Everything runs in this one process: the harness origin, one edge node
//! started as the `edge-node` binary starts it, and a load generator of two
//! threads with one keep-alive connection each, one request in flight per
//! connection.  The phases are the same on every commit:
//!
//! set-up (x5 or more, the quickest) -> warm-up (fixed count) -> open loop (fixed rate,
//! a third of `--seconds`) -> RSS sample -> closed loop (two thirds) ->
//! counters and gates.

mod client;
mod hist;
mod load;
mod origin;
mod procstat;
mod report;
mod sut;
mod trace;
mod workload;

use hist::median;
use load::{Connection, PhaseStats, Slice, CONNECTIONS};
use origin::{Document, Origin, OriginCounts};
use report::{Metric, Report};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sut::{Counters, Edge, Probe, ProbeUnit, Replay};
use trace::Recorder;
use workload::Workload;

/// `run_seconds` of BENCHMARK.json, used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 27.0;

/// Set-ups timed per run; `setup_s` is the quickest of them (like every
/// other figure, the least disturbed one).  At least the first number, and
/// more — up to the second — while they have taken less than
/// `SETUP_FLOOR_S` together: a set-up of a millisecond needs more
/// repetitions than one of a tenth of a second to be as steady.
const SETUP_REPEATS: (usize, usize) = (5, 40);
const SETUP_FLOOR_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value}; one of {}",
                    workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .ok_or(format!("--seconds {value} is not in 1..=60"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Origin, edge node and client connections, in the order they must go away.
struct Deployment {
    connections: Vec<Connection>,
    edge: Edge,
    origin: Origin,
}

/// Stands the deployment up and makes the workload's resident keys resident
/// (which, on the scripted workload, also loads and compiles its scripts).
/// Returns how long that took: everything between "nothing exists" and
/// "the first warm-up request can leave".
fn stand_up(workload: Workload, seed: u64) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let documents = sut::script_documents()
        .into_iter()
        .map(|(path, source)| Document {
            path: path.to_string(),
            content_type: "application/javascript",
            body: source.into_bytes(),
        })
        .collect();
    let origin = Origin::start(documents).map_err(|e| format!("origin: {e}"))?;
    let edge = Edge::start(workload, &origin.base_url()).map_err(|e| format!("edge: {e}"))?;
    let script_work = (workload == Workload::ScriptedHit).then(sut::expected_script_work);
    let mut connections = Vec::with_capacity(CONNECTIONS);
    for index in 0..CONNECTIONS {
        connections.push(
            Connection::open(
                edge.addr(),
                &origin.addr().to_string(),
                workload,
                seed,
                index,
                script_work.clone(),
            )
            .map_err(|e| format!("connect: {e}"))?,
        );
    }
    load::fill_keys(&mut connections);
    let seconds = started.elapsed().as_secs_f64();
    Ok((
        Deployment {
            connections,
            edge,
            origin,
        },
        seconds,
    ))
}

/// What the measured phases saw, wire side and program side.
struct Measured {
    open: PhaseStats,
    closed: PhaseStats,
    rss_mib: f64,
    counters: Counters,
    origin: OriginCounts,
}

/// Warm-up, open loop, RSS sample, closed loop, counters.
fn measure(
    deployment: &mut Deployment,
    workload: Workload,
    open_s: f64,
    closed_s: f64,
) -> Measured {
    load::fixed_count(&mut deployment.connections, workload.warmup_requests());
    let counters_before = deployment.edge.counters();
    let origin_before = deployment.origin.counts();
    let open = load::open_loop(&mut deployment.connections, workload.open_rate(), open_s);
    // Sampled after the fixed-count phases: the same number of requests has
    // been served on every commit, however fast it is.
    let rss_mib = procstat::rss_mib();
    let closed = load::closed_loop(&mut deployment.connections, closed_s);
    let origin_after = deployment.origin.counts();
    Measured {
        open,
        closed,
        rss_mib,
        counters: deployment.edge.counters().since(&counters_before),
        origin: OriginCounts {
            requests: origin_after.requests - origin_before.requests,
            connections: origin_after.connections - origin_before.connections,
            busy_ns: origin_after.busy_ns - origin_before.busy_ns,
        },
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The correctness gate after a workload: counter identities that must hold
/// whatever the speed.  Returns one line per violation.
fn gate(workload: Workload, m: &Measured, client_requests: u64) -> Vec<String> {
    let c = &m.counters;
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    check(
        c.cache_hits + c.cache_misses == c.requests,
        format!(
            "hits {} + misses {} != requests {}",
            c.cache_hits, c.cache_misses, c.requests
        ),
    );
    check(
        c.requests == client_requests,
        format!(
            "node counted {} requests, clients sent {client_requests}",
            c.requests
        ),
    );
    let fetch_ratio = ratio(m.origin.requests, client_requests);
    check(
        (fetch_ratio - workload.expected_origin_fetch_ratio()).abs() <= 0.001,
        format!(
            "origin_fetch_ratio {fetch_ratio:.4}, expected {}",
            workload.expected_origin_fetch_ratio()
        ),
    );
    check(
        c.script_compiles == 0,
        format!("{} scripts compiled after warm-up", c.script_compiles),
    );
    check(
        c.script_errors == 0,
        format!("{} script errors", c.script_errors),
    );
    match workload {
        Workload::ScriptedHit => {}
        Workload::MissOrigin => check(
            c.spliced_relays == c.cache_misses && c.worker_submissions == 0,
            format!(
                "spliced_relays {} != misses {} (worker_submissions {})",
                c.spliced_relays, c.cache_misses, c.worker_submissions
            ),
        ),
        Workload::HitSmall | Workload::StreamLarge => check(
            c.worker_submissions == 0,
            format!(
                "{} worker submissions on a plain hit workload",
                c.worker_submissions
            ),
        ),
    }
    violations
}

/// Fills in the report's verdict: requests attempted and failed over the
/// deployment's whole life, the gates, and the first failure notes.
fn finish(report: &mut Report, workload: Workload, m: &Measured, deployment: &Deployment) {
    let violations = gate(workload, m, m.open.completed + m.closed.completed);
    let connections = &deployment.connections;
    report.attempted = connections.iter().map(|c| c.attempted).sum();
    // A violated gate counts as a failure: any of them fails the command.
    report.failed += connections.iter().map(|c| c.failed).sum::<u64>() + violations.len() as u64;
    report.violations.extend(violations);
    report.failure_notes = connections
        .iter()
        .flat_map(|c| c.failure_notes.iter().cloned())
        .collect();
}

/// One figure of every slice of a phase, so a reader can see what the best
/// slice was picked from (and a pause that only some seconds suffer).
fn slices_line(label: &str, phase: &PhaseStats, of: impl Fn(&Slice) -> f64) -> String {
    let values: Vec<String> = phase
        .slices
        .iter()
        .map(|s| format!("{:.1}", of(s)))
        .collect();
    format!("slices, {label}: {}", values.join(" "))
}

fn timed_run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let mut setups = Vec::new();
    let mut deployment = None;
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1 && setups.iter().sum::<f64>() < SETUP_FLOOR_S)
    {
        // The previous deployment is torn down first; tear-down is not timed.
        drop(deployment.take());
        let (fresh, seconds) = stand_up(workload, args.seed)?;
        setups.push(seconds);
        deployment = Some(fresh);
    }
    let mut deployment = deployment.expect("at least one set-up ran");
    let m = measure(
        &mut deployment,
        workload,
        args.seconds / 3.0,
        args.seconds * 2.0 / 3.0,
    );

    let mut report = Report::new(args.workload.name(), args.seed, args.seconds, false);
    report.note(format!(
        "open loop {} req/s for {:.1} s, closed loop {:.1} s; every figure is that of the \
         best of {} open or {} closed slices of {:.2} s, a slice's percentiles resting on at \
         least {} open-loop and {} closed-loop samples",
        workload.open_rate(),
        m.open.seconds,
        m.closed.seconds,
        m.open.slices.len(),
        m.closed.slices.len(),
        m.closed.slice_seconds,
        m.open.samples_per_slice(),
        m.closed.samples_per_slice(),
    ));
    let closed_slice = m.closed.slice_seconds;
    report.note(slices_line("closed rps", &m.closed, |s| {
        s.completed as f64 / closed_slice
    }));
    report.note(slices_line("closed p50_us", &m.closed, |s| {
        s.latency.quantile_us(0.5)
    }));
    report.note(slices_line("closed p99_us", &m.closed, |s| {
        s.latency.quantile_us(0.99)
    }));
    report.note(slices_line("closed cpu_us_per_req", &m.closed, |s| {
        s.cpu_seconds * 1e6 / s.completed.max(1) as f64
    }));
    report.note(slices_line("open p50_us", &m.open, |s| {
        s.latency.quantile_us(0.5)
    }));
    report.note(slices_line("open p99_us", &m.open, |s| {
        s.latency.quantile_us(0.99)
    }));
    report.push(Metric::new(
        "setup_s",
        "s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    report.push(Metric::new("rps", "1/s", m.closed.rps()));
    report.push(Metric::new("p50_us", "us", m.closed.latency_us(0.50)));
    report.push(Metric::new(
        "cpu_us_per_req",
        "us",
        m.closed.cpu_us_per_reply(),
    ));
    report.push(Metric::new(
        "mib_per_s",
        "MiB/s",
        m.closed.rps() * workload.body_bytes() as f64 / workload::MIB as f64,
    ));
    report.push(Metric::new("rss_mib", "MiB", m.rss_mib));
    // Printed, not bounded: the 99th percentiles and the open loop's
    // figures do not repeat from run to run, and the fetch ratio is zero on
    // a healthy run so a relative bound means nothing.  The traced run
    // reports all of them as `harness.*`.
    report.aside(Metric::new(
        "harness.p99_us",
        "us",
        m.closed.latency_us(0.99),
    ));
    report.aside(Metric::new(
        "harness.open_p50_us",
        "us",
        m.open.latency_us(0.50),
    ));
    report.aside(Metric::new(
        "harness.open_p99_us",
        "us",
        m.open.latency_us(0.99),
    ));
    report.aside(Metric::new(
        "harness.origin_fetch_ratio",
        "ratio",
        ratio(m.origin.requests, m.open.completed + m.closed.completed),
    ));
    report.aside(Metric::new(
        "harness.open_lateness_p99_us",
        "us",
        m.open.lateness_us(0.99),
    ));
    finish(&mut report, workload, &m, &deployment);
    Ok(report)
}

/// Median time per call of `op`, in nanoseconds, over about `budget`.
fn time_probe(op: &mut dyn FnMut(), budget: Duration) -> f64 {
    // Size batches to about a millisecond so the clock is read rarely.
    let once = Instant::now();
    op();
    let single = once.elapsed().max(Duration::from_nanos(20));
    let batch = (1_000_000 / single.as_nanos().max(1)).clamp(1, 100_000) as u32;
    let mut batches = Vec::new();
    let started = Instant::now();
    // The first tenth warms caches and allocator; it is not kept.
    let mut warm = true;
    while started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        let per_call = t.elapsed().as_nanos() as f64 / batch as f64;
        if warm && started.elapsed() >= budget / 10 {
            warm = false;
            batches.clear();
        }
        batches.push(per_call);
    }
    median(&mut batches)
}

fn probe_metric(probe: &mut Probe, budget: Duration) -> Metric {
    let ns = time_probe(&mut probe.op, budget);
    match probe.unit {
        ProbeUnit::Ns => Metric::new(probe.name, "ns", ns),
        ProbeUnit::Us => Metric::new(probe.name, "us", ns / 1000.0),
        ProbeUnit::MibPerS(bytes) => Metric::new(
            probe.name,
            "MiB/s",
            bytes as f64 / workload::MIB as f64 / (ns * 1e-9),
        ),
    }
}

/// Median round trip, in microseconds, of a 64-byte ping answered by a
/// pong the size of `hit_small`'s reply, on two connections at once against
/// bare threads: what the kernel's loopback path costs with no HTTP and no
/// event loop on it.
fn loopback_rtt_us() -> Result<f64, String> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const PING: usize = 64;
    const PONG: usize = 2300;
    const ROUND_TRIPS: usize = 20_000;
    let io = |e: std::io::Error| format!("loopback probe: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut merged = hist::Histogram::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut pairs = Vec::new();
        for _ in 0..CONNECTIONS {
            let ping_side = TcpStream::connect(addr).map_err(io)?;
            let (pong_side, _) = listener.accept().map_err(io)?;
            pairs.push((ping_side, pong_side));
        }
        let mut pingers = Vec::new();
        for (mut ping_side, mut pong_side) in pairs {
            let _ = ping_side.set_nodelay(true);
            let _ = pong_side.set_nodelay(true);
            scope.spawn(move || {
                let mut ping = [0u8; PING];
                let pong = [0u8; PONG];
                while pong_side.read_exact(&mut ping).is_ok() {
                    if pong_side.write_all(&pong).is_err() {
                        break;
                    }
                }
            });
            pingers.push(scope.spawn(move || -> std::io::Result<hist::Histogram> {
                let ping = [0u8; PING];
                let mut pong = [0u8; PONG];
                let mut seen = hist::Histogram::new();
                for i in 0..ROUND_TRIPS {
                    let t = Instant::now();
                    ping_side.write_all(&ping)?;
                    ping_side.read_exact(&mut pong)?;
                    // The first tenth warms the path; it is not kept.
                    if i >= ROUND_TRIPS / 10 {
                        seen.record(t.elapsed().as_nanos() as u64);
                    }
                }
                Ok(seen)
                // Dropping `ping_side` ends the pong thread's read.
            }));
        }
        for pinger in pingers {
            merged.merge(&pinger.join().expect("a ping thread panicked").map_err(io)?);
        }
        Ok(())
    })?;
    Ok(merged.quantile_us(0.50))
}

/// Replays the head of the workload's request sequence in-process and
/// returns the recorder and the seconds it took.
fn replay(workload: Workload, seed: u64, traced: bool) -> Result<(Recorder, f64), String> {
    let replay = Replay::new(workload);
    let mut order = workload::KeySequence::new(workload.key_count().unwrap_or(1), seed);
    let wires: Vec<Vec<u8>> = (0..workload.replay_requests())
        .map(|n| {
            let path = match workload.key_count() {
                Some(_) => workload.key_path(order.next_key()),
                None => workload::unique_path(seed, n as u64),
            };
            client::get_request(sut::REPLAY_AUTHORITY, &path)
        })
        .collect();
    let mut recorder = Recorder::new(traced);
    let started = Instant::now();
    for wire in &wires {
        let bytes = replay.one(wire, &mut recorder)?;
        if bytes < workload.body_bytes() {
            return Err(format!("replayed reply is only {bytes} bytes"));
        }
    }
    Ok((recorder, started.elapsed().as_secs_f64()))
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let mut report = Report::new(workload.name(), args.seed, args.seconds, true);

    // A short wire run for the counters and the p50 the residual needs.
    let (mut deployment, _) = stand_up(workload, args.seed)?;
    let m = measure(
        &mut deployment,
        workload,
        args.seconds * 0.2,
        args.seconds * 0.3,
    );
    let c = m.counters;
    let wire_p50_us = m.closed.latency_us(0.50);
    let measured_requests = m.open.completed + m.closed.completed;

    // Probes that need the harness origin, then the ones that need nothing.
    let budget = Duration::from_secs_f64(args.seconds / 70.0);
    let mut layer = vec![probe_metric(
        &mut sut::tcp_origin_fetch_probe(&deployment.origin.base_url()),
        budget,
    )];
    finish(&mut report, workload, &m, &deployment);
    drop(deployment);
    for mut probe in sut::layer_probes() {
        layer.push(probe_metric(&mut probe, budget));
    }
    let loopback_us = loopback_rtt_us()?;

    // The replay, untraced then traced; the trace goes to disk.
    let (_, untraced_s) = replay(workload, args.seed, false)?;
    let (recorder, traced_s) = replay(workload, args.seed, true)?;
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let trace_path = format!("{out_dir}/trace_{}.json", workload.name());
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, recorder.to_json(workload.name(), args.seed)))
        .map_err(|e| format!("{trace_path}: {e}"))?;
    let table = recorder.layer_table();
    let mut in_process_us = 0.0;
    for row in &table {
        report.note(format!(
            "span {:<28} n={:<6} median self {:>10.3} us  total self {:>10.3} ms",
            row.name,
            row.count,
            row.median_self_ns / 1e3,
            row.total_self_ns as f64 / 1e6
        ));
        // The root span's self time is the harness's own bookkeeping, not a
        // layer of the program.
        if row.name != "request" {
            in_process_us += row.median_self_ns / 1e3;
        }
    }
    report.note(format!(
        "closed-loop p50 {wire_p50_us:.3} us = layer spans {in_process_us:.3} us + loopback \
         {loopback_us:.3} us + transport residual {:.3} us; trace in {trace_path}",
        wire_p50_us - in_process_us - loopback_us
    ));

    let metric = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no probe named {name}"))
    };
    for name in [
        "nakika-http.parse_request_ns",
        "nakika-http.serialize_small_ns",
        "nakika-http.serialize_mib_per_s",
        "nakika-http.parse_response_head_ns",
        "nakika-core.dispatch_hint_ns",
        "nakika-core.service_call_hit_ns",
        "nakika-core.cache_get_ns",
        "nakika-core.cache_put_evict_ns",
        "nakika-core.relay_plan_ns",
        "nakika-core.service_call_miss_us",
        "nakika-core.policy_match_ns",
        "nakika-core.pipeline_execute_us",
        "nakika-core.service_call_scripted_us",
    ] {
        report.push(metric(name));
    }
    report.push(Metric::new(
        "nakika-core.cache_hit_ratio",
        "ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    ));
    report.push(Metric::new(
        "nakika-core.cache_evictions_per_kreq",
        "count",
        1000.0 * ratio(c.cache_evictions, c.requests),
    ));
    report.push(Metric::new(
        "nakika-core.origin_fetches",
        "count",
        c.origin_fetches as f64,
    ));
    report.push(Metric::new(
        "nakika-core.script_compiles_after_warmup",
        "count",
        c.script_compiles as f64,
    ));
    report.push(Metric::new(
        "nakika-core.script_errors",
        "count",
        c.script_errors as f64,
    ));
    report.push(metric("nakika-script.vm_handler_us"));
    report.push(Metric::new(
        "nakika-script.vm_fuel_per_call",
        "count",
        sut::vm_fuel_per_call() as f64,
    ));
    report.push(metric("nakika-script.compile_us"));
    report.push(Metric::new(
        "nakika-server.transport_residual_us",
        "us",
        wire_p50_us - in_process_us - loopback_us,
    ));
    report.push(metric("nakika-server.tcp_origin_fetch_us"));
    report.push(Metric::new(
        "nakika-server.upstream_connects_per_miss",
        "ratio",
        ratio(m.origin.connections, c.cache_misses),
    ));
    report.push(Metric::new(
        "nakika-server.worker_submissions",
        "count",
        c.worker_submissions as f64,
    ));
    report.push(Metric::new(
        "nakika-server.spliced_relays",
        "count",
        c.spliced_relays as f64,
    ));
    report.push(Metric::new(
        "nakika-server.relay_aborts",
        "count",
        c.relay_aborts as f64,
    ));
    report.push(Metric::new(
        "nakika-server.timeouts",
        "count",
        c.timeouts as f64,
    ));
    report.push(Metric::new(
        "nakika-server.peak_buffered_output_kib",
        "KiB",
        c.peak_buffered_output_bytes as f64 / 1024.0,
    ));
    report.push(Metric::new("harness.loopback_rtt_us", "us", loopback_us));
    report.push(Metric::new(
        "harness.origin_service_us",
        "us",
        m.origin.busy_ns as f64 / 1e3 / m.origin.requests.max(1) as f64,
    ));
    report.push(Metric::new(
        "harness.open_lateness_p99_us",
        "us",
        m.open.lateness_us(0.99),
    ));
    report.push(Metric::new(
        "harness.p99_us",
        "us",
        m.closed.latency_us(0.99),
    ));
    report.push(Metric::new(
        "harness.open_p50_us",
        "us",
        m.open.latency_us(0.50),
    ));
    report.push(Metric::new(
        "harness.open_p99_us",
        "us",
        m.open.latency_us(0.99),
    ));
    report.push(Metric::new(
        "harness.trace_overhead_ratio",
        "ratio",
        traced_s / untraced_s.max(1e-9),
    ));
    report.push(Metric::new(
        "harness.origin_fetch_ratio",
        "ratio",
        ratio(m.origin.requests, measured_requests),
    ));
    report.push(Metric::new(
        "harness.fail_ratio",
        "ratio",
        ratio(report.failed, report.attempted),
    ));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    match run {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
