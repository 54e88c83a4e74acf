//! Regenerates every table and figure of the Na Kika paper's evaluation (§5).
//!
//! Run with `cargo run --release -p nakika-bench --bin nakika-experiments`.
//! Pass `--quick` for a faster, lower-precision run (used in CI and while
//! iterating).  The output of a full run is recorded in EXPERIMENTS.md.
//! Every run ends with the hostile suite over real TCP and exits non-zero if
//! a polite keep-alive soak connection is dropped.  Nothing is written to
//! disk; end-to-end numbers come from the `bench/` harness.

use nakika_bench::hostile::{format_hostile_report, run_hostile_suite, HostileKnobs};
use nakika_bench::{format_resource_controls, format_simm, format_spec, format_table2};
use nakika_sim::experiments;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, flash_requests, fig7_clients, spec_requests) = if quick {
        (3, 120, vec![60usize], 300)
    } else {
        (10, 1_200, vec![120usize, 180, 240], 2_000)
    };

    println!("== Table 1 / Table 2: micro-benchmark latency (2,096-byte static page) ==");
    println!("(paper, cold/warm ms: Proxy 3/1, DHT 5/1, Admin 16/2, Pred-0 19/2, Pred-1 20/2,");
    println!(" Match-1 21/2, Pred-10 22/2, Pred-50 30/2, Pred-100 41/2)\n");
    let rows = experiments::table2(iters);
    println!("{}", format_table2(&rows));

    println!("== §5.1 capacity: plain proxy vs Match-1 scripted node ==");
    println!("(paper: 603 rps with 90 clients vs 294 rps with 30 clients — roughly a 2x gap)\n");
    let cap = experiments::capacity(30, if quick { 200 } else { 2_000 });
    println!(
        "plain proxy capacity: {:>8.0} rps (at {} clients: {:.0} rps)",
        cap.proxy_rps, cap.clients, cap.proxy_at_load
    );
    println!(
        "Match-1 capacity:     {:>8.0} rps (at {} clients: {:.0} rps)",
        cap.match1_rps, cap.clients, cap.match1_at_load
    );
    println!(
        "scripting slowdown:   {:>8.2}x  (paper: ~2.1x)\n",
        cap.proxy_rps / cap.match1_rps.max(1e-9)
    );

    println!("== §5.1 congestion-based resource controls under a flash crowd ==");
    println!(
        "(paper: 30 gens 294->396 rps, 90 gens 229->356 rps, +misbehaving script 47 vs 382 rps;"
    );
    println!(" rejects <0.55%, drops <0.08%)\n");
    let rows = experiments::resource_controls(flash_requests);
    println!("{}", format_resource_controls(&rows));

    println!("== §5.2 SIMMs, local testbed (160 clients) ==");
    println!("(paper LAN: p90 904 ms server vs 964 ms Na Kika; shaped WAN 80 ms / 8 Mbps:");
    println!(" 8.88 s vs 1.21 s; video ok 26.2% vs 99.9%)\n");
    let clients = if quick { 40 } else { 160 };
    let lan = experiments::SimmScenario::local(clients);
    let wan = experiments::SimmScenario::shaped_wan(clients);
    let mut rows = vec![
        experiments::simm_single_server(&lan),
        experiments::simm_nakika(&lan, 1, false),
        experiments::simm_nakika(&lan, 1, true),
    ];
    println!("-- switched 100 Mbit LAN --\n{}", format_simm(&rows));
    rows = vec![
        experiments::simm_single_server(&wan),
        experiments::simm_nakika(&wan, 1, false),
        experiments::simm_nakika(&wan, 1, true),
    ];
    println!("-- shaped WAN (80 ms, 8 Mbps) --\n{}", format_simm(&rows));

    println!("== Figure 7 / §5.2 SIMMs, wide area (12 client sites, east/west/asia) ==");
    println!("(paper @240 clients: p90 60.1 s server, 31.6 s cold, 9.7 s warm;");
    println!(" video ok 0% / 11.5% / 80.3%; failures 60% / 5.6% / 1.9%)\n");
    let results = experiments::figure7(&fig7_clients, 12);
    println!("{}", format_simm(&results));
    println!("-- CDF series (seconds vs cumulative fraction), one block per configuration --");
    for result in &results {
        println!("\n# {} / {} clients", result.config, result.clients);
        for (ms, p) in &result.html_cdf.steps {
            println!("{:.3}\t{:.3}", ms / 1000.0, p);
        }
    }

    println!("\n== §5.3 SPECweb99-like hard-state experiment ==");
    println!("(paper: PHP server 13.7 s mean / 10.8 rps vs Na Kika 4.3 s / 34.3 rps — ~3x)\n");
    let rows = experiments::specweb(if quick { 40 } else { 160 }, spec_requests, 5);
    println!("{}", format_spec(&rows));

    println!("\n== hostile workloads: flash crowd, slow-loris/flood barrage, keep-alive soak ==");
    println!("(the survival numbers: polite p99 under active attack, attacker evictions,");
    println!(" and thousands of simultaneous keep-alive sessions with zero drops;");
    println!(" NAKIKA_SOAK_CONNS overrides the soak size)\n");
    let mut knobs = if quick {
        HostileKnobs::quick()
    } else {
        HostileKnobs::full()
    };
    if let Some(conns) = std::env::var("NAKIKA_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        knobs.soak_connections = conns;
    }
    match run_hostile_suite(knobs) {
        Ok(report) => {
            print!("{}", format_hostile_report(&report));
            if report.soak.dropped > 0 {
                eprintln!(
                    "HOSTILE REGRESSION: {} polite soak connections dropped",
                    report.soak.dropped
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("hostile suite failed: {e}");
            std::process::exit(1);
        }
    }
}
