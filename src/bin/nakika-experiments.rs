//! Regenerates every table and figure of the Na Kika paper's evaluation (§5).
//!
//! Run with `cargo run --release -p nakika --bin nakika-experiments`.
//! Pass `--quick` for a faster, lower-precision run (used in CI and while
//! iterating).  Nothing is written to disk; end-to-end numbers come from
//! the `bench/` harness, and the hostile-traffic claims are asserted by
//! `tests/hostile.rs`.

use nakika_sim::experiments::{self, MicroRow, ResourceControlRow, SimmResult, SpecResult};

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
}

/// Formats Table 2 (micro-benchmark latency) as an aligned text table.
fn format_table2(rows: &[MicroRow]) -> String {
    let mut out = String::from("Configuration  Cold Cache (ms)  Warm Cache (ms)\n");
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>15.2} {:>16.3}\n",
            row.config, row.cold_ms, row.warm_ms
        ));
    }
    out
}

/// Formats the resource-control rows (§5.1).
fn format_resource_controls(rows: &[ResourceControlRow]) -> String {
    let mut out = String::from(
        "Scenario                              rps w/o ctl   rps w/ ctl   rejected   dropped\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<36} {:>11.1} {:>12.1} {:>9.2}% {:>8.2}%\n",
            row.scenario,
            row.rps_without,
            row.rps_with,
            row.reject_fraction * 100.0,
            row.drop_fraction * 100.0
        ));
    }
    out
}

/// Formats SIMM / Figure 7 results.
fn format_simm(rows: &[SimmResult]) -> String {
    let mut out = String::from(
        "Configuration    Clients  p90 HTML (ms)  mean HTML (ms)  video>=140kbps  video failures\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>7} {:>14.1} {:>15.1} {:>14.1}% {:>14.1}%\n",
            row.config,
            row.clients,
            row.html_p90_ms,
            row.html_mean_ms,
            row.video_ok_fraction * 100.0,
            row.video_failure_fraction * 100.0
        ));
    }
    out
}

/// Formats the SPECweb99-like results (§5.3).
fn format_spec(rows: &[SpecResult]) -> String {
    let mut out =
        String::from("Configuration                mean response (ms)     throughput (rps)\n");
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:>18.1} {:>20.1}\n",
            row.config, row.mean_response_ms, row.rps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_produces_one_line_per_row() {
        let rows = vec![
            MicroRow {
                config: "Proxy".into(),
                cold_ms: 3.0,
                warm_ms: 1.0,
            },
            MicroRow {
                config: "Match-1".into(),
                cold_ms: 21.0,
                warm_ms: 2.0,
            },
        ];
        let table = format_table2(&rows);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("Match-1"));
    }
}
