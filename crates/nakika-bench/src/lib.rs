//! Shared helpers for the Na Kika benchmark and experiment harness.
//!
//! The interesting code lives in the `nakika-experiments` binary (which
//! regenerates every table and figure of the paper) and in the
//! workspace-level examples and integration tests this package hosts.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod hist;
pub mod hostile;

use nakika_sim::experiments::{MicroRow, ResourceControlRow, SimmResult, SpecResult};

/// Formats Table 2 (micro-benchmark latency) as an aligned text table.
pub fn format_table2(rows: &[MicroRow]) -> String {
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
pub fn format_resource_controls(rows: &[ResourceControlRow]) -> String {
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
pub fn format_simm(rows: &[SimmResult]) -> String {
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
pub fn format_spec(rows: &[SpecResult]) -> String {
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
    use nakika_sim::experiments::MicroRow;

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
