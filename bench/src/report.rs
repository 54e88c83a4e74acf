//! What a run prints: every metric by name with its unit for a reader, then
//! — as the last line of standard output — the one JSON object the driver
//! parses.

use crate::load::CONNECTIONS;

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

pub struct Report {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// The metrics of the JSON line, in BENCHMARK.json's order.
    metrics: Vec<Metric>,
    /// Printed for the reader only.
    asides: Vec<Metric>,
    notes: Vec<String>,
    pub attempted: u64,
    /// Failed requests plus violated gates; the run is correct when zero.
    pub failed: u64,
    pub violations: Vec<String>,
    pub failure_notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            traced,
            metrics: Vec::new(),
            asides: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            failure_notes: Vec::new(),
        }
    }

    pub fn push(&mut self, mut metric: Metric) {
        if !metric.value.is_finite() {
            self.violations
                .push(format!("{} is {}", metric.name, metric.value));
            self.failed += 1;
            // JSON has no spelling for it; the run is already incorrect.
            metric.value = 0.0;
        }
        self.metrics.push(metric);
    }

    pub fn aside(&mut self, metric: Metric) {
        self.asides.push(metric);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn print(&self) {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "workload {}  seed {}  seconds {}  {}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "timed run: end-to-end metrics"
            }
        );
        println!(
            "one process over loopback: harness origin, one edge node (reactor transport, \
             default config), {CONNECTIONS} client threads x 1 keep-alive connection, depth 1; \
             {cores} cores available"
        );
        for m in self.metrics.iter().chain(&self.asides) {
            println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  attempted {}  failed {}  fail_ratio {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for line in self.violations.iter().chain(&self.failure_notes) {
            println!("  VIOLATION {line}");
        }
        println!("{}", self.json_line());
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
