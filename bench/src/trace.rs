//! Spans recorded from the harness's side of each call into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to.  Spans stay in memory until the run ends, then go
//! to `bench/out/trace_<workload>.json` together with the per-layer table
//! computed from them.  A layer's self time is its span minus the spans it
//! directly caused.  With recording off, [`Recorder::span`] only calls the
//! closure, which is what the untraced replay (and so the tracing overhead
//! figure) runs.

use crate::hist::median;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    /// 1-based; 0 means "no span".
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counter movements observed across one request's root span.
pub struct CounterDelta {
    pub request: u32,
    pub moved: Vec<(&'static str, u64)>,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    deltas: Vec<CounterDelta>,
}

/// One row of the per-layer table.
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub median_self_ns: f64,
    pub total_self_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            deltas: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request; spans recorded until the next call share
    /// its identifier.
    pub fn begin_request(&mut self) {
        self.request += 1;
    }

    /// Times `f` as a span named `name`, caused by the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Attaches the counters that moved during the current request.
    pub fn note_counters(&mut self, moved: Vec<(&'static str, u64)>) {
        if self.enabled && !moved.is_empty() {
            self.deltas.push(CounterDelta {
                request: self.request,
                moved,
            });
        }
    }

    /// Self time per span name, in first-seen order.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut selfs: Vec<Vec<f64>> = Vec::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id as usize]);
            let slot = match names.iter().position(|n| *n == span.name) {
                Some(slot) => slot,
                None => {
                    names.push(span.name);
                    selfs.push(Vec::new());
                    names.len() - 1
                }
            };
            selfs[slot].push(own as f64);
        }
        names
            .into_iter()
            .zip(selfs)
            .map(|(name, mut own)| LayerRow {
                name,
                count: own.len(),
                total_self_ns: own.iter().sum::<f64>() as u64,
                median_self_ns: median(&mut own),
            })
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"requests\":{},\n\"layers\":[",
            self.request
        );
        for (i, row) in self.layer_table().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"count\":{},\"median_self_ns\":{:.1},\"total_self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                row.name,
                row.count,
                row.median_self_ns,
                row.total_self_ns
            );
        }
        out.push_str("],\n\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\n\"counter_deltas\":[");
        for (i, d) in self.deltas.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"request\":{}",
                if i == 0 { "" } else { "," },
                d.request
            );
            for (name, by) in &d.moved {
                let _ = write!(out, ",\"{name}\":{by}");
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut rec = Recorder::new(true);
        rec.begin_request();
        rec.span("request", |rec| {
            rec.span("parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("call", |rec| {
                rec.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let table = rec.layer_table();
        let row = |name: &str| table.iter().find(|r| r.name == name).unwrap();
        assert!(row("parse").median_self_ns >= 2e6);
        assert!(row("inner").median_self_ns >= 2e6);
        // The parents did next to nothing themselves.
        assert!(row("call").median_self_ns < 1e6);
        assert!(row("request").median_self_ns < 1e6);
        assert_eq!(rec.spans[3].parent, rec.spans[2].id);
        assert!(rec.to_json("w", 1).contains("\"name\":\"inner\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.begin_request();
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.layer_table().is_empty());
    }
}
