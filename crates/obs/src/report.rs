//! Immutable metrics snapshots and their JSON export.

use crate::json_mod::JsonBuf;
use crate::recorder::{StateEvent, StateOp};

/// Log2-bucketed histogram: the one accumulator behind the recorder's
/// keyed metric histograms and the flow kernel's always-on inline ones
/// (one array increment per observation, so the kernel can afford to fill
/// it even with observability off).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// `buckets[i]` counts values in `(2^(i-2), 2^(i-1)]` (bucket 0 holds
    /// zero/negative observations). Unit is the caller's (the
    /// instrumentation uses nanoseconds for latencies).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        let ix = if value <= 0.0 {
            0
        } else {
            64 - (value.ceil() as u64).leading_zeros() as usize
        };
        if self.buckets.len() <= ix {
            self.buckets.resize(ix + 1, 0);
        }
        self.buckets[ix] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Appends the histogram as a JSON object value.
    pub(crate) fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.key("count").uint_val(self.count);
        j.key("sum").num_val(self.sum);
        j.key("min").num_val(self.min);
        j.key("max").num_val(self.max);
        j.key("mean").num_val(self.mean());
        j.key("log2_buckets").begin_arr();
        for b in &self.buckets {
            j.uint_val(*b);
        }
        j.end_arr();
        j.end_obj();
    }
}

/// State timeline of one container (e.g. one MPI rank).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSnapshot {
    /// Container kind, e.g. `"rank"` or `"link"`.
    pub kind: &'static str,
    /// Container instance within the kind.
    pub id: u32,
    /// Ordered state transitions.
    pub events: Vec<StateEvent>,
}

impl TimelineSnapshot {
    /// Total time spent in `state` up to `end_time`, resolving the
    /// push/pop stack (time in a nested state is charged to that state
    /// only).
    pub fn time_in_state(&self, state: &str, end_time: f64) -> f64 {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut last_time = 0.0;
        let mut total = 0.0;
        for ev in &self.events {
            if stack.last().is_some_and(|&s| s == state) {
                total += ev.time - last_time;
            }
            last_time = ev.time;
            match ev.op {
                StateOp::Push(s) => stack.push(s),
                StateOp::Pop => {
                    stack.pop();
                }
                StateOp::Set(s) => {
                    stack.pop();
                    stack.push(s);
                }
            }
        }
        if stack.last().is_some_and(|&s| s == state) {
            total += end_time - last_time;
        }
        total
    }
}

/// Sorted, immutable snapshot of a [`crate::MemoryRecorder`].
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Integer counters, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Floating-point counters, sorted by key.
    pub fcounters: Vec<(String, f64)>,
    /// Gauge timelines (`(time, value)` samples), sorted by key.
    pub gauges: Vec<(String, Vec<(f64, f64)>)>,
    /// High-water marks, sorted by key.
    pub hwms: Vec<(String, f64)>,
    /// Histograms, sorted by key.
    pub histograms: Vec<(String, Histogram)>,
    /// Per-container state timelines, sorted by `(kind, id)`.
    pub timelines: Vec<TimelineSnapshot>,
}

impl MetricsReport {
    /// Value of an integer counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a floating-point counter (0 when absent).
    pub fn fcounter(&self, key: &str) -> f64 {
        self.fcounters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// High-water mark for `key` (0 when absent).
    #[cfg(test)]
    pub(crate) fn hwm(&self, key: &str) -> f64 {
        self.hwms
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Gauge timeline for `key`, if sampled.
    pub fn gauge(&self, key: &str) -> Option<&[(f64, f64)]> {
        self.gauges
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Histogram for `key`, if observed.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h)
    }

    /// State timeline of container `(kind, id)`, if present.
    pub fn timeline(&self, kind: &str, id: u32) -> Option<&TimelineSnapshot> {
        self.timelines.iter().find(|t| t.kind == kind && t.id == id)
    }

    /// All timelines of one kind.
    pub fn timelines_of<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = &'a TimelineSnapshot> + 'a {
        self.timelines.iter().filter(move |t| t.kind == kind)
    }

    /// Serializes the full report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();

        j.key("counters").begin_obj();
        for (k, v) in &self.counters {
            j.key(k).uint_val(*v);
        }
        j.end_obj();

        j.key("fcounters").begin_obj();
        for (k, v) in &self.fcounters {
            j.key(k).num_val(*v);
        }
        j.end_obj();

        j.key("hwms").begin_obj();
        for (k, v) in &self.hwms {
            j.key(k).num_val(*v);
        }
        j.end_obj();

        j.key("gauges").begin_obj();
        for (k, series) in &self.gauges {
            j.key(k).begin_arr();
            for (t, v) in series {
                j.begin_arr().num_val(*t).num_val(*v).end_arr();
            }
            j.end_arr();
        }
        j.end_obj();

        j.key("histograms").begin_obj();
        for (k, h) in &self.histograms {
            h.write_json(j.key(k));
        }
        j.end_obj();

        j.key("timelines").begin_arr();
        for tl in &self.timelines {
            j.begin_obj();
            j.key("kind").str_val(tl.kind);
            j.key("id").uint_val(tl.id as u64);
            j.key("events").begin_arr();
            for ev in &tl.events {
                j.begin_obj();
                j.key("t").num_val(ev.time);
                match ev.op {
                    StateOp::Push(s) => {
                        j.key("op").str_val("push");
                        j.key("state").str_val(s);
                    }
                    StateOp::Pop => {
                        j.key("op").str_val("pop");
                    }
                    StateOp::Set(s) => {
                        j.key("op").str_val("set");
                        j.key("state").str_val(s);
                    }
                }
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();

        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Rec;

    fn sample_report() -> MetricsReport {
        let rec = Rec::enabled();
        rec.counter_add("core.sends.eager", 4);
        rec.fcounter_add("surf.link.0.bytes", 1024.0);
        rec.gauge_set("surf.link.0.util", 0.5, 0.75);
        rec.hwm("packetnet.port.2.queue_depth", 6.0);
        rec.observe("packetnet.hop_latency_ns", 1500.0);
        rec.state_set("rank", 0, 0.0, "computing");
        rec.state_push("rank", 0, 1.0, "blocked_in_recv");
        rec.state_pop("rank", 0, 3.0);
        rec.snapshot().unwrap()
    }

    #[test]
    fn lookups_find_recorded_values() {
        let r = sample_report();
        assert_eq!(r.counter("core.sends.eager"), 4);
        assert_eq!(r.fcounter("surf.link.0.bytes"), 1024.0);
        assert_eq!(r.hwm("packetnet.port.2.queue_depth"), 6.0);
        assert_eq!(r.gauge("surf.link.0.util").unwrap(), &[(0.5, 0.75)]);
        assert_eq!(r.histogram("packetnet.hop_latency_ns").unwrap().count, 1);
        assert_eq!(r.timeline("rank", 0).unwrap().events.len(), 3);
        assert!(r.timeline("rank", 9).is_none());
    }

    #[test]
    fn time_in_state_resolves_nesting() {
        let r = sample_report();
        let tl = r.timeline("rank", 0).unwrap();
        // computing from 0..1 and 3..5; blocked_in_recv from 1..3.
        assert!((tl.time_in_state("computing", 5.0) - 3.0).abs() < 1e-12);
        assert!((tl.time_in_state("blocked_in_recv", 5.0) - 2.0).abs() < 1e-12);
        assert_eq!(tl.time_in_state("in_collective", 5.0), 0.0);
    }

    #[test]
    fn json_export_is_well_formed() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""core.sends.eager":4"#));
        assert!(json.contains(r#""kind":"rank""#));
        assert!(json.contains(r#""op":"push""#));
        // Balanced braces/brackets (no strings with braces in this sample).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn default_report_serializes_empty() {
        let r = MetricsReport::default();
        assert_eq!(
            r.to_json(),
            r#"{"counters":{},"fcounters":{},"hwms":{},"gauges":{},"histograms":{},"timelines":[]}"#
        );
        assert_eq!(r.counter("x"), 0);
    }
}
