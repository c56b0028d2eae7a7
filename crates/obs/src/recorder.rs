//! The recorder API every layer emits into.

use crate::report::{Histogram, MetricsReport, TimelineSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One event on a container's state timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEvent {
    /// Simulated time of the transition.
    pub time: f64,
    /// What happened.
    pub op: StateOp,
}

/// State-timeline operation (mirrors Paje Push/Pop/SetState).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateOp {
    /// Enter a nested state.
    Push(&'static str),
    /// Leave the current nested state.
    Pop,
    /// Replace the current state.
    Set(&'static str),
}

/// Accumulating recorder behind an enabled [`Rec`]; [`Rec::snapshot`] reads it.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    counters: BTreeMap<String, u64>,
    fcounters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, Vec<(f64, f64)>>,
    hwms: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    timelines: BTreeMap<(&'static str, u32), Vec<StateEvent>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Produces an immutable, sorted snapshot of everything recorded.
    pub(crate) fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            fcounters: self
                .fcounters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            hwms: self.hwms.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
            timelines: self
                .timelines
                .iter()
                .map(|(&(kind, id), events)| TimelineSnapshot {
                    kind,
                    id,
                    events: events.clone(),
                })
                .collect(),
        }
    }

    /// Adds `delta` to the integer counter `key`.
    pub fn counter_add(&mut self, key: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(key) {
            *v += delta;
        } else {
            self.counters.insert(key.to_string(), delta);
        }
    }

    /// Adds `delta` to the floating-point counter `key` (e.g. byte
    /// integrals accumulated as `rate * dt`).
    pub fn fcounter_add(&mut self, key: &str, delta: f64) {
        if let Some(v) = self.fcounters.get_mut(key) {
            *v += delta;
        } else {
            self.fcounters.insert(key.to_string(), delta);
        }
    }

    /// Appends a `(time, value)` sample to the gauge timeline `key`.
    pub fn gauge_set(&mut self, key: &str, time: f64, value: f64) {
        if let Some(series) = self.gauges.get_mut(key) {
            series.push((time, value));
        } else {
            self.gauges.insert(key.to_string(), vec![(time, value)]);
        }
    }

    /// Raises the high-water mark `key` to at least `value`.
    pub fn hwm(&mut self, key: &str, value: f64) {
        if let Some(v) = self.hwms.get_mut(key) {
            if value > *v {
                *v = value;
            }
        } else {
            self.hwms.insert(key.to_string(), value);
        }
    }

    /// Records `value` into the log2-bucketed histogram `key`.
    pub fn observe(&mut self, key: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// Pushes a state onto the container `(kind, id)`'s state stack.
    pub fn state_push(&mut self, kind: &'static str, id: u32, time: f64, state: &'static str) {
        self.timelines
            .entry((kind, id))
            .or_default()
            .push(StateEvent {
                time,
                op: StateOp::Push(state),
            });
    }

    /// Pops the top state of the container `(kind, id)`.
    pub fn state_pop(&mut self, kind: &'static str, id: u32, time: f64) {
        self.timelines
            .entry((kind, id))
            .or_default()
            .push(StateEvent {
                time,
                op: StateOp::Pop,
            });
    }

    /// Replaces the current state of the container `(kind, id)`.
    pub fn state_set(&mut self, kind: &'static str, id: u32, time: f64, state: &'static str) {
        self.timelines
            .entry((kind, id))
            .or_default()
            .push(StateEvent {
                time,
                op: StateOp::Set(state),
            });
    }
}

/// Cheap cloneable recorder handle threaded through every layer.
///
/// Disabled (`Rec::disabled()`, the default): contains `None`, so every
/// emit method is one branch and returns — no borrowing, no formatting, no
/// allocation. Key formatting happens inside closures passed to
/// [`Rec::with`], so disabled runs never even build the key strings.
///
/// One run's layers (runtime, fabric, kernel) share one recorder, and one
/// run lives on one thread, so the handle is an `Rc<RefCell>`: it is not
/// `Send`, and a recorder never crosses threads.
#[derive(Debug, Clone, Default)]
pub struct Rec(Option<Rc<RefCell<MemoryRecorder>>>);

impl Rec {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Rec(None)
    }

    /// A handle backed by a fresh shared [`MemoryRecorder`].
    pub fn enabled() -> Self {
        Rec(Some(Rc::new(RefCell::new(MemoryRecorder::new()))))
    }

    /// Whether emits are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the recorder if enabled. This is the one emission
    /// primitive; use it to batch several emits under a single borrow and
    /// to keep key formatting off the disabled path.
    #[inline]
    pub fn with<F: FnOnce(&mut MemoryRecorder)>(&self, f: F) {
        if let Some(rec) = &self.0 {
            f(&mut rec.borrow_mut());
        }
    }

    /// Adds to an integer counter.
    #[inline]
    pub fn counter_add(&self, key: &str, delta: u64) {
        self.with(|r| r.counter_add(key, delta));
    }

    /// Adds to a floating-point counter.
    #[inline]
    #[cfg(test)]
    pub(crate) fn fcounter_add(&self, key: &str, delta: f64) {
        self.with(|r| r.fcounter_add(key, delta));
    }

    /// Appends a gauge sample.
    #[inline]
    #[cfg(test)]
    pub(crate) fn gauge_set(&self, key: &str, time: f64, value: f64) {
        self.with(|r| r.gauge_set(key, time, value));
    }

    /// Raises a high-water mark.
    #[inline]
    #[cfg(test)]
    pub(crate) fn hwm(&self, key: &str, value: f64) {
        self.with(|r| r.hwm(key, value));
    }

    /// Records a histogram observation.
    #[inline]
    #[cfg(test)]
    pub(crate) fn observe(&self, key: &str, value: f64) {
        self.with(|r| r.observe(key, value));
    }

    /// Pushes a container state.
    #[inline]
    pub fn state_push(&self, kind: &'static str, id: u32, time: f64, state: &'static str) {
        self.with(|r| r.state_push(kind, id, time, state));
    }

    /// Pops a container state.
    #[inline]
    pub fn state_pop(&self, kind: &'static str, id: u32, time: f64) {
        self.with(|r| r.state_pop(kind, id, time));
    }

    /// Replaces a container state.
    #[inline]
    pub fn state_set(&self, kind: &'static str, id: u32, time: f64, state: &'static str) {
        self.with(|r| r.state_set(kind, id, time, state));
    }

    /// Snapshots the accumulated metrics, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsReport> {
        self.0.as_ref().map(|rec| rec.borrow().snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_rec_records_nothing() {
        let rec = Rec::disabled();
        rec.counter_add("x", 1);
        rec.state_push("rank", 0, 0.0, "computing");
        assert!(!rec.is_enabled());
        assert!(rec.snapshot().is_none());
    }

    #[test]
    fn counters_and_fcounters_accumulate() {
        let rec = Rec::enabled();
        rec.counter_add("sends", 2);
        rec.counter_add("sends", 3);
        rec.fcounter_add("bytes", 1.5);
        rec.fcounter_add("bytes", 2.5);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter("sends"), 5);
        assert_eq!(snap.fcounter("bytes"), 4.0);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn hwm_keeps_maximum() {
        let rec = Rec::enabled();
        rec.hwm("depth", 3.0);
        rec.hwm("depth", 7.0);
        rec.hwm("depth", 5.0);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.hwms, vec![("depth".to_string(), 7.0)]);
    }

    #[test]
    fn gauge_timeline_preserves_order() {
        let rec = Rec::enabled();
        rec.gauge_set("util", 0.0, 0.5);
        rec.gauge_set("util", 1.0, 0.9);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.gauges[0].1, vec![(0.0, 0.5), (1.0, 0.9)]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let rec = Rec::enabled();
        rec.observe("lat", 0.0); // bucket 0
        rec.observe("lat", 1.0); // bucket 1
        rec.observe("lat", 3.0); // ceil -> 3, 2 bits -> bucket 2
        rec.observe("lat", 1000.0); // 10 bits -> bucket 10
        let snap = rec.snapshot().unwrap();
        let h = &snap.histograms[0].1;
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1004.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn state_timeline_round_trip() {
        let rec = Rec::enabled();
        rec.state_set("rank", 1, 0.0, "idle");
        rec.state_push("rank", 1, 1.0, "computing");
        rec.state_pop("rank", 1, 2.0);
        let snap = rec.snapshot().unwrap();
        let tl = snap.timeline("rank", 1).unwrap();
        assert_eq!(
            tl.events,
            vec![
                StateEvent {
                    time: 0.0,
                    op: StateOp::Set("idle")
                },
                StateEvent {
                    time: 1.0,
                    op: StateOp::Push("computing")
                },
                StateEvent {
                    time: 2.0,
                    op: StateOp::Pop
                },
            ]
        );
    }
}
