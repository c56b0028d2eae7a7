//! Bounded-memory time-series telemetry.
//!
//! The maestro samples the simulation at every fabric event (per-link
//! utilization, in-flight action count, actors woken, simcall/token
//! throughput, solver wall-clock, memory high-water mark) and this module
//! folds those samples into fixed simulated-time buckets. The bucket array
//! never grows past a fixed budget: when a sample lands beyond the last
//! bucket, adjacent buckets are merged pairwise and the bucket width
//! doubles — so a 64k-rank, hours-of-simulated-time run costs exactly the
//! same memory as a toy run, and resolution degrades gracefully (the whole
//! run is always covered at `budget` buckets or fewer).
//!
//! Quantities are stored so that merging is exact:
//!
//! * **extensive** values (simcall/token counts, actors woken, `x·dt`
//!   integrals of the active-action count and per-link utilization, solver
//!   nanoseconds) *add* when two buckets merge — their totals over the run
//!   are conserved under any number of halvings;
//! * **maxima** (peak in-flight actions, peak link utilization, memory
//!   high-water mark) merge as `max`.
//!
//! Everything here is a pure function of the simcall stream and the
//! platform except `solver_ns`, which measures the host machine;
//! its [`Deterministic`] impl zeroes it for byte-identity comparisons (the
//! same discipline as [`crate::SelfProfile`]'s).

use crate::json_mod::JsonBuf;
use crate::Deterministic;

/// Default bucket budget: plenty for a plot, small enough to forget about.
pub const DEFAULT_TS_BUDGET: usize = 512;

/// Initial bucket width in simulated seconds (1 µs). Doubles on every
/// resolution halving, so the first halving happens once simulated time
/// passes `budget` microseconds.
const INITIAL_INTERVAL: f64 = 1e-6;

/// One telemetry reading, taken by the maestro after a fabric event.
///
/// `simcalls`, `tokens` and `solver_ns` are *cumulative* run totals (the
/// sampler charges the delta since the previous reading to the current
/// bucket); `woken` is already a per-event delta; `active` and `mem_hwm`
/// are instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TsInstant {
    /// Simulated time of the reading (seconds).
    pub t: f64,
    /// Fabric actions currently in flight (flows + computes + sleeps).
    pub active: u64,
    /// Actors made runnable by this event's completions.
    pub woken: u64,
    /// Cumulative simcalls processed by the maestro.
    pub simcalls: u64,
    /// Cumulative scheduling tokens (actor resumptions).
    pub tokens: u64,
    /// Cumulative solver wall-clock nanoseconds (host-dependent).
    pub solver_ns: f64,
    /// Current memory high-water mark in bytes (tracked allocations).
    pub mem_hwm: u64,
}

/// One fixed-width bucket of the series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TsSample {
    /// Simcalls processed during the bucket.
    pub simcalls: u64,
    /// Scheduling tokens granted during the bucket.
    pub tokens: u64,
    /// Actors woken by completions during the bucket.
    pub woken: u64,
    /// `∫ active dt` over the bucket (mean active = `active_time / width`).
    pub active_time: f64,
    /// Peak in-flight action count observed in the bucket.
    pub active_max: u64,
    /// Per-link `∫ utilization dt` over the bucket, indexed like the
    /// fabric's link table (empty for buckets before the first reading).
    pub link_util: Vec<f64>,
    /// Peak single-link utilization observed in the bucket.
    pub util_max: f64,
    /// Solver wall-clock nanoseconds spent during the bucket
    /// (host-dependent; zeroed by [`Deterministic::strip_nondeterminism`]).
    pub solver_ns: f64,
    /// Memory high-water mark at the end of the bucket (bytes).
    pub mem_hwm: u64,
}

impl TsSample {
    /// Folds `other` into `self` (pairwise merge during a halving):
    /// extensive quantities add, maxima take the max.
    fn absorb(&mut self, other: &TsSample) {
        self.simcalls += other.simcalls;
        self.tokens += other.tokens;
        self.woken += other.woken;
        self.active_time += other.active_time;
        self.active_max = self.active_max.max(other.active_max);
        if self.link_util.len() < other.link_util.len() {
            self.link_util.resize(other.link_util.len(), 0.0);
        }
        for (i, u) in other.link_util.iter().enumerate() {
            self.link_util[i] += u;
        }
        self.util_max = self.util_max.max(other.util_max);
        self.solver_ns += other.solver_ns;
        self.mem_hwm = self.mem_hwm.max(other.mem_hwm);
    }
}

/// The bounded-memory series: at most `budget` buckets of width
/// `interval`, covering `[0, samples.len() * interval)` simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Maximum number of buckets ever held (fixed at construction).
    pub budget: usize,
    /// Current bucket width in simulated seconds.
    pub interval: f64,
    /// How many times resolution has been halved.
    pub halvings: u32,
    /// The buckets, oldest first; index `i` covers
    /// `[i * interval, (i + 1) * interval)`.
    pub samples: Vec<TsSample>,

    // Sampler cursor: step-function integration state between readings.
    last_t: f64,
    held_active: u64,
    held_util: Vec<f64>,
    cum_simcalls: u64,
    cum_tokens: u64,
    cum_solver_ns: f64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new(DEFAULT_TS_BUDGET)
    }
}

impl TimeSeries {
    /// A series holding at most `budget` buckets (clamped to ≥ 2 so a
    /// halving always makes room).
    pub fn new(budget: usize) -> Self {
        Self {
            budget: budget.max(2),
            interval: INITIAL_INTERVAL,
            halvings: 0,
            samples: Vec::new(),
            last_t: 0.0,
            held_active: 0,
            held_util: Vec::new(),
            cum_simcalls: 0,
            cum_tokens: 0,
            cum_solver_ns: 0.0,
        }
    }

    /// Merges adjacent bucket pairs and doubles the bucket width.
    fn downsample(&mut self) {
        let mut merged = Vec::with_capacity(self.samples.len().div_ceil(2));
        let mut it = self.samples.drain(..);
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.absorb(&b);
            }
            merged.push(a);
        }
        drop(it);
        self.samples = merged;
        self.interval *= 2.0;
        self.halvings += 1;
    }

    /// Index of the bucket containing simulated time `t`, halving the
    /// resolution as needed so the index fits the budget, and growing the
    /// bucket array up to it. When float division rounds `t` just below a
    /// bucket boundary it actually sits on, the index is nudged forward so
    /// the bucket's right edge is always strictly beyond `t` — otherwise
    /// the integration loop in [`record`](Self::record) could compute a
    /// zero-length segment at a boundary and stall there.
    fn bucket_for(&mut self, t: f64) -> usize {
        let locate = |interval: f64| {
            let mut idx = (t / interval) as usize;
            if (idx + 1) as f64 * interval <= t {
                idx += 1;
            }
            idx
        };
        let mut idx = locate(self.interval);
        while idx >= self.budget {
            self.downsample();
            idx = locate(self.interval);
        }
        if self.samples.len() <= idx {
            self.samples.resize(idx + 1, TsSample::default());
        }
        idx
    }

    /// Folds one reading into the series: integrates the previously held
    /// step values over `[last_t, inst.t]`, charges the cumulative deltas
    /// and instantaneous maxima to the bucket at `inst.t`, then holds
    /// `inst`'s values for the next step. `link_util[i]` is link `i`'s
    /// instantaneous utilization in `[0, 1]`.
    ///
    /// Readings must arrive in non-decreasing `t` order (the maestro's
    /// event loop guarantees this).
    pub fn record(&mut self, inst: TsInstant, link_util: &[f64]) {
        // Step-function integration of the held values across every bucket
        // the interval [last_t, t] spans. `bucket_for` keeps indices below
        // the budget, so each segment end is a genuine float step forward
        // and the loop is bounded by the budget per halving level.
        let t = inst.t.max(self.last_t);
        let mut s = self.last_t;
        while s < t {
            let idx = self.bucket_for(s);
            let end = ((idx + 1) as f64 * self.interval).min(t);
            let seg = end - s;
            if seg > 0.0 {
                let b = &mut self.samples[idx];
                b.active_time += self.held_active as f64 * seg;
                if b.link_util.len() < self.held_util.len() {
                    b.link_util.resize(self.held_util.len(), 0.0);
                }
                for (i, u) in self.held_util.iter().enumerate() {
                    b.link_util[i] += u * seg;
                }
            }
            if end <= s {
                break; // t == last_t up to float resolution; nothing to spread
            }
            s = end;
        }

        let idx = self.bucket_for(t);
        let b = &mut self.samples[idx];
        b.simcalls += inst.simcalls - self.cum_simcalls;
        b.tokens += inst.tokens - self.cum_tokens;
        b.woken += inst.woken;
        b.solver_ns += inst.solver_ns - self.cum_solver_ns;
        b.active_max = b.active_max.max(inst.active);
        b.mem_hwm = b.mem_hwm.max(inst.mem_hwm);
        for &u in link_util {
            b.util_max = b.util_max.max(u);
        }

        self.last_t = t;
        self.held_active = inst.active;
        self.held_util.clear();
        self.held_util.extend_from_slice(link_util);
        self.cum_simcalls = inst.simcalls;
        self.cum_tokens = inst.tokens;
        self.cum_solver_ns = inst.solver_ns;
    }

    /// Total simcalls folded into the series so far.
    pub fn total_simcalls(&self) -> u64 {
        self.samples.iter().map(|s| s.simcalls).sum()
    }

    /// Run-wide `∫ active dt` (conserved under halvings).
    pub fn total_active_time(&self) -> f64 {
        self.samples.iter().map(|s| s.active_time).sum()
    }

    /// JSON section (spliced into the run report under `"timeseries"`).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("budget").uint_val(self.budget as u64);
        j.key("interval").num_val(self.interval);
        j.key("halvings").uint_val(self.halvings as u64);
        j.key("samples").begin_arr();
        for (i, s) in self.samples.iter().enumerate() {
            j.begin_obj();
            j.key("t").num_val(i as f64 * self.interval);
            j.key("simcalls").uint_val(s.simcalls);
            j.key("tokens").uint_val(s.tokens);
            j.key("woken").uint_val(s.woken);
            j.key("active_time").num_val(s.active_time);
            j.key("active_max").uint_val(s.active_max);
            j.key("util_max").num_val(s.util_max);
            j.key("solver_ns").num_val(s.solver_ns);
            j.key("mem_hwm").uint_val(s.mem_hwm);
            j.key("link_util").begin_arr();
            for u in &s.link_util {
                j.num_val(*u);
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

impl Deterministic for TimeSeries {
    /// Zeroes the host-dependent solver wall-clock so that two identical
    /// runs (or an on-line run and its replay) compare byte-identically.
    fn strip_nondeterminism(&mut self) {
        for s in &mut self.samples {
            s.solver_ns = 0.0;
        }
        self.cum_solver_ns = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(t: f64, simcalls: u64, active: u64) -> TsInstant {
        TsInstant {
            t,
            active,
            woken: 1,
            simcalls,
            tokens: simcalls,
            solver_ns: simcalls as f64,
            mem_hwm: 64,
        }
    }

    /// The budget holds no matter how long the run gets: a million
    /// readings spread over ~18 minutes of simulated time never push the
    /// bucket count past the budget.
    #[test]
    fn memory_stays_under_budget_regardless_of_run_length() {
        let mut ts = TimeSeries::new(64);
        for i in 0..1_000_000u64 {
            ts.record(reading(i as f64 * 1.1e-3, i, i % 7), &[0.5, 0.25]);
        }
        assert!(ts.samples.len() <= 64, "len {} > budget", ts.samples.len());
        assert!(ts.halvings > 0, "a long run must have halved");
        assert_eq!(ts.total_simcalls(), 999_999);
    }

    /// Extensive quantities survive halvings exactly; the t=0 reading
    /// contributes nothing (cumulative deltas start at zero).
    #[test]
    fn merged_integrals_are_conserved() {
        let mut ts = TimeSeries::new(4);
        ts.record(reading(0.0, 0, 2), &[1.0]);
        for i in 1..=100u64 {
            ts.record(reading(i as f64 * 1e-4, 10 * i, 2), &[1.0]);
        }
        assert_eq!(ts.total_simcalls(), 1000);
        // active == 2 held over [0, 1e-2] simulated seconds.
        assert!((ts.total_active_time() - 2.0 * 1e-2).abs() < 1e-12);
        let util: f64 = ts.samples.iter().map(|s| s.link_util[0]).sum();
        assert!((util - 1e-2).abs() < 1e-12);
        assert!(ts.samples.len() <= 4);
    }

    /// Readings at identical timestamps all land in the same bucket.
    #[test]
    fn same_time_readings_accumulate() {
        let mut ts = TimeSeries::new(8);
        ts.record(reading(0.0, 3, 1), &[]);
        ts.record(reading(0.0, 7, 5), &[]);
        assert_eq!(ts.samples.len(), 1);
        assert_eq!(ts.samples[0].simcalls, 7);
        assert_eq!(ts.samples[0].active_max, 5);
        assert_eq!(ts.samples[0].woken, 2);
    }

    #[test]
    fn stripping_zeroes_solver_only() {
        let mut ts = TimeSeries::new(8);
        ts.record(reading(1e-6, 5, 1), &[0.5]);
        assert!(ts.samples.iter().any(|s| s.solver_ns > 0.0));
        let simcalls = ts.total_simcalls();
        ts.strip_nondeterminism();
        assert!(ts.samples.iter().all(|s| s.solver_ns == 0.0));
        assert_eq!(ts.total_simcalls(), simcalls);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut ts = TimeSeries::new(4);
        ts.record(reading(1e-6, 2, 1), &[0.5]);
        let json = ts.to_json();
        assert!(json.starts_with("{\"budget\":4,\"interval\":"));
        assert!(json.contains("\"samples\":[{\"t\":0,"));
        assert!(json.contains("\"link_util\":["));
    }
}
