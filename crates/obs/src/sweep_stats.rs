//! Per-worker throughput accounting for replication sweeps.
//!
//! A sweep engine runs thousands of independent re-simulations across a
//! worker pool; this module is the observability rollup for that layer —
//! one [`WorkerStats`] per pool worker (scenarios executed, busy
//! wall-clock), aggregated into a [`SweepStats`] that lands in the
//! sweep-level report.
//!
//! `busy_s` is host wall-clock, and which worker claims which scenario is a
//! race between threads: both counters are schedule-dependent, and the
//! [`crate::Deterministic`] projection of a [`SweepStats`] keeps only the
//! number of workers.

use crate::json_mod::JsonBuf;
use crate::Deterministic;

/// Throughput counters of one sweep worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Scenarios this worker completed.
    pub scenarios: u64,
    /// Wall-clock seconds spent executing scenarios (host-dependent).
    pub busy_s: f64,
}

/// Sweep-level rollup: one entry per worker, in worker-id order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl SweepStats {
    /// Total scenarios executed across the pool.
    pub fn total_scenarios(&self) -> u64 {
        self.workers.iter().map(|w| w.scenarios).sum()
    }

    /// Always 0: workers claim scenarios from one shared cursor, so no job
    /// is ever stolen. Kept only because the benchmark suite still reports
    /// it; ROADMAP item 1 deletes it together with that column.
    pub fn total_stolen(&self) -> u64 {
        0
    }

    /// Appends this rollup as a JSON array value to `j`.
    pub fn append_json(&self, j: &mut JsonBuf) {
        j.begin_arr();
        for (i, w) in self.workers.iter().enumerate() {
            j.begin_obj();
            j.key("worker").uint_val(i as u64);
            j.key("scenarios").uint_val(w.scenarios);
            j.key("busy_s").num_val(w.busy_s);
            j.end_obj();
        }
        j.end_arr();
    }
}

impl Deterministic for SweepStats {
    /// Which worker ran which scenario, and for how long, is a race
    /// between threads: only the number of workers survives.
    fn strip_nondeterminism(&mut self) {
        self.workers.fill(WorkerStats::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SweepStats {
        SweepStats {
            workers: vec![
                WorkerStats {
                    scenarios: 10,
                    busy_s: 1.5,
                },
                WorkerStats {
                    scenarios: 6,
                    busy_s: 0.9,
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_workers() {
        let s = stats();
        assert_eq!(s.total_scenarios(), 16);
        assert_eq!(s.total_stolen(), 0);
    }

    #[test]
    fn stripping_keeps_only_the_worker_count() {
        let mut s = stats();
        s.strip_nondeterminism();
        assert_eq!(s.workers, vec![WorkerStats::default(); 2]);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut j = JsonBuf::new();
        stats().append_json(&mut j);
        assert_eq!(
            j.finish(),
            "[{\"worker\":0,\"scenarios\":10,\"busy_s\":1.5},\
             {\"worker\":1,\"scenarios\":6,\"busy_s\":0.9}]"
        );
    }
}
