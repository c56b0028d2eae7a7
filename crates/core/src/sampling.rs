//! CPU-burst sampling (paper §3.1, §5.2).
//!
//! On-line simulation executes application code for real; the cost is that
//! simulating `p` ranks on one node takes `p` times the compute. SMPI's
//! answer is to *sample*: execute and wall-clock-time a CPU burst only its
//! first `n` occurrences, then replay the mean as a simulated delay.
//!
//! * [`Ctx::sample_local`] — `SMPI_SAMPLE_LOCAL(n)`: each rank measures its
//!   own first `n` executions;
//! * [`Ctx::sample_global`] — `SMPI_SAMPLE_GLOBAL(n)`: `n` measurements are
//!   shared across all ranks (SPMD regularity assumption), making simulation
//!   compute time independent of the rank count;
//! * [`Ctx::sample_delay`] — `SMPI_SAMPLE_DELAY(flops)`: never execute, burn
//!   the given flops on the simulated host (the paper's `n = 0` case).
//!
//! Keys play the role of the paper's "unique identifier based on source file
//! name and line number": pass something like `concat!(file!(), ":", line!())`
//! or any stable site name.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use crate::ctx::Ctx;

/// Aggregated timings for one sampling site.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SampleStats {
    /// Number of executions measured so far.
    pub count: u32,
    /// Sum of simulated durations of the measured executions.
    pub total: f64,
}

impl SampleStats {
    /// Mean measured duration.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

#[derive(Debug, PartialEq, Eq, Hash, Clone)]
enum Key {
    Local(String, u32),
    Global(String),
}

/// The shared sampling table.
#[derive(Debug, Default)]
pub(crate) struct SampleStore {
    inner: RefCell<HashMap<Key, SampleStats>>,
}

impl SampleStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Statistics of a local site for one rank (None if never sampled).
    #[cfg(test)]
    pub(crate) fn local_stats(&self, site: &str, rank: u32) -> Option<SampleStats> {
        self.inner
            .borrow()
            .get(&Key::Local(site.to_string(), rank))
            .copied()
    }

    /// Statistics of a global site.
    #[cfg(test)]
    pub(crate) fn global_stats(&self, site: &str) -> Option<SampleStats> {
        self.inner
            .borrow()
            .get(&Key::Global(site.to_string()))
            .copied()
    }

    fn decide(&self, key: Key, n: u32) -> Decision {
        match self.inner.borrow().get(&key) {
            Some(stats) if stats.count >= n => Decision::Replay(stats.mean()),
            _ => Decision::Measure(key),
        }
    }

    fn record(&self, key: Key, duration: f64) {
        let mut map = self.inner.borrow_mut();
        let stats = map.entry(key).or_default();
        stats.count += 1;
        stats.total += duration;
    }
}

enum Decision {
    Measure(Key),
    Replay(f64),
}

impl Ctx<'_> {
    /// `SMPI_SAMPLE_LOCAL(n)`: executes and times `body` for this rank's
    /// first `n` visits of `site`, then replays the mean as a simulated
    /// delay (the body is *not* executed; data it would produce is stale —
    /// the erroneous-results trade-off of §3.1).
    ///
    /// Returns `true` when the body actually ran.
    pub fn sample_local(&self, site: &str, n: u32, body: impl FnOnce()) -> bool {
        assert!(n > 0, "use sample_delay for the n = 0 case");
        let key = Key::Local(site.to_string(), self.rank() as u32);
        self.sample(key, n, body)
    }

    /// `SMPI_SAMPLE_GLOBAL(n)`: like [`sample_local`](Self::sample_local)
    /// but the `n` measurements are pooled across all ranks, so total
    /// simulation compute time does not grow with the rank count.
    pub fn sample_global(&self, site: &str, n: u32, body: impl FnOnce()) -> bool {
        assert!(n > 0, "use sample_delay for the n = 0 case");
        self.sample(Key::Global(site.to_string()), n, body)
    }

    /// `SMPI_SAMPLE_DELAY(flops)`: never executes anything; burns `flops`
    /// on the simulated host (the user-supplied-cost mode, which is also
    /// what makes RAM-folding technique #2 sound: the skipped code's arrays
    /// are never referenced).
    pub fn sample_delay(&self, flops: f64) {
        self.compute(flops);
    }

    fn sample(&self, key: Key, n: u32, body: impl FnOnce()) -> bool {
        // Local simcall tier: the measure-or-replay decision reads shared
        // state inside the rank; only the resulting simulated delay
        // (the sleep below) crosses to the maestro.
        self.shared.count_local_call();
        match self.shared.sampling.decide(key.clone(), n) {
            Decision::Measure(key) => {
                let start = Instant::now();
                body();
                let wall = start.elapsed().as_secs_f64();
                let simulated = wall * self.shared.config.cpu_factor;
                self.shared.sampling.record(key, simulated);
                // Charge the burst to the simulated clock.
                self.sleep(simulated);
                true
            }
            Decision::Replay(mean) => {
                self.sleep(mean);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counts_and_means() {
        let s = SampleStore::new();
        let k = Key::Local("x".into(), 0);
        match s.decide(k.clone(), 2) {
            Decision::Measure(_) => {}
            Decision::Replay(_) => panic!("should measure first"),
        }
        s.record(k.clone(), 1.0);
        s.record(k.clone(), 3.0);
        match s.decide(k.clone(), 2) {
            Decision::Replay(mean) => assert_eq!(mean, 2.0),
            Decision::Measure(_) => panic!("should replay after n"),
        }
        assert_eq!(s.local_stats("x", 0).unwrap().count, 2);
    }

    #[test]
    fn local_keys_are_per_rank() {
        let s = SampleStore::new();
        s.record(Key::Local("x".into(), 0), 1.0);
        assert!(s.local_stats("x", 1).is_none());
        assert!(s.global_stats("x").is_none());
    }

    #[test]
    fn global_key_pools_across_ranks() {
        let s = SampleStore::new();
        s.record(Key::Global("y".into()), 1.0);
        s.record(Key::Global("y".into()), 2.0);
        let g = s.global_stats("y").unwrap();
        assert_eq!(g.count, 2);
        assert!((g.mean() - 1.5).abs() < 1e-15);
    }

    #[test]
    fn empty_stats_mean_is_zero() {
        assert_eq!(SampleStats::default().mean(), 0.0);
    }
}
