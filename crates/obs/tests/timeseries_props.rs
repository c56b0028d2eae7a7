//! Property-based tests of the bounded-memory time-series sampler.
//!
//! Invariants checked on random reading streams:
//! 1. Budget: the bucket count never exceeds the configured budget, no
//!    matter how far simulated time runs.
//! 2. Conservation: extensive quantities (simcall/token counts, woken
//!    actors, `x·dt` integrals) survive any number of resolution halvings
//!    exactly.
//! 3. Determinism: the same reading stream always produces byte-identical
//!    JSON — the property the on-line-vs-replay byte-identity tests build
//!    on.

use proptest::prelude::*;
use smpi_obs::{Deterministic, TimeSeries, TsInstant};

/// A reading stream: monotone times built from non-negative increments,
/// with per-reading activity.
fn readings(max_len: usize) -> impl Strategy<Value = Vec<(f64, u64, u64, u64)>> {
    // (dt, simcall_delta, active, woken)
    proptest::collection::vec((0.0f64..2e-3, 0u64..50, 0u64..16, 0u64..4), 1..max_len)
}

fn feed(budget: usize, stream: &[(f64, u64, u64, u64)]) -> TimeSeries {
    let mut ts = TimeSeries::new(budget);
    let mut t = 0.0;
    let mut simcalls = 0;
    for &(dt, dc, active, woken) in stream {
        t += dt;
        simcalls += dc;
        ts.record(
            TsInstant {
                t,
                active,
                woken,
                simcalls,
                tokens: simcalls,
                solver_ns: simcalls as f64 * 3.0,
                mem_hwm: active * 1024,
            },
            &[active as f64 / 16.0, 1.0 - active as f64 / 16.0],
        );
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sample count stays at or below the budget for any stream.
    #[test]
    fn sample_count_never_exceeds_budget(
        budget in 2usize..32,
        stream in readings(400),
    ) {
        let ts = feed(budget, &stream);
        prop_assert!(
            ts.samples.len() <= ts.budget,
            "{} buckets with budget {}",
            ts.samples.len(),
            ts.budget
        );
        // The series always covers the whole run at the current width.
        let t_end: f64 = stream.iter().map(|r| r.0).sum();
        prop_assert!(ts.samples.len() as f64 * ts.interval >= t_end - 1e-12);
    }

    /// Halvings merge buckets without losing any extensive quantity: the
    /// totals equal those of a sampler too big to ever halve.
    #[test]
    fn merged_totals_are_conserved(stream in readings(300)) {
        let small = feed(2, &stream); // halves as often as possible
        let large = feed(1 << 20, &stream); // never halves
        prop_assert!(large.halvings == 0);
        prop_assert_eq!(small.total_simcalls(), large.total_simcalls());
        let woken = |ts: &TimeSeries| ts.samples.iter().map(|s| s.woken).sum::<u64>();
        prop_assert_eq!(woken(&small), woken(&large));
        prop_assert!((small.total_active_time() - large.total_active_time()).abs() < 1e-9);
        let util = |ts: &TimeSeries, i: usize| {
            ts.samples
                .iter()
                .map(|s| s.link_util.get(i).copied().unwrap_or(0.0))
                .sum::<f64>()
        };
        prop_assert!((util(&small, 0) - util(&large, 0)).abs() < 1e-9);
        prop_assert!((util(&small, 1) - util(&large, 1)).abs() < 1e-9);
    }

    /// Identical reading streams produce byte-identical JSON, with and
    /// without the host-dependent solver time stripped.
    #[test]
    fn identical_streams_serialize_identically(
        budget in 2usize..32,
        stream in readings(200),
    ) {
        let a = feed(budget, &stream);
        let b = feed(budget, &stream);
        prop_assert_eq!(a.to_json(), b.to_json());
        let mut a = a;
        let mut b = b;
        a.strip_nondeterminism();
        b.strip_nondeterminism();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
