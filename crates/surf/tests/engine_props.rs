//! Property-based tests of the simulation engine.

use proptest::prelude::*;
use surf_sim::{Simulation, TransferModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The clock never moves backwards, every started action eventually
    /// completes, and completions are reported exactly once.
    #[test]
    fn all_transfers_complete_in_monotone_time(
        sizes in proptest::collection::vec(0.0f64..1e7, 1..20),
        bw in 1e3f64..1e9,
        lat in 0.0f64..1e-2,
    ) {
        let mut sim = Simulation::new();
        let l = sim.add_link(bw, lat);
        let ids: Vec<_> = sizes
            .iter()
            .map(|&s| sim.start_transfer(&[l], s, &TransferModel::ideal()))
            .collect();
        let mut last = sim.now();
        let mut completed = Vec::new();
        while let Some((t, done)) = sim.advance_to_next() {
            prop_assert!(t >= last, "clock went backwards");
            last = t;
            completed.extend(done);
        }
        completed.sort();
        let mut expect = ids.clone();
        expect.sort();
        prop_assert_eq!(completed, expect);
    }

    /// A lone transfer takes exactly latency + size/bandwidth.
    #[test]
    fn lone_transfer_matches_closed_form(
        size in 1.0f64..1e8,
        bw in 1e3f64..2e9,
        lat in 0.0f64..1.0,
    ) {
        let mut sim = Simulation::new();
        let l = sim.add_link(bw, lat);
        sim.start_transfer(&[l], size, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        let expect = lat + size / bw;
        prop_assert!(
            (t.as_secs() - expect).abs() <= 1e-9 * (1.0 + expect),
            "got {}, expected {}", t.as_secs(), expect
        );
    }

    /// n equal flows on one link take exactly n times as long as one flow
    /// (ignoring latency): aggregate bandwidth is conserved.
    #[test]
    fn bandwidth_conservation(n in 1usize..16, size in 1e3f64..1e6, bw in 1e4f64..1e9) {
        let mut sim = Simulation::new();
        let l = sim.add_link(bw, 0.0);
        for _ in 0..n {
            sim.start_transfer(&[l], size, &TransferModel::ideal());
        }
        let mut end = 0.0;
        while let Some((t, _)) = sim.advance_to_next() {
            end = t.as_secs();
        }
        let expect = n as f64 * size / bw;
        prop_assert!((end - expect).abs() <= 1e-6 * expect.max(1.0));
    }
}
