//! The full-rebuild oracle (`Simulation::reshare_full`) and the differential
//! tests of the shipped reshare path against it: the same script is driven
//! once on each and the observations compared.

use super::*;
use crate::lmm::{CnstId, MaxMinProblem};
use proptest::prelude::*;

impl Simulation {
    /// Re-solves the whole problem in one global, never-folded solve built
    /// from the action table alone. The executable specification of a
    /// reshare: the shipped path must match it (the tests below), so it
    /// reads neither the class table nor the links' class lists — and
    /// leaves both as the event handlers keep them.
    pub(super) fn reshare_full(&mut self) {
        self.kstats.reshares += 1;
        let now = self.now;
        let mut order: Vec<UserKey> = self.actions.iter().map(|(s, _g, a)| (a.seq, s)).collect();
        order.sort_unstable();

        let mut problem = MaxMinProblem::new();
        let mut link_cnst: Vec<Option<CnstId>> = vec![None; self.links.len()];
        let mut host_cnst: Vec<Option<CnstId>> = vec![None; self.hosts.len()];
        // Reverse map: constraint insertion index → kernel link (`None`
        // for host constraints), to translate solver bottlenecks.
        let mut cnst_link: Vec<Option<u32>> = Vec::new();
        let mut sharing: Vec<u32> = Vec::new();
        let mut unconstrained: Vec<u32> = Vec::new();
        for &(_seq, slot) in &order {
            let a = self.actions.get_mut(slot).expect("live action");
            Self::fold(a, now);
            match &a.kind {
                ActionKind::Transfer {
                    oracle_route,
                    latency_left,
                    bound,
                    ..
                } => {
                    if *latency_left > 0.0 {
                        continue; // not consuming bandwidth yet
                    }
                    let mut cnsts = Vec::new();
                    for l in oracle_route {
                        let li = l.index();
                        if !self.config.contention || !self.links[li].contended {
                            continue;
                        }
                        cnsts.push(*link_cnst[li].get_or_insert_with(|| {
                            cnst_link.push(Some(li as u32));
                            problem.add_constraint(self.links[li].bandwidth)
                        }));
                    }
                    if cnsts.is_empty() {
                        // No capacity constraint: the solver would freeze
                        // the flow at its own bound; do it directly.
                        unconstrained.push(slot);
                    } else {
                        problem.add_variable(*bound, &cnsts);
                        sharing.push(slot);
                    }
                }
                ActionKind::Exec { oracle_host, .. } => {
                    let hi = oracle_host.index();
                    let c = *host_cnst[hi].get_or_insert_with(|| {
                        cnst_link.push(None);
                        problem.add_constraint(self.hosts[hi].speed)
                    });
                    problem.add_variable(f64::INFINITY, &[c]);
                    sharing.push(slot);
                }
                ActionKind::Sleep { .. } => {}
            }
        }
        let (rates, bottlenecks) = problem.solve_with_bottlenecks();
        for (k, &slot) in sharing.iter().enumerate() {
            let link = bottlenecks[k].and_then(|c| cnst_link[c.index()]);
            self.rerate(slot, rates[k], Some(link));
        }
        for &slot in &unconstrained {
            self.run_at_bound(slot);
        }
        self.dirty.clear();
        self.record_reshare();
    }
}

#[test]
fn full_rebuild_oracle_matches_incremental() {
    let run = |oracle: bool| -> Vec<f64> {
        let mut sim = Simulation::new();
        sim.full_rebuild_oracle = oracle;
        let l1 = sim.add_link(100.0, 0.01);
        let l2 = sim.add_link(50.0, 0.02);
        let h = sim.add_host(1000.0);
        sim.start_transfer(&[l1], 1000.0, &TransferModel::ideal());
        sim.start_transfer(&[l1, l2], 500.0, &TransferModel::ideal());
        sim.start_exec(h, 2000.0);
        sim.start_sleep(0.5);
        let mut times = Vec::new();
        while let Some((t, done)) = sim.advance_to_next() {
            for _ in done {
                times.push(t.as_secs());
            }
        }
        times
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn contention_toggle_mid_flight_rerates_live_flows() {
    // `a` crosses only the toggled link, `b` also a second contended one:
    // un-contending `l` leaves `a` unconstrained and `b` alone on `m`, so
    // re-entry takes both of its branches. Every quantity is a small
    // integer, so the closed-form checks are exact.
    let run = |oracle: bool| -> Vec<(u64, Vec<Option<u64>>)> {
        let mut sim = Simulation::new();
        sim.full_rebuild_oracle = oracle;
        let l = sim.add_link(100.0, 0.0);
        let m = sim.add_link(100.0, 0.0);
        let a = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let b = sim.start_transfer(&[l, m], 1000.0, &TransferModel::ideal());
        sim.start_sleep(4.0);
        sim.start_sleep(6.0);
        let mut seen = Vec::new();
        let mut observe = |sim: &mut Simulation| {
            sim.next_event_time(); // rates are refreshed lazily
            let rates = [a, b].map(|x| sim.action_rate(x).map(f64::to_bits));
            seen.push((sim.now().as_secs().to_bits(), rates.to_vec()));
            rates.map(|r| r.map(f64::from_bits))
        };
        assert_eq!(observe(&mut sim), [Some(50.0), Some(50.0)]);
        // t = 4: 800 B left each; un-contended, both run at their bound.
        assert_eq!(sim.advance_to_next().unwrap().0.as_secs(), 4.0);
        sim.set_link_contended(l, false);
        assert_eq!(observe(&mut sim), [Some(100.0), Some(100.0)]);
        // t = 6: 600 B left each; contended again, they share again.
        assert_eq!(sim.advance_to_next().unwrap().0.as_secs(), 6.0);
        sim.set_link_contended(l, true);
        assert_eq!(observe(&mut sim), [Some(50.0), Some(50.0)]);
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(t.as_secs(), 6.0 + 600.0 / 50.0);
        assert_eq!(done, vec![a, b]);
        seen.push((t.as_secs().to_bits(), Vec::new()));
        seen
    };
    assert_eq!(run(false), run(true));
}

/// One observation of the differential churn test: event time, completed
/// action ids, and the (id, rate) of every still-live action.
type ChurnEvent = (f64, Vec<u64>, Vec<(u64, f64)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test of the incremental reshare against the
    /// full-rebuild oracle: an arbitrary churn of transfers, execs,
    /// sleeps and advances must produce the same completion schedule
    /// and the same intermediate rates on both. The script alphabet aims
    /// at what the live class structures must get right: contention
    /// toggles while classes that differ only in the toggled link are
    /// live, slots recycled into a different class within one tick, and
    /// same-route transfers whose sizes fall in different model segments
    /// (same route, different bound: two classes, a mixed component).
    #[test]
    fn incremental_reshare_matches_full_rebuild(
        raw_ops in proptest::collection::vec(
            (0u8..8, 0usize..8, 1e2f64..1e6), 1..50),
        bws in proptest::collection::vec(1e5f64..1e9, 1..4),
        lat in 0.0f64..1e-3,
    ) {
        // Three segments across the size range, each with its own bound.
        let stepped = TransferModel::new(vec![
            crate::model::Segment { upper: 1e4, lat_factor: 1.0, bw_factor: 0.5 },
            crate::model::Segment { upper: 1e5, lat_factor: 1.5, bw_factor: 0.8 },
            crate::model::Segment { upper: f64::INFINITY, lat_factor: 2.0, bw_factor: 0.95 },
        ]);
        let run = |oracle: bool| {
            let mut sim = Simulation::new();
            sim.full_rebuild_oracle = oracle;
            let links: Vec<_> = bws.iter().map(|&bw| sim.add_link(bw, lat)).collect();
            let mut contended = vec![true; links.len()];
            let h = sim.add_host(1e9);
            let mut started = Vec::new();
            let mut trace: Vec<ChurnEvent> = Vec::new();
            let observe = |sim: &Simulation,
                           started: &[ActionId],
                           trace: &mut Vec<ChurnEvent>,
                           t: f64,
                           done: &[ActionId]| {
                let mut done: Vec<u64> = done.iter().map(|a| a.raw()).collect();
                done.sort_unstable();
                let mut rates: Vec<(u64, f64)> = started
                    .iter()
                    .filter(|&&a| !sim.is_done(a))
                    .map(|&a| (a.raw(), sim.action_rate(a).unwrap()))
                    .collect();
                rates.sort_unstable_by_key(|r| r.0);
                trace.push((t, done, rates));
            };
            let route_of = |sel: usize| -> Vec<LinkId> {
                let hops = sel % links.len() + 1;
                (0..hops).map(|k| links[(sel + k) % links.len()]).collect()
            };
            for &(kind, sel, x) in &raw_ops {
                match kind {
                    0 => started.push(sim.start_transfer(&route_of(sel), x, &TransferModel::ideal())),
                    1 => started.push(sim.start_exec(h, x * 1e3)),
                    2 => started.push(sim.start_sleep(x * 1e-6)),
                    3 => {
                        if let Some((t, done)) = sim.advance_to_next() {
                            observe(&sim, &started, &mut trace, t.as_secs(), &done);
                        }
                    }
                    4 => {
                        let l = sel % links.len();
                        contended[l] = !contended[l];
                        sim.set_link_contended(links[l], contended[l]);
                    }
                    5 => {
                        // Two routes that differ only in link `l`.
                        let l = links[sel % links.len()];
                        let other = links[(sel + 1) % links.len()];
                        started.push(sim.start_transfer(&[other], x, &TransferModel::ideal()));
                        started.push(sim.start_transfer(&[other, l], x, &TransferModel::ideal()));
                    }
                    6 => {
                        // Whatever completes is replaced at once: the freed
                        // slots are re-used this tick, by other classes.
                        if let Some((t, done)) = sim.advance_to_next() {
                            for j in 0..done.len() {
                                started.push(if j % 2 == 0 {
                                    sim.start_transfer(&route_of(sel + j + 1), x, &stepped)
                                } else {
                                    sim.start_exec(h, x * 1e3)
                                });
                            }
                            observe(&sim, &started, &mut trace, t.as_secs(), &done);
                        }
                    }
                    _ => started.push(sim.start_transfer(&route_of(sel), x, &stepped)),
                }
            }
            while let Some((t, done)) = sim.advance_to_next() {
                observe(&sim, &started, &mut trace, t.as_secs(), &done);
            }
            sim.assert_drained();
            trace
        };
        let inc = run(false);
        let full = run(true);
        prop_assert_eq!(inc.len(), full.len());
        for ((ti, di, ri), (tf, df, rf)) in inc.iter().zip(full.iter()) {
            prop_assert!(
                (ti - tf).abs() <= 1e-9 * tf.abs().max(1e-12),
                "event time diverged: {} vs {}", ti, tf
            );
            prop_assert_eq!(di, df);
            prop_assert_eq!(ri.len(), rf.len());
            for ((idi, ratei), (idf, ratef)) in ri.iter().zip(rf.iter()) {
                prop_assert_eq!(idi, idf);
                prop_assert!(
                    (ratei - ratef).abs() <= 1e-9 * ratef.abs().max(1e-12),
                    "rate diverged for {}: {} vs {}", idi, ratei, ratef
                );
            }
        }
    }

    /// Differential pin of the collective-aware fast path: the batched,
    /// class-folded incremental engine must be *bitwise* identical —
    /// event times, completion batches and every live rate — to the
    /// oracle (one global, never-folded solve per reshare) across
    /// randomized collective-style rounds on a shared route. Uniform
    /// rounds (one model, one rate bound) hit the folding and
    /// same-instant batching paths; mixed rounds give each flow a
    /// distinct bound bit-pattern, forcing the heterogeneous fallback;
    /// undrained rounds overlap into the next so folded-eligible and
    /// ineligible flows coexist in one component.
    ///
    /// One shared route keeps every flow in a single component, so both
    /// sides fold remaining work at the same instants and bit-identity
    /// is well-defined (with disjoint components the two schemes
    /// re-quantize at different events — that regime is covered by the
    /// tolerance-based churn test above).
    #[test]
    fn fast_path_matches_naive_engine_bitwise(
        rounds in proptest::collection::vec(
            // (flows, size, uniform?, drain before next round?)
            (1usize..12, 1e3f64..1e6, 0u8..2, 0u8..2), 1..8),
        bws in proptest::collection::vec(1e5f64..1e9, 1..3),
        lat in 0.0f64..1e-3,
    ) {
        // Every observation is captured as raw bits: this test asserts
        // bit-identity, not closeness.
        type BitEvent = (u64, Vec<u64>, Vec<(u64, u64)>);
        let run = |oracle: bool| {
            let mut sim = Simulation::new();
            sim.full_rebuild_oracle = oracle;
            let route: Vec<_> = bws.iter().map(|&bw| sim.add_link(bw, lat)).collect();
            let mut started = Vec::new();
            let mut events: Vec<BitEvent> = Vec::new();
            let mut observe = |sim: &Simulation,
                               started: &[ActionId],
                               t: f64,
                               done: Vec<ActionId>| {
                let mut done: Vec<u64> = done.iter().map(|a| a.raw()).collect();
                done.sort_unstable();
                let mut rates: Vec<(u64, u64)> = started
                    .iter()
                    .filter(|&&a| !sim.is_done(a))
                    .map(|&a| (a.raw(), sim.action_rate(a).unwrap().to_bits()))
                    .collect();
                rates.sort_unstable_by_key(|r| r.0);
                events.push((t.to_bits(), done, rates));
            };
            for &(n, size, uni, drain) in &rounds {
                for k in 0..n {
                    // A flow's rate bound comes from its model's
                    // bandwidth factor: a shared model is an eager
                    // collective round (one bound bit-pattern,
                    // foldable); per-flow factors make the component
                    // heterogeneous.
                    let model = if uni == 1 {
                        TransferModel::ideal()
                    } else {
                        TransferModel::affine(1.0, 0.5 + k as f64 * 0.07)
                    };
                    started.push(sim.start_transfer(&route, size, &model));
                }
                if drain == 1 {
                    while let Some((t, done)) = sim.advance_to_next() {
                        observe(&sim, &started, t.as_secs(), done);
                    }
                }
            }
            while let Some((t, done)) = sim.advance_to_next() {
                observe(&sim, &started, t.as_secs(), done);
            }
            sim.assert_drained();
            events
        };
        prop_assert_eq!(run(false), run(true));
    }
}
