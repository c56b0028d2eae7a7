//! Property-based tests of the max-min fairness solver.
//!
//! Invariants checked on random problem instances:
//! 1. Feasibility: no constraint capacity is exceeded.
//! 2. Bounds: no variable exceeds its individual bound.
//! 3. Maximality: every variable is limited by *something* — its bound or a
//!    saturated constraint (otherwise the allocation would not be max-min).
//! 4. Non-negativity of all rates.
//!
//! Plus *bitwise* differential pins (see the `lmm` module docs): the
//! production solve, whose rounds scan the cached λs, against the
//! from-scratch oracle ([`MaxMinProblem::solve_reference`]) at every problem
//! size, on random problems and on generators aimed at the corners where a
//! cache could drift (equal-λ ties between constraints and bounds,
//! zero-capacity constraints, zero bounds of either sign, folded classes
//! with finite bounds); and folded class variables against their expanded
//! members under the uniform-round precondition. Bitwise is deliberate — the
//! engine's incremental reshare, the class-folding fast path and the e2e
//! goldens all rely on the solver being a pure function of the problem, not
//! merely accurate to a tolerance.
//!
//! The solver's two shortcuts (a problem of one variable is
//! rated in closed form; a problem whose every constraint exceeds its
//! demand by the proven margin returns the bounds) are pinned the same way,
//! rates *and* bottlenecks, on generators aimed at their edges: λ ties with
//! the bound, zero and equal capacities, infinite bounds, and capacities a
//! few ulps either side of the demand and of the margin.

use proptest::prelude::*;
use surf_sim::{CnstId, MaxMinProblem};

/// How a generated variable is added.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `add_variable`: one flow.
    Unit,
    /// `add_variable_class` with this many members.
    Class(u32),
}

/// A problem from [`corner_problem`].
#[derive(Debug, Clone)]
struct CornerProblem {
    capacities: Vec<f64>,
    vars: Vec<(f64, Kind, Vec<usize>)>,
}

impl CornerProblem {
    fn build(&self) -> MaxMinProblem {
        let mut p = MaxMinProblem::new();
        let cs: Vec<CnstId> = self
            .capacities
            .iter()
            .map(|&c| p.add_constraint(c))
            .collect();
        for (bound, kind, members) in &self.vars {
            let crossed: Vec<CnstId> = members.iter().map(|&i| cs[i]).collect();
            match *kind {
                Kind::Unit => p.add_variable(*bound, &crossed),
                Kind::Class(m) => p.add_variable_class(*bound, m, &crossed),
            };
        }
        p
    }
}

/// Problems of 1 to 400 variables drawn from small value sets, so they hit
/// the corners: capacities of 0
/// and round values whose fair shares equal the round bounds (a constraint
/// and a bound saturating at the same λ), bounds of −0.0 (whose bit pattern
/// sorts after every λ) and folded classes with finite bounds.
fn corner_problem() -> impl Strategy<Value = CornerProblem> {
    (1usize..16, 1usize..400)
        .prop_flat_map(|(nc, nv)| {
            let cap = (0u8..7, 1.0f64..1e6).prop_map(|(k, any)| match k {
                0 => 0.0,
                1 => 60.0,
                2 => 100.0,
                3 => 120.0,
                4 => 300.0,
                _ => any,
            });
            let bound = (0u8..11, 0.1f64..1e3).prop_map(|(k, any)| match k {
                0 | 1 => f64::INFINITY,
                2 => 10.0,
                3 => 20.0,
                4 => 25.0,
                5 => 30.0,
                6 => 50.0,
                7 => 60.0,
                8 => 100.0,
                9 => -0.0,
                _ => any,
            });
            let kind = (0u8..2, 2u32..5).prop_map(|(k, members)| match k {
                0 => Kind::Unit,
                _ => Kind::Class(members),
            });
            let var = (bound, kind, proptest::collection::vec(0..nc, 1..=nc.min(4)));
            (
                proptest::collection::vec(cap, nc),
                proptest::collection::vec(var, nv),
            )
        })
        .prop_map(|(capacities, vars)| CornerProblem { capacities, vars })
}

/// Asserts that the production `solve` and `solve_with_bottlenecks` each
/// reproduce the oracle's rates bit for bit.
fn assert_solves_match_oracle(p: &MaxMinProblem) -> Result<(), TestCaseError> {
    let oracle = p.solve_reference();
    for (name, rates) in [
        ("solve", p.solve()),
        ("bottlenecks", p.solve_with_bottlenecks().0),
    ] {
        prop_assert_eq!(rates.len(), oracle.len());
        for (v, (r, o)) in rates.iter().zip(&oracle).enumerate() {
            prop_assert!(
                r.to_bits() == o.to_bits(),
                "{} diverged at var {}: {:e} vs oracle {:e}",
                name,
                v,
                r,
                o
            );
        }
    }
    Ok(())
}

/// [`assert_solves_match_oracle`], plus the bottlenecks: the production
/// `solve_with_bottlenecks` names, per variable, the constraint the oracle
/// names.
fn assert_matches_oracle_with_bottlenecks(p: &MaxMinProblem) -> Result<(), TestCaseError> {
    assert_solves_match_oracle(p)?;
    let (rates, by) = p.solve_with_bottlenecks();
    let (oracle, oracle_by) = p.solve_reference_with_bottlenecks();
    for (v, (r, o)) in rates.iter().zip(&oracle).enumerate() {
        prop_assert!(r.to_bits() == o.to_bits(), "var {}: {:e} vs {:e}", v, r, o);
    }
    prop_assert_eq!(by, oracle_by);
    Ok(())
}

/// A capacity from a small set: zero, a value two constraints may share
/// (equal λs), or any.
fn pick_capacity(k: u8, any: f64) -> f64 {
    match k {
        0 => 0.0,
        1 | 2 => 100.0,
        _ => any,
    }
}

/// A problem built to sit at the edge of the "no saturable constraint"
/// shortcut: see `unsaturated_problems_match_the_filling`.
#[derive(Debug, Clone)]
struct MarginProblem {
    /// `(bound, members, constraint mask)` per variable.
    vars: Vec<(f64, u32, u8)>,
    /// Per constraint, how its capacity is placed against its demand.
    caps: Vec<(u8, u32, f64)>,
}

impl MarginProblem {
    /// The problem, and whether every constraint has more than twice its demand
    /// (so the bounds are certainly the answer).
    fn build(&self) -> (MaxMinProblem, bool) {
        let nc = self.caps.len();
        // Demand and member count per constraint, summed in variable order
        // as the solver sums them.
        let mut demand = vec![0.0f64; nc];
        let mut members = vec![0.0f64; nc];
        let crossed = |mask: u8, v: usize| -> Vec<usize> {
            let picked: Vec<usize> = (0..nc).filter(|&c| mask >> c & 1 == 1).collect();
            if picked.is_empty() {
                vec![v % nc]
            } else {
                picked
            }
        };
        for (v, &(bound, mult, mask)) in self.vars.iter().enumerate() {
            for c in crossed(mask, v) {
                demand[c] += mult as f64 * bound;
                members[c] += mult as f64;
            }
        }
        let mut ample = true;
        let mut p = MaxMinProblem::new();
        let cs: Vec<CnstId> = self
            .caps
            .iter()
            .enumerate()
            .map(|(c, &(how, k, any))| {
                let d = demand[c];
                let cap = if !d.is_finite() {
                    any * 1e6
                } else {
                    let ulps = |mut x: f64, up: bool| {
                        for _ in 0..k {
                            x = if up {
                                x.next_up()
                            } else {
                                x.next_down().max(0.0)
                            };
                        }
                        x
                    };
                    // The shortcut's margin δ = 4 (N + 2) u, in steps of δ/2.
                    let delta = (members[c] + 2.0) * 2.0 * f64::EPSILON;
                    match how {
                        0 => d,
                        1 => ulps(d, true),
                        2 => ulps(d, false),
                        3 => d * (1.0 + delta * k as f64 / 2.0),
                        4 => ulps(d * (1.0 + delta), k % 2 == 0),
                        5 => d * 2.0,
                        _ => d * any / 1e6,
                    }
                };
                ample &= cap > 2.0 * demand[c];
                p.add_constraint(cap)
            })
            .collect();
        for (v, &(bound, mult, mask)) in self.vars.iter().enumerate() {
            let on: Vec<CnstId> = crossed(mask, v).into_iter().map(|c| cs[c]).collect();
            if mult == 1 {
                p.add_variable(bound, &on);
            } else {
                p.add_variable_class(bound, mult, &on);
            }
        }
        (p, ample)
    }
}

/// Problems of 2 to 40 variables with classes of up to 4 096
/// members, inexact and mixed bounds (now and then an infinite one), and
/// each constraint's capacity placed at its demand, a few ulps either side
/// of it, around the shortcut's margin, at twice it, or anywhere from half
/// to one and a half times it.
fn margin_problem() -> impl Strategy<Value = MarginProblem> {
    (1usize..6, 2usize..40).prop_flat_map(|(nc, nv)| {
        let bound = (0u8..12, 1e-3f64..1e6).prop_map(|(k, any)| match k {
            0 => f64::INFINITY,
            1 => 0.1,
            2 => 1.0 / 3.0,
            3 => 1e6 / 7.0,
            4 => 0.0,
            _ => any,
        });
        let mult = (0u8..4, 1u32..4097, 1u32..5).prop_map(|(k, big, small)| match k {
            0 => 1,
            1 => big,
            _ => small,
        });
        let var = (bound, mult, 0u8..255);
        let cap = (0u8..7, 1u32..5, 5e5f64..1.5e6);
        (
            proptest::collection::vec(var, nv),
            proptest::collection::vec(cap, nc),
        )
            .prop_map(|(vars, caps)| MarginProblem { vars, caps })
    })
}

const EPS: f64 = 1e-6;

#[derive(Debug, Clone)]
struct RandomProblem {
    capacities: Vec<f64>,
    vars: Vec<(Option<f64>, Vec<usize>)>, // (bound, constraint indices)
}

fn random_problem() -> impl Strategy<Value = RandomProblem> {
    (1usize..8)
        .prop_flat_map(|nc| {
            let caps = proptest::collection::vec(0.1f64..1000.0, nc);
            let vars = proptest::collection::vec(
                (
                    proptest::option::of(0.01f64..500.0),
                    proptest::collection::vec(0..nc, 1..=nc.min(4)),
                ),
                1..12,
            );
            (caps, vars)
        })
        .prop_map(|(capacities, vars)| RandomProblem { capacities, vars })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn maxmin_invariants(rp in random_problem()) {
        let mut p = MaxMinProblem::new();
        let cnsts: Vec<_> = rp.capacities.iter().map(|&c| p.add_constraint(c)).collect();
        for (bound, members) in &rp.vars {
            let cs: Vec<_> = members.iter().map(|&i| cnsts[i]).collect();
            p.add_variable(bound.unwrap_or(f64::INFINITY), &cs);
        }
        let rates = p.solve();

        // (4) non-negative and finite
        for &r in &rates {
            prop_assert!(r.is_finite() && r >= 0.0, "rate {r}");
        }

        // (1) feasibility
        let mut usage = vec![0.0; rp.capacities.len()];
        for (v, (_, members)) in rp.vars.iter().enumerate() {
            let mut seen: Vec<usize> = members.clone();
            seen.sort_unstable();
            seen.dedup();
            for c in seen {
                usage[c] += rates[v];
            }
        }
        for (c, (&u, &cap)) in usage.iter().zip(&rp.capacities).enumerate() {
            prop_assert!(
                u <= cap * (1.0 + EPS) + EPS,
                "constraint {c} overloaded: usage {u} > cap {cap}"
            );
        }

        // (2) bounds respected
        for (v, (bound, _)) in rp.vars.iter().enumerate() {
            if let Some(b) = bound {
                prop_assert!(rates[v] <= b * (1.0 + EPS) + EPS);
            }
        }

        // (3) maximality: each variable limited by its bound or by a
        // saturated constraint it crosses.
        for (v, (bound, members)) in rp.vars.iter().enumerate() {
            let bound_tight = bound.is_some_and(|b| rates[v] >= b * (1.0 - EPS) - EPS);
            let cnst_tight = members.iter().any(|&c| {
                usage[c] >= rp.capacities[c] * (1.0 - EPS) - EPS
            });
            prop_assert!(
                bound_tight || cnst_tight,
                "variable {v} (rate {}) is limited by nothing",
                rates[v]
            );
        }
    }

    #[test]
    fn equal_flows_on_one_link_get_equal_shares(
        cap in 1.0f64..1e9,
        n in 1usize..32,
    ) {
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(cap);
        for _ in 0..n {
            p.add_variable(f64::INFINITY, &[l]);
        }
        let rates = p.solve();
        for &r in &rates {
            prop_assert!((r - cap / n as f64).abs() <= EPS * cap);
        }
    }

    #[test]
    fn solve_is_deterministic(rp in random_problem()) {
        let build = || {
            let mut p = MaxMinProblem::new();
            let cnsts: Vec<_> = rp.capacities.iter().map(|&c| p.add_constraint(c)).collect();
            for (bound, members) in &rp.vars {
                let cs: Vec<_> = members.iter().map(|&i| cnsts[i]).collect();
                p.add_variable(bound.unwrap_or(f64::INFINITY), &cs);
            }
            p.solve()
        };
        prop_assert_eq!(build(), build());
    }

    /// The production solver (cached λs + bound cursor) must follow the
    /// exact freeze schedule of the naive reference scan: every returned
    /// rate is bit-for-bit identical, including ties, unbounded variables
    /// and folded classes.
    #[test]
    fn fast_solver_matches_reference_bitwise(
        caps in proptest::collection::vec(1e2f64..1e9, 1..6),
        vars in proptest::collection::vec(
            (0u8..3, 1.0f64..1e6, 1u8..9, 0u8..255), 1..40),
    ) {
        let mut p = MaxMinProblem::new();
        let cs: Vec<CnstId> = caps.iter().map(|&c| p.add_constraint(c)).collect();
        for (i, &(kind, b, members, mask)) in vars.iter().enumerate() {
            // Mix small bounds (the bound freezes first), large bounds (a
            // constraint freezes first) and unbounded flows.
            let bound = match kind {
                0 => b,
                1 => b * 1e6,
                _ => f64::INFINITY,
            };
            p.add_variable_class(bound, members.into(), &subset(&cs, mask, i));
        }
        assert_solves_match_oracle(&p)?;
    }

    /// The same pin on the corner generator, at every size from one
    /// variable to 400.
    #[test]
    fn finders_match_the_oracle_on_corner_problems(cp in corner_problem()) {
        assert_solves_match_oracle(&cp.build())?;
    }

    /// A problem's only variable is rated in closed form, not filled: the
    /// rate and bottleneck must be the filling's, bit for bit — over 0 to
    /// 4 of 4 constraints (zero, equal and arbitrary capacities), classes
    /// of 1 to 8 members, and bounds that are infinite, zero, arbitrary,
    /// or exactly a constraint's λ or one ulp either side of it.
    #[test]
    fn one_variable_is_rated_as_the_filling(
        caps in proptest::collection::vec((0u8..5, 1.0f64..1e9), 4),
        mask in 0u8..16,
        mult in 1u32..9,
        bound_sel in (0u8..7, 0usize..4, 1.0f64..1e9),
    ) {
        let mut p = MaxMinProblem::new();
        let cs: Vec<CnstId> = caps
            .iter()
            .map(|&(k, any)| p.add_constraint(pick_capacity(k, any)))
            .collect();
        let on: Vec<usize> = (0..4).filter(|&c| mask >> c & 1 == 1).collect();
        let (sel, which, any) = bound_sel;
        // The λ the filling computes for a crossed constraint.
        let lam = on.get(which % on.len().max(1)).map(|&c| {
            (pick_capacity(caps[c].0, caps[c].1) - 0.0).max(0.0) / mult as f64
        });
        let bound = match (sel, lam) {
            (0, _) if !on.is_empty() => f64::INFINITY,
            (1, _) => 0.0,
            (2, Some(l)) => l,
            (3, Some(l)) => l.next_up(),
            (4, Some(l)) => l.next_down().max(0.0),
            _ => any,
        };
        let crossed: Vec<CnstId> = on.iter().map(|&c| cs[c]).collect();
        if mult == 1 {
            p.add_variable(bound, &crossed);
        } else {
            p.add_variable_class(bound, mult, &crossed);
        }
        assert_matches_oracle_with_bottlenecks(&p)?;
    }

    /// Multi-variable problems at the edge of the "no
    /// saturable constraint" shortcut: whether the production solve
    /// returns the bounds or fills, it must match the oracle's filling
    /// bitwise, rates and bottlenecks. Where every constraint has twice its
    /// demand, the answer is the bounds with no bottleneck.
    #[test]
    fn unsaturated_problems_match_the_filling(mp in margin_problem()) {
        let (p, ample) = mp.build();
        assert_matches_oracle_with_bottlenecks(&p)?;
        if ample {
            let (rates, by) = p.solve_with_bottlenecks();
            for (r, &(bound, _, _)) in rates.iter().zip(&mp.vars) {
                prop_assert!(r.to_bits() == bound.to_bits(), "{:e} vs bound {:e}", r, bound);
            }
            prop_assert!(by.iter().all(Option::is_none));
        }
    }

    /// Folding interchangeable members into one class variable is exact
    /// under the uniform-round precondition (one bound bit-pattern): every expanded member's rate equals its class
    /// representative's rate bitwise, and the folded problem still agrees
    /// with the reference solver.
    #[test]
    fn folded_classes_match_expanded_members_bitwise(
        caps in proptest::collection::vec(1e3f64..1e9, 1..5),
        classes in proptest::collection::vec((1u32..6, 0u8..255), 1..10),
        bound_sel in 0u8..3,
    ) {
        // One bound bit-pattern for the whole problem (precondition P1).
        let bound = match bound_sel {
            0 => 1e4,
            1 => 2.5e8,
            _ => f64::INFINITY,
        };
        let mut expanded = MaxMinProblem::new();
        let ce: Vec<CnstId> = caps.iter().map(|&c| expanded.add_constraint(c)).collect();
        let mut folded = MaxMinProblem::new();
        let cf: Vec<CnstId> = caps.iter().map(|&c| folded.add_constraint(c)).collect();
        // Expanded member index → folded variable (= class) index.
        let mut class_of = Vec::new();
        for (ci, &(mult, mask)) in classes.iter().enumerate() {
            folded.add_variable_class(bound, mult, &subset(&cf, mask, ci));
            for _ in 0..mult {
                expanded.add_variable(bound, &subset(&ce, mask, ci));
                class_of.push(ci);
            }
        }
        let re = expanded.solve();
        let rf = folded.solve();
        prop_assert_eq!(rf.len(), classes.len());
        for (member, &class) in class_of.iter().enumerate() {
            prop_assert!(
                re[member].to_bits() == rf[class].to_bits(),
                "member {} of class {} diverged: expanded {:e} vs folded {:e}",
                member, class, re[member], rf[class]
            );
        }
        // The folded problem is also an ordinary problem: the production
        // solve must still track the oracle on it.
        assert_solves_match_oracle(&folded)?;
    }
}

/// One hand-built instance per corner the generator aims at, so each is
/// exercised on every run whatever the random draws: the expected rates
/// are the oracle's, and the production solve must reproduce them bitwise.
#[test]
fn each_corner_is_covered() {
    let check = |p: &MaxMinProblem, want: &[f64]| {
        let oracle = p.solve_reference();
        assert_eq!(oracle, want, "oracle");
        assert_solves_match_oracle(p).unwrap();
    };

    // Equal λ: two unit flows share a 100-capacity link (λ = 50) and one of
    // them is bounded at exactly 50. The constraint wins the tie.
    let mut p = MaxMinProblem::new();
    let l = p.add_constraint(100.0);
    p.add_variable(50.0, &[l]);
    p.add_variable(f64::INFINITY, &[l]);
    check(&p, &[50.0, 50.0]);

    // Zero capacity: the link saturates at λ = 0 before anything else.
    let mut p = MaxMinProblem::new();
    let (z, l) = (p.add_constraint(0.0), p.add_constraint(100.0));
    p.add_variable(10.0, &[z, l]);
    p.add_variable(f64::INFINITY, &[l]);
    check(&p, &[0.0, 100.0]);

    // A −0.0 bound freezes its flow at zero first, leaving the whole link
    // to the other; it is stored as +0.0, because by bit pattern −0.0 would
    // sort after every λ and the scan would split the link in two.
    let mut p = MaxMinProblem::new();
    let l = p.add_constraint(10.0);
    p.add_variable(-0.0, &[l]);
    p.add_variable(f64::INFINITY, &[l]);
    check(&p, &[0.0, 10.0]);
    assert!(p.solve()[0].is_sign_positive());

    // Folded classes with a finite bound: three members capped at 25 on a
    // 300-capacity link, two more sharing what is left.
    let mut p = MaxMinProblem::new();
    let l = p.add_constraint(300.0);
    p.add_variable_class(25.0, 3, &[l]);
    p.add_variable_class(f64::INFINITY, 2, &[l]);
    check(&p, &[25.0, 112.5]);

    // A staircase: 64 flows, each alone on a link of its own capacity and
    // all on one shared link, saturate one per round: 64 rounds, each of
    // which changes one λ besides the saturated link's.
    let mut p = MaxMinProblem::new();
    let shared = p.add_constraint(1e6);
    let want: Vec<f64> = (1..=64).map(|i| f64::from(i) * 10.0).collect();
    for &cap in want.iter().rev() {
        let own = p.add_constraint(cap);
        p.add_variable(f64::INFINITY, &[own, shared]);
    }
    let want: Vec<f64> = want.into_iter().rev().collect();
    check(&p, &want);
}

/// Picks a non-empty constraint subset from `mask` (falling back to one
/// deterministic constraint when the mask selects none).
fn subset(cs: &[CnstId], mask: u8, fallback: usize) -> Vec<CnstId> {
    let picked: Vec<CnstId> = cs
        .iter()
        .enumerate()
        .filter(|(k, _)| mask >> k & 1 == 1)
        .map(|(_, &c)| c)
        .collect();
    if picked.is_empty() {
        vec![cs[fallback % cs.len()]]
    } else {
        picked
    }
}
