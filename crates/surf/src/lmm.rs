//! Weighted max-min fairness solver ("LMM" in SimGrid terminology).
//!
//! This is the analytical contention model at the heart of the paper (§4.2):
//! instead of simulating individual packets, the bandwidth allocated to each
//! active *flow* is computed from the network topology and the set of all
//! currently active flows. The solver answers one question: given
//!
//! * a set of **constraints** (links) with finite capacities, and
//! * a set of **variables** (flows) each crossing some constraints, with an
//!   optional individual rate bound (e.g. the piece-wise model's per-segment
//!   bandwidth β, or a TCP-window cap),
//!
//! what is the weighted max-min fair rate allocation?
//!
//! The implementation is classic *progressive filling*: a global water level
//! λ rises from zero; every unfrozen variable `v` receives rate `w_v · λ`; a
//! variable freezes when either its own bound is reached or one of its
//! constraints saturates. The algorithm terminates after at most `V`
//! freezes and yields the unique max-min fair allocation.
//!
//! Two implementations share that freeze schedule:
//!
//! * [`solve`](MaxMinProblem::solve) — the production path. The per-round
//!   argmin over constraints uses a lazily-invalidated min-heap of
//!   `(λ bits, constraint)` and the argmin over individually-bounded
//!   variables a pre-sorted cursor, so a solve costs
//!   `O((V + C) log + Σ degree log C)` instead of the naive
//!   `O(rounds · (V + C))` — the difference between milliseconds and
//!   minutes when an allreduce round couples 16k flows into one component.
//!   Both argmins reproduce the naive scan's selection (smallest λ, ties to
//!   the lowest index, constraints before bounds) *exactly*, so the freeze
//!   sequence — and therefore every rate — is bitwise-identical to the
//!   reference.
//! * [`solve_reference`](MaxMinProblem::solve_reference) — the original
//!   quadratic scan, kept as the executable specification. The
//!   `tests/lmm_props.rs` differential proptest pins `solve` against it
//!   bitwise on randomized problems.
//!
//! Variables can carry a *multiplicity*
//! ([`add_variable_class`](MaxMinProblem::add_variable_class)): `k`
//! interchangeable unit-weight
//! flows folded into one solver variable. The solver mirrors the expanded
//! problem's arithmetic operation-for-operation (weight sums and frozen
//! usage are accumulated by repeated addition, one step per folded member),
//! which makes the folded solve bitwise-equal to the expanded one whenever
//! every variable of the (sub)problem shares a single weight and a single
//! bound bit-pattern — the *uniform round* precondition the engine's class
//! folding detector enforces (DESIGN §5.3).

/// Handle to a constraint (a link, or a host's compute capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnstId(usize);

impl CnstId {
    /// The constraint's insertion index within its problem. Lets callers
    /// that build problems from their own arenas (the engine's per-reshare
    /// component builds) map a reported bottleneck back to a resource.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a variable (a flow, or a CPU burst execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// A weighted max-min fairness problem instance.
///
/// Build with [`add_constraint`](Self::add_constraint) /
/// [`add_variable`](Self::add_variable), then call [`solve`](Self::solve).
/// The engine builds one instance per *dirty component* of the
/// constraint↔action graph on each re-share.
#[derive(Debug, Default, Clone)]
pub struct MaxMinProblem {
    capacities: Vec<f64>,
    bounds: Vec<f64>,
    weights: Vec<f64>,
    /// Multiplicity per variable: how many interchangeable unit flows this
    /// solver variable stands for (1 for ordinary variables).
    mults: Vec<u32>,
    /// For each variable, the constraints it crosses (deduplicated).
    memberships: Vec<Vec<usize>>,
    /// For each constraint, the variables crossing it.
    users: Vec<Vec<usize>>,
}

impl MaxMinProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint with the given capacity (e.g. link bandwidth in
    /// bytes/s). Capacity must be finite and non-negative.
    pub fn add_constraint(&mut self, capacity: f64) -> CnstId {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "invalid constraint capacity {capacity}"
        );
        self.capacities.push(capacity);
        self.users.push(Vec::new());
        CnstId(self.capacities.len() - 1)
    }

    /// Adds a variable with weight 1 crossing `constraints`, with an optional
    /// rate bound (`f64::INFINITY` for unbounded).
    pub fn add_variable(&mut self, bound: f64, constraints: &[CnstId]) -> VarId {
        self.add_weighted_variable(bound, 1.0, constraints)
    }

    /// Adds a variable with an explicit weight. Higher weight receives a
    /// proportionally larger share (used to model e.g. flows that aggregate
    /// several streams).
    pub fn add_weighted_variable(
        &mut self,
        bound: f64,
        weight: f64,
        constraints: &[CnstId],
    ) -> VarId {
        self.add_variable_impl(bound, weight, 1, constraints)
    }

    /// Adds a *folded class*: `members` interchangeable unit-weight flows
    /// represented by a single solver variable. The returned variable's rate
    /// is the per-member rate; the class together consumes `members` times
    /// that on each constraint.
    ///
    /// The fold is bitwise-exact versus adding `members` separate variables
    /// only under the uniform-round precondition (every variable of the
    /// problem has weight 1 and the same bound bit-pattern); see the module
    /// docs. Callers that cannot guarantee it must fall back to unfolded
    /// variables.
    pub fn add_variable_class(
        &mut self,
        bound: f64,
        members: u32,
        constraints: &[CnstId],
    ) -> VarId {
        assert!(members >= 1, "class must have at least one member");
        self.add_variable_impl(bound, 1.0, members, constraints)
    }

    fn add_variable_impl(
        &mut self,
        bound: f64,
        weight: f64,
        mult: u32,
        constraints: &[CnstId],
    ) -> VarId {
        assert!(!bound.is_nan() && bound >= 0.0, "invalid bound {bound}");
        assert!(
            weight.is_finite() && weight > 0.0,
            "invalid weight {weight}"
        );
        let vid = self.bounds.len();
        self.bounds.push(bound);
        self.weights.push(weight);
        self.mults.push(mult);
        let mut member: Vec<usize> = constraints.iter().map(|c| c.0).collect();
        member.sort_unstable();
        member.dedup();
        for &c in &member {
            assert!(c < self.capacities.len(), "unknown constraint");
            self.users[c].push(vid);
        }
        self.memberships.push(member);
        VarId(vid)
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.bounds.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.capacities.len()
    }

    /// Variable-count cutoff below which [`solve`](Self::solve) runs the
    /// linear-scan loop instead of the heap/cursor path. The two follow the
    /// identical freeze schedule bitwise (`tests/lmm_props.rs` pins them),
    /// so the cutoff is purely a performance knob: small problems are
    /// dominated by the heap path's setup allocations, while past a few
    /// hundred coupled variables the scan's O(rounds · (V + C)) argmin
    /// re-scans take over.
    const SCAN_SOLVER_MAX_VARS: usize = 512;

    /// Solves the problem, returning the rate of each variable, indexed by
    /// [`VarId`] insertion order.
    ///
    /// A variable with no constraints and an infinite bound would receive an
    /// infinite rate; this is rejected in debug builds because it always
    /// indicates a modelling error upstream.
    pub fn solve(&self) -> Vec<f64> {
        if self.bounds.len() <= Self::SCAN_SOLVER_MAX_VARS {
            self.solve_scan_impl(None)
        } else {
            self.solve_impl(None)
        }
    }

    /// The heap/cursor path unconditionally, bypassing the size dispatch of
    /// [`solve`](Self::solve). Exists so the differential property tests can
    /// pin the heap path against [`solve_reference`](Self::solve_reference)
    /// on problems of any size.
    #[doc(hidden)]
    pub fn solve_heap(&self) -> Vec<f64> {
        self.solve_impl(None)
    }

    /// Solves like [`solve`](Self::solve) and additionally reports, per
    /// variable, the constraint that *froze* it — its bottleneck at this
    /// allocation. `None` means the variable froze at its own rate bound
    /// (or was unconstrained), i.e. no shared resource limited it.
    ///
    /// The rate arithmetic is shared with [`solve`](Self::solve), so the
    /// returned rates are bitwise-identical to a plain solve of the same
    /// problem; only the extra bookkeeping differs.
    pub fn solve_with_bottlenecks(&self) -> (Vec<f64>, Vec<Option<CnstId>>) {
        let mut bottlenecks = vec![None; self.bounds.len()];
        let rates = if self.bounds.len() <= Self::SCAN_SOLVER_MAX_VARS {
            self.solve_scan_impl(Some(&mut bottlenecks))
        } else {
            self.solve_impl(Some(&mut bottlenecks))
        };
        (rates, bottlenecks)
    }

    /// Shared set-up for both solver implementations: weight sums per
    /// constraint, accumulated by repeated addition — one step per folded
    /// member — so folded and expanded problems build bitwise-identical
    /// sums.
    fn init_wsums(&self) -> (Vec<f64>, Vec<f64>) {
        let nc = self.capacities.len();
        let mut wsum_unfrozen = vec![0.0_f64; nc];
        for v in 0..self.bounds.len() {
            debug_assert!(
                !self.memberships[v].is_empty() || self.bounds[v].is_finite(),
                "variable {v} is unconstrained and unbounded"
            );
            for &c in &self.memberships[v] {
                for _ in 0..self.mults[v] {
                    wsum_unfrozen[c] += self.weights[v];
                }
            }
        }
        // Snapshot of the initial weight sums: `freeze_var` snaps tiny
        // residual sums (floating-point dust left by repeated subtraction)
        // to exactly zero, and the cutoff must be *relative* to this scale.
        // An absolute cutoff would zero out constraints whose legitimate
        // weights are themselves tiny (e.g. 1e-15), handing the remaining
        // variables an infinite λ and therefore an unbounded rate.
        let wsum_init = wsum_unfrozen.clone();
        (wsum_unfrozen, wsum_init)
    }

    #[inline]
    fn lam_of(&self, c: usize, frozen_usage: &[f64], wsum_unfrozen: &[f64]) -> f64 {
        (self.capacities[c] - frozen_usage[c]).max(0.0) / wsum_unfrozen[c]
    }

    /// Fast progressive filling. Replicates [`solve_reference`]
    /// (Self::solve_reference)'s freeze schedule exactly — same rounds, same
    /// selections, same arithmetic on the same values — while replacing its
    /// two per-round linear argmin scans:
    ///
    /// * constraints live in a lazily-invalidated min-heap keyed by
    ///   `(λ.to_bits(), index)` (non-negative IEEE doubles order like their
    ///   bit patterns, and λ is never NaN here); an entry is trusted only if
    ///   it matches the constraint's current λ, so stale entries from
    ///   earlier freezes are dropped on peek;
    /// * bounded variables are pre-sorted by `(bound/weight).to_bits()` and
    ///   consumed through a cursor that skips already-frozen entries.
    ///
    /// Ties resolve as the reference scan does: lowest index wins within a
    /// kind, and a constraint beats a bound at equal λ (the reference scans
    /// constraints first and requires strictly smaller λ to switch).
    fn solve_impl(&self, mut bottlenecks: Option<&mut Vec<Option<CnstId>>>) -> Vec<f64> {
        let nv = self.bounds.len();
        let nc = self.capacities.len();
        let mut rate = vec![0.0_f64; nv];
        let mut frozen = vec![false; nv];
        let mut frozen_usage = vec![0.0_f64; nc];
        let (mut wsum_unfrozen, wsum_init) = self.init_wsums();

        const INF_BITS: u64 = 0x7FF0_0000_0000_0000; // f64::INFINITY.to_bits()
        /// Sentinel for "constraint left the λ search" (weight sum hit 0);
        /// larger than any real λ bit pattern, so stale heap entries can
        /// never match it.
        const DEAD: u64 = u64::MAX;

        let mut cur_lam: Vec<u64> = vec![DEAD; nc];
        let mut cheap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
            std::collections::BinaryHeap::with_capacity(nc);
        for (c, lam) in cur_lam.iter_mut().enumerate() {
            if wsum_unfrozen[c] > 0.0 {
                let bits = self.lam_of(c, &frozen_usage, &wsum_unfrozen).to_bits();
                *lam = bits;
                cheap.push(std::cmp::Reverse((bits, c)));
            }
        }
        let mut border: Vec<(u64, u32)> = (0..nv)
            .filter(|&v| self.bounds[v].is_finite())
            .map(|v| ((self.bounds[v] / self.weights[v]).to_bits(), v as u32))
            .collect();
        border.sort_unstable();
        let mut bcur = 0usize;

        let mut level = 0.0_f64;
        let mut remaining = nv;
        // Constraints whose λ inputs changed in the current round.
        let mut touched: Vec<usize> = Vec::new();
        while remaining > 0 {
            let cbest = loop {
                match cheap.peek() {
                    None => break None,
                    Some(&std::cmp::Reverse((bits, c))) => {
                        if cur_lam[c] == bits {
                            break Some((bits, c));
                        }
                        cheap.pop();
                    }
                }
            };
            while bcur < border.len() && frozen[border[bcur].1 as usize] {
                bcur += 1;
            }
            let vbest = border.get(bcur).copied();

            // Reference selection order: constraints first, a bound wins
            // only with strictly smaller λ.
            let (best_bits, pick) = match (cbest, vbest) {
                (None, None) => (INF_BITS, None),
                (Some((cb, c)), None) => (cb, Some((false, c))),
                (None, Some((vb, v))) => (vb, Some((true, v as usize))),
                (Some((cb, c)), Some((vb, v))) => {
                    if vb < cb {
                        (vb, Some((true, v as usize)))
                    } else {
                        (cb, Some((false, c)))
                    }
                }
            };
            if best_bits >= INF_BITS {
                // Only unbounded variables on capacity-free constraints remain
                // (cannot happen with finite capacities, but guard anyway).
                for v in 0..nv {
                    if !frozen[v] {
                        rate[v] = self.bounds[v];
                        frozen[v] = true;
                    }
                }
                break;
            }

            level = level.max(f64::from_bits(best_bits));
            touched.clear();
            match pick {
                Some((true, v)) => {
                    self.freeze_var(
                        v,
                        self.bounds[v],
                        &mut rate,
                        &mut frozen,
                        &mut frozen_usage,
                        &mut wsum_unfrozen,
                        &wsum_init,
                        &mut remaining,
                        Some(&mut touched),
                    );
                }
                Some((false, c)) => {
                    // Freeze every unfrozen variable crossing the saturated
                    // constraint at the current level.
                    let users: Vec<usize> = self.users[c]
                        .iter()
                        .copied()
                        .filter(|&v| !frozen[v])
                        .collect();
                    for v in users {
                        let r = (self.weights[v] * level).min(self.bounds[v]);
                        if let Some(b) = bottlenecks.as_deref_mut() {
                            // A tie between the constraint's saturation level
                            // and the variable's own bound attributes to the
                            // bound only when the bound is the strictly
                            // smaller cap.
                            b[v] = if self.bounds[v] < self.weights[v] * level {
                                None
                            } else {
                                Some(CnstId(c))
                            };
                        }
                        self.freeze_var(
                            v,
                            r,
                            &mut rate,
                            &mut frozen,
                            &mut frozen_usage,
                            &mut wsum_unfrozen,
                            &wsum_init,
                            &mut remaining,
                            Some(&mut touched),
                        );
                    }
                }
                None => unreachable!("finite best always has a pick"),
            }
            // Re-key the touched constraints. λ depends only on the
            // constraint's own usage and weight sum, so values computed here
            // are the same the reference would recompute next round.
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                if wsum_unfrozen[c] > 0.0 {
                    let bits = self.lam_of(c, &frozen_usage, &wsum_unfrozen).to_bits();
                    if cur_lam[c] != bits {
                        cur_lam[c] = bits;
                        cheap.push(std::cmp::Reverse((bits, c)));
                    }
                } else {
                    cur_lam[c] = DEAD;
                }
            }
        }
        rate
    }

    /// The original O(rounds · (V + C)) progressive-filling loop, kept as
    /// the executable specification of the freeze schedule. `solve` must
    /// match it bitwise on any input (`tests/lmm_props.rs`); it is also the
    /// naive side of the engine-level folding ablation.
    #[doc(hidden)]
    pub fn solve_reference(&self) -> Vec<f64> {
        self.solve_scan_impl(None)
    }

    /// The linear-scan progressive-filling loop, optionally recording each
    /// variable's freezing constraint with the same attribution rule as
    /// [`solve_impl`]: a bound freeze (or the unconstrained guard) leaves
    /// `None`, a constraint freeze records the constraint unless the
    /// variable's own bound is the strictly smaller cap.
    fn solve_scan_impl(&self, mut bottlenecks: Option<&mut Vec<Option<CnstId>>>) -> Vec<f64> {
        let nv = self.bounds.len();
        let nc = self.capacities.len();
        let mut rate = vec![0.0_f64; nv];
        let mut frozen = vec![false; nv];

        // Per-constraint bookkeeping under the rising water level λ:
        // usage(l) = frozen_usage[l] + λ * wsum_unfrozen[l].
        let mut frozen_usage = vec![0.0_f64; nc];
        let (mut wsum_unfrozen, wsum_init) = self.init_wsums();

        let mut level = 0.0_f64;
        let mut remaining = nv;
        while remaining > 0 {
            // Find the smallest level at which something freezes.
            let mut best = f64::INFINITY;
            let mut best_cnst: Option<usize> = None;
            let mut best_var: Option<usize> = None;
            for c in 0..nc {
                if wsum_unfrozen[c] > 0.0 {
                    let lam = self.lam_of(c, &frozen_usage, &wsum_unfrozen);
                    if lam < best {
                        best = lam;
                        best_cnst = Some(c);
                        best_var = None;
                    }
                }
            }
            for (v, &b) in self.bounds.iter().enumerate() {
                if !frozen[v] && b.is_finite() {
                    let lam = b / self.weights[v];
                    if lam < best {
                        best = lam;
                        best_cnst = None;
                        best_var = Some(v);
                    }
                }
            }

            if best.is_infinite() {
                for v in 0..nv {
                    if !frozen[v] {
                        rate[v] = self.bounds[v];
                        frozen[v] = true;
                    }
                }
                break;
            }

            level = level.max(best);
            if let Some(v) = best_var {
                self.freeze_var(
                    v,
                    self.bounds[v],
                    &mut rate,
                    &mut frozen,
                    &mut frozen_usage,
                    &mut wsum_unfrozen,
                    &wsum_init,
                    &mut remaining,
                    None,
                );
            } else if let Some(c) = best_cnst {
                let users: Vec<usize> = self.users[c]
                    .iter()
                    .copied()
                    .filter(|&v| !frozen[v])
                    .collect();
                for v in users {
                    let r = (self.weights[v] * level).min(self.bounds[v]);
                    if let Some(b) = bottlenecks.as_deref_mut() {
                        b[v] = if self.bounds[v] < self.weights[v] * level {
                            None
                        } else {
                            Some(CnstId(c))
                        };
                    }
                    self.freeze_var(
                        v,
                        r,
                        &mut rate,
                        &mut frozen,
                        &mut frozen_usage,
                        &mut wsum_unfrozen,
                        &wsum_init,
                        &mut remaining,
                        None,
                    );
                }
            }
        }
        rate
    }

    #[allow(clippy::too_many_arguments)]
    fn freeze_var(
        &self,
        v: usize,
        r: f64,
        rate: &mut [f64],
        frozen: &mut [bool],
        frozen_usage: &mut [f64],
        wsum_unfrozen: &mut [f64],
        wsum_init: &[f64],
        remaining: &mut usize,
        mut touched: Option<&mut Vec<usize>>,
    ) {
        debug_assert!(!frozen[v]);
        rate[v] = r;
        frozen[v] = true;
        *remaining -= 1;
        for &c in &self.memberships[v] {
            // One accumulation step per folded member, mirroring the
            // expanded problem's repeated addition exactly (including the
            // snap-to-zero check after every subtraction).
            for _ in 0..self.mults[v] {
                frozen_usage[c] += r;
                wsum_unfrozen[c] -= self.weights[v];
                // Snap accumulated subtraction dust to zero, with a tolerance
                // relative to the constraint's initial weight sum so that
                // constraints built from legitimately tiny weights survive.
                if wsum_unfrozen[c] < wsum_init[c] * 1e-12 {
                    wsum_unfrozen[c] = 0.0;
                }
            }
            if let Some(t) = touched.as_deref_mut() {
                t.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        let v = p.add_variable(f64::INFINITY, &[l]);
        let rates = p.solve();
        assert!((rates[v.0] - 100.0).abs() < EPS);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        p.add_variable(f64::INFINITY, &[l]);
        p.add_variable(f64::INFINITY, &[l]);
        let rates = p.solve();
        assert!((rates[0] - 50.0).abs() < EPS);
        assert!((rates[1] - 50.0).abs() < EPS);
    }

    #[test]
    fn bounded_flow_releases_capacity() {
        // One flow capped at 10; the other should get the remaining 90.
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        p.add_variable(10.0, &[l]);
        p.add_variable(f64::INFINITY, &[l]);
        let rates = p.solve();
        assert!((rates[0] - 10.0).abs() < EPS);
        assert!((rates[1] - 90.0).abs() < EPS);
    }

    #[test]
    fn weighted_shares_are_proportional() {
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(90.0);
        p.add_weighted_variable(f64::INFINITY, 1.0, &[l]);
        p.add_weighted_variable(f64::INFINITY, 2.0, &[l]);
        let rates = p.solve();
        assert!((rates[0] - 30.0).abs() < EPS);
        assert!((rates[1] - 60.0).abs() < EPS);
    }

    #[test]
    fn multi_hop_bottleneck() {
        // Flow A crosses l1(100) and l2(50); flow B crosses only l1.
        // A is capped at 50 by l2, then B picks up the remaining 50 on l1.
        let mut p = MaxMinProblem::new();
        let l1 = p.add_constraint(100.0);
        let l2 = p.add_constraint(50.0);
        p.add_variable(f64::INFINITY, &[l1, l2]);
        p.add_variable(f64::INFINITY, &[l1]);
        let rates = p.solve();
        assert!((rates[0] - 50.0).abs() < EPS);
        assert!((rates[1] - 50.0).abs() < EPS);
    }

    #[test]
    fn classic_linear_network() {
        // The textbook 3-link chain: one long flow crosses all links, one
        // short flow per link. Max-min: everyone gets capacity/2.
        let mut p = MaxMinProblem::new();
        let links: Vec<_> = (0..3).map(|_| p.add_constraint(1.0)).collect();
        let long = p.add_variable(f64::INFINITY, &links);
        let shorts: Vec<_> = links
            .iter()
            .map(|&l| p.add_variable(f64::INFINITY, &[l]))
            .collect();
        let rates = p.solve();
        assert!((rates[long.0] - 0.5).abs() < EPS);
        for s in shorts {
            assert!((rates[s.0] - 0.5).abs() < EPS);
        }
    }

    #[test]
    fn zero_capacity_freezes_flows_at_zero() {
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(0.0);
        p.add_variable(f64::INFINITY, &[l]);
        let rates = p.solve();
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn duplicate_route_links_are_deduplicated() {
        // A route that lists the same link twice (e.g. loopback through a
        // switch) must not double-count the flow on that link.
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        p.add_variable(f64::INFINITY, &[l, l]);
        let rates = p.solve();
        assert!((rates[0] - 100.0).abs() < EPS);
    }

    #[test]
    fn tiny_weights_do_not_zero_the_weight_sum() {
        // Regression: with the old absolute 1e-12 snap-to-zero in
        // `freeze_var`, freezing the first 1e-15-weight variable wiped the
        // constraint's remaining weight sum, so the constraint dropped out
        // of the λ search and the unbounded second variable was frozen at
        // rate = +∞ by the `best.is_infinite()` guard. With the relative
        // tolerance it correctly receives the leftover capacity.
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        p.add_weighted_variable(10.0, 1e-15, &[l]);
        let free = p.add_weighted_variable(f64::INFINITY, 1e-15, &[l]);
        let rates = p.solve();
        assert!((rates[0] - 10.0).abs() < EPS);
        assert!(
            rates[free.0].is_finite(),
            "unbounded var escaped the constraint: rate {}",
            rates[free.0]
        );
        assert!((rates[free.0] - 90.0).abs() < EPS);
    }

    #[test]
    fn unconstrained_bounded_variable_gets_its_bound() {
        let mut p = MaxMinProblem::new();
        let v = p.add_variable(42.0, &[]);
        let rates = p.solve();
        assert!((rates[v.0] - 42.0).abs() < EPS);
    }

    #[test]
    fn bottlenecks_name_the_freezing_constraint() {
        // Multi-hop: the long flow is bound by the narrow l2, the short
        // flow then saturates l1; the bounded flow freezes at its own cap.
        let mut p = MaxMinProblem::new();
        let l1 = p.add_constraint(100.0);
        let l2 = p.add_constraint(40.0);
        let long = p.add_variable(f64::INFINITY, &[l1, l2]);
        let short = p.add_variable(f64::INFINITY, &[l1]);
        let capped = p.add_variable(10.0, &[l1]);
        let (rates, bn) = p.solve_with_bottlenecks();
        assert_eq!(bn[long.0], Some(l2));
        assert_eq!(bn[short.0], Some(l1));
        assert_eq!(bn[capped.0], None);
        assert_eq!(rates, p.solve(), "tracking must not perturb rates");
    }

    #[test]
    fn bound_tie_with_saturation_attributes_to_constraint() {
        // Both flows hit the constraint's saturation level exactly as one
        // reaches its bound: the shared resource is reported for the
        // saturated case, the bound (None) only when strictly smaller.
        let mut p = MaxMinProblem::new();
        let l = p.add_constraint(100.0);
        let a = p.add_variable(50.0, &[l]);
        let b = p.add_variable(f64::INFINITY, &[l]);
        let (rates, bn) = p.solve_with_bottlenecks();
        assert!((rates[a.0] - 50.0).abs() < EPS);
        assert!((rates[b.0] - 50.0).abs() < EPS);
        assert_eq!(bn[b.0], Some(l));
    }

    #[test]
    fn unconstrained_variable_has_no_bottleneck() {
        let mut p = MaxMinProblem::new();
        let v = p.add_variable(42.0, &[]);
        let (rates, bn) = p.solve_with_bottlenecks();
        assert!((rates[v.0] - 42.0).abs() < EPS);
        assert_eq!(bn[v.0], None);
    }
}
