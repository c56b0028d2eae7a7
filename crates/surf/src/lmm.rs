//! Max-min fairness solver ("LMM" in SimGrid terminology).
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
//! what is the max-min fair rate allocation? Every flow counts as one: a
//! constraint is shared equally among the unfrozen flows crossing it.
//!
//! The implementation is classic *progressive filling*: a global water level
//! λ rises from zero; every unfrozen variable receives rate λ; a
//! variable freezes when either its own bound is reached or one of its
//! constraints saturates. The algorithm terminates after at most `V`
//! freezes and yields the unique max-min fair allocation.
//!
//! # One core, two front doors
//!
//! There is one progressive-filling loop, `solve_core`. It reads the
//! problem as borrowed flat arrays (`Flat`: capacities, bounds,
//! multiplicities and the variable → constraint memberships in CSR form)
//! and keeps every piece of per-solve state (the transposed constraint →
//! variable lists, `rate` / `frozen` / `frozen_usage` / member counts, each
//! constraint's cached λ, the λ heap and the bound cursor) in a `Scratch`
//! that is cleared, never freed. Two owners wrap it:
//!
//! * [`MaxMinProblem`] — the owned front door: build with `add_*`, call
//!   [`solve`](MaxMinProblem::solve), get a `Vec` back. Each solve brings
//!   its own scratch. Used by tests, the engine's `#[cfg(test)]` oracle and
//!   anything that solves a problem once.
//! * `Workspace` — the engine's: one instance lives in the `Simulation`,
//!   a reshare clears it, writes its dirty component into it class by
//!   class and solves in place, so a steady-state reshare allocates
//!   nothing.
//!
//! Each round of the loop needs the constraint and the bounded variable
//! with the smallest saturation level. A constraint's λ depends only on its
//! own usage and member count, so the production solve keeps it cached in
//! `cur_lam` and recomputes it only for the constraints the round's freezes
//! touched; the bounded variables sit pre-sorted behind a cursor that skips
//! the frozen ones. The minimum over `cur_lam` is taken two ways:
//!
//! * **scan** — a linear min over the cached λ bit patterns: `C` compares a
//!   round, no division outside the touched constraints, nothing to build.
//! * **heap** — a lazily-invalidated min-heap of `(λ bits, constraint)`,
//!   built from `cur_lam` in one heapify and re-keyed at every λ a freeze
//!   changes: `O((C + Σ degree) · log C)` for the whole solve, `Σ degree`
//!   the memberships, against the scan's `O(rounds · C)` — the difference
//!   between milliseconds and minutes when an allreduce round couples 16k
//!   flows into one component and fills in thousands of rounds.
//!
//! Which one is cheaper depends on how many λs a round changes, which only
//! the solve itself sees. So every production solve starts with the scan
//! and keeps two prices, in scanned constraints: what its rounds have cost
//! (`C` each) and what the heap would have cost over the same rounds
//! (`2 C` to build it, `8 · ⌈log₂(C + 1)⌉` for each λ a round changed);
//! it builds the heap at the first round where the scan has cost more
//! (`Argmin::Cached`). A problem whose rounds each change many λs among
//! few constraints never builds it; one whose rounds change few among
//! many builds it after a handful. `kernel_coupled`'s coupled rounds of
//! 1 024 flows over 1 032 links fill in about six rounds, and one of its
//! solves in 200 builds it.
//! `switch_round_table` prints where the switch falls on two shapes and
//! what each finder costs there; EXPERIMENTS records it.
//!
//! Both reproduce the same selection (smallest λ, ties to the lowest index,
//! constraints before bounds) and share the freeze step, so the freeze
//! sequence — and therefore every rate — is bitwise-identical whichever
//! round the heap takes over at. The oracle they are pinned against is the
//! original from-scratch scan, which recomputes every live constraint's λ
//! and compares every unfrozen bounded variable every round:
//! [`solve_reference`](MaxMinProblem::solve_reference) runs it, nothing
//! else does, and `tests/lmm_props.rs` forces the scan alone, the heap from
//! round 1 and the heap from a later round at any size
//! ([`solve_heap_from`](MaxMinProblem::solve_heap_from)), and compares
//! each with the oracle bitwise.
//!
//! # Folded classes
//!
//! Variables can carry a *multiplicity*
//! ([`add_variable_class`](MaxMinProblem::add_variable_class)): `k`
//! interchangeable flows folded into one solver variable. A constraint's
//! member count is an integer, exact whichever way it is summed; the one
//! rounded sum, the frozen usage, is accumulated by repeated addition, one
//! step per folded member, exactly as the expanded problem accumulates it.
//! That makes the folded solve bitwise-equal to the expanded one whenever
//! every variable of the (sub)problem shares a single bound bit-pattern —
//! the *uniform component* precondition the engine checks over its live
//! route classes (DESIGN §5.3).
//!
//! # What the solver is not asked
//!
//! Progressive filling is only needed where contention decides. Two kinds of
//! problem have an answer the production finders would reach bitwise
//! without filling, and get it directly (`Argmin::Reference`, the oracle,
//! always fills):
//!
//! * **One variable** — every host component, and every route class alone
//!   on its links. `rate_alone` replays the filling's arithmetic for it:
//!   each constraint's λ is `(cap - 0.0).max(0.0) / members`, the argmin
//!   takes the first smallest λ, a bound wins only when strictly smaller,
//!   and the frozen rate is `level.min(bound)`. `solve_core` calls it for
//!   any such problem, and the engine calls it for a one-class component
//!   without writing the problem at all.
//! * **No saturable constraint** — when every crossed constraint `c` has
//!   `cap_c > demand_c · (1 + δ_c)`, with `demand_c = Σ mult_v · bound_v`
//!   over its variables and `δ_c = 4 (N_c + 2) u` (`N_c` its member count,
//!   `u = 2⁻⁵³`, `N_c ≤ 2⁴⁰`), every variable freezes at its own bound:
//!   the rates are the bounds and no constraint is a bottleneck.
//!
//! The δ argument. A constraint's member count is the exact count `W` of
//! its unfrozen members. At any round let `L` be the smallest
//! unfrozen bound, the cursor's candidate; `L · W ≤ S_U`, the unfrozen
//! members' bounds. The frozen usage is a recursive sum of at most `N`
//! non-negative terms, so it is at most `S_F (1 + γ_N)` with
//! `γ_n = n u / (1 - n u)`, and the computed
//! `λ ≥ (cap - S_F (1 + γ_N)) (1 - u)² / W`. Hence `λ > L`, and the
//! round picks a bound, whenever `cap > S_F (1 + γ_N) + S_U (1 + γ_2)`,
//! which `cap > demand (1 + γ_{N+2})` implies. The check itself is
//! computed: the demand is a sum of at most `N` rounded products, at least
//! `demand (1 - γ_N)`, and forming `1 + δ` and the product costs two more
//! roundings, so the computed test guarantees
//! `cap > demand (1 - γ_{N+2}) (1 + δ)`. For `(N + 2) u ≤ 2⁻¹²`,
//! `δ = 4 (N + 2) u ≥ 2 γ_{N+2} / (1 - γ_{N+2})`, which makes that at least
//! `demand (1 + γ_{N+2})`. Every round therefore freezes a variable at
//! its bound, in whatever order, so each rate is its bound bitwise.
//! `tests/lmm_props.rs` holds both shortcuts bitwise to the oracle, with
//! capacities a few ulps either side of the demand.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Handle to a constraint (a link, or a host's compute capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnstId(usize);

impl CnstId {
    /// The constraint's insertion index within its problem.
    #[cfg(test)]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle to a variable (a flow, or a CPU burst execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// "No constraint" in the solver's `u32` bottleneck array.
const NO_CNST: u32 = u32::MAX;

/// How a round finds the smallest saturation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Argmin {
    /// The oracle: recompute every λ from scratch each round.
    Reference,
    /// The production finder: the cached λs, scanned until the heap would
    /// have cost less over the rounds scanned so far, then a lazily-
    /// invalidated heap built from them (module docs).
    Cached,
    /// The cached λs, scanned for the rounds before `round` and from a heap
    /// from `round` on (1: from the start; `u32::MAX`: not at all),
    /// whatever the prices say: the tests' way to force a finder.
    HeapFrom(u32),
}

/// What `Argmin::Cached` charges the heap, in scanned constraints: building
/// it costs `HEAP_BUILD` per constraint (one pass over `cur_lam` and a
/// heapify), and each λ a round changes costs `HEAP_REKEY` per level of
/// the heap (the push of its new key, the pop of its stale one).
const HEAP_BUILD: u64 = 2;
const HEAP_REKEY: u64 = 8;

/// A problem as the flat arrays `solve_core` reads.
#[derive(Debug, Default, Clone)]
struct Flat {
    capacities: Vec<f64>,
    bounds: Vec<f64>,
    /// Multiplicity per variable: how many interchangeable flows this
    /// solver variable stands for (1 for ordinary variables).
    mults: Vec<u32>,
    /// CSR memberships: variable `v` crosses the (distinct) constraints
    /// `var_cnsts[var_end[v - 1]..var_end[v]]`, the first span starting at 0.
    var_end: Vec<u32>,
    var_cnsts: Vec<u32>,
}

impl Flat {
    fn clear(&mut self) {
        self.capacities.clear();
        self.bounds.clear();
        self.mults.clear();
        self.var_end.clear();
        self.var_cnsts.clear();
    }

    fn add_constraint(&mut self, capacity: f64) -> usize {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "invalid constraint capacity {capacity}"
        );
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Starts a variable with no memberships yet; they are appended to
    /// `var_cnsts` and the span closed by the caller. A zero bound is
    /// stored as +0.0: the cached finders order levels by bit pattern, where
    /// −0.0 would sort after every λ.
    fn begin_variable(&mut self, bound: f64, mult: u32) -> usize {
        assert!(!bound.is_nan() && bound >= 0.0, "invalid bound {bound}");
        assert!(mult >= 1, "class must have at least one member");
        self.bounds.push(if bound == 0.0 { 0.0 } else { bound });
        self.mults.push(mult);
        self.var_end.push(self.var_cnsts.len() as u32);
        self.bounds.len() - 1
    }

    #[inline]
    fn span(&self, v: usize) -> Range<usize> {
        let start = if v == 0 { 0 } else { self.var_end[v - 1] };
        start as usize..self.var_end[v] as usize
    }
}

/// Everything a solve computes or needs room for. Buffers are cleared and
/// refilled by every solve and keep their capacity in between.
#[derive(Debug, Default)]
struct Scratch {
    /// The memberships transposed: constraint `c` is crossed by
    /// `cnst_vars[cnst_end[c - 1]..cnst_end[c]]`, in variable order.
    cnst_end: Vec<u32>,
    cnst_vars: Vec<u32>,
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Per-constraint bookkeeping under the rising water level λ:
    /// `usage(c) = frozen_usage[c] + λ · members[c]`, with `members[c]` the
    /// unfrozen flows crossing `c` (a class counts its multiplicity).
    frozen_usage: Vec<f64>,
    members: Vec<u64>,
    /// Per variable, the constraint that froze it (`NO_CNST`: its own
    /// bound). Filled only when a solve asks for bottlenecks.
    bottleneck: Vec<u32>,
    /// Production finders: each constraint's current λ bit pattern (`DEAD`
    /// once its member count hit 0), the bounded variables sorted by
    /// `bound.to_bits()`, and the constraints whose λ inputs
    /// changed in the current round, each listed once (`stale` marks them).
    cur_lam: Vec<u64>,
    border: Vec<(u64, u32)>,
    touched: Vec<u32>,
    stale: Vec<bool>,
    /// Heap finder: the lazily-invalidated min-heap over `cur_lam`, and
    /// the round it was built at (0: the last solve never built it).
    lam_heap: BinaryHeap<Reverse<(u64, u32)>>,
    heap_round: u32,
    /// Per constraint, `Σ mult · bound` over its variables: what it would
    /// carry if every variable ran at its bound.
    demand: Vec<f64>,
}

/// `δ_c = (N_c + 2) · SLACK_PER_MEMBER`, i.e. `4 (N_c + 2) u`: the relative
/// margin by which a constraint's capacity must exceed its demand for the
/// bounds to be the answer (module docs).
const SLACK_PER_MEMBER: f64 = 2.0 * f64::EPSILON;

/// Member count up to which `SLACK_PER_MEMBER` is proven to cover the
/// solver's rounding (`(N + 2) u ≤ 2⁻¹²`).
const SLACK_MAX_MEMBERS: f64 = (1u64 << 40) as f64;

/// Sentinel for "constraint left the λ search" (member count hit 0); larger
/// than any real λ bit pattern, so stale heap entries can never match it.
const DEAD: u64 = u64::MAX;

impl Scratch {
    #[inline]
    fn users(&self, c: usize) -> Range<usize> {
        let start = if c == 0 { 0 } else { self.cnst_end[c - 1] };
        start as usize..self.cnst_end[c] as usize
    }

    /// Sizes every buffer for `p`, transposes its memberships and builds
    /// each constraint's member count and demand.
    fn reset(&mut self, p: &Flat, bottlenecks: bool) {
        let nv = p.bounds.len();
        let nc = p.capacities.len();
        self.rate.clear();
        self.rate.resize(nv, 0.0);
        self.frozen.clear();
        self.frozen.resize(nv, false);
        self.frozen_usage.clear();
        self.frozen_usage.resize(nc, 0.0);
        self.bottleneck.clear();
        if bottlenecks {
            self.bottleneck.resize(nv, NO_CNST);
        }

        self.cnst_end.clear();
        self.cnst_end.resize(nc, 0);
        for &c in &p.var_cnsts {
            self.cnst_end[c as usize] += 1;
        }
        let mut start = 0u32;
        for e in &mut self.cnst_end {
            let count = *e;
            *e = start; // the write cursor; ends as the span's end
            start += count;
        }
        self.cnst_vars.clear();
        self.cnst_vars.resize(p.var_cnsts.len(), 0);
        self.members.clear();
        self.members.resize(nc, 0);
        self.demand.clear();
        self.demand.resize(nc, 0.0);
        for v in 0..nv {
            debug_assert!(
                !p.span(v).is_empty() || p.bounds[v].is_finite(),
                "variable {v} is unconstrained and unbounded"
            );
            let demand = p.mults[v] as f64 * p.bounds[v];
            for &c in &p.var_cnsts[p.span(v)] {
                let c = c as usize;
                self.cnst_vars[self.cnst_end[c] as usize] = v as u32;
                self.cnst_end[c] += 1;
                self.members[c] += u64::from(p.mults[v]);
                self.demand[c] += demand;
            }
        }
    }

    /// `true` when no constraint can saturate before every variable reaches
    /// its bound, with the margin the module docs prove covers the
    /// filling's rounding. An infinite bound makes its constraints' demand
    /// infinite, and so fails the test.
    fn unsaturable(&self, p: &Flat) -> bool {
        (0..p.capacities.len()).all(|c| {
            let members = self.members[c] as f64;
            members == 0.0
                || (members <= SLACK_MAX_MEMBERS
                    && p.capacities[c]
                        > self.demand[c] * (1.0 + (members + 2.0) * SLACK_PER_MEMBER))
        })
    }

    #[inline]
    fn lam_of(&self, p: &Flat, c: usize) -> f64 {
        (p.capacities[c] - self.frozen_usage[c]).max(0.0) / self.members[c] as f64
    }

    /// Production set-up: cache every live constraint's λ and sort the
    /// bounded variables.
    fn init_cache(&mut self, p: &Flat) {
        let nc = p.capacities.len();
        self.cur_lam.clear();
        self.cur_lam.resize(nc, DEAD);
        self.stale.clear();
        self.stale.resize(nc, false);
        self.touched.clear();
        for c in 0..nc {
            if self.members[c] > 0 {
                self.cur_lam[c] = self.lam_of(p, c).to_bits();
            }
        }
        self.border.clear();
        self.border.extend(
            (0..p.bounds.len())
                .filter(|&v| p.bounds[v].is_finite())
                .map(|v| (p.bounds[v].to_bits(), v as u32)),
        );
        self.border.sort_unstable();
    }

    /// Keys every live constraint's cached λ in the heap, in one heapify:
    /// from here on the round's argmin is [`heap_argmin`](Self::heap_argmin).
    fn build_heap(&mut self) {
        self.lam_heap.clear();
        let live = self.cur_lam.iter().enumerate().filter(|&(_, &b)| b != DEAD);
        self.lam_heap
            .extend(live.map(|(c, &bits)| Reverse((bits, c as u32))));
    }

    /// The oracle's selection, recomputed from scratch: every live
    /// constraint's λ and every unfrozen bounded variable's, constraints
    /// first, a bound wins only with strictly smaller λ, ties to the lowest
    /// index.
    fn reference_argmin(&self, p: &Flat) -> (f64, Pick) {
        let mut best = f64::INFINITY;
        let mut pick = Pick::Nothing;
        for c in 0..p.capacities.len() {
            if self.members[c] > 0 {
                let lam = self.lam_of(p, c);
                if lam < best {
                    best = lam;
                    pick = Pick::Cnst(c);
                }
            }
        }
        for (v, &b) in p.bounds.iter().enumerate() {
            if !self.frozen[v] && b.is_finite() && b < best {
                best = b;
                pick = Pick::Var(v);
            }
        }
        (best, pick)
    }

    /// The same selection by a linear min over the cached λs. Non-negative
    /// IEEE doubles order like their bit patterns and λ is never NaN here,
    /// so comparing bits compares levels; `DEAD` never wins, and neither
    /// does an infinite λ (the oracle's strict `<` against `INFINITY`).
    fn scan_argmin(&mut self, bcur: &mut usize) -> (f64, Pick) {
        let mut best = f64::INFINITY.to_bits();
        let mut cbest = None;
        for (c, &bits) in self.cur_lam.iter().enumerate() {
            if bits < best {
                best = bits;
                cbest = Some(c);
            }
        }
        self.pick(cbest.map(|c| (best, c)), bcur)
    }

    /// The same selection from the λ heap: an entry is trusted only if it
    /// matches the constraint's current λ.
    fn heap_argmin(&mut self, bcur: &mut usize) -> (f64, Pick) {
        let cbest = loop {
            match self.lam_heap.peek() {
                None => break None,
                Some(&Reverse((bits, c))) => {
                    if self.cur_lam[c as usize] == bits {
                        break Some((bits, c as usize));
                    }
                    self.lam_heap.pop();
                }
            }
        };
        self.pick(cbest, bcur)
    }

    /// Settles the constraint candidate `cbest` against the bound cursor,
    /// which first skips the variables a constraint froze meanwhile.
    fn pick(&self, cbest: Option<(u64, usize)>, bcur: &mut usize) -> (f64, Pick) {
        while *bcur < self.border.len() && self.frozen[self.border[*bcur].1 as usize] {
            *bcur += 1;
        }
        let vbest = self.border.get(*bcur).map(|&(b, v)| (b, v as usize));
        let (bits, pick) = match (cbest, vbest) {
            (None, None) => (f64::INFINITY.to_bits(), Pick::Nothing),
            (Some((cb, c)), None) => (cb, Pick::Cnst(c)),
            (None, Some((vb, v))) => (vb, Pick::Var(v)),
            (Some((cb, c)), Some((vb, v))) => {
                if vb < cb {
                    (vb, Pick::Var(v))
                } else {
                    (cb, Pick::Cnst(c))
                }
            }
        };
        (f64::from_bits(bits), pick)
    }

    /// Freezes `v` at rate `r` and charges it to its constraints.
    fn freeze(&mut self, p: &Flat, v: usize, r: f64, note_touched: bool) {
        debug_assert!(!self.frozen[v]);
        self.rate[v] = r;
        self.frozen[v] = true;
        for &c in &p.var_cnsts[p.span(v)] {
            let c = c as usize;
            // One accumulation step per folded member, mirroring the
            // expanded problem's repeated addition exactly.
            for _ in 0..p.mults[v] {
                self.frozen_usage[c] += r;
            }
            self.members[c] -= u64::from(p.mults[v]);
            if note_touched && !self.stale[c] {
                self.stale[c] = true;
                self.touched.push(c as u32);
            }
        }
    }

    /// Recomputes the cached λ of the constraints the round touched (and
    /// re-keys them in the heap when `heap`). λ depends only on the
    /// constraint's own usage and member count, so the values computed here
    /// are the ones the oracle would recompute next round. Returns the keys
    /// the heap takes (or would take): the λs that changed and still live.
    fn rekey_touched(&mut self, p: &Flat, heap: bool) -> u64 {
        let mut keys = 0;
        for i in 0..self.touched.len() {
            let c = self.touched[i] as usize;
            self.stale[c] = false;
            let bits = if self.members[c] > 0 {
                self.lam_of(p, c).to_bits()
            } else {
                DEAD
            };
            if self.cur_lam[c] != bits {
                self.cur_lam[c] = bits;
                if bits != DEAD {
                    keys += 1;
                    if heap {
                        self.lam_heap.push(Reverse((bits, c as u32)));
                    }
                }
            }
        }
        self.touched.clear();
        keys
    }
}

/// What saturates next.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Cnst(usize),
    Var(usize),
    Nothing,
}

/// The rate progressive filling gives the only variable of a problem,
/// standing for `members` flows, bounded at `bound` (a zero bound is +0.0,
/// as `begin_variable` stores it) and crossing constraints of the given
/// capacities in index order; and the position of the constraint that froze
/// it (`None`: its own bound did, or it crosses nothing). The production
/// finders' arithmetic for one variable, operation for operation (module
/// docs).
pub(crate) fn rate_alone(
    bound: f64,
    members: u32,
    capacities: impl IntoIterator<Item = f64>,
) -> (f64, Option<usize>) {
    debug_assert!(
        bound >= 0.0 && bound.is_sign_positive(),
        "invalid bound {bound}"
    );
    debug_assert!(members >= 1, "class must have at least one member");
    let members = f64::from(members);
    // `init_cache` + `scan_argmin`: the first smallest λ bit pattern.
    let mut cbest: Option<(u64, usize)> = None;
    for (i, cap) in capacities.into_iter().enumerate() {
        debug_assert!(cap.is_finite() && cap >= 0.0, "invalid capacity {cap}");
        let bits = ((cap - 0.0).max(0.0) / members).to_bits();
        if cbest.is_none_or(|(best, _)| bits < best) {
            cbest = Some((bits, i));
        }
    }
    // `pick`: the bound wins only when strictly smaller; the constraint
    // freezes the variable at the level.
    debug_assert!(
        cbest.is_some() || bound.is_finite(),
        "variable 0 is unconstrained and unbounded"
    );
    let vbest = bound.is_finite().then(|| bound.to_bits());
    match (cbest, vbest) {
        (Some((cb, c)), vb) if vb.is_none_or(|vb| vb >= cb) => {
            let share = 0.0_f64.max(f64::from_bits(cb));
            let by = if bound < share { None } else { Some(c) };
            (share.min(bound), by)
        }
        _ => (bound, None),
    }
}

/// Solves `p` into `s.rate` (and `s.bottleneck` when asked) and returns the
/// rounds of progressive filling it took — 0 when one of the module docs'
/// shortcuts answered. Every caller — either [`MaxMinProblem`] entry point,
/// the engine's `Workspace` — runs this function; `argmin` only changes how
/// a round's minimum is *found*, never which one it is, and
/// `Argmin::Reference` always fills.
fn solve_core(p: &Flat, s: &mut Scratch, argmin: Argmin, bottlenecks: bool) -> u32 {
    let cached = argmin != Argmin::Reference;
    if cached && p.bounds.len() == 1 {
        let span = &p.var_cnsts[p.span(0)];
        debug_assert!(span.windows(2).all(|w| w[0] < w[1]), "index order");
        let caps = span.iter().map(|&c| p.capacities[c as usize]);
        let (rate, by) = rate_alone(p.bounds[0], p.mults[0], caps);
        s.rate.clear();
        s.rate.push(rate);
        s.bottleneck.clear();
        if bottlenecks {
            s.bottleneck.push(by.map_or(NO_CNST, |i| span[i]));
        }
        return 0;
    }
    s.reset(p, bottlenecks);
    if cached && s.unsaturable(p) {
        s.rate.copy_from_slice(&p.bounds);
        return 0; // `reset` left every bottleneck at `NO_CNST`
    }
    let mut heap = false;
    s.heap_round = 0;
    let mut bcur = 0usize;
    if cached {
        s.init_cache(p);
    }
    // `Argmin::Cached`'s prices, in scanned constraints: what the rounds
    // scanned so far cost, and what the heap would have cost over them.
    let nc = p.capacities.len() as u64;
    let levels = u64::from(u64::BITS - nc.leading_zeros());
    let (mut scan_cost, mut heap_cost) = (0, HEAP_BUILD * nc);
    let mut level = 0.0_f64;
    let mut remaining = p.bounds.len();
    let mut rounds = 0;
    while remaining > 0 {
        rounds += 1;
        if !heap && cached {
            heap = match argmin {
                Argmin::HeapFrom(round) => rounds >= round,
                _ => scan_cost > heap_cost,
            };
            if heap {
                s.build_heap();
                s.heap_round = rounds;
            }
        }
        let (best, pick) = if !cached {
            s.reference_argmin(p)
        } else if heap {
            s.heap_argmin(&mut bcur)
        } else {
            scan_cost += nc;
            s.scan_argmin(&mut bcur)
        };
        if best.is_infinite() {
            // Only unbounded variables on capacity-free constraints remain
            // (cannot happen with finite capacities, but guard anyway).
            for v in 0..p.bounds.len() {
                if !s.frozen[v] {
                    s.rate[v] = p.bounds[v];
                    s.frozen[v] = true;
                }
            }
            break;
        }
        level = level.max(best);
        match pick {
            Pick::Var(v) => {
                s.freeze(p, v, p.bounds[v], cached);
                remaining -= 1;
            }
            Pick::Cnst(c) => {
                // Freeze every unfrozen variable crossing the saturated
                // constraint at the current level.
                for i in s.users(c) {
                    let v = s.cnst_vars[i] as usize;
                    if s.frozen[v] {
                        continue;
                    }
                    if bottlenecks {
                        // A tie between the constraint's saturation level
                        // and the variable's own bound attributes to the
                        // bound only when the bound is the strictly
                        // smaller cap.
                        s.bottleneck[v] = if p.bounds[v] < level {
                            NO_CNST
                        } else {
                            c as u32
                        };
                    }
                    s.freeze(p, v, level.min(p.bounds[v]), cached);
                    remaining -= 1;
                }
            }
            Pick::Nothing => unreachable!("a finite level always has a pick"),
        }
        if cached {
            heap_cost += HEAP_REKEY * levels * s.rekey_touched(p, heap);
        }
    }
    rounds
}

/// A max-min fairness problem instance, owned.
///
/// Build with [`add_constraint`](Self::add_constraint) /
/// [`add_variable`](Self::add_variable), then call [`solve`](Self::solve).
#[derive(Debug, Default, Clone)]
pub struct MaxMinProblem {
    flat: Flat,
}

impl MaxMinProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint with the given capacity (e.g. link bandwidth in
    /// bytes/s). Capacity must be finite and non-negative.
    pub fn add_constraint(&mut self, capacity: f64) -> CnstId {
        CnstId(self.flat.add_constraint(capacity))
    }

    /// Adds a variable (one flow) crossing `constraints`, with an optional
    /// rate bound (`f64::INFINITY` for unbounded).
    pub fn add_variable(&mut self, bound: f64, constraints: &[CnstId]) -> VarId {
        self.add_variable_class(bound, 1, constraints)
    }

    /// Adds a *folded class*: `members` interchangeable flows represented by
    /// a single solver variable. The returned variable's rate is the
    /// per-member rate; the class together consumes `members` times that on
    /// each constraint.
    ///
    /// The fold is bitwise-exact versus adding `members` separate variables
    /// only under the uniform precondition (every variable of the problem
    /// has the same bound bit-pattern); see the module docs. Callers that
    /// cannot guarantee it must fall back to unfolded variables.
    pub fn add_variable_class(
        &mut self,
        bound: f64,
        members: u32,
        constraints: &[CnstId],
    ) -> VarId {
        let f = &mut self.flat;
        let v = f.begin_variable(bound, members);
        let start = f.var_cnsts.len();
        for c in constraints {
            assert!(c.0 < f.capacities.len(), "unknown constraint");
            f.var_cnsts.push(c.0 as u32);
        }
        // A constraint listed twice still constrains the variable once.
        f.var_cnsts[start..].sort_unstable();
        let mut kept = start;
        for i in start..f.var_cnsts.len() {
            if i == start || f.var_cnsts[i] != f.var_cnsts[kept - 1] {
                f.var_cnsts[kept] = f.var_cnsts[i];
                kept += 1;
            }
        }
        f.var_cnsts.truncate(kept);
        f.var_end[v] = kept as u32;
        VarId(v)
    }

    fn solve_by(&self, argmin: Argmin) -> Vec<f64> {
        let mut s = Scratch::default();
        solve_core(&self.flat, &mut s, argmin, false);
        s.rate
    }

    /// Solves the problem, returning the rate of each variable, indexed by
    /// [`VarId`] insertion order.
    ///
    /// A variable with no constraints and an infinite bound would receive an
    /// infinite rate; this is rejected in debug builds because it always
    /// indicates a modelling error upstream.
    pub fn solve(&self) -> Vec<f64> {
        self.solve_by(Argmin::Cached)
    }

    /// The cached-λ scan for the rounds before `round` and the heap from
    /// `round` on, whatever [`solve`](Self::solve) would choose: 1 forces
    /// the heap, `u32::MAX` the scan, anything between a mid-solve switch.
    /// Exists so the differential property tests can pin each finder
    /// against [`solve_reference`](Self::solve_reference) on problems of
    /// any size.
    #[doc(hidden)]
    pub fn solve_heap_from(&self, round: u32) -> Vec<f64> {
        self.solve_by(Argmin::HeapFrom(round))
    }

    /// The oracle: the original O(rounds · (V + C)) progressive filling,
    /// recomputing every λ every round. Only tests call it; `solve` must
    /// match it bitwise on any input (`tests/lmm_props.rs`).
    #[doc(hidden)]
    pub fn solve_reference(&self) -> Vec<f64> {
        self.solve_by(Argmin::Reference)
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
        self.bottlenecks_by(Argmin::Cached)
    }

    /// [`solve_with_bottlenecks`](Self::solve_with_bottlenecks) by the
    /// oracle, which always fills: what the differential tests pin the
    /// shortcuts' bottlenecks against.
    #[doc(hidden)]
    pub fn solve_reference_with_bottlenecks(&self) -> (Vec<f64>, Vec<Option<CnstId>>) {
        self.bottlenecks_by(Argmin::Reference)
    }

    fn bottlenecks_by(&self, argmin: Argmin) -> (Vec<f64>, Vec<Option<CnstId>>) {
        let mut s = Scratch::default();
        solve_core(&self.flat, &mut s, argmin, true);
        let bottlenecks = s
            .bottleneck
            .iter()
            .map(|&c| (c != NO_CNST).then_some(CnstId(c as usize)))
            .collect();
        (s.rate, bottlenecks)
    }
}

/// The engine's reusable problem + solver state: cleared, refilled with one
/// dirty component and solved in place on every reshare. A variable is a
/// route class with its live member count.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    flat: Flat,
    scratch: Scratch,
}

impl Workspace {
    /// Forgets the previous component; keeps every buffer.
    pub(crate) fn clear(&mut self) {
        self.flat.clear();
    }

    /// Adds a constraint, returning its index.
    pub(crate) fn add_constraint(&mut self, capacity: f64) -> u32 {
        self.flat.add_constraint(capacity) as u32
    }

    /// Starts a variable standing for `members` interchangeable flows;
    /// [`cross`](Self::cross) then lists its constraints.
    pub(crate) fn add_class(&mut self, bound: f64, members: u32) {
        self.flat.begin_variable(bound, members);
    }

    /// The variable started last crosses `cnst`. The caller lists each
    /// constraint once per variable (engine routes are stored deduplicated).
    pub(crate) fn cross(&mut self, cnst: u32) {
        debug_assert!((cnst as usize) < self.flat.capacities.len());
        self.flat.var_cnsts.push(cnst);
        *self
            .flat
            .var_end
            .last_mut()
            .expect("a variable was started") += 1;
    }

    /// Number of variables written since the last `clear`.
    pub(crate) fn num_variables(&self) -> usize {
        self.flat.bounds.len()
    }

    /// Solves in place; rates (and bottlenecks, when asked) are then read
    /// per variable. Returns the rounds of progressive filling, 0 when the
    /// problem needed none (module docs).
    pub(crate) fn solve(&mut self, bottlenecks: bool) -> u32 {
        solve_core(&self.flat, &mut self.scratch, Argmin::Cached, bottlenecks)
    }

    /// Rate of variable `v` after [`solve`](Self::solve).
    pub(crate) fn rate(&self, v: usize) -> f64 {
        self.scratch.rate[v]
    }

    /// Constraint that froze variable `v` in a solve that tracked
    /// bottlenecks; `None` when its own bound did.
    pub(crate) fn bottleneck(&self, v: usize) -> Option<u32> {
        let c = self.scratch.bottleneck[v];
        (c != NO_CNST).then_some(c)
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

    /// The measurement behind `Argmin::Cached`'s prices: every
    /// finder on two problem shapes, in one reused scratch — the way the
    /// engine's workspace runs them. `probe` is the benchmark probe's
    /// (every variable crosses four of `vars / 4` constraints, random
    /// bounds); `route` is a coupled collective round as the engine writes
    /// it (one variable per flow over its two private links and the uplinks
    /// of its two groups of a 32-host-per-uplink tree, one shared bound),
    /// which has four times the probe's constraints per variable. Prints
    /// each problem's filling rounds, the round from which the production
    /// solve uses the heap (`-`: a problem done before it), and the time of
    /// the oracle (`ref_us`, for scale), the scan alone, the heap from
    /// round 1 and the production solve:
    /// `cargo test --release -p surf-sim --lib switch_round -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn switch_round_table() {
        let mut x = 11u64;
        let mut below = move |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % n
        };
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "shape", "vars", "cnsts", "rounds", "heap", "ref_us", "scan_us", "heap_us", "solve_us"
        );
        for shape in ["probe", "route"] {
            for vars in [64usize, 128, 256, 512, 1024, 2048, 4096] {
                let mut p = MaxMinProblem::new();
                if shape == "probe" {
                    let cnsts: Vec<_> = (0..(vars / 4).max(1))
                        .map(|_| p.add_constraint(1e8 + below(1_000_000_000) as f64))
                        .collect();
                    for _ in 0..vars {
                        let crossed: Vec<_> = (0..4).map(|_| cnsts[below(cnsts.len())]).collect();
                        p.add_variable(1e6 + below(100_000_000) as f64, &crossed);
                    }
                } else {
                    let private: Vec<_> = (0..vars).map(|_| p.add_constraint(1.25e8)).collect();
                    let uplinks: Vec<_> = (0..vars.div_ceil(32))
                        .map(|_| p.add_constraint(1.25e9))
                        .collect();
                    for src in 0..vars {
                        let dst = (src + vars / 2 + 16) % vars;
                        let route = [
                            private[src],
                            uplinks[src / 32],
                            uplinks[dst / 32],
                            private[dst],
                        ];
                        p.add_variable(1.1e8, &route);
                    }
                }
                let mut s = Scratch::default();
                let rounds = solve_core(&p.flat, &mut s, Argmin::Reference, false);
                solve_core(&p.flat, &mut s, Argmin::Cached, false);
                let switch = match s.heap_round {
                    0 => "-".to_string(),
                    round => round.to_string(),
                };
                let mut time = |argmin: Argmin| {
                    let reps = (200_000 / vars).max(20);
                    let mut samples: Vec<f64> = (0..9)
                        .map(|_| {
                            let t = std::time::Instant::now();
                            for _ in 0..reps {
                                solve_core(std::hint::black_box(&p.flat), &mut s, argmin, false);
                                std::hint::black_box(&s.rate);
                            }
                            t.elapsed().as_secs_f64() * 1e6 / reps as f64
                        })
                        .collect();
                    samples.sort_by(f64::total_cmp);
                    samples[samples.len() / 2]
                };
                let reference = time(Argmin::Reference);
                let scan = time(Argmin::HeapFrom(u32::MAX));
                let heap = time(Argmin::HeapFrom(1));
                let solve = time(Argmin::Cached);
                println!(
                    "{shape:>6} {vars:>6} {:>6} {rounds:>6} {switch:>6} {reference:>10.2} {scan:>10.2} {heap:>10.2} {solve:>10.2}",
                    p.flat.capacities.len()
                );
            }
        }
    }

    /// `lmm_props`' staircase (64 flows, each alone on its own link and
    /// all on a shared one, freezing one per round) takes the production
    /// solve through both finders: a round re-keys only the shared link, so
    /// fifteen scanned rounds (65 constraints each) cost more than building
    /// the heap and keying fifteen λs in it would have (`2 · 65 + 15 · 8 ·
    /// 7`). Flows that each cross the same four links and freeze one
    /// a round at their own bounds (51 rounds, then the links saturate)
    /// re-key all four every round, more than a scan of four costs: the
    /// heap never pays.
    #[test]
    fn the_heap_takes_over_once_it_pays() {
        let rounds_and_switch = |p: &MaxMinProblem| {
            let mut s = Scratch::default();
            let rounds = solve_core(&p.flat, &mut s, Argmin::Cached, false);
            (rounds, s.heap_round)
        };
        let mut staircase = MaxMinProblem::new();
        let shared = staircase.add_constraint(1e6);
        for i in (1..=64).rev() {
            let own = staircase.add_constraint(f64::from(i) * 10.0);
            staircase.add_variable(f64::INFINITY, &[own, shared]);
        }
        assert_eq!(rounds_and_switch(&staircase), (64, 16));
        let mut bounded = MaxMinProblem::new();
        let links: Vec<_> = (0..4).map(|_| bounded.add_constraint(2000.0)).collect();
        for i in 1..=64 {
            bounded.add_variable(f64::from(i), &links);
        }
        assert_eq!(rounds_and_switch(&bounded), (52, 0));
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
