//! The NAS Embarrassingly Parallel (EP) benchmark (paper §7.3, Fig. 18).
//!
//! EP distributes a large computation — generating Gaussian deviates with
//! the Marsaglia polar method over an NPB-style linear congruential stream —
//! across ranks, with no communication except a final reduction. It is the
//! paper's vehicle for the `SMPI_SAMPLE_LOCAL` macro: the iteration space is
//! cut into blocks, only the first `ratio × blocks` are actually executed
//! and timed, and the rest are replayed as the measured mean.

use smpi::ctx::Ctx;
use smpi::op;

/// NPB LCG: x_{k+1} = a·x_k mod 2^46, a = 5^13.
const A: u64 = 1_220_703_125;
const MASK: u64 = (1 << 46) - 1;
const SEED: u64 = 271_828_183;

/// Partial tallies of one rank/block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpPartial {
    /// Sum of accepted X deviates.
    pub sx: f64,
    /// Sum of accepted Y deviates.
    pub sy: f64,
    /// Annulus counts (⌊max(|X|, |Y|)⌋ ∈ 0..10).
    pub q: [f64; 10],
}

impl EpPartial {
    fn merge(&mut self, other: &EpPartial) {
        self.sx += other.sx;
        self.sy += other.sy;
        for (a, b) in self.q.iter_mut().zip(&other.q) {
            *a += b;
        }
    }
}

/// Generates and tallies `pairs` candidate pairs starting at stream offset
/// `offset` (pairs consumed two numbers each).
pub fn ep_block(offset: u64, pairs: u64) -> EpPartial {
    let mut part = EpPartial::default();
    let mut x = lcg_skip(SEED, offset * 2);
    for _ in 0..pairs {
        x = (x.wrapping_mul(A)) & MASK;
        let u = x as f64 / (1u64 << 46) as f64;
        x = (x.wrapping_mul(A)) & MASK;
        let v = x as f64 / (1u64 << 46) as f64;
        let (a, b) = (2.0 * u - 1.0, 2.0 * v - 1.0);
        let t = a * a + b * b;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let (gx, gy) = (a * f, b * f);
            part.sx += gx;
            part.sy += gy;
            let m = gx.abs().max(gy.abs()) as usize;
            if m < 10 {
                part.q[m] += 1.0;
            }
        }
    }
    part
}

/// Jumps the LCG forward by `n` steps in O(log n) (square-and-multiply on
/// the multiplier).
fn lcg_skip(seed: u64, mut n: u64) -> u64 {
    let mut mult = A;
    let mut x = seed;
    while n > 0 {
        if n & 1 == 1 {
            x = x.wrapping_mul(mult) & MASK;
        }
        mult = mult.wrapping_mul(mult) & MASK;
        n >>= 1;
    }
    x
}

/// EP run parameters.
#[derive(Debug, Clone, Copy)]
pub struct EpConfig {
    /// Total candidate pairs across all ranks (class B would be 2^30; use a
    /// scaled-down count to keep simulations snappy).
    pub total_pairs: u64,
    /// Blocks each rank cuts its share into (the sampling granularity).
    pub blocks_per_rank: usize,
    /// Fraction of blocks actually executed (Fig. 18's x-axis); the rest
    /// replay the measured mean. 1.0 = everything executes.
    pub sampling_ratio: f64,
}

/// Result of an EP run on one rank (globally reduced, so identical on all
/// ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpResult {
    /// Global sum of X deviates (exact only at sampling ratio 1.0).
    pub sx: f64,
    /// Global sum of Y deviates.
    pub sy: f64,
    /// Number of accepted pairs.
    pub accepted: f64,
}

/// Runs one rank's share of EP. Uses `sample_local` so that only
/// `ceil(ratio × blocks)` blocks execute; the remainder are simulated as the
/// measured mean delay (the paper's Fig. 18 mechanism).
pub fn ep_rank(ctx: &Ctx, cfg: EpConfig) -> EpResult {
    assert!(cfg.sampling_ratio > 0.0 && cfg.sampling_ratio <= 1.0);
    let p = ctx.size() as u64;
    let r = ctx.rank() as u64;
    let my_pairs = cfg.total_pairs / p;
    let per_block = my_pairs / cfg.blocks_per_rank as u64;
    let measured = ((cfg.blocks_per_rank as f64) * cfg.sampling_ratio).ceil() as u32;

    let mut acc = EpPartial::default();
    for b in 0..cfg.blocks_per_rank as u64 {
        let offset = r * my_pairs + b * per_block;
        let part = std::cell::Cell::new(EpPartial::default());
        ctx.sample_local("ep:block", measured, || {
            part.set(ep_block(offset, per_block));
        });
        // Skipped blocks contribute nothing — the "erroneous results"
        // trade-off of §3.1; at ratio 1.0 every block executes and the
        // reduction is exact.
        acc.merge(&part.get());
    }

    // Final reduction, as in NPB EP.
    let reduced = ctx.allreduce(
        &[acc.sx, acc.sy, acc.q.iter().sum::<f64>()],
        &op::sum::<f64>(),
        &ctx.world(),
    );
    EpResult {
        sx: reduced[0],
        sy: reduced[1],
        accepted: reduced[2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_skip_matches_iteration() {
        let mut x = SEED;
        for _ in 0..1000 {
            x = x.wrapping_mul(A) & MASK;
        }
        assert_eq!(lcg_skip(SEED, 1000), x);
        assert_eq!(lcg_skip(SEED, 0), SEED);
    }

    #[test]
    fn blocks_partition_the_stream() {
        // Tallying one big block equals tallying two halves.
        let whole = ep_block(0, 10_000);
        let mut halves = ep_block(0, 5_000);
        halves.merge(&ep_block(5_000, 5_000));
        assert!((whole.sx - halves.sx).abs() < 1e-9);
        assert!((whole.sy - halves.sy).abs() < 1e-9);
        assert_eq!(whole.q, halves.q);
    }

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let part = ep_block(0, 100_000);
        let accepted: f64 = part.q.iter().sum();
        let rate = accepted / 100_000.0;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "acceptance rate {rate}"
        );
    }

    #[test]
    fn gaussian_tail_counts_decay() {
        let part = ep_block(0, 100_000);
        assert!(part.q[0] > part.q[1]);
        assert!(part.q[1] > part.q[2]);
        assert!(part.q[3] < part.q[0] / 50.0);
    }
}
