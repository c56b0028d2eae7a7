//! Determinism at scale: two identical 4096-rank runs must produce
//! byte-identical reports.
//!
//! The paper's methodology leans on bit-for-bit reproducibility — the
//! maestro resumes runnable ranks strictly in actor-id order, so the
//! sequence of simcalls (and therefore every simulated timestamp) is a pure
//! function of the program. This test locks that property in for the
//! scheduler fast path: the fiber switch, the dense runnable worklist, the
//! local simcall tier (`wtime` answered inside the rank, without switching
//! to the maestro) and the O(completions) waiter queue all must not
//! introduce any dependence on anything but the program.
//!
//! The workload is a deterministic EP-style mix: explicit compute bursts
//! (no wall-clock sampling — that would be genuinely nondeterministic),
//! folded allocations, a ring exchange and an allreduce, with `wtime`
//! sprinkled in so the local tier is on the measured path.
//!
//! 4096 ranks: four times the largest benchmark workload, so deep batches,
//! a 12-round allreduce and thousands of concurrently blocked ranks are on
//! the path. A rank is a fiber on the maestro thread (a simcall costs two
//! user-level switches, whatever the rank count), so what the size costs
//! tier-1 — two runs of ~14 s on 2 vCPU — is the debug-build flow kernel
//! (the same two runs take under 5 s in release).

use std::sync::Arc;

use smpi::{MpiProfile, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

const RANKS: usize = 4096;

/// Serializes a run into an exact byte string: every f64 as raw bits.
fn run_fingerprint() -> String {
    // 61 hosts: odd (so no power-of-two allreduce partner distance is a
    // multiple of it) and not a divisor of 4095 (so the ring wraparound
    // never pairs two ranks of the same host — the fabric models no
    // intra-host wire).
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "det",
        61,
        &ClusterConfig::default(),
    )));
    let world = World::new(
        rp,
        smpi::Backend::Surf {
            model: TransferModel::default_affine(),
            engine: Default::default(),
        },
        MpiProfile::smpi(),
    );
    let report = world.run(RANKS, |ctx| {
        let rank = ctx.rank();
        let n = ctx.size();
        let comm = ctx.world();
        let field = ctx.shared_malloc::<f64>("det:field", 1 << 12);
        // Deterministic compute burst, different per rank class.
        ctx.compute(1.0e6 * (1 + rank % 7) as f64);
        let t0 = ctx.wtime();
        field.lock()[rank % (1 << 12)] = t0;
        // Ring exchange: send right, receive from left.
        let right = (rank + 1) % n;
        let sreq = ctx.isend(&[rank as f64, t0], right, 5, &comm);
        let mut buf = [0.0f64; 2];
        ctx.recv(&mut buf, ((rank + n - 1) % n) as i32, 5, &comm);
        ctx.wait_send(sreq);
        let t1 = ctx.wtime();
        let sum = ctx.allreduce(&[t1 - t0, buf[1]], &smpi::op::sum::<f64>(), &comm);
        (t1.to_bits(), sum[0].to_bits(), sum[1].to_bits())
    });

    let mut out = String::new();
    out.push_str(&format!("sim_time={:016x}\n", report.sim_time.to_bits()));
    out.push_str(&format!(
        "peak={} logical={}\n",
        report.memory.peak_bytes, report.memory.logical_peak_bytes
    ));
    for (rank, t) in report.finish_times.iter().enumerate() {
        out.push_str(&format!("finish[{rank}]={:016x}\n", t.to_bits()));
    }
    for (rank, (a, b, c)) in report.results.iter().enumerate() {
        out.push_str(&format!("result[{rank}]={a:016x},{b:016x},{c:016x}\n"));
    }
    out
}

#[test]
fn two_4096_rank_runs_are_byte_identical() {
    let first = run_fingerprint();
    let second = run_fingerprint();
    assert!(first.len() > RANKS * 2, "fingerprint covers every rank");
    assert_eq!(
        first, second,
        "4096-rank runs diverged: scheduling is leaking into results"
    );
}
