//! Random-trace strategies shared by the codec and trace-source suites.

use proptest::prelude::*;
use smpi::{TiOp, TiTrace, WaitMode};

/// Small closed vocabulary for region/collective names: the dictionary
/// interns strings, so reuse (not variety) is the interesting case.
const NAMES: &[&str] = &["allreduce", "bcast", "coll:alltoall", "phase-2", "x"];

fn arb_name() -> impl Strategy<Value = String> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

fn arb_op() -> impl Strategy<Value = TiOp> {
    prop_oneof![
        // Integral flop counts (the OP_COMPUTE_INT fast path) including
        // the 2^53 exactness boundary.
        (0u64..(1u64 << 53)).prop_map(|n| TiOp::Compute { flops: n as f64 }),
        // Fractional / extreme floats (the XOR-delta path). No NaN: the
        // codec is bit-exact but `TiTrace` equality is not.
        prop_oneof![
            (0.0f64..1e15).prop_map(|f| f + 0.25),
            Just(-1.5e300),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(-0.0f64),
        ]
        .prop_map(|flops| TiOp::Compute { flops }),
        (0.0f64..10.0).prop_map(|secs| TiOp::Sleep { secs }),
        (0u32..64, 0u32..4, -1i32..1 << 20, 0u64..u64::MAX).prop_map(|(dst, cid, tag, bytes)| {
            TiOp::Send {
                dst,
                cid,
                tag,
                bytes,
            }
        }),
        (-2i32..64, 0u32..4, -2i32..1 << 20, 0u64..u64::MAX).prop_map(
            |(src, cid, tag, max_bytes)| TiOp::Recv {
                src,
                cid,
                tag,
                max_bytes
            }
        ),
        (proptest::collection::vec(0u32..100_000, 0..6), 0u8..4u8).prop_map(|(reqs, m)| {
            TiOp::Wait {
                reqs,
                mode: match m {
                    0 => WaitMode::All,
                    1 => WaitMode::Any,
                    2 => WaitMode::Some,
                    _ => WaitMode::Poll,
                },
            }
        }),
        (arb_name(), 0u8..2u8).prop_map(|(name, e)| TiOp::Region {
            name,
            enter: e == 0
        }),
        (
            arb_name(),
            proptest::option::of(arb_name()),
            0u32..500,
            0u32..200
        )
            .prop_map(|(name, algo, span, posts)| TiOp::Coll {
                name,
                algo: algo.unwrap_or_default(),
                span,
                posts,
            }),
    ]
}

pub fn arb_trace() -> impl Strategy<Value = TiTrace> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..40), 1..6)
        .prop_map(|ranks| TiTrace { ranks })
}
