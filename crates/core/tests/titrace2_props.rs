//! Property tests for the `TITRACE2` binary codec.
//!
//! Three layers, hammered separately and together:
//!
//! * **wire primitives** — varint/zigzag/float-XOR-delta round-trips at
//!   randomly drawn and boundary values;
//! * **LZSS** — compress/decompress round-trips, with and without the
//!   anchor-block preset dictionary;
//! * **the full container** — random traces survive
//!   encode → decode → re-encode *byte-identically* (the codec's opcode
//!   choices are deterministic functions of decoder-visible state), at the
//!   default block size and at adversarially tiny ones; and every
//!   truncation or single-byte corruption of a valid container produces a
//!   typed [`TiV2Error`] or a decoded trace — never a panic, never an
//!   unbounded allocation.

use proptest::prelude::*;
use smpi::capture_v2::{encode_v2_blocks, lz, wire};
use smpi::{decode_v2, encode_v2, TiOp, TiTrace, WaitMode};

mod trace_gen;
use trace_gen::arb_trace;

/// A fixed, fully deterministic trace covering every opcode — including
/// the SAME-route, WAIT_NEXT and COMPUTE_INT fast paths and enough
/// cross-rank repetition that the encoder emits anchor-dictionary (`comp
/// == 2`) blocks. Used by the exhaustive truncation/corruption sweeps,
/// which want one representative container, not a random one.
fn sample_trace() -> TiTrace {
    let rank = |r: u32| -> Vec<TiOp> {
        let mut ops = Vec::new();
        for i in 0..6u32 {
            ops.push(TiOp::Compute {
                flops: f64::from(1000 + i),
            });
            ops.push(TiOp::Send {
                dst: (r + i) % 4,
                cid: 0,
                tag: 7,
                bytes: 4096,
            });
            ops.push(TiOp::Recv {
                src: ((r + 9 - i) % 4) as i32,
                cid: 0,
                tag: 7,
                max_bytes: 4096,
            });
            ops.push(TiOp::Wait {
                reqs: vec![2 * i, 2 * i + 1],
                mode: WaitMode::All,
            });
        }
        ops.push(TiOp::Region {
            name: "allreduce".into(),
            enter: true,
        });
        ops.push(TiOp::Sleep { secs: 1.5e-6 });
        ops.push(TiOp::Region {
            name: "allreduce".into(),
            enter: false,
        });
        ops.push(TiOp::Coll {
            name: "allreduce".into(),
            algo: "rdb".into(),
            span: 3,
            posts: 0,
        });
        ops
    };
    TiTrace {
        ranks: (0..4).map(rank).collect(),
    }
}

// ----------------------------------------------------------- wire primitives

#[test]
fn varint_boundary_values_round_trip() {
    let cases = [
        0u64,
        1,
        0x7f,
        0x80,
        0x3fff,
        0x4000,
        u64::from(u32::MAX),
        (1 << 53) - 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    for v in cases {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, v);
        assert_eq!(buf.len(), wire::uvarint_len(v), "uvarint_len({v})");
        let mut pos = 0;
        assert_eq!(wire::get_uvarint(&buf, &mut pos), Ok(v));
        assert_eq!(pos, buf.len());
    }
    for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 64] {
        let mut buf = Vec::new();
        wire::put_ivarint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(wire::get_ivarint(&buf, &mut pos), Ok(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn uvarint_round_trips(v in 0u64..u64::MAX) {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(wire::get_uvarint(&buf, &mut pos), Ok(v));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarint_round_trips(v in i64::MIN..i64::MAX) {
        let mut buf = Vec::new();
        wire::put_ivarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(wire::get_ivarint(&buf, &mut pos), Ok(v));
    }

    #[test]
    fn zigzag_is_a_bijection(v in i64::MIN..i64::MAX) {
        prop_assert_eq!(wire::unzigzag(wire::zigzag(v)), v);
    }

    #[test]
    fn f64_delta_is_bit_exact(prev in -1e300f64..1e300, cur in -1e300f64..1e300) {
        let back = wire::f64_undelta(prev, wire::f64_delta(prev, cur));
        prop_assert_eq!(back.to_bits(), cur.to_bits());
    }

    /// A truncated varint is a typed error, not a hang or a panic.
    #[test]
    fn truncated_uvarint_is_an_error(v in 0x80u64..u64::MAX) {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, v);
        for cut in 0..buf.len() - 1 {
            let mut pos = 0;
            prop_assert!(wire::get_uvarint(&buf[..cut], &mut pos).is_err());
        }
    }
}

// ------------------------------------------------------------------- LZSS

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lz_round_trips(data in proptest::collection::vec(0u8..8, 0..2000)) {
        // A tiny alphabet forces matches; the raw-vs-compressed choice is
        // the writer's job, so `compress` output may be larger than input.
        let packed = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&packed, data.len()), Ok(data));
    }

    #[test]
    fn lz_with_dict_round_trips(
        dict in proptest::collection::vec(0u8..8, 0..512),
        data in proptest::collection::vec(0u8..8, 0..512),
    ) {
        let packed = lz::compress_with_dict(&dict, &data);
        prop_assert_eq!(lz::decompress_with_dict(&dict, &packed, data.len()), Ok(data));
    }

    /// Self-similar input compressed against itself as the dictionary is
    /// the anchor-block case: it must round-trip and actually shrink.
    #[test]
    fn lz_dict_folds_near_clones(data in proptest::collection::vec(0u8..4, 64..512)) {
        let packed = lz::compress_with_dict(&data, &data);
        prop_assert_eq!(
            lz::decompress_with_dict(&data, &packed, data.len()),
            Ok(data.clone())
        );
        prop_assert!(packed.len() < data.len());
    }
}

// ------------------------------------------------------------- the container

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode → encode is byte-stable at the default block size:
    /// every opcode choice (route vs new, SAME, WAIT_NEXT, COMPUTE_INT,
    /// compression mode) is a deterministic function of state the decoder
    /// reconstructs.
    #[test]
    fn encode_decode_encode_is_byte_stable(trace in arb_trace()) {
        let bytes = encode_v2(&trace);
        let decoded = decode_v2(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(encode_v2(&decoded), bytes);
    }

    /// Block boundaries are invisible to the decoded result: any block
    /// size (down to one op per block, which maximizes context resets and
    /// anchor-dictionary use) reproduces the trace, and stays byte-stable
    /// at that same block size.
    #[test]
    fn block_size_does_not_change_the_trace(
        trace in arb_trace(),
        block_ops in 1usize..17,
    ) {
        let bytes = encode_v2_blocks(&trace, block_ops);
        let decoded = decode_v2(&bytes).expect("decodes at any block size");
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(encode_v2_blocks(&decoded, block_ops), bytes);
    }

    /// Flipping any single byte of a valid container must yield either a
    /// typed error or a (different) decoded trace — never a panic, and
    /// never an implausible allocation (all counts are cap-checked).
    #[test]
    fn corrupted_containers_never_panic(
        seed_ix in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let bytes = encode_v2_blocks(&sample_trace(), 8);
        let ix = seed_ix % bytes.len();
        let mut bad = bytes.clone();
        bad[ix] ^= xor;
        match decode_v2(&bad) {
            Ok(_) => {}
            Err(e) => prop_assert!(!e.context.is_empty() && !e.message.is_empty()),
        }
    }
}

/// Every proper prefix of a valid container is rejected with a typed
/// error: the fixed-position trailer magic + footer length make silent
/// truncation detectable at any cut point.
#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = encode_v2_blocks(&sample_trace(), 8);
    assert_eq!(decode_v2(&bytes).unwrap(), sample_trace());
    for cut in 0..bytes.len() {
        let err = decode_v2(&bytes[..cut]).expect_err("truncated container must not decode");
        assert!(!err.to_string().is_empty());
    }
}

/// The representative container exercises the dictionary-compressed block
/// mode (comp == 2): ranks run near-identical programs, so post-anchor
/// blocks should fold against the anchor payload.
#[test]
fn sample_container_uses_the_anchor_dictionary() {
    let bytes = encode_v2_blocks(&sample_trace(), 8);
    // comp tags live inside block extents; cheapest reliable probe is that
    // dictionary folding makes the container smaller than independent
    // per-block compression can. Re-encode each rank alone and compare.
    let whole = bytes.len();
    let split: usize = sample_trace()
        .ranks
        .iter()
        .map(|r| {
            encode_v2_blocks(
                &TiTrace {
                    ranks: vec![r.clone()],
                },
                8,
            )
            .len()
        })
        .sum();
    assert!(
        whole < split,
        "anchor dictionary should beat per-rank encoding ({whole} vs {split})"
    );
}
