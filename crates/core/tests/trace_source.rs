//! The `TraceSource` contract: whichever door a capture came through —
//! in memory, a `TITRACE2` file behind block cursors, or materialized —
//! every rank yields the same ops; and `open` turns any file into a
//! source or a typed error, never a panic.

use std::path::PathBuf;

use proptest::prelude::*;
use smpi::capture_v2::encode_v2_blocks;
use smpi::{TiOp, TiTrace, TraceCursor, TraceIoError, TraceSource};

mod trace_gen;
use trace_gen::arb_trace;

/// A scratch file private to one test of this process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smpi_trace_source_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Drains a cursor through its fallible door, checking that the end is
/// sticky.
fn drain(mut cursor: TraceCursor) -> Vec<TiOp> {
    let mut ops = Vec::new();
    while let Some(op) = cursor.try_next().expect("sound source") {
        ops.push(op);
    }
    assert_eq!(cursor.try_next().expect("sound source"), None);
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `Mem` cursor, the `File` cursor (written through `TiV2Writer`
    /// at odd block sizes) and `materialize()` agree rank by rank.
    #[test]
    fn every_door_yields_the_same_ops(trace in arb_trace(), block_ops in 1usize..17) {
        let path = scratch("doors.tit2");
        std::fs::write(&path, encode_v2_blocks(&trace, block_ops)).unwrap();
        let file = TraceSource::open(&path).expect("own encoding opens");
        prop_assert!(matches!(file, TraceSource::File(_)));
        let mem = TraceSource::from(&trace);
        prop_assert_eq!(mem.num_ranks(), trace.num_ranks());
        prop_assert_eq!(file.num_ranks(), trace.num_ranks());
        for (rank, ops) in trace.ranks.iter().enumerate() {
            prop_assert_eq!(&drain(mem.rank_ops(rank)), ops);
            prop_assert_eq!(&drain(file.rank_ops(rank)), ops);
            // The panicking iterator is the same stream.
            prop_assert_eq!(&file.rank_ops(rank).collect::<Vec<_>>(), ops);
        }
        prop_assert_eq!(&file.materialize().expect("checked decode"), &trace);
        prop_assert_eq!(&mem.materialize().expect("already in memory"), &trace);
    }
}

/// A trace with a logical collective: v1 text degrades it, v2 keeps it.
fn sample() -> TiTrace {
    TiTrace {
        ranks: vec![
            vec![
                TiOp::Compute { flops: 2.5e6 },
                TiOp::Coll {
                    name: "allreduce".into(),
                    algo: "rdb".into(),
                    span: 1,
                    posts: 0,
                },
                TiOp::Region {
                    name: "allreduce".into(),
                    enter: false,
                },
            ],
            vec![TiOp::Sleep { secs: 1.5e-6 }],
        ],
    }
}

#[test]
fn open_sniffs_both_formats() {
    let trace = sample();
    let v1 = scratch("sample.tit");
    std::fs::write(&v1, trace.encode()).unwrap();
    let source = TraceSource::open(&v1).unwrap();
    assert!(matches!(source, TraceSource::Mem(_)), "v1 text is decoded");
    assert_eq!(source.materialize().unwrap().encode(), trace.encode());

    let v2 = scratch("sample.tit2");
    std::fs::write(&v2, smpi::encode_v2(&trace)).unwrap();
    let source = TraceSource::open(&v2).unwrap();
    assert!(matches!(source, TraceSource::File(_)), "v2 stays on disk");
    assert_eq!(source.materialize().unwrap(), trace);
}

#[test]
fn open_failures_are_typed() {
    let path = scratch("bad.tit");
    let open = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        TraceSource::open(&path).expect_err("must not open")
    };
    let err = open(b"");
    assert!(matches!(err, TraceIoError::Format(_)), "empty: {err:?}");
    let err = open(b"not a trace\n");
    assert!(matches!(err, TraceIoError::Format(_)), "garbage: {err:?}");
    let err = open(b"TITRACE2\x04");
    assert!(matches!(err, TraceIoError::V2(_)), "truncated: {err:?}");

    // Every proper prefix of a valid container: past the magic it is a v2
    // error, before it the bytes are not a v1 document either.
    let bytes = smpi::encode_v2(&sample());
    for cut in 0..bytes.len() {
        let err = open(&bytes[..cut]);
        assert_eq!(
            matches!(err, TraceIoError::V2(_)),
            cut >= 8,
            "{cut}: {err:?}"
        );
    }

    std::fs::remove_file(&path).unwrap();
    let err = TraceSource::open(&path).expect_err("no such file");
    assert!(matches!(err, TraceIoError::Io(_)), "missing: {err:?}");
}
