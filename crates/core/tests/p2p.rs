//! End-to-end behaviour of the point-to-point layer, on both backends.

use std::sync::Arc;

use smpi::{MpiProfile, World, ANY_SOURCE, ANY_TAG};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

fn platform(n: usize) -> Arc<RoutedPlatform> {
    Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        n,
        &ClusterConfig::default(),
    )))
}

fn smpi_world(n: usize) -> World {
    World::smpi(platform(n), TransferModel::ideal())
}

fn testbed_world(n: usize) -> World {
    World::testbed(platform(n), MpiProfile::openmpi_like())
}

fn both(n: usize) -> [World; 2] {
    [smpi_world(n), testbed_world(n)]
}

#[test]
fn blocking_send_recv_delivers_data() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
                ctx.send(&data, 1, 7, &comm);
                0.0
            } else {
                let (data, status) = ctx.recv_vec::<f64>(0, 7, 100, &comm);
                assert_eq!(status.source, 0);
                assert_eq!(status.tag, 7);
                assert_eq!(status.count::<f64>(), 100);
                data.iter().sum::<f64>()
            }
        });
        assert_eq!(report.results[1], 4950.0);
        assert!(report.sim_time > 0.0);
    }
}

#[test]
fn messages_do_not_overtake_between_same_pair() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&[1u32], 1, 5, &comm);
                ctx.send(&[2u32], 1, 5, &comm);
                ctx.send(&[3u32], 1, 5, &comm);
                vec![]
            } else {
                let mut got = Vec::new();
                for _ in 0..3 {
                    let (d, _) = ctx.recv_vec::<u32>(0, 5, 1, &comm);
                    got.push(d[0]);
                }
                got
            }
        });
        assert_eq!(report.results[1], vec![1, 2, 3]);
    }
}

#[test]
fn wildcards_match_any_source_and_tag() {
    for world in both(3) {
        let report = world.run(3, |ctx| {
            let comm = ctx.world();
            match ctx.rank() {
                0 => {
                    let mut sum = 0u64;
                    for _ in 0..2 {
                        let (d, status) = ctx.recv_vec::<u64>(ANY_SOURCE, ANY_TAG, 1, &comm);
                        assert!(status.source == 1 || status.source == 2);
                        sum += d[0];
                    }
                    sum
                }
                r => {
                    ctx.send(&[r as u64 * 10], 0, r as i32, &comm);
                    0
                }
            }
        });
        assert_eq!(report.results[0], 30);
    }
}

#[test]
fn tag_selectivity_reorders_delivery() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&[1u8], 1, 100, &comm);
                ctx.send(&[2u8], 1, 200, &comm);
                vec![]
            } else {
                // Receive tag 200 first even though it was sent second.
                let (b, _) = ctx.recv_vec::<u8>(0, 200, 1, &comm);
                let (a, _) = ctx.recv_vec::<u8>(0, 100, 1, &comm);
                vec![b[0], a[0]]
            }
        });
        assert_eq!(report.results[1], vec![2, 1]);
    }
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    for world in both(4) {
        let report = world.run(4, |ctx| {
            let comm = ctx.world();
            let p = ctx.size();
            let r = ctx.rank();
            // Every rank exchanges a large (rendezvous-sized) buffer with
            // its ring neighbours simultaneously.
            let data = vec![r as f64; 32 * 1024];
            let mut incoming = vec![0.0f64; 32 * 1024];
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            ctx.sendrecv(&data, right, 1, &mut incoming, left as i32, 1, &comm);
            incoming[0]
        });
        assert_eq!(
            report.results,
            vec![3.0, 0.0, 1.0, 2.0] // value from the left neighbour
        );
    }
}

#[test]
fn isend_irecv_wait_family() {
    for world in both(2) {
        world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let reqs: Vec<_> = (0..4)
                    .map(|i| ctx.isend(&[i as u32; 8], 1, i, &comm))
                    .collect();
                ctx.wait_all_sends(reqs);
            } else {
                let reqs: Vec<_> = (0..4).map(|i| ctx.irecv::<u32>(0, i, 8, &comm)).collect();
                let results = ctx.wait_all_recvs(reqs, &comm);
                for (i, (data, status)) in results.iter().enumerate() {
                    assert_eq!(data[0], i as u32);
                    assert_eq!(status.tag, i as i32);
                }
            }
        });
    }
}

#[test]
fn wait_any_returns_exactly_one() {
    for world in both(2) {
        world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                // Large then small: the small one finishes first.
                ctx.send(&vec![0u8; 1_000_000], 1, 1, &comm);
                ctx.send(&[1u8], 1, 2, &comm);
            } else {
                let big = ctx.irecv::<u8>(0, 1, 1_000_000, &comm);
                let small = ctx.irecv::<u8>(0, 2, 1, &comm);
                let set = [big.into_any(), small.into_any()];
                let first = ctx.wait_any(&set);
                assert!(first.index < 2);
                assert!(first.data.is_some());
                // Exactly one completed; the other is still waitable.
                let rest = ctx.wait_all(&[set[1 - first.index]]);
                assert_eq!(rest.len(), 1);
                assert!(rest[0].data.is_some());
            }
        });
    }
}

#[test]
fn test_poll_is_nonblocking() {
    for world in both(2) {
        world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                // Delay the send so rank 1's first poll sees nothing.
                ctx.sleep(0.5);
                ctx.send(&[9u8], 1, 3, &comm);
            } else {
                let r = ctx.irecv::<u8>(0, 3, 1, &comm);
                let set = [r.into_any()];
                let early = ctx.test(&set);
                assert!(early.is_empty(), "poll must not block or lie");
                let done = ctx.wait_all(&set);
                assert_eq!(done.len(), 1);
                assert_eq!(done[0].data.as_ref().unwrap().to_vec::<u8>(), [9]);
            }
        });
    }
}

#[test]
fn persistent_requests_restart() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let p = ctx.send_init(&[41u32], 1, 0, &comm);
                for _ in 0..3 {
                    let r = ctx.start_send(&p);
                    ctx.wait_send(r);
                }
                0
            } else {
                let p = ctx.recv_init::<u32>(0, 0, 1, &comm);
                let mut total = 0;
                for _ in 0..3 {
                    let r = ctx.start_recv(&p);
                    let (d, _) = ctx.wait_recv(r, &comm);
                    total += d[0];
                }
                total
            }
        });
        assert_eq!(report.results[1], 123);
    }
}

#[test]
fn self_send_works() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            let r = ctx.irecv::<u32>(ctx.rank() as i32, 0, 4, &comm);
            ctx.send(&[7u32, 8, 9, 10], ctx.rank(), 0, &comm);
            let (d, _) = ctx.wait_recv(r, &comm);
            d.iter().sum::<u32>()
        });
        assert_eq!(report.results, vec![34, 34]);
    }
}

#[test]
fn eager_sender_completes_before_receiver_posts() {
    // An eager (small) send must complete even though the receive is posted
    // much later — the unexpected-message path.
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let t0 = ctx.wtime();
                ctx.send(&[5u8; 100], 1, 0, &comm);
                let t1 = ctx.wtime();
                t1 - t0
            } else {
                ctx.sleep(2.0);
                let (d, _) = ctx.recv_vec::<u8>(0, 0, 100, &comm);
                assert_eq!(d[0], 5);
                0.0
            }
        });
        assert!(
            report.results[0] < 1.0,
            "eager send should not wait for the receiver (took {})",
            report.results[0]
        );
    }
}

#[test]
fn rendezvous_sender_blocks_until_receiver_posts() {
    for world in both(2) {
        let report = world.run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let t0 = ctx.wtime();
                ctx.send(&vec![1u8; 1_000_000], 1, 0, &comm); // > 64 KiB
                ctx.wtime() - t0
            } else {
                ctx.sleep(2.0);
                let _ = ctx.recv_vec::<u8>(0, 0, 1_000_000, &comm);
                0.0
            }
        });
        assert!(
            report.results[0] >= 2.0,
            "rendezvous send must wait for the receive post (took {})",
            report.results[0]
        );
    }
}

#[test]
fn simulations_are_deterministic() {
    let run = || {
        smpi_world(4).run(4, |ctx| {
            let comm = ctx.world();
            let p = ctx.size();
            let r = ctx.rank();
            let mut acc = 0.0f64;
            for round in 0..3 {
                let data = vec![r as f64 + round as f64; 1000];
                let mut incoming = vec![0.0; 1000];
                ctx.sendrecv(
                    &data,
                    (r + 1) % p,
                    round,
                    &mut incoming,
                    ((r + p - 1) % p) as i32,
                    round,
                    &comm,
                );
                acc += incoming[0];
            }
            (acc, ctx.wtime())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.finish_times, b.finish_times);
}

#[test]
#[should_panic(expected = "MPI_ERR_TRUNCATE")]
fn truncation_is_an_error() {
    smpi_world(2).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[0u8; 64], 1, 0, &comm);
        } else {
            let _ = ctx.recv_vec::<u8>(0, 0, 16, &comm);
        }
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn unmatched_recv_deadlocks_loudly() {
    smpi_world(2).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 1 {
            let _ = ctx.recv_vec::<u8>(0, 0, 1, &comm); // never sent
        }
    });
}

/// A request's name is its rank's post index: the k-th request a rank posts
/// is `(rank, k)`, and a captured trace writes its waits with exactly those
/// indices — so `[post N]` in a postmortem, a `wait` line in a `.tit` file
/// and the handle the application holds all say the same number.
#[test]
fn request_ids_are_the_post_indices_a_capture_records() {
    use smpi::{AnyRequest, TiOp};
    let report = smpi_world(2).capture(true).run(2, |ctx| {
        let comm = ctx.world();
        let peer = 1 - ctx.rank();
        let mut posted = Vec::new();
        for round in 0..3 {
            let set = [
                ctx.irecv::<u8>(peer as i32, round, 16, &comm).into_any(),
                ctx.isend(&[round as u8; 16], peer, round, &comm).into_any(),
            ];
            // Any-then-all: the second wait names only what is still live.
            let first = ctx.wait_any(&set).index;
            ctx.wait_all(&[set[1 - first]]);
            posted.push((set, first));
        }
        posted
    });
    let trace = report.ti_trace.as_ref().expect("capture was enabled");
    for (rank, posted) in report.results.iter().enumerate() {
        let mut expected_waits = Vec::new();
        for (round, (set, first)) in posted.iter().enumerate() {
            for (k, req) in set.iter().enumerate() {
                let (AnyRequest::Send(id) | AnyRequest::Recv(id)) = req;
                assert_eq!(id.rank(), rank as u32);
                assert_eq!(id.post(), (2 * round + k) as u32);
            }
            let base = 2 * round as u32;
            expected_waits.push(vec![base, base + 1]);
            expected_waits.push(vec![base + 1 - *first as u32]);
        }
        let captured_waits: Vec<Vec<u32>> = trace.ranks[rank]
            .iter()
            .filter_map(|op| match op {
                TiOp::Wait { reqs, .. } => Some(reqs.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(captured_waits, expected_waits, "rank {rank}");
    }
}

// ----- the message body: `Payload` ---------------------------------------

mod payload {
    use proptest::prelude::*;
    use smpi::{encode_v2, Datatype, Payload};

    use super::{smpi_world, testbed_world};

    /// Element counts around one page and around the 64 KiB eager switch.
    const LENS: [usize; 9] = [0, 1, 7, 8_191, 8_192, 8_193, 65_535, 65_536, 65_537];

    /// `elems` as the bytes a receive of `MPI_BYTE` sees: compares floats
    /// by bit pattern, NaNs included.
    fn bits<T: Datatype>(elems: &[T]) -> Vec<u8> {
        Payload::pack(elems).to_vec()
    }

    /// Packs `len` elements of arbitrary bit patterns and checks that both
    /// decodes return them bit for bit, and that a longer receive buffer
    /// gets a prefix.
    fn round_trip<T: Datatype>(len: usize, seed: u64) {
        let mut state = seed | 1;
        let raw: Vec<u8> = (0..len * T::SIZE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        let data: Vec<T> = raw.chunks_exact(T::SIZE).map(T::from_bytes).collect();
        let body = Payload::pack(&data);
        assert_eq!((body.len(), body.is_empty()), (raw.len(), len == 0));
        assert_eq!(bits(&data), raw, "{} x {len}: pack", T::NAME);
        assert_eq!(
            bits(&body.to_vec::<T>()),
            raw,
            "{} x {len}: to_vec",
            T::NAME
        );

        let untouched = T::from_bytes(&[0xA5; 8][..T::SIZE]);
        let mut buf = vec![untouched; len + 3];
        assert_eq!(body.unpack_into(&mut buf), len);
        assert_eq!(bits(&buf[..len]), raw, "{} x {len}: unpack_into", T::NAME);
        assert_eq!(bits(&buf[len..]), bits(&[untouched; 3]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn every_datatype_round_trips_bit_exactly(seed in 0u64..u64::MAX) {
            for len in LENS {
                round_trip::<u8>(len, seed);
                round_trip::<i8>(len, seed);
                round_trip::<u16>(len, seed);
                round_trip::<i16>(len, seed);
                round_trip::<u32>(len, seed);
                round_trip::<i32>(len, seed);
                round_trip::<u64>(len, seed);
                round_trip::<i64>(len, seed);
                round_trip::<f32>(len, seed);
                round_trip::<f64>(len, seed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "message of 3 bytes is not a whole number of MPI_UNSIGNED elements")]
    fn misaligned_unpack_keeps_its_message() {
        Payload::pack(&[1u8, 2, 3]).unpack_into(&mut [0u32; 2]);
    }

    #[test]
    #[should_panic(expected = "message is not a whole number of MPI_UNSIGNED elements")]
    fn misaligned_to_vec_keeps_its_message() {
        Payload::pack(&[1u8, 2, 3]).to_vec::<u32>();
    }

    #[test]
    #[should_panic(expected = "message of 3 elements overflows receive buffer of 2")]
    fn overflowing_unpack_keeps_its_message() {
        Payload::pack(&[1.0f64, 2.0, 3.0]).unpack_into(&mut [0.0f64; 2]);
    }

    #[test]
    #[should_panic(expected = "MPI_ERR_TRUNCATE")]
    fn truncation_of_a_packed_send_is_an_error() {
        smpi_world(2).run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send_packed(&Payload::pack(&[0u8; 64]), 1, 0, &comm);
            } else {
                let req = ctx.irecv::<u8>(0, 0, 16, &comm);
                let _ = ctx.wait_recv_packed(req, &comm);
            }
        });
    }

    /// Message sizes in `f64`s: eager, the last eager size, the first
    /// rendezvous size, and a large one.
    const SIZES: [usize; 4] = [3, 8_192, 8_193, 50_000];

    fn message(round: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (round * n + i) as f64 * 0.5).collect()
    }

    /// A two-rank exchange written with the typed calls …
    fn typed(ctx: &smpi::Ctx) -> Vec<f64> {
        let comm = ctx.world();
        let mut got = Vec::new();
        for (round, n) in SIZES.into_iter().enumerate() {
            if ctx.rank() == 0 {
                ctx.send(&message(round, n), 1, round as i32, &comm);
                let mut echo = vec![0.0; n + 1];
                ctx.recv(&mut echo, 1, round as i32, &comm);
                got.extend(echo);
            } else {
                let mut buf = vec![0.0; n];
                ctx.recv(&mut buf, 0, round as i32, &comm);
                ctx.send(&buf[..n / 2], 0, round as i32, &comm);
                got.extend(buf);
            }
        }
        got
    }

    /// … and with the packed ones: the same simcalls in the same order.
    fn packed(ctx: &smpi::Ctx) -> Vec<f64> {
        let comm = ctx.world();
        let mut got = Vec::new();
        for (round, n) in SIZES.into_iter().enumerate() {
            if ctx.rank() == 0 {
                let body = Payload::pack(&message(round, n));
                ctx.send_packed(&body, 1, round as i32, &comm);
                let mut echo = vec![0.0; n + 1];
                let req = ctx.irecv::<f64>(1, round as i32, echo.len(), &comm);
                let (body, status) = ctx.wait_recv_packed(req, &comm);
                assert_eq!(status.count::<f64>(), n / 2);
                assert_eq!(body.unpack_into(&mut echo), n / 2);
                got.extend(echo);
            } else {
                let req = ctx.irecv::<f64>(0, round as i32, n, &comm);
                let (body, _) = ctx.wait_recv_packed(req, &comm);
                let buf = body.to_vec::<f64>();
                ctx.send_packed(&Payload::pack(&buf[..n / 2]), 0, round as i32, &comm);
                got.extend(buf);
            }
        }
        got
    }

    #[test]
    fn packed_calls_are_the_typed_calls() {
        for world in [smpi_world(2), testbed_world(2)] {
            let world = world.capture(true);
            let a = world.run(2, typed);
            let b = world.run(2, packed);
            assert_eq!(a.results, b.results, "same data");
            assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
            let (ta, tb) = (a.ti_trace.unwrap(), b.ti_trace.unwrap());
            assert_eq!(ta.encode(), tb.encode(), "TITRACE v1");
            assert_eq!(encode_v2(&ta), encode_v2(&tb), "TITRACE v2");
        }
    }
}
