//! What an actor costs the process, measured from `/proc`: two kernel
//! mappings while it lives, none after, and never an OS thread — so 16 384
//! actors run on default sysctls (`vm.max_map_count` = 65 530).
//!
//! This test lives alone in its binary, as one `#[test]`: it reads the
//! process-wide mapping and thread counts, which sibling tests on harness
//! threads would perturb.

use simix::{ActorEvent, Simix};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// Lines of `/proc/self/maps`: the count `vm.max_map_count` limits.
fn process_maps() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines().count()
}

/// Spawns `actors` actors of `calls` simcalls each and drives them to the
/// end, calling `probe` once all are spawned and after every batch.
fn run(actors: u32, calls: u32, mut probe: impl FnMut()) {
    let mut sx = Simix::<u32, u32>::new();
    for i in 0..actors {
        sx.spawn(move |h| {
            for k in 0..calls {
                assert_eq!(h.simcall(i ^ k), (i ^ k) + 1);
            }
        });
    }
    probe();
    let mut events = Vec::new();
    let mut finished = 0;
    loop {
        sx.run_ready_into(&mut events);
        if events.is_empty() {
            break;
        }
        for ev in events.drain(..) {
            match ev {
                ActorEvent::Request(id, v) => sx.resolve(id, v + 1),
                ActorEvent::Finished(_) => finished += 1,
            }
        }
        probe();
    }
    assert_eq!(finished, actors);
}

#[test]
fn actors_cost_two_mappings_and_no_thread() {
    let threads = process_threads();

    // Mappings. One warm-up round first, so that the allocator's own arenas
    // exist before the baseline is taken.
    run(1_000, 1, || {});
    let baseline = process_maps();
    let mut peak = 0;
    run(1_000, 1, || peak = peak.max(process_maps()));
    let per_actor = (peak - baseline) as f64 / 1_000.0;
    assert!(
        (1.9..=2.1).contains(&per_actor),
        "{per_actor} mappings per live actor (stack + guard page = 2)"
    );
    // Finished actors gave theirs back; blocked and never-started ones do.
    assert_eq!(process_maps(), baseline, "finished actors' stacks leaked");
    let mut sx = Simix::<(), ()>::new();
    for _ in 0..500 {
        sx.spawn(|h| h.simcall(()));
    }
    assert_eq!(sx.run_ready().len(), 500);
    for _ in 0..500 {
        sx.spawn(|_| unreachable!("never started"));
    }
    drop(sx);
    assert_eq!(process_maps(), baseline, "dropped actors' stacks leaked");

    // Scale: 16 384 actors x 3 simcalls, and the thread count never moves.
    run(16_384, 3, || {
        assert_eq!(process_threads(), threads, "an actor spawned a thread")
    });
    assert_eq!(process_threads(), threads);
}
