//! What an actor costs the process, measured from `/proc`: two kernel
//! mappings per stack, kept as a spare of its thread when the actor ends and
//! reused by the next actor of that thread, none once the thread has exited,
//! and never an OS thread — so 16 384 actors run on default sysctls
//! (`vm.max_map_count` = 65 530).
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

/// Runs `f` on a new thread, whose spare list starts empty, and joins it:
/// its spare stacks are unmapped by the time this returns.
fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::spawn(f)
        .join()
        .expect("the measuring thread panicked");
}

#[test]
fn actors_cost_two_mappings_and_no_thread() {
    let threads = process_threads();

    // Mappings. One warm-up thread first, so that the allocator's arena for
    // it and the C library's cached thread stack exist before the baseline
    // is taken; the measuring thread reuses both.
    on_fresh_thread(|| run(1_000, 1, || {}));
    let baseline = process_maps();
    on_fresh_thread(move || {
        let before = process_maps();
        let mut peak = 0;
        run(1_000, 1, || peak = peak.max(process_maps()));
        let per_actor = (peak - before) as f64 / 1_000.0;
        assert!(
            (1.9..=2.1).contains(&per_actor),
            "{per_actor} mappings per live actor (stack + guard page = 2)"
        );
        // Finished actors left their stacks as spares; equal and smaller
        // runs, and blocked and never-started actors, map nothing new.
        let kept = process_maps();
        let no_new_mapping = || assert!(process_maps() <= kept, "a spare was not reused");
        run(1_000, 1, no_new_mapping);
        run(300, 2, no_new_mapping);
        let mut sx = Simix::<(), ()>::new();
        for _ in 0..500 {
            sx.spawn(|h| h.simcall(()));
        }
        assert_eq!(sx.run_ready().len(), 500);
        for _ in 0..500 {
            sx.spawn(|_| unreachable!("never started"));
        }
        no_new_mapping();
        drop(sx);
        assert_eq!(process_maps(), kept, "dropped actors' stacks leaked");
    });
    assert_eq!(
        process_maps(),
        baseline,
        "spare stacks outlived their thread"
    );

    // Scale: 16 384 actors x 3 simcalls, and the thread count never moves.
    run(16_384, 3, || {
        assert_eq!(process_threads(), threads, "an actor spawned a thread")
    });
    assert_eq!(process_threads(), threads);
}
