//! The flow kernel is sequential (paper §5.1): a reshare, however many
//! independent components it touches, runs on the calling thread.
//!
//! This file holds exactly one test so that it owns its process: sibling
//! tests would run on harness threads of their own and move both counts.

use surf_sim::{Simulation, TransferModel};

/// Live threads of this process, from `/proc/self/status`.
fn live_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// Id of a freshly spawned probe thread. `ThreadId`s come from one
/// process-wide counter, so the gap between two probes counts every thread
/// spawned in between — including scoped workers that were joined long
/// before anyone could look at `/proc`.
fn probe_thread_id() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("probe thread");
    let digits: String = format!("{id:?}")
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric ThreadId")
}

#[test]
fn a_5000_component_reshare_spawns_no_thread() {
    let mut sim = Simulation::new();
    let model = TransferModel::ideal();
    let links: Vec<_> = (0..5000).map(|_| sim.add_link(1e6, 0.0)).collect();

    let threads_before = live_threads();
    let id_before = probe_thread_id();
    for (i, &l) in links.iter().enumerate() {
        // Two flows per link couple into one component; distinct sizes keep
        // the completions (and so the reshares) from collapsing into one.
        sim.start_transfer(&[l], 1e3 + i as f64, &model);
        sim.start_transfer(&[l], 2e3 + i as f64, &model);
    }
    while sim.advance_to_next().is_some() {}
    let id_after = probe_thread_id();
    let threads_after = live_threads();

    assert!(sim.kernel_profile().reshares > 0);
    assert_eq!(threads_before, threads_after, "live thread count moved");
    assert_eq!(
        id_after,
        id_before + 1,
        "the kernel spawned {} thread(s) between the two probes",
        id_after - id_before - 1
    );
}
