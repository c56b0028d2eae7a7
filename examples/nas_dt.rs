//! Run the NAS DT benchmark in simulation, like `mpirun dt.S.x BH` would on
//! a real cluster.
//!
//! ```text
//! cargo run --release --example nas_dt -- S BH
//! cargo run --release --example nas_dt -- A WH
//! ```
//!
//! Prints the makespan, the number of processes, and the memory accounting
//! with RAM folding on (the paper's §3.2 techniques). `dt_rank` moves real
//! data: each node unpacks what it receives into its `shared_malloc` buffer
//! and sends that buffer itself (`SharedSlice::share`, no copy) to every
//! successor, never holding the buffer's guard across an MPI call.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::World;
use smpi_suite::surf::TransferModel;
use smpi_suite::workloads::{build_graph, dt_rank, DtClass, DtGraph};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let class = DtClass::parse(args.get(1).map_or("S", String::as_str))
        .expect("class must be one of S W A B C");
    let shape = match args.get(2).map_or("BH", String::as_str) {
        "BH" => DtGraph::Bh,
        "WH" => DtGraph::Wh,
        "SH" => DtGraph::Sh,
        other => panic!("unknown graph {other:?} (use BH, WH or SH)"),
    };

    let graph = Arc::new(build_graph(class, shape));
    let n = graph.num_nodes();
    println!("NAS DT class {class:?}, graph {shape:?}: {n} processes");

    let platform = Arc::new(RoutedPlatform::new(flat_cluster(
        "dtcluster",
        n,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(platform, TransferModel::default_affine()).ram_folding(true);
    let g = Arc::clone(&graph);
    let report = world.run(n, move |ctx| dt_rank(ctx, &g, class));

    let checksum: f64 = report.results.iter().sum();
    println!("verification checksum : {checksum:.6e}");
    println!("simulated time        : {:.4} s", report.sim_time);
    println!("simulation wall-clock : {:.4} s", report.wall.as_secs_f64());
    println!(
        "memory: {:.1} MiB folded / {:.1} MiB unfolded ({:.1}x saved)",
        report.memory.peak_bytes as f64 / 1048576.0,
        report.memory.logical_peak_bytes as f64 / 1048576.0,
        report.memory.folding_factor()
    );
}
