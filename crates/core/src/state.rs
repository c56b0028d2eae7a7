//! State shared by all ranks of one simulation.
//!
//! One run lives on one thread: the ranks are fibers that the maestro
//! switches to on its own thread (see `simix`), built and dropped inside one
//! `World::try_run`, and they execute strictly one at a time. So this state
//! is plain `Cell`s and `RefCell`s behind an `Rc`, exactly as the paper's
//! hash-tables behind the `SMPI_*` macros are safe under SimGrid's
//! sequential scheduler. The types say so: none of it is `Send`, so none of
//! it can leak into another thread (the sweep runs one whole simulation per
//! worker thread).

use std::cell::Cell;
use std::rc::Rc;

use crate::comm::CommRegistry;
use crate::sampling::SampleStore;
use crate::shared_mem::{MemoryTracker, SharedHeap};

/// The simulated clock, published by the maestro for rank-side reads.
///
/// This is the anchor of the **local simcall tier**: simulated time only
/// advances inside the maestro's fabric phase, which runs strictly after
/// every runnable actor has switched back to the maestro — so a running
/// actor reads the clock from shared state with no possibility of a race,
/// and `MPI_Wtime` costs a load instead of two context switches. Ranks and
/// maestro share one thread, so program order is the only ordering there
/// is, and a `Cell` is all the clock needs.
#[derive(Debug, Default)]
pub(crate) struct SimClock(Cell<f64>);

impl SimClock {
    /// A clock at t = 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub(crate) fn now(&self) -> f64 {
        self.0.get()
    }

    /// Publishes a new simulated time (maestro only).
    pub(crate) fn publish(&self, t: f64) {
        self.0.set(t);
    }
}

/// Per-run configuration visible to ranks.
#[derive(Debug, Clone)]
pub(crate) struct RunConfig {
    /// Multiplier from host wall-clock seconds to simulated seconds for
    /// measured CPU bursts (§3.1: "a factor by which CPU burst durations can
    /// be scaled to account for a performance differential between the host
    /// node and the nodes of the target platform").
    pub cpu_factor: f64,
    /// Whether `shared_malloc` folds allocations across ranks (§3.2
    /// technique #1). When `false`, every rank gets a private buffer and the
    /// tracker shows the unfolded footprint.
    pub ram_folding: bool,
    /// Whether observability is on for this run (set by
    /// [`crate::world::World::metrics`]). Rank-side code uses this to skip
    /// annotation simcalls (e.g. collective regions) entirely when off.
    pub obs: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cpu_factor: 1.0,
            ram_folding: true,
            obs: false,
        }
    }
}

/// Everything ranks share: context-id registry, sampling tables, the folded
/// heap, the memory accountant and the published simulated clock.
#[derive(Debug)]
pub(crate) struct SharedState {
    /// Context-id agreement for communicator creation.
    pub registry: CommRegistry,
    /// CPU-burst sampling tables (`SMPI_SAMPLE_*`).
    pub sampling: SampleStore,
    /// Folded allocations (`SMPI_SHARED_MALLOC`).
    pub heap: SharedHeap,
    /// Logical/actual memory accounting for Fig. 16.
    pub memory: MemoryTracker,
    /// Simulated clock published by the maestro (local `MPI_Wtime` reads).
    pub clock: Rc<SimClock>,
    /// Simcalls answered inside the rank without switching to the maestro
    /// (wtime reads, sampling decisions, shared-malloc lookups). Feeds the
    /// run report's self-profile.
    pub local_calls: Cell<u64>,
    /// Run configuration.
    pub config: RunConfig,
}

impl SharedState {
    /// Fresh state for a run.
    pub(crate) fn new(config: RunConfig) -> Self {
        SharedState {
            registry: CommRegistry::new(),
            sampling: SampleStore::new(),
            heap: SharedHeap::new(),
            memory: MemoryTracker::new(),
            clock: Rc::new(SimClock::new()),
            local_calls: Cell::new(0),
            config,
        }
    }

    /// Counts one local-tier simcall (answered without leaving the rank).
    pub(crate) fn count_local_call(&self) {
        self.local_calls.set(self.local_calls.get() + 1);
    }

    /// Total local-tier simcalls so far.
    pub(crate) fn local_calls(&self) -> u64 {
        self.local_calls.get()
    }
}
