//! # simix — the sequential actor layer of SMPI-rs
//!
//! In SMPI, "an SMPI simulation runs in a single process, with each MPI
//! process running in its own thread. However, these threads run
//! sequentially, under the control of the SimGrid simulation kernel" (§5.1).
//! This crate is that mechanism, minus the threads nothing in it needs:
//! an actor is a *fiber* — a stackful coroutine with its own guarded stack —
//! that the maestro switches to on its own thread and that switches back
//! when it issues a simcall. **Exactly one** of them — an actor or the
//! maestro — executes at any instant because there is only one thread to
//! execute on. This sidesteps every parallel discrete-event-simulation
//! correctness issue by construction, and makes simulations bit-for-bit
//! deterministic (runnable actors always resume in actor-id order).
//!
//! The crate is generic over the *simcall* protocol: an actor blocks by
//! calling [`ActorHandle::simcall`] with a request value; the maestro
//! receives it from [`Simix::run_ready`], decides when it is satisfied, and
//! answers with [`Simix::resolve`], which makes the actor runnable again.
//! The MPI semantics (what requests mean, when they complete) live entirely
//! in the `smpi` crate.
//!
//! A simcall round-trip is two user-level context switches (six registers
//! and a stack pointer each) and no system call; the runnable set is a dense
//! id-ordered worklist sorted in place (no per-event allocation); an actor
//! runs on one lazily-touched 256 KiB mapping plus a guard page, so tens of
//! thousands fit in one process; and drive loops can recycle their event
//! buffer through [`Simix::run_ready_into`].
//!
//! Every actor gets a stack of that one size. A finished or dropped actor's
//! stack stays mapped as a spare of its thread, and the next actor spawned
//! there takes it: a simulation re-run on one thread maps nothing new and
//! faults in no stack page it already touched. A thread holds at most as many stacks,
//! live and spare together, as it ever had actors live at once, and the
//! pages those actors touched stay resident until the thread exits, when
//! the spares are unmapped.
//!
//! A drive loop sees this crate through the four-method [`Scheduler`] seam.
//! [`Simix`] implements it with one fiber per actor, for bodies that are
//! blocking code; [`Scripts`] steps actors that are resumable state machines
//! (trace cursors) as plain calls, in the same id order. Neither creates an
//! OS thread. All `unsafe` of the workspace — the context switch and the
//! stack mappings, x86-64 unix only — is in the private `fiber` module.
//!
//! That module also declares `madvise` for the workspace's one other
//! system call, behind the safe [`advise_huge_pages`]: the `smpi` runtime
//! calls it on the large blocks it allocates for application data (shared
//! buffers, message bodies, received vectors) before their first write, so
//! they fault in 2 MiB at a time.
//!
//! ```
//! // A tiny ping protocol: every simcall is answered with its value + 1.
//! let mut sx = simix::Simix::<u32, u32>::new();
//! sx.spawn(|h| {
//!     let a = h.simcall(41);
//!     assert_eq!(a, 42);
//! });
//! loop {
//!     let events = sx.run_ready();
//!     if events.is_empty() { break; }
//!     for ev in events {
//!         if let simix::ActorEvent::Request(actor, n) = ev {
//!             sx.resolve(actor, n + 1);
//!         }
//!     }
//! }
//! ```

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::panic::resume_unwind;
use std::rc::Rc;

#[allow(unsafe_code)]
mod fiber;

pub use fiber::advise_huge_pages;
use fiber::Fiber;

/// Default actor stack size in bytes. MPI rank bodies keep their working
/// sets on the (heap-allocated) simulated buffers, so a small fixed stack
/// is enough — and it is what lets 16k+ actors coexist in one process
/// (16k × 256 KiB = 4 GiB of address space, touched lazily).
pub(crate) const DEFAULT_STACK_SIZE: usize = 256 * 1024;

/// Identifier of an actor (dense, in spawn order). For SMPI this is the MPI
/// rank within `MPI_COMM_WORLD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

/// What an actor did when it last ran.
#[derive(Debug, PartialEq, Eq)]
pub enum ActorEvent<Req> {
    /// The actor issued a simcall and is now blocked on it.
    Request(ActorId, Req),
    /// The actor's body returned; its stack is free for the next actor
    /// spawned on this thread.
    Finished(ActorId),
}

/// The seam between a drive loop and whatever executes the actors. Both
/// implementors keep one contract: actors are runnable from birth; a batch
/// runs the runnable ones in actor-id order, each until it blocks on a
/// request or finishes; only `resolve` makes a blocked actor runnable again,
/// once per request; an actor's panic surfaces in the caller of the batch.
pub trait Scheduler<Req, Resp> {
    /// Number of actors ever created.
    fn num_actors(&self) -> usize;
    /// Clears `events`, runs every runnable actor in id order and records
    /// what each did. Reusing the buffer keeps the loop allocation-free.
    fn run_ready_into(&mut self, events: &mut Vec<ActorEvent<Req>>);
    /// Answers an actor's pending request; it resumes in the next batch.
    fn resolve(&mut self, id: ActorId, resp: Resp);
    /// `true` when the next batch would run at least one actor.
    fn has_runnable(&self) -> bool;
}

/// The runnable set of both schedulers: a dense worklist (ids plus a
/// per-actor membership flag) whose buffers are swapped rather than
/// collected, so steady-state batches never allocate.
#[derive(Default)]
struct Worklist {
    /// Ids resolved since the last batch, unordered (sorted at batch time).
    runnable: Vec<ActorId>,
    /// Dense membership flags mirroring `runnable` (guards double-resolve).
    flag: Vec<bool>,
    /// The previous batch's (empty) buffer, recycled into the next one.
    spare: Vec<ActorId>,
}

impl Worklist {
    /// Registers the next actor, runnable from birth, and returns its id.
    fn add(&mut self) -> ActorId {
        let id = ActorId(self.flag.len() as u32);
        self.flag.push(false);
        self.mark(id);
        id
    }

    fn mark(&mut self, id: ActorId) {
        let flag = &mut self.flag[id.0 as usize];
        assert!(!*flag, "actor {id:?} resolved twice");
        *flag = true;
        self.runnable.push(id);
    }

    /// Runs the runnable set as one batch, filling `events` with what `step`
    /// reports for each actor. Resolution order is arbitrary; actor-id order
    /// is the scheduling contract (bit-for-bit determinism), restored by an
    /// in-place sort.
    fn run_batch<Req>(
        &mut self,
        events: &mut Vec<ActorEvent<Req>>,
        mut step: impl FnMut(ActorId) -> ActorEvent<Req>,
    ) {
        events.clear();
        let mut batch = std::mem::replace(&mut self.runnable, std::mem::take(&mut self.spare));
        batch.sort_unstable();
        events.reserve(batch.len());
        for &id in &batch {
            self.flag[id.0 as usize] = false;
            events.push(step(id));
        }
        batch.clear();
        self.spare = batch;
    }
}

/// Where a simcall's request and its answer change hands. Plain cells: the
/// maestro and the actor share one thread and never run at the same time.
struct Mailbox<Req, Resp> {
    request: Cell<Option<Req>>,
    response: Cell<Option<Resp>>,
}

/// The actor-side handle: the only way user code interacts with the
/// simulation while running inside an actor.
pub struct ActorHandle<Req, Resp> {
    id: ActorId,
    mail: Rc<Mailbox<Req, Resp>>,
}

impl<Req, Resp> ActorHandle<Req, Resp> {
    /// This actor's id (MPI rank).
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Issues a simcall: publishes `req` to the maestro, switches back to
    /// it, and returns once the maestro has resolved the request and
    /// resumed this actor. If the scheduler is dropped first, the call
    /// unwinds the actor instead (destructors run, no panic message); a
    /// destructor must therefore not issue simcalls while
    /// `std::thread::panicking()`.
    pub fn simcall(&self, req: Req) -> Resp {
        self.mail.request.set(Some(req));
        fiber::suspend();
        let resp = self.mail.response.take();
        resp.expect("maestro resolved with a response")
    }
}

/// A live actor: its fiber and the maestro's end of its mailbox.
struct Actor<Req, Resp> {
    fiber: Fiber,
    mail: Rc<Mailbox<Req, Resp>>,
}

/// The maestro: spawns actors, runs runnable ones (strictly one at a time,
/// on the calling thread), and collects their simcall requests.
///
/// The scheduling hot loop is allocation-free: the runnable set is a
/// recycled worklist and [`run_ready_into`](Self::run_ready_into) reuses a
/// caller-owned event buffer across iterations.
///
/// A `Simix` is `!Send`: its actors' stacks belong to the thread that
/// spawned them. Dropping it unwinds every actor still blocked on a simcall
/// (in id order, running their destructors) and frees never-started ones
/// without running them.
pub struct Simix<Req, Resp> {
    /// `None` once the actor has finished.
    actors: Vec<Option<Actor<Req, Resp>>>,
    work: Worklist,
}

impl<Req: 'static, Resp: 'static> Simix<Req, Resp> {
    /// Creates an empty runtime. Each actor it spawns runs on a 256 KiB
    /// stack with one guard page mapped below it.
    pub fn new() -> Self {
        Simix {
            actors: Vec::new(),
            work: Worklist::default(),
        }
    }

    /// Spawns an actor. It becomes runnable and will execute during the next
    /// [`run_ready`](Self::run_ready) call. Spawn order defines actor ids.
    /// Panics if the kernel refuses to map the actor's stack.
    ///
    /// `body` need not be `Send`: it runs on this thread, and since a
    /// `Simix` is `!Send` it can never run anywhere else, so actors may share
    /// `Rc`/`RefCell` state with each other and with the maestro.
    pub fn spawn<F>(&mut self, body: F) -> ActorId
    where
        F: FnOnce(&ActorHandle<Req, Resp>) + 'static,
    {
        let id = self.work.add();
        let mail = Rc::new(Mailbox {
            request: Cell::new(None),
            response: Cell::new(None),
        });
        let handle = ActorHandle {
            id,
            mail: Rc::clone(&mail),
        };
        let fiber = Fiber::new(Box::new(move || body(&handle)));
        self.actors.push(Some(Actor { fiber, mail }));
        id
    }

    /// Runs every runnable actor (in actor-id order) until each one blocks
    /// on a simcall or finishes, and returns what happened. An empty result
    /// with no outstanding requests means the simulation is over (or
    /// deadlocked, which the caller can distinguish by its own bookkeeping).
    ///
    /// Allocates a fresh event vector per call; drive loops should prefer
    /// [`run_ready_into`](Self::run_ready_into), which reuses one.
    pub fn run_ready(&mut self) -> Vec<ActorEvent<Req>> {
        let mut events = Vec::new();
        self.run_ready_into(&mut events);
        events
    }

    /// Like [`run_ready`](Self::run_ready), but clears and fills a
    /// caller-owned buffer, so a steady-state drive loop performs no
    /// allocation for scheduling.
    pub fn run_ready_into(&mut self, events: &mut Vec<ActorEvent<Req>>) {
        let Simix { actors, work } = self;
        work.run_batch(events, |id| Self::step(&mut actors[id.0 as usize], id));
    }

    /// Switches to one actor and back when it blocks, finishes or panics.
    fn step(slot: &mut Option<Actor<Req, Resp>>, id: ActorId) -> ActorEvent<Req> {
        let actor = slot.as_mut().expect("only live actors are runnable");
        let outcome = actor.fiber.resume();
        if let Ok(false) = outcome {
            let req = actor.mail.request.take();
            return ActorEvent::Request(id, req.expect("actor yielded without request"));
        }
        *slot = None;
        match outcome {
            Ok(_) => ActorEvent::Finished(id),
            // The actor's panic continues in the maestro (test failures and
            // bugs must not be swallowed).
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Answers an actor's pending simcall, making it runnable again. The
    /// actor resumes during the next [`run_ready`](Self::run_ready).
    pub fn resolve(&mut self, id: ActorId, resp: Resp) {
        let actor = self.actors[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("resolving a finished actor {id:?}"));
        actor.mail.response.set(Some(resp));
        self.work.mark(id);
    }
}

impl<Req: 'static, Resp: 'static> Scheduler<Req, Resp> for Simix<Req, Resp> {
    fn num_actors(&self) -> usize {
        self.actors.len()
    }
    fn run_ready_into(&mut self, events: &mut Vec<ActorEvent<Req>>) {
        Simix::run_ready_into(self, events)
    }
    fn resolve(&mut self, id: ActorId, resp: Resp) {
        Simix::resolve(self, id, resp)
    }
    fn has_runnable(&self) -> bool {
        !self.work.runnable.is_empty()
    }
}

impl<Req: 'static, Resp: 'static> Default for Simix<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

/// The stackless scheduler: each actor is a resumable *script*, a closure
/// called with `None` to start and with the answer to its last request to
/// resume, returning its next request or `None` when done. Scripts run
/// inline on the caller's thread, so an actor costs its closure and nothing
/// else — no stack, no mapping — and memory alone bounds their count.
pub struct Scripts<F, Resp> {
    /// Per actor: the script (`None` once finished) and the answer it
    /// resumes with.
    actors: Vec<(Option<F>, Option<Resp>)>,
    work: Worklist,
}

impl<F, Resp> Scripts<F, Resp> {
    /// One actor per script, ids in iteration order, all runnable.
    pub fn new(scripts: impl IntoIterator<Item = F>) -> Self {
        let mut work = Worklist::default();
        let actors = scripts.into_iter().map(|script| {
            work.add();
            (Some(script), None)
        });
        Scripts {
            actors: actors.collect(),
            work,
        }
    }
}

impl<Req, Resp, F: FnMut(Option<Resp>) -> Option<Req>> Scheduler<Req, Resp> for Scripts<F, Resp> {
    fn num_actors(&self) -> usize {
        self.actors.len()
    }

    fn run_ready_into(&mut self, events: &mut Vec<ActorEvent<Req>>) {
        let Scripts { actors, work } = self;
        work.run_batch(events, |id| {
            let (script, resp) = &mut actors[id.0 as usize];
            let step = script.as_mut().expect("only live scripts are runnable");
            match step(resp.take()) {
                Some(req) => ActorEvent::Request(id, req),
                None => {
                    *script = None;
                    ActorEvent::Finished(id)
                }
            }
        });
    }

    fn resolve(&mut self, id: ActorId, resp: Resp) {
        let (script, slot) = &mut self.actors[id.0 as usize];
        assert!(script.is_some(), "resolving a finished actor {id:?}");
        *slot = Some(resp);
        self.work.mark(id);
    }

    fn has_runnable(&self) -> bool {
        !self.work.runnable.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn actor_runs_to_completion_without_simcalls() {
        let mut sx = Simix::<(), ()>::new();
        let id = sx.spawn(|_| {});
        let events = sx.run_ready();
        assert_eq!(events, vec![ActorEvent::Finished(id)]);
        assert!(sx.actors[id.0 as usize].is_none());
        assert!(sx.run_ready().is_empty());
    }

    #[test]
    fn simcall_roundtrip() {
        let mut sx = Simix::<u32, u32>::new();
        let id = sx.spawn(|h| {
            assert_eq!(h.simcall(1), 2);
            assert_eq!(h.simcall(10), 20);
        });
        let ev = sx.run_ready();
        assert_eq!(ev, vec![ActorEvent::Request(id, 1)]);
        sx.resolve(id, 2);
        let ev = sx.run_ready();
        assert_eq!(ev, vec![ActorEvent::Request(id, 10)]);
        sx.resolve(id, 20);
        assert_eq!(sx.run_ready(), vec![ActorEvent::Finished(id)]);
    }

    /// The [`Scheduler`] contract, written once and run against both
    /// implementors. Actor `i` of a built scheduler issues `programs[i]` in
    /// order, then finishes; the request [`BOOM`] panics instead.
    mod contract {
        use super::*;

        pub const BOOM: u32 = u32::MAX;

        pub fn fibers(programs: Vec<Vec<u32>>) -> Simix<u32, u32> {
            let mut sx = Simix::new();
            for program in programs {
                sx.spawn(move |h| {
                    for req in program {
                        assert_ne!(req, BOOM, "boom");
                        h.simcall(req);
                    }
                });
            }
            sx
        }

        pub fn scripts(
            programs: Vec<Vec<u32>>,
        ) -> Scripts<impl FnMut(Option<u32>) -> Option<u32>, u32> {
            Scripts::new(programs.into_iter().map(|program| {
                let mut program = program.into_iter();
                move |_resp| {
                    let req = program.next()?;
                    assert_ne!(req, BOOM, "boom");
                    Some(req)
                }
            }))
        }

        fn batch<S: Scheduler<u32, u32>>(sx: &mut S) -> Vec<ActorEvent<u32>> {
            let mut events = Vec::new();
            sx.run_ready_into(&mut events);
            events
        }

        fn panic_message(f: impl FnOnce()) -> String {
            let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
            match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("").to_string(),
            }
        }

        pub fn actors_resume_in_id_order<S: Scheduler<u32, u32>>(
            build: impl Fn(Vec<Vec<u32>>) -> S,
        ) {
            let mut sx = build((0..8).map(|i| vec![i]).collect());
            assert_eq!(sx.num_actors(), 8);
            assert!(sx.has_runnable(), "actors are runnable from birth");
            let requests = (0..8).map(|i| ActorEvent::Request(ActorId(i), i));
            assert_eq!(batch(&mut sx), requests.collect::<Vec<_>>());
            assert!(!sx.has_runnable());
            // Resolve out of order; they still run back in id order.
            for i in (0..8).rev() {
                sx.resolve(ActorId(i), 0);
            }
            let finishes = (0..8).map(|i| ActorEvent::Finished(ActorId(i)));
            assert_eq!(batch(&mut sx), finishes.collect::<Vec<_>>());
            assert!(batch(&mut sx).is_empty());
        }

        pub fn only_resolved_actors_become_runnable<S: Scheduler<u32, u32>>(
            build: impl Fn(Vec<Vec<u32>>) -> S,
        ) {
            let (a, b) = (ActorId(0), ActorId(1));
            let mut sx = build(vec![vec![1], vec![2]]);
            let _ = batch(&mut sx);
            sx.resolve(b, 0);
            assert_eq!(batch(&mut sx), vec![ActorEvent::Finished(b)]);
            assert!(!sx.has_runnable(), "a is still blocked");
            sx.resolve(a, 0);
            assert_eq!(batch(&mut sx), vec![ActorEvent::Finished(a)]);
        }

        pub fn double_resolve_is_rejected<S: Scheduler<u32, u32>>(
            build: impl Fn(Vec<Vec<u32>>) -> S,
        ) {
            let mut sx = build(vec![vec![1]]);
            let _ = batch(&mut sx);
            sx.resolve(ActorId(0), 0);
            let msg = panic_message(|| sx.resolve(ActorId(0), 0));
            assert!(msg.contains("resolved twice"), "got {msg:?}");
        }

        pub fn actor_panic_propagates_to_caller<S: Scheduler<u32, u32>>(
            build: impl Fn(Vec<Vec<u32>>) -> S,
        ) {
            let mut sx = build(vec![vec![1], vec![BOOM]]);
            let msg = panic_message(|| drop(batch(&mut sx)));
            assert!(msg.contains("boom"), "got {msg:?}");
        }

        pub fn drop_with_blocked_actors_returns_promptly<S: Scheduler<u32, u32>>(
            build: impl Fn(Vec<Vec<u32>>) -> S,
        ) {
            let mut sx = build(vec![vec![1, 2]; 4]);
            assert_eq!(batch(&mut sx).len(), 4);
            drop(sx); // never resolved: must not hang (fibers are unwound)
        }
    }

    /// Instantiates each contract test for [`Simix`] and for [`Scripts`].
    macro_rules! both_schedulers {
        ($($name:ident),* $(,)?) => {$(
            mod $name {
                use super::contract;
                #[test]
                fn simix() {
                    contract::$name(contract::fibers)
                }
                #[test]
                fn scripts() {
                    contract::$name(contract::scripts)
                }
            }
        )*};
    }
    both_schedulers!(
        actors_resume_in_id_order,
        only_resolved_actors_become_runnable,
        double_resolve_is_rejected,
        actor_panic_propagates_to_caller,
        drop_with_blocked_actors_returns_promptly,
    );

    #[test]
    fn scripts_resume_with_the_resolved_answer() {
        let mut seen = Vec::new();
        let mut sx = Scripts::new([|resp: Option<u32>| {
            seen.push(resp);
            (seen.len() < 3).then_some(seen.len() as u32)
        }]);
        let mut events = Vec::new();
        for answer in [10, 20] {
            sx.run_ready_into(&mut events);
            sx.resolve(ActorId(0), answer);
        }
        sx.run_ready_into(&mut events);
        assert_eq!(events, vec![ActorEvent::Finished(ActorId(0))]);
        drop(sx);
        assert_eq!(seen, vec![None, Some(10), Some(20)]);
    }

    /// Counts its drops, so a test can see whose destructors ran.
    struct Counted(Rc<Cell<usize>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn never_started_actors_are_freed_without_running() {
        let (ran, dropped) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let mut sx = Simix::<(), ()>::new();
        for _ in 0..3 {
            let (ran, captured) = (Rc::clone(&ran), Counted(Rc::clone(&dropped)));
            sx.spawn(move |_| {
                let _captured = captured;
                ran.set(ran.get() + 1);
            });
        }
        drop(sx);
        assert_eq!(ran.get(), 0, "a body ran");
        assert_eq!(dropped.get(), 3, "a body's captures leaked");
    }

    #[test]
    fn rank_panic_unwinds_the_blocked_ranks_too() {
        // Actor 1 panics while actor 0 is blocked on a simcall nobody will
        // resolve. The scheduler is dropped *while the maestro unwinds*
        // with actor 1's payload, and still has to unwind actor 0 — on the
        // same thread, without that becoming a panic inside a panic.
        let dropped = Rc::new(Cell::new(0));
        let local = Counted(Rc::clone(&dropped));
        let payload = catch_unwind(AssertUnwindSafe(move || {
            let mut sx = Simix::<u32, u32>::new();
            sx.spawn(move |h| {
                let _local = local;
                h.simcall(0);
                unreachable!("never resolved");
            });
            sx.spawn(|_| std::panic::panic_any(1234_i64));
            sx.run_ready();
        }))
        .expect_err("actor 1's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<i64>(),
            Some(&1234),
            "original payload"
        );
        assert_eq!(dropped.get(), 1, "actor 0 was not unwound");
    }

    #[test]
    fn killing_blocked_actors_is_silent() {
        // Unwinding a blocked actor is not a failure and must not reach the
        // panic hook (one "panicked at … Box<dyn Any>" line per blocked rank
        // on top of every deadlock postmortem). The hook is process-wide and
        // sibling tests panic on purpose, with string messages: count only
        // payloads that are not strings, as the kill marker is.
        let hits = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&hits);
        let previous = Arc::new(std::panic::take_hook());
        let chained = Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<&str>() || p.is::<String>() {
                chained(info);
            } else {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        }));
        let dropped = Rc::new(Cell::new(0));
        let mut sx = Simix::<(), ()>::new();
        for _ in 0..4 {
            let local = Counted(Rc::clone(&dropped));
            sx.spawn(move |h| {
                let _local = local;
                h.simcall(());
            });
        }
        assert_eq!(sx.run_ready().len(), 4);
        drop(sx);
        drop(std::panic::take_hook()); // the counting hook and its `chained`
        std::panic::set_hook(Arc::into_inner(previous).expect("sole owner again"));
        assert_eq!(dropped.get(), 4, "blocked actors unwound");
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "the kill ran the panic hook"
        );
    }

    /// Recurses `depth` frames deep, each pinning a 4 KiB buffer of
    /// non-zero bytes: about `4 * depth` KiB of stack, left dirty.
    fn burn(depth: usize) -> u64 {
        let buf = std::hint::black_box([depth as u8 | 1; 4096]);
        if depth == 0 {
            buf[0] as u64
        } else {
            burn(depth - 1) + buf[4095] as u64
        }
    }

    /// Set in the child process the guard-page tests re-execute themselves
    /// in.
    const OVERFLOW_CHILD: &str = "SIMIX_OVERFLOW_CHILD";

    /// Re-executes test `name` in a child process with [`OVERFLOW_CHILD`]
    /// set, and asserts that the child died by SIGSEGV.
    fn assert_child_dies_on_the_guard_page(name: &str) {
        use std::os::unix::process::ExitStatusExt;
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", name])
            .env(OVERFLOW_CHILD, "1")
            .output()
            .unwrap();
        assert_eq!(
            child.status.signal(),
            Some(11),
            "child: {:?}\n{}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        );
    }

    #[test]
    fn stack_overflow_dies_on_the_guard_page() {
        // In a child process, an actor recurses past its 256 KiB stack. The
        // guard page makes that a SIGSEGV, not a scribble over the
        // neighbouring actor's stack.
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            let mut sx = Simix::<u64, ()>::new();
            sx.spawn(|_| {}); // a neighbour below the overflowing stack
            sx.spawn(|h| {
                h.simcall(burn(500));
            });
            sx.run_ready();
            unreachable!("2 MiB of frames fit a 256 KiB stack");
        }
        assert_child_dies_on_the_guard_page("tests::stack_overflow_dies_on_the_guard_page");
    }

    #[test]
    fn a_recycled_stack_keeps_its_guard_page() {
        // As above, but the overflowing actor runs on the stack an earlier
        // actor finished on: a spare keeps its guard page.
        fn maps() -> usize {
            let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
            maps.lines().count()
        }
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            let mut sx = Simix::<u64, ()>::new();
            sx.spawn(|_| {});
            assert_eq!(sx.run_ready(), vec![ActorEvent::Finished(ActorId(0))]);
            let before = maps();
            sx.spawn(|h| {
                h.simcall(burn(500));
            });
            assert_eq!(maps(), before, "the overflowing actor got a fresh stack");
            sx.run_ready();
            unreachable!("2 MiB of frames fit a 256 KiB stack");
        }
        assert_child_dies_on_the_guard_page("tests::a_recycled_stack_keeps_its_guard_page");
    }

    #[test]
    fn recycled_stacks_run_a_new_simulation() {
        // A run in which one rank panics mid-run, then a runtime dropped with
        // blocked and never-started actors: every stack they leave is dirty
        // (scribbled, unwound) and a spare of this thread. A new runtime on
        // those stacks must still run 1 000 actors through 3 simcalls each.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let mut sx = Simix::<u32, u32>::new();
            for i in 0..64 {
                sx.spawn(move |h| {
                    h.simcall(burn(16) as u32);
                    unreachable!("rank {i} is never resolved");
                });
            }
            sx.spawn(|_| {
                burn(16);
                std::panic::panic_any(77_i64)
            });
            sx.run_ready();
        }))
        .expect_err("the rank's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<i64>(), Some(&77));
        let mut sx = Simix::<(), ()>::new();
        for _ in 0..500 {
            sx.spawn(|h| {
                burn(8);
                h.simcall(());
            });
        }
        assert_eq!(sx.run_ready().len(), 500);
        for _ in 0..100 {
            sx.spawn(|_| unreachable!("never started"));
        }
        drop(sx);

        const N: u32 = 1_000;
        let mut sx = Simix::<u32, u32>::new();
        for i in 0..N {
            sx.spawn(move |h| {
                for k in 0..3u32 {
                    assert_eq!(h.simcall(i * 3 + k), i * 3 + k + 1);
                }
            });
        }
        let mut events = Vec::new();
        let (mut answered, mut finished) = (0u32, 0u32);
        loop {
            sx.run_ready_into(&mut events);
            if events.is_empty() {
                break;
            }
            for ev in events.drain(..) {
                match ev {
                    ActorEvent::Request(id, v) => {
                        assert_eq!(v / 3, id.0, "a request from the wrong actor");
                        answered += 1;
                        sx.resolve(id, v + 1);
                    }
                    ActorEvent::Finished(_) => finished += 1,
                }
            }
        }
        assert_eq!((answered, finished), (3 * N, N));
    }

    #[test]
    fn ten_thousand_actors_stress() {
        // The scaling contract: 10k actors each doing a few simcalls all
        // complete, every batch resumes in strictly increasing id order,
        // and a second 10k-actor runtime dropped while its actors are
        // blocked unwinds every fiber promptly.
        const N: u32 = 10_000;
        let mut sx = Simix::<u32, u32>::new();
        for i in 0..N {
            sx.spawn(move |h| {
                for k in 0..3u32 {
                    assert_eq!(h.simcall(i.wrapping_add(k)), i.wrapping_add(k) + 1);
                }
            });
        }
        let mut events = Vec::new();
        let mut rounds = 0u32;
        let mut finished = 0u32;
        loop {
            sx.run_ready_into(&mut events);
            if events.is_empty() {
                break;
            }
            let ids: Vec<u32> = events
                .iter()
                .map(|e| match e {
                    ActorEvent::Request(ActorId(i), _) => *i,
                    ActorEvent::Finished(ActorId(i)) => *i,
                })
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "batch not in id order");
            for ev in events.drain(..) {
                match ev {
                    ActorEvent::Request(id, v) => sx.resolve(id, v + 1),
                    ActorEvent::Finished(_) => finished += 1,
                }
            }
            rounds += 1;
        }
        assert_eq!(rounds, 4, "3 simcall rounds + 1 finish round");
        assert_eq!(finished, N);
        assert!(sx.actors.iter().all(Option::is_none));

        let mut blocked = Simix::<(), ()>::new();
        for _ in 0..N {
            blocked.spawn(|h| {
                h.simcall(());
                unreachable!("never resolved");
            });
        }
        let _ = blocked.run_ready();
        drop(blocked); // must unwind all 10k fibers without hanging
    }

    #[test]
    fn sequential_execution_means_no_data_races() {
        // 64 actors read-modify-write a shared `Rc<Cell>` across simcalls:
        // the bodies need not be `Send`, and the strict one-at-a-time
        // alternation makes each increment atomic.
        let counter = Rc::new(Cell::new(0));
        let mut sx = Simix::<(), ()>::new();
        for _ in 0..64 {
            let c = Rc::clone(&counter);
            sx.spawn(move |h| {
                for _ in 0..10 {
                    c.set(c.get() + 1);
                    h.simcall(());
                }
            });
        }
        loop {
            let evs = sx.run_ready();
            if evs.is_empty() {
                break;
            }
            for ev in evs {
                if let ActorEvent::Request(id, ()) = ev {
                    sx.resolve(id, ());
                }
            }
        }
        assert_eq!(counter.get(), 640);
    }
}
