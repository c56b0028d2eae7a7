//! Simulator self-profiling: where the simulator itself spends wall-clock
//! time, and how fast it processes simulation events.

use crate::json_mod::JsonBuf;
use crate::report::Histogram;
use crate::Deterministic;

/// Introspection snapshot of the flow kernel's solver machinery.
///
/// Collected unconditionally (plain counters and inline histograms): the
/// scale tiers run without metrics, yet this is exactly where solver
/// pathologies (one giant coupled component) must show up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelProfile {
    /// Max-min reshares performed.
    pub reshares: u64,
    /// Always 0: the completion heap is addressable, so it is never
    /// rebuilt. Kept, like `parallel_components`, only because the frozen
    /// `benchmark/` reads it; nothing renders, serializes or diffs it.
    pub heap_rebuilds: u64,
    /// Always 0: a rate change re-keys its heap entry in place, so no stale
    /// entry exists to be dropped. Kept for the frozen `benchmark/` alone.
    pub heap_orphans: u64,
    /// Flows folded away into uniform-round route-class representatives
    /// (each saved a solver variable).
    pub classes_folded: u64,
    /// Same-instant completions observed past the first of their batch
    /// (each saved a reshare/solve a one-event-per-step kernel would pay).
    pub batched_completions: u64,
    /// Always 0: the kernel solves components inline. Kept only because the
    /// frozen `benchmark/` reads it; the next benchmark PR drops the column.
    pub parallel_components: u64,
    /// Components that ran progressive filling. A one-class component is
    /// rated in closed form and a component no constraint can saturate
    /// gets its bounds (`surf_sim::lmm` module docs), so neither counts:
    /// this is the components where contention decided the rates.
    pub fillings: u64,
    /// Filling rounds over those components: each round freezes the
    /// variables of one saturated constraint, or one variable at its
    /// bound.
    pub filling_rounds: u64,
    /// Variables per dirty component, one observation per component —
    /// including the one-class components rated without a solve.
    pub component_vars: Histogram,
    /// Actions re-rated per incremental reshare (the dirty cascade).
    pub cascade: Histogram,
    /// Wall-clock nanoseconds per max-min solve: one observation per
    /// solver call, whether it filled or returned the bounds. One-class
    /// components call no solver and are not timed.
    pub solve_ns: Histogram,
}

impl KernelProfile {
    /// Human-readable summary lines (indented for the self-profile).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  kernel: {} reshares\n", self.reshares));
        out.push_str(&format!(
            "  kernel fast path: {} classes folded, {} batched completions\n",
            self.classes_folded, self.batched_completions
        ));
        out.push_str(&format!(
            "  kernel solver: {} fillings, {} filling rounds\n",
            self.fillings, self.filling_rounds
        ));
        for (name, h) in [
            ("component size (vars/solve)", &self.component_vars),
            ("dirty cascade (actions)", &self.cascade),
            ("solve wall-clock (ns)", &self.solve_ns),
        ] {
            if h.count > 0 {
                out.push_str(&format!(
                    "  kernel {name:<28} mean {:>10.1}  max {:>10.0}  ({} solves)\n",
                    h.mean(),
                    h.max,
                    h.count
                ));
            }
        }
        out
    }

    /// JSON object for machine consumption.
    pub(crate) fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("reshares").uint_val(self.reshares);
        j.key("classes_folded").uint_val(self.classes_folded);
        j.key("batched_completions")
            .uint_val(self.batched_completions);
        j.key("fillings").uint_val(self.fillings);
        j.key("filling_rounds").uint_val(self.filling_rounds);
        self.component_vars.write_json(j.key("component_vars"));
        self.cascade.write_json(j.key("cascade"));
        self.solve_ns.write_json(j.key("solve_ns"));
        j.end_obj();
        j.finish()
    }
}

/// Counters of the TITRACE v2 streaming trace codec, filled by the
/// capture writer when a run streams its time-independent trace to disk
/// (`World::capture_to`). Every field is a pure function of the simcall
/// stream and the writer configuration — nothing here measures the host —
/// so identical runs report identical codec stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodecStats {
    /// Ops encoded across all ranks.
    pub ops: u64,
    /// Sealed blocks written.
    pub blocks: u64,
    /// Blocks that took the LZ path (compressed smaller than raw).
    pub blocks_compressed: u64,
    /// Shared-dictionary entries (region/collective names).
    pub dict_entries: u64,
    /// Uncompressed block-payload bytes (post delta/varint, pre LZ).
    pub bytes_raw: u64,
    /// Total bytes written to the sink (header + blocks + footer).
    pub bytes_written: u64,
    /// High-water mark of the writer's staging buffers, bytes (the bounded
    /// capture memory; stays near `writer_budget_bytes` regardless of how
    /// many ops the run emits).
    pub writer_peak_staged_bytes: u64,
    /// Configured staging budget, bytes.
    pub writer_budget_bytes: u64,
}

impl CodecStats {
    /// Human-readable summary lines (indented for the self-profile).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  trace codec: {} ops -> {} blocks ({} compressed), {} dict entries\n",
            self.ops, self.blocks, self.blocks_compressed, self.dict_entries
        ));
        let ratio = if self.bytes_written > 0 {
            self.bytes_raw as f64 / self.bytes_written as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  trace codec: {} raw payload B -> {} file B ({ratio:.2}x block stage), staged peak {} B (budget {} B)\n",
            self.bytes_raw, self.bytes_written, self.writer_peak_staged_bytes, self.writer_budget_bytes
        ));
        out
    }

    /// JSON object for machine consumption.
    pub(crate) fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("ops").uint_val(self.ops);
        j.key("blocks").uint_val(self.blocks);
        j.key("blocks_compressed").uint_val(self.blocks_compressed);
        j.key("dict_entries").uint_val(self.dict_entries);
        j.key("bytes_raw").uint_val(self.bytes_raw);
        j.key("bytes_written").uint_val(self.bytes_written);
        j.key("writer_peak_staged_bytes")
            .uint_val(self.writer_peak_staged_bytes);
        j.key("writer_budget_bytes")
            .uint_val(self.writer_budget_bytes);
        j.end_obj();
        j.finish()
    }
}

/// Wall-clock and throughput profile of one simulation run.
///
/// Counters are always collected (they are plain integer increments);
/// phase timings are taken by the maestro drive loop.
#[derive(Debug, Clone, Default)]
pub struct SelfProfile {
    /// Wall-clock seconds per drive-loop phase, in display order
    /// (e.g. `actor_handoff`, `fabric_advance`, `completion_dispatch`).
    pub phases: Vec<(&'static str, f64)>,
    /// Simcalls the maestro handled (each is one switch from the rank to the
    /// maestro and back).
    pub simcalls: u64,
    /// Simcalls answered inside the rank from shared state (the local
    /// tier: wtime reads, sampling decisions, shared-malloc lookups) — no
    /// switch to the maestro.
    pub local_simcalls: u64,
    /// Fabric completion tokens dispatched back to blocked requests.
    pub tokens: u64,
    /// Trace events appended (0 when tracing is off).
    pub trace_events: u64,
    /// Final simulated time, seconds.
    pub sim_time: f64,
    /// Total wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Flow-kernel introspection, when the fabric exposes one (always
    /// collected by the surf backend; `None` for the packet backend).
    pub kernel: Option<KernelProfile>,
    /// TITRACE v2 streaming-capture codec counters, when the run streamed
    /// its trace to disk (`None` for in-memory capture or no capture).
    pub codec: Option<CodecStats>,
}

impl SelfProfile {
    /// Total events processed: simcalls plus completion tokens.
    pub fn events(&self) -> u64 {
        self.simcalls + self.tokens
    }

    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Simulated seconds per wall-clock second (the paper's slowdown
    /// metric, inverted: > 1 means faster than real time).
    pub(crate) fn acceleration(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sim_time / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("self-profile:\n");
        out.push_str(&format!(
            "  simulated {:.6} s in {:.3} ms wall ({:.1}x real time)\n",
            self.sim_time,
            self.wall_seconds * 1e3,
            self.acceleration()
        ));
        out.push_str(&format!(
            "  events: {} simcalls + {} completions = {} ({:.0} events/s)\n",
            self.simcalls,
            self.tokens,
            self.events(),
            self.events_per_sec()
        ));
        if self.local_simcalls > 0 {
            out.push_str(&format!(
                "  local simcalls (no maestro switch): {}\n",
                self.local_simcalls
            ));
        }
        if self.trace_events > 0 {
            out.push_str(&format!("  trace events: {}\n", self.trace_events));
        }
        let accounted: f64 = self.phases.iter().map(|(_, s)| s).sum();
        for (name, secs) in &self.phases {
            let pct = if self.wall_seconds > 0.0 {
                100.0 * secs / self.wall_seconds
            } else {
                0.0
            };
            out.push_str(&format!(
                "  phase {name:<20} {:>9.3} ms ({pct:>4.1}%)\n",
                secs * 1e3
            ));
        }
        if self.wall_seconds > accounted && !self.phases.is_empty() {
            let other = self.wall_seconds - accounted;
            out.push_str(&format!(
                "  phase {:<20} {:>9.3} ms ({:>4.1}%)\n",
                "(other)",
                other * 1e3,
                100.0 * other / self.wall_seconds
            ));
        }
        if let Some(k) = &self.kernel {
            out.push_str(&k.render());
        }
        if let Some(c) = &self.codec {
            out.push_str(&c.render());
        }
        out
    }

    /// JSON object for machine consumption.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("sim_time").num_val(self.sim_time);
        j.key("wall_seconds").num_val(self.wall_seconds);
        j.key("simcalls").uint_val(self.simcalls);
        j.key("local_simcalls").uint_val(self.local_simcalls);
        j.key("tokens").uint_val(self.tokens);
        j.key("trace_events").uint_val(self.trace_events);
        j.key("events").uint_val(self.events());
        j.key("events_per_sec").num_val(self.events_per_sec());
        j.key("acceleration").num_val(self.acceleration());
        j.key("phases").begin_obj();
        for (name, secs) in &self.phases {
            j.key(name).num_val(*secs);
        }
        j.end_obj();
        if let Some(k) = &self.kernel {
            j.key("kernel").raw_val(&k.to_json());
        }
        if let Some(c) = &self.codec {
            j.key("codec").raw_val(&c.to_json());
        }
        j.end_obj();
        j.finish()
    }
}

impl Deterministic for SelfProfile {
    /// Zeroes every field that measures the *host* machine rather than the
    /// simulation: total wall-clock, the per-phase wall-clock breakdown,
    /// and the kernel's solve-time histogram. After stripping, two
    /// identical runs serialize byte-identically; everything left is a
    /// pure function of the simcall stream and the platform.
    fn strip_nondeterminism(&mut self) {
        self.wall_seconds = 0.0;
        for (_, secs) in &mut self.phases {
            *secs = 0.0;
        }
        if let Some(k) = &mut self.kernel {
            k.solve_ns = Histogram::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelfProfile {
        SelfProfile {
            phases: vec![("actor_handoff", 0.002), ("fabric_advance", 0.001)],
            simcalls: 800,
            local_simcalls: 25,
            tokens: 200,
            trace_events: 50,
            sim_time: 1.5,
            wall_seconds: 0.004,
            kernel: None,
            codec: None,
        }
    }

    fn sample_kernel() -> KernelProfile {
        let mut k = KernelProfile {
            reshares: 10,
            heap_rebuilds: 1,
            heap_orphans: 7,
            classes_folded: 30,
            batched_completions: 5,
            fillings: 4,
            filling_rounds: 9,
            ..KernelProfile::default()
        };
        for v in [1.0, 3.0, 8.0] {
            k.component_vars.observe(v);
        }
        k.cascade.observe(4.0);
        k.solve_ns.observe(1500.0);
        k
    }

    #[test]
    fn derived_rates() {
        let p = sample();
        assert_eq!(p.events(), 1000);
        assert!((p.events_per_sec() - 250_000.0).abs() < 1e-6);
        assert!((p.acceleration() - 375.0).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_clock_is_safe() {
        let p = SelfProfile::default();
        assert_eq!(p.events_per_sec(), 0.0);
        assert_eq!(p.acceleration(), 0.0);
        assert!(p.render().contains("events/s"));
    }

    #[test]
    fn render_mentions_phases_and_rates() {
        let text = sample().render();
        assert!(text.contains("actor_handoff"));
        assert!(text.contains("fabric_advance"));
        assert!(text.contains("(other)"));
        assert!(text.contains("250000 events/s"));
    }

    #[test]
    fn kernel_hist_buckets_match_recorder_semantics() {
        // One histogram type, one JSON writer: the same observations render
        // the same object in a metrics report and in a kernel profile.
        let values = [0.0, 1.0, 3.0, 1500.0];
        let rec = crate::Rec::enabled();
        let mut k = KernelProfile::default();
        for v in values {
            rec.with(|r| r.observe("h", v));
            k.cascade.observe(v);
        }
        // Bucket i counts values whose ceiling has bit-length i (bucket 0
        // holds ≤0): 1 → bucket 1, 3 → bucket 2, 1500 → bucket 11.
        let object = r#"{"count":4,"sum":1504,"min":0,"max":1500,"mean":376,"log2_buckets":[1,1,1,0,0,0,0,0,0,0,0,1]}"#;
        let metrics = rec.snapshot().unwrap().to_json();
        assert!(metrics.contains(&format!("\"h\":{object}")), "{metrics}");
        let kernel = k.to_json();
        assert!(
            kernel.contains(&format!("\"cascade\":{object}")),
            "{kernel}"
        );
    }

    #[test]
    fn kernel_profile_renders_and_serializes() {
        let k = sample_kernel();
        let text = k.render();
        assert!(text.contains("10 reshares\n"), "got: {text}");
        assert!(text.contains("component size"), "got: {text}");
        assert!(text.contains("solve wall-clock"), "got: {text}");
        assert!(
            text.contains("30 classes folded, 5 batched completions\n"),
            "got: {text}"
        );
        assert!(
            text.contains("4 fillings, 9 filling rounds\n"),
            "got: {text}"
        );
        let json = k.to_json();
        for key in [
            "reshares",
            "classes_folded",
            "batched_completions",
            "fillings",
            "filling_rounds",
            "component_vars",
            "cascade",
            "solve_ns",
            "log2_buckets",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} missing");
        }
        // With a kernel section attached, the self-profile carries it too.
        let p = SelfProfile {
            kernel: Some(k),
            ..sample()
        };
        assert!(p.render().contains("kernel:"));
        assert!(p.to_json().contains("\"kernel\":{"));
    }

    #[test]
    fn stripping_zeroes_host_fields_only() {
        let mut p = SelfProfile {
            kernel: Some(sample_kernel()),
            ..sample()
        };
        p.strip_nondeterminism();
        assert_eq!(p.wall_seconds, 0.0);
        assert!(p.phases.iter().all(|(_, s)| *s == 0.0));
        assert_eq!(p.kernel.as_ref().unwrap().solve_ns, Histogram::default());
        // Simulation-derived fields survive.
        assert_eq!(p.simcalls, 800);
        assert_eq!(p.sim_time, 1.5);
        assert_eq!(p.kernel.as_ref().unwrap().reshares, 10);
    }

    #[test]
    fn json_has_all_fields() {
        let json = sample().to_json();
        for k in [
            "sim_time",
            "wall_seconds",
            "simcalls",
            "tokens",
            "events_per_sec",
            "acceleration",
            "phases",
        ] {
            assert!(json.contains(&format!("\"{k}\":")), "{k} missing");
        }
    }
}
