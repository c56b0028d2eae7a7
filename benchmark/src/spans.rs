//! Benchmark-side spans around every call into a layer.
//!
//! No span or counter lives inside any crate of the simulator: the traced
//! rep wraps the calls it makes (`platform.build`, `world.run`,
//! `replay.replay_stream`, each export, each direct probe) and keeps the
//! spans in memory until the run ends.

use std::time::Instant;

use smpi_obs::json::JsonBuf;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder; `parent` is the span open when this one began.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[ix].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// [`timed`](Self::timed) for callers that only want the result.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.timed(name, f).0
    }

    /// Serializes the spans; `self_ns` is a span's duration minus the part
    /// its direct children cover.
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("workload").str_val(workload);
        j.key("spans").begin_arr();
        for (i, s) in self.spans.iter().enumerate() {
            j.begin_obj();
            j.key("id").uint_val(i as u64);
            j.key("name").str_val(s.name);
            j.key("start_ns").uint_val(s.start_ns);
            j.key("end_ns").uint_val(s.end_ns);
            match s.parent {
                Some(p) => j.key("parent").uint_val(p as u64),
                None => j.key("parent").raw_val("null"),
            };
            j.key("self_ns")
                .uint_val((s.end_ns - s.start_ns).saturating_sub(child_ns[i]));
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(s.spans[1].parent, Some(0));
        let outer = s.spans[0].end_ns - s.spans[0].start_ns;
        let inner = s.spans[1].end_ns - s.spans[1].start_ns;
        assert!(inner >= 2_000_000 && outer >= inner);
        assert!(s.to_json("w").contains("\"name\":\"inner\""));
    }
}
