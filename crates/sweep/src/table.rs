//! Streamed, ordered results and per-cell distribution summaries.
//!
//! Workers finish scenarios in a scheduling-dependent order, but the
//! results table must be identical for any worker count. The
//! [`OrderedEmitter`] is a reorder buffer: lines are pushed keyed by
//! scenario id and written to the sink the moment the next consecutive id
//! is available. Memory is bounded by the completion skew between workers
//! (at most "jobs in flight + buffered out-of-order lines"), never by the
//! sweep size — the table streams.
//!
//! [`Distribution`] is the aggregation half: order statistics of a cell's
//! makespan samples via the nearest-rank method (no interpolation — the
//! reported quantiles are actual samples, which keeps them byte-stable
//! under formatting).

use std::collections::BTreeMap;
use std::io::Write;

use smpi_obs::json::JsonBuf;

/// Order statistics of one matrix cell's makespan samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Distribution {
    /// Summarizes `samples` (must be non-empty; order irrelevant).
    pub(crate) fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "distribution over zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite makespans"));
        let nearest_rank = |q: f64| -> f64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Distribution {
            n: sorted.len(),
            min: sorted[0],
            median: nearest_rank(0.50),
            p95: nearest_rank(0.95),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Appends this summary as a JSON object value.
    pub(crate) fn append_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.key("n").uint_val(self.n as u64);
        j.key("min").num_val(self.min);
        j.key("median").num_val(self.median);
        j.key("p95").num_val(self.p95);
        j.key("max").num_val(self.max);
        j.key("mean").num_val(self.mean);
        j.end_obj();
    }
}

/// The explicit error record written into the JSON-lines stream where
/// scenarios `from..=to` should have been: a worker died before emitting
/// them, and a silent hole would corrupt downstream id-based joins.
fn gap_record(from: usize, to: usize) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("type").str_val("sweep-gap");
    j.key("missing_from").uint_val(from as u64);
    j.key("missing_to").uint_val(to as u64);
    j.key("error")
        .str_val("worker died before these scenarios completed");
    j.end_obj();
    j.finish()
}

/// Reorder buffer turning out-of-order completions into an id-ordered
/// stream of lines.
///
/// If the emitter is dropped (or [`abort`](Self::abort)ed) while lines are
/// still buffered behind a missing id — a worker panicked mid-sweep — the
/// buffered tail is flushed in id order with an explicit gap-record line
/// marking each hole, instead of being silently discarded.
pub(crate) struct OrderedEmitter<W: Write> {
    /// `None` only after `finish`/`abort` moved the sink out.
    sink: Option<W>,
    next: usize,
    pending: BTreeMap<usize, String>,
    high_water: usize,
}

impl<W: Write> OrderedEmitter<W> {
    /// Creates an emitter over `sink`, expecting ids `0, 1, 2, …`.
    pub(crate) fn new(sink: W) -> Self {
        OrderedEmitter {
            sink: Some(sink),
            next: 0,
            pending: BTreeMap::new(),
            high_water: 0,
        }
    }

    /// Submits the line of scenario `id` (no trailing newline). Writes it —
    /// and any buffered successors it unblocks — if `id` is the next
    /// consecutive id; buffers it otherwise.
    pub(crate) fn push(&mut self, id: usize, line: String) -> std::io::Result<()> {
        assert!(id >= self.next, "scenario {id} emitted twice");
        self.pending.insert(id, line);
        self.high_water = self.high_water.max(self.pending.len());
        let sink = self.sink.as_mut().expect("emitter already finished");
        while let Some(line) = self.pending.remove(&self.next) {
            sink.write_all(line.as_bytes())?;
            sink.write_all(b"\n")?;
            self.next += 1;
        }
        Ok(())
    }

    /// Largest number of lines ever buffered (the reorder-buffer footprint).
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Writes every still-buffered line in id order, preceding each id
    /// discontinuity with a [`gap_record`] error line.
    fn flush_with_gaps(&mut self) -> std::io::Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let sink = self.sink.as_mut().expect("emitter already finished");
        let mut expected = self.next;
        for (id, line) in pending {
            if id != expected {
                sink.write_all(gap_record(expected, id - 1).as_bytes())?;
                sink.write_all(b"\n")?;
            }
            sink.write_all(line.as_bytes())?;
            sink.write_all(b"\n")?;
            expected = id + 1;
        }
        self.next = expected;
        sink.flush()
    }

    /// Flushes and returns the sink. Panics if lines are still buffered
    /// (a gap in the id sequence was never filled); the panic still leaves
    /// a complete stream behind — the drop flush writes the tail with gap
    /// records.
    pub(crate) fn finish(mut self) -> std::io::Result<W> {
        assert!(
            self.pending.is_empty(),
            "emitter finished with {} lines stuck behind missing id {}",
            self.pending.len(),
            self.next
        );
        let mut sink = self.sink.take().expect("emitter already finished");
        sink.flush()?;
        Ok(sink)
    }

    /// Aborts the stream after a worker failure: flushes the buffered tail
    /// with explicit gap records and returns the sink.
    pub(crate) fn abort(mut self) -> std::io::Result<W> {
        self.flush_with_gaps()?;
        Ok(self.sink.take().expect("emitter already finished"))
    }
}

impl<W: Write> Drop for OrderedEmitter<W> {
    fn drop(&mut self) {
        // Unwind path (e.g. a panicking sweep worker poisons the shared
        // state and the emitter drops mid-flight): the buffered tail must
        // reach the sink rather than vanish. Errors are ignored — this is
        // best-effort salvage during teardown.
        if self.sink.is_some() && !self.pending.is_empty() {
            let _ = self.flush_with_gaps();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_of_known_samples() {
        let d = Distribution::from_samples(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(d.n, 5);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.median, 3.0);
        assert_eq!(d.p95, 5.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.mean, 3.0);
    }

    #[test]
    fn single_sample_collapses() {
        let d = Distribution::from_samples(&[2.5]);
        assert_eq!(
            (d.min, d.median, d.p95, d.max, d.mean),
            (2.5, 2.5, 2.5, 2.5, 2.5)
        );
    }

    #[test]
    fn nearest_rank_p95_on_twenty_samples() {
        let samples: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let d = Distribution::from_samples(&samples);
        assert_eq!(d.p95, 19.0); // ceil(0.95 * 20) = 19th of 20
        assert_eq!(d.median, 10.0); // ceil(0.5 * 20) = 10th
    }

    #[test]
    fn emitter_reorders_by_id() {
        let mut em = OrderedEmitter::new(Vec::new());
        em.push(2, "c".into()).unwrap();
        em.push(0, "a".into()).unwrap();
        em.push(1, "b".into()).unwrap();
        em.push(3, "d".into()).unwrap();
        assert_eq!(em.high_water(), 2);
        let out = em.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "a\nb\nc\nd\n");
    }

    #[test]
    #[should_panic(expected = "stuck behind missing id")]
    fn emitter_detects_gaps() {
        let mut em = OrderedEmitter::new(Vec::new());
        em.push(1, "b".into()).unwrap();
        let _ = em.finish();
    }

    #[test]
    fn abort_flushes_tail_with_gap_records() {
        let mut em = OrderedEmitter::new(Vec::new());
        em.push(0, "a".into()).unwrap();
        // Ids 1 and 4 never arrive (their workers died).
        em.push(2, "c".into()).unwrap();
        em.push(3, "d".into()).unwrap();
        em.push(5, "f".into()).unwrap();
        let out = em.abort().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a");
        assert!(lines[1].contains("\"type\":\"sweep-gap\""), "{}", lines[1]);
        assert!(lines[1].contains("\"missing_from\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"missing_to\":1"), "{}", lines[1]);
        assert_eq!(&lines[2..4], &["c", "d"]);
        assert!(lines[4].contains("\"missing_from\":4"), "{}", lines[4]);
        assert_eq!(lines[5], "f");
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn drop_flushes_tail_through_a_shared_sink() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = Arc::new(Mutex::new(Vec::new()));
        {
            let mut em = OrderedEmitter::new(Shared(Arc::clone(&store)));
            em.push(1, "b".into()).unwrap();
            em.push(2, "c".into()).unwrap();
            // Dropped with id 0 missing: the tail must still land.
        }
        let text = String::from_utf8(store.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"missing_from\":0"), "{}", lines[0]);
        assert_eq!(&lines[1..], &["b", "c"]);
    }
}
