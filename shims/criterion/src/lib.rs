//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this shim implements
//! the subset of the criterion API the workspace's benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is intentionally simple but honest: after a short warm-up,
//! each benchmark runs `sample_size` samples, where every sample times a
//! batch of iterations sized to run for at least a few milliseconds. The
//! per-iteration mean, best sample, and spread are printed to stdout.

#![forbid(unsafe_code)]

pub use std::hint::black_box;

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name} ==");
        BenchmarkGroup {
            _c: self,
            name,
            sample_size: 10,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.into(), 10, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the target measurement time. Accepted for API compatibility;
    /// the shim sizes batches adaptively instead.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks a closure under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().0);
        run_benchmark(&label, self.sample_size, f);
        self
    }

    /// Benchmarks a closure that receives `input` by reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().0);
        run_benchmark(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `group/function/parameter`-style id.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Id distinguished only by a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

/// Conversion accepted by `bench_function` / `bench_with_input` id slots.
pub trait IntoBenchmarkId {
    /// Converts to a concrete id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self.to_string())
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self)
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    sample_size: usize,
    result: Option<Stats>,
}

#[derive(Debug, Clone, Copy)]
struct Stats {
    mean_ns: f64,
    best_ns: f64,
    worst_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, keeping its return value alive via [`black_box`].
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and batch sizing: grow the batch until one batch takes
        // at least ~5 ms, so short routines are timed over many iterations.
        let mut batch: u64 = 1;
        let batch_floor = Duration::from_millis(5);
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= batch_floor || batch >= 1 << 20 {
                break;
            }
            // Scale toward the floor, at least doubling.
            let scale = if elapsed.is_zero() {
                8.0
            } else {
                (batch_floor.as_secs_f64() / elapsed.as_secs_f64()).clamp(2.0, 8.0)
            };
            batch = ((batch as f64 * scale) as u64).max(batch * 2);
        }

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
        }
        let best = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = samples.iter().cloned().fold(0.0, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        self.result = Some(Stats {
            mean_ns: mean,
            best_ns: best,
            worst_ns: worst,
            iters: batch * self.sample_size as u64,
        });
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        sample_size,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some(s) => println!(
            "{label:<56} time: {} (best {}, worst {}, {} iters)",
            fmt_ns(s.mean_ns),
            fmt_ns(s.best_ns),
            fmt_ns(s.worst_ns),
            s.iters
        ),
        None => println!("{label:<56} (no measurement: Bencher::iter never called)"),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions under one name, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_measures() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut ran = 0u32;
        g.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        assert!(ran > 0);
    }
}
