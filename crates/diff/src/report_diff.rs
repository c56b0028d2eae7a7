//! Deep structural comparison of two [`RunReport`]s.
//!
//! Where the trace diff explains how two runs' *op streams* differ, this
//! layer explains how their *observations* differ: makespan and per-rank
//! finish times, metrics counters (top-k movers), self-profile phases,
//! kernel counters, per-link/per-rank contention attribution, and the
//! critical path. Only simulated (deterministic) quantities are compared —
//! wall-clock fields are deliberately excluded so the diff JSON is
//! byte-identical across repeated invocations on the same pair of runs.

use smpi::RunReport;
use smpi_obs::json::{num, JsonBuf};
use smpi_obs::{ContentionReport, MetricsReport};

/// One metric key whose value moved between the runs.
#[derive(Debug, Clone)]
pub struct Mover {
    /// Namespaced metric key (`counter:…`, `fcounter:…`, `hwm:…`).
    pub key: String,
    /// Value in run A (0 when the key is absent).
    pub a: f64,
    /// Value in run B.
    pub b: f64,
}

impl Mover {
    /// Signed change `b - a`.
    pub(crate) fn delta(&self) -> f64 {
        self.b - self.a
    }
}

/// Metrics-layer diff: top movers plus key-population accounting.
#[derive(Debug, Clone)]
pub struct MetricsDiff {
    /// The `top_k` keys with the largest absolute change, largest first.
    pub movers: Vec<Mover>,
    /// Keys present in both runs with different values.
    pub changed: u64,
    /// Keys present only in run A.
    pub only_a: u64,
    /// Keys present only in run B.
    pub only_b: u64,
    /// Total distinct keys across both runs.
    pub total: u64,
}

/// Per-link contention change.
#[derive(Debug, Clone)]
pub struct LinkDelta {
    /// Link name.
    pub name: String,
    /// Seconds this link was some flow's max-min bottleneck, A then B.
    pub bottleneck: (f64, f64),
    /// Byte-share integral through the link, A then B.
    pub share_bytes: (f64, f64),
    /// Flows that traversed the link, A then B.
    pub flows: (u64, u64),
}

/// Contention-attribution diff.
#[derive(Debug, Clone)]
pub struct ContentionDiff {
    /// Per-link deltas sorted by absolute bottleneck-seconds change,
    /// largest first (ties by name). Links identical in both runs are
    /// omitted.
    pub links: Vec<LinkDelta>,
    /// Per-rank blocked-on-network seconds `(rank, a, b)`, sorted by
    /// absolute change, largest first; unchanged ranks omitted.
    pub ranks: Vec<(u32, f64, f64)>,
}

impl ContentionDiff {
    /// Name of the link whose bottleneck residency moved the most.
    pub fn top_mover(&self) -> Option<&str> {
        self.links.first().map(|l| l.name.as_str())
    }
}

/// Critical-path diff.
#[derive(Debug, Clone)]
pub struct CpDiff {
    /// Chain length (simulated seconds) in A and B.
    pub total: (f64, f64),
    /// Segments on B's path but not A's (new bottleneck participants).
    pub entered: Vec<String>,
    /// Segments on A's path but not B's.
    pub left: Vec<String>,
    /// Segments on both paths with changed attribution `(name, a, b)`,
    /// sorted by absolute change, largest first.
    pub moved: Vec<(String, f64, f64)>,
}

/// Full structural diff of two run reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// Makespan in A and B.
    pub sim_time: (f64, f64),
    /// Rank counts in A and B.
    pub nranks: (usize, usize),
    /// Ranks whose finish time changed.
    pub finish_changed: u64,
    /// Largest absolute finish-time change and the rank it happened on.
    pub finish_peak: (usize, f64),
    /// Per-phase self-profile `(phase, a_secs, b_secs)` — only phases
    /// whose wall share changed; empty when either side lacks phases.
    /// (Phases are wall-clock and excluded from JSON; kept here for
    /// interactive inspection.)
    pub phases: Vec<(String, f64, f64)>,
    /// Kernel counter deltas `(counter, a, b)`; only changed counters.
    pub kernel: Vec<(&'static str, u64, u64)>,
    /// Metrics diff (`None` unless both runs carried metrics).
    pub metrics: Option<MetricsDiff>,
    /// Contention diff (`None` unless both runs carried attribution).
    pub contention: Option<ContentionDiff>,
    /// Critical-path diff (`None` unless both runs were traced).
    pub critical_path: Option<CpDiff>,
}

impl ReportDiff {
    /// `true` when every compared (simulated) quantity is identical.
    pub(crate) fn is_identical(&self) -> bool {
        self.sim_time.0 == self.sim_time.1
            && self.nranks.0 == self.nranks.1
            && self.finish_changed == 0
            && self.kernel.is_empty()
            && self
                .metrics
                .as_ref()
                .is_none_or(|m| m.changed == 0 && m.only_a == 0 && m.only_b == 0)
            && self
                .contention
                .as_ref()
                .is_none_or(|c| c.links.is_empty() && c.ranks.is_empty())
            && self.critical_path.as_ref().is_none_or(|cp| {
                cp.total.0 == cp.total.1 && cp.entered.is_empty() && cp.left.is_empty()
            })
    }

    /// Deterministic JSON document (schema in EXPERIMENTS.md). Wall-clock
    /// fields are excluded, so the bytes are stable across invocations.
    pub fn to_json(&self) -> String {
        let pair = |j: &mut JsonBuf, key: &str, a: f64, b: f64| {
            j.key(key).begin_obj();
            j.key("a").num_val(a);
            j.key("b").num_val(b);
            j.key("delta").num_val(b - a);
            j.end_obj();
        };
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("kind").str_val("report_diff");
        j.key("identical").bool_val(self.is_identical());
        pair(&mut j, "sim_time", self.sim_time.0, self.sim_time.1);
        j.key("nranks").begin_arr();
        j.uint_val(self.nranks.0 as u64)
            .uint_val(self.nranks.1 as u64);
        j.end_arr();
        j.key("finish").begin_obj();
        j.key("changed").uint_val(self.finish_changed);
        j.key("peak_rank").uint_val(self.finish_peak.0 as u64);
        j.key("peak_delta").num_val(self.finish_peak.1);
        j.end_obj();
        j.key("kernel").begin_arr();
        for (name, a, b) in &self.kernel {
            j.begin_obj();
            j.key("counter").str_val(name);
            j.key("a").uint_val(*a);
            j.key("b").uint_val(*b);
            j.end_obj();
        }
        j.end_arr();
        if let Some(m) = &self.metrics {
            j.key("metrics").begin_obj();
            j.key("changed").uint_val(m.changed);
            j.key("only_a").uint_val(m.only_a);
            j.key("only_b").uint_val(m.only_b);
            j.key("total").uint_val(m.total);
            j.key("movers").begin_arr();
            for mv in &m.movers {
                j.begin_obj();
                j.key("key").str_val(&mv.key);
                j.key("a").num_val(mv.a);
                j.key("b").num_val(mv.b);
                j.key("delta").num_val(mv.delta());
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        if let Some(c) = &self.contention {
            j.key("contention").begin_obj();
            j.key("links").begin_arr();
            for l in &c.links {
                j.begin_obj();
                j.key("link").str_val(&l.name);
                pair(&mut j, "bottleneck_secs", l.bottleneck.0, l.bottleneck.1);
                pair(&mut j, "share_bytes", l.share_bytes.0, l.share_bytes.1);
                j.key("flows").begin_arr();
                j.uint_val(l.flows.0).uint_val(l.flows.1);
                j.end_arr();
                j.end_obj();
            }
            j.end_arr();
            j.key("ranks").begin_arr();
            for (rank, a, b) in &c.ranks {
                j.begin_obj();
                j.key("rank").uint_val(u64::from(*rank));
                pair(&mut j, "blocked_secs", *a, *b);
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        if let Some(cp) = &self.critical_path {
            j.key("critical_path").begin_obj();
            pair(&mut j, "total", cp.total.0, cp.total.1);
            let names = |j: &mut JsonBuf, key: &str, items: &[String]| {
                j.key(key).begin_arr();
                for n in items {
                    j.str_val(n);
                }
                j.end_arr();
            };
            names(&mut j, "entered", &cp.entered);
            names(&mut j, "left", &cp.left);
            j.key("moved").begin_arr();
            for (name, a, b) in &cp.moved {
                j.begin_obj();
                j.key("segment").str_val(name);
                pair(&mut j, "secs", *a, *b);
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_obj();
        j.finish()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_identical() {
            let _ = writeln!(
                out,
                "report diff: identical (sim_time {}, {} ranks)",
                num(self.sim_time.0),
                self.nranks.0
            );
            return out;
        }
        let _ = writeln!(
            out,
            "report diff: sim_time {} -> {} ({:+.3}%)",
            num(self.sim_time.0),
            num(self.sim_time.1),
            100.0 * (self.sim_time.1 - self.sim_time.0) / self.sim_time.0.max(f64::MIN_POSITIVE)
        );
        let _ = writeln!(
            out,
            "finish times: {} of {} ranks changed, peak rank{} ({:+.6}s)",
            self.finish_changed, self.nranks.0, self.finish_peak.0, self.finish_peak.1
        );
        for (name, a, b) in &self.kernel {
            let _ = writeln!(out, "kernel {name}: {a} -> {b}");
        }
        if let Some(m) = &self.metrics {
            let _ = writeln!(
                out,
                "metrics: {} of {} keys changed ({} only in A, {} only in B); top movers:",
                m.changed, m.total, m.only_a, m.only_b
            );
            for mv in &m.movers {
                let _ = writeln!(
                    out,
                    "  {:<52} {:>14} -> {:<14} ({:+})",
                    mv.key,
                    num(mv.a),
                    num(mv.b),
                    mv.delta()
                );
            }
        }
        if let Some(c) = &self.contention {
            if let Some(top) = c.top_mover() {
                let _ = writeln!(out, "contention: top mover {top}");
            }
            for l in &c.links {
                let _ = writeln!(
                    out,
                    "  link {:<28} bottleneck {:>12}s -> {:<12}s  flows {} -> {}",
                    l.name,
                    format!("{:.6}", l.bottleneck.0),
                    format!("{:.6}", l.bottleneck.1),
                    l.flows.0,
                    l.flows.1
                );
            }
            for (rank, a, b) in c.ranks.iter().take(4) {
                let _ = writeln!(out, "  rank{rank:<4} blocked {:.6}s -> {:.6}s", a, b);
            }
        }
        if let Some(cp) = &self.critical_path {
            let _ = writeln!(
                out,
                "critical path: {} -> {}s",
                num(cp.total.0),
                num(cp.total.1)
            );
            if !cp.entered.is_empty() {
                let _ = writeln!(out, "  entered: {}", cp.entered.join(", "));
            }
            if !cp.left.is_empty() {
                let _ = writeln!(out, "  left:    {}", cp.left.join(", "));
            }
            for (name, a, b) in cp.moved.iter().take(6) {
                let _ = writeln!(out, "  {name:<28} {:.6}s -> {:.6}s", a, b);
            }
        }
        out
    }
}

/// Merge-joins two sorted key/value lists into `(key, a, b)` rows
/// (missing side reported as `None`).
fn merge_sorted<'a, V: Copy>(
    a: &'a [(String, V)],
    b: &'a [(String, V)],
) -> Vec<(&'a str, Option<V>, Option<V>)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut k) = (0, 0);
    while i < a.len() || k < b.len() {
        match (a.get(i), b.get(k)) {
            (Some((ka, va)), Some((kb, vb))) => match ka.cmp(kb) {
                std::cmp::Ordering::Equal => {
                    out.push((ka.as_str(), Some(*va), Some(*vb)));
                    i += 1;
                    k += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push((ka.as_str(), Some(*va), None));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((kb.as_str(), None, Some(*vb)));
                    k += 1;
                }
            },
            (Some((ka, va)), None) => {
                out.push((ka.as_str(), Some(*va), None));
                i += 1;
            }
            (None, Some((kb, vb))) => {
                out.push((kb.as_str(), None, Some(*vb)));
                k += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

fn diff_metrics(a: &MetricsReport, b: &MetricsReport, top_k: usize) -> MetricsDiff {
    let mut rows: Vec<Mover> = Vec::new();
    let (mut changed, mut only_a, mut only_b, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut absorb = |prefix: &str, pairs: Vec<(&str, Option<f64>, Option<f64>)>| {
        for (key, va, vb) in pairs {
            total += 1;
            match (va, vb) {
                (Some(x), Some(y)) if x == y => continue,
                (Some(_), Some(_)) => changed += 1,
                (Some(_), None) => only_a += 1,
                (None, Some(_)) => only_b += 1,
                (None, None) => unreachable!(),
            }
            rows.push(Mover {
                key: format!("{prefix}:{key}"),
                a: va.unwrap_or(0.0),
                b: vb.unwrap_or(0.0),
            });
        }
    };
    let counters_a: Vec<(String, f64)> = a
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v as f64))
        .collect();
    let counters_b: Vec<(String, f64)> = b
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v as f64))
        .collect();
    absorb("counter", merge_sorted(&counters_a, &counters_b));
    absorb("fcounter", merge_sorted(&a.fcounters, &b.fcounters));
    absorb("hwm", merge_sorted(&a.hwms, &b.hwms));
    rows.sort_by(|x, y| {
        y.delta()
            .abs()
            .total_cmp(&x.delta().abs())
            .then_with(|| x.key.cmp(&y.key))
    });
    rows.truncate(top_k);
    MetricsDiff {
        movers: rows,
        changed,
        only_a,
        only_b,
        total,
    }
}

/// Per-link `(bottleneck, share_bytes, flows)` pairs, A-side and B-side.
type LinkSides = ([f64; 2], [f64; 2], [u64; 2]);

fn diff_contention(a: &ContentionReport, b: &ContentionReport, top_k: usize) -> ContentionDiff {
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<String, LinkSides> = BTreeMap::new();
    for (side, c) in [(0usize, a), (1usize, b)] {
        for (l, r) in c.link_rollup().iter().enumerate() {
            let e = by_name.entry(c.link_name(l as u32)).or_default();
            e.0[side] = r.bottleneck_secs;
            e.1[side] = r.share_bytes;
            e.2[side] = r.flows;
        }
    }
    let mut links: Vec<LinkDelta> = by_name
        .into_iter()
        .filter(|(_, (bn, sh, fl))| bn[0] != bn[1] || sh[0] != sh[1] || fl[0] != fl[1])
        .map(|(name, (bn, sh, fl))| LinkDelta {
            name,
            bottleneck: (bn[0], bn[1]),
            share_bytes: (sh[0], sh[1]),
            flows: (fl[0], fl[1]),
        })
        .collect();
    links.sort_by(|x, y| {
        let dx = (x.bottleneck.1 - x.bottleneck.0).abs();
        let dy = (y.bottleneck.1 - y.bottleneck.0).abs();
        dy.total_cmp(&dx).then_with(|| x.name.cmp(&y.name))
    });
    links.truncate(top_k);

    let mut by_rank: BTreeMap<u32, [f64; 2]> = BTreeMap::new();
    for (side, c) in [(0usize, a), (1usize, b)] {
        for (rank, _, secs) in c.rank_blocked() {
            by_rank.entry(rank).or_default()[side] += secs;
        }
    }
    let mut ranks: Vec<(u32, f64, f64)> = by_rank
        .into_iter()
        .filter(|(_, [x, y])| x != y)
        .map(|(r, [x, y])| (r, x, y))
        .collect();
    ranks.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .total_cmp(&(x.2 - x.1).abs())
            .then_with(|| x.0.cmp(&y.0))
    });
    ranks.truncate(top_k);
    ContentionDiff { links, ranks }
}

/// Compares two run reports field by field. `top_k` bounds every ranked
/// list (metric movers, contention links/ranks, moved critical-path
/// segments). The result type parameters of the two reports are
/// independent — only simulated observations are compared.
pub fn diff_reports<RA, RB>(a: &RunReport<RA>, b: &RunReport<RB>, top_k: usize) -> ReportDiff {
    let nranks = (a.finish_times.len(), b.finish_times.len());
    let (mut finish_changed, mut peak_rank, mut peak_delta) = (0u64, 0usize, 0.0f64);
    for i in 0..nranks.0.max(nranks.1) {
        let x = a.finish_times.get(i).copied().unwrap_or(0.0);
        let y = b.finish_times.get(i).copied().unwrap_or(0.0);
        if x != y {
            finish_changed += 1;
            if (y - x).abs() > peak_delta.abs() {
                peak_delta = y - x;
                peak_rank = i;
            }
        }
    }

    let phases = {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<&str, [f64; 2]> = BTreeMap::new();
        for (side, p) in [(0usize, &a.profile), (1usize, &b.profile)] {
            for (name, secs) in &p.phases {
                m.entry(name).or_default()[side] = *secs;
            }
        }
        m.into_iter()
            .filter(|(_, [x, y])| x != y)
            .map(|(n, [x, y])| (n.to_string(), x, y))
            .collect()
    };

    let kernel = match (&a.profile.kernel, &b.profile.kernel) {
        (Some(ka), Some(kb)) => [
            ("reshares", ka.reshares, kb.reshares),
            ("classes_folded", ka.classes_folded, kb.classes_folded),
            (
                "batched_completions",
                ka.batched_completions,
                kb.batched_completions,
            ),
            ("fillings", ka.fillings, kb.fillings),
            ("filling_rounds", ka.filling_rounds, kb.filling_rounds),
        ]
        .into_iter()
        .filter(|(_, x, y)| x != y)
        .collect(),
        _ => Vec::new(),
    };

    let critical_path = match (a.critical_path(), b.critical_path()) {
        (Some(ca), Some(cb)) => {
            use std::collections::BTreeMap;
            let mut m: BTreeMap<&str, [Option<f64>; 2]> = BTreeMap::new();
            for (side, cp) in [(0usize, &ca), (1usize, &cb)] {
                for (name, secs) in &cp.segments {
                    m.entry(name).or_default()[side] = Some(*secs);
                }
            }
            let mut entered = Vec::new();
            let mut left = Vec::new();
            let mut moved: Vec<(String, f64, f64)> = Vec::new();
            for (name, [x, y]) in m {
                match (x, y) {
                    (Some(x), Some(y)) if x != y => moved.push((name.to_string(), x, y)),
                    (Some(_), None) => left.push(name.to_string()),
                    (None, Some(_)) => entered.push(name.to_string()),
                    _ => {}
                }
            }
            moved.sort_by(|p, q| {
                (q.2 - q.1)
                    .abs()
                    .total_cmp(&(p.2 - p.1).abs())
                    .then_with(|| p.0.cmp(&q.0))
            });
            moved.truncate(top_k);
            Some(CpDiff {
                total: (ca.total, cb.total),
                entered,
                left,
                moved,
            })
        }
        _ => None,
    };

    ReportDiff {
        sim_time: (a.sim_time, b.sim_time),
        nranks,
        finish_changed,
        finish_peak: (peak_rank, peak_delta),
        phases,
        kernel,
        metrics: match (&a.metrics, &b.metrics) {
            (Some(ma), Some(mb)) => Some(diff_metrics(ma, mb, top_k)),
            _ => None,
        },
        contention: match (&a.contention, &b.contention) {
            (Some(ca), Some(cb)) => Some(diff_contention(ca, cb, top_k)),
            _ => None,
        },
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi_obs::SelfProfile;
    use std::time::Duration;

    fn report(sim_time: f64, finish: Vec<f64>) -> RunReport<()> {
        RunReport {
            sim_time,
            wall: Duration::ZERO,
            results: vec![(); finish.len()],
            memory: Default::default(),
            trace: Vec::new(),
            metrics: None,
            profile: SelfProfile::default(),
            ti_trace: None,
            contention: None,
            finish_times: finish,
        }
    }

    #[test]
    fn identical_reports_diff_empty() {
        let a = report(1.5, vec![1.0, 1.5]);
        let b = report(1.5, vec![1.0, 1.5]);
        let d = diff_reports(&a, &b, 10);
        assert!(d.is_identical());
        assert!(d.render().contains("identical"));
        assert_eq!(d.to_json(), diff_reports(&a, &b, 10).to_json());
    }

    #[test]
    fn finish_time_changes_are_attributed_to_the_peak_rank() {
        let a = report(1.5, vec![1.0, 1.5, 0.7]);
        let b = report(1.9, vec![1.0, 1.9, 0.8]);
        let d = diff_reports(&a, &b, 10);
        assert!(!d.is_identical());
        assert_eq!(d.finish_changed, 2);
        assert_eq!(d.finish_peak.0, 1);
        assert!((d.finish_peak.1 - 0.4).abs() < 1e-12);
        crate::JsonValue::parse(&d.to_json()).expect("valid JSON");
    }

    #[test]
    fn metric_movers_are_ranked_by_absolute_delta() {
        let mut a = report(1.0, vec![1.0]);
        let mut b = report(1.0, vec![1.0]);
        let ma = smpi_obs::MetricsReport {
            counters: vec![("x".into(), 10), ("y".into(), 5), ("z".into(), 1)],
            ..Default::default()
        };
        let mb = smpi_obs::MetricsReport {
            counters: vec![("x".into(), 11), ("y".into(), 50), ("w".into(), 2)],
            ..Default::default()
        };
        a.metrics = Some(ma);
        b.metrics = Some(mb);
        let d = diff_reports(&a, &b, 2);
        let m = d.metrics.expect("both sides carried metrics");
        assert_eq!(m.total, 4);
        assert_eq!((m.changed, m.only_a, m.only_b), (2, 1, 1));
        assert_eq!(m.movers.len(), 2);
        assert_eq!(m.movers[0].key, "counter:y");
    }
}
