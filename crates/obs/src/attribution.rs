//! Contention attribution: which link throttled which flow, for how long.
//!
//! The max-min solver already computes, for every flow, the *saturated
//! constraint* that froze its rate — the flow's bottleneck. The network
//! backends record, per flow, the time-integrated bandwidth share and the
//! seconds each link spent as that flow's bottleneck ([`FlowAttribution`]),
//! and the runtime aggregates one [`FlowRecord`] per delivered message into
//! a [`ContentionReport`]: per-(flow,link) integrals, per-link "time as
//! bottleneck" rollups, and per-rank "time blocked on link L" rollups.
//!
//! Link indices are the resource ids of the platform's network image,
//! which both backends share (the flow kernel's links are the packet
//! simulator's channels); `link_names` translates them for humans. Flows appear in delivery order, which is deterministic, so two
//! identical runs — or an online run and its replay — serialize to
//! byte-identical JSON.

use crate::json_mod::JsonBuf;

/// Per-flow contention attribution, accumulated by a network backend while
/// the flow is in its transfer phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowAttribution {
    /// The flow's route as backend link indices, deduplicated, in crossing
    /// order.
    pub route: Vec<u32>,
    /// Time-integrated bandwidth share: bytes this flow actually moved
    /// through every link of its route (∫ rate dt). Per link, the sum of
    /// this integral over all flows equals the link's byte integral.
    pub share_bytes: f64,
    /// Seconds each link spent as this flow's bottleneck (the saturated
    /// max-min constraint that froze its rate), sparse over the route.
    pub bottleneck_secs: Vec<(u32, f64)>,
    /// Transfer-phase seconds not bounded by any link: the flow was limited
    /// by its own model bound, or crossed no contended link.
    pub unattributed_secs: f64,
    /// Packet backend only: seconds this flow's frames spent queued behind
    /// other traffic, per channel.
    pub queue_secs: Vec<(u32, f64)>,
}

impl FlowAttribution {
    /// Starts an empty attribution for a flow crossing `route`.
    pub fn new(route: Vec<u32>) -> Self {
        FlowAttribution {
            route,
            ..Self::default()
        }
    }

    fn add_to(sparse: &mut Vec<(u32, f64)>, key: u32, secs: f64) {
        match sparse.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => *s += secs,
            None => sparse.push((key, secs)),
        }
    }

    /// Charges `secs` of bottleneck residency to `link`.
    pub fn add_bottleneck(&mut self, link: u32, secs: f64) {
        Self::add_to(&mut self.bottleneck_secs, link, secs);
    }

    /// Charges `secs` of queueing to `channel` (packet backend).
    pub fn add_queue(&mut self, channel: u32, secs: f64) {
        Self::add_to(&mut self.queue_secs, channel, secs);
    }

    /// Total seconds spent bottlenecked by some link.
    pub fn bottlenecked_secs(&self) -> f64 {
        self.bottleneck_secs.iter().map(|(_, s)| s).sum()
    }

    /// The link that bottlenecked this flow longest, if any (ties go to the
    /// lowest link index so the answer is deterministic).
    pub fn dominant_bottleneck(&self) -> Option<u32> {
        let mut best: Option<(u32, f64)> = None;
        for &(l, s) in &self.bottleneck_secs {
            let better = match best {
                None => true,
                Some((bl, bs)) => s > bs || (s == bs && l < bl),
            };
            if better {
                best = Some((l, s));
            }
        }
        best.map(|(l, _)| l)
    }

    fn sparse_json(j: &mut JsonBuf, sparse: &[(u32, f64)]) {
        j.begin_arr();
        for &(k, v) in sparse {
            j.begin_arr().uint_val(u64::from(k)).num_val(v).end_arr();
        }
        j.end_arr();
    }
}

/// One delivered message with its attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Application payload bytes.
    pub bytes: u64,
    /// What the network backend measured for this flow.
    pub attr: FlowAttribution,
}

/// Per-link aggregate over every flow of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkRollup {
    /// Bytes moved through the link, summed over per-flow share integrals.
    pub share_bytes: f64,
    /// Flow-seconds the link spent as *somebody's* bottleneck (two flows
    /// bottlenecked for 1 s each count 2 s).
    pub bottleneck_secs: f64,
    /// Flows that crossed the link.
    pub flows: u64,
}

/// Aggregated contention attribution for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentionReport {
    /// Resource id → human name (the same table on both backends).
    pub link_names: Vec<String>,
    /// Every delivered message, in delivery order.
    pub flows: Vec<FlowRecord>,
}

impl ContentionReport {
    /// The name of backend link `l` (a stable placeholder when the backend
    /// exported no name table).
    pub fn link_name(&self, l: u32) -> String {
        self.link_names
            .get(l as usize)
            .cloned()
            .unwrap_or_else(|| format!("link{l}"))
    }

    /// Dense per-link rollup (indexed by backend link; at least
    /// `link_names.len()` entries, grown to cover every referenced link).
    pub fn link_rollup(&self) -> Vec<LinkRollup> {
        let mut out: Vec<LinkRollup> = vec![LinkRollup::default(); self.link_names.len()];
        let at = |l: u32, out: &mut Vec<LinkRollup>| -> usize {
            let ix = l as usize;
            if out.len() <= ix {
                out.resize(ix + 1, LinkRollup::default());
            }
            ix
        };
        for f in &self.flows {
            for &l in &f.attr.route {
                let ix = at(l, &mut out);
                out[ix].share_bytes += f.attr.share_bytes;
                out[ix].flows += 1;
            }
            for &(l, s) in &f.attr.bottleneck_secs {
                let ix = at(l, &mut out);
                out[ix].bottleneck_secs += s;
            }
        }
        out
    }

    /// Per-rank "time blocked on link L": for each receiving rank, the
    /// seconds its incoming flows spent bottlenecked by each link, as
    /// `(rank, link, secs)` sorted by `(rank, link)`. Time is charged to
    /// the *receiver* — that is the rank whose completion the bottleneck
    /// delayed.
    pub fn rank_blocked(&self) -> Vec<(u32, u32, f64)> {
        let mut map: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        for f in &self.flows {
            for &(l, s) in &f.attr.bottleneck_secs {
                *map.entry((f.dst, l)).or_insert(0.0) += s;
            }
        }
        map.into_iter().map(|((r, l), s)| (r, l, s)).collect()
    }

    /// Links ranked by total time as a bottleneck, descending (ties go to
    /// the lower index).
    pub fn top_bottlenecks(&self, n: usize) -> Vec<(u32, LinkRollup)> {
        let mut ranked: Vec<(u32, LinkRollup)> = self
            .link_rollup()
            .into_iter()
            .enumerate()
            .filter(|(_, r)| r.bottleneck_secs > 0.0)
            .map(|(l, r)| (l as u32, r))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.bottleneck_secs
                .partial_cmp(&a.1.bottleneck_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(n);
        ranked
    }

    /// Human-readable top-N bottleneck-link summary.
    pub fn render_top(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "contention: {} flows over {} links\n",
            self.flows.len(),
            self.link_names.len()
        ));
        let top = self.top_bottlenecks(n);
        if top.is_empty() {
            out.push_str("  no link ever bottlenecked a flow\n");
            return out;
        }
        for (rank, (l, r)) in top.iter().enumerate() {
            out.push_str(&format!(
                "  #{:<2} {:<28} bottleneck {:>10.6} flow-s  {:>14.0} B  {:>6} flows\n",
                rank + 1,
                self.link_name(*l),
                r.bottleneck_secs,
                r.share_bytes,
                r.flows
            ));
        }
        out
    }

    /// Deterministic JSON export: names, per-flow records, per-link and
    /// per-rank rollups. Byte-identical across identical runs (and across
    /// an online run and its replay on the same platform).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();

        j.key("link_names").begin_arr();
        for name in &self.link_names {
            j.str_val(name);
        }
        j.end_arr();

        j.key("flows").begin_arr();
        for f in &self.flows {
            j.begin_obj();
            j.key("src").uint_val(u64::from(f.src));
            j.key("dst").uint_val(u64::from(f.dst));
            j.key("bytes").uint_val(f.bytes);
            j.key("route").begin_arr();
            for &l in &f.attr.route {
                j.uint_val(u64::from(l));
            }
            j.end_arr();
            j.key("share_bytes").num_val(f.attr.share_bytes);
            j.key("bottleneck_secs");
            FlowAttribution::sparse_json(&mut j, &f.attr.bottleneck_secs);
            j.key("unattributed_secs").num_val(f.attr.unattributed_secs);
            if !f.attr.queue_secs.is_empty() {
                j.key("queue_secs");
                FlowAttribution::sparse_json(&mut j, &f.attr.queue_secs);
            }
            j.end_obj();
        }
        j.end_arr();

        j.key("links").begin_arr();
        for (l, r) in self.link_rollup().into_iter().enumerate() {
            j.begin_obj();
            j.key("link").uint_val(l as u64);
            j.key("name").str_val(&self.link_name(l as u32));
            j.key("share_bytes").num_val(r.share_bytes);
            j.key("bottleneck_secs").num_val(r.bottleneck_secs);
            j.key("flows").uint_val(r.flows);
            j.end_obj();
        }
        j.end_arr();

        j.key("rank_blocked").begin_arr();
        for (rank, l, s) in self.rank_blocked() {
            j.begin_arr()
                .uint_val(u64::from(rank))
                .uint_val(u64::from(l))
                .num_val(s)
                .end_arr();
        }
        j.end_arr();

        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: u32, dst: u32, bytes: u64, route: Vec<u32>) -> FlowRecord {
        FlowRecord {
            src,
            dst,
            bytes,
            attr: FlowAttribution::new(route),
        }
    }

    fn sample() -> ContentionReport {
        let mut a = flow(0, 1, 1000, vec![0, 2]);
        a.attr.share_bytes = 1000.0;
        a.attr.add_bottleneck(2, 3.0);
        a.attr.add_bottleneck(0, 1.0);
        let mut b = flow(1, 0, 500, vec![2, 1]);
        b.attr.share_bytes = 500.0;
        b.attr.add_bottleneck(2, 2.0);
        b.attr.unattributed_secs = 0.5;
        ContentionReport {
            link_names: vec!["up0".into(), "up1".into(), "spine".into()],
            flows: vec![a, b],
        }
    }

    #[test]
    fn rollups_aggregate_per_link() {
        let r = sample().link_rollup();
        assert_eq!(r.len(), 3);
        assert_eq!(r[2].flows, 2);
        assert!((r[2].share_bytes - 1500.0).abs() < 1e-12);
        assert!((r[2].bottleneck_secs - 5.0).abs() < 1e-12);
        assert!((r[0].bottleneck_secs - 1.0).abs() < 1e-12);
        assert_eq!(r[1].bottleneck_secs, 0.0);
        assert_eq!(r[1].flows, 1);
    }

    #[test]
    fn top_bottlenecks_rank_by_residency() {
        let rep = sample();
        let top = rep.top_bottlenecks(10);
        assert_eq!(top[0].0, 2, "spine must rank first");
        assert_eq!(top[1].0, 0);
        assert_eq!(top.len(), 2, "never-bottleneck links are omitted");
        let text = rep.render_top(1);
        assert!(text.contains("spine"), "got: {text}");
        assert!(!text.contains("up0"));
    }

    #[test]
    fn rank_blocked_charges_the_receiver() {
        let blocked = sample().rank_blocked();
        assert_eq!(
            blocked,
            vec![(0, 2, 2.0), (1, 0, 1.0), (1, 2, 3.0)],
            "sorted by (rank, link), receiver-side"
        );
    }

    #[test]
    fn dominant_bottleneck_breaks_ties_deterministically() {
        let mut a = FlowAttribution::new(vec![0, 1]);
        assert_eq!(a.dominant_bottleneck(), None);
        a.add_bottleneck(1, 2.0);
        a.add_bottleneck(0, 2.0);
        assert_eq!(a.dominant_bottleneck(), Some(0), "tie → lower index");
        a.add_bottleneck(1, 1.0);
        assert_eq!(a.dominant_bottleneck(), Some(1));
        assert!((a.bottlenecked_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let rep = sample();
        let json = rep.to_json();
        assert_eq!(json, sample().to_json());
        assert!(json.contains(r#""link_names":["up0","up1","spine"]"#));
        assert!(json.contains(r#""rank_blocked":[[0,2,2],[1,0,1],[1,2,3]]"#));
        assert!(!json.contains("queue_secs"), "empty queue section omitted");
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }
}
