//! The NAS Data Traffic (DT) benchmark (paper §7.1.4).
//!
//! DT moves feature arrays along a task graph; three graph shapes are
//! evaluated:
//!
//! * **BH (Black Hole)** — data *accumulates* from many sources into one
//!   sink through 4-ary fan-in layers (Fig. 13). Process counts: 21 / 43 /
//!   85 for classes A / B / C.
//! * **WH (White Hole)** — one source *replicates* data outward through
//!   4-ary fan-out layers (Fig. 14). Same process counts as BH.
//! * **SH (Shuffle)** — `log₂(w)+1` layers of `w` nodes; each node splits
//!   its data between two successors in a butterfly pattern. Process
//!   counts: 80 / 192 / 448 for A / B / C.
//!
//! Node semantics (what makes BH slower than WH, the trend Fig. 15 checks):
//! BH nodes *concatenate* everything they receive and forward the whole
//! concatenation — the sink's access link ends up carrying every byte the
//! sources produced. WH nodes forward a *copy* of their input to each
//! successor, so traffic stays spread across the fabric. SH conserves
//! volume by splitting.

use smpi::ctx::Ctx;

/// Problem classes. Leaf width doubles per class; the paper uses A, B, C
/// (S and W are the usual smaller NPB instances, extrapolated downward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DtClass {
    /// Tiny (4 leaves).
    S,
    /// Small (8 leaves).
    W,
    /// 16 leaves — 21 (BH/WH) / 80 (SH) processes.
    A,
    /// 32 leaves — 43 / 192 processes.
    B,
    /// 64 leaves — 85 / 448 processes.
    C,
}

impl DtClass {
    /// Number of leaf (widest-layer) nodes.
    pub(crate) fn leaves(self) -> usize {
        match self {
            DtClass::S => 4,
            DtClass::W => 8,
            DtClass::A => 16,
            DtClass::B => 32,
            DtClass::C => 64,
        }
    }

    /// Feature elements (f64) per source array.
    pub fn num_samples(self) -> usize {
        match self {
            DtClass::S => 1 << 12,
            DtClass::W => 1 << 15,
            _ => 1 << 20, // 8 MiB per source array for A/B/C
        }
    }

    /// Parses "S"/"W"/"A"/"B"/"C".
    pub fn parse(s: &str) -> Option<DtClass> {
        match s {
            "S" => Some(DtClass::S),
            "W" => Some(DtClass::W),
            "A" => Some(DtClass::A),
            "B" => Some(DtClass::B),
            "C" => Some(DtClass::C),
            _ => None,
        }
    }
}

/// Graph shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DtGraph {
    /// Black hole: fan-in, concatenating.
    Bh,
    /// White hole: fan-out, replicating.
    Wh,
    /// Shuffle: constant-width butterfly, splitting.
    Sh,
}

/// The task graph: nodes are MPI ranks.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// `succ[r]` = ranks r sends to.
    pub succ: Vec<Vec<usize>>,
    /// `pred[r]` = ranks r receives from.
    pub pred: Vec<Vec<usize>>,
    /// The graph shape.
    pub shape: DtGraph,
}

impl TaskGraph {
    /// Number of processes.
    pub fn num_nodes(&self) -> usize {
        self.succ.len()
    }

    /// Ranks with no predecessors.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&r| self.pred[r].is_empty())
            .collect()
    }

    /// Ranks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&r| self.succ[r].is_empty())
            .collect()
    }
}

/// Builds the DT task graph for a class and shape. Node counts match the
/// paper: BH/WH 21/43/85, SH 80/192/448 for classes A/B/C.
pub fn build_graph(class: DtClass, shape: DtGraph) -> TaskGraph {
    let w = class.leaves();
    match shape {
        DtGraph::Bh => fan_graph(w, false),
        DtGraph::Wh => fan_graph(w, true),
        DtGraph::Sh => shuffle_graph(w),
    }
}

/// 4-ary fan graph: layers of width w, ⌈w/4⌉, … down to 1.
/// `outward = false` builds BH (edges toward the apex);
/// `outward = true` builds WH (edges away from the apex).
fn fan_graph(w: usize, outward: bool) -> TaskGraph {
    // Layer widths from the wide end to the apex.
    let mut widths = vec![w];
    while *widths.last().unwrap() > 1 {
        widths.push(widths.last().unwrap().div_ceil(4));
    }
    let total: usize = widths.iter().sum();
    let mut succ = vec![Vec::new(); total];
    let mut pred = vec![Vec::new(); total];

    // Rank layout: for BH the wide layer first (sources are ranks 0..w and
    // the sink is the last rank); WH mirrors it (source = rank 0).
    // layer_start[i] = first rank of layer i (wide end = layer 0).
    let mut layer_start = Vec::with_capacity(widths.len());
    let mut acc = 0;
    for &lw in &widths {
        layer_start.push(acc);
        acc += lw;
    }
    for (layer, &lw) in widths.iter().enumerate().take(widths.len() - 1) {
        let next_w = widths[layer + 1];
        for i in 0..lw {
            let group = i % next_w; // spread nodes over next layer groups
            let child = layer_start[layer] + i;
            let parent = layer_start[layer + 1] + group;
            if outward {
                succ[parent].push(child);
                pred[child].push(parent);
            } else {
                succ[child].push(parent);
                pred[parent].push(child);
            }
        }
    }
    // Deterministic edge order.
    for v in succ.iter_mut().chain(pred.iter_mut()) {
        v.sort_unstable();
    }
    if outward {
        // WH convention: rank 0 is the source. Relabel by reversing layers.
        relabel_mirror(&mut succ, &mut pred, total);
    }
    TaskGraph {
        succ,
        pred,
        shape: if outward { DtGraph::Wh } else { DtGraph::Bh },
    }
}

/// Reverses the rank order (rank r -> total-1-r) so the WH apex is rank 0.
fn relabel_mirror(succ: &mut [Vec<usize>], pred: &mut [Vec<usize>], total: usize) {
    let map = |r: usize| total - 1 - r;
    let remap = |vs: &mut [Vec<usize>]| {
        for v in vs.iter_mut() {
            for x in v.iter_mut() {
                *x = map(*x);
            }
            v.sort_unstable();
        }
    };
    remap(succ);
    remap(pred);
    succ.reverse();
    pred.reverse();
}

/// Shuffle graph: `log₂(w)+1` layers of `w` nodes each; node (l, i) sends to
/// (l+1, i) and (l+1, i XOR 2^l) — a butterfly, shuffling data from the top
/// layer down to the bottom (§7.1.4).
fn shuffle_graph(w: usize) -> TaskGraph {
    assert!(w.is_power_of_two());
    let layers = w.trailing_zeros() as usize + 1;
    let total = layers * w;
    let mut succ = vec![Vec::new(); total];
    let mut pred = vec![Vec::new(); total];
    for l in 0..layers - 1 {
        for i in 0..w {
            let from = l * w + i;
            let straight = (l + 1) * w + i;
            let cross = (l + 1) * w + (i ^ (1 << l));
            for to in [straight, cross] {
                succ[from].push(to);
                pred[to].push(from);
            }
        }
    }
    for v in succ.iter_mut().chain(pred.iter_mut()) {
        v.sort_unstable();
        v.dedup();
    }
    TaskGraph {
        succ,
        pred,
        shape: DtGraph::Sh,
    }
}

/// Per-element processing cost, flops (light compute as in DT's feature
/// comparisons).
const FLOPS_PER_ELEMENT: f64 = 10.0;

const DT_TAG: i32 = 17;

/// Runs one rank's share of the DT benchmark. Returns this rank's checksum
/// (sinks return the verification sum; other ranks 0). Buffers are
/// allocated through `shared_malloc` keyed by (layer-role) so RAM folding
/// (§3.2) applies when enabled on the `World`.
///
/// Every element is copied once per hop and staged nowhere: a node unpacks
/// each incoming body into its buffer at the predecessor's offset and drops
/// the body, then sends its buffer itself — [`smpi::SharedSlice::share`],
/// whole to each successor on BH and WH, one slice per successor on SH.
/// The bodies share the buffer's block. A rank never writes its buffer
/// after sending it; with folding on, another rank of the layer may write
/// the folded buffer while the bodies are in flight, which copies it once
/// and leaves the bodies their snapshot. No guard is alive across an MPI
/// call.
pub fn dt_rank(ctx: &Ctx, graph: &TaskGraph, class: DtClass) -> f64 {
    let r = ctx.rank();
    assert_eq!(ctx.size(), graph.num_nodes(), "world size != graph size");
    let comm = ctx.world();
    let preds = &graph.pred[r];
    let succs = &graph.succ[r];
    let total = produced_len(graph, class, r);

    let data: smpi::SharedSlice<f64> = if preds.is_empty() {
        // Source: generate the feature array.
        let buf = ctx.shared_malloc::<f64>("dt:source", total);
        {
            let mut b = buf.lock();
            // Deterministic pseudo-features (NPB-style LCG).
            let mut seed = 271_828_183u64.wrapping_add(r as u64);
            for x in b.iter_mut() {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *x = (seed >> 11) as f64 / (1u64 << 53) as f64;
            }
        }
        buf
    } else {
        // Interior/sink: receive from every predecessor, concatenating in
        // predecessor order. Sizes are deterministic: compute what each
        // will send us.
        let reqs: Vec<_> = preds
            .iter()
            .map(|&p| {
                let len = incoming_len(graph, class, p, r);
                (len, ctx.irecv::<f64>(p as i32, DT_TAG, len, &comm))
            })
            .collect();
        let buf = ctx.shared_malloc::<f64>(&node_site(graph, class, r), total);
        let mut off = 0;
        for (len, req) in reqs {
            let (body, _) = ctx.wait_recv_packed(req, &comm);
            body.unpack_into(&mut buf.lock()[off..off + len]);
            off += len;
        }
        buf
    };
    ctx.compute(total as f64 * FLOPS_PER_ELEMENT);

    let checksum = if succs.is_empty() {
        // Sink: verify in place.
        data.lock().iter().sum()
    } else {
        // Forward according to the shape's semantics.
        match graph.shape {
            DtGraph::Bh | DtGraph::Wh => {
                // Concatenation (BH) or replica (WH): the whole buffer to
                // each successor.
                let body = data.share();
                for &s in succs {
                    ctx.send_packed(&body, s, DT_TAG, &comm);
                }
            }
            DtGraph::Sh => {
                // Split evenly among successors; the last takes the
                // remainder.
                let k = succs.len();
                let chunk = total / k;
                let body = data.share();
                for (j, &s) in succs.iter().enumerate() {
                    let lo = j * chunk;
                    let hi = if j == k - 1 { total } else { lo + chunk };
                    ctx.send_packed(&body.slice(lo..hi), s, DT_TAG, &comm);
                }
            }
        }
        0.0
    };
    // Hold the buffer until every rank is done: the paper's Fig. 16 metric
    // is maximum *resident set size*, which never shrinks during a run —
    // buffers of early-finishing processes still count.
    ctx.barrier(&comm);
    drop(data);
    checksum
}

/// Number of elements rank `p` sends to its successor `r`, derived from the
/// graph semantics (deterministic, so receivers can size their buffers).
fn incoming_len(graph: &TaskGraph, class: DtClass, p: usize, r: usize) -> usize {
    let produced = produced_len(graph, class, p);
    match graph.shape {
        DtGraph::Bh | DtGraph::Wh => produced,
        DtGraph::Sh => {
            let k = graph.succ[p].len();
            let chunk = produced / k;
            // Last successor gets the remainder.
            let j = graph.succ[p].iter().position(|&s| s == r).expect("edge");
            if j == k - 1 {
                produced - chunk * (k - 1)
            } else {
                chunk
            }
        }
    }
}

/// Number of elements rank `p` holds after its combine step.
fn produced_len(graph: &TaskGraph, class: DtClass, p: usize) -> usize {
    if graph.pred[p].is_empty() {
        class.num_samples()
    } else {
        graph.pred[p]
            .iter()
            .map(|&q| incoming_len(graph, class, q, p))
            .sum()
    }
}

/// A stable site id for folding: nodes with identical (indegree, outdegree,
/// produced length) fold together — i.e. per graph layer, exactly as the
/// same `SMPI_SHARED_MALLOC` source line executed by every process of a
/// layer in the C original.
fn node_site(graph: &TaskGraph, class: DtClass, r: usize) -> String {
    format!(
        "dt:node:{}i{}o:{}",
        graph.pred[r].len(),
        graph.succ[r].len(),
        produced_len(graph, class, r)
    )
}

/// Total bytes a full run of this (class, shape) would keep live without
/// folding: the sum of every node's buffer (for Fig. 16 cross-checks).
pub fn unfolded_bytes(graph: &TaskGraph, class: DtClass) -> u64 {
    (0..graph.num_nodes())
        .map(|r| produced_len(graph, class, r) as u64 * 8)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counts_match_the_paper() {
        assert_eq!(build_graph(DtClass::A, DtGraph::Bh).num_nodes(), 21);
        assert_eq!(build_graph(DtClass::B, DtGraph::Bh).num_nodes(), 43);
        assert_eq!(build_graph(DtClass::C, DtGraph::Bh).num_nodes(), 85);
        assert_eq!(build_graph(DtClass::A, DtGraph::Wh).num_nodes(), 21);
        assert_eq!(build_graph(DtClass::B, DtGraph::Wh).num_nodes(), 43);
        assert_eq!(build_graph(DtClass::C, DtGraph::Wh).num_nodes(), 85);
        assert_eq!(build_graph(DtClass::A, DtGraph::Sh).num_nodes(), 80);
        assert_eq!(build_graph(DtClass::B, DtGraph::Sh).num_nodes(), 192);
        assert_eq!(build_graph(DtClass::C, DtGraph::Sh).num_nodes(), 448);
    }

    #[test]
    fn bh_has_one_sink_many_sources() {
        let g = build_graph(DtClass::A, DtGraph::Bh);
        assert_eq!(g.sources().len(), 16);
        assert_eq!(g.sinks().len(), 1);
        // Sink is the last rank, fed by the 4 middle nodes.
        assert_eq!(g.pred[20].len(), 4);
    }

    #[test]
    fn wh_mirrors_bh() {
        let g = build_graph(DtClass::A, DtGraph::Wh);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks().len(), 16);
        assert_eq!(g.succ[0].len(), 4);
    }

    #[test]
    fn sh_is_constant_width_butterfly() {
        let g = build_graph(DtClass::A, DtGraph::Sh);
        assert_eq!(g.sources().len(), 16);
        assert_eq!(g.sinks().len(), 16);
        // Interior nodes: 2 in, 2 out.
        for r in 16..64 {
            assert_eq!(g.pred[r].len(), 2, "rank {r}");
            assert_eq!(g.succ[r].len(), 2, "rank {r}");
        }
    }

    #[test]
    fn edges_are_acyclic_and_rank_ordered_for_fan_graphs() {
        for shape in [DtGraph::Bh, DtGraph::Wh, DtGraph::Sh] {
            let g = build_graph(DtClass::B, shape);
            // Topological sanity: walk from sources, every node reachable.
            let mut indeg: Vec<usize> = g.pred.iter().map(Vec::len).collect();
            let mut queue: Vec<usize> = g.sources();
            let mut seen = 0;
            while let Some(v) = queue.pop() {
                seen += 1;
                for &s in &g.succ[v] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        queue.push(s);
                    }
                }
            }
            assert_eq!(seen, g.num_nodes(), "{shape:?} graph has a cycle");
        }
    }

    #[test]
    fn bh_volume_concentrates_at_sink() {
        let class = DtClass::A;
        let g = build_graph(class, DtGraph::Bh);
        let sink = g.sinks()[0];
        // The sink's combined buffer holds everything the sources produced.
        assert_eq!(produced_len(&g, class, sink), 16 * class.num_samples());
    }

    #[test]
    fn sh_conserves_volume_per_layer() {
        let class = DtClass::S;
        let g = build_graph(class, DtGraph::Sh);
        let w = class.leaves();
        let layers = g.num_nodes() / w;
        for l in 0..layers {
            let total: usize = (l * w..(l + 1) * w)
                .map(|r| produced_len(&g, class, r))
                .sum();
            assert_eq!(total, w * class.num_samples(), "layer {l}");
        }
    }

    #[test]
    fn unfolded_bytes_formula() {
        let class = DtClass::S;
        let g = build_graph(class, DtGraph::Wh);
        // WH: every node holds one source-array copy.
        assert_eq!(
            unfolded_bytes(&g, class),
            (g.num_nodes() * class.num_samples() * 8) as u64
        );
    }
}
