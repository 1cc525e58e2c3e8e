//! Dynamic critical-path attribution (cash-crit).
//!
//! When [`SimConfig::critpath`](crate::SimConfig) is set, the executor
//! records, for every firing, its *last-arriving input* — the critical
//! parent. The recorded parents form a last-arrival DAG over dynamic
//! events; walking backward from the `Return` firing yields the one chain
//! of causally-ordered events whose latencies sum to the completion time.
//! This answers the question the per-node stall profile cannot: not "how
//! long did node X wait", but "*which* dependences bound the whole run".
//!
//! Every event on the path is classified by the kind of edge that made it
//! critical ([`EdgeClass`]): a data operand, a predicate, a memory token,
//! an LSQ-order release, the memory access latency itself (split into
//! cache hits and misses), or output-space backpressure. Because each step
//! contributes exactly `t(child) - t(parent)` cycles, the per-class totals
//! telescope to `cycles - start` — the attribution always covers 100% of
//! the run past the path's origin (an initial token or an entry-hyperblock
//! firing at cycle 0).
//!
//! The recorder follows the PR 3 discipline: flat preallocated arrays
//! indexed by record id, a single slab mirroring the channel FIFOs, and no
//! per-event allocation on the hot path. The walk and aggregation run once
//! at completion.
//!
//! The two buffers that grow with the run, the record stream and the
//! summary's hop list, are recycled (the `spare` module): taken when
//! recording starts or the summary is built, given back when the
//! [`CritState`] or the [`CritSummary`] drops.

use std::cell::Cell;

use crate::memory::MemTimeline;
use crate::spare;
use pegasus::{NodeId, VClass};

thread_local! {
    /// This thread's spare record stream.
    pub(crate) static RECS_SPARE: Cell<Vec<Rec>> = const { Cell::new(Vec::new()) };
    /// This thread's spare hop list.
    pub(crate) static HOPS_SPARE: Cell<Vec<(NodeId, u64)>> = const { Cell::new(Vec::new()) };
}

/// Sentinel record id: "no record" (critpath off, or a path root).
pub(crate) const NO_REC: u32 = u32::MAX;

/// Number of [`EdgeClass`] variants (the `classes` array length).
pub const NUM_EDGE_CLASSES: usize = 7;

/// What made a critical-path step wait: the class of the last-arriving
/// edge into the firing at the step's head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EdgeClass {
    /// A data operand was the last to arrive.
    Data = 0,
    /// A predicate operand was the last to arrive.
    Pred = 1,
    /// A memory-dependence token was the last to arrive.
    Token = 2,
    /// The request sat in the LSQ queue waiting for a port (self-edge).
    LsqOrder = 3,
    /// The memory access latency itself, on a hit or perfect memory
    /// (self-edge from issue to completion).
    MemLat = 4,
    /// The memory access latency of a cache or TLB miss (self-edge).
    CacheMiss = 5,
    /// All inputs were ready but a consumer channel was full (self-edge
    /// from readiness to the actual firing).
    Backpressure = 6,
}

impl EdgeClass {
    /// All classes, in serialization order.
    pub const ALL: [EdgeClass; NUM_EDGE_CLASSES] = [
        EdgeClass::Data,
        EdgeClass::Pred,
        EdgeClass::Token,
        EdgeClass::LsqOrder,
        EdgeClass::MemLat,
        EdgeClass::CacheMiss,
        EdgeClass::Backpressure,
    ];

    /// Stable JSON key / display label.
    pub fn label(self) -> &'static str {
        match self {
            EdgeClass::Data => "data",
            EdgeClass::Pred => "pred",
            EdgeClass::Token => "token",
            EdgeClass::LsqOrder => "lsq_order",
            EdgeClass::MemLat => "mem",
            EdgeClass::CacheMiss => "cache_miss",
            EdgeClass::Backpressure => "backpressure",
        }
    }

    pub(crate) fn of_vclass(vc: VClass) -> EdgeClass {
        match vc {
            VClass::Data => EdgeClass::Data,
            VClass::Pred => EdgeClass::Pred,
            VClass::Token => EdgeClass::Token,
        }
    }

    pub(crate) fn from_u8(b: u8) -> EdgeClass {
        EdgeClass::ALL[b as usize]
    }
}

/// One aggregated critical-path edge between two static nodes (`src ==
/// dst` for the self-edge classes: LSQ order, memory latency,
/// backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritEdge {
    /// The parent (upstream) node of the step.
    pub src: NodeId,
    /// The node whose firing waited.
    pub dst: NodeId,
    /// Why it waited.
    pub class: EdgeClass,
    /// Total cycles this edge contributed to the critical path.
    pub cycles: u64,
    /// How many path steps crossed this edge.
    pub count: u64,
}

/// The aggregated critical path of one simulation
/// ([`SimResult::crit`](crate::SimResult)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritSummary {
    /// Cycles attributed to each [`EdgeClass`], indexed by `class as
    /// usize`. Sums to `cycles - start`.
    pub classes: [u64; NUM_EDGE_CLASSES],
    /// Number of distinct node visits along the path (root and return
    /// included; the self-edge classes do not add visits).
    pub path_len: u64,
    /// Cycle of the path's root event (0 unless the origin fired late).
    pub start: u64,
    /// Per static node: how many times the path visits it (indexed by
    /// `NodeId::index()`), for the [`pegasus::to_dot_crit`] heat overlay.
    pub node_counts: Vec<u64>,
    /// Aggregated path edges, most critical (by cycles) first.
    pub edges: Vec<CritEdge>,
    /// Memory-system occupancy timeline of the same run.
    pub timeline: MemTimeline,
    /// The path itself in forward (root → return) order: one `(node,
    /// cycle)` entry per distinct-node visit. Omitted from
    /// [`Self::to_json`] (it scales with the run length); consumed by the
    /// `cashdbg` `crit` command to jump along the recorded path.
    pub hops: Vec<(NodeId, u64)>,
}

impl Drop for CritSummary {
    fn drop(&mut self) {
        spare::give(&HOPS_SPARE, std::mem::take(&mut self.hops));
    }
}

impl CritSummary {
    /// Cycles attributed to one class.
    pub fn class_cycles(&self, c: EdgeClass) -> u64 {
        self.classes[c as usize]
    }

    /// Total attributed cycles across all classes (`cycles - start`).
    pub fn attributed_total(&self) -> u64 {
        self.classes.iter().sum()
    }

    /// The `k` most critical edges (pre-sorted by attributed cycles).
    pub fn top_edges(&self, k: usize) -> &[CritEdge] {
        &self.edges[..k.min(self.edges.len())]
    }

    /// The per-class split as a `cash-stats-v1` JSON object.
    pub fn classes_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{");
        for (i, c) in EdgeClass::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", c.label(), self.classes[i]);
        }
        s.push('}');
        s
    }

    /// Serializes the summary in the shared `cash-stats-v1` JSON dialect
    /// (stable key order, no whitespace). The per-node counts and the full
    /// edge list are deliberately omitted to keep stats lines small; use
    /// [`pegasus::to_dot_crit`] and [`Self::top_edges`] for those.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path_len\":{},\"start\":{},\"attributed\":{},\"classes\":{},\"mem\":{}}}",
            self.path_len,
            self.start,
            self.attributed_total(),
            self.classes_json(),
            self.timeline.to_json(),
        )
    }
}

/// The executor-side recorder: a flat last-arrival DAG plus a parallel
/// channel slab mirroring the port FIFOs.
///
/// Each *record* is one attributable event: a firing, or a self-edge stage
/// of one (readiness before backpressure, LSQ issue, memory completion).
/// `parent[r]` points at the record of the event whose edge made `r` wait
/// and `class[r]` labels that edge; `t[r]` is the event's cycle, so a path
/// step contributes `t[r] - t[parent[r]]` cycles to `class[r]`.
#[derive(Clone)]
pub(crate) struct CritState {
    recs: Vec<Rec>,
    /// Channel slab, same geometry as `PortFifos`: one `(record, arrival
    /// cycle, edge class)` entry per FIFO slot, addressed by the flat slot
    /// index the value FIFO reports from `push_back`/`pop_front` — the ring
    /// bookkeeping (head, len, wrap) lives only on the value side.
    slots: Vec<(u32, u64, u8)>,
    /// Per flat output port: the `EdgeClass` of values it produces,
    /// precomputed so delivery indexes a table instead of matching on
    /// `NodeKind`.
    pub(crate) out_class: Vec<u8>,
    /// Latest arrival among the current firing's popped inputs, stored as
    /// `arrival + 1` so `0` means "no candidate yet" — the reset on every
    /// firing attempt ([`Self::begin_fire`]) then writes 16 adjacent bytes
    /// instead of a discriminated 24-byte `Option`, and the first offer
    /// wins the `>` against 0 even at arrival cycle 0. Ties keep the first
    /// (lowest-port) offer, making the tie-break deterministic under the
    /// fixed pop order.
    best_p1: u64,
    best_rec: u32,
    best_class: u8,
    /// The current firing's record (`NO_REC` when none yet), created
    /// lazily on first emission.
    cur: u32,
    cur_node: u32,
    /// The record of the successful `Return` firing: the walk's origin.
    pub(crate) ret_rec: Option<u32>,
    /// Memory-system occupancy timeline (LSQ + per-level outstanding).
    pub(crate) timeline: MemTimeline,
}

/// One attributable event, packed to 16 bytes so a firing appends a
/// single element and the record stream stays dense: the edge class lives
/// in the top 3 bits of `node_class` (node indices are comfortably below
/// 2^29).
#[derive(Clone, Copy)]
pub(crate) struct Rec {
    t: u64,
    node_class: u32,
    parent: u32,
}

impl Rec {
    #[inline]
    fn node(self) -> u32 {
        self.node_class & ((1 << 29) - 1)
    }

    #[inline]
    fn class(self) -> u8 {
        (self.node_class >> 29) as u8
    }
}

impl CritState {
    pub(crate) fn new(num_in_ports: usize, cap: usize, out_class: Vec<u8>) -> CritState {
        let mut recs = spare::take(&RECS_SPARE);
        recs.reserve(1024);
        CritState {
            recs,
            // Zero-filled on purpose (a calloc'd, lazily-faulted slab):
            // slots are write-before-read in lockstep with the value FIFOs,
            // so the fill value is never observed.
            slots: vec![(0, 0, 0); num_in_ports * cap],
            out_class,
            best_p1: 0,
            best_rec: NO_REC,
            best_class: 0,
            cur: NO_REC,
            cur_node: 0,
            ret_rec: None,
            timeline: MemTimeline::default(),
        }
    }

    /// Zero-capacity recorder for runs with recording off: no spare is
    /// taken, and its hooks must not be reached.
    pub(crate) fn off() -> CritState {
        CritState {
            recs: Vec::new(),
            slots: Vec::new(),
            out_class: Vec::new(),
            best_p1: 0,
            best_rec: NO_REC,
            best_class: 0,
            cur: NO_REC,
            cur_node: 0,
            ret_rec: None,
            timeline: MemTimeline::default(),
        }
    }

    /// Appends a record; returns its id.
    pub(crate) fn push_rec(&mut self, node: u32, parent: u32, class: EdgeClass, t: u64) -> u32 {
        debug_assert!(node < 1 << 29, "node index overflows the packed record");
        let r = self.recs.len() as u32;
        self.recs.push(Rec { t, node_class: node | ((class as u32) << 29), parent });
        r
    }

    #[cfg(test)]
    fn rec_t(&self, r: u32) -> u64 {
        self.recs[r as usize].t
    }

    /// Records the provenance of the value the FIFO just placed in slot
    /// `at` (the index `PortFifos::push_back` returned).
    pub(crate) fn channel_push(&mut self, at: usize, rec: u32, arrive: u64, class: EdgeClass) {
        debug_assert!(rec != NO_REC, "emission without a firing record");
        self.slots[at] = (rec, arrive, class as u8);
    }

    /// Offers the entry the FIFO just popped from slot `at` as the current
    /// firing's critical-parent candidate.
    pub(crate) fn pop_and_offer(&mut self, at: usize) {
        let (rec, arrive, class) = self.slots[at];
        // Strict `>`: on ties the earliest offer (lowest port) wins, so
        // the tie-break is stable under the deterministic pop order (and
        // the first offer always beats the empty sentinel 0).
        if arrive + 1 > self.best_p1 {
            self.best_p1 = arrive + 1;
            self.best_rec = rec;
            self.best_class = class;
        }
    }

    /// The current firing's critical-parent candidate, if any.
    pub(crate) fn best(&self) -> Option<(u64, u32, u8)> {
        (self.best_p1 != 0).then(|| (self.best_p1 - 1, self.best_rec, self.best_class))
    }

    /// Seeds the candidate (used by token generators to chain a banked
    /// grant to the generator's most recent absorb).
    pub(crate) fn seed_best(&mut self, (arrive, rec, class): (u64, u32, u8)) {
        self.best_p1 = arrive + 1;
        self.best_rec = rec;
        self.best_class = class;
    }

    /// Resets per-firing state; called at the top of every firing attempt.
    pub(crate) fn begin_fire(&mut self, node: u32) {
        self.best_p1 = 0;
        self.cur = NO_REC;
        self.cur_node = node;
    }

    /// The record of the current firing, created on first use: parented on
    /// the last-arriving input, with an extra backpressure self-edge when
    /// the firing happened after all inputs were ready. Firings with no
    /// recorded (non-sticky) inputs are path roots.
    pub(crate) fn fire_rec(&mut self, now: u64) -> u32 {
        if self.cur != NO_REC {
            return self.cur;
        }
        let node = self.cur_node;
        let r = match self.best() {
            Some((arrive, prec, class)) => {
                let ready = self.push_rec(node, prec, EdgeClass::from_u8(class), arrive);
                if now > arrive {
                    self.push_rec(node, ready, EdgeClass::Backpressure, now)
                } else {
                    ready
                }
            }
            None => self.push_rec(node, NO_REC, EdgeClass::Data, now),
        };
        self.cur = r;
        r
    }
}

impl Drop for CritState {
    fn drop(&mut self) {
        spare::give(&RECS_SPARE, std::mem::take(&mut self.recs));
    }
}

/// No edge: the end of a per-destination chain in [`summarize`].
const NO_EDGE: u32 = u32::MAX;

/// Walks backward from the return record and aggregates the path over a
/// graph of `nodes` nodes.
///
/// Each step folds into its `(src, dst, class)` edge as the walk reaches
/// it: `first[dst]` heads a chain, threaded through `next`, of the edges
/// found so far into `dst`, and a node has only a few distinct incoming
/// `(src, class)` pairs on any one path. Only the distinct edges are
/// sorted, by attributed cycles and then by key — a total order, so the
/// result does not depend on the order the walk found them in.
pub(crate) fn summarize(st: &CritState, nodes: usize) -> CritSummary {
    let mut s = CritSummary {
        classes: [0; NUM_EDGE_CLASSES],
        path_len: 0,
        start: 0,
        node_counts: vec![0; nodes],
        edges: Vec::new(),
        timeline: st.timeline.clone(),
        hops: spare::take(&HOPS_SPARE),
    };
    let Some(mut r) = st.ret_rec else {
        return s;
    };
    let mut first = vec![NO_EDGE; nodes];
    let mut next: Vec<u32> = Vec::new();
    loop {
        let rec = st.recs[r as usize];
        let node = rec.node() as usize;
        let p = rec.parent;
        if p == NO_REC {
            s.start = rec.t;
            s.node_counts[node] += 1;
            s.path_len += 1;
            s.hops.push((NodeId(node as u32), rec.t));
            break;
        }
        let parent = st.recs[p as usize];
        let src = NodeId(parent.node());
        let class = EdgeClass::from_u8(rec.class());
        let dt = rec.t - parent.t;
        s.classes[class as usize] += dt;
        if src.index() != node {
            // A distinct-node step is a path visit; self-edge stages
            // (backpressure, LSQ, memory latency) refine the same visit.
            s.node_counts[node] += 1;
            s.path_len += 1;
            s.hops.push((NodeId(node as u32), rec.t));
        }
        let mut e = first[node];
        while e != NO_EDGE {
            let edge = &s.edges[e as usize];
            if (edge.src, edge.class) == (src, class) {
                break;
            }
            e = next[e as usize];
        }
        if e == NO_EDGE {
            next.push(first[node]);
            first[node] = s.edges.len() as u32;
            s.edges.push(CritEdge { src, dst: NodeId(node as u32), class, cycles: dt, count: 1 });
        } else {
            let edge = &mut s.edges[e as usize];
            edge.cycles += dt;
            edge.count += 1;
        }
        r = p;
    }
    s.edges.sort_unstable_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
            .then((a.class as u8).cmp(&(b.class as u8)))
    });
    // The backward walk pushed return-first; flip to root → return order.
    s.hops.reverse();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = fxmap::HashSet::default();
        for c in EdgeClass::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
            assert_eq!(EdgeClass::from_u8(c as u8), c);
        }
        assert_eq!(seen.len(), NUM_EDGE_CLASSES);
    }

    #[test]
    fn tie_break_keeps_the_earliest_offer() {
        let mut st = CritState::new(4, 2, Vec::new());
        let a = st.push_rec(0, NO_REC, EdgeClass::Data, 0);
        let b = st.push_rec(1, NO_REC, EdgeClass::Data, 0);
        st.channel_push(0, a, 5, EdgeClass::Data);
        st.channel_push(1, b, 5, EdgeClass::Token);
        st.begin_fire(2);
        st.pop_and_offer(0);
        st.pop_and_offer(1);
        assert_eq!(st.best(), Some((5, a, EdgeClass::Data as u8)), "tie keeps the first offer");
        let r = st.fire_rec(5);
        assert_eq!(st.rec_t(r), 5);
        assert_eq!(st.fire_rec(9), r, "the firing record is cached");
    }

    #[test]
    fn backpressure_splits_the_firing_record() {
        let mut st = CritState::new(2, 2, Vec::new());
        let a = st.push_rec(0, NO_REC, EdgeClass::Data, 0);
        st.channel_push(0, a, 3, EdgeClass::Pred);
        st.begin_fire(1);
        st.pop_and_offer(0);
        let r = st.fire_rec(7);
        assert_eq!(st.rec_t(r), 7);
        assert_eq!(st.recs[r as usize].class(), EdgeClass::Backpressure as u8);
        let ready = st.recs[r as usize].parent;
        assert_eq!(st.rec_t(ready), 3);
        assert_eq!(st.recs[ready as usize].class(), EdgeClass::Pred as u8);
    }

    /// xorshift64, as in `sched`'s tests: a seeded chain that reproduces
    /// forever.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// The reference fold: one `(src, dst, class, dt)` per path step,
    /// sorted by key and merged per edge, then sorted by cycles.
    fn sort_fold(st: &CritState, nodes: usize) -> CritSummary {
        let mut s = CritSummary {
            classes: [0; NUM_EDGE_CLASSES],
            path_len: 0,
            start: 0,
            node_counts: vec![0; nodes],
            edges: Vec::new(),
            timeline: st.timeline.clone(),
            hops: Vec::new(),
        };
        let Some(mut r) = st.ret_rec else {
            return s;
        };
        let mut steps: Vec<(u32, u32, u8, u64)> = Vec::new();
        loop {
            let rec = st.recs[r as usize];
            let node = rec.node() as usize;
            let p = rec.parent;
            if p == NO_REC {
                s.start = rec.t;
                s.node_counts[node] += 1;
                s.path_len += 1;
                s.hops.push((NodeId(node as u32), rec.t));
                break;
            }
            let parent = st.recs[p as usize];
            let pnode = parent.node();
            let dt = rec.t - parent.t;
            s.classes[rec.class() as usize] += dt;
            if pnode as usize != node {
                s.node_counts[node] += 1;
                s.path_len += 1;
                s.hops.push((NodeId(node as u32), rec.t));
            }
            steps.push((pnode, node as u32, rec.class(), dt));
            r = p;
        }
        steps.sort_unstable_by_key(|&(src, dst, class, _)| (src, dst, class));
        for (src, dst, class, dt) in steps {
            match s.edges.last_mut() {
                Some(e) if (e.src.0, e.dst.0, e.class as u8) == (src, dst, class) => {
                    e.cycles += dt;
                    e.count += 1;
                }
                _ => s.edges.push(CritEdge {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    class: EdgeClass::from_u8(class),
                    cycles: dt,
                    count: 1,
                }),
            }
        }
        s.edges.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
                .then((a.class as u8).cmp(&(b.class as u8)))
        });
        s.hops.reverse();
        s
    }

    #[test]
    fn walk_fold_matches_the_sort_fold() {
        let (mut repeated, mut self_edges, mut cycle_ties) = (0, 0, 0);
        for seed in 1..=200u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let nodes = 1 + rng.below(9) as usize;
            let mut st = CritState::new(0, 1, Vec::new());
            let mut last = st.push_rec(rng.below(nodes as u64) as u32, NO_REC, EdgeClass::Data, 0);
            for _ in 0..rng.below(600) {
                // Mostly extend the newest record, sometimes branch off an
                // older one; zero-cycle steps tie records in time, and a
                // quarter of the steps are self-edges.
                let parent =
                    if rng.below(4) == 0 { rng.below(u64::from(last) + 1) as u32 } else { last };
                let prec = st.recs[parent as usize];
                let node =
                    if rng.below(4) == 0 { prec.node() } else { rng.below(nodes as u64) as u32 };
                let class = EdgeClass::from_u8(rng.below(NUM_EDGE_CLASSES as u64) as u8);
                last = st.push_rec(node, parent, class, prec.t + rng.below(3));
            }
            if rng.below(8) != 0 {
                st.ret_rec = Some(last);
            }
            let want = sort_fold(&st, nodes);
            let got = summarize(&st, nodes);
            assert_eq!(got, want, "seed {seed}");
            if let Some(r) = st.ret_rec {
                assert_eq!(got.attributed_total(), st.rec_t(r) - got.start, "seed {seed}");
            }
            repeated += got.edges.iter().filter(|e| e.count > 1).count();
            self_edges += got.edges.iter().filter(|e| e.src == e.dst).count();
            cycle_ties += got.edges.windows(2).filter(|w| w[0].cycles == w[1].cycles).count();
        }
        assert!(repeated > 0 && self_edges > 0 && cycle_ties > 0, "the chains miss a case");
    }

    #[test]
    fn summary_json_has_all_class_keys() {
        let s = CritSummary::default();
        let j = s.to_json();
        for c in EdgeClass::ALL {
            assert!(j.contains(&format!("\"{}\":0", c.label())), "{j}");
        }
        assert!(j.starts_with("{\"path_len\":0,\"start\":0,\"attributed\":0"));
    }
}
