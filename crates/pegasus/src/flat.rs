//! Flat (dense) port numbering and a CSR consumer adjacency.
//!
//! The simulator's hot loop asks three questions per event: *who consumes
//! output `(node, port)`*, *how full is input `(node, port)`*, and *is
//! there space there*. Answering them through `Graph`'s per-node `Vec`s
//! means a pointer chase and a linear filter over `uses(node)` for every
//! delivered value. This module flattens both sides once, up front:
//!
//! - every **input port** `(node, dst_port)` gets a dense id
//!   `in_base[node] + dst_port`, so per-port state (FIFOs, reservation
//!   counters) lives in plain arrays instead of `HashMap<(u32,u16), _>`;
//! - every **output port** `(node, src_port)` gets a dense id
//!   `out_base[node] + src_port`, and the use records are bucketed into
//!   one CSR edge array sliced per output port — `consumers(node, port)`
//!   is a contiguous `&[FlatUse]` with the destination's flat input id
//!   precomputed.
//!
//! Consumer order within a slice preserves the graph's use-record order,
//! so event-delivery order (and therefore merge arbitration) is identical
//! to walking `uses(node)` with a `src_port` filter.

use crate::graph::{Graph, NodeId};

/// One consumer of an output port, with the destination input port's flat
/// id precomputed so delivery touches no per-node tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatUse {
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port.
    pub dst_port: u16,
    /// Flat id of `(dst, dst_port)` (index into per-input-port arrays).
    pub dst_flat: u32,
}

/// Dense port numbering plus the CSR consumer adjacency of one [`Graph`].
#[derive(Debug, Clone)]
pub struct FlatPorts {
    /// Per node index: first flat input-port id (length `len + 1`; the
    /// last entry is the total input-port count).
    in_base: Vec<u32>,
    /// Per node index: first flat output-port id (length `len + 1`).
    out_base: Vec<u32>,
    /// CSR offsets per flat output port (length `num_out_ports + 1`).
    csr_off: Vec<u32>,
    /// CSR edge array: consumers, bucketed by producer output port.
    csr: Vec<FlatUse>,
}

impl FlatPorts {
    /// Flattens `g`'s ports and use records. `O(nodes + edges)`.
    pub fn new(g: &Graph) -> FlatPorts {
        let n = g.len();
        let mut in_base = Vec::with_capacity(n + 1);
        let mut out_base = Vec::with_capacity(n + 1);
        let (mut ti, mut to) = (0u32, 0u32);
        for id in g.ids() {
            in_base.push(ti);
            out_base.push(to);
            ti += g.num_inputs(id) as u32;
            to += u32::from(g.kind(id).num_outputs());
        }
        in_base.push(ti);
        out_base.push(to);

        // Counting sort of the use records into per-output-port buckets.
        let mut csr_off = vec![0u32; to as usize + 1];
        let mut edges = 0usize;
        for id in g.ids() {
            for u in g.uses(id) {
                csr_off[(out_base[id.index()] + u32::from(u.src_port)) as usize + 1] += 1;
                edges += 1;
            }
        }
        for i in 1..csr_off.len() {
            csr_off[i] += csr_off[i - 1];
        }
        let mut cursor: Vec<u32> = csr_off[..csr_off.len() - 1].to_vec();
        let mut csr = vec![FlatUse { dst: NodeId(0), dst_port: 0, dst_flat: 0 }; edges];
        for id in g.ids() {
            for u in g.uses(id) {
                let p = (out_base[id.index()] + u32::from(u.src_port)) as usize;
                let at = cursor[p] as usize;
                cursor[p] += 1;
                csr[at] = FlatUse {
                    dst: u.dst,
                    dst_port: u.dst_port,
                    dst_flat: in_base[u.dst.index()] + u32::from(u.dst_port),
                };
            }
        }
        FlatPorts { in_base, out_base, csr_off, csr }
    }

    /// Total number of flat input ports.
    pub fn num_in_ports(&self) -> usize {
        *self.in_base.last().expect("non-empty base table") as usize
    }

    /// Total number of flat output ports.
    pub fn num_out_ports(&self) -> usize {
        *self.out_base.last().expect("non-empty base table") as usize
    }

    /// Flat id of input port `(node, port)`.
    #[inline]
    pub fn in_id(&self, node: NodeId, port: u16) -> u32 {
        self.in_base[node.index()] + u32::from(port)
    }

    /// Flat id of output port `(node, port)`.
    #[inline]
    pub fn out_id(&self, node: NodeId, port: u16) -> u32 {
        self.out_base[node.index()] + u32::from(port)
    }

    /// The consumers of output `(node, port)`, in use-record order.
    #[inline]
    pub fn consumers(&self, node: NodeId, port: u16) -> &[FlatUse] {
        let p = self.out_id(node, port) as usize;
        &self.csr[self.csr_off[p] as usize..self.csr_off[p + 1] as usize]
    }

    /// The CSR slice bounds of output `(node, port)` — for callers that
    /// need to iterate by index while mutating unrelated state.
    #[inline]
    pub fn consumer_range(&self, node: NodeId, port: u16) -> (usize, usize) {
        let p = self.out_id(node, port) as usize;
        (self.csr_off[p] as usize, self.csr_off[p + 1] as usize)
    }

    /// The CSR edge at `idx` (see [`Self::consumer_range`]).
    #[inline]
    pub fn consumer_at(&self, idx: usize) -> FlatUse {
        self.csr[idx]
    }

    /// Flat input-port id range `[start, end)` of `node`, so a walk over
    /// the node's inputs addresses per-port state with no table lookup.
    #[inline]
    pub fn in_range(&self, node: NodeId) -> (u32, u32) {
        (self.in_base[node.index()], self.in_base[node.index() + 1])
    }

    /// Flat output-port id range `[start, end)` of `node`.
    #[inline]
    pub fn out_range(&self, node: NodeId) -> (u32, u32) {
        (self.out_base[node.index()], self.out_base[node.index() + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeKind, Src};
    use cfgir::objects::ObjectSet;
    use cfgir::types::{BinOp, Type};

    #[test]
    fn csr_matches_filtered_uses() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let ld = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        let add = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        g.connect(Src::of(a), ld, 0);
        g.connect(Src::of(p), ld, 1);
        g.connect(Src::of(t), ld, 2);
        g.connect(Src::of(ld), add, 0); // load value (port 0)
        g.connect(Src::of(a), add, 1);
        let ret = g.add_node(NodeKind::Return { has_value: true, ty: Type::int(32) }, 3, 0);
        g.connect(Src::of(p), ret, 0);
        g.connect(Src::token_of_load(ld), ret, 1); // load token (port 1)
        g.connect(Src::of(add), ret, 2);

        let f = FlatPorts::new(&g);
        for id in g.live_ids() {
            let nout = g.kind(id).num_outputs();
            for port in 0..nout {
                let want: Vec<(NodeId, u16)> = g
                    .uses(id)
                    .iter()
                    .filter(|u| u.src_port == port)
                    .map(|u| (u.dst, u.dst_port))
                    .collect();
                let got: Vec<(NodeId, u16)> =
                    f.consumers(id, port).iter().map(|u| (u.dst, u.dst_port)).collect();
                assert_eq!(want, got, "consumers of {id}:{port}");
                for u in f.consumers(id, port) {
                    assert_eq!(u.dst_flat, f.in_id(u.dst, u.dst_port));
                }
            }
        }
        // Flat input ids are dense and unique.
        assert_eq!(f.num_in_ports(), g.ids().map(|id| g.num_inputs(id)).sum::<usize>());
        assert_eq!(f.in_id(ld, 2) - f.in_id(ld, 0), 2);
        // The per-node ranges agree with the by-(node, port) ids.
        assert_eq!(f.in_range(ld), (f.in_id(ld, 0), f.in_id(ld, 0) + 3));
        assert_eq!(f.out_range(ld), (f.out_id(ld, 0), f.out_id(ld, 0) + 2));
    }

    #[test]
    fn removed_nodes_take_no_ports() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let n = g.add_node(NodeKind::UnOp { op: cfgir::types::UnOp::Neg, ty: Type::int(32) }, 1, 0);
        g.connect(Src::of(a), n, 0);
        g.remove_node(n);
        let f = FlatPorts::new(&g);
        assert_eq!(f.num_in_ports(), 0);
        assert_eq!(f.num_out_ports(), 1); // only the constant's output
        assert!(f.consumers(a, 0).is_empty());
    }
}
