//! Graphviz (DOT) export of Pegasus graphs, in the paper's visual style:
//! solid edges for data, dotted for predicates, dashed for tokens;
//! multiplexors as trapezoids, merges/etas as triangles, combines as "V".
//!
//! A second mode, [`to_dot_heat`], overlays a simulation profile: nodes are
//! filled on a white→red ramp by firing count and outlined on a
//! black→blue ramp by the fraction of the run they spent stalled, turning
//! the circuit diagram into a heat map of where tokens serialize.

use crate::graph::{Graph, NodeId, NodeKind, VClass};
use fxmap::HashMap;
use std::fmt::Write;

/// Per-node measurements for the heat-map overlay ([`to_dot_heat`]).
///
/// The slice passed to `to_dot_heat` is indexed by `NodeId::index()`; the
/// simulator's profile converts to it without `pegasus` depending on the
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeHeat {
    /// Dynamic firing count.
    pub fires: u64,
    /// Fraction of the simulated run this node spent stalled (0..=1).
    pub stall_frac: f64,
}

/// Lint findings for the [`to_dot_lint`] overlay, mirroring the heat-map
/// overlay: flagged nodes are outlined in red and annotated with the rule
/// that fired; offending pairs (e.g. unordered may-aliasing memory
/// operations) are drawn as labelled red edges between the two nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintOverlay {
    /// Nodes to outline, each with a short annotation added to its label.
    pub marks: Vec<(NodeId, String)>,
    /// Node pairs to connect with an explicit labelled diagnostic edge.
    pub pairs: Vec<(NodeId, NodeId, String)>,
}

/// Renders `g` as a DOT digraph.
pub fn to_dot(g: &Graph, title: &str) -> String {
    render(g, title, None)
}

/// Renders `g` with lint findings overlaid: flagged nodes get a thick
/// crimson outline and their label grows a `!rule` line per finding; each
/// diagnostic pair becomes an undirected bold crimson edge labelled with
/// its rule, so a race shows up as a visible link between the two
/// unordered operations.
pub fn to_dot_lint(g: &Graph, title: &str, overlay: &LintOverlay) -> String {
    let mut marks: HashMap<NodeId, String> = HashMap::default();
    for (id, note) in &overlay.marks {
        let slot = marks.entry(*id).or_default();
        slot.push_str("\\n!");
        slot.push_str(&escape(note));
    }
    let mut s = render(g, title, None);
    // Splice the outline attributes in by re-rendering the flagged nodes:
    // simpler than threading a third mode through `render`, and the node
    // statement appended last wins in Graphviz.
    let closing = s.rfind('}').unwrap_or(s.len());
    s.truncate(closing);
    for (id, note) in &marks {
        if matches!(g.kind(*id), NodeKind::Removed) {
            continue;
        }
        let _ = writeln!(
            s,
            "  {} [label=\"{}\\n{}{}\" color=crimson penwidth=3.0];",
            id.index(),
            node_label(g, *id),
            id,
            note,
        );
    }
    for (a, b, note) in &overlay.pairs {
        let _ = writeln!(
            s,
            "  {} -> {} [style=bold color=crimson dir=none constraint=false label=\"{}\"];",
            a.index(),
            b.index(),
            escape(note),
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Critical-path measurements for the [`to_dot_crit`] overlay: how often
/// each static node, and each static edge, appeared on the dynamic
/// critical path extracted by the simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritOverlay {
    /// Per node (indexed by `NodeId::index()`): times on the critical path.
    pub node_counts: Vec<u64>,
    /// Critical edges `(src, dst, cycles attributed)`, self-edges excluded.
    pub edges: Vec<(NodeId, NodeId, u64)>,
}

/// Renders `g` with the dynamic critical path overlaid: nodes on the path
/// are filled on a white→orange ramp by how many path steps visited them,
/// and each critical edge is drawn as a bold orangered edge labelled with
/// the cycles it contributed — the static circuit annotated with the
/// dynamic chain that bounded its completion time.
pub fn to_dot_crit(g: &Graph, title: &str, overlay: &CritOverlay) -> String {
    let max_count = overlay.node_counts.iter().copied().max().unwrap_or(0);
    let mut s = render(g, title, None);
    let closing = s.rfind('}').unwrap_or(s.len());
    s.truncate(closing);
    for id in g.live_ids() {
        let count = overlay.node_counts.get(id.index()).copied().unwrap_or(0);
        if count == 0 || matches!(g.kind(id), NodeKind::Removed) {
            continue;
        }
        // Orange ramp (HSV hue 0.083), saturation by relative visit count.
        let sat = count as f64 / max_count.max(1) as f64;
        let _ = writeln!(
            s,
            "  {} [label=\"{}\\n{} crit={}\" style=filled fillcolor=\"0.083 {:.3} 1.000\"];",
            id.index(),
            node_label(g, id),
            id,
            count,
            sat,
        );
    }
    for (src, dst, cycles) in &overlay.edges {
        let _ = writeln!(
            s,
            "  {} -> {} [style=bold color=orangered constraint=false label=\"{} cy\"];",
            src.index(),
            dst.index(),
            cycles,
        );
    }
    let _ = writeln!(s, "}}");
    s
}

fn escape(t: &str) -> String {
    t.replace('\\', "\\\\").replace('"', "\\\"")
}

fn node_label(g: &Graph, id: NodeId) -> String {
    match g.kind(id) {
        NodeKind::Const { value, ty } => format!("{value}:{ty}"),
        NodeKind::Param { index, .. } => format!("arg{index}"),
        NodeKind::Addr { obj } => format!("&{obj}"),
        NodeKind::BinOp { op, .. } => format!("{op}"),
        NodeKind::UnOp { op, .. } => format!("{op}"),
        NodeKind::Cast { ty } => format!("({ty})"),
        NodeKind::Mux { .. } => "mux".into(),
        NodeKind::Merge { .. } => "merge".into(),
        NodeKind::Eta { .. } => "eta".into(),
        NodeKind::Combine => "V".into(),
        NodeKind::Load { ty, .. } => format!("load {ty}"),
        NodeKind::Store { ty, .. } => format!("store {ty}"),
        NodeKind::TokenGen { n } => format!("tk({n})"),
        NodeKind::Return { .. } => "ret".into(),
        NodeKind::InitialToken => "*".into(),
        NodeKind::Removed => String::new(),
    }
}

/// Renders `g` with a profile overlay: fill color encodes firing count
/// (white = never fired, saturated red = hottest node), border color and
/// width encode stall fraction, and each label carries the raw numbers.
///
/// Entries beyond `heat.len()` are treated as cold; this permits profiles
/// captured on a graph that later grew.
pub fn to_dot_heat(g: &Graph, title: &str, heat: &[NodeHeat]) -> String {
    render(g, title, Some(heat))
}

fn render(g: &Graph, title: &str, heat: Option<&[NodeHeat]>) -> String {
    let max_fires = heat.map(|h| h.iter().map(|n| n.fires).max().unwrap_or(0)).unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{title}\" {{");
    let _ = writeln!(s, "  rankdir=TB; node [fontsize=10];");
    for id in g.live_ids() {
        let (label, shape) = match g.kind(id) {
            NodeKind::Const { value, ty } => (format!("{value}:{ty}"), "plaintext"),
            NodeKind::Param { index, .. } => (format!("arg{index}"), "ellipse"),
            NodeKind::Addr { obj } => (format!("&{obj}"), "plaintext"),
            NodeKind::BinOp { op, .. } => (format!("{op}"), "circle"),
            NodeKind::UnOp { op, .. } => (format!("{op}"), "circle"),
            NodeKind::Cast { ty } => (format!("({ty})"), "circle"),
            NodeKind::Mux { .. } => ("mux".into(), "trapezium"),
            NodeKind::Merge { .. } => ("merge".into(), "triangle"),
            NodeKind::Eta { .. } => ("eta".into(), "invtriangle"),
            NodeKind::Combine => ("V".into(), "point"),
            NodeKind::Load { ty, .. } => (format!("load {ty}"), "box"),
            NodeKind::Store { ty, .. } => (format!("store {ty}"), "box"),
            NodeKind::TokenGen { n } => (format!("tk({n})"), "doublecircle"),
            NodeKind::Return { .. } => ("ret".into(), "house"),
            NodeKind::InitialToken => ("*".into(), "plaintext"),
            NodeKind::Removed => continue,
        };
        match heat {
            None => {
                let _ = writeln!(
                    s,
                    "  {} [label=\"{}\\n{}\" shape={} ];",
                    id.index(),
                    label,
                    id,
                    shape
                );
            }
            Some(h) => {
                let nh = h.get(id.index()).copied().unwrap_or_default();
                // Fill: white -> red by firing count relative to the
                // hottest node (HSV hue 0, saturation = heat).
                let sat = if max_fires == 0 { 0.0 } else { nh.fires as f64 / max_fires as f64 };
                let stall = nh.stall_frac.clamp(0.0, 1.0);
                let _ = writeln!(
                    s,
                    "  {} [label=\"{}\\n{} f={} s={:.0}%\" shape={} style=filled \
                     fillcolor=\"0.000 {:.3} 1.000\" color=\"0.611 {:.3} {:.3}\" \
                     penwidth={:.1} ];",
                    id.index(),
                    label,
                    id,
                    nh.fires,
                    100.0 * stall,
                    shape,
                    sat,
                    stall,
                    0.2 + 0.8 * stall,
                    1.0 + 3.0 * stall,
                );
            }
        }
    }
    for id in g.live_ids() {
        for p in 0..g.num_inputs(id) {
            if let Some(inp) = g.input(id, p as u16) {
                let style = match g.kind(inp.src.node).output_class(inp.src.port) {
                    VClass::Data => "solid",
                    VClass::Pred => "dotted",
                    VClass::Token => "dashed",
                };
                let constraint = if inp.back { " constraint=false color=red" } else { "" };
                let _ = writeln!(
                    s,
                    "  {} -> {} [style={style}{constraint}];",
                    inp.src.node.index(),
                    id.index()
                );
            }
        }
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeKind, Src};
    use cfgir::types::Type;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let e = g.add_node(NodeKind::Eta { vc: crate::graph::VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(t), e, 0);
        g.connect(Src::of(p), e, 1);
        g
    }

    #[test]
    fn dot_contains_nodes_and_styles() {
        let dot = to_dot(&tiny_graph(), "test");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("eta"));
        assert!(dot.contains("style=dashed"), "token edge must be dashed");
        assert!(dot.contains("style=dotted"), "predicate edge must be dotted");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn heat_overlay_colors_by_fires_and_stalls() {
        let g = tiny_graph();
        let heat = vec![
            NodeHeat { fires: 1, stall_frac: 0.0 },
            NodeHeat { fires: 0, stall_frac: 0.0 },
            NodeHeat { fires: 4, stall_frac: 0.5 },
        ];
        let dot = to_dot_heat(&g, "hot", &heat);
        assert!(dot.contains("style=filled"));
        // Hottest node is fully saturated; a never-fired node is white.
        assert!(dot.contains("fillcolor=\"0.000 1.000 1.000\""), "{dot}");
        assert!(dot.contains("fillcolor=\"0.000 0.000 1.000\""), "{dot}");
        assert!(dot.contains("f=4 s=50%"), "{dot}");
        // Plain mode is unchanged by the overlay's existence.
        assert!(!to_dot(&g, "plain").contains("fillcolor"));
    }

    #[test]
    fn lint_overlay_outlines_nodes_and_links_pairs() {
        let g = tiny_graph();
        let ids: Vec<_> = g.live_ids().collect();
        let overlay = LintOverlay {
            marks: vec![(ids[2], "token_unreachable".into())],
            pairs: vec![(ids[0], ids[2], "token_race".into())],
        };
        let dot = to_dot_lint(&g, "lint", &overlay);
        assert!(dot.contains("color=crimson penwidth=3.0"), "{dot}");
        assert!(dot.contains("!token_unreachable"), "{dot}");
        assert!(dot.contains("dir=none constraint=false label=\"token_race\""), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot:?}");
        // Plain mode is unchanged by the overlay's existence.
        assert!(!to_dot(&g, "plain").contains("crimson"));
    }

    #[test]
    fn crit_overlay_fills_path_nodes_and_labels_edges() {
        let g = tiny_graph();
        let ids: Vec<_> = g.live_ids().collect();
        let overlay = CritOverlay { node_counts: vec![1, 0, 3], edges: vec![(ids[0], ids[2], 17)] };
        let dot = to_dot_crit(&g, "crit", &overlay);
        // Most-visited node is fully saturated orange; untouched nodes are
        // not re-rendered at all.
        assert!(dot.contains("crit=3"), "{dot}");
        assert!(dot.contains("fillcolor=\"0.083 1.000 1.000\""), "{dot}");
        assert!(!dot.contains("crit=0"), "{dot}");
        assert!(dot.contains("color=orangered constraint=false label=\"17 cy\""), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot:?}");
        // Plain mode is unchanged by the overlay's existence.
        assert!(!to_dot(&g, "plain").contains("orangered"));
    }

    #[test]
    fn heat_overlay_tolerates_short_slices() {
        let g = tiny_graph();
        let dot = to_dot_heat(&g, "short", &[NodeHeat { fires: 2, stall_frac: 0.1 }]);
        assert!(dot.contains("f=0 s=0%"), "missing entries render cold: {dot}");
    }
}
