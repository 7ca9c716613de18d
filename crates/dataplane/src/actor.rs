//! The switch actor: a self-contained state machine running the distributed rendition
//! of SOAR (gather, color) followed by the Reduce dataplane of Algorithm 1.
//!
//! An actor never touches shared state: it reacts to decoded [`Frame`]s arriving from
//! its parent or children and emits encoded frames towards its parent, its children, or
//! the destination. The same actor code is driven by the single-threaded
//! [`crate::runtime::run_inline`] executor and by the thread-per-switch
//! [`crate::runtime::run_threaded`] executor built on std::sync::mpsc channels.
//!
//! Protocol phases (all pipelined, no global barriers):
//!
//! 1. **Gather** — leaves compute their DP table and push their `X` table upward;
//!    an internal switch folds its children's tables with
//!    [`soar_core::node_dp::fill_node`] once the last one arrives, then pushes
//!    its own `X` upward. The root pushes to the destination. Each table has the
//!    arena's `min(k, s_v) + 1` columns, worked out from the children's widths
//!    `w_c` as `min(k, 1 + Σ_c (w_c − 1)) + 1`, so it is bit-identical to
//!    `soar_gather(tree, k).node(v)`.
//! 2. **Color** — the destination sends `Assign(k*, 1)` to the root. A switch receiving
//!    `Assign(i, ℓ*)` runs [`soar_core::node_dp::color_step`] on its stored table,
//!    forwards the `Assign` it yields to every child, and immediately joins the
//!    Reduce.
//! 3. **Reduce** — worker reports flow upward as `Data` frames; red switches
//!    store-and-forward, blue switches merge everything from their subtree (and their
//!    local workers) into a single `Data` frame; `Eos` markers propagate termination.

use crate::wire::Frame;
use bytes::Bytes;
use soar_core::node_dp::{color_step, fill_node, DpKernel, DpScratch, NodeTableMut};
use soar_core::tables::{block_lens, Color, NodeTableView};
use soar_topology::{NodeId, Tree};

/// Where an emitted frame should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// The actor's parent switch (or the destination server for the root).
    Up,
    /// The actor's `idx`-th child (index into its child list).
    Child(usize),
}

/// An encoded frame together with its destination.
pub type OutFrame = (Destination, Bytes);

/// The deterministic value contributed by the `worker_index`-th worker of switch `v`;
/// the destination checks that the aggregated sum over all workers is exact, which
/// verifies that no report is lost or double-counted anywhere in the dataplane.
pub fn worker_value(v: NodeId, worker_index: u64) -> u64 {
    (v as u64 + 1) * 1_000 + worker_index
}

/// Sum of [`worker_value`] over every worker of the tree — the value the destination
/// must end up with.
pub fn expected_total(tree: &Tree) -> u64 {
    tree.node_ids()
        .map(|v| (0..tree.load(v)).map(|w| worker_value(v, w)).sum::<u64>())
        .sum()
}

/// Per-actor statistics, used by the runtimes to cross-check the dataplane against the
/// closed-form cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActorStats {
    /// Reduce `Data` frames sent on the up-link.
    pub data_messages_sent: u64,
    /// Total encoded bytes sent on the up-link (all frame kinds, all phases).
    pub wire_bytes_sent: u64,
    /// Total frames of any kind sent on the up-link.
    pub frames_sent: u64,
}

/// The switch actor.
#[derive(Debug)]
pub struct SwitchActor {
    id: NodeId,
    children: Vec<NodeId>,
    path_rho: Vec<f64>,
    load: u64,
    available: bool,
    k: usize,

    // Gather state.
    child_x: Vec<Option<Vec<f64>>>,
    gather_remaining: usize,
    table: Option<OwnedTable>,

    // Color state.
    color: Option<Color>,

    // Reduce state.
    eos_remaining: usize,
    agg_value: u64,
    agg_contributors: u64,

    stats: ActorStats,
}

/// A switch's own DP table: `n_i` columns per row, filled by
/// [`fill_node`] and read through a [`NodeTableView`].
#[derive(Debug)]
struct OwnedTable {
    n_i: usize,
    x: Vec<f64>,
    y_red: Vec<f64>,
    splits: Vec<u32>,
}

impl SwitchActor {
    /// Builds the actor for switch `v` of the tree, for budget `k`.
    pub fn new(tree: &Tree, v: NodeId, k: usize) -> Self {
        let children = tree.children(v).to_vec();
        SwitchActor {
            id: v,
            gather_remaining: children.len(),
            child_x: vec![None; children.len()],
            eos_remaining: children.len(),
            children,
            path_rho: tree.path_rho(v),
            load: tree.load(v),
            available: tree.available(v),
            k,
            table: None,
            color: None,
            agg_value: 0,
            agg_contributors: 0,
            stats: ActorStats::default(),
        }
    }

    /// This switch's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this switch ended up as an aggregation switch.
    pub fn is_blue(&self) -> bool {
        matches!(self.color, Some(Color::Blue))
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> ActorStats {
        self.stats
    }

    /// Whether this switch has sent its end-of-stream marker upward, its last
    /// frame of the run: it is colored and every child has sent its own.
    pub fn done(&self) -> bool {
        self.color.is_some() && self.eos_remaining == 0
    }

    /// The gathered DP table (available once all children reported).
    pub fn table(&self) -> Option<NodeTableView<'_>> {
        self.table
            .as_ref()
            .map(|t| NodeTableView::new(t.n_i, &self.path_rho, &t.x, &t.y_red, &t.splits))
    }

    /// Kicks off the gather phase; leaves emit their `X` table immediately, internal
    /// switches wait for their children. Must be called exactly once per actor.
    pub fn start(&mut self, out: &mut Vec<OutFrame>) {
        if self.children.is_empty() {
            self.finish_gather(out);
        }
    }

    /// Handles one decoded frame. `from_child` identifies which child sent it (by index
    /// into this switch's child list) or `None` when the frame came from the parent /
    /// destination. Emits any resulting frames into `out`.
    pub fn on_frame(&mut self, from_child: Option<usize>, frame: Frame, out: &mut Vec<OutFrame>) {
        match frame {
            Frame::XTable { values, .. } => {
                let idx = from_child.expect("X tables only ever arrive from children");
                if self.child_x[idx].is_none() {
                    self.gather_remaining -= 1;
                }
                self.child_x[idx] = Some(values);
                if self.gather_remaining == 0 && self.table.is_none() {
                    self.finish_gather(out);
                }
            }
            Frame::Assign { budget, distance } => {
                assert!(from_child.is_none(), "Assign frames come from the parent");
                self.handle_assign(budget as usize, distance as usize, out);
            }
            Frame::Data {
                value,
                contributors,
            } => {
                debug_assert!(from_child.is_some(), "Data frames come from children");
                debug_assert!(self.color.is_some(), "coloring always precedes child data");
                self.reduce(value, contributors, out);
            }
            Frame::Eos { .. } => {
                debug_assert!(from_child.is_some(), "Eos frames come from children");
                self.eos_remaining -= 1;
                if self.eos_remaining == 0 {
                    self.finish_reduce(out);
                }
            }
        }
    }

    /// Computes this switch's DP table from the children's `X` tables and reports the
    /// own `X` table upward.
    fn finish_gather(&mut self, out: &mut Vec<OutFrame>) {
        let n_l = self.path_rho.len();
        let children_x = || {
            self.child_x
                .iter()
                .map(|x| x.as_deref().expect("all children reported"))
        };
        // s_v = 1 + Σ_c s_c, and a child's width w_c = min(k, s_c) + 1 is all
        // that capping at k needs of s_c.
        let below: usize = children_x()
            .map(|x| (x.len() / (n_l + 1)).saturating_sub(1))
            .sum();
        let n_i = self.k.min(1 + below) + 1;
        let (cells, split_len) = block_lens(n_l, n_i, self.children.len());
        let mut table = OwnedTable {
            n_i,
            x: vec![0.0; cells],
            y_red: vec![0.0; cells],
            splits: vec![0; split_len],
        };
        fill_node(
            NodeTableMut {
                x: &mut table.x,
                y_red: &mut table.y_red,
                splits: &mut table.splits,
            },
            &self.path_rho,
            self.load,
            self.available,
            n_i,
            self.children.len(),
            children_x(),
            &mut DpScratch::new(),
            DpKernel::Pruned,
        );
        let frame = Frame::XTable {
            child: self.id as u32,
            n_l: n_l as u32,
            n_i: n_i as u32,
            values: table.x.clone(),
        };
        self.table = Some(table);
        // The raw child tables are no longer needed.
        self.child_x.fill(None);
        self.send_up(frame, out);
    }

    /// Processes the coloring assignment and immediately joins the Reduce.
    fn handle_assign(&mut self, budget: usize, distance: usize, out: &mut Vec<OutFrame>) {
        let table = self
            .table()
            .expect("the gather phase completes before coloring starts");
        // Decide the color and forward one assignment to each child.
        let color = color_step(
            table,
            self.children.len(),
            self.available,
            distance,
            budget,
            |idx, share, child_distance| {
                let frame = Frame::Assign {
                    budget: share as u32,
                    distance: child_distance as u32,
                };
                out.push((Destination::Child(idx), frame.encode()));
            },
        );
        self.color = Some(color);

        // Join the Reduce: contribute the local workers, and flush immediately if there
        // is nothing to wait for (leaves).
        for w in 0..self.load {
            self.reduce(worker_value(self.id, w), 1, out);
        }
        if self.eos_remaining == 0 {
            self.finish_reduce(out);
        }
    }

    /// Takes one Reduce message: a blue switch folds it into its aggregate, a red
    /// one stores and forwards it.
    fn reduce(&mut self, value: u64, contributors: u64, out: &mut Vec<OutFrame>) {
        if self.is_blue() {
            self.agg_value += value;
            self.agg_contributors += contributors;
        } else {
            let frame = Frame::Data {
                value,
                contributors,
            };
            self.send_up(frame, out);
        }
    }

    /// Emits the final aggregate (for blue switches) and the end-of-stream marker.
    fn finish_reduce(&mut self, out: &mut Vec<OutFrame>) {
        if matches!(self.color, Some(Color::Blue)) {
            // A blue switch always reports exactly one aggregate, mirroring the cost
            // model of Eq. 3 (even for an empty subtree).
            self.send_up(
                Frame::Data {
                    value: self.agg_value,
                    contributors: self.agg_contributors,
                },
                out,
            );
        }
        self.send_up(
            Frame::Eos {
                child: self.id as u32,
            },
            out,
        );
    }

    fn send_up(&mut self, frame: Frame, out: &mut Vec<OutFrame>) {
        if matches!(frame, Frame::Data { .. }) {
            self.stats.data_messages_sent += 1;
        }
        let encoded = frame.encode();
        self.stats.wire_bytes_sent += encoded.len() as u64;
        self.stats.frames_sent += 1;
        out.push((Destination::Up, encoded));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soar_topology::builders;

    #[test]
    fn worker_values_are_distinct_per_switch() {
        assert_ne!(worker_value(0, 0), worker_value(1, 0));
        assert_ne!(worker_value(2, 0), worker_value(2, 1));
        let mut tree = builders::path(2);
        tree.set_load(1, 3);
        assert_eq!(
            expected_total(&tree),
            worker_value(1, 0) + worker_value(1, 1) + worker_value(1, 2)
        );
    }

    #[test]
    fn leaf_actor_emits_its_table_on_start() {
        let mut tree = builders::path(2);
        tree.set_load(1, 2);
        let mut actor = SwitchActor::new(&tree, 1, 1);
        let mut out = Vec::new();
        actor.start(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Destination::Up);
        match Frame::decode(out[0].1.clone()).unwrap() {
            Frame::XTable {
                child,
                n_l,
                n_i,
                values,
            } => {
                assert_eq!(child, 1);
                assert_eq!(n_l, 3);
                assert_eq!(n_i, 2);
                assert_eq!(values.len(), 6);
            }
            _ => panic!("expected an XTable frame"),
        }
        assert!(actor.table().is_some());
        assert_eq!(actor.stats().frames_sent, 1);
    }

    #[test]
    fn internal_actor_waits_for_all_children() {
        let mut tree = builders::star(3);
        tree.set_load(1, 1);
        tree.set_load(2, 1);
        let mut leaf1 = SwitchActor::new(&tree, 1, 1);
        let mut leaf2 = SwitchActor::new(&tree, 2, 1);
        let mut root = SwitchActor::new(&tree, 0, 1);
        let mut out = Vec::new();
        root.start(&mut out);
        assert!(out.is_empty(), "internal switches wait for their children");

        let mut leaf_out = Vec::new();
        leaf1.start(&mut leaf_out);
        leaf2.start(&mut leaf_out);
        let x1 = Frame::decode(leaf_out[0].1.clone()).unwrap();
        let x2 = Frame::decode(leaf_out[1].1.clone()).unwrap();
        root.on_frame(Some(0), x1, &mut out);
        assert!(out.is_empty());
        root.on_frame(Some(1), x2, &mut out);
        assert_eq!(out.len(), 1, "the root reports upward after the last child");
        assert!(root.table().is_some());
    }

    #[test]
    fn assign_colors_and_cascades() {
        // Star with three equally loaded leaves, k = 1: the root is the strictly best
        // single aggregation point (10 vs 14 for any leaf placement).
        let mut tree = builders::star(4);
        tree.set_load(1, 3);
        tree.set_load(2, 3);
        tree.set_load(3, 3);
        let mut leaves: Vec<SwitchActor> = (1..4).map(|v| SwitchActor::new(&tree, v, 1)).collect();
        let mut root = SwitchActor::new(&tree, 0, 1);
        let mut scratch = Vec::new();
        for leaf in &mut leaves {
            leaf.start(&mut scratch);
        }
        let mut root_out = Vec::new();
        for (idx, (_, bytes)) in scratch.iter().enumerate() {
            root.on_frame(
                Some(idx),
                Frame::decode(bytes.clone()).unwrap(),
                &mut root_out,
            );
        }
        root_out.clear();

        root.on_frame(
            None,
            Frame::Assign {
                budget: 1,
                distance: 1,
            },
            &mut root_out,
        );
        assert!(
            root.is_blue(),
            "the root is the best single aggregation point"
        );
        // The root forwarded an Assign with budget 0 to each child.
        let child_assigns: Vec<_> = root_out
            .iter()
            .filter(|(dest, _)| matches!(dest, Destination::Child(_)))
            .collect();
        assert_eq!(child_assigns.len(), 3);
        for (_, bytes) in child_assigns {
            match Frame::decode(bytes.clone()).unwrap() {
                Frame::Assign { budget, distance } => {
                    assert_eq!(budget, 0);
                    assert_eq!(distance, 1);
                }
                _ => panic!("expected Assign"),
            }
        }
    }
}
