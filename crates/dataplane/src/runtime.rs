//! Executors that drive the switch actors: a deterministic single-threaded executor
//! ([`run_inline`]) and a thread-per-switch executor over std::sync::mpsc channels
//! ([`run_threaded`]).
//!
//! Both executors run the full pipeline — distributed SOAR-Gather, distributed
//! SOAR-Color and the Reduce dataplane — and return a [`DataplaneReport`] that the test
//! suites cross-check against the centralized solver (`soar-core`) and the closed-form
//! cost model (`soar-reduce`).

use crate::actor::{ActorStats, Destination, OutFrame, SwitchActor};
use crate::wire::Frame;
use bytes::Bytes;
use soar_core::tables::row_optimum;
use soar_reduce::Coloring;
use soar_topology::{NodeId, Tree, ROOT};
use std::collections::VecDeque;
use std::sync::mpsc::{channel as unbounded, Sender};

/// The outcome of one end-to-end dataplane run.
#[derive(Debug, Clone, PartialEq)]
pub struct DataplaneReport {
    /// The coloring the distributed SOAR protocol settled on.
    pub coloring: Coloring,
    /// The optimal utilization claimed by the root's gathered table (`min_i X_r(1, i)`).
    pub claimed_cost: f64,
    /// Number of blue switches used.
    pub blue_used: usize,
    /// Reduce `Data` messages sent on every switch's up-link.
    pub per_edge_data_messages: Vec<u64>,
    /// Sum of all worker values received by the destination — must equal
    /// [`crate::actor::expected_total`].
    pub destination_sum: u64,
    /// Number of worker reports folded into the messages received by the destination.
    pub destination_contributors: u64,
    /// Number of Reduce `Data` messages the destination received.
    pub destination_data_messages: u64,
    /// Total encoded bytes that crossed any link, over all protocol phases.
    pub total_wire_bytes: u64,
}

/// A frame in flight to a switch: the index of the sending child in the
/// receiver's child list (`None` when it comes from the parent or the
/// destination) and the encoded frame.
type LinkPayload = (Option<usize>, Bytes);

/// Resolves the child index of `from` within `to`'s child list.
fn child_index(tree: &Tree, to: NodeId, from: NodeId) -> usize {
    tree.children(to)
        .iter()
        .position(|&c| c == from)
        .expect("sender must be a child of the receiver")
}

/// The destination server: it picks the budget from the root's `X` table and
/// counts what the Reduce delivers.
#[derive(Default)]
struct Sink {
    claimed_cost: f64,
    sum: u64,
    contributors: u64,
    data_messages: u64,
    done: bool,
}

impl Sink {
    /// Handles one frame from the root. The root's `X` table yields the
    /// `Assign` frame that starts the coloring phase: the best budget on its
    /// `ℓ = 1` row, by the centralized solver's rule.
    fn on_frame(&mut self, frame: Frame) -> Option<Bytes> {
        match frame {
            Frame::XTable { n_i, values, .. } => {
                let n_i = n_i as usize;
                let (best_i, cost) = row_optimum(&values[n_i..2 * n_i]);
                self.claimed_cost = cost;
                let assign = Frame::Assign {
                    budget: best_i as u32,
                    distance: 1,
                };
                return Some(assign.encode());
            }
            Frame::Data {
                value,
                contributors,
            } => {
                self.sum += value;
                self.contributors += contributors;
                self.data_messages += 1;
            }
            Frame::Eos { .. } => self.done = true,
            Frame::Assign { .. } => unreachable!("the destination never receives Assign"),
        }
        None
    }

    fn report(
        self,
        tree: &Tree,
        per_actor: impl Iterator<Item = (bool, ActorStats)>,
    ) -> DataplaneReport {
        assert!(self.done, "the Reduce must terminate");
        let mut coloring = Coloring::all_red(tree.n_switches());
        let mut per_edge_data_messages = vec![0u64; tree.n_switches()];
        let mut total_wire_bytes = 0u64;
        for (v, (blue, stats)) in per_actor.enumerate() {
            if blue {
                coloring.set_blue(v);
            }
            per_edge_data_messages[v] = stats.data_messages_sent;
            total_wire_bytes += stats.wire_bytes_sent;
        }
        DataplaneReport {
            blue_used: coloring.n_blue(),
            coloring,
            claimed_cost: self.claimed_cost,
            per_edge_data_messages,
            destination_sum: self.sum,
            destination_contributors: self.contributors,
            destination_data_messages: self.data_messages,
            total_wire_bytes,
        }
    }
}

/// The distributed protocol as a [`Solver`](soar_core::api::Solver): solving an
/// instance runs the full gather / color / reduce pipeline on the inline executor
/// and reports the coloring the switches settled on.
///
/// Reports under the name `"soar-distributed"`. It is **not** part of the
/// `soar_core::api::solvers` registry (the core crate cannot depend on this one);
/// construct it directly. By SOAR's correctness argument its placements coincide
/// with [`soar_core::api::SoarSolver`], which the integration tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedSoarSolver;

impl soar_core::api::Solver for DistributedSoarSolver {
    fn name(&self) -> &str {
        "soar-distributed"
    }

    fn solve(&self, instance: &soar_core::api::Instance) -> soar_core::api::SolveReport {
        let start = std::time::Instant::now();
        let report = run_inline(instance.tree(), instance.budget());
        let wall_time = start.elapsed();
        let solution =
            soar_core::Solution::from_coloring(instance.tree(), report.coloring, instance.budget());
        soar_core::api::SolveReport::new(self.name(), instance, solution, wall_time, None)
    }
}

/// Runs the whole protocol on a single thread with deterministic FIFO delivery.
pub fn run_inline(tree: &Tree, k: usize) -> DataplaneReport {
    let n = tree.n_switches();
    let mut actors: Vec<SwitchActor> = (0..n).map(|v| SwitchActor::new(tree, v, k)).collect();

    // (receiver, payload); receiver None means the destination server.
    let mut queue: VecDeque<(Option<NodeId>, LinkPayload)> = VecDeque::new();
    let route = |from: NodeId, out: Vec<OutFrame>, queue: &mut VecDeque<_>| {
        for (dest, bytes) in out {
            queue.push_back(match dest {
                Destination::Up => {
                    let parent = tree.parent(from);
                    let idx = parent.map(|p| child_index(tree, p, from));
                    (parent, (idx, bytes))
                }
                Destination::Child(idx) => (Some(tree.children(from)[idx]), (None, bytes)),
            });
        }
    };

    // Kick off the gather phase at the leaves.
    for (v, actor) in actors.iter_mut().enumerate() {
        let mut out = Vec::new();
        actor.start(&mut out);
        route(v, out, &mut queue);
    }

    let mut sink = Sink::default();
    while let Some((to, (from_child, bytes))) = queue.pop_front() {
        let frame = Frame::decode(bytes).expect("frames produced by actors always decode");
        match to {
            Some(v) => {
                let mut out = Vec::new();
                actors[v].on_frame(from_child, frame, &mut out);
                route(v, out, &mut queue);
            }
            None => {
                if let Some(assign) = sink.on_frame(frame) {
                    queue.push_back((Some(ROOT), (None, assign)));
                }
            }
        }
    }
    sink.report(tree, actors.iter().map(|a| (a.is_blue(), a.stats())))
}

/// Runs the whole protocol with one OS thread per switch, connected by std::sync::mpsc
/// channels — the closest analogue in this repository to a real asynchronous,
/// message-passing deployment of the algorithm.
///
/// Intended for moderate topologies (hundreds of switches); the inline executor covers
/// arbitrary sizes deterministically.
pub fn run_threaded(tree: &Tree, k: usize) -> DataplaneReport {
    let n = tree.n_switches();
    let (senders, receivers): (Vec<Sender<LinkPayload>>, Vec<_>) =
        (0..n).map(|_| unbounded()).unzip();
    let (dest_tx, dest_rx) = unbounded::<LinkPayload>();

    let (sink, per_actor) = std::thread::scope(|scope| {
        let mut switches = Vec::with_capacity(n);
        for (v, rx) in receivers.into_iter().enumerate() {
            // The root's parent link leads to the destination.
            let (up, idx) = match tree.parent(v) {
                Some(p) => (senders[p].clone(), Some(child_index(tree, p, v))),
                None => (dest_tx.clone(), None),
            };
            let child_txs: Vec<Sender<LinkPayload>> = tree
                .children(v)
                .iter()
                .map(|&c| senders[c].clone())
                .collect();
            let mut actor = SwitchActor::new(tree, v, k);
            switches.push(scope.spawn(move || {
                let route = |out: Vec<OutFrame>| {
                    for (dest, bytes) in out {
                        let _ = match dest {
                            Destination::Up => up.send((idx, bytes)),
                            Destination::Child(c) => child_txs[c].send((None, bytes)),
                        };
                    }
                };
                let mut out = Vec::new();
                actor.start(&mut out);
                route(out);
                // A switch is done once it has propagated its end-of-stream marker.
                while !actor.done() {
                    let (from_child, bytes) = rx.recv().expect("peers keep their channels open");
                    let frame = Frame::decode(bytes).expect("frames always decode");
                    let mut out = Vec::new();
                    actor.on_frame(from_child, frame, &mut out);
                    route(out);
                }
                (actor.is_blue(), actor.stats())
            }));
        }

        // The destination side runs on the spawning thread.
        let mut sink = Sink::default();
        while !sink.done {
            let (_, bytes) = dest_rx.recv().expect("the root keeps its channel open");
            let frame = Frame::decode(bytes).expect("frames always decode");
            if let Some(assign) = sink.on_frame(frame) {
                let _ = senders[ROOT].send((None, assign));
            }
        }
        let per_actor: Vec<(bool, ActorStats)> = switches
            .into_iter()
            .map(|s| s.join().expect("switch threads do not panic"))
            .collect();
        (sink, per_actor)
    });
    sink.report(tree, per_actor.into_iter())
}
