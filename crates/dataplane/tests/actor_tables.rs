//! Every switch actor's DP table is bit-identical to the centralized arena's
//! block for the same switch: `X`, `Y_R`, the recorded splits, the ρ
//! prefix sums and the `min(k, s_v) + 1` width. The gather phase runs through
//! the actors' public entry points, frames encoded and decoded on every hop.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use bytes::Bytes;
use common::shapes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_core::{soar_gather, NodeTableView};
use soar_dataplane::actor::{Destination, SwitchActor};
use soar_dataplane::Frame;
use soar_topology::Tree;

/// Runs the gather phase in post-order: each actor starts, then receives its
/// children's `XTable` frames in child order and reports its own upward.
fn gather_through_actors(tree: &Tree, k: usize) -> Vec<SwitchActor> {
    let mut actors: Vec<SwitchActor> = tree
        .node_ids()
        .map(|v| SwitchActor::new(tree, v, k))
        .collect();
    let mut reported: Vec<Option<Bytes>> = vec![None; tree.n_switches()];
    for v in tree.post_order() {
        let mut out = Vec::new();
        actors[v].start(&mut out);
        for (idx, &c) in tree.children(v).iter().enumerate() {
            let bytes = reported[c].take().expect("children report before parents");
            let frame = Frame::decode(bytes).expect("actor frames decode");
            actors[v].on_frame(Some(idx), frame, &mut out);
        }
        match out.as_slice() {
            [(Destination::Up, bytes)] => reported[v] = Some(bytes.clone()),
            other => panic!("switch {v} emitted {} frames, not one XTable", other.len()),
        }
    }
    actors
}

fn assert_actors_match_arena(name: &str, tree: &Tree, k: usize) {
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let dump = |t: NodeTableView<'_>| {
        let rho: Vec<f64> = (0..t.n_l).map(|l| t.rho_up(l)).collect();
        let values = [t.x_slice(), t.y_red_slice(), &rho].map(bits);
        (t.n_l, t.n_i, values, t.splits_slice().to_vec())
    };
    let tables = soar_gather(tree, k);
    for actor in gather_through_actors(tree, k) {
        let v = actor.id();
        let mine = actor.table().expect("every switch gathered");
        assert_eq!(
            dump(mine),
            dump(tables.node(v)),
            "(n_l, n_i, [X, Y_R, ρ], splits) of {name}, switch {v}, k = {k}"
        );
    }
}

#[test]
fn actor_tables_are_bitwise_the_arena_blocks() {
    let mut rng = StdRng::seed_from_u64(0xAC7);
    for (name, tree) in shapes(&mut rng) {
        let n = tree.n_switches();
        for k in [0, 1, 3, 16, n + 1] {
            assert_actors_match_arena(&name, &tree, k);
        }
    }
}
