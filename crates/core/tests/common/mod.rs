//! Test inputs shared by the solver's and the dataplane's table-identity
//! tests.

use rand::rngs::StdRng;
use rand::Rng;
use soar_topology::{builders, Tree};

/// Randomizes the DP inputs: loads everywhere (internal nodes included),
/// non-uniform rates, and a sprinkling of unavailable switches.
pub fn randomize(tree: &mut Tree, rng: &mut StdRng) {
    for v in 0..tree.n_switches() {
        if rng.random_bool(0.7) {
            tree.set_load(v, rng.random_range(0..100));
        }
        if rng.random_bool(0.3) {
            tree.set_available(v, false);
        }
        if rng.random_bool(0.4) {
            tree.set_rate(v, [0.25, 0.5, 1.0, 2.0, 4.0][rng.random_range(0..5usize)]);
        }
    }
}

/// The shapes under test, randomized.
pub fn shapes(rng: &mut StdRng) -> Vec<(String, Tree)> {
    let mut shapes: Vec<(String, Tree)> = vec![
        ("path-17".into(), builders::path(17)),
        ("star-33".into(), builders::star(33)),
        ("caterpillar".into(), builders::caterpillar(9, 4)),
        ("bt-255".into(), builders::complete_binary_tree(255)),
        ("kary4-341".into(), builders::complete_kary_tree(4, 341)),
        ("fat-tree".into(), builders::two_tier_fat_tree(4, 6)),
    ];
    for (i, n) in [37usize, 120, 450].into_iter().enumerate() {
        shapes.push((format!("random-{i}"), builders::random_tree(n, rng)));
    }
    for (_, tree) in &mut shapes {
        randomize(tree, rng);
    }
    shapes
}
