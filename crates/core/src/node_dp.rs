//! The per-switch computation of SOAR-Gather, factored out of the tree traversal.
//!
//! A switch only needs *local* information to fill its DP table:
//!
//! * the prefix sums `ρ(v, Aᵉ_v)` of transmission times up its root path,
//! * its own load `L(v)` and availability (`v ∈ Λ`),
//! * the budget `k`,
//! * and the `X` tables reported by its children.
//!
//! This is exactly the information a switch has in the *distributed* rendition of
//! SOAR-Gather (Sec. 4.2), where children push their `X` tables upwards; the
//! `soar-dataplane` crate drives [`fill_node`] from message-passing switch actors,
//! while [`crate::gather`] drives it from a level-ordered traversal of the arena.
//! Both size node `v`'s table at `min(k, s_v) + 1` columns, so an actor's table is
//! the arena's block bit for bit (the dataplane's `actor_tables` test checks it).
//! SOAR-Color is per-switch too: [`color_step`] is its one rule, run by the
//! centralized traceback and by the actors alike.
//!
//! ## The blue fold runs once per child stage, and is stored once
//!
//! A blue switch is the barrier of its children, so the blue half of the
//! prefix recursion reads only each child's distance-1 row, and it depends on
//! `ℓ` only through the `ρ(ℓ)` that `v`'s own aggregated message pays:
//!
//! ```text
//! Z^1(0) = ∞,  Z^1(i) = X_{c_1}(1, i − 1)
//! Z^m(i) = min_{0 ≤ j < i} Z^{m−1}(i − j) + X_{c_m}(1, j)
//! Y_B(ℓ, i) = Z^{C(v)}(i) + ρ(ℓ)
//! ```
//!
//! (`Z` is all `∞` at an unavailable switch.) [`fill_node`] therefore folds
//! `Z` once per child stage, one arg-min per `i`, and writes that stage's blue
//! split row once, ahead of the stage's `n_l` red split rows (the layout
//! [`block_lens`](crate::tables::block_lens) states); only the red half of
//! the recursion is folded per row. An unavailable switch writes 0 into its
//! blue rows, so a refill after an availability flip equals a fresh fill. The
//! recursion adds `ρ(ℓ)` last, after the arg-min scans, where the paper's
//! `Y_B^m(ℓ, i)` carries it from the first child on. The two orders are equal
//! in exact arithmetic, and bit for bit whenever the sums are exact (dyadic
//! rates with integer loads); otherwise they agree to rounding
//! (`tests/kernel_identity.rs` checks both).
//!
//! `Y_B` itself is never stored: the final stage folds it into
//! `X = (Z + ρ(ℓ)).min(Y_R)`, and [`color_step`] reads the blue-vs-red
//! decision back as `X < Y_R` (at a leaf, as `ρ(ℓ) ≤ Y_R`), which is the
//! comparison of the unstored value bit for bit (see the
//! [`tables`](crate::tables) module docs).
//!
//! ## Hot-path shape
//!
//! The actual DP lives in [`fill_node`], which writes into caller-provided slices
//! ([`NodeTableMut`]) and reads children's `X` tables as borrowed slices — in the
//! centralized gather those are arena stripes, so **no per-node heap allocation**
//! happens at all once the [`DpScratch`] buffers are warm. The `mCost` inner
//! loops are written against per-row subslices: the row bounds checks are paid
//! once per `(child, ℓ)` instead of once per `(child, ℓ, i, j)` lookup.

use crate::tables::{Color, NodeTableView, INF};

/// Which `mCost` inner-loop implementation a gather pass runs.
///
/// Both kernels are **bit-identical**: they produce exactly the same `X`/`Y`
/// values *and* the same recorded arg-min splits (property-tested in
/// `tests/kernel_identity.rs`).
///
/// * [`Pruned`](DpKernel::Pruned) — the production kernel: scalar iteration
///   order plus two exact monotonicity prunes of the arg-min split search.
///   Every DP row is non-increasing in the budget index `i` (more blue nodes
///   never cost more), and f64 `+`/`min` are monotone, so the invariant
///   survives every fold without rounding caveats. The candidate range is
///   capped at the child row's *effective width* (the index where its
///   trailing plateau starts — beyond it every candidate is provably no
///   better and loses ties to an earlier split), and the scan exits early
///   once the running minimum is at or below a lower bound on every remaining
///   candidate. For leaf-heavy trees the effective width collapses to ≤ 1 and
///   the quadratic split search becomes linear.
/// * [`Scalar`](DpKernel::Scalar) — the straight-line reference double loop,
///   in the same summation order, kept as the oracle the tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpKernel {
    /// Scalar order + exact effective-width cap + early exit.
    #[default]
    Pruned,
    /// Reference double loop, no pruning (the test oracle).
    Scalar,
}

/// Reusable buffers for the per-child prefix recursion: the red stages
/// `Y_R^m` (one cell per `(ℓ, i)`) and the blue stages `Z^m` (one entry per
/// `i`).
///
/// One scratch serves any number of consecutive [`fill_node`] calls; buffers only
/// grow (doubling), so a warm scratch performs no allocation. The buffers are
/// never cleared between nodes or children: every entry is overwritten before it
/// is read.
///
/// The scratch also counts the split candidates the kernel evaluated
/// ([`take_split_evals`](DpScratch::take_split_evals)) and those the pruning
/// skipped ([`take_pruned_splits`](DpScratch::take_pruned_splits)); the two
/// add up to the full candidate count of the unpruned search.
#[derive(Debug, Default)]
pub struct DpScratch {
    prev_red: Vec<f64>,
    cur_red: Vec<f64>,
    prev_z: Vec<f64>,
    cur_z: Vec<f64>,
    /// `(i, j)` split candidates evaluated and pruned since the last take.
    tally: SplitTally,
}

impl DpScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Makes the red buffers at least `cells` long and the blue ones at least
    /// `n_i`. Returns the number of buffers that had to (re)allocate — 0 once
    /// warm.
    fn ensure(&mut self, cells: usize, n_i: usize) -> usize {
        fn grow<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) -> usize {
            if buf.len() >= len {
                return 0;
            }
            let grew = usize::from(buf.capacity() < len);
            buf.resize(len.max(buf.capacity()), fill);
            grew
        }
        grow(&mut self.prev_red, cells, INF)
            + grow(&mut self.cur_red, cells, INF)
            + grow(&mut self.prev_z, n_i, INF)
            + grow(&mut self.cur_z, n_i, INF)
    }

    /// Returns the split candidates evaluated since the last call and zeroes
    /// the count (called at the end of every gather pass).
    pub fn take_split_evals(&mut self) -> usize {
        std::mem::take(&mut self.tally.evaluated)
    }

    /// Returns the split candidates pruned since the last call and zeroes the
    /// count (called at the end of every gather pass).
    pub fn take_pruned_splits(&mut self) -> usize {
        std::mem::take(&mut self.tally.pruned)
    }

    /// Current heap footprint of the scratch buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.prev_red.capacity()
            + self.cur_red.capacity()
            + self.prev_z.capacity()
            + self.cur_z.capacity())
            * 8
    }
}

/// Index where `row`'s trailing plateau starts: the smallest `e` with
/// `row[j] == row[e]` (bitwise) for every `j ≥ e`.
///
/// DP rows are non-increasing in `i`, so every split candidate `j > e` is
/// provably no better than `j = e` *and* loses the first-strict-minimum
/// tie-break to it — capping the arg-min search at `e` is exact in both value
/// and recorded split. For a leaf child's `X` row the plateau starts at index
/// ≤ 1 (`[L·ρ, min(L·ρ, ρ), …]`), which is what collapses the quadratic split
/// search on leaf-heavy trees.
#[inline]
fn effective_width(row: &[f64]) -> usize {
    let mut e = row.len() - 1;
    while e > 0 && row[e - 1].to_bits() == row[e].to_bits() {
        e -= 1;
    }
    e
}

/// Mutable destination slices for one node's table, borrowed from the
/// [`GatherTables`](crate::tables::GatherTables) arena (or from a switch
/// actor's own buffers), each as long as
/// [`block_lens`](crate::tables::block_lens) states for the node's own column
/// count `n_i`: `x` and `y_red` row-major in `ℓ`, `splits` one block per
/// child stage `m ≥ 2`.
pub struct NodeTableMut<'a> {
    /// `X_v` destination.
    pub x: &'a mut [f64],
    /// `Y_v(·, ·, R)` destination.
    pub y_red: &'a mut [f64],
    /// Split-decision destination (empty for nodes with fewer than two children).
    pub splits: &'a mut [u32],
}

/// Fills one switch's DP table in place from its children's `X` tables.
///
/// * `path_rho[ℓ]` must hold `ρ(v, Aᵉ_v)` for `ℓ = 0 ..= D(v) + 1`; its length is
///   the number of rows `n_l`.
/// * `n_i` is the node's column count, `min(k, s_v) + 1` (any width from
///   there up to `k + 1` holds the same values; the tests' uniform-width
///   oracle uses `k + 1`).
/// * `children_x` yields each child's flat `X` table in child order — the
///   child's own table, exactly `n_l + 1` rows of at most `n_i` columns (its
///   column count is the slice length over `n_l + 1`); it must yield exactly
///   `n_children` items. A child row narrower than `n_i` is read as if its
///   last column repeated, which is exact when that column starts the row's
///   plateau (see the [`tables`](crate::tables) module docs).
///
/// Returns the number of scratch buffers that had to grow (0 once warm).
#[allow(clippy::too_many_arguments)]
pub fn fill_node<'c>(
    out: NodeTableMut<'_>,
    path_rho: &[f64],
    load: u64,
    available: bool,
    n_i: usize,
    n_children: usize,
    children_x: impl Iterator<Item = &'c [f64]>,
    scratch: &mut DpScratch,
    kernel: DpKernel,
) -> usize {
    if n_children == 0 {
        fill_leaf(out, path_rho, load, available, n_i);
        0
    } else {
        fill_internal(
            out, path_rho, load, available, n_i, n_children, children_x, scratch, kernel,
        )
    }
}

/// Base case (Alg. 3, lines 1-9): a leaf aggregates (blue) for `1 · ρ` or forwards its
/// own workers (red) for `L(v) · ρ`.
fn fill_leaf(out: NodeTableMut<'_>, path_rho: &[f64], load: u64, available: bool, n_i: usize) {
    let load = load as f64;
    for (l, &rho) in path_rho.iter().enumerate() {
        let red = rho * load;
        let blue = if available { rho } else { INF };
        let row = l * n_i;
        let x_row = &mut out.x[row..row + n_i];
        out.y_red[row..row + n_i].fill(red);
        x_row[0] = red;
        x_row[1..].fill(red.min(blue));
    }
}

/// Recursive case (Alg. 3, lines 10-29): fold the children in one at a time through the
/// prefix recursion, recording the arg-min splits (`mCost`) along the way.
///
/// The blue half folds `Z^m` once per child stage — one arg-min per `i`, whose
/// split goes into the stage's blue split row — and the red half folds
/// `Y_R^m` once per `(stage, ℓ)` row. The final stage writes `Y_R` and
/// `X = (Z^{C(v)} + ρ(ℓ)).min(Y_R)` (see the [module docs](self)).
#[allow(clippy::too_many_arguments)]
fn fill_internal<'c>(
    out: NodeTableMut<'_>,
    path_rho: &[f64],
    load: u64,
    available: bool,
    n_i: usize,
    n_children: usize,
    mut children_x: impl Iterator<Item = &'c [f64]>,
    scratch: &mut DpScratch,
    kernel: DpKernel,
) -> usize {
    let n_l = path_rho.len();
    let cells = n_l * n_i;
    let load = load as f64;
    let grew = scratch.ensure(cells, n_i);
    let DpScratch {
        prev_red,
        cur_red,
        prev_z,
        cur_z,
        tally,
    } = scratch;

    for m_index in 0..n_children {
        let cx = children_x
            .next()
            .expect("children_x yields one table per child");
        // The child's column count (≤ n_i): reads past its last column clamp.
        let c_w = cx.len() / (n_l + 1);
        assert!(
            c_w >= 1 && c_w <= n_i && cx.len() == (n_l + 1) * c_w,
            "a child table must be {} rows of at most {n_i} columns (got {} cells)",
            n_l + 1,
            cx.len()
        );
        // The only row the blue recursion reads: the child at distance 1.
        let d1_row = &cx[c_w..2 * c_w];
        if m_index == 0 {
            // First child: Y^1 is a direct lookup, no split to record. Columns
            // past the child's width extend its plateau.
            // Blue (Z^1, written straight to prev_z): v consumes one blue
            // node; c_1 is looked up at distance 1 with the other i - 1.
            let z = &mut prev_z[..n_i];
            z[0] = INF;
            if available {
                let w = c_w.min(n_i - 1);
                z[1..=w].copy_from_slice(&d1_row[..w]);
                z[w + 1..].fill(d1_row[c_w - 1]);
            } else {
                // Z stays ∞ through the last stage.
                z[1..].fill(INF);
            }
            let cur_red = &mut cur_red[..cells];
            for (l, &rho) in path_rho.iter().enumerate() {
                let row = l * n_i;
                // Red: c_1 is looked up at distance ℓ + 1; v's own workers travel
                // ℓ links to the barrier.
                let child_row = &cx[(l + 1) * c_w..(l + 2) * c_w];
                let cr_row = &mut cur_red[row..row + n_i];
                let red_base = rho * load;
                for (cr, &c) in cr_row.iter_mut().zip(child_row) {
                    *cr = c + red_base;
                }
                cr_row[c_w..].fill(child_row[c_w - 1] + red_base);
            }
        } else {
            // This stage's split block, one of the C(v) − 1 that `out.splits`
            // holds: the blue row, then the n_l red rows.
            let stage = out.splits.len() / (n_children - 1);
            let split_block = &mut out.splits[(m_index - 1) * stage..m_index * stage];
            let (blue_splits, red_splits) = split_block.split_at_mut(n_i);
            if available {
                fold_blue(
                    kernel,
                    &prev_z[..n_i],
                    d1_row,
                    &mut cur_z[..n_i],
                    blue_splits,
                    tally,
                );
                std::mem::swap(prev_z, cur_z);
            } else {
                blue_splits.fill(0);
            }
            let prev_red = &prev_red[..cells];
            let cur_red = &mut cur_red[..cells];
            for l in 0..n_l {
                let row = l * n_i..(l + 1) * n_i;
                fold_red_row(
                    kernel,
                    &prev_red[row.clone()],
                    &cx[(l + 1) * c_w..(l + 2) * c_w],
                    &mut cur_red[row.clone()],
                    &mut red_splits[row],
                    tally,
                );
            }
        }
        std::mem::swap(prev_red, cur_red);
    }

    // Final stage: Y_R = Y_R^{C(v)}, X_v = min(Z^{C(v)} + ρ(ℓ), Y_R).
    let z = &prev_z[..n_i];
    out.y_red.copy_from_slice(&prev_red[..cells]);
    for (l, &rho) in path_rho.iter().enumerate() {
        let row = l * n_i..(l + 1) * n_i;
        for ((x, &z), &red) in out.x[row.clone()].iter_mut().zip(z).zip(&out.y_red[row]) {
            *x = (z + rho).min(red);
        }
    }
    grew
}

/// `(i, j)` split candidates seen by the `mCost` arg-min scans of a scratch.
#[derive(Debug, Default)]
struct SplitTally {
    /// Candidates whose value was computed.
    evaluated: usize,
    /// Candidates never evaluated — by effective-width capping or early exit.
    /// 0 for `Scalar`.
    pruned: usize,
}

/// One blue stage `m ≥ 2`: `z[i] = min_{0 ≤ j < i} z_prev[i − j] + d1[j]`
/// (`z[0] = ∞`), with the first strict arg-min in `splits[i]`.
fn fold_blue(
    kernel: DpKernel,
    z_prev: &[f64],
    d1_row: &[f64],
    z: &mut [f64],
    splits: &mut [u32],
    tally: &mut SplitTally,
) {
    let e = effective_width(d1_row);
    z[0] = INF;
    splits[0] = 0;
    for i in 1..z.len() {
        (z[i], splits[i]) = argmin(kernel, z_prev, d1_row, i, i - 1, e, tally);
    }
}

/// One red row of stage `m ≥ 2`: `cr[i] = min_{0 ≤ j ≤ i} pr[i − j] +
/// child[j]`, with the first strict arg-min in `splits[i]`.
fn fold_red_row(
    kernel: DpKernel,
    pr_row: &[f64],
    child_row: &[f64],
    cr_row: &mut [f64],
    splits: &mut [u32],
    tally: &mut SplitTally,
) {
    let e = effective_width(child_row);
    for (i, (cr, split)) in cr_row.iter_mut().zip(splits).enumerate() {
        (*cr, *split) = argmin(kernel, pr_row, child_row, i, i, e, tally);
    }
}

/// The first strict minimum of `p[i − j] + c[j]` over `j ∈ [0, hi]`, and its
/// `j`. `p` and `c` are non-increasing DP rows; `c` may be narrower than
/// `hi + 1` columns as long as it ends on its plateau, which starts at `e`.
///
/// `Scalar` scans every candidate, reading `c` past its last column as that
/// column; `Pruned` runs [`argmin_pruned`], which returns the same value and
/// split.
#[inline(always)]
fn argmin(
    kernel: DpKernel,
    p: &[f64],
    c: &[f64],
    i: usize,
    hi: usize,
    e: usize,
    tally: &mut SplitTally,
) -> (f64, u32) {
    match kernel {
        DpKernel::Pruned => {
            let (best, best_j, skipped) = argmin_pruned(p, c, i, hi, e);
            tally.evaluated += hi + 1 - skipped;
            tally.pruned += skipped;
            (best, best_j)
        }
        DpKernel::Scalar => {
            let c_last = c.len() - 1;
            let mut best = INF;
            let mut best_j = 0u32;
            for j in 0..=hi {
                let value = p[i - j] + c[j.min(c_last)];
                if value < best {
                    best = value;
                    best_j = j as u32;
                }
            }
            tally.evaluated += hi + 1;
            (best, best_j)
        }
    }
}

/// One arg-min scan in scalar order with both exact prunes applied.
///
/// Candidates are `value(j) = p[i - j] + c[j]` for `j ∈ [0, hi]`; `p` and `c`
/// are non-increasing DP rows. `e` caps the scan at `c`'s effective width
/// (plateau candidates lose to `j = e`), so `c` may be narrower than `hi + 1`
/// columns as long as it ends on its plateau; the early exit fires once no remaining
/// candidate can be *strictly* below the running minimum: every `j' > j` has
/// `p[i - j'] ≥ p[i - j - 1]` and `c[j'] ≥ c[jmax]`. Returns `(min, arg, skipped)`.
#[inline]
fn argmin_pruned(p: &[f64], c: &[f64], i: usize, hi: usize, e: usize) -> (f64, u32, usize) {
    let jmax = hi.min(e);
    let tail_min = c[jmax];
    let mut best = INF;
    let mut best_j = 0u32;
    let mut j = 0;
    loop {
        let value = p[i - j] + c[j];
        if value < best {
            best = value;
            best_j = j as u32;
        }
        if j == jmax {
            break;
        }
        if best <= p[i - j - 1] + tail_min {
            return (best, best_j, hi - j);
        }
        j += 1;
    }
    (best, best_j, hi - jmax)
}

/// One SOAR-Color step (Alg. 4) at a switch with `n_children` children and
/// DP table `table`, which must place `budget` blue nodes in its subtree and
/// sits at distance `l` from its nearest barrier (a blue ancestor or the
/// destination). Returns the switch's color and calls
/// `assign(child_idx, share, child_l)` once per child, `c_C` first and `c_1`
/// last: `share` blue nodes go to the child's subtree, which sits at distance
/// `child_l` from its barrier. Allocates nothing.
///
/// * A leaf goes blue when it has budget, is `available`, and aggregating
///   does not cost more than forwarding its own workers: `ρ(ℓ) ≤ Y(ℓ, i, R)`
///   (Alg. 4 colors any budgeted leaf; the extra guard only matters for
///   zero-load leaves).
/// * An internal switch goes blue when `X(ℓ, i) < Y(ℓ, i, R)`, which is
///   `Y(ℓ, i, B) < Y(ℓ, i, R)` bit for bit since `X = min(Y_B, Y_R)` (see the
///   [`tables`](crate::tables) module docs). It then replays the recorded
///   splits: stage `m` tells how many blue nodes go to `c_m`, the rest stays
///   with the prefix `c_1 .. c_{m-1}` (and with `v` itself, which takes one
///   of them when blue).
///
/// Reads at `budget` past the table's last column return that column: the
/// value, color and split the uncapped table holds there.
#[inline]
pub fn color_step(
    table: NodeTableView<'_>,
    n_children: usize,
    available: bool,
    l: usize,
    budget: usize,
    mut assign: impl FnMut(usize, usize, usize),
) -> Color {
    let red = table.y_red(l, budget);
    let blue = if n_children == 0 {
        budget > 0 && available && table.rho_up(l) <= red
    } else {
        table.x(l, budget) < red
    };
    let color = if blue { Color::Blue } else { Color::Red };
    if n_children == 0 {
        return color;
    }
    // Children sit at distance 1 from their barrier if v is blue, ℓ + 1 otherwise.
    let child_l = if blue { 1 } else { l + 1 };
    let mut remaining = budget;
    for m in (2..=n_children).rev() {
        let j = table.split(m, l, remaining, color) as usize;
        assign(m - 1, j, child_l);
        remaining -= j;
    }
    let first_share = if blue {
        remaining.saturating_sub(1)
    } else {
        remaining
    };
    assign(0, first_share, child_l);
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::block_lens;

    /// One switch's table in owned buffers, filled by [`fill_node`] with the
    /// production kernel and read through a [`NodeTableView`].
    struct OwnedTable {
        n_i: usize,
        rho: Vec<f64>,
        x: Vec<f64>,
        y_red: Vec<f64>,
        splits: Vec<u32>,
    }

    impl OwnedTable {
        fn fill(
            rho: &[f64],
            load: u64,
            available: bool,
            n_i: usize,
            children: &[Vec<f64>],
        ) -> Self {
            let (cells, split_len) = block_lens(rho.len(), n_i, children.len());
            let mut table = OwnedTable {
                n_i,
                rho: rho.to_vec(),
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
                rho,
                load,
                available,
                n_i,
                children.len(),
                children.iter().map(Vec::as_slice),
                &mut DpScratch::new(),
                DpKernel::Pruned,
            );
            table
        }

        fn view(&self) -> NodeTableView<'_> {
            NodeTableView::new(self.n_i, &self.rho, &self.x, &self.y_red, &self.splits)
        }
    }

    /// A child's `X` table with `rows` rows and `k + 1` columns:
    /// `X(ℓ, 0) = L·ℓ` and `X(ℓ, i ≥ 1) = ℓ`, the table of a unit-rate leaf
    /// with load `L ≥ 1`.
    fn leaf_x(load: f64, rows: usize, k: usize) -> Vec<f64> {
        let mut x = vec![0.0; rows * (k + 1)];
        for l in 0..rows {
            x[l * (k + 1)] = load * l as f64;
            for i in 1..=k {
                x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
            }
        }
        x
    }

    #[test]
    fn leaf_table_values() {
        let owned = OwnedTable::fill(&[0.0, 1.0, 2.0], 3, true, 3, &[]);
        let table = owned.view();
        assert_eq!(table.x(1, 0), 3.0);
        assert_eq!(table.x(1, 1), 1.0);
        assert_eq!(table.x(2, 0), 6.0);
        assert_eq!(table.x(2, 2), 2.0);
        assert_eq!(table.y_red(2, 1), 6.0);

        let owned = OwnedTable::fill(&[0.0, 1.0], 3, false, 3, &[]);
        let unavailable = owned.view();
        assert_eq!(unavailable.x(1, 2), 3.0);
        assert_eq!(unavailable.y_red(1, 2), 3.0);
    }

    #[test]
    fn internal_node_matches_manual_computation() {
        // Reproduce the left internal switch of Fig. 5 (children with loads 2 and 6,
        // unit rates): its children's X tables are X(ℓ, 0) = L·ℓ and X(ℓ, i ≥ 1) = ℓ.
        let k = 2;
        let children = [leaf_x(2.0, 4, k), leaf_x(6.0, 4, k)];
        let owned = OwnedTable::fill(&[0.0, 1.0, 2.0], 0, true, k + 1, &children);
        let table = owned.view();
        assert_eq!(table.x(0, 0), 8.0);
        assert_eq!(table.x(0, 1), 3.0);
        assert_eq!(table.x(0, 2), 2.0);
        assert_eq!(table.x(1, 0), 16.0);
        assert_eq!(table.x(1, 1), 6.0);
        assert_eq!(table.x(2, 1), 9.0);
    }

    #[test]
    fn color_step_decides_color_and_splits() {
        let k = 2;
        let children = [leaf_x(2.0, 4, k), leaf_x(6.0, 4, k)];
        let owned = OwnedTable::fill(&[0.0, 1.0, 2.0], 0, true, k + 1, &children);
        let step = |budget: usize| {
            let mut shares = [usize::MAX; 2];
            let mut order = Vec::new();
            let color = color_step(owned.view(), 2, true, 1, budget, |idx, share, child_l| {
                shares[idx] = share;
                order.push(idx);
                assert_eq!(child_l, 2, "children of a red switch sit at ℓ + 1");
            });
            assert_eq!(order, vec![1, 0], "c_C first, c_1 last");
            (color, shares)
        };
        // At ℓ = 1 with i = 1 the red configuration (child-2 blue) is cheaper than
        // being blue itself: X(1,1) = 6 comes from the red row.
        let (color, budgets) = step(1);
        assert_eq!(color, Color::Red);
        assert_eq!(budgets.iter().sum::<usize>(), 1);
        assert_eq!(budgets, [0, 1], "the heavy child receives the blue node");

        // With i = 0 nothing is distributed.
        assert_eq!(step(0), (Color::Red, [0, 0]));

        // A leaf colors itself and assigns nothing.
        let leaf = OwnedTable::fill(&[0.0, 1.0, 2.0], 3, true, 3, &[]);
        let no_child = |_: usize, _: usize, _: usize| panic!("a leaf has no children");
        assert_eq!(
            color_step(leaf.view(), 0, true, 1, 1, no_child),
            Color::Blue
        );
        assert_eq!(
            color_step(leaf.view(), 0, false, 1, 1, no_child),
            Color::Red
        );
        assert_eq!(color_step(leaf.view(), 0, true, 1, 0, no_child), Color::Red);
    }

    #[test]
    fn scratch_reuse_is_allocation_free_and_result_invariant() {
        let k = 3;
        let children = vec![leaf_x(2.0, 5, k), leaf_x(6.0, 5, k), leaf_x(5.0, 5, k)];
        let child_slices: Vec<&[f64]> = children.iter().map(|v| v.as_slice()).collect();
        let reference = OwnedTable::fill(&[0.0, 1.0, 2.0, 3.0], 1, true, k + 1, &children);

        let mut scratch = DpScratch::new();
        let n_l = 4;
        let n_i = k + 1;
        let (cells, split_len) = block_lens(n_l, n_i, 3);
        let mut runs = Vec::new();
        for round in 0..3 {
            let mut x = vec![0.0; cells];
            let mut yr = vec![0.0; cells];
            let mut splits = vec![0u32; split_len];
            let grew = fill_node(
                NodeTableMut {
                    x: &mut x,
                    y_red: &mut yr,
                    splits: &mut splits,
                },
                &[0.0, 1.0, 2.0, 3.0],
                1,
                true,
                n_i,
                3,
                child_slices.iter().copied(),
                &mut scratch,
                DpKernel::Scalar,
            );
            if round == 0 {
                assert!(grew > 0, "cold scratch must grow once");
            } else {
                assert_eq!(grew, 0, "warm scratch must not allocate");
            }
            runs.push((x, yr, splits));
        }
        // Every reuse round is bit-identical to the first and to the pruned fill.
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0].0, reference.x);
        assert_eq!(runs[0].1, reference.y_red);
        assert_eq!(runs[0].2, reference.splits);
        assert!(scratch.memory_bytes() >= 2 * cells * 8 + 2 * n_i * 8);
    }
}
