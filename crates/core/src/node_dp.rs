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
//! `soar-dataplane` crate drives this same function from message-passing switch actors,
//! while [`crate::gather`] drives it from a centralized post-order traversal. Keeping a
//! single implementation guarantees the two agree.
//!
//! ## Hot-path shape
//!
//! The actual DP lives in [`fill_node`], which writes into caller-provided slices
//! ([`NodeTableMut`]) and reads children's `X` tables as borrowed slices — in the
//! centralized gather those are arena stripes, so **no per-node heap allocation**
//! happens at all once the [`DpScratch`] ping-pong buffers are warm. The `mCost`
//! inner loops are written against per-row subslices: the row bounds checks are
//! paid once per `(child, ℓ)` instead of once per `(child, ℓ, i, j)` lookup, and
//! the child's distance-1 row (the only row the blue recursion ever reads) is
//! hoisted out of the `ℓ` loop entirely.
//!
//! [`compute_node_table`] remains the allocating convenience wrapper used by the
//! dataplane's switch actors, which own their tables outright.

use crate::tables::{Color, DpTable, NodeTable, INF};
use wide::f64x4;

/// Which `mCost` inner-loop implementation a gather pass runs.
///
/// All kernels are **bit-identical**: they produce exactly the same `X`/`Y`
/// values *and* the same recorded arg-min splits as [`DpKernel::Scalar`]
/// (property-tested in `tests/kernel_identity.rs`). The fast kernels exploit an
/// exact invariant of the SOAR tables: every DP row is non-increasing in the
/// budget index `i` (more blue nodes never cost more), and f64 `+`/`min` are
/// monotone, so the invariant survives every fold without rounding caveats.
///
/// * [`Scalar`](DpKernel::Scalar) — the straight-line reference double loop
///   (the PR 1/2 code path), kept verbatim as the ground truth.
/// * [`Pruned`](DpKernel::Pruned) — scalar iteration order plus two exact
///   monotonicity prunes of the arg-min split search: the candidate range is
///   capped at the child row's *effective width* (the index where its trailing
///   plateau starts — beyond it every candidate is provably no better and loses
///   ties to an earlier split), and the scan exits early once the running
///   minimum is at or below a lower bound on every remaining candidate. For
///   leaf-heavy trees the effective width collapses to ≤ 1 and the quadratic
///   split search becomes linear.
/// * [`Tiled`](DpKernel::Tiled) — the same pruned candidate set, swept in
///   loop-swapped order: for each split `j` (ascending, in tiles of
///   [`TILE_COLS`] columns) the whole budget row is updated with the
///   [`wide::f64x4`] lane type (contiguous loads, compare + blend), and whole
///   tiles are skipped by an exact monotone bound. Ascending `j` with a strict
///   `<` update preserves the scalar first-minimum tie-break.
/// * [`Auto`](DpKernel::Auto) — resolves to the best measured default
///   ([`Pruned`]; see the crate performance notes). Overridable at runtime via
///   the `SOAR_GATHER_KERNEL` environment variable
///   (`scalar | pruned | tiled | auto`).
///
/// [`Pruned`]: DpKernel::Pruned
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(rename_all = "lowercase")
)]
pub enum DpKernel {
    /// Resolve to the measured best (currently [`DpKernel::Pruned`]).
    #[default]
    Auto,
    /// Reference double loop, no pruning.
    Scalar,
    /// Scalar order + exact effective-width cap + early exit.
    Pruned,
    /// Loop-swapped f64x4 column sweep + tile skipping (same pruned set).
    Tiled,
}

/// Column-tile width of the [`DpKernel::Tiled`] sweep. 64 f64 columns touch at
/// most 64 · 8 B = 512 B of the child row per tile, so a tile's working set
/// (child slice + the budget row being updated) stays L1-resident even at
/// budgets in the hundreds.
pub const TILE_COLS: usize = 64;

impl DpKernel {
    /// Parses a kernel name (`scalar | pruned | tiled | auto`), as accepted by
    /// the `SOAR_GATHER_KERNEL` environment override. Unknown names yield
    /// `None` so callers can surface the valid set.
    pub fn from_name(name: &str) -> Option<DpKernel> {
        match name {
            "auto" => Some(DpKernel::Auto),
            "scalar" => Some(DpKernel::Scalar),
            "pruned" => Some(DpKernel::Pruned),
            "tiled" => Some(DpKernel::Tiled),
            _ => None,
        }
    }

    /// Reads the `SOAR_GATHER_KERNEL` override, falling back to `Auto` when the
    /// variable is unset or names an unknown kernel.
    pub fn from_env() -> DpKernel {
        std::env::var("SOAR_GATHER_KERNEL")
            .ok()
            .and_then(|v| DpKernel::from_name(&v))
            .unwrap_or(DpKernel::Auto)
    }

    /// The concrete kernel `Auto` stands for.
    pub fn resolve(self) -> DpKernel {
        match self {
            DpKernel::Auto => DpKernel::Pruned,
            other => other,
        }
    }

    /// Stable name, as recorded in [`DpStats`](crate::api::DpStats) artifacts.
    pub fn name(self) -> &'static str {
        match self {
            DpKernel::Auto => "auto",
            DpKernel::Scalar => "scalar",
            DpKernel::Pruned => "pruned",
            DpKernel::Tiled => "tiled",
        }
    }
}

/// Reusable ping-pong buffers for the per-child prefix recursion (`Y^m`).
///
/// One scratch serves any number of consecutive [`fill_node`] calls; buffers only
/// grow (doubling), so a warm scratch performs no allocation. The buffers are
/// never cleared between nodes or children: every cell is overwritten before it is
/// read (the old INF refill between children was dead work — both buffers are
/// fully rewritten for every `(ℓ, i)` cell on the next child fold).
///
/// The scratch also accumulates the kernel telemetry
/// ([`kernel_counters`](DpScratch::kernel_counters)) that
/// [`DpStats`](crate::api::DpStats) reports per pass.
#[derive(Debug, Default)]
pub struct DpScratch {
    prev_blue: Vec<f64>,
    prev_red: Vec<f64>,
    cur_blue: Vec<f64>,
    cur_red: Vec<f64>,
    /// Arg-min rows of the loop-swapped sweep, kept as f64 so the update is one
    /// mask blend per lane (exact for any real split index: `j < 2^53`).
    arg_blue: Vec<f64>,
    arg_red: Vec<f64>,
    /// Column tiles the `Tiled` kernel actually processed (skipped tiles are
    /// counted under `pruned_splits` instead).
    tiles: usize,
    /// `(i, j)` split candidates the kernel never evaluated — by effective-width
    /// capping, early exit, or whole-tile skipping. 0 for `Scalar`.
    pruned_splits: usize,
}

impl DpScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Makes the ping-pong buffers at least `cells` long and the arg-min rows at
    /// least `n_i` long. Returns the number of buffers that had to (re)allocate
    /// — 0 once warm.
    fn ensure(&mut self, cells: usize, n_i: usize) -> usize {
        let mut grew = 0;
        for buf in [
            &mut self.prev_blue,
            &mut self.prev_red,
            &mut self.cur_blue,
            &mut self.cur_red,
        ] {
            if buf.len() < cells {
                if buf.capacity() < cells {
                    grew += 1;
                }
                buf.resize(cells.max(buf.capacity()), INF);
            }
        }
        for buf in [&mut self.arg_blue, &mut self.arg_red] {
            if buf.len() < n_i {
                if buf.capacity() < n_i {
                    grew += 1;
                }
                buf.resize(n_i.max(buf.capacity()), 0.0);
            }
        }
        grew
    }

    /// `(tiles, pruned_splits)` accumulated since the last
    /// [`reset_kernel_counters`](DpScratch::reset_kernel_counters).
    pub fn kernel_counters(&self) -> (usize, usize) {
        (self.tiles, self.pruned_splits)
    }

    /// Zeroes the kernel telemetry (called at the start of every gather pass).
    pub fn reset_kernel_counters(&mut self) {
        self.tiles = 0;
        self.pruned_splits = 0;
    }

    /// Current heap footprint of the scratch buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.prev_blue.capacity()
            + self.prev_red.capacity()
            + self.cur_blue.capacity()
            + self.cur_red.capacity()
            + self.arg_blue.capacity()
            + self.arg_red.capacity())
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
/// [`GatherTables`](crate::tables::GatherTables) arena (or from an owned
/// [`NodeTable`]'s buffers). All slices are `n_l · n_i` cells, row-major in `ℓ`,
/// except `splits` which is `(C(v) - 1) · n_l · n_i · 2`, where `n_i` is the
/// node's own column count.
pub struct NodeTableMut<'a> {
    /// `X_v` destination.
    pub x: &'a mut [f64],
    /// `Y_v(·, ·, B)` destination.
    pub y_blue: &'a mut [f64],
    /// `Y_v(·, ·, R)` destination.
    pub y_red: &'a mut [f64],
    /// Split-decision destination (empty for nodes with fewer than two children).
    pub splits: &'a mut [u32],
}

/// Fills one switch's DP table in place from its children's `X` tables.
///
/// * `path_rho[ℓ]` must hold `ρ(v, Aᵉ_v)` for `ℓ = 0 ..= D(v) + 1`; its length is
///   the number of rows `n_l`.
/// * `n_i` is the node's column count: `k + 1`, or `min(k, s_v) + 1` in the
///   capped arena layout.
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
        let yb_row = &mut out.y_blue[row..row + n_i];
        let yr_row = &mut out.y_red[row..row + n_i];
        yr_row.fill(red);
        yb_row[0] = INF;
        yb_row[1..].fill(blue);
        x_row[0] = red;
        x_row[1..].fill(red.min(blue));
    }
}

/// Recursive case (Alg. 3, lines 10-29): fold the children in one at a time through the
/// prefix recursion `Y^m`, recording the arg-min splits (`mCost`) along the way.
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
    let kernel = kernel.resolve();
    let grew = scratch.ensure(cells, n_i);
    let DpScratch {
        prev_blue,
        prev_red,
        cur_blue,
        cur_red,
        arg_blue,
        arg_red,
        tiles,
        pruned_splits,
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
        // Hoisted out of the ℓ loop (and its bounds check out of the j loop).
        let d1_row = &cx[c_w..2 * c_w];
        if m_index == 0 {
            // First child: Y^1 is a direct lookup, no split to record. Columns
            // past the child's width extend its plateau.
            let cur_blue = &mut cur_blue[..cells];
            let cur_red = &mut cur_red[..cells];
            for (l, &rho) in path_rho.iter().enumerate() {
                let row = l * n_i;
                // Red: c_1 is looked up at distance ℓ + 1; v's own workers travel
                // ℓ links to the barrier.
                let child_row = &cx[(l + 1) * c_w..(l + 2) * c_w];
                let cb_row = &mut cur_blue[row..row + n_i];
                let cr_row = &mut cur_red[row..row + n_i];
                let red_base = rho * load;
                for (cr, &c) in cr_row.iter_mut().zip(child_row) {
                    *cr = c + red_base;
                }
                cr_row[c_w..].fill(child_row[c_w - 1] + red_base);
                // Blue: v consumes one blue node; c_1 is looked up at distance 1
                // with the remaining i - 1 nodes.
                cb_row[0] = INF;
                if available {
                    for (cb, &c) in cb_row[1..].iter_mut().zip(d1_row) {
                        *cb = c + rho;
                    }
                    cb_row[(c_w + 1).min(n_i)..].fill(d1_row[c_w - 1] + rho);
                } else {
                    cb_row[1..].fill(INF);
                }
            }
        } else {
            let m = m_index + 1; // the paper's 1-based child index
            let prev_blue = &prev_blue[..cells];
            let prev_red = &prev_red[..cells];
            let cur_blue = &mut cur_blue[..cells];
            let cur_red = &mut cur_red[..cells];
            let split_block = &mut out.splits[(m - 2) * cells * 2..(m - 1) * cells * 2];
            // The blue fold always hands the child distance-1 costs, so its
            // effective width is shared by every ℓ row.
            let e_blue = match kernel {
                DpKernel::Scalar => 0,
                _ => effective_width(d1_row),
            };
            for l in 0..n_l {
                let row = l * n_i;
                let child_row = &cx[(l + 1) * c_w..(l + 2) * c_w];
                let pb_row = &prev_blue[row..row + n_i];
                let pr_row = &prev_red[row..row + n_i];
                let cb_row = &mut cur_blue[row..row + n_i];
                let cr_row = &mut cur_red[row..row + n_i];
                let split_row = &mut split_block[row * 2..(row + n_i) * 2];
                match kernel {
                    DpKernel::Auto | DpKernel::Scalar => {
                        mcost_row_scalar(
                            pb_row, pr_row, d1_row, child_row, available, cb_row, cr_row, split_row,
                        );
                    }
                    DpKernel::Pruned => {
                        let e_red = effective_width(child_row);
                        mcost_row_pruned(
                            pb_row,
                            pr_row,
                            d1_row,
                            child_row,
                            available,
                            e_blue,
                            e_red,
                            cb_row,
                            cr_row,
                            split_row,
                            pruned_splits,
                        );
                    }
                    DpKernel::Tiled => {
                        let e_red = effective_width(child_row);
                        mcost_row_tiled(
                            pb_row,
                            pr_row,
                            d1_row,
                            child_row,
                            available,
                            e_blue,
                            e_red,
                            cb_row,
                            cr_row,
                            split_row,
                            arg_blue,
                            arg_red,
                            tiles,
                            pruned_splits,
                        );
                    }
                }
            }
        }
        std::mem::swap(prev_blue, cur_blue);
        std::mem::swap(prev_red, cur_red);
    }

    // Final stage: Y_v = Y^{C(v)}, X_v = min(Y_B, Y_R).
    let prev_blue = &prev_blue[..cells];
    let prev_red = &prev_red[..cells];
    for i in 0..cells {
        let blue = prev_blue[i];
        let red = prev_red[i];
        out.y_blue[i] = blue;
        out.y_red[i] = red;
        out.x[i] = blue.min(red);
    }
    grew
}

/// Reference `mCost` row: the full quadratic arg-min scan, first strict minimum
/// wins. Every other kernel is property-tested bit-identical to this one.
///
/// The child rows may be narrower than the budget row; a split `j` past their
/// last column reads that column (the child's plateau).
#[allow(clippy::too_many_arguments)]
fn mcost_row_scalar(
    pb_row: &[f64],
    pr_row: &[f64],
    d1_row: &[f64],
    child_row: &[f64],
    available: bool,
    cb_row: &mut [f64],
    cr_row: &mut [f64],
    split_row: &mut [u32],
) {
    let n_i = cb_row.len();
    let c_last = child_row.len() - 1;
    for i in 0..n_i {
        // mCost for color B: hand j blue nodes to c_m, keep i - j ≥ 1
        // in the prefix (one of them is v itself).
        let mut best_blue = INF;
        let mut best_blue_j = 0u32;
        if available && i >= 1 {
            for j in 0..i {
                let value = pb_row[i - j] + d1_row[j.min(c_last)];
                if value < best_blue {
                    best_blue = value;
                    best_blue_j = j as u32;
                }
            }
        }
        // mCost for color R.
        let mut best_red = INF;
        let mut best_red_j = 0u32;
        for j in 0..=i {
            let value = pr_row[i - j] + child_row[j.min(c_last)];
            if value < best_red {
                best_red = value;
                best_red_j = j as u32;
            }
        }
        cb_row[i] = best_blue;
        cr_row[i] = best_red;
        split_row[i * 2] = best_blue_j;
        split_row[i * 2 + 1] = best_red_j;
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

/// `mCost` row in scalar iteration order with effective-width capping and
/// early exit. Bit-identical to [`mcost_row_scalar`] (values and splits).
#[allow(clippy::too_many_arguments)]
fn mcost_row_pruned(
    pb_row: &[f64],
    pr_row: &[f64],
    d1_row: &[f64],
    child_row: &[f64],
    available: bool,
    e_blue: usize,
    e_red: usize,
    cb_row: &mut [f64],
    cr_row: &mut [f64],
    split_row: &mut [u32],
    pruned_splits: &mut usize,
) {
    let n_i = cb_row.len();
    let mut skipped = 0usize;
    for i in 0..n_i {
        let (best_blue, best_blue_j) = if available && i >= 1 {
            let (v, j, s) = argmin_pruned(pb_row, d1_row, i, i - 1, e_blue);
            skipped += s;
            (v, j)
        } else {
            (INF, 0)
        };
        let (best_red, best_red_j, s) = argmin_pruned(pr_row, child_row, i, i, e_red);
        skipped += s;
        cb_row[i] = best_blue;
        cr_row[i] = best_red;
        split_row[i * 2] = best_blue_j;
        split_row[i * 2 + 1] = best_red_j;
    }
    *pruned_splits += skipped;
}

/// One column of the loop-swapped sweep: fold split candidate `j` (cost `c`)
/// into the running minima of every budget cell `i ∈ [start, n_i)`, four lanes
/// at a time. The candidate value for cell `i` is `p[i - j] + c` — a contiguous
/// shifted load of `p` — and the update is a strict-`<` compare + blend, so
/// ascending `j` reproduces the scalar first-minimum tie-break exactly.
#[inline]
fn fold_column(cur: &mut [f64], arg: &mut [f64], p: &[f64], c: f64, j: usize, start: usize) {
    let n_i = cur.len();
    let cv = f64x4::splat(c);
    let jv = f64x4::splat(j as f64);
    let mut i = start;
    while i + f64x4::LANES <= n_i {
        let value = f64x4::from_slice(&p[i - j..]) + cv;
        let cur_v = f64x4::from_slice(&cur[i..]);
        let mask = value.cmp_lt(cur_v);
        mask.blend(value, cur_v).write_to_slice(&mut cur[i..]);
        let arg_v = f64x4::from_slice(&arg[i..]);
        mask.blend(jv, arg_v).write_to_slice(&mut arg[i..]);
        i += f64x4::LANES;
    }
    while i < n_i {
        let value = p[i - j] + c;
        if value < cur[i] {
            cur[i] = value;
            arg[i] = j as f64;
        }
        i += 1;
    }
}

/// Loop-swapped sweep over one color: columns `j ∈ [0, jmax]` in tiles of
/// [`TILE_COLS`], rows updated with [`fold_column`]. `off` is 0 for red
/// (`i ≥ j`) and 1 for blue (`i ≥ j + 1`: the prefix keeps `v` itself).
///
/// A whole tile `[t0, t1]` is skipped when its cheapest possible candidate —
/// `p[n_i - 1 - t0] + c[t1]` by row monotonicity — is at or above the most
/// improvable current cell `cur[t0 + off]` (rows stay non-increasing throughout
/// the sweep, and cells below `t0 + off` have no candidates in the tile). A
/// skipped candidate can then never win a strict-`<` update, so the skip is
/// exact in both value and recorded split.
#[allow(clippy::too_many_arguments)]
fn sweep_color(
    cur: &mut [f64],
    arg: &mut [f64],
    p: &[f64],
    c: &[f64],
    e: usize,
    off: usize,
    tiles: &mut usize,
    pruned_splits: &mut usize,
) {
    let n_i = cur.len();
    let jmax = (n_i - 1 - off).min(e);
    // Candidates skipped by the effective-width cap: columns jmax+1 ..= n_i-1-off,
    // column j covering cells j+off .. n_i-1.
    let capped = n_i - 1 - off - jmax;
    *pruned_splits += capped * (n_i - off - jmax) - capped * (capped + 1) / 2;
    let mut t0 = 0;
    while t0 <= jmax {
        let t1 = (t0 + TILE_COLS - 1).min(jmax);
        if t0 > 0 && p[n_i - 1 - t0] + c[t1] >= cur[t0 + off] {
            let w = t1 - t0 + 1;
            *pruned_splits += w * (n_i - off - t0) - w * (w - 1) / 2;
            t0 = t1 + 1;
            continue;
        }
        *tiles += 1;
        for (j, &cj) in c.iter().enumerate().take(t1 + 1).skip(t0) {
            fold_column(cur, arg, p, cj, j, j + off);
        }
        t0 = t1 + 1;
    }
}

/// `mCost` row via the loop-swapped f64x4 column sweep (like the pruned row,
/// it never reads a child column past the effective width). Bit-identical to
/// [`mcost_row_scalar`] (values and splits): the candidate set is the same
/// pruned set as [`mcost_row_pruned`], evaluated with identical f64 expressions
/// in ascending-`j` order with strict-`<` updates.
#[allow(clippy::too_many_arguments)]
fn mcost_row_tiled(
    pb_row: &[f64],
    pr_row: &[f64],
    d1_row: &[f64],
    child_row: &[f64],
    available: bool,
    e_blue: usize,
    e_red: usize,
    cb_row: &mut [f64],
    cr_row: &mut [f64],
    split_row: &mut [u32],
    arg_blue: &mut [f64],
    arg_red: &mut [f64],
    tiles: &mut usize,
    pruned_splits: &mut usize,
) {
    let n_i = cb_row.len();
    let arg_blue = &mut arg_blue[..n_i];
    let arg_red = &mut arg_red[..n_i];
    cr_row.fill(INF);
    arg_red.fill(0.0);
    sweep_color(
        cr_row,
        arg_red,
        pr_row,
        child_row,
        e_red,
        0,
        tiles,
        pruned_splits,
    );
    cb_row.fill(INF);
    arg_blue.fill(0.0);
    if available && n_i > 1 {
        sweep_color(
            cb_row,
            arg_blue,
            pb_row,
            d1_row,
            e_blue,
            1,
            tiles,
            pruned_splits,
        );
    }
    for i in 0..n_i {
        split_row[i * 2] = arg_blue[i] as u32;
        split_row[i * 2 + 1] = arg_red[i] as u32;
    }
}

/// Computes the full DP table of one switch from its children's `X` tables, as an
/// owned [`NodeTable`].
///
/// * `path_rho[ℓ]` must hold `ρ(v, Aᵉ_v)` for `ℓ = 0 ..= D(v) + 1`.
/// * `children_x[m]` is the flat `X` table of the `m`-th child (row-major in `ℓ`, with
///   `k + 1` columns and `D(v) + 3` rows — i.e. the child's own table).
///
/// The returned table contains `X_v`, the final-stage `Y_v(·, ·, B/R)` and the recorded
/// split decisions for children `m ≥ 2`. This is the entry point of the
/// *distributed* rendition (`soar-dataplane`), where every switch owns its table;
/// the centralized gather instead fills arena slices via [`fill_node`] and never
/// allocates per node.
pub fn compute_node_table(
    path_rho: &[f64],
    load: u64,
    available: bool,
    k: usize,
    children_x: &[Vec<f64>],
) -> NodeTable {
    let n_l = path_rho.len();
    let mut table = NodeTable::new(n_l, k + 1, children_x.len(), path_rho.to_vec());
    let mut scratch = DpScratch::new();
    fill_node(
        NodeTableMut {
            x: &mut table.x,
            y_blue: &mut table.y_blue,
            y_red: &mut table.y_red,
            splits: &mut table.splits,
        },
        path_rho,
        load,
        available,
        k + 1,
        children_x.len(),
        children_x.iter().map(|v| v.as_slice()),
        &mut scratch,
        DpKernel::Scalar,
    );
    table
}

/// Given a switch's own table and its actual distance `ℓ*` to the nearest barrier plus
/// the number of blue nodes `i` it must distribute, decides the switch's color exactly
/// as SOAR-Color does (Alg. 4, line 6; leaves are handled by the caller).
///
/// Generic over [`DpTable`] so it serves both the dataplane's owned tables and the
/// arena-backed views of the centralized solver.
pub fn decide_color<T: DpTable + ?Sized>(table: &T, l: usize, i: usize) -> Color {
    if table.y(l, i, Color::Blue) < table.y(l, i, Color::Red) {
        Color::Blue
    } else {
        Color::Red
    }
}

/// Computes how many blue nodes each child receives when `v` (whose table is given) has
/// `i` blue nodes to distribute, sits at distance `ℓ*` from its barrier, and takes the
/// given color. Returns one entry per child, in child order (Alg. 4, lines 9-16).
pub fn child_budgets<T: DpTable + ?Sized>(
    table: &T,
    n_children: usize,
    l: usize,
    i: usize,
    color: Color,
) -> Vec<usize> {
    let mut budgets = vec![0usize; n_children];
    let mut remaining = i;
    for m in (2..=n_children).rev() {
        let j = table.split(m, l, remaining, color) as usize;
        budgets[m - 1] = j;
        remaining -= j;
    }
    if n_children >= 1 {
        budgets[0] = match color {
            Color::Blue => remaining.saturating_sub(1),
            Color::Red => remaining,
        };
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_table_values() {
        let table = compute_node_table(&[0.0, 1.0, 2.0], 3, true, 2, &[]);
        assert_eq!(table.x(1, 0), 3.0);
        assert_eq!(table.x(1, 1), 1.0);
        assert_eq!(table.x(2, 0), 6.0);
        assert_eq!(table.x(2, 2), 2.0);
        assert_eq!(table.y(2, 1, Color::Red), 6.0);
        assert_eq!(table.y(2, 1, Color::Blue), 2.0);

        let unavailable = compute_node_table(&[0.0, 1.0], 3, false, 2, &[]);
        assert_eq!(unavailable.x(1, 2), 3.0);
        assert_eq!(unavailable.y(1, 2, Color::Blue), INF);
    }

    #[test]
    fn internal_node_matches_manual_computation() {
        // Reproduce the left internal switch of Fig. 5 (children with loads 2 and 6,
        // unit rates): its children's X tables are X(ℓ, 0) = L·ℓ and X(ℓ, i ≥ 1) = ℓ.
        let k = 2;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 4 * (k + 1)];
            for l in 0..4 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let table = compute_node_table(&[0.0, 1.0, 2.0], 0, true, k, &[child(2.0), child(6.0)]);
        assert_eq!(table.x(0, 0), 8.0);
        assert_eq!(table.x(0, 1), 3.0);
        assert_eq!(table.x(0, 2), 2.0);
        assert_eq!(table.x(1, 0), 16.0);
        assert_eq!(table.x(1, 1), 6.0);
        assert_eq!(table.x(2, 1), 9.0);
    }

    #[test]
    fn decide_color_and_child_budgets() {
        let k = 2;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 4 * (k + 1)];
            for l in 0..4 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let table = compute_node_table(&[0.0, 1.0, 2.0], 0, true, k, &[child(2.0), child(6.0)]);
        // At ℓ = 1 with i = 1 the red configuration (child-2 blue) is cheaper than
        // being blue itself: X(1,1) = 6 comes from the red row.
        assert_eq!(decide_color(&table, 1, 1), Color::Red);
        let budgets = child_budgets(&table, 2, 1, 1, Color::Red);
        assert_eq!(budgets.iter().sum::<usize>(), 1);
        assert_eq!(
            budgets,
            vec![0, 1],
            "the heavy child receives the blue node"
        );

        // With i = 0 nothing is distributed.
        assert_eq!(child_budgets(&table, 2, 1, 0, Color::Red), vec![0, 0]);
    }

    #[test]
    fn scratch_reuse_is_allocation_free_and_result_invariant() {
        let k = 3;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 5 * (k + 1)];
            for l in 0..5 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let children: Vec<Vec<f64>> = vec![child(2.0), child(6.0), child(5.0)];
        let child_slices: Vec<&[f64]> = children.iter().map(|v| v.as_slice()).collect();
        let reference = compute_node_table(&[0.0, 1.0, 2.0, 3.0], 1, true, k, &children);

        let mut scratch = DpScratch::new();
        let n_l = 4;
        let n_i = k + 1;
        let cells = n_l * n_i;
        let mut runs = Vec::new();
        for round in 0..3 {
            let mut x = vec![0.0; cells];
            let mut yb = vec![0.0; cells];
            let mut yr = vec![0.0; cells];
            let mut splits = vec![0u32; 2 * cells * 2];
            let grew = fill_node(
                NodeTableMut {
                    x: &mut x,
                    y_blue: &mut yb,
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
            runs.push((x, yb, yr, splits));
        }
        // Every reuse round is bit-identical to the first and to the owned wrapper.
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0].0, reference.x);
        assert_eq!(runs[0].1, reference.y_blue);
        assert_eq!(runs[0].2, reference.y_red);
        assert_eq!(runs[0].3, reference.splits);
        assert!(scratch.memory_bytes() >= 4 * cells * 8);
    }
}
