//! Dynamic-programming tables produced by SOAR-Gather and consumed by SOAR-Color.
//!
//! For every switch `v` the gather phase materialises the parameterized potential
//! function of the paper (Sec. 6.1):
//!
//! * `X_v(ℓ, i)` — the minimum potential `π_v(ℓ, U)` over all sets `U` of `i` blue
//!   nodes inside the subtree `T_v`, where `ℓ` is the hop distance from `v` to its
//!   closest blue ancestor (or to the destination `d`);
//! * `Y_v^{C(v)}(ℓ, i, R)` — the same minimum conditioned on `v` itself being
//!   red, the final stage of the per-child prefix recursion;
//! * the **split decisions**: for every child index `m ≥ 2`, how many of the `i`
//!   blue nodes the optimal partition hands to the subtree of the `m`-th child
//!   (the `arg min` of the paper's `mCost`, recorded so that SOAR-Color can trace
//!   the optimum without recomputing it) — one row per `i` when `v` is blue, and
//!   one per `(ℓ, i)` when it is red.
//!
//! The parameter ranges are `ℓ ∈ {0, ..., D(v) + 1}` (up to the distance from `v` to
//! the destination) and `i ∈ {0, ..., k}`.
//!
//! ## What is not stored: `Y_B`
//!
//! SOAR-Color (Alg. 4) reads the blue-conditioned potential `Y_B` only to
//! compare it with `Y_R`, and the tables answer that comparison without it:
//!
//! * at an internal switch the fill writes `X = Y_B.min(Y_R)`, so
//!   `Y_B < Y_R` holds exactly when `X < Y_R` (if `Y_B < Y_R`, `X` is `Y_B`;
//!   otherwise `X` is `Y_R`, or a value equal to it);
//! * at a leaf `Y_B(ℓ, i ≥ 1)` is `ρ(ℓ)` when the switch is available, which
//!   the ρ block already holds.
//!
//! Both are the same f64 comparisons the stored `Y_B` would give, so the
//! colorings are unchanged bit for bit. A blue switch is the barrier of its
//! children, so its splits do not depend on `ℓ` (see the
//! [`node_dp`](crate::node_dp) module docs) and each child stage stores its
//! blue split row once.
//!
//! ## Table widths: `min(k, s_v) + 1` columns per node
//!
//! A subtree of `s_v` switches can hold at most `s_v` blue nodes, so the rows
//! of `v`'s table stop changing at `i = s_v`: every `X`, `Y` and recorded split
//! at `i > s_v` is **bitwise** equal to the one at `s_v`. The arena therefore
//! stores only `w_v = min(k, s_v) + 1` columns for node `v`, and every read at
//! `i ≥ w_v` returns column `w_v − 1`. `s_v` depends only on the tree's shape,
//! so availability, load and rate churn never change the layout.
//!
//! Why clamped reads are exact: by induction over the prefix recursion, the
//! stage-`m` rows `Y_v^m` are constant from `S_m = 1 + s_{c_1} + … + s_{c_m}`
//! on. For `i ≥ S_m` every split `j ≤ s_{c_m}` leaves `i − j ≥ S_{m−1}`, so its
//! candidate is `plateau(Y^{m−1}) + row_c[j]`; splits `j > s_{c_m}` pair the
//! child's plateau with a prefix value that is no smaller. The minimum is the
//! same f64 sum, and its first arg-min lies in `[0, s_{c_m}]` independently of
//! `i`. Hence for `i ≤ s_v` the candidate list the fill evaluates is the
//! uncapped one bit for bit (a child read at `j ≥ w_c` clamps to the child's
//! plateau, which is what the uncapped child holds there), and for `i > s_v`
//! the clamped value, split and traceback step are the ones at `s_v`. A
//! switch actor of the distributed rendition (`soar-dataplane`) works out the
//! same width from its children's `X` tables alone, because
//! `min(k, 1 + Σ_c s_c) = min(k, 1 + Σ_c min(k, s_c))`, so its table is the
//! arena's block bit for bit.
//!
//! ## Storage: one arena per gather pass
//!
//! [`GatherTables`] does **not** hold one heap object per switch. All per-switch
//! tables live in four flat arenas (`X`, `Y_R`, the ρ prefix sums, and the
//! split decisions), with per-node offsets precomputed from the tree shape by
//! `GatherTables::reset`. [`block_lens`] states every node's block lengths:
//! `(D(v) + 2) · w_v` cells of `X` and of `Y_R`, and per child stage `m ≥ 2`
//! one `(D(v) + 3) · w_v` split block, the blue row followed by the `D(v) + 2`
//! red rows. Nodes are laid out **grouped by depth** (shallowest level first),
//! which gives the gather pass two properties for free:
//!
//! * a node's children always live *after* the node's own level in the arena, so
//!   one `split_at_mut` per level yields disjoint mutable output blocks and shared
//!   read-only child blocks — children's `X` tables are borrowed as slices, never
//!   cloned;
//! * all nodes of one level can be filled **concurrently** (they only read the
//!   deeper region), which is what `soar-pool`'s level-parallel gather exploits.
//!
//! The arenas shrink-by-truncate and grow-by-doubling, so a
//! [`SolverWorkspace`](crate::workspace::SolverWorkspace) that replays instances of
//! the same shape performs **zero heap allocations** after its first pass.
//!
//! Every table, the arena's blocks and a switch actor's own buffers alike, is
//! read through the borrowed [`NodeTableView`].

use soar_topology::{NodeId, Tree};

/// Sentinel for an infeasible configuration (e.g. coloring an unavailable switch blue).
pub const INF: f64 = f64::INFINITY;

/// Identifies the color a potential value is conditioned on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Aggregating switch (`v ∈ U`).
    Blue,
    /// Forwarding switch (`v ∉ U`).
    Red,
}

/// The lengths of one node's blocks for a table of `n_l` rows and `n_i`
/// columns at a switch with `n_children` children: `(cells, split_len)`.
/// `X` and `Y_R` hold `cells` values each; the splits hold, for every child
/// stage `m ≥ 2`, the blue split row (`n_i` entries) followed by the `n_l`
/// red split rows. The arena, a switch actor and any other owner of a table
/// size its buffers with this one function.
pub fn block_lens(n_l: usize, n_i: usize, n_children: usize) -> (usize, usize) {
    let stage = (n_l + 1) * n_i;
    (n_l * n_i, n_children.saturating_sub(1) * stage)
}

/// A borrowed view of one switch's DP table: a block of the [`GatherTables`]
/// arena, or the buffers a switch actor owns.
///
/// Reads at `i ≥ n_i` return column `n_i − 1`, the plateau every row reaches
/// at `i = s_v` (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct NodeTableView<'a> {
    /// Number of distinct `ℓ` values of this node's table.
    pub n_l: usize,
    /// Number of stored `i` columns: `min(k, s_v) + 1`.
    pub n_i: usize,
    x: &'a [f64],
    y_red: &'a [f64],
    rho: &'a [f64],
    splits: &'a [u32],
}

impl<'a> NodeTableView<'a> {
    /// Views one node's table with `n_i` columns and one row per entry of
    /// `rho` (its ρ prefix sums): `x` and `y_red` hold `rho.len() · n_i`
    /// cells each, row-major in `ℓ`, and `splits` holds the split blocks of
    /// children `c_2 ..= c_C` laid out as [`block_lens`] states, as
    /// [`fill_node`](crate::node_dp::fill_node) writes them.
    #[inline]
    pub fn new(
        n_i: usize,
        rho: &'a [f64],
        x: &'a [f64],
        y_red: &'a [f64],
        splits: &'a [u32],
    ) -> Self {
        let n_l = rho.len();
        let cells = n_l * n_i;
        assert!(
            n_l >= 1 && n_i >= 1 && x.len() == cells && y_red.len() == cells,
            "a table of {n_l} rows and {n_i} columns needs {cells} cells per array"
        );
        debug_assert_eq!(
            splits.len() % ((n_l + 1) * n_i),
            0,
            "split blocks are (n_l + 1) · n_i long"
        );
        NodeTableView {
            n_l,
            n_i,
            x,
            y_red,
            rho,
            splits,
        }
    }

    #[inline]
    fn idx(&self, l: usize, i: usize) -> usize {
        debug_assert!(l < self.n_l, "l = {l} out of range {}", self.n_l);
        l * self.n_i + i.min(self.n_i - 1)
    }

    /// `X_v(ℓ, i)`.
    #[inline]
    pub fn x(&self, l: usize, i: usize) -> f64 {
        self.x[self.idx(l, i)]
    }

    /// Final-stage `Y_v(ℓ, i, R)`.
    #[inline]
    pub fn y_red(&self, l: usize, i: usize) -> f64 {
        self.y_red[self.idx(l, i)]
    }

    /// The recorded split for child `c_m` (`m ≥ 2`) when `v` has the given
    /// color. A blue switch's split does not depend on `ℓ`.
    #[inline]
    pub fn split(&self, m: usize, l: usize, i: usize, color: Color) -> u32 {
        debug_assert!(m >= 2, "splits are only recorded for children m >= 2");
        debug_assert!(l < self.n_l, "l = {l} out of range {}", self.n_l);
        let row = match color {
            Color::Blue => 0,
            Color::Red => l + 1,
        };
        let stage = (m - 2) * (self.n_l + 1);
        self.splits[(stage + row) * self.n_i + i.min(self.n_i - 1)]
    }

    /// Number of children with recorded splits (`C(v) - 1` for internal nodes).
    pub fn n_split_children(&self) -> usize {
        self.splits.len() / ((self.n_l + 1) * self.n_i)
    }

    /// `ρ(v, Aᵉ_v)` — the summed transmission time of the first `ℓ` up-links above `v`.
    #[inline]
    pub fn rho_up(&self, l: usize) -> f64 {
        self.rho[l]
    }

    /// The full `X` table of this node as a flat row-major slice (what a child
    /// ships to its parent in the distributed rendition).
    pub fn x_slice(&self) -> &'a [f64] {
        self.x
    }

    /// The stored `Y_v(·, ·, R)`, flat and row-major in `ℓ`.
    pub fn y_red_slice(&self) -> &'a [f64] {
        self.y_red
    }

    /// The stored split decisions, flat in the order [`block_lens`] states.
    pub fn splits_slice(&self) -> &'a [u32] {
        self.splits
    }
}

/// The optimum under "at most `k` blue nodes" from the root's `X(ℓ = 1, ·)`
/// row: the smallest `i` whose value beats every smaller one by more than
/// `1e-12`, with that value. A row narrower than `k + 1` columns ends on its
/// plateau, so the columns it leaves out cannot improve on it.
pub fn row_optimum(row: &[f64]) -> (usize, f64) {
    let mut best_i = 0;
    let mut best = row[0];
    for (i, &value) in row.iter().enumerate().skip(1) {
        if value < best - 1e-12 {
            best = value;
            best_i = i;
        }
    }
    (best_i, best)
}

/// All per-switch tables produced by one run of SOAR-Gather, stored in flat,
/// reusable arenas, node `v` with `min(k, s_v) + 1` columns (see the
/// [module docs](self) for the layout and why clamped reads are exact).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatherTables {
    /// The budget the tables were computed for.
    pub k: usize,
    // ---- per-node layout, indexed by NodeId ----
    /// Rows of node `v`'s table: `D(v) + 2`.
    pub(crate) n_l: Vec<u32>,
    /// Columns of node `v`'s table: `min(k, s_v) + 1`, where `s_v` is the
    /// number of switches in `v`'s subtree.
    pub(crate) n_i: Vec<u32>,
    /// Offset (in cells) of node `v`'s block inside `x` / `y_red`.
    pub(crate) cell_off: Vec<usize>,
    /// Offset of node `v`'s ρ prefix block inside `rho` (length `n_l[v]`).
    pub(crate) rho_off: Vec<usize>,
    /// Offset (in `u32`s) of node `v`'s split block inside `splits`.
    pub(crate) split_off: Vec<usize>,
    /// Length (in `u32`s) of node `v`'s split block (see [`block_lens`]).
    pub(crate) split_len: Vec<usize>,
    // ---- level structure (levels laid out shallowest first) ----
    /// Node ids sorted by `(depth, id)` — the arena order.
    pub(crate) level_nodes: Vec<NodeId>,
    /// Per depth `d`: index range of its nodes inside `level_nodes`.
    pub(crate) level_ranges: Vec<(usize, usize)>,
    /// Per depth `d`: cell offset one past its last node's block.
    pub(crate) level_cell_end: Vec<usize>,
    /// Per depth `d`: split offset one past its last node's block.
    pub(crate) level_split_end: Vec<usize>,
    // ---- arenas ----
    pub(crate) x: Vec<f64>,
    pub(crate) y_red: Vec<f64>,
    pub(crate) rho: Vec<f64>,
    pub(crate) splits: Vec<u32>,
}

/// Shrinks or grows `v` to exactly `len` entries, returning `1` when backing
/// storage had to be (re)allocated. Shrinking truncates (no write, capacity
/// kept); growing reserves at least double to amortize repeated small growths.
fn fit<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) -> usize {
    if len <= v.len() {
        v.truncate(len);
        0
    } else {
        let grew = if v.capacity() < len {
            v.reserve(len.max(v.capacity() * 2) - v.len());
            1
        } else {
            0
        };
        v.resize(len, fill);
        grew
    }
}

impl GatherTables {
    /// Creates tables laid out for the tree and budget, with all values zeroed
    /// (the gather pass overwrites every cell).
    pub(crate) fn new(tree: &Tree, k: usize) -> Self {
        let mut tables = GatherTables::default();
        tables.reset(tree, k);
        tables
    }

    /// Recomputes the arena layout for `tree` and budget `k`, reusing all backing
    /// storage. Returns the number of buffers that had to grow (0 once the
    /// workspace is warm for this shape — the alloc-count fed into
    /// [`crate::api::DpStats`]).
    ///
    /// Only the layout is computed here; values are written by the gather pass,
    /// which overwrites every cell, so no clearing is needed.
    pub(crate) fn reset(&mut self, tree: &Tree, k: usize) -> usize {
        let n = tree.n_switches();
        self.k = k;
        let mut grew = 0;

        grew += fit(&mut self.n_l, n, 0);
        grew += fit(&mut self.n_i, n, 0);
        grew += fit(&mut self.cell_off, n, 0);
        grew += fit(&mut self.rho_off, n, 0);
        grew += fit(&mut self.split_off, n, 0);
        grew += fit(&mut self.split_len, n, 0);
        grew += fit(&mut self.level_nodes, n, 0);
        let n_levels = tree.height() + 1;
        grew += fit(&mut self.level_ranges, n_levels, (0, 0));
        grew += fit(&mut self.level_cell_end, n_levels, 0);
        grew += fit(&mut self.level_split_end, n_levels, 0);

        // Counting sort of the nodes by depth: first counts, then starts, then
        // placement — all in the reused buffers.
        for range in self.level_ranges.iter_mut() {
            *range = (0, 0);
        }
        for v in 0..n {
            self.level_ranges[tree.depth(v)].1 += 1;
        }
        let mut cursor = 0;
        for range in self.level_ranges.iter_mut() {
            let count = range.1;
            *range = (cursor, cursor);
            cursor += count;
        }
        for v in 0..n {
            let d = tree.depth(v);
            self.level_nodes[self.level_ranges[d].1] = v;
            self.level_ranges[d].1 += 1;
        }

        // Subtree sizes s_v in `n_i`, each replaced by the node's column
        // count as the node is placed.
        subtree_sizes(tree, &mut self.n_i);

        // Arena offsets in level order.
        let (mut cells, mut rho_cells, mut split_cells) = (0usize, 0usize, 0usize);
        for d in 0..n_levels {
            let (start, end) = self.level_ranges[d];
            for idx in start..end {
                let v = self.level_nodes[idx];
                let block = NodeBlock::of(tree, v, self.n_i[v] as usize, k);
                self.n_l[v] = block.n_l as u32;
                self.n_i[v] = block.n_i as u32;
                self.cell_off[v] = cells;
                self.rho_off[v] = rho_cells;
                self.split_off[v] = split_cells;
                self.split_len[v] = block.split_len;
                cells += block.cells;
                rho_cells += block.n_l;
                split_cells += block.split_len;
            }
            self.level_cell_end[d] = cells;
            self.level_split_end[d] = split_cells;
        }

        grew += fit(&mut self.x, cells, 0.0);
        grew += fit(&mut self.y_red, cells, 0.0);
        grew += fit(&mut self.rho, rho_cells, 0.0);
        grew += fit(&mut self.splits, split_cells, 0);

        // The ρ prefix sums are part of the layout (they only depend on the tree).
        for v in 0..n {
            self.refresh_rho_node(tree, v);
        }
        grew
    }

    /// Recomputes node `v`'s ρ prefix block against the tree's *current* link
    /// rates: entry `ℓ` is the summed ρ of the first `ℓ` up-links, in the
    /// same order as `Tree::path_rho`. [`Self::reset`] runs it for every
    /// node, so the stored values are bit-identical when the rates are
    /// unchanged. This is the partial rho-arena reset behind link-rate (ω)
    /// churn: a rate change on the up-link of `w` moves the blocks of exactly
    /// the nodes in `subtree(w)`, and the partial gather refreshes each dirty
    /// node's block before refilling it.
    pub(crate) fn refresh_rho_node(&mut self, tree: &Tree, v: NodeId) {
        let off = self.rho_off[v];
        let n_l = self.n_l[v] as usize;
        self.rho[off] = 0.0;
        let mut acc = 0.0;
        let mut cur = Some(v);
        for l in 1..n_l {
            let u = cur.expect("n_l matches the root-path length");
            acc += tree.rho(u);
            self.rho[off + l] = acc;
            cur = tree.parent(u);
        }
    }

    /// The table of switch `v`, as a borrowed view into the arena.
    pub fn node(&self, v: NodeId) -> NodeTableView<'_> {
        let n_l = self.n_l[v] as usize;
        let n_i = self.n_i[v] as usize;
        let cells = n_l * n_i;
        let off = self.cell_off[v];
        NodeTableView::new(
            n_i,
            &self.rho[self.rho_off[v]..self.rho_off[v] + n_l],
            &self.x[off..off + cells],
            &self.y_red[off..off + cells],
            &self.splits[self.split_off[v]..self.split_off[v] + self.split_len[v]],
        )
    }

    /// Shorthand for `X_v(ℓ, i)` (clamped to the node's last column).
    pub fn x(&self, v: NodeId, l: usize, i: usize) -> f64 {
        self.node(v).x(l, i)
    }

    /// Shorthand for the final-stage `Y_v(ℓ, i, R)` (clamped to the node's
    /// last column).
    pub fn y_red(&self, v: NodeId, l: usize, i: usize) -> f64 {
        self.node(v).y_red(l, i)
    }

    /// The optimal utilization achievable with **exactly** the given number of blue
    /// nodes: `X_r(1, i)` (Eq. 6 of the paper, the destination's view `X_d(0, i)`).
    pub fn optimum_with_exactly(&self, i: usize) -> f64 {
        self.x(soar_topology::ROOT, 1, i)
    }

    /// The optimal utilization achievable with **at most** `k` blue nodes, together with
    /// the smallest number of blue nodes attaining it.
    pub fn optimum(&self) -> (usize, f64) {
        let root = self.node(soar_topology::ROOT);
        row_optimum(&root.x_slice()[root.n_i..2 * root.n_i])
    }

    /// Number of switches covered by the tables.
    pub fn n_switches(&self) -> usize {
        self.n_l.len()
    }

    /// Number of `X(ℓ, i)` cells of node `v`'s table — what one refill of the
    /// node writes (the unit of the incremental-update work measure).
    pub(crate) fn node_cells(&self, v: NodeId) -> usize {
        self.n_l[v] as usize * self.n_i[v] as usize
    }

    /// Number of rows (`ℓ` values) of node `v`'s table: `D(v) + 2` under the
    /// layout this arena was last reset for.
    pub(crate) fn node_rows(&self, v: NodeId) -> usize {
        self.n_l[v] as usize
    }

    /// Number of tree levels the current layout describes.
    pub(crate) fn n_levels(&self) -> usize {
        self.level_ranges.len()
    }

    /// Total number of stored `X(ℓ, i)` cells across all per-switch tables,
    /// `Σ_v (D(v) + 2) · (min(k, s_v) + 1)` — the work measure reported by
    /// [`crate::api::DpStats`].
    pub fn table_cells(&self) -> usize {
        self.x.len()
    }

    /// Total heap footprint of the arenas, in bytes.
    pub fn memory_bytes(&self) -> usize {
        arena_bytes(self.x.len(), self.rho.len(), self.splits.len())
    }

    /// [`Self::memory_bytes`] of the tables a gather of `tree` at budget `k`
    /// lays out, computed from the shape alone without allocating the
    /// arenas — what a caller that budgets memory checks before it commits
    /// to a gather.
    pub fn layout_bytes(tree: &Tree, k: usize) -> usize {
        let mut sizes = vec![0; tree.n_switches()];
        subtree_sizes(tree, &mut sizes);
        let (mut cells, mut rho_cells, mut split_cells) = (0, 0, 0);
        for (v, &s) in sizes.iter().enumerate() {
            let block = NodeBlock::of(tree, v, s as usize, k);
            cells += block.cells;
            rho_cells += block.n_l;
            split_cells += block.split_len;
        }
        arena_bytes(cells, rho_cells, split_cells)
    }

    /// Total *reserved* heap footprint of the arenas (capacity, not live cells),
    /// in bytes — what a workspace actually holds on to between gathers. Feeds
    /// the shrink-on-idle policy of
    /// [`SolverWorkspace`](crate::workspace::SolverWorkspace).
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.x.capacity() + self.y_red.capacity() + self.rho.capacity()) * 8
            + self.splits.capacity() * 4
    }

    /// [`Self::capacity_bytes`] plus the reserved per-node and per-level
    /// layout index: every heap byte these tables hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.capacity_bytes()
            + (self.n_l.capacity() + self.n_i.capacity()) * size_of::<u32>()
            + (self.cell_off.capacity()
                + self.rho_off.capacity()
                + self.split_off.capacity()
                + self.split_len.capacity()
                + self.level_nodes.capacity()
                + self.level_cell_end.capacity()
                + self.level_split_end.capacity())
                * size_of::<usize>()
            + self.level_ranges.capacity() * size_of::<(usize, usize)>()
    }

    /// Releases arena capacity beyond the current layout (shrink-by-truncate):
    /// every backing vector keeps its live prefix and drops the reserved tail.
    /// Unlike a full clear this keeps the workspace warm for the *current*
    /// shape — only a later, larger shape pays a growth again. Returns the
    /// number of buffers that actually reallocated (counted as alloc events by
    /// the workspace so shrinks stay visible in [`crate::api::DpStats`]).
    pub(crate) fn shrink_to_live(&mut self) -> usize {
        let mut shrunk = 0;
        macro_rules! trim {
            ($field:expr) => {
                if $field.capacity() > $field.len() {
                    $field.shrink_to_fit();
                    shrunk += 1;
                }
            };
        }
        trim!(self.x);
        trim!(self.y_red);
        trim!(self.rho);
        trim!(self.splits);
        trim!(self.n_l);
        trim!(self.n_i);
        trim!(self.cell_off);
        trim!(self.rho_off);
        trim!(self.split_off);
        trim!(self.split_len);
        trim!(self.level_nodes);
        trim!(self.level_ranges);
        trim!(self.level_cell_end);
        trim!(self.level_split_end);
        shrunk
    }
}

/// One node's blocks in the arenas at budget `k`, which
/// [`GatherTables::reset`] places and [`GatherTables::layout_bytes`] only sums.
struct NodeBlock {
    /// Rows `ℓ ∈ 0..=dist_to_dest(v)`, each with one ρ entry.
    n_l: usize,
    /// Columns `min(k, s_v) + 1`.
    n_i: usize,
    /// Cells in each of the `X` and `Y_R` arenas.
    cells: usize,
    /// Split points (see [`block_lens`]).
    split_len: usize,
}

impl NodeBlock {
    fn of(tree: &Tree, v: NodeId, subtree_size: usize, k: usize) -> Self {
        let n_l = tree.dist_to_dest(v) + 1;
        let n_i = subtree_size.min(k) + 1;
        let (cells, split_len) = block_lens(n_l, n_i, tree.n_children(v));
        NodeBlock {
            n_l,
            n_i,
            cells,
            split_len,
        }
    }
}

/// Writes every node's subtree size `s_v` into `sizes` (one slot per
/// switch). The tree stores parents before children, so the reversed id
/// order visits children first.
fn subtree_sizes(tree: &Tree, sizes: &mut [u32]) {
    sizes.fill(1);
    for v in (1..sizes.len()).rev() {
        let p = tree.parent(v).expect("only the root lacks a parent");
        sizes[p] += sizes[v];
    }
}

/// Heap bytes of arenas with `cells` cells in each of `X` and `Y_R`,
/// `rho_cells` ρ entries and `split_cells` split points.
fn arena_bytes(cells: usize, rho_cells: usize, split_cells: usize) -> usize {
    (2 * cells + rho_cells) * 8 + split_cells * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use soar_topology::builders;

    /// `Σ_v (D(v) + 2) · (min(k, s_v) + 1)`, from the tree alone.
    fn capped_cells(tree: &Tree, k: usize) -> usize {
        tree.node_ids()
            .map(|v| (tree.dist_to_dest(v) + 1) * (tree.subtree_size(v).min(k) + 1))
            .sum()
    }

    #[test]
    fn gather_tables_shape_follows_tree() {
        let tree = builders::complete_binary_tree(7);
        let tables = GatherTables::new(&tree, 2);
        assert_eq!(tables.n_switches(), 7);
        // Root: D = 0 → 2 rows; leaves: D = 2 → 4 rows.
        assert_eq!(tables.node(0).n_l, 2);
        assert_eq!(tables.node(3).n_l, 4);
        // Columns: min(k, s_v) + 1 — the root (s = 7) and the internal
        // switches (s = 3) are capped by k = 2, the leaves (s = 1) by s_v.
        assert_eq!(tables.node(0).n_i, 3);
        assert_eq!(tables.node(1).n_i, 3);
        assert_eq!(tables.node(3).n_i, 2);
        // Binary internal nodes record one split block (for child m = 2).
        assert_eq!(tables.node(0).n_split_children(), 1);
        assert_eq!(tables.node(3).n_split_children(), 0);
        assert!(tables.memory_bytes() > 0);
        // Total cells: 2·3 (root) + 2·(3·3) (internal) + 4·(4·2) (leaves).
        assert_eq!(tables.table_cells(), 2 * 3 + 2 * (3 * 3) + 4 * (4 * 2));
        assert_eq!(tables.table_cells(), capped_cells(&tree, 2));
    }

    #[test]
    fn capped_widths_match_the_layout_formula() {
        let shapes = [
            builders::complete_binary_tree_bt(4096),
            builders::complete_kary_tree(16, 4369),
            builders::path(40),
            builders::star(50),
            builders::caterpillar(9, 4),
        ];
        for tree in &shapes {
            for k in [0usize, 1, 5, 16, 100] {
                let tables = GatherTables::new(tree, k);
                assert_eq!(tables.table_cells(), capped_cells(tree, k));
                for v in tree.node_ids() {
                    assert_eq!(tables.node(v).n_i, tree.subtree_size(v).min(k) + 1);
                }
            }
        }
        // `layout_bytes` predicts the arenas of every shape without laying
        // them out.
        for tree in &shapes {
            for k in [0usize, 1, 5, 16, 100] {
                let tables = GatherTables::new(tree, k);
                assert_eq!(GatherTables::layout_bytes(tree, k), tables.memory_bytes());
                assert!(tables.heap_bytes() >= tables.memory_bytes());
            }
        }
        // The BT(4096), k = 16 table behind `solve-mix`: 835,584 cells at
        // uniform k + 1 columns, 223,232 capped.
        let bt = &shapes[0];
        assert_eq!(GatherTables::new(bt, 16).table_cells(), 223_232);
        let uniform: usize = bt.node_ids().map(|v| (bt.dist_to_dest(v) + 1) * 17).sum();
        assert_eq!(uniform, 835_584);
        // Its arenas: X and Y_R, the ρ blocks and one split block per child
        // stage, laid out as `block_lens` states.
        assert_eq!(GatherTables::layout_bytes(bt, 16), 4_711_356);
    }

    #[test]
    fn arena_layout_groups_nodes_by_level() {
        let tree = builders::complete_binary_tree(7);
        let tables = GatherTables::new(&tree, 1);
        // Levels are contiguous and shallowest-first.
        assert_eq!(tables.level_nodes, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(tables.level_ranges, vec![(0, 1), (1, 3), (3, 7)]);
        // The level boundary sits exactly after the root's block.
        assert_eq!(tables.level_cell_end[0], 2 * 2);
        // Offsets are strictly increasing in arena order.
        for pair in tables.level_nodes.windows(2) {
            assert!(tables.cell_off[pair[0]] < tables.cell_off[pair[1]]);
        }
    }

    #[test]
    fn reset_reuses_storage_for_the_same_shape() {
        let tree = builders::complete_binary_tree(31);
        let mut tables = GatherTables::new(&tree, 4);
        // Warm: same tree and budget → zero growth.
        assert_eq!(tables.reset(&tree, 4), 0);
        // Smaller budget shrinks in place.
        assert_eq!(tables.reset(&tree, 2), 0);
        assert_eq!(tables.k, 2);
        // Growing again within the original capacity is also allocation-free.
        assert_eq!(tables.reset(&tree, 4), 0);
        // A genuinely larger shape grows.
        let big = builders::complete_binary_tree(63);
        assert!(tables.reset(&big, 4) > 0);
    }

    #[test]
    fn rho_blocks_match_tree_path_rho() {
        let mut tree = builders::complete_binary_tree(7);
        tree.apply_rates(&soar_topology::rates::RateScheme::paper_exponential());
        let tables = GatherTables::new(&tree, 1);
        for v in tree.node_ids() {
            let expected = tree.path_rho(v);
            let view = tables.node(v);
            assert_eq!(view.n_l, expected.len());
            for (l, &want) in expected.iter().enumerate() {
                assert_eq!(view.rho_up(l), want, "node {v}, l = {l}");
            }
        }
    }
}
