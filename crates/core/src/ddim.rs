//! The d-dimensional extension (Section 4.4).
//!
//! In `E^d` the predefined set `S` becomes a set of *slope points* in
//! `E^{d-1}`; every point carries a `B^up`/`B^down` tree pair keyed by
//! `TOP_P`/`BOT_P` evaluated at that point. Queries whose slope is in `S`
//! are exact, exactly as in 2-D.
//!
//! For an arbitrary slope the paper notes that "d searches against d
//! different B⁺-trees are sufficient in `E^d`": this module implements that
//! generalized T1. The query slope is covered by a simplex of `d` points of
//! `S`; the `d` app-queries share the point `P = (0, …, 0, b)` on the query
//! hyperplane, so each app-query keeps the intercept `b` and the original
//! operator. Covering proof: if a point `x` fails every app-query
//! (`x_d < sʲ·x' + b` for all `j`), any convex combination with the
//! barycentric weights of the query slope gives `x_d < s·x' + b`, i.e. `x`
//! fails the original query too. ALL selections run one ALL app-query plus
//! `d−1` EXIST app-queries (the Figure 4 argument, unchanged).
//!
//! For **grid** slope sets ([`SlopePoints::grid`]) the d-dimensional
//! **technique T2** is also available and is the default: the Voronoi cell
//! of a grid point is a box, so a tuple's *reach* over the cell is the
//! maximum of `TOP_P` (resp. minimum of `BOT_P`) over the cell's `2^{d-1}`
//! corners — exact because the surfaces are convex/concave and the cell is
//! the convex hull of its corners. One low/high handicap pair per leaf then
//! drives the same two-sweep, duplicate-free search as in 2-D. (The paper
//! sketches per-Voronoi-edge handicaps, `4·d` per leaf, for arbitrary point
//! sets; whole-cell reaches are a correct, slightly looser specialization
//! that a box grid makes exact.)
//!
//! Slopes outside the convex hull of `S` are rejected — choose `S` to cover
//! the query workload's slope region. The experiments of Section 5 are all
//! 2-D; `dimension_sweep` exercises this module for the Section 6 claim.

use cdb_btree::BTree;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{dual, scalar};
use cdb_storage::{PageReader, Pager, TrackedReader};
use std::io;

use cdb_btree::Handicaps;

use crate::error::CdbError;
use crate::handicap::{assign_high, assign_low};
use crate::index::{
    fold_high, fold_low, handicap_guided_candidates, refine, sweep_candidates, TupleSource,
};
use crate::query::{tree_and_direction, QueryResult, QueryStats, Selection, SelectionKind, Side};

/// A predefined set of slope points in `E^{d-1}`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlopePoints {
    dim: usize, // ambient space dimension d
    points: Vec<Vec<f64>>,
    /// For grid-constructed sets: the sorted coordinate values per slope
    /// axis. Point `i` has multi-index `(i / per^j) % per` on axis `j`.
    grid_axes: Option<Vec<Vec<f64>>>,
}

impl SlopePoints {
    /// Builds a set of slope points for a `dim`-dimensional space; each
    /// point must have `dim − 1` coordinates.
    ///
    /// # Panics
    /// Panics on dimension mismatches or fewer than `dim` points (a
    /// covering simplex needs `d` vertices).
    pub fn new(dim: usize, points: Vec<Vec<f64>>) -> Self {
        assert!(dim >= 2, "dimension must be at least 2");
        assert!(
            points.iter().all(|p| p.len() == dim - 1),
            "slope points live in E^(d-1)"
        );
        assert!(
            points.len() >= dim,
            "need at least d = {dim} slope points for simplex covering"
        );
        SlopePoints {
            dim,
            points,
            grid_axes: None,
        }
    }

    /// A regular grid of `per_axis^(d-1)` points over `[-range, range]` in
    /// each slope coordinate.
    pub fn grid(dim: usize, per_axis: usize, range: f64) -> Self {
        assert!(per_axis >= 2);
        let d1 = dim - 1;
        let mut points = Vec::new();
        let mut idx = vec![0usize; d1];
        loop {
            points.push(
                idx.iter()
                    .map(|&i| -range + 2.0 * range * i as f64 / (per_axis - 1) as f64)
                    .collect(),
            );
            // Odometer increment.
            let mut c = 0;
            loop {
                idx[c] += 1;
                if idx[c] < per_axis {
                    break;
                }
                idx[c] = 0;
                c += 1;
                if c == d1 {
                    let axes: Vec<Vec<f64>> = (0..d1)
                        .map(|_| {
                            (0..per_axis)
                                .map(|i| -range + 2.0 * range * i as f64 / (per_axis - 1) as f64)
                                .collect()
                        })
                        .collect();
                    let mut sp = SlopePoints::new(dim, points);
                    sp.grid_axes = Some(axes);
                    return sp;
                }
            }
        }
    }

    /// Re-attaches a set from persisted parts, restoring the grid axes that
    /// [`grid`](Self::grid) would have computed.
    pub(crate) fn from_parts(
        dim: usize,
        points: Vec<Vec<f64>>,
        grid_axes: Option<Vec<Vec<f64>>>,
    ) -> Self {
        let mut sp = SlopePoints::new(dim, points);
        sp.grid_axes = grid_axes;
        sp
    }

    /// The per-axis grid coordinates, when grid-constructed.
    pub(crate) fn grid_axes(&self) -> Option<&[Vec<f64>]> {
        self.grid_axes.as_deref()
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of slope points `k`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true (construction requires `≥ d ≥ 2` points).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The slope points.
    pub fn as_slice(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Index of a (numerically) matching member point.
    pub fn position(&self, slope: &[f64]) -> Option<usize> {
        self.points
            .iter()
            .position(|p| p.iter().zip(slope).all(|(a, b)| scalar::approx_eq(*a, *b)))
    }

    /// Finds `d` member points whose simplex contains `slope`, preferring
    /// nearby points. Returns the member indices.
    pub fn containing_simplex(&self, slope: &[f64]) -> Option<Vec<usize>> {
        let d = self.dim; // simplex size in E^{d-1}
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        let dist = |i: usize| -> f64 {
            self.points[i]
                .iter()
                .zip(slope)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        order.sort_by(|&i, &j| dist(i).partial_cmp(&dist(j)).unwrap());
        // Try combinations of the nearest points first.
        let combos = combinations(order.len(), d);
        for combo in combos {
            let pick: Vec<usize> = combo.iter().map(|&c| order[c]).collect();
            if let Some(l) = barycentric(
                &pick
                    .iter()
                    .map(|&i| self.points[i].as_slice())
                    .collect::<Vec<_>>(),
                slope,
            ) {
                if l.iter().all(|&w| w >= -1e-9) {
                    return Some(pick);
                }
            }
        }
        None
    }
}

impl SlopePoints {
    /// `true` when the set was built by [`grid`](Self::grid), enabling the
    /// d-dimensional technique T2.
    pub fn is_grid(&self) -> bool {
        self.grid_axes.is_some()
    }

    /// `true` if `slope` lies within the hull (the grid bounding box).
    pub fn in_grid_hull(&self, slope: &[f64]) -> bool {
        let Some(axes) = &self.grid_axes else {
            return false;
        };
        axes.iter()
            .zip(slope)
            .all(|(axis, &v)| v >= axis[0] - 1e-12 && v <= axis[axis.len() - 1] + 1e-12)
    }

    /// Index of the grid point whose (box) Voronoi cell contains `slope`.
    pub fn nearest_grid(&self, slope: &[f64]) -> Option<usize> {
        let axes = self.grid_axes.as_ref()?;
        if !self.in_grid_hull(slope) {
            return None;
        }
        let mut index = 0usize;
        let mut stride = 1usize;
        for (axis, &v) in axes.iter().zip(slope) {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, &c) in axis.iter().enumerate() {
                let d = (c - v).abs();
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            index += best * stride;
            stride *= axis.len();
        }
        Some(index)
    }

    /// The `2^{d-1}` corners of grid point `i`'s cell: per axis, the
    /// midpoints toward the neighbouring coordinates (clipped to the hull at
    /// the boundary).
    pub fn cell_corners(&self, i: usize) -> Option<Vec<Vec<f64>>> {
        let ranges = self.cell_ranges(i)?;
        // Odometer over the corner choices.
        let d1 = ranges.len();
        let mut corners = Vec::with_capacity(1 << d1);
        for mask in 0..(1usize << d1) {
            corners.push(
                ranges
                    .iter()
                    .enumerate()
                    .map(|(j, &(lo, hi))| if mask & (1 << j) != 0 { hi } else { lo })
                    .collect(),
            );
        }
        Some(corners)
    }

    /// Per-axis slope-space extent of grid point `i`'s Voronoi cell — the
    /// band the whole-cell handicaps over-cover by. Boundary cells are
    /// clipped to the hull, so their widths (and the planner's estimated
    /// T2 overshoot) are smaller.
    pub fn cell_widths(&self, i: usize) -> Option<Vec<f64>> {
        Some(
            self.cell_ranges(i)?
                .iter()
                .map(|(lo, hi)| hi - lo)
                .collect(),
        )
    }

    /// Per-axis `[lo, hi]` bounds of grid point `i`'s Voronoi cell: the
    /// midpoints toward the neighbouring coordinates, clipped to the hull
    /// at the boundary.
    fn cell_ranges(&self, i: usize) -> Option<Vec<(f64, f64)>> {
        let axes = self.grid_axes.as_ref()?;
        let mut ranges: Vec<(f64, f64)> = Vec::with_capacity(axes.len());
        let mut rest = i;
        for axis in axes {
            let per = axis.len();
            let mi = rest % per;
            rest /= per;
            let lo = if mi == 0 {
                axis[0]
            } else {
                (axis[mi - 1] + axis[mi]) / 2.0
            };
            let hi = if mi + 1 == per {
                axis[per - 1]
            } else {
                (axis[mi] + axis[mi + 1]) / 2.0
            };
            ranges.push((lo, hi));
        }
        Some(ranges)
    }
}

/// Barycentric coordinates of `p` w.r.t. `verts` (`n` points in `E^{n-1}`),
/// or `None` if degenerate.
#[allow(clippy::needless_range_loop)] // dense Gaussian elimination
fn barycentric(verts: &[&[f64]], p: &[f64]) -> Option<Vec<f64>> {
    let n = verts.len();
    debug_assert_eq!(p.len(), n - 1);
    // Solve [v1 … vn; 1 … 1] λ = [p; 1].
    let mut m: Vec<Vec<f64>> = Vec::with_capacity(n);
    for r in 0..(n - 1) {
        let mut row: Vec<f64> = verts.iter().map(|v| v[r]).collect();
        row.push(p[r]);
        m.push(row);
    }
    let mut last = vec![1.0; n + 1];
    last[n] = 1.0;
    m.push(last);
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[piv][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, piv);
        let p0 = m[col][col];
        for r in 0..n {
            if r != col {
                let f = m[r][col] / p0;
                if f != 0.0 {
                    for c in col..=n {
                        m[r][c] -= f * m[col][c];
                    }
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// All `k`-subsets of `0..n`, smallest-index-first order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Dual-representation index over a d-dimensional generalized relation.
#[derive(Clone, Debug)]
pub struct DualIndexD {
    points: SlopePoints,
    trees: Vec<(BTree, BTree)>, // (up, down) per slope point
}

impl DualIndexD {
    /// Bulk-builds the index. For grid slope sets, the whole-cell handicap
    /// values enabling the d-dimensional technique T2 are computed too.
    pub fn build(
        pager: &mut dyn Pager,
        points: SlopePoints,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<Self, CdbError> {
        let mut trees = Vec::with_capacity(points.len());
        for p in points.as_slice() {
            let mut up: Vec<(f64, u32)> = tuples
                .iter()
                .map(|(id, t)| (dual::top(t, p).expect("satisfiable"), *id))
                .collect();
            let mut down: Vec<(f64, u32)> = tuples
                .iter()
                .map(|(id, t)| (dual::bot(t, p).expect("satisfiable"), *id))
                .collect();
            up.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            down.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            trees.push((
                BTree::bulk_load(pager, &up, 1.0)?,
                BTree::bulk_load(pager, &down, 1.0)?,
            ));
        }
        let mut idx = DualIndexD { points, trees };
        idx.refresh_handicaps(pager, tuples)?;
        Ok(idx)
    }

    /// Reach of a tuple over grid cell `i`: `(max TOP, min BOT)` over the
    /// cell corners (exact by convexity/concavity over the box cell).
    fn cell_reach(&self, i: usize, t: &GeneralizedTuple) -> Option<(f64, f64)> {
        let corners = self.points.cell_corners(i)?;
        let mut max_top = f64::NEG_INFINITY;
        let mut min_bot = f64::INFINITY;
        for c in &corners {
            max_top = max_top.max(dual::top(t, c).expect("satisfiable"));
            min_bot = min_bot.min(dual::bot(t, c).expect("satisfiable"));
        }
        Some((max_top, min_bot))
    }

    /// Recomputes the whole-cell handicaps (grid sets only; a no-op for
    /// arbitrary point sets, which use the simplex covering instead).
    /// Stored in the `low_prev`/`high_prev` leaf slots.
    pub fn refresh_handicaps(
        &mut self,
        pager: &mut dyn Pager,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<(), CdbError> {
        if !self.points.is_grid() {
            return Ok(());
        }
        for i in 0..self.points.len() {
            let p = self.points.as_slice()[i].clone();
            let reaches: Vec<(f64, f64)> = tuples
                .iter()
                .map(|(_, t)| self.cell_reach(i, t).expect("grid set"))
                .collect();
            for up_tree in [true, false] {
                let tree = if up_tree {
                    &self.trees[i].0
                } else {
                    &self.trees[i].1
                };
                let keys: Vec<f64> = tuples
                    .iter()
                    .map(|(_, t)| {
                        if up_tree {
                            dual::top(t, &p).expect("satisfiable")
                        } else {
                            dual::bot(t, &p).expect("satisfiable")
                        }
                    })
                    .collect();
                let low_pairs: Vec<(f64, f64)> = reaches
                    .iter()
                    .zip(&keys)
                    .map(|(&(mt, _), &k)| (mt, k))
                    .collect();
                let high_pairs: Vec<(f64, f64)> = reaches
                    .iter()
                    .zip(&keys)
                    .map(|(&(_, mb), &k)| (mb, k))
                    .collect();
                let leaves = tree.leaves(&*pager)?;
                let low = assign_low(&leaves, &low_pairs);
                let high = assign_high(&leaves, &high_pairs);
                for (li, leaf) in leaves.iter().enumerate() {
                    tree.set_handicaps(
                        pager,
                        leaf.page,
                        Handicaps {
                            low_prev: low[li],
                            low_next: f64::INFINITY,
                            high_prev: high[li],
                            high_next: f64::NEG_INFINITY,
                        },
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Re-attaches an index from persisted parts; the trees' node pages
    /// (whole-cell handicaps included) are already on disk.
    pub(crate) fn from_parts(points: SlopePoints, trees: Vec<(BTree, BTree)>) -> Self {
        assert_eq!(points.len(), trees.len(), "one tree pair per slope point");
        DualIndexD { points, trees }
    }

    /// The `(B^up, B^down)` trees per slope point — what the catalog
    /// persists.
    pub(crate) fn tree_pairs(&self) -> impl Iterator<Item = (&BTree, &BTree)> {
        self.trees.iter().map(|(u, d)| (u, d))
    }

    /// The slope-point set `S`.
    pub fn points(&self) -> &SlopePoints {
        &self.points
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Pages owned by the index.
    pub fn page_count(&self) -> u64 {
        self.trees
            .iter()
            .map(|(u, d)| u.page_count() + d.page_count())
            .sum()
    }

    /// Reads every page of every tree through `pager`; under a
    /// checksumming pager any torn or stale page surfaces here. Used by
    /// the open-time verification pass.
    pub fn verify(&self, pager: &dyn PageReader) -> io::Result<()> {
        for (up, down) in self.tree_pairs() {
            up.collect_pages(pager)?;
            down.collect_pages(pager)?;
        }
        Ok(())
    }

    /// Adds a tuple to every tree, incrementally folding its cell reaches
    /// into the handicaps (grid sets).
    pub fn insert(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<(), CdbError> {
        for i in 0..self.points.len() {
            let p = self.points.as_slice()[i].clone();
            let top = dual::top(tuple, &p).expect("satisfiable");
            let bot = dual::bot(tuple, &p).expect("satisfiable");
            self.trees[i].0.insert(pager, top, id)?;
            self.trees[i].1.insert(pager, bot, id)?;
            if let Some((max_top, min_bot)) = self.cell_reach(i, tuple) {
                for (tree, key) in [(&self.trees[i].0, top), (&self.trees[i].1, bot)] {
                    fold_low(pager, tree, Side::Prev, max_top, key)?;
                    fold_high(pager, tree, Side::Prev, min_bot, key)?;
                }
            }
        }
        Ok(())
    }

    /// Removes a tuple from every tree.
    pub fn remove(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<bool, CdbError> {
        let mut found = true;
        for (i, p) in self.points.as_slice().iter().enumerate() {
            found &=
                self.trees[i]
                    .0
                    .delete(pager, dual::top(tuple, p).expect("satisfiable"), id)?;
            found &=
                self.trees[i]
                    .1
                    .delete(pager, dual::bot(tuple, p).expect("satisfiable"), id)?;
        }
        Ok(found)
    }

    /// Executes a selection: exact when the slope is a member of `S`,
    /// otherwise the generalized-T1 simplex covering with exact refinement.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] when the query slope lies outside the
    /// convex hull of `S` or dimensions mismatch.
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        if sel.halfplane.dim() != self.dim() {
            return Err(CdbError::DimensionMismatch {
                expected: self.dim(),
                got: sel.halfplane.dim(),
            });
        }
        let tracked = TrackedReader::new(pager);
        let pager: &dyn PageReader = &tracked;
        let slope = &sel.halfplane.slope;
        let b = sel.halfplane.intercept;
        let before = pager.stats();

        if let Some(i) = self.points.position(slope) {
            // Exact restricted query; boundary band verified exactly.
            let (use_up, upward) = tree_and_direction(sel.kind, sel.halfplane.op);
            let tree = if use_up {
                &self.trees[i].0
            } else {
                &self.trees[i].1
            };
            let (mut sure, check) = sweep_candidates(tree, pager, b, upward)?;
            let mut stats = QueryStats {
                candidates: (sure.len() + check.len()) as u64,
                accepted_by_key: sure.len() as u64,
                ..QueryStats::default()
            };
            stats.index_io = pager.stats().since(&before);
            let heap_before = pager.stats();
            let kept = refine(pager, sel, check, fetch, &mut stats)?;
            stats.heap_io = pager.stats().since(&heap_before);
            sure.extend(kept);
            return Ok(QueryResult::new(sure, stats));
        }

        // Grid sets: the d-dimensional technique T2 (single tree, two
        // handicap-guided sweeps, duplicate-free).
        if let Some(cell) = self.points.nearest_grid(slope) {
            let (use_up, upward) = tree_and_direction(sel.kind, sel.halfplane.op);
            let tree = if use_up {
                &self.trees[cell].0
            } else {
                &self.trees[cell].1
            };
            let raw = handicap_guided_candidates(
                tree,
                pager,
                b,
                upward,
                &|h: &Handicaps| h.low_prev,
                &|h: &Handicaps| h.high_prev,
            )?;
            let mut stats = QueryStats {
                candidates: raw.len() as u64,
                ..QueryStats::default()
            };
            stats.index_io = pager.stats().since(&before);
            let heap_before = pager.stats();
            let ids = refine(pager, sel, raw, fetch, &mut stats)?;
            stats.heap_io = pager.stats().since(&heap_before);
            return Ok(QueryResult::new(ids, stats));
        }

        self.execute_simplex_from(pager, sel, fetch, before)
    }

    /// Generalized T1 (simplex covering) — also the fallback for
    /// non-grid point sets, and directly callable for ablations.
    pub fn execute_simplex(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let tracked = TrackedReader::new(pager);
        let pager: &dyn PageReader = &tracked;
        let before = pager.stats();
        self.execute_simplex_from(pager, sel, fetch, before)
    }

    fn execute_simplex_from(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
        before: cdb_storage::IoStats,
    ) -> Result<QueryResult, CdbError> {
        let slope = &sel.halfplane.slope;
        let b = sel.halfplane.intercept;
        let simplex = self.points.containing_simplex(slope).ok_or_else(|| {
            CdbError::UnsupportedQuery(format!(
                "query slope {slope:?} lies outside the hull of the predefined set S"
            ))
        })?;
        // d app-queries through P = (0,…,0,b): same intercept, same operator.
        let mut raw: Vec<u32> = Vec::new();
        for (j, &pi) in simplex.iter().enumerate() {
            let kind = match (sel.kind, j) {
                (SelectionKind::All, 0) => SelectionKind::All,
                (SelectionKind::All, _) => SelectionKind::Exist,
                (SelectionKind::Exist, _) => SelectionKind::Exist,
            };
            let (use_up, upward) = tree_and_direction(kind, sel.halfplane.op);
            let tree = if use_up {
                &self.trees[pi].0
            } else {
                &self.trees[pi].1
            };
            let (sure, check) = sweep_candidates(tree, pager, b, upward)?;
            raw.extend(sure);
            raw.extend(check);
        }
        let mut stats = QueryStats {
            candidates: raw.len() as u64,
            ..QueryStats::default()
        };
        stats.index_io = pager.stats().since(&before);
        raw.sort_unstable();
        let before_len = raw.len();
        raw.dedup();
        stats.duplicates = (before_len - raw.len()) as u64;
        let heap_before = pager.stats();
        let ids = refine(pager, sel, raw, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }

    /// Number of indexed entries per tree (should equal the relation size).
    pub fn len(&self) -> u64 {
        self.trees.first().map(|(u, _)| u.len()).unwrap_or(0)
    }

    /// `true` when no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the (first) `B^up` tree: the per-search descent cost.
    pub fn tree_height(&self) -> usize {
        self.trees.first().map(|(u, _)| u.height()).unwrap_or(0)
    }

    /// Frees every page of every tree back to the pager.
    ///
    /// # Errors
    /// [`CdbError::Io`] when collecting the pages to free fails; pages
    /// already freed stay freed.
    pub fn destroy(self, pager: &mut dyn Pager) -> Result<(), CdbError> {
        for (up, down) in self.trees {
            up.destroy(pager)?;
            down.destroy(pager)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates;
    use cdb_prng::StdRng;
    use cdb_storage::MemPager;

    /// Random axis-aligned boxes in E^d (satisfiable, bounded).
    fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<(u32, GeneralizedTuple)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut cs = Vec::new();
                for k in 0..dim {
                    let lo: f64 = rng.gen_range(-50.0..45.0);
                    let hi = lo + rng.gen_range(0.5..5.0);
                    let mut a = vec![0.0; dim];
                    a[k] = 1.0;
                    cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                    cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
                }
                (i as u32, GeneralizedTuple::new(cs))
            })
            .collect()
    }

    fn oracle(pairs: &[(u32, GeneralizedTuple)], sel: &Selection) -> Vec<u32> {
        pairs
            .iter()
            .filter(|(_, t)| match sel.kind {
                SelectionKind::All => predicates::lp::all(&sel.halfplane, t),
                SelectionKind::Exist => predicates::lp::exist(&sel.halfplane, t),
            })
            .map(|(id, _)| *id)
            .collect()
    }

    fn run(
        idx: &DualIndexD,
        pager: &MemPager,
        pairs: &[(u32, GeneralizedTuple)],
        sel: &Selection,
    ) -> QueryResult {
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        idx.execute(pager, sel, &fetch).expect("query")
    }

    #[test]
    fn grid_generation() {
        let g = SlopePoints::grid(3, 3, 1.0);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.len(), 9);
        assert!(g.position(&[0.0, 0.0]).is_some());
        assert!(g.position(&[-1.0, 1.0]).is_some());
        assert!(g.position(&[0.3, 0.0]).is_none());
    }

    #[test]
    fn simplex_containment() {
        let g = SlopePoints::grid(3, 3, 1.0);
        let s = g.containing_simplex(&[0.2, -0.3]).expect("inside hull");
        assert_eq!(s.len(), 3);
        assert!(g.containing_simplex(&[5.0, 0.0]).is_none(), "outside hull");
    }

    #[test]
    fn barycentric_simple() {
        let verts: Vec<&[f64]> = vec![&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]];
        let l = barycentric(&verts, &[0.25, 0.25]).unwrap();
        assert!((l[0] - 0.5).abs() < 1e-9);
        assert!((l[1] - 0.25).abs() < 1e-9);
        assert!((l[2] - 0.25).abs() < 1e-9);
        // Degenerate (collinear) vertices.
        let degen: Vec<&[f64]> = vec![&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]];
        assert!(barycentric(&degen, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn member_slope_queries_are_exact_3d() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 150, 5);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
        for slope in [vec![0.0, 0.0], vec![1.0, -1.0], vec![0.0, 1.0]] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), 3.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} {slope:?}");
                }
            }
        }
    }

    #[test]
    fn simplex_covering_matches_oracle_3d() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 200, 7);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.5), &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..12 {
            let slope = vec![rng.gen_range(-1.2..1.2), rng.gen_range(-1.2..1.2)];
            let b = rng.gen_range(-40.0..40.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), b, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel);
                    assert_eq!(
                        got.ids(),
                        oracle(&pairs, &sel),
                        "{kind:?} {op:?} {slope:?} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_dimensional_queries() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(4, 80, 9);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(4, 2, 1.0), &pairs).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![0.3, -0.2, 0.5], 0.0, RelOp::Ge));
        let got = run(&idx, &pager, &pairs, &sel);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        let sel2 = Selection::all(HalfPlane::new(vec![0.0, 0.0, 0.0], 100.0, RelOp::Le));
        let got2 = run(&idx, &pager, &pairs, &sel2);
        assert_eq!(got2.len(), 80, "everything is below w = 100");
    }

    #[test]
    fn outside_hull_is_rejected() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 20, 13);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![3.0, 0.0], 0.0, RelOp::Ge));
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        assert!(matches!(
            idx.execute(&pager, &sel, &fetch),
            Err(CdbError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut pager = MemPager::paper_1999();
        let mut pairs = random_boxes(3, 50, 17);
        let mut idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let extra = random_boxes(3, 1, 99)[0].1.clone();
        idx.insert(&mut pager, 500, &extra).unwrap();
        pairs.push((500, extra.clone()));
        let sel = Selection::exist(HalfPlane::new(vec![0.5, 0.5], -200.0, RelOp::Ge));
        let got = run(&idx, &pager, &pairs, &sel);
        assert!(got.ids().contains(&500));
        assert!(idx.remove(&mut pager, 500, &extra).unwrap());
        pairs.pop();
        let got = run(&idx, &pager, &pairs, &sel);
        assert!(!got.ids().contains(&500));
    }

    #[test]
    fn t2d_and_simplex_agree_with_oracle() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 250, 31);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.5), &pairs).unwrap();
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let slope = vec![rng.gen_range(-1.3..1.3), rng.gen_range(-1.3..1.3)];
            let b = rng.gen_range(-45.0..45.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), b, op),
                    };
                    let want = oracle(&pairs, &sel);
                    let l1 = lookup.clone();
                    let f1 = move |_: &dyn PageReader, id: u32| l1[&id].clone();
                    let t2 = idx.execute(&pager, &sel, &f1).unwrap();
                    let l2 = lookup.clone();
                    let f2 = move |_: &dyn PageReader, id: u32| l2[&id].clone();
                    let t1 = idx.execute_simplex(&pager, &sel, &f2).unwrap();
                    assert_eq!(t2.ids(), want.as_slice(), "T2-d {kind:?} {op:?} {slope:?}");
                    assert_eq!(
                        t1.ids(),
                        want.as_slice(),
                        "simplex {kind:?} {op:?} {slope:?}"
                    );
                    // T2-d is duplicate-free; the simplex covering may not be.
                    assert_eq!(t2.stats.duplicates, 0);
                }
            }
        }
    }

    #[test]
    fn t2d_incremental_inserts_stay_correct() {
        let mut pager = MemPager::paper_1999();
        let mut pairs = random_boxes(3, 100, 37);
        let mut idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
        // Insert 60 more without any handicap rebuild.
        for (j, (_, t)) in random_boxes(3, 60, 38).into_iter().enumerate() {
            let id = 2000 + j as u32;
            idx.insert(&mut pager, id, &t).unwrap();
            pairs.push((id, t));
        }
        let mut rng = StdRng::seed_from_u64(39);
        for _ in 0..6 {
            let slope = vec![rng.gen_range(-0.9..0.9), rng.gen_range(-0.9..0.9)];
            let b = rng.gen_range(-40.0..40.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                let sel = Selection {
                    kind,
                    halfplane: HalfPlane::new(slope.clone(), b, RelOp::Ge),
                };
                let got = run(&idx, &pager, &pairs, &sel);
                assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {slope:?} {b}");
            }
        }
    }

    #[test]
    fn cell_geometry() {
        let g = SlopePoints::grid(3, 3, 1.0); // axes: [-1, 0, 1] x [-1, 0, 1]
        assert!(g.is_grid());
        // Point 4 is the centre (0,0); its cell is [-0.5,0.5]^2.
        assert_eq!(g.as_slice()[4], vec![0.0, 0.0]);
        let corners = g.cell_corners(4).unwrap();
        assert_eq!(corners.len(), 4);
        for c in &corners {
            assert!(c[0].abs() == 0.5 && c[1].abs() == 0.5, "{c:?}");
        }
        // Corner point 0 = (-1,-1): cell clipped at the hull.
        let corners0 = g.cell_corners(0).unwrap();
        for c in &corners0 {
            assert!((-1.0..=-0.5).contains(&c[0]) && (-1.0..=-0.5).contains(&c[1]));
        }
        // Nearest-cell lookup.
        assert_eq!(g.nearest_grid(&[0.2, -0.1]), Some(4));
        assert_eq!(g.nearest_grid(&[-0.9, -0.8]), Some(0));
        assert_eq!(g.nearest_grid(&[2.0, 0.0]), None, "outside hull");
        // Non-grid sets have no cells.
        let free = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(!free.is_grid());
        assert!(free.cell_corners(0).is_none());
        assert!(free.nearest_grid(&[0.1, 0.1]).is_none());
    }

    #[test]
    fn unbounded_tuples_in_3d() {
        let mut pager = MemPager::paper_1999();
        // A slab 0 <= z <= 1 (unbounded in x, y) plus a box.
        let slab = GeneralizedTuple::new(vec![
            LinearConstraint::new(vec![0.0, 0.0, 1.0], 0.0, RelOp::Ge),
            LinearConstraint::new(vec![0.0, 0.0, 1.0], -1.0, RelOp::Le),
        ]);
        let mut pairs = random_boxes(3, 10, 21);
        pairs.push((100, slab));
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
        // z >= 0 contains the slab? The slab extends from z=0 to z=1: yes.
        let sel = Selection::all(HalfPlane::new(vec![0.0, 0.0], 0.0, RelOp::Ge));
        let got = run(&idx, &pager, &pairs, &sel);
        assert!(got.ids().contains(&100));
        // Any tilted half-space z >= 0.5x intersects the slab but cannot
        // contain it.
        let tilted = HalfPlane::new(vec![0.5, 0.0], 0.0, RelOp::Ge);
        let got = run(&idx, &pager, &pairs, &Selection::exist(tilted.clone()));
        assert!(got.ids().contains(&100));
        let got = run(&idx, &pager, &pairs, &Selection::all(tilted));
        assert!(!got.ids().contains(&100));
    }
}
