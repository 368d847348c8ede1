//! The 2-D dual index: `B^up`/`B^down` forests over a slope set, with the
//! restricted (Section 3), T1 (Section 4.1) and T2 (Sections 4.2–4.3) query
//! strategies, each in its own submodule.

mod restricted;
mod t1;
mod t2;

use std::io;

pub(crate) use restricted::sweep_candidates;
pub(crate) use t2::handicap_guided_candidates;

use cdb_btree::{BTree, Handicaps};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{dual, predicates};
use cdb_storage::{PageReader, Pager, TrackedReader};

use crate::error::CdbError;
use crate::handicap::{assign_high, assign_low};
use crate::query::{QueryResult, QueryStats, Selection, SelectionKind, Side, Strategy};
use crate::slopes::{Bracket, SlopeSet};

/// Source of tuples for the exact refinement step.
///
/// The batch signature lets real implementations group candidate fetches by
/// heap page — one page access per *distinct* page, the way a production
/// executor refines. Any `Fn(&dyn PageReader, u32) -> GeneralizedTuple`
/// closure is also a (non-batching, infallible) source, which the tests use.
///
/// Sources are `&self` so one source can serve many concurrent queries; the
/// per-query read accounting happens in the reader, not the source.
pub trait TupleSource {
    /// Fetches the tuples for `ids` (result aligned with the input),
    /// charging page accesses to `pager`.
    ///
    /// # Errors
    /// [`CdbError::CorruptRecord`] when a stored record fails to decode.
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError>;
}

impl<F> TupleSource for F
where
    F: Fn(&dyn PageReader, u32) -> GeneralizedTuple,
{
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        Ok(ids.iter().map(|&id| self(pager, id)).collect())
    }
}

/// The two B⁺-trees of one slope: `B^up` keyed by `TOP_P`, `B^down` by
/// `BOT_P`.
#[derive(Clone, Debug)]
struct TreePair {
    up: BTree,
    down: BTree,
}

/// Dual-representation index over a 2-D generalized relation.
///
/// ```
/// use cdb_core::{DualIndex, Selection, SlopeSet, Strategy};
/// use cdb_geometry::parse::parse_tuple;
/// use cdb_geometry::tuple::GeneralizedTuple;
/// use cdb_geometry::HalfPlane;
/// use cdb_storage::{MemPager, PageReader};
///
/// let tuples = vec![
///     (0, parse_tuple("y >= 0 && y <= 1 && x >= 0 && x <= 1").unwrap()),
///     (1, parse_tuple("y >= x && x >= 5").unwrap()), // unbounded wedge
/// ];
/// let mut pager = MemPager::paper_1999();
/// let idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(3), &tuples).unwrap();
///
/// let lookup = tuples.clone();
/// let fetch = move |_: &dyn PageReader, id: u32| -> GeneralizedTuple {
///     lookup.iter().find(|(i, _)| *i == id).unwrap().1.clone()
/// };
/// // EXIST with an arbitrary slope runs technique T2 — from `&self` and a
/// // shared read-only pager, so many queries can run concurrently.
/// let sel = Selection::exist(HalfPlane::above(0.25, 3.0)); // y >= x/4 + 3
/// let r = idx.execute(&pager, &sel, Strategy::T2, &fetch).unwrap();
/// assert_eq!(r.ids(), &[1], "only the wedge reaches that high");
/// assert_eq!(r.stats.duplicates, 0);
/// ```
#[derive(Clone, Debug)]
pub struct DualIndex {
    slopes: SlopeSet,
    pairs: Vec<TreePair>,
    /// Where the app-query lines of T1 are anchored: the x coordinate of the
    /// point `P` on the query line (Section 4.1, "choice of b1, b2"). The
    /// centre of the data distribution minimizes expected false hits.
    anchor_x: f64,
    dirty: bool,
}

impl DualIndex {
    /// Bulk-builds the index over `(id, tuple)` pairs. All tuples must be
    /// satisfiable and 2-D.
    ///
    /// # Errors
    /// [`CdbError::Io`] when the pager fails while writing tree pages.
    pub fn build(
        pager: &mut dyn Pager,
        slopes: SlopeSet,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<Self, CdbError> {
        let mut pairs = Vec::with_capacity(slopes.len());
        for i in 0..slopes.len() {
            let s = slopes.get(i);
            let mut up_entries: Vec<(f64, u32)> =
                tuples.iter().map(|(id, t)| (top_at(t, s), *id)).collect();
            let mut down_entries: Vec<(f64, u32)> =
                tuples.iter().map(|(id, t)| (bot_at(t, s), *id)).collect();
            up_entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN key"));
            down_entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN key"));
            pairs.push(TreePair {
                up: BTree::bulk_load(pager, &up_entries, 1.0)?,
                down: BTree::bulk_load(pager, &down_entries, 1.0)?,
            });
        }
        let mut idx = DualIndex {
            slopes,
            pairs,
            anchor_x: 0.0,
            dirty: true,
        };
        idx.refresh_handicaps(pager, tuples)?;
        Ok(idx)
    }

    /// Re-attaches an index from persisted metadata. The trees' node pages
    /// (handicaps included — they live in the bucket leaves) are already on
    /// disk; `pairs` supplies the `(B^up, B^down)` trees per slope in slope
    /// order.
    pub(crate) fn from_parts(
        slopes: SlopeSet,
        pairs: Vec<(BTree, BTree)>,
        anchor_x: f64,
        dirty: bool,
    ) -> Self {
        assert_eq!(slopes.len(), pairs.len(), "one tree pair per slope");
        DualIndex {
            slopes,
            pairs: pairs
                .into_iter()
                .map(|(up, down)| TreePair { up, down })
                .collect(),
            anchor_x,
            dirty,
        }
    }

    /// The `(B^up, B^down)` trees per slope, in slope order — what the
    /// catalog persists.
    pub(crate) fn tree_pairs(&self) -> impl Iterator<Item = (&BTree, &BTree)> {
        self.pairs.iter().map(|p| (&p.up, &p.down))
    }

    /// The slope set `S`.
    pub fn slopes(&self) -> &SlopeSet {
        &self.slopes
    }

    /// The x coordinate of T1's app-query anchor point.
    pub fn anchor_x(&self) -> f64 {
        self.anchor_x
    }

    /// Sets the x coordinate of T1's app-query anchor point.
    pub fn set_anchor_x(&mut self, x: f64) {
        self.anchor_x = x;
    }

    /// Pages owned by the index (the space metric of Figure 10).
    pub fn page_count(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| p.up.page_count() + p.down.page_count())
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

    /// Number of indexed entries per tree (should equal the relation size).
    pub fn len(&self) -> u64 {
        self.pairs.first().map(|p| p.up.len()).unwrap_or(0)
    }

    /// `true` when no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the (first) `B^up` tree — every tree of the forest has the
    /// same height, so this is the per-search descent cost in pages.
    pub fn tree_height(&self) -> usize {
        self.pairs.first().map(|p| p.up.height()).unwrap_or(0)
    }

    /// `true` when updates have *loosened* the handicaps since the last
    /// rebuild. T2 queries remain correct either way (incremental
    /// maintenance is conservative); a
    /// [`refresh_handicaps`](Self::refresh_handicaps) re-tightens them and
    /// restores the best second-sweep bounds.
    pub fn needs_refresh(&self) -> bool {
        self.dirty
    }

    /// Adds one tuple to every tree and folds its reach values into the
    /// bucket leaves' handicaps — the paper's `O(k log_B n)` amortized
    /// update (Theorems 3.1/4.2). The fold is monotone (min/max), so
    /// correctness is maintained incrementally; handicaps only become
    /// *looser* over time and can be re-tightened with
    /// [`refresh_handicaps`](Self::refresh_handicaps).
    pub fn insert(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<(), CdbError> {
        for i in 0..self.slopes.len() {
            let s = self.slopes.get(i);
            let top = top_at(tuple, s);
            let bot = bot_at(tuple, s);
            self.pairs[i].up.insert(pager, top, id)?;
            self.pairs[i].down.insert(pager, bot, id)?;
            for side in [Side::Prev, Side::Next] {
                let Some(mid) = self.slopes.mid(i, side) else {
                    continue;
                };
                // Strip extrema at the endpoints (TOP convex, BOT concave).
                let low_reach = top.max(top_at(tuple, mid));
                let high_reach = bot.min(bot_at(tuple, mid));
                for (tree, key) in [(&self.pairs[i].up, top), (&self.pairs[i].down, bot)] {
                    fold_low(pager, tree, side, low_reach, key)?;
                    fold_high(pager, tree, side, high_reach, key)?;
                }
            }
        }
        self.dirty = true; // loose, not invalid
        Ok(())
    }

    /// Removes one tuple from every tree. Handicaps are left in place
    /// (conservative: they may over-cover deleted tuples, never under-cover
    /// live ones; emptied leaves migrate their bounds inside the B⁺-tree).
    pub fn remove(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<bool, CdbError> {
        let mut found = true;
        for i in 0..self.slopes.len() {
            let s = self.slopes.get(i);
            found &= self.pairs[i].up.delete(pager, top_at(tuple, s), id)?;
            found &= self.pairs[i].down.delete(pager, bot_at(tuple, s), id)?;
        }
        self.dirty = true; // loose, not invalid
        Ok(found)
    }

    /// Recomputes every leaf's handicap values from the current relation
    /// snapshot (Section 4.2 Steps 1–2), restoring the tightest bounds.
    ///
    /// Incremental updates keep handicaps *correct* at `O(k log_B n)` cost
    /// per update (the paper's amortized bound) but only ever loosen them:
    /// inserts fold monotonically, deletes leave bounds behind, splits copy
    /// them. After heavy update traffic this linear rebuild re-tightens the
    /// second-sweep bounds; build-then-query workloads (the paper's
    /// experiments) run it exactly once at build time.
    pub fn refresh_handicaps(
        &mut self,
        pager: &mut dyn Pager,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<(), CdbError> {
        for i in 0..self.slopes.len() {
            let s = self.slopes.get(i);
            // Surface values at the tree slope.
            let tops: Vec<f64> = tuples.iter().map(|(_, t)| top_at(t, s)).collect();
            let bots: Vec<f64> = tuples.iter().map(|(_, t)| bot_at(t, s)).collect();
            // Reaches per side (None at the ends of S).
            type ReachTables = Option<(Vec<(f64, f64)>, Vec<(f64, f64)>)>;
            let side_pairs = |side: Side| -> ReachTables {
                let mid = self.slopes.mid(i, side)?;
                let mut low_reach = Vec::with_capacity(tuples.len());
                let mut high_reach = Vec::with_capacity(tuples.len());
                for (j, (_, t)) in tuples.iter().enumerate() {
                    // TOP convex / BOT concave ⇒ strip extrema at endpoints.
                    low_reach.push(tops[j].max(top_at(t, mid)));
                    high_reach.push(bots[j].min(bot_at(t, mid)));
                }
                Some((
                    low_reach
                        .iter()
                        .copied()
                        .zip(tops.iter().copied())
                        .collect(),
                    high_reach
                        .iter()
                        .copied()
                        .zip(tops.iter().copied())
                        .collect(),
                ))
            };
            // For B^up the key is TOP; for B^down it is BOT. Build the four
            // (reach, key) tables per tree.
            for up_tree in [true, false] {
                let keys = if up_tree { &tops } else { &bots };
                let tree = if up_tree {
                    &self.pairs[i].up
                } else {
                    &self.pairs[i].down
                };
                let leaves = tree.leaves(&*pager)?;
                let mut low = [
                    vec![f64::INFINITY; leaves.len()],
                    vec![f64::INFINITY; leaves.len()],
                ];
                let mut high = [
                    vec![f64::NEG_INFINITY; leaves.len()],
                    vec![f64::NEG_INFINITY; leaves.len()],
                ];
                for (si, side) in [Side::Prev, Side::Next].into_iter().enumerate() {
                    let Some((low_base, high_base)) = side_pairs(side) else {
                        continue;
                    };
                    // Rekey to this tree's keys.
                    let low_pairs: Vec<(f64, f64)> = low_base
                        .iter()
                        .zip(keys)
                        .map(|(&(reach, _), &k)| (reach, k))
                        .collect();
                    let high_pairs: Vec<(f64, f64)> = high_base
                        .iter()
                        .zip(keys)
                        .map(|(&(reach, _), &k)| (reach, k))
                        .collect();
                    low[si] = assign_low(&leaves, &low_pairs);
                    high[si] = assign_high(&leaves, &high_pairs);
                }
                for (li, leaf) in leaves.iter().enumerate() {
                    tree.set_handicaps(
                        pager,
                        leaf.page,
                        Handicaps {
                            low_prev: low[0][li],
                            low_next: low[1][li],
                            high_prev: high[0][li],
                            high_next: high[1][li],
                        },
                    )?;
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    /// Executes a selection with the requested strategy.
    ///
    /// `fetch` loads a tuple for the exact refinement step, charging its
    /// page accesses to `pager`. Execution is `&self` over a read-only
    /// pager: the per-query I/O windows in the returned
    /// [`QueryStats`] come from a private [`TrackedReader`], so they stay
    /// exact even when many queries share `pager` concurrently.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] — `Restricted` with a slope outside
    /// `S`, a non-2-D query, or `Scan`/`RPlus` (handled a level up by the
    /// planner, which owns the non-dual access methods).
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        strategy: Strategy,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        if sel.halfplane.dim() != 2 {
            return Err(CdbError::DimensionMismatch {
                expected: 2,
                got: sel.halfplane.dim(),
            });
        }
        let tracked = TrackedReader::new(pager);
        let pager: &dyn PageReader = &tracked;
        let a = sel.halfplane.slope2d();
        let bracket = self.slopes.bracket(a);
        match (strategy, bracket) {
            (Strategy::Restricted, Bracket::Member(i)) => self.restricted(pager, sel, i, fetch),
            (Strategy::Restricted, _) => Err(CdbError::UnsupportedQuery(format!(
                "slope {a} is not in the predefined set S"
            ))),
            (Strategy::Auto, Bracket::Member(i)) => self.restricted(pager, sel, i, fetch),
            (Strategy::T1 | Strategy::T2, Bracket::Member(i)) => {
                self.restricted(pager, sel, i, fetch)
            }
            (Strategy::T1, _) => self.t1(pager, sel, fetch),
            (Strategy::T2 | Strategy::Auto, Bracket::Between(i, j)) => {
                self.t2(pager, sel, i, j, fetch)
            }
            // The paper details T2 for the main case a1 < a < a2 only; the
            // wrapped cases fall back to T1 exactly like Section 4.1.
            (Strategy::T2 | Strategy::Auto, Bracket::Wrapped(..)) => self.t1(pager, sel, fetch),
            (Strategy::Scan | Strategy::RPlus, _) => Err(CdbError::UnsupportedQuery(
                "Scan and RPlus are executed by the planner, not the dual index".into(),
            )),
        }
    }

    /// Footnote 2 of the paper: *equality* queries. Retrieves tuples whose
    /// extension intersects (`Exist`) or is contained in (`All`) the
    /// hyperplane `x_d = a·x' + c` — e.g. the query generalized tuple
    /// `y = a x + c`. A tuple meets the line iff `BOT ≤ c ≤ TOP`, so the
    /// exact `EXIST(x_d ≥ a·x' + c)` answer (`TOP ≥ c`) is a candidate
    /// superset; one extra refinement pass against the hyperplane predicate
    /// finishes the job.
    pub fn execute_hyperplane(
        &self,
        pager: &dyn PageReader,
        slope: f64,
        c: f64,
        kind: SelectionKind,
        strategy: Strategy,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let sup = self.execute(
            pager,
            &Selection::exist(HalfPlane::new2d(slope, c, RelOp::Ge)),
            strategy,
            fetch,
        )?;
        let mut stats = sup.stats;
        let heap_before = pager.stats();
        let candidates: Vec<u32> = sup.ids().to_vec();
        let tuples = fetch.fetch_batch(pager, &candidates)?;
        let mut ids = Vec::with_capacity(candidates.len());
        for (id, t) in candidates.into_iter().zip(&tuples) {
            let keep = match kind {
                SelectionKind::Exist => predicates::exist_hyperplane(&[slope], c, t),
                SelectionKind::All => predicates::all_hyperplane(&[slope], c, t),
            };
            if keep {
                ids.push(id);
            } else {
                stats.false_hits += 1;
            }
        }
        stats.heap_io = stats.heap_io.plus(&pager.stats().since(&heap_before));
        Ok(QueryResult::new(ids, stats))
    }

    /// Frees every page of every tree back to the pager.
    ///
    /// # Errors
    /// [`CdbError::Io`] when collecting the pages to free fails; pages
    /// already freed stay freed.
    pub fn destroy(self, pager: &mut dyn Pager) -> Result<(), CdbError> {
        for pair in self.pairs {
            pair.up.destroy(pager)?;
            pair.down.destroy(pager)?;
        }
        Ok(())
    }

    pub(super) fn tree(&self, i: usize, up: bool) -> &BTree {
        if up {
            &self.pairs[i].up
        } else {
            &self.pairs[i].down
        }
    }
}

/// `TOP_P` for index keys; panics on unsatisfiable tuples (the relation
/// layer rejects them at insert).
fn top_at(t: &GeneralizedTuple, slope: f64) -> f64 {
    dual::top(t, &[slope]).expect("indexed tuples are satisfiable")
}

/// `BOT_P` for index keys.
fn bot_at(t: &GeneralizedTuple, slope: f64) -> f64 {
    dual::bot(t, &[slope]).expect("indexed tuples are satisfiable")
}

/// Folds one `(reach, key)` pair into the low handicap of its bucket leaf:
/// the leaf holding the first entry `≥ reach` (clamped to the last leaf).
pub(crate) fn fold_low(
    pager: &mut dyn Pager,
    tree: &BTree,
    side: Side,
    reach: f64,
    key: f64,
) -> io::Result<()> {
    let page = tree
        .find_first_geq(&*pager, reach)?
        .map(|(p, _)| p)
        .unwrap_or_else(|| tree.last_leaf());
    let mut h = tree.read_handicaps(&*pager, page)?;
    let slot = match side {
        Side::Prev => &mut h.low_prev,
        Side::Next => &mut h.low_next,
    };
    if key < *slot {
        *slot = key;
        tree.set_handicaps(pager, page, h)?;
    }
    Ok(())
}

/// Folds one `(reach, key)` pair into the high handicap of its bucket leaf:
/// the leaf holding the last entry `≤ reach` (clamped to the first leaf).
pub(crate) fn fold_high(
    pager: &mut dyn Pager,
    tree: &BTree,
    side: Side,
    reach: f64,
    key: f64,
) -> io::Result<()> {
    let page = tree
        .find_last_leq(&*pager, reach)?
        .map(|(p, _)| p)
        .unwrap_or_else(|| tree.first_leaf());
    let mut h = tree.read_handicaps(&*pager, page)?;
    let slot = match side {
        Side::Prev => &mut h.high_prev,
        Side::Next => &mut h.high_next,
    };
    if key > *slot {
        *slot = key;
        tree.set_handicaps(pager, page, h)?;
    }
    Ok(())
}

/// Exact refinement: fetches the candidates (batched by the source, so the
/// cost is one page access per distinct heap page) and keeps those
/// satisfying the original selection (Proposition 2.2, with `TOP`/`BOT`
/// read off each tuple's vertices).
pub(crate) fn refine(
    pager: &dyn PageReader,
    sel: &Selection,
    candidates: Vec<u32>,
    fetch: &dyn TupleSource,
    stats: &mut QueryStats,
) -> Result<Vec<u32>, CdbError> {
    let tuples = fetch.fetch_batch(pager, &candidates)?;
    let mut out = Vec::with_capacity(candidates.len());
    for (id, t) in candidates.into_iter().zip(&tuples) {
        let keep = match sel.kind {
            SelectionKind::All => predicates::all(&sel.halfplane, t),
            SelectionKind::Exist => predicates::exist(&sel.halfplane, t),
        };
        if keep {
            out.push(id);
        } else {
            stats.false_hits += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates::oracle_select;
    use cdb_storage::MemPager;
    use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind, TupleGen};

    fn build_index(
        pager: &mut MemPager,
        tuples: &[GeneralizedTuple],
        k: usize,
    ) -> (DualIndex, Vec<(u32, GeneralizedTuple)>) {
        let pairs: Vec<(u32, GeneralizedTuple)> = tuples
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let idx = DualIndex::build(pager, SlopeSet::uniform_tan(k), &pairs).unwrap();
        (idx, pairs)
    }

    fn run(
        idx: &DualIndex,
        pager: &MemPager,
        pairs: &[(u32, GeneralizedTuple)],
        sel: &Selection,
        strategy: Strategy,
    ) -> QueryResult {
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        idx.execute(pager, sel, strategy, &fetch).expect("query")
    }

    fn oracle(pairs: &[(u32, GeneralizedTuple)], sel: &Selection) -> Vec<u32> {
        let tuples: Vec<&GeneralizedTuple> = pairs.iter().map(|(_, t)| t).collect();
        oracle_select(&sel.halfplane, sel.kind == SelectionKind::All, tuples)
            .into_iter()
            .map(|i| pairs[i].0)
            .collect()
    }

    #[test]
    fn restricted_matches_oracle_on_member_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(300, ObjectSize::Small, 1).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        for i in 0..idx.slopes().len() {
            let s = idx.slopes().get(i);
            for b in [-30.0, 0.0, 25.0] {
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    for op in [RelOp::Ge, RelOp::Le] {
                        let sel = Selection {
                            kind,
                            halfplane: HalfPlane::new2d(s, b, op),
                        };
                        let got = run(&idx, &pager, &pairs, &sel, Strategy::Restricted);
                        assert_eq!(
                            got.ids(),
                            oracle(&pairs, &sel),
                            "{kind:?} {op:?} s={s} b={b}"
                        );
                        assert_eq!(got.stats.duplicates, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn restricted_rejects_foreign_slope() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(20, ObjectSize::Small, 2).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 3);
        let sel = Selection::exist(HalfPlane::above(0.123456, 0.0));
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        let err = idx
            .execute(&pager, &sel, Strategy::Restricted, &fetch)
            .unwrap_err();
        assert!(matches!(err, CdbError::UnsupportedQuery(_)));
    }

    #[test]
    fn t1_matches_oracle_arbitrary_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(250, ObjectSize::Small, 3).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 3);
        let mut qg = QueryGen::new(77);
        for kind in [QueryKind::All, QueryKind::Exist] {
            for sel_frac in [0.1, 0.3] {
                let q = qg.calibrated(&tuples, kind, sel_frac);
                let sel = Selection {
                    kind: if kind == QueryKind::All {
                        SelectionKind::All
                    } else {
                        SelectionKind::Exist
                    },
                    halfplane: q.halfplane,
                };
                let got = run(&idx, &pager, &pairs, &sel, Strategy::T1);
                assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {sel_frac}");
            }
        }
    }

    #[test]
    fn t1_wrapped_slopes() {
        // Query slopes outside [min S, max S]: Table 1 rows 2 and 3.
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(150, ObjectSize::Small, 4).generate();
        let pairs: Vec<(u32, GeneralizedTuple)> = tuples
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let idx = DualIndex::build(&mut pager, SlopeSet::new(vec![-0.5, 0.7]), &pairs).unwrap();
        for a in [5.0, -4.0, 1.5, -1.0] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, 3.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T1);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
    }

    #[test]
    fn t2_matches_oracle_and_produces_no_duplicates() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(400, ObjectSize::Small, 5).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let mut qg = QueryGen::new(13);
        for kind in [QueryKind::All, QueryKind::Exist] {
            for sel_frac in [0.05, 0.15, 0.4] {
                let q = qg.calibrated(&tuples, kind, sel_frac);
                let sel = Selection {
                    kind: if kind == QueryKind::All {
                        SelectionKind::All
                    } else {
                        SelectionKind::Exist
                    },
                    halfplane: q.halfplane,
                };
                let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {sel_frac}");
                // Wrapped slopes legitimately fall back to T1 (which may
                // produce duplicates); the no-duplicate guarantee applies to
                // the main case the paper details.
                if matches!(
                    idx.slopes().bracket(sel.halfplane.slope2d()),
                    Bracket::Between(..)
                ) {
                    assert_eq!(got.stats.duplicates, 0);
                }
            }
        }
    }

    #[test]
    fn t2_handles_unbounded_tuples() {
        let mut pager = MemPager::paper_1999();
        let mut g = TupleGen::new(9, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..60).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..40).map(|_| g.unbounded_tuple()));
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        for a in [0.3, -0.8, 2.0] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, -5.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
    }

    #[test]
    fn insert_then_query_after_refresh() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(100, ObjectSize::Small, 6).generate();
        let (mut idx, mut pairs) = build_index(&mut pager, &tuples, 3);
        // Insert 50 more.
        let more = DatasetSpec::paper_1999(50, ObjectSize::Small, 60).generate();
        for (j, t) in more.into_iter().enumerate() {
            let id = 1000 + j as u32;
            idx.insert(&mut pager, id, &t).unwrap();
            pairs.push((id, t));
        }
        assert!(idx.needs_refresh());
        idx.refresh_handicaps(&mut pager, &pairs).unwrap();
        assert!(!idx.needs_refresh());
        let sel = Selection::exist(HalfPlane::above(0.37, -3.0));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
    }

    #[test]
    fn remove_then_query() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(120, ObjectSize::Small, 8).generate();
        let (mut idx, mut pairs) = build_index(&mut pager, &tuples, 3);
        // Remove every third tuple.
        let removed: Vec<(u32, GeneralizedTuple)> = pairs
            .iter()
            .filter(|(id, _)| id % 3 == 0)
            .cloned()
            .collect();
        for (id, t) in &removed {
            assert!(idx.remove(&mut pager, *id, t).unwrap(), "remove {id}");
        }
        pairs.retain(|(id, _)| id % 3 != 0);
        idx.refresh_handicaps(&mut pager, &pairs).unwrap();
        let sel = Selection::all(HalfPlane::below(-0.21, 40.0));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        // Removing an absent tuple reports false.
        let (id, t) = &removed[0];
        assert!(!idx.remove(&mut pager, *id, t).unwrap());
    }

    #[test]
    fn t2_is_correct_without_refresh_after_updates() {
        // Incremental maintenance: inserts and deletes keep the handicaps
        // conservative, so T2 stays exact with no rebuild at all.
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(120, ObjectSize::Small, 10).generate();
        let (mut idx, mut pairs) = build_index(&mut pager, &tuples, 3);
        let more = DatasetSpec::paper_1999(80, ObjectSize::Medium, 11).generate();
        for (j, t) in more.into_iter().enumerate() {
            let id = 5000 + j as u32;
            idx.insert(&mut pager, id, &t).unwrap();
            pairs.push((id, t));
        }
        let removed: Vec<(u32, GeneralizedTuple)> = pairs
            .iter()
            .filter(|(id, _)| id % 4 == 1)
            .cloned()
            .collect();
        for (id, t) in &removed {
            assert!(idx.remove(&mut pager, *id, t).unwrap());
        }
        pairs.retain(|(id, _)| id % 4 != 1);
        assert!(idx.needs_refresh(), "updates loosen the handicaps");
        for (a, b) in [(0.37, 0.0), (-1.1, 12.0), (0.9, -25.0)] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, b, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
        // A refresh re-tightens and of course stays correct.
        idx.refresh_handicaps(&mut pager, &pairs).unwrap();
        assert!(!idx.needs_refresh());
        let sel = Selection::exist(HalfPlane::above(0.41, 3.0));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
    }

    #[test]
    fn auto_uses_restricted_for_member_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(80, ObjectSize::Small, 12).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 3);
        let s = idx.slopes().get(1);
        let sel = Selection::exist(HalfPlane::above(s, 0.0));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::Auto);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        // Restricted executions never fetch tuples.
        assert_eq!(got.stats.heap_io.accesses(), 0);
    }

    #[test]
    fn space_grows_linearly_in_k() {
        let mut pager2 = MemPager::paper_1999();
        let mut pager4 = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(500, ObjectSize::Small, 14).generate();
        let (idx2, _) = build_index(&mut pager2, &tuples, 2);
        let (idx4, _) = build_index(&mut pager4, &tuples, 4);
        let ratio = idx4.page_count() as f64 / idx2.page_count() as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "k=4 should use ~2x the pages of k=2, got {ratio}"
        );
    }

    #[test]
    fn hyperplane_equality_queries() {
        let mut pager = MemPager::paper_1999();
        let mut g =
            cdb_workload::TupleGen::new(3, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..150).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..30).map(|_| g.unbounded_tuple()));
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        for (a, c) in [(0.3, 0.0), (-1.2, 15.0), (2.0, -30.0), (0.7, 44.0)] {
            for kind in [SelectionKind::Exist, SelectionKind::All] {
                let l1 = lookup.clone();
                let fetch = move |_: &dyn PageReader, id: u32| l1[&id].clone();
                let got = idx
                    .execute_hyperplane(&pager, a, c, kind, Strategy::T2, &fetch)
                    .unwrap();
                let want: Vec<u32> = pairs
                    .iter()
                    .filter(|(_, t)| match kind {
                        SelectionKind::Exist => {
                            cdb_geometry::predicates::lp::exist_hyperplane(&[a], c, t)
                        }
                        SelectionKind::All => {
                            cdb_geometry::predicates::lp::all_hyperplane(&[a], c, t)
                        }
                    })
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(got.ids(), want, "{kind:?} line y = {a}x + {c}");
            }
        }
        // A degenerate tuple lying exactly on a line is ALL-selected by it.
        let segment =
            cdb_geometry::parse::parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap();
        let mut pairs2 = pairs.clone();
        let mut idx2 = idx.clone();
        idx2.insert(&mut pager, 9000, &segment).unwrap();
        pairs2.push((9000, segment));
        let lookup2: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs2.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup2[&id].clone();
        let got = idx2
            .execute_hyperplane(&pager, 0.5, 2.0, SelectionKind::All, Strategy::T2, &fetch)
            .unwrap();
        assert_eq!(got.ids(), &[9000]);
    }

    /// Regression: routing T2 by angle distance instead of slope distance
    /// sent slope −1.159 (between −2.414 and −0.414, k = 4) to the tree at
    /// −2.414, whose handicap strip [−2.414, −1.414] does not contain the
    /// query slope — and EXIST results were silently missed.
    #[test]
    fn t2_routing_matches_handicap_strips() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(4000, ObjectSize::Small, 0x5E1).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let sel = Selection::exist(HalfPlane::below(-1.1591839945660445, -13.65694655564986));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        // And a sweep of slopes straddling both halves of every gap.
        for a in [-2.0, -1.5, -1.2, -0.9, -0.5, -0.2, 0.2, 0.9, 1.2, 2.0] {
            for op in [RelOp::Ge, RelOp::Le] {
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, -10.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
    }

    #[test]
    fn t1_reports_duplicates_t2_none() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(300, ObjectSize::Medium, 15).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 2);
        let sel = Selection::exist(HalfPlane::above(0.41, -10.0));
        let r1 = run(&idx, &pager, &pairs, &sel, Strategy::T1);
        let r2 = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(r1.ids(), r2.ids());
        assert_eq!(r2.stats.duplicates, 0);
        // Medium objects + EXIST: the two T1 legs overlap heavily.
        assert!(
            r1.stats.duplicates > 0,
            "expected duplicates from T1, stats {:?}",
            r1.stats
        );
    }
}
