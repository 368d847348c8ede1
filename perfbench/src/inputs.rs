//! Seeded inputs: the relations, the calibrated query battery with its
//! oracle answers, and the writer's insert/delete model.
//!
//! Everything here is a pure function of the seed and the [`Sizes`]; the
//! engine only ever receives what these generators produce.

use std::collections::HashMap;

use cdb_core::{Selection, SelectionKind, SlopeSet};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{dual, predicates};
use cdb_prng::StdRng;
use cdb_workload::{DatasetSpec, ObjectSize};

/// Slope-set size k of every dual index (the paper's Section 5 bed).
pub const K: usize = 4;

/// Selectivity band of the calibrated queries (the paper reports 10–15 %).
pub const SELECTIVITY: (f64, f64) = (0.10, 0.15);

/// The slope set every dual index is built over.
pub fn slope_set() -> SlopeSet {
    SlopeSet::uniform_tan(K)
}

/// Scale of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Tuples in the queried relation `r` (the paper's N).
    pub n: usize,
    /// Live tuples in the written relation `w`.
    pub w_live: usize,
    /// Distinct calibrated queries (half ALL, half EXIST).
    pub queries: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Traced writes replayed in process, at most.
    pub replay_writes: usize,
}

impl Sizes {
    /// The paper's Section 5 bed: N = 12000 small objects.
    pub fn paper() -> Self {
        Sizes {
            n: 12_000,
            w_live: 2_000,
            queries: 64,
            setup_reps: 5,
            replay_writes: 1_000,
        }
    }

    /// A bed small enough for the benchmark's own tests.
    pub fn tiny() -> Self {
        Sizes {
            n: 400,
            w_live: 60,
            queries: 8,
            setup_reps: 2,
            replay_writes: 40,
        }
    }
}

/// The generated relations.
pub struct Relations {
    /// Tuples of `r`, in insertion (and id) order.
    pub r: Vec<GeneralizedTuple>,
    /// Initial tuples of `w`, in insertion (and id) order; empty without a
    /// writer.
    pub w: Vec<GeneralizedTuple>,
    /// Tuples the writer draws its inserts from; empty without a writer.
    pub pool: Vec<GeneralizedTuple>,
}

/// Generates the relations of one seed; `w` and the writer's pool only
/// when the workload writes.
pub fn relations(seed: u64, sizes: &Sizes, writer: bool) -> Relations {
    let gen = |n: usize, salt: u64| {
        DatasetSpec::paper_1999(n, ObjectSize::Small, seed.wrapping_mul(0x9E37_79B9) ^ salt)
            .generate()
    };
    Relations {
        r: gen(sizes.n, 0x11),
        w: if writer {
            gen(sizes.w_live, 0x22)
        } else {
            Vec::new()
        },
        pool: if writer {
            gen(sizes.w_live.max(64), 0x33)
        } else {
            Vec::new()
        },
    }
}

/// Where query slopes come from.
#[derive(Clone, Copy, Debug)]
pub enum SlopeDraw {
    /// Arbitrary slopes (the paper's approximate techniques T1/T2).
    Arbitrary,
    /// Slopes of the predefined set S (Section 3's restricted problem).
    FromSet,
}

/// One calibrated selection with its precomputed oracle answer.
#[derive(Clone, Debug)]
pub struct Query {
    /// The selection as the typed API takes it.
    pub sel: Selection,
    /// The same selection as constraint-SQL text.
    pub sql: String,
    /// Ids `predicates::oracle_select` returns, ascending.
    pub expected: Vec<u32>,
}

/// Draws `sizes.queries` selections (half ALL, half EXIST) calibrated to
/// the selectivity band over `tuples`, and computes every answer with the
/// brute-force oracle on two threads.
pub fn queries(
    tuples: &[GeneralizedTuple],
    sizes: &Sizes,
    draw: SlopeDraw,
    seed: u64,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_0E11);
    let slopes = slope_set();
    let specs: Vec<(SelectionKind, f64, RelOp, f64)> = (0..sizes.queries)
        .map(|i| {
            let kind = if i % 2 == 0 {
                SelectionKind::All
            } else {
                SelectionKind::Exist
            };
            let a = match draw {
                SlopeDraw::Arbitrary => arbitrary_slope(&mut rng),
                SlopeDraw::FromSet => slopes.get(rng.gen_range(0..slopes.len())),
            };
            let op = if rng.gen_bool(0.5) {
                RelOp::Ge
            } else {
                RelOp::Le
            };
            let frac = rng.gen_range(SELECTIVITY.0..=SELECTIVITY.1);
            (kind, a, op, frac)
        })
        .collect();
    let half = specs.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = specs
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(kind, a, op, frac)| calibrate(tuples, kind, a, op, frac))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("query calibration thread"))
            .collect()
    })
}

/// A slope `tan(φ)` with `φ` uniform over `(0, π)`, kept away from the
/// vertical (the workload crate's query-slope distribution).
fn arbitrary_slope(rng: &mut StdRng) -> f64 {
    loop {
        let t = (std::f64::consts::PI * rng.next_f64()).tan();
        if t.is_finite() && t.abs() < 20.0 {
            return t;
        }
    }
}

/// Places the intercept halfway between the two dual values that bracket
/// the wanted answer size, so no tuple lies on the query line and the
/// answer does not depend on how the line is transported (typed frame or
/// SQL text).
fn calibrate(
    tuples: &[GeneralizedTuple],
    kind: SelectionKind,
    a: f64,
    op: RelOp,
    frac: f64,
) -> Query {
    // Proposition 2.2: each (kind, op) answer is a threshold set of one
    // dual surface.
    let use_top = matches!(
        (kind, op),
        (SelectionKind::Exist, RelOp::Ge) | (SelectionKind::All, RelOp::Le)
    );
    let mut values: Vec<f64> = tuples
        .iter()
        .map(|t| {
            let v = if use_top {
                dual::top(t, &[a])
            } else {
                dual::bot(t, &[a])
            };
            v.expect("generated tuples are satisfiable")
        })
        .collect();
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let want = ((n as f64 * frac).round() as usize).clamp(1, n.saturating_sub(1).max(1));
    let b = match op {
        RelOp::Ge => midpoint(values[n - want - 1], values[n - want]),
        RelOp::Le => midpoint(values[want - 1], values[want]),
    };
    let halfplane = HalfPlane::new2d(a, b, op);
    let expected = predicates::oracle_select(&halfplane, kind == SelectionKind::All, tuples)
        .into_iter()
        .map(|i| i as u32)
        .collect();
    let sql = sql_text(kind, a, b, op);
    Query {
        sel: Selection { kind, halfplane },
        sql,
        expected,
    }
}

fn midpoint(lo: f64, hi: f64) -> f64 {
    let m = lo + (hi - lo) / 2.0;
    if m.is_finite() {
        m
    } else {
        0.0
    }
}

/// `SELECT * FROM r WHERE y >= a x + b EXIST` with every digit of `a`
/// and `b` (Rust's shortest round-trip float formatting).
fn sql_text(kind: SelectionKind, a: f64, b: f64, op: RelOp) -> String {
    let cmp = match op {
        RelOp::Ge => ">=",
        RelOp::Le => "<=",
    };
    let sign = if b < 0.0 { '-' } else { '+' };
    let kind = match kind {
        SelectionKind::All => "ALL",
        SelectionKind::Exist => "EXIST",
    };
    format!(
        "SELECT * FROM r WHERE y {cmp} {a}x {sign} {} {kind}",
        b.abs()
    )
}

/// One mutation of the writer's stream.
#[derive(Clone, Debug)]
pub enum WriteOp {
    /// Insert this pool tuple.
    Insert(GeneralizedTuple),
    /// Delete this live id of `w`.
    Delete(u32),
}

/// The writer's own model of relation `w`: the live ids and their tuples.
/// The writer alternates insert and delete, so `w` stays at its initial
/// size; victims are drawn uniformly from the live ids.
pub struct WriterModel {
    live: Vec<u32>,
    tuples: HashMap<u32, GeneralizedTuple>,
    pool: Vec<GeneralizedTuple>,
    next: usize,
    acked: u64,
    rng: StdRng,
}

impl WriterModel {
    /// The model of a fresh `w`, whose tuple `i` has id `i`.
    pub fn new(initial: &[GeneralizedTuple], pool: &[GeneralizedTuple], seed: u64) -> Self {
        WriterModel {
            live: (0..initial.len() as u32).collect(),
            tuples: initial
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t.clone()))
                .collect(),
            pool: pool.to_vec(),
            next: 0,
            acked: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x0057_127E),
        }
    }

    /// The next mutation: inserts on even steps, deletes on odd ones.
    pub fn next_op(&mut self) -> WriteOp {
        self.next += 1;
        if self.next % 2 == 1 || self.live.is_empty() {
            WriteOp::Insert(self.pool[(self.next / 2) % self.pool.len()].clone())
        } else {
            WriteOp::Delete(self.live[self.rng.gen_range(0..self.live.len())])
        }
    }

    /// Records an acknowledged insert.
    pub fn inserted(&mut self, id: u32, tuple: GeneralizedTuple) -> Result<(), String> {
        if self.tuples.insert(id, tuple).is_some() {
            return Err(format!("insert acked id {id}, which is already live"));
        }
        self.live.push(id);
        self.acked += 1;
        Ok(())
    }

    /// Records an acknowledged delete, checking the tuple the engine
    /// returned against the model's.
    pub fn deleted(&mut self, id: u32, returned: &GeneralizedTuple) -> Result<(), String> {
        let pos = self
            .live
            .iter()
            .position(|&x| x == id)
            .ok_or_else(|| format!("delete acked id {id}, which the model does not hold"))?;
        self.live.swap_remove(pos);
        self.acked += 1;
        let want = self.tuples.remove(&id).expect("live ids have tuples");
        if want.encode() != returned.encode() {
            return Err(format!("delete of id {id} returned a different tuple"));
        }
        Ok(())
    }

    /// Compares the engine's final `w` (as `(id, tuple)` pairs) with the
    /// model: same live id set, same tuple per id.
    pub fn check(&self, stored: &[(u32, GeneralizedTuple)]) -> Result<(), String> {
        if stored.len() != self.tuples.len() {
            return Err(format!(
                "w holds {} tuples, the writer's model {}",
                stored.len(),
                self.tuples.len()
            ));
        }
        for (id, t) in stored {
            match self.tuples.get(id) {
                None => return Err(format!("w holds id {id}, which the model deleted")),
                Some(want) if want.encode() != t.encode() => {
                    return Err(format!("w's tuple {id} differs from the acked one"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Acknowledged mutations so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Encoded bytes of the live tuples.
    pub fn user_bytes(&self) -> u64 {
        self.tuples.values().map(|t| t.encode().len() as u64).sum()
    }
}

/// Encoded bytes of a set of tuples (the user-data side of
/// `bytes_per_user_byte`).
pub fn user_bytes(tuples: &[GeneralizedTuple]) -> u64 {
    tuples.iter().map(|t| t.encode().len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_answers_sit_in_the_band_and_repeat_per_seed() {
        let sizes = Sizes::tiny();
        let rel = relations(7, &sizes, true);
        let a = queries(&rel.r, &sizes, SlopeDraw::Arbitrary, 7);
        let b = queries(&rel.r, &sizes, SlopeDraw::Arbitrary, 7);
        assert_eq!(a.len(), sizes.queries);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql, y.sql);
            assert_eq!(x.expected, y.expected);
            let frac = x.expected.len() as f64 / sizes.n as f64;
            assert!((0.09..=0.16).contains(&frac), "selectivity {frac}");
        }
    }

    #[test]
    fn restricted_queries_use_member_slopes() {
        let sizes = Sizes::tiny();
        let rel = relations(3, &sizes, true);
        let s = slope_set();
        for q in queries(&rel.r, &sizes, SlopeDraw::FromSet, 3) {
            assert!(s.position(q.sel.halfplane.slope2d()).is_some());
        }
    }

    #[test]
    fn writer_model_keeps_w_at_its_size() {
        let sizes = Sizes::tiny();
        let rel = relations(5, &sizes, true);
        let mut m = WriterModel::new(&rel.w, &rel.pool, 5);
        let mut next_id = rel.w.len() as u32;
        for _ in 0..50 {
            match m.next_op() {
                WriteOp::Insert(t) => {
                    m.inserted(next_id, t).unwrap();
                    next_id += 1;
                }
                WriteOp::Delete(id) => {
                    let t = m.tuples[&id].clone();
                    m.deleted(id, &t).unwrap();
                }
            }
        }
        assert_eq!(m.live.len(), rel.w.len());
    }
}
