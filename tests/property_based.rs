//! Randomized suites (seeded, in-repo PRNG) on the core invariants:
//!
//! * the two independent `TOP/BOT` evaluators (LP vs vertex/ray) agree;
//! * `ALL ⇒ EXIST`, complement laws of the selection predicates;
//! * tuple serialization round-trips;
//! * indexed queries equal the oracle on arbitrary generated relations;
//! * T2 emits no duplicate candidates;
//! * concurrent batch execution equals sequential execution query-for-query.

use cdb_prng::StdRng;

use constraint_db::geometry::constraint::{LinearConstraint, RelOp};
use constraint_db::geometry::polygon::Polygon;
use constraint_db::geometry::predicates::{self, lp};
use constraint_db::geometry::tuple::GeneralizedTuple;
use constraint_db::geometry::{dual, HalfPlane};
use constraint_db::index::query::Strategy as QueryStrategy;
use constraint_db::prelude::{
    ConstraintDb, DatasetSpec, DbConfig, ObjectSize, Rect, Selection, SlopeSet, TupleGen,
};

/// A random linear constraint with well-scaled coefficients.
fn random_constraint(rng: &mut StdRng) -> LinearConstraint {
    loop {
        let a = rng.gen_range(-4.0..4.0);
        let b = rng.gen_range(-4.0..4.0);
        if a.abs() < 0.05 && b.abs() < 0.05 {
            continue; // degenerate: no x/y dependence
        }
        let c = rng.gen_range(-40.0..40.0);
        let op = if rng.gen_bool(0.5) {
            RelOp::Ge
        } else {
            RelOp::Le
        };
        return LinearConstraint::new2d(a, b, c, op);
    }
}

/// A random (possibly unbounded, possibly empty) 2-D tuple.
fn random_tuple(rng: &mut StdRng) -> GeneralizedTuple {
    let n = rng.gen_range(1..6usize);
    GeneralizedTuple::new((0..n).map(|_| random_constraint(rng)).collect())
}

#[test]
fn lp_and_vertex_surfaces_agree() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9100 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let lp_top = dual::top(&t, &[a]);
        let lp_bot = dual::bot(&t, &[a]);
        match Polygon::from_tuple(&t) {
            None => {
                assert!(
                    lp_top.is_none(),
                    "seed {seed}: polygon empty but LP feasible for {t}"
                );
            }
            Some(p) => {
                let (vt, vb) = (p.top(a), p.bot(a));
                let lt = lp_top.expect("polygon non-empty");
                let lb = lp_bot.expect("polygon non-empty");
                let close = |x: f64, y: f64| {
                    (x.is_infinite() && x == y) || (x - y).abs() <= 1e-5 * (1.0 + x.abs().min(1e6))
                };
                assert!(
                    close(lt, vt),
                    "seed {seed} TOP: lp={lt} vertex={vt} for {t} at a={a}"
                );
                assert!(
                    close(lb, vb),
                    "seed {seed} BOT: lp={lb} vertex={vb} for {t} at a={a}"
                );
            }
        }
    }
}

#[test]
fn top_dominates_bot() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9200 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        if let (Some(top), Some(bot)) = (dual::top(&t, &[a]), dual::bot(&t, &[a])) {
            assert!(top >= bot - 1e-7, "seed {seed}: top={top} < bot={bot}");
        }
    }
}

/// A selection predicate: `ALL` or `EXIST` of a half-plane on a tuple.
type Predicate = fn(&HalfPlane, &GeneralizedTuple) -> bool;

/// The refinement predicates and their LP oracle: the laws below hold for
/// both.
const EVALUATORS: [(&str, Predicate, Predicate); 2] = [
    ("kernel", predicates::all, predicates::exist),
    ("LP", lp::all, lp::exist),
];

#[test]
fn all_implies_exist() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9300 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-50.0..50.0);
        if !t.is_satisfiable() {
            continue;
        }
        for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
            for (name, all, exist) in EVALUATORS {
                if all(&q, &t) {
                    assert!(
                        exist(&q, &t),
                        "seed {seed}: {name} ALL without EXIST for {q} on {t}"
                    );
                }
            }
        }
    }
}

#[test]
fn complement_exhausts_plane() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9400 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-50.0..50.0);
        if !t.is_satisfiable() {
            continue;
        }
        let q = HalfPlane::above(a, b);
        for (name, all, exist) in EVALUATORS {
            // A satisfiable tuple intersects q or its complement (or both).
            assert!(
                exist(&q, &t) || exist(&q.complement(), &t),
                "seed {seed}: {name}"
            );
            // With closed half-planes, ALL(q) and ALL(¬q) can hold together
            // only when the whole extension lies on the shared boundary line.
            if all(&q, &t) && all(&q.complement(), &t) {
                let top = dual::top(&t, &[a]).unwrap();
                let bot = dual::bot(&t, &[a]).unwrap();
                assert!(
                    (top - b).abs() < 1e-6 && (bot - b).abs() < 1e-6,
                    "seed {seed}: {name}: extension not on the boundary"
                );
            }
        }
    }
}

#[test]
fn tuple_codec_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9500 + seed);
        let t = random_tuple(&mut rng);
        let bytes = t.encode();
        let back = GeneralizedTuple::decode(&bytes).expect("round trip");
        assert_eq!(back, t, "seed {seed}");
    }
}

#[test]
fn polygon_points_satisfy_tuple() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9600 + seed);
        let t = random_tuple(&mut rng);
        if let Some(p) = Polygon::from_tuple(&t) {
            for v in p.points() {
                // Generating points lie in (or numerically on) the extension.
                let mut ok = true;
                for c in t.constraints() {
                    let lhs = c.lhs(&[v[0], v[1]]);
                    let tol = 1e-6 * (1.0 + lhs.abs());
                    ok &= match c.op {
                        RelOp::Le => lhs <= tol,
                        RelOp::Ge => lhs >= -tol,
                    };
                }
                assert!(ok, "seed {seed}: point {v:?} violates {t}");
            }
        }
    }
}

/// Builds a mixed bounded/unbounded relation with an index on `k` slopes.
fn indexed_db(seed: u64, k: usize, unbounded: usize) -> (ConstraintDb, usize) {
    let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..60).map(|_| g.bounded_tuple()).collect();
    for _ in 0..unbounded {
        tuples.push(g.unbounded_tuple());
    }
    let n = tuples.len();
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in &tuples {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(k)).unwrap();
    (db, n)
}

// Whole-index oracle equivalence is expensive: fewer cases.
#[test]
fn indexed_queries_match_oracle() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x9700 + case);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(2..5usize);
        let a = rng.gen_range(-2.5..2.5);
        let b = rng.gen_range(-60.0..60.0);
        let unbounded = rng.gen_range(0..3usize) * 10;
        let (db, _) = indexed_db(seed, k, unbounded);
        for sel in [
            Selection::exist(HalfPlane::above(a, b)),
            Selection::exist(HalfPlane::below(a, b)),
            Selection::all(HalfPlane::above(a, b)),
            Selection::all(HalfPlane::below(a, b)),
        ] {
            let want = db
                .query_with("r", sel.clone(), QueryStrategy::Scan)
                .unwrap();
            for strat in [QueryStrategy::T1, QueryStrategy::T2] {
                let got = db.query_with("r", sel.clone(), strat).unwrap();
                assert_eq!(
                    got.ids(),
                    want.ids(),
                    "strategy {:?} kind {:?} a={} b={} seed={} k={}",
                    strat,
                    sel.kind,
                    a,
                    b,
                    seed,
                    k
                );
            }
        }
    }
}

#[test]
fn t2_produces_no_duplicate_candidates() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x9800 + case);
        let seed = rng.gen_range(0..500u64);
        let a = rng.gen_range(-2.0..2.0);
        let b = rng.gen_range(-50.0..50.0);
        let tuples = DatasetSpec::paper_1999(120, ObjectSize::Medium, seed).generate();
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in &tuples {
            db.insert("r", t.clone()).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        for sel in [
            Selection::exist(HalfPlane::above(a, b)),
            Selection::all(HalfPlane::below(a, b)),
        ] {
            let got = db.query_with("r", sel, QueryStrategy::T2).unwrap();
            // In the main (non-wrapped) slope case T2 must be duplicate-free.
            let slopes = {
                let rel = db.relation("r").unwrap();
                rel.index().unwrap().slopes().as_slice().to_vec()
            };
            if a > slopes[0] && a < slopes[slopes.len() - 1] {
                assert_eq!(got.stats.duplicates, 0, "case {case} a={a} b={b}");
            }
        }
    }
}

/// The executor satellite: a randomized batch over every strategy —
/// including Restricted on member slopes — returns, at every thread count,
/// exactly what per-query sequential execution returns.
#[test]
fn query_executor_batch_matches_sequential() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x9900 + case);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(2..5usize);
        let unbounded = rng.gen_range(0..3usize) * 10;
        let (db, _) = indexed_db(seed, k, unbounded);
        let member_slopes: Vec<f64> = {
            let rel = db.relation("r").unwrap();
            rel.index().unwrap().slopes().as_slice().to_vec()
        };
        let mut batch = Vec::new();
        for qi in 0..18 {
            let strat = match qi % 3 {
                0 => QueryStrategy::T1,
                1 => QueryStrategy::T2,
                _ => QueryStrategy::Restricted,
            };
            let a = if strat == QueryStrategy::Restricted {
                member_slopes[rng.gen_range(0..member_slopes.len())]
            } else {
                rng.gen_range(-2.5..2.5)
            };
            let b = rng.gen_range(-60.0..60.0);
            let hp = if rng.gen_bool(0.5) {
                HalfPlane::above(a, b)
            } else {
                HalfPlane::below(a, b)
            };
            let sel = if rng.gen_bool(0.5) {
                Selection::exist(hp)
            } else {
                Selection::all(hp)
            };
            batch.push((sel, strat));
        }
        let sequential: Vec<(Vec<u32>, u64)> = batch
            .iter()
            .map(|(sel, strat)| {
                let r = db.query_with("r", sel.clone(), *strat).unwrap();
                (r.ids().to_vec(), r.stats.index_io.reads)
            })
            .collect();
        for threads in [1usize, 3, 8] {
            let got = db.query_batch("r", &batch, threads).unwrap();
            for (qi, (r, (want_ids, want_reads))) in got.iter().zip(&sequential).enumerate() {
                let r = r.as_ref().unwrap();
                assert_eq!(
                    r.ids(),
                    want_ids.as_slice(),
                    "case {case} query {qi} at {threads} threads"
                );
                assert_eq!(
                    r.stats.index_io.reads, *want_reads,
                    "case {case} query {qi}: per-query stats must be isolated"
                );
            }
        }
    }
}
