//! Randomized coverage for the paper's footnote 2: *equality* (line)
//! queries `y = a·x + c`, served by [`DualIndex::execute_hyperplane`] as an
//! exact EXIST half-plane superset plus one refinement pass. Every
//! strategy — restricted (member slopes), T1 and T2 — must agree with the
//! brute-force oracle on mixed bounded/unbounded relations.

use std::collections::HashMap;

use constraint_db::geometry::predicates;
use constraint_db::index::query::{SelectionKind, Strategy};
use constraint_db::prelude::*;
use constraint_db::storage::PageReader;

fn mixed_relation(seed: u64, bounded: usize, unbounded: usize) -> Vec<(u32, GeneralizedTuple)> {
    let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..bounded).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..unbounded).map(|_| g.unbounded_tuple()));
    tuples
        .into_iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t))
        .collect()
}

fn oracle(pairs: &[(u32, GeneralizedTuple)], a: f64, c: f64, kind: SelectionKind) -> Vec<u32> {
    pairs
        .iter()
        .filter(|(_, t)| match kind {
            SelectionKind::Exist => predicates::lp::exist_hyperplane(&[a], c, t),
            SelectionKind::All => predicates::lp::all_hyperplane(&[a], c, t),
        })
        .map(|(id, _)| *id)
        .collect()
}

#[test]
fn random_lines_agree_with_oracle_across_strategies() {
    for seed in [5u64, 6, 7] {
        let pairs = mixed_relation(seed, 250, 50);
        let mut pager = MemPager::paper_1999();
        let slopes = SlopeSet::uniform_tan(4);
        let idx = DualIndex::build(&mut pager, slopes.clone(), &pairs).unwrap();
        let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
        let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };

        let mut rng = cdb_prng::StdRng::seed_from_u64(seed * 1001);
        let mut g = TupleGen::new(seed * 13, Rect::paper_window(), ObjectSize::Small);
        for qi in 0..24 {
            // Half the lines use foreign slopes (T1/T2 approximation
            // paths), half a member slope (restricted search is exact and
            // must agree too).
            let member = qi % 2 == 0;
            let a = if member {
                slopes.get(qi % slopes.len())
            } else {
                g.slope()
            };
            let c: f64 = rng.gen_range(-60.0..60.0);
            for kind in [SelectionKind::Exist, SelectionKind::All] {
                let want = oracle(&pairs, a, c, kind);
                let strategies: &[Strategy] = if member {
                    &[Strategy::Restricted, Strategy::T1, Strategy::T2]
                } else {
                    &[Strategy::T1, Strategy::T2]
                };
                for &st in strategies {
                    let got = idx
                        .execute_hyperplane(&pager, a, c, kind, st, &fetch)
                        .unwrap_or_else(|e| panic!("seed {seed} line {qi} {st:?}: {e}"));
                    assert_eq!(
                        got.ids(),
                        want,
                        "seed {seed} {kind:?} y = {a}x + {c} via {st:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn unbounded_tuples_are_found_by_line_queries() {
    // Pure unbounded relation: strips, wedges and half-planes cross almost
    // every line, and the ALL case stays empty (nothing full-dimensional is
    // contained in a line).
    let pairs = mixed_relation(91, 0, 60);
    let mut pager = MemPager::paper_1999();
    let idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(3), &pairs).unwrap();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };
    let mut rng = cdb_prng::StdRng::seed_from_u64(0x11E);
    let mut nonempty = 0;
    for _ in 0..10 {
        let a: f64 = rng.gen_range(-2.0..2.0);
        let c: f64 = rng.gen_range(-30.0..30.0);
        let want = oracle(&pairs, a, c, SelectionKind::Exist);
        let got = idx
            .execute_hyperplane(&pager, a, c, SelectionKind::Exist, Strategy::T2, &fetch)
            .unwrap();
        assert_eq!(got.ids(), want);
        if !want.is_empty() {
            nonempty += 1;
        }
        let all = idx
            .execute_hyperplane(&pager, a, c, SelectionKind::All, Strategy::T2, &fetch)
            .unwrap();
        assert_eq!(all.ids(), oracle(&pairs, a, c, SelectionKind::All));
    }
    assert!(nonempty >= 8, "unbounded objects should meet most lines");
}

#[test]
fn facade_line_queries_match_the_oracle() {
    let pairs = mixed_relation(17, 120, 30);
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for (_, t) in &pairs {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    let mut rng = cdb_prng::StdRng::seed_from_u64(0xFACE);
    for _ in 0..12 {
        let a: f64 = rng.gen_range(-3.0..3.0);
        let c: f64 = rng.gen_range(-50.0..50.0);
        let r = db.exist_line("r", a, c).unwrap();
        assert_eq!(r.ids(), oracle(&pairs, a, c, SelectionKind::Exist));
        let r = db.all_line("r", a, c).unwrap();
        assert_eq!(r.ids(), oracle(&pairs, a, c, SelectionKind::All));
    }
    // A degenerate segment lying on a line is ALL-selected exactly by it.
    let id = db
        .insert(
            "r",
            parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap(),
        )
        .unwrap();
    let r = db.all_line("r", 0.5, 2.0).unwrap();
    assert_eq!(r.ids(), &[id]);
}
