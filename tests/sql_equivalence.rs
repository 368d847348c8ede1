//! SQL ≡ typed ≡ oracle: the constraint-SQL surface must answer exactly
//! like the typed query path (`Strategy::Auto`), which must answer exactly
//! like the geometric predicate oracle — across EXIST and ALL, d = 2 and
//! d = 3, conjunctions, joins, projections and the wire protocol. Plus a
//! seeded fuzz pass over the parser: no panics, spans in bounds.

use std::collections::BTreeSet;

use cdb_prng::StdRng;
use constraint_db::geometry::predicates;
use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::sql;
use constraint_db::net::server::{Server, ServerConfig};
use constraint_db::net::Client;
use constraint_db::prelude::*;

/// Random axis-aligned boxes (same shape as the net round-trip workload).
fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut cs = Vec::new();
            for k in 0..dim {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; dim];
                a[k] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        })
        .collect()
}

/// Renders `coeffs·vars (op) rhs` in the shell's SQL grammar.
fn sql_comparison(coeffs: &[f64], rhs: f64, op: RelOp) -> String {
    let mut lhs = String::new();
    for (i, &c) in coeffs.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let v = sql::var_name(i);
        if lhs.is_empty() {
            lhs.push_str(&format!("{c}*{v}"));
        } else if c < 0.0 {
            lhs.push_str(&format!(" - {}*{v}", -c));
        } else {
            lhs.push_str(&format!(" + {c}*{v}"));
        }
    }
    assert!(!lhs.is_empty(), "degenerate all-zero comparison");
    let cmp = match op {
        RelOp::Le => "<=",
        RelOp::Ge => ">=",
    };
    format!("{lhs} {cmp} {rhs}")
}

fn kind_word(kind: SelectionKind) -> &'static str {
    match kind {
        SelectionKind::Exist => "EXIST",
        SelectionKind::All => "ALL",
    }
}

/// A random non-vertical comparison as (SQL text fragment, constraint).
fn random_comparison(rng: &mut StdRng, dim: usize) -> (String, LinearConstraint) {
    let mut coeffs: Vec<f64> = (0..dim)
        .map(|_| (rng.gen_range(-20i64..21) as f64) / 10.0)
        .collect();
    // Non-vertical: the last variable must participate.
    if coeffs[dim - 1] == 0.0 {
        coeffs[dim - 1] = 1.0;
    }
    let rhs = (rng.gen_range(-400i64..401) as f64) / 10.0;
    let op = if rng.gen_bool(0.5) {
        RelOp::Le
    } else {
        RelOp::Ge
    };
    let text = sql_comparison(&coeffs, rhs, op);
    // `coeffs·x op rhs` ⇔ `coeffs·x - rhs op 0`.
    (text, LinearConstraint::new(coeffs, -rhs, op))
}

fn sorted_single_ids(outcome: &SqlOutcome) -> Vec<u32> {
    let mut ids: Vec<u32> = outcome.rows.iter().map(|r| r.ids[0]).collect();
    ids.sort_unstable();
    ids
}

fn single_relation_db(dim: usize, n: usize, seed: u64) -> ConstraintDb {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", dim).unwrap();
    for t in random_boxes(dim, n, seed) {
        db.insert("r", t).unwrap();
    }
    if dim == 2 {
        db.build_dual_index("r", SlopeSet::uniform_tan(6)).unwrap();
    } else {
        db.build_dual_index_d("r", SlopePoints::grid(dim, 2, 1.0))
            .unwrap();
    }
    db
}

/// Single-comparison WHERE: SQL ids == typed `Strategy::Auto` ids ==
/// predicate-oracle ids, for both kinds and both dimensions.
#[test]
fn single_constraint_sql_matches_typed_and_oracle() {
    for (dim, n, seed) in [(2usize, 200usize, 0xC1u64), (3, 120, 0xC2)] {
        let db = single_relation_db(dim, n, seed);
        let tuples = db.scan_relation("r").unwrap();
        let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
        for round in 0..24 {
            let (text, c) = random_comparison(&mut rng, dim);
            let kind = if round % 2 == 0 {
                SelectionKind::Exist
            } else {
                SelectionKind::All
            };
            let hp = HalfPlane::from_constraint(&c).expect("non-vertical by construction");
            let sel = Selection {
                kind,
                halfplane: hp.clone(),
            };
            let typed = db.query_with("r", sel, Strategy::Auto).unwrap();
            let stmt = format!("SELECT * FROM r WHERE {text} {}", kind_word(kind));
            let got = db.sql(&stmt, SqlMode::Execute).unwrap();
            let oracle: Vec<u32> = tuples
                .iter()
                .filter(|(_, t)| match kind {
                    SelectionKind::Exist => predicates::lp::exist(&hp, t),
                    SelectionKind::All => predicates::lp::all(&hp, t),
                })
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(typed.ids(), oracle.as_slice(), "typed vs oracle: {stmt}");
            assert_eq!(sorted_single_ids(&got), oracle, "sql vs oracle: {stmt}");
        }
    }
}

/// Conjunctions (including vertical constraints the index cannot serve):
/// EXIST is joint satisfiability of region ∧ WHERE, ALL distributes over
/// conjuncts. The oracle works directly on the scanned regions.
#[test]
fn conjunction_where_matches_lp_oracle() {
    let db = single_relation_db(2, 150, 0xD1);
    let tuples = db.scan_relation("r").unwrap();
    let mut rng = StdRng::seed_from_u64(0xD2);
    for round in 0..16 {
        let (t1, c1) = random_comparison(&mut rng, 2);
        let (t2, c2) = random_comparison(&mut rng, 2);
        // Every third round adds a vertical conjunct (x-only), which no
        // half-plane index can serve — it must still be answered exactly.
        let vertical = round % 3 == 0;
        let (t3, c3) = if vertical {
            let rhs = (rng.gen_range(-300i64..301) as f64) / 10.0;
            (
                sql_comparison(&[1.0], rhs, RelOp::Le),
                LinearConstraint::new(vec![1.0], -rhs, RelOp::Le),
            )
        } else {
            random_comparison(&mut rng, 2)
        };
        let kind = if round % 2 == 0 {
            SelectionKind::Exist
        } else {
            SelectionKind::All
        };
        let stmt = format!(
            "SELECT * FROM r WHERE {t1} AND {t2} AND {t3} {}",
            kind_word(kind)
        );
        let got = db.sql(&stmt, SqlMode::Execute).unwrap();
        let conjuncts = [&c1, &c2, &c3];
        let oracle: Vec<u32> = tuples
            .iter()
            .filter(|(_, t)| match kind {
                SelectionKind::Exist => {
                    let mut sys = t.constraints().to_vec();
                    for c in conjuncts {
                        let mut coeffs = c.coeffs.clone();
                        coeffs.resize(2, 0.0);
                        sys.push(LinearConstraint::new(coeffs, c.constant, c.op));
                    }
                    GeneralizedTuple::new(sys).is_satisfiable()
                }
                SelectionKind::All => conjuncts.iter().all(|c| {
                    let mut coeffs = c.coeffs.clone();
                    coeffs.resize(2, 0.0);
                    let lifted = LinearConstraint::new(coeffs, c.constant, c.op);
                    match HalfPlane::from_constraint(&lifted) {
                        Some(hp) => predicates::lp::all(&hp, t),
                        // Vertical ALL: bound the support function.
                        None => {
                            use constraint_db::geometry::simplex::LpResult;
                            match lifted.op {
                                RelOp::Le => match t.maximize(&lifted.coeffs) {
                                    LpResult::Optimal { value, .. } => {
                                        value + lifted.constant <= 1e-9
                                    }
                                    LpResult::Unbounded => false,
                                    LpResult::Infeasible => true,
                                },
                                RelOp::Ge => match t.minimize(&lifted.coeffs) {
                                    LpResult::Optimal { value, .. } => {
                                        value + lifted.constant >= -1e-9
                                    }
                                    LpResult::Unbounded => false,
                                    LpResult::Infeasible => true,
                                },
                            }
                        }
                    }
                }),
            })
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(sorted_single_ids(&got), oracle, "{stmt}");
    }
}

/// Joins are conjunctions over the shared variable space: the oracle is a
/// nested loop over the cartesian product testing joint satisfiability.
#[test]
fn joins_match_cartesian_oracle() {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 25, 0xE1) {
        db.insert("r", t).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    db.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xE2) {
        db.insert("s", t).unwrap();
    }
    let rt = db.scan_relation("r").unwrap();
    let st = db.scan_relation("s").unwrap();

    let mut rng = StdRng::seed_from_u64(0xE3);
    for round in 0..8 {
        let (text, c) = random_comparison(&mut rng, 2);
        let kind = if round % 4 == 3 {
            SelectionKind::All
        } else {
            SelectionKind::Exist
        };
        let stmt = format!("SELECT * FROM r JOIN s WHERE {text} {}", kind_word(kind));
        let got = db.sql(&stmt, SqlMode::Execute).unwrap();
        let got_pairs: BTreeSet<(u32, u32)> = got
            .rows
            .iter()
            .map(|row| (row.ids[0], row.ids[1]))
            .collect();
        let hp = HalfPlane::from_constraint(&c).unwrap();
        let mut want = BTreeSet::new();
        for (rid, rtup) in &rt {
            for (sid, stup) in &st {
                let mut sys = rtup.constraints().to_vec();
                sys.extend(stup.constraints().iter().cloned());
                let joined = GeneralizedTuple::new(sys);
                if !joined.is_satisfiable() {
                    continue;
                }
                let keep = match kind {
                    SelectionKind::Exist => predicates::lp::exist(&hp, &joined),
                    SelectionKind::All => predicates::lp::all(&hp, &joined),
                };
                if keep {
                    want.insert((*rid, *sid));
                }
            }
        }
        assert_eq!(got_pairs, want, "{stmt}");
    }
}

/// `SELECT <vars>` projects by Fourier–Motzkin elimination; each returned
/// region must be the exact shadow of the stored tuple (checked by point
/// membership on a grid, both directions).
#[test]
fn projection_regions_are_exact_shadows() {
    let db = single_relation_db(2, 40, 0xF1);
    let got = db
        .sql("SELECT x FROM r WHERE y >= -100 EXIST", SqlMode::Execute)
        .unwrap();
    assert_eq!(got.columns, vec!["id(r)".to_string(), "region(x)".into()]);
    assert_eq!(got.rows.len(), 40);
    for row in &got.rows {
        let region = row.region.as_ref().expect("projection keeps regions");
        assert_eq!(region.dim(), 1);
        let full = db.fetch_tuple("r", row.ids[0]).unwrap();
        for step in -110..=110 {
            let x = step as f64 / 2.0;
            let in_shadow = region.contains(&[x]);
            // x is in the shadow iff the line {x} × ℝ meets the tuple.
            let mut sys = full.constraints().to_vec();
            sys.push(LinearConstraint::new(vec![1.0, 0.0], -x, RelOp::Le));
            sys.push(LinearConstraint::new(vec![1.0, 0.0], -x, RelOp::Ge));
            let meets = GeneralizedTuple::new(sys).is_satisfiable();
            assert_eq!(in_shadow, meets, "tuple {} at x={x}", row.ids[0]);
        }
    }
}

/// LIMIT caps the row count without changing which rows are legal.
#[test]
fn limit_caps_rows() {
    let db = single_relation_db(2, 30, 0xF2);
    let all = db
        .sql("SELECT * FROM r WHERE y >= -100 EXIST", SqlMode::Execute)
        .unwrap();
    assert_eq!(all.rows.len(), 30);
    let capped = db
        .sql(
            "SELECT * FROM r WHERE y >= -100 EXIST LIMIT 7",
            SqlMode::Execute,
        )
        .unwrap();
    assert_eq!(capped.rows.len(), 7);
    let full: BTreeSet<u32> = all.rows.iter().map(|r| r.ids[0]).collect();
    assert!(capped.rows.iter().all(|r| full.contains(&r.ids[0])));
}

/// Unsatisfiable WHERE clauses short-circuit to an Empty plan.
#[test]
fn unsatisfiable_where_returns_empty_plan() {
    let db = single_relation_db(2, 10, 0xF3);
    let o = db
        .sql(
            "SELECT * FROM r WHERE y >= 10 AND y <= 0 EXIST",
            SqlMode::Execute,
        )
        .unwrap();
    assert!(o.rows.is_empty());
    let e = db
        .sql(
            "SELECT * FROM r WHERE y >= 10 AND y <= 0 EXIST",
            SqlMode::Explain,
        )
        .unwrap();
    assert!(e.plan.as_deref().unwrap_or("").contains("Empty"), "{e:?}");
}

/// Seeded fuzz over the parser: mutated statements must never panic, and
/// every error's span must stay inside the input.
#[test]
fn parser_fuzz_no_panics_spans_in_bounds() {
    let bases = [
        "SELECT * FROM r WHERE y >= 0.3x - 5 EXIST",
        "SELECT x, y FROM r JOIN s WHERE 2x + 3y <= 10 AND x >= 0 ALL LIMIT 5",
        "select x2 from rel where 1.5e2*x1 - x2 = 7;",
        "SELECT w FROM t WHERE x + y + z + w >= -1e-3 EXIST",
    ];
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyzXYZ0123456789 <>=!&|+-*,;.()\u{3bb}"
        .chars()
        .collect();
    for round in 0..600 {
        let base = bases[round % bases.len()];
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..rng.gen_range(1usize..6) {
            let i = rng.gen_range(0..chars.len());
            let c = alphabet[rng.gen_range(0..alphabet.len())];
            if rng.gen_bool(0.3) {
                chars.insert(i, c);
            } else if rng.gen_bool(0.3) && chars.len() > 1 {
                chars.remove(i);
            } else {
                chars[i] = c;
            }
        }
        let text: String = chars.into_iter().collect();
        match sql::parse(&text) {
            Ok(_) => {}
            Err(e) => {
                assert!(e.span.start <= e.span.end, "span order: {e} on {text:?}");
                assert!(
                    e.span.end <= text.len(),
                    "span out of bounds: {e} on {text:?}"
                );
            }
        }
    }
}

/// A join + projection SQL statement round-trips over the wire with
/// byte-identical rows, and the remote EXPLAIN plan equals the local one.
#[test]
fn sql_round_trips_over_the_wire() {
    let mut oracle = ConstraintDb::in_memory(DbConfig::paper_1999());
    oracle.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 30, 0xAB) {
        oracle.insert("r", t).unwrap();
    }
    oracle
        .build_dual_index("r", SlopeSet::uniform_tan(4))
        .unwrap();
    oracle.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xAC) {
        oracle.insert("s", t).unwrap();
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ConstraintDb::in_memory(DbConfig::paper_1999()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 30, 0xAB) {
        client.insert("r", t).unwrap();
    }
    client
        .build_dual("r", SlopeSet::uniform_tan(4).as_slice().to_vec())
        .unwrap();
    client.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xAC) {
        client.insert("s", t).unwrap();
    }

    let stmt = "SELECT x, y FROM r JOIN s WHERE y >= 0.25x - 2 EXIST";
    let local = oracle.sql(stmt, SqlMode::Execute).unwrap();
    let remote = client.sql(stmt, SqlMode::Execute).unwrap();
    assert!(!local.rows.is_empty(), "workload should produce matches");
    assert_eq!(remote.columns, local.columns);
    assert_eq!(remote.rows, local.rows);

    // EXPLAIN (no execution) is deterministic: identical plan text on
    // both sides, through the one shared pretty-printer.
    let local_plan = oracle.sql(stmt, SqlMode::Explain).unwrap().plan.unwrap();
    let remote_plan = client.sql(stmt, SqlMode::Explain).unwrap().plan.unwrap();
    assert_eq!(remote_plan, local_plan);
    assert!(local_plan.contains("NestedLoopJoin"), "{local_plan}");
    assert!(local_plan.contains("Project"), "{local_plan}");

    // EXPLAIN ANALYZE carries per-node estimates and observed rows/time.
    let analyzed = client.sql(stmt, SqlMode::ExplainAnalyze).unwrap();
    let plan = analyzed.plan.unwrap();
    assert!(plan.contains("estimate:"), "{plan}");
    assert!(plan.contains("rows"), "{plan}");
    assert!(plan.contains("time:"), "{plan}");

    // Bad SQL surfaces as a structured error, not a dropped session.
    let err = client.sql("SELECT * FROM nope WHERE x <= 1 EXIST", SqlMode::Execute);
    assert!(err.is_err());
    client.ping().unwrap();

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}
