//! The vertex kernel (`envelope`) and the predicates built on it, pinned to
//! the pure-LP evaluators (`dual::top/bot`, `predicates::lp::*`) over
//! seeded random shapes: generated workload tuples, every non-pointed and
//! degenerate shape, empty tuples, near-vertical edges, near-parallel
//! boundaries, query slopes equal to an edge slope, and intercepts exactly
//! at `TOP`/`BOT`.

use cdb_geometry::constraint::{LinearConstraint, RelOp};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{dual, envelope, predicates, HalfPlane, Polygon, Rect};
use cdb_prng::StdRng;
use cdb_workload::{ObjectSize, TupleGen};

/// `y θ a·x + b` as a constraint, with its coefficients scaled by `k > 0`
/// so that parallel boundaries are not bit-for-bit identical.
fn line(a: f64, b: f64, op: RelOp, k: f64) -> LinearConstraint {
    let c = HalfPlane::new2d(a, b, op).to_constraint();
    LinearConstraint::new(
        c.coeffs.iter().map(|x| x * k).collect(),
        c.constant * k,
        c.op,
    )
}

/// `x θ c`, scaled by `k > 0`.
fn vertical(c: f64, op: RelOp, k: f64) -> LinearConstraint {
    LinearConstraint::new2d(k, 0.0, -c * k, op)
}

fn tuple(cs: Vec<LinearConstraint>) -> GeneralizedTuple {
    GeneralizedTuple::new(cs)
}

/// Equal surface values: both absent, the same infinity, or finite and
/// equal to `1e-9` relative to `max(1, |x|, |y|, reach)`.
///
/// `reach` is how far from the origin the tuple's boundaries lie. The LP
/// pivots on the raw constants, so its rounding grows with them; the kernel
/// intersects lines directly and is at least as accurate.
fn same(x: Option<f64>, y: Option<f64>, reach: f64) -> bool {
    match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) if x.is_infinite() || y.is_infinite() => x == y,
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * reach.max(1.0).max(x.abs()).max(y.abs()),
        _ => false,
    }
}

/// The largest distance from the origin to a boundary line of the tuple.
fn reach(t: &GeneralizedTuple) -> f64 {
    t.constraints()
        .iter()
        .filter(|c| !c.is_trivial())
        .map(|c| c.constant.abs() / c.coeffs[0].hypot(c.coeffs[1]))
        .fold(0.0, f64::max)
}

/// The slopes of the tuple's non-vertical boundaries.
fn edge_slopes(t: &GeneralizedTuple) -> Vec<f64> {
    t.constraints()
        .iter()
        .filter(|c| c.coeffs[1] != 0.0)
        .map(|c| -c.coeffs[0] / c.coeffs[1])
        .collect()
}

/// What the checks saw.
#[derive(Default)]
struct Tally {
    /// Surface evaluations compared.
    evaluations: usize,
    /// Evaluations the kernel decided without the LP.
    decided: usize,
    /// Evaluations where the LP's rounding exceeded the predicates'
    /// tolerance, so their boundary intercepts were not compared.
    ill_conditioned: usize,
}

/// Checks `envelope::{top, bot}` and all four predicates against the LP at
/// slope `a`, for random intercepts and for intercepts exactly at the LP's
/// `TOP`/`BOT`.
///
/// At an intercept on the boundary the predicates compare the two
/// evaluators' values under the workspace tolerance, so they are compared
/// there only when both values agree to that tolerance; `Tally` counts the
/// evaluations where they do not.
fn check(t: &GeneralizedTuple, a: f64, rng: &mut StdRng, tally: &mut Tally) {
    let ctx = || format!("tuple {t} at slope {a}");
    let (lp_top, lp_bot) = (dual::top(t, &[a]), dual::bot(t, &[a]));
    let (k_top, k_bot) = (envelope::top(t, &[a]), envelope::bot(t, &[a]));
    let r = reach(t);
    assert!(
        same(k_top, lp_top, r),
        "TOP {k_top:?} vs LP {lp_top:?}: {}",
        ctx()
    );
    assert!(
        same(k_bot, lp_bot, r),
        "BOT {k_bot:?} vs LP {lp_bot:?}: {}",
        ctx()
    );
    tally.evaluations += 1;
    if let Some((b, top)) = envelope::extent(t, a) {
        tally.decided += 1;
        assert_eq!((Some(b), Some(top)), (k_bot, k_top), "{}", ctx());
    }

    let scale = [lp_top, lp_bot]
        .into_iter()
        .flatten()
        .filter(|v| v.is_finite())
        .fold(10.0f64, |m, v| m.max(v.abs()));
    let mut intercepts: Vec<f64> = (0..6)
        .map(|_| rng.gen_range(-2.0 * scale..2.0 * scale))
        .collect();
    if same(k_top, lp_top, 0.0) && same(k_bot, lp_bot, 0.0) {
        intercepts.extend(
            [lp_top, lp_bot]
                .into_iter()
                .flatten()
                .filter(|v| v.is_finite()),
        );
    } else {
        tally.ill_conditioned += 1;
    }
    for c in intercepts {
        for q in [HalfPlane::above(a, c), HalfPlane::below(a, c)] {
            assert_eq!(
                predicates::all(&q, t),
                predicates::lp::all(&q, t),
                "ALL {q}: {}",
                ctx()
            );
            assert_eq!(
                predicates::exist(&q, t),
                predicates::lp::exist(&q, t),
                "EXIST {q}: {}",
                ctx()
            );
        }
        assert_eq!(
            predicates::exist_hyperplane(&[a], c, t),
            predicates::lp::exist_hyperplane(&[a], c, t),
            "EXIST line intercept {c}: {}",
            ctx()
        );
        assert_eq!(
            predicates::all_hyperplane(&[a], c, t),
            predicates::lp::all_hyperplane(&[a], c, t),
            "ALL line intercept {c}: {}",
            ctx()
        );
    }
}

/// Random slopes plus every edge slope of the tuple.
fn check_slopes(t: &GeneralizedTuple, rng: &mut StdRng, tally: &mut Tally) {
    let mut slopes: Vec<f64> = (0..4).map(|_| rng.gen_range(-5.0..5.0)).collect();
    slopes.push(0.0);
    slopes.extend(edge_slopes(t));
    for a in slopes {
        check(t, a, rng, tally);
    }
}

#[test]
fn workload_tuples_are_decided_by_the_kernel_and_match_the_lp() {
    let window = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut tally = Tally::default();
    for (seed, size) in [(1u64, ObjectSize::Small), (2, ObjectSize::Medium)] {
        let mut gen = TupleGen::new(seed, window, size);
        let mut rng = StdRng::seed_from_u64(0xE1 + seed);
        for _ in 0..300 {
            check_slopes(&gen.bounded_tuple(), &mut rng, &mut tally);
        }
    }
    // Every bounded tuple has a vertex: the LP is never consulted.
    assert_eq!(tally.decided, tally.evaluations);
    assert_eq!(tally.ill_conditioned, 0);
}

#[test]
fn unbounded_workload_tuples_match_the_lp() {
    let window = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut gen = TupleGen::new(3, window, ObjectSize::Small);
    let mut rng = StdRng::seed_from_u64(0xE3);
    let mut tally = Tally::default();
    for _ in 0..400 {
        check_slopes(&gen.unbounded_tuple(), &mut rng, &mut tally);
    }
    // Wedges are pointed and decided; half-planes and strips defer.
    assert!(tally.decided > 0 && tally.decided < tally.evaluations);
    assert_eq!(tally.ill_conditioned, 0);
}

#[test]
fn non_pointed_and_degenerate_shapes_match_the_lp() {
    let mut rng = StdRng::seed_from_u64(0xE4);
    let mut tally = Tally::default();
    for _ in 0..60 {
        let a = rng.gen_range(-4.0..4.0);
        let (b, w) = (rng.gen_range(-20.0..20.0), rng.gen_range(0.1..10.0));
        let (x0, x1) = (rng.gen_range(-20.0..0.0), rng.gen_range(0.0..20.0));
        let k = || 0.25 + 3.0 * ((a * 7.0 + b).sin().abs());
        let shapes = [
            // Half-plane, strip, line, whole plane: no vertex.
            vec![line(a, b, RelOp::Ge, 1.0)],
            vec![line(a, b, RelOp::Ge, 1.0), line(a, b + w, RelOp::Le, k())],
            vec![line(a, b, RelOp::Ge, k()), line(a, b, RelOp::Le, 1.0)],
            GeneralizedTuple::whole_space(2).constraints().to_vec(),
            // Point, segment and ray on the line y = a·x + b.
            vec![
                line(a, b, RelOp::Ge, 1.0),
                line(a, b, RelOp::Le, k()),
                vertical(x0, RelOp::Ge, 1.0),
                vertical(x0, RelOp::Le, k()),
            ],
            vec![
                line(a, b, RelOp::Ge, 1.0),
                line(a, b, RelOp::Le, k()),
                vertical(x0, RelOp::Ge, 1.0),
                vertical(x1, RelOp::Le, k()),
            ],
            vec![
                line(a, b, RelOp::Ge, k()),
                line(a, b, RelOp::Le, 1.0),
                vertical(x0, RelOp::Ge, 1.0),
            ],
            // A strip cut once: an unbounded edge on each side, parallel
            // to slope a.
            vec![
                line(a, b, RelOp::Ge, 1.0),
                line(a, b + w, RelOp::Le, k()),
                vertical(x0, RelOp::Ge, 1.0),
            ],
            // A wedge with one edge of slope a.
            vec![line(a, b, RelOp::Ge, k()), line(a + 1.0, b, RelOp::Ge, 1.0)],
        ];
        for cs in shapes {
            check_slopes(&tuple(cs), &mut rng, &mut tally);
        }
    }
    assert!(tally.decided > 0 && tally.decided < tally.evaluations);
    assert_eq!(tally.ill_conditioned, 0);
}

#[test]
fn unsatisfiable_tuples_are_empty_for_both() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    let mut tally = Tally::default();
    for _ in 0..60 {
        let a = rng.gen_range(-4.0..4.0);
        let b = rng.gen_range(-20.0..20.0);
        let gap = rng.gen_range(0.01..5.0);
        let x0 = rng.gen_range(-20.0..20.0);
        let empties = [
            // Parallel boundaries facing away from each other.
            vec![line(a, b, RelOp::Ge, 1.0), line(a, b - gap, RelOp::Le, 2.0)],
            // An empty box.
            vec![
                vertical(x0, RelOp::Ge, 1.0),
                vertical(x0 - gap, RelOp::Le, 1.0),
                line(0.0, b, RelOp::Ge, 1.0),
                line(0.0, b + gap, RelOp::Le, 1.0),
            ],
            // A triangle's complement cones: three cuts with no common
            // point.
            vec![
                line(a, b, RelOp::Le, 1.0),
                line(a + 1.0, b + gap, RelOp::Ge, 1.0),
                vertical(x0.abs() + gap, RelOp::Le, 1.0),
                vertical(x0.abs() + gap, RelOp::Ge, 1.0),
                line(a, b - gap, RelOp::Ge, 1.0),
            ],
            // A trivially false constraint beside a box.
            vec![
                LinearConstraint::new2d(0.0, 0.0, 1.0, RelOp::Le),
                vertical(x0, RelOp::Ge, 1.0),
                line(a, b, RelOp::Ge, 1.0),
            ],
        ];
        for cs in empties {
            let t = tuple(cs);
            assert!(!t.is_satisfiable(), "{t}");
            assert_eq!(envelope::top(&t, &[a]), None, "{t}");
            check_slopes(&t, &mut rng, &mut tally);
        }
    }
    assert_eq!(tally.decided, 0, "an empty tuple has no vertex");
    assert_eq!(tally.ill_conditioned, 0);
}

#[test]
fn near_vertical_edges_match_the_lp() {
    let mut rng = StdRng::seed_from_u64(0xE6);
    let mut tally = Tally::default();
    for i in 0..120 {
        // Side slope up to ±1e6, the other sides moderate.
        let s = 10f64.powf(rng.gen_range(2.0..6.0)) * if i % 2 == 0 { 1.0 } else { -1.0 };
        let (x0, y0) = (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
        let (w, h) = (rng.gen_range(0.5..50.0), rng.gen_range(0.5..50.0));
        // Parallelogram with two sides of slope s.
        let para = Polygon::bounded(vec![
            [x0, y0],
            [x0 + w, y0],
            [x0 + w + h / s, y0 + h],
            [x0 + h / s, y0 + h],
        ])
        .to_tuple();
        // The same sides, unbounded upward, written in solved form.
        let up = tuple(vec![
            line(s, y0 - s * x0, RelOp::Le, 1.0),
            line(s, y0 - s * (x0 + w), RelOp::Ge, 1.0),
            line(0.0, y0, RelOp::Ge, 1.0),
        ]);
        for t in [para, up] {
            let mut slopes = vec![s, -s, s * (1.0 + 1e-6), rng.gen_range(-3.0..3.0)];
            slopes.extend(edge_slopes(&t));
            for a in slopes {
                check(&t, a, &mut rng, &mut tally);
            }
        }
    }
    assert!(tally.decided > tally.evaluations / 2);
    // Slopes near 1e6 on constants near 1e8 cost the LP its last digits
    // now and then; the boundary intercepts still get compared nearly
    // everywhere.
    assert!(tally.ill_conditioned * 100 < tally.evaluations);
}

#[test]
fn near_parallel_boundaries_match_the_lp() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    let mut tally = Tally::default();
    for _ in 0..120 {
        // A long sliver between y >= a·x + b and y <= (a + δ)·x + b + 1,
        // with δ from clearly apart down to below the parallel tolerance.
        let a = rng.gen_range(-2.0..2.0);
        let b = rng.gen_range(-10.0..10.0);
        let delta = 10f64.powf(rng.gen_range(-12.0..-2.0));
        let x0 = rng.gen_range(-10.0..10.0);
        let sliver = tuple(vec![
            line(a, b, RelOp::Ge, 1.0),
            line(a + delta, b + 1.0, RelOp::Le, 1.5),
            vertical(x0, RelOp::Ge, 1.0),
        ]);
        let closed = tuple(vec![
            line(a, b, RelOp::Ge, 1.0),
            line(a + delta, b + 1.0, RelOp::Le, 1.5),
            vertical(x0, RelOp::Ge, 1.0),
            vertical(x0 + rng.gen_range(1.0..1e4), RelOp::Le, 1.0),
        ]);
        for t in [sliver, closed] {
            let slopes = [a, a + delta, a + delta / 2.0, rng.gen_range(-3.0..3.0)];
            for s in slopes {
                check(&t, s, &mut rng, &mut tally);
            }
        }
    }
    assert!(tally.decided > 0 && tally.decided < tally.evaluations);
    assert_eq!(tally.ill_conditioned, 0);
}
