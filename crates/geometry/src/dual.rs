//! The point/hyperplane dual transform and the `TOP_P`/`BOT_P` surfaces
//! (Section 2.1 of the paper).
//!
//! For a non-vertical hyperplane `H: x_d = b1*x1 + … + b_{d-1}*x_{d-1} + b_d`
//! the dual point is `D(H) = (b1, …, b_d)`; for a point `p = (p1, …, p_d)`
//! the dual hyperplane is `D(p): x_d = −p1*x1 − … − p_{d-1}*x_{d-1} + p_d`.
//! The transform reverses the above/below relation: `p` lies above `H` iff
//! `D(H)` lies below `D(p)`.
//!
//! For a polyhedron `P` and a slope `b = (b1, …, b_{d-1})`:
//!
//! * `TOP_P(b)` — the maximum intercept `b_d` such that the hyperplane of
//!   slope `b` and intercept `b_d` still intersects `P`;
//! * `BOT_P(b)` — the minimum such intercept.
//!
//! Equivalently `TOP_P(b) = sup {x_d − b·x' : x ∈ P}` (and `BOT` the `inf`),
//! which is how this module evaluates them — as linear programs — so that
//! *unbounded* polyhedra yield `±∞` with no special casing, in any
//! dimension. `TOP_P` is convex and `BOT_P` concave in the slope; therefore
//! their extrema over a slope segment are attained at the segment
//! endpoints, which is exactly what the T2 handicap computation needs.
//!
//! These LP evaluators compute the index keys and handicaps, and they are
//! the reference for the refinement step. Refinement itself reads 2-D
//! surfaces off the tuple's vertices ([`crate::envelope`]) and comes back
//! here only for shapes that kernel cannot decide.

use crate::halfplane::HalfPlane;
use crate::simplex::LpResult;
use crate::tuple::GeneralizedTuple;

/// A surface value: finite, `+∞` (upward-unbounded) or `−∞`.
pub type DualValue = f64;

/// Which of the two dual surfaces of a polyhedron.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Surface {
    /// `TOP_P`: maximum intercept (upper hull in the dual).
    Top,
    /// `BOT_P`: minimum intercept (lower hull in the dual).
    Bot,
}

/// Builds the LP objective `x_d − b·x'` for a slope `b` in dimension `d`.
fn intercept_objective(dim: usize, slope: &[f64]) -> Vec<f64> {
    assert_eq!(
        slope.len() + 1,
        dim,
        "slope has {} coefficients but the space has dimension {}",
        slope.len(),
        dim
    );
    let mut obj: Vec<f64> = slope.iter().map(|b| -b).collect();
    obj.push(1.0);
    obj
}

/// Evaluates `TOP_P(slope)` for the tuple's extension `P`.
///
/// Returns `None` if `P` is empty, `Some(+∞)` if hyperplanes of this slope
/// intersect `P` at arbitrarily large intercepts, and the finite maximum
/// intercept otherwise.
///
/// ```
/// use cdb_geometry::{dual, parse::parse_tuple};
///
/// let square = parse_tuple("x >= 1 && x <= 3 && y >= 1 && y <= 4").unwrap();
/// // Lines y = 0·x + b touch the square up to b = 4 ...
/// assert_eq!(dual::top(&square, &[0.0]), Some(4.0));
/// // ... and down to b = 1.
/// assert_eq!(dual::bot(&square, &[0.0]), Some(1.0));
/// // An upward-unbounded region has infinite TOP at every slope.
/// let wedge = parse_tuple("y >= x").unwrap();
/// assert_eq!(dual::top(&wedge, &[0.5]), Some(f64::INFINITY));
/// ```
pub fn top(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    let obj = intercept_objective(tuple.dim(), slope);
    match tuple.maximize(&obj) {
        LpResult::Infeasible => None,
        LpResult::Unbounded => Some(f64::INFINITY),
        LpResult::Optimal { value, .. } => Some(value),
    }
}

/// Evaluates `BOT_P(slope)`; `Some(−∞)` for downward-unbounded `P`.
pub fn bot(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    let obj = intercept_objective(tuple.dim(), slope);
    match tuple.minimize(&obj) {
        LpResult::Infeasible => None,
        LpResult::Unbounded => Some(f64::NEG_INFINITY),
        LpResult::Optimal { value, .. } => Some(value),
    }
}

/// Evaluates one of the two surfaces.
pub fn surface(tuple: &GeneralizedTuple, which: Surface, slope: &[f64]) -> Option<DualValue> {
    match which {
        Surface::Top => top(tuple, slope),
        Surface::Bot => bot(tuple, slope),
    }
}

/// Maximum of `TOP_P` over the slope segment `[s1, s2]`.
///
/// `TOP_P` is convex along any segment in slope space, so the maximum is
/// `max(TOP(s1), TOP(s2))`. Returns `None` for an empty extension.
pub fn max_top_on_segment(tuple: &GeneralizedTuple, s1: &[f64], s2: &[f64]) -> Option<DualValue> {
    Some(top(tuple, s1)?.max(top(tuple, s2)?))
}

/// Minimum of `BOT_P` over the slope segment `[s1, s2]` (concavity ⇒
/// endpoint minimum). Returns `None` for an empty extension.
pub fn min_bot_on_segment(tuple: &GeneralizedTuple, s1: &[f64], s2: &[f64]) -> Option<DualValue> {
    Some(bot(tuple, s1)?.min(bot(tuple, s2)?))
}

/// The dual point `D(H)` of a non-vertical hyperplane given in solved form
/// (the boundary of `hp`): `(b1, …, b_{d-1}, b_d)`.
pub fn dual_point_of(hp: &HalfPlane) -> Vec<f64> {
    let mut p = hp.slope.clone();
    p.push(hp.intercept);
    p
}

/// The dual hyperplane `D(p)` of a point, in solved form:
/// `x_d = −p1*x1 − … − p_{d-1}*x_{d-1} + p_d`, returned as slope/intercept.
pub fn dual_hyperplane_of(point: &[f64]) -> (Vec<f64>, f64) {
    assert!(!point.is_empty());
    let d = point.len();
    let slope: Vec<f64> = point[..d - 1].iter().map(|p| -p).collect();
    (slope, point[d - 1])
}

/// Position of a point relative to a non-vertical hyperplane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Position {
    /// Point strictly above the hyperplane.
    Above,
    /// Point on the hyperplane.
    On,
    /// Point strictly below.
    Below,
}

/// Classifies `point` against the hyperplane `x_d = slope·x' + intercept`.
pub fn classify(point: &[f64], slope: &[f64], intercept: f64) -> Position {
    assert_eq!(point.len(), slope.len() + 1, "dimension mismatch");
    let f: f64 = slope.iter().zip(point).map(|(b, x)| b * x).sum::<f64>() + intercept;
    let xd = point[point.len() - 1];
    if crate::scalar::approx_eq(xd, f) {
        Position::On
    } else if xd > f {
        Position::Above
    } else {
        Position::Below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{LinearConstraint, RelOp};

    /// The hexagon-ish polygon of the paper's Figure 2 is not given
    /// numerically; use a square with vertices (1,1),(3,1),(3,4),(1,4).
    fn rect_1134() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -1.0, RelOp::Ge), // x >= 1
            LinearConstraint::new2d(-1.0, 0.0, 3.0, RelOp::Ge), // x <= 3
            LinearConstraint::new2d(0.0, 1.0, -1.0, RelOp::Ge), // y >= 1
            LinearConstraint::new2d(0.0, -1.0, 4.0, RelOp::Ge), // y <= 4
        ])
    }

    #[test]
    fn top_bot_of_rectangle() {
        let t = rect_1134();
        // Slope 0: TOP = max y = 4, BOT = min y = 1.
        assert!((top(&t, &[0.0]).unwrap() - 4.0).abs() < 1e-7);
        assert!((bot(&t, &[0.0]).unwrap() - 1.0).abs() < 1e-7);
        // Slope 1: TOP = max(y - x) at (1,4) = 3; BOT = min(y - x) at (3,1) = -2.
        assert!((top(&t, &[1.0]).unwrap() - 3.0).abs() < 1e-7);
        assert!((bot(&t, &[1.0]).unwrap() + 2.0).abs() < 1e-7);
        // Slope -1: TOP = max(y + x) at (3,4) = 7; BOT at (1,1) = 2.
        assert!((top(&t, &[-1.0]).unwrap() - 7.0).abs() < 1e-7);
        assert!((bot(&t, &[-1.0]).unwrap() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn top_ge_bot_everywhere() {
        // Proposition 2.1.
        let t = rect_1134();
        for a in [-3.0, -0.5, 0.0, 0.7, 2.0, 10.0] {
            assert!(top(&t, &[a]).unwrap() >= bot(&t, &[a]).unwrap());
        }
    }

    #[test]
    fn unbounded_gives_infinities() {
        // x <= 2 && y >= 3: unbounded up and to the left.
        let t = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -2.0, RelOp::Le),
            LinearConstraint::new2d(0.0, 1.0, -3.0, RelOp::Ge),
        ]);
        // Any slope: y - a x unbounded above (y free upward).
        assert_eq!(top(&t, &[0.5]).unwrap(), f64::INFINITY);
        // Slope 0: BOT = min y = 3 (finite!).
        assert!((bot(&t, &[0.0]).unwrap() - 3.0).abs() < 1e-7);
        // Positive slope: y - a x with x -> -inf makes it +inf; min is still 3 - a*2?
        // min(y - 0.5x) subject to x <= 2, y >= 3: at x = 2, y = 3 -> 2.
        assert!((bot(&t, &[0.5]).unwrap() - 2.0).abs() < 1e-7);
        // Negative slope: y + 0.5x, x -> -inf => -inf.
        assert_eq!(bot(&t, &[-0.5]).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn empty_extension_yields_none() {
        let empty = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, 0.0, 1.0, RelOp::Le),
        ]);
        assert!(top(&empty, &[0.0]).is_none());
        assert!(bot(&empty, &[0.0]).is_none());
    }

    #[test]
    fn segment_extrema_match_dense_sampling() {
        let t = rect_1134();
        let (a1, a2) = (-1.5, 2.5);
        let max_top = max_top_on_segment(&t, &[a1], &[a2]).unwrap();
        let min_bot = min_bot_on_segment(&t, &[a1], &[a2]).unwrap();
        let mut sampled_max = f64::NEG_INFINITY;
        let mut sampled_min = f64::INFINITY;
        for i in 0..=100 {
            let a = a1 + (a2 - a1) * (i as f64) / 100.0;
            sampled_max = sampled_max.max(top(&t, &[a]).unwrap());
            sampled_min = sampled_min.min(bot(&t, &[a]).unwrap());
        }
        assert!(max_top >= sampled_max - 1e-7);
        assert!(
            (max_top - sampled_max).abs() < 1e-6,
            "convexity endpoint max"
        );
        assert!(min_bot <= sampled_min + 1e-7);
        assert!(
            (min_bot - sampled_min).abs() < 1e-6,
            "concavity endpoint min"
        );
    }

    #[test]
    fn duality_reverses_above_below() {
        // Key property: p above H  iff  D(H) below D(p).
        let h = HalfPlane::above(2.0, -1.0); // boundary y = 2x - 1
        let dh = dual_point_of(&h);
        for p in [[0.0, 3.0], [1.0, 1.0], [2.0, 0.0], [-1.0, -3.0]] {
            let pos_primal = classify(&p, &h.slope, h.intercept);
            let (ds, di) = dual_hyperplane_of(&p);
            let pos_dual = classify(&dh, &ds, di);
            let expected = match pos_primal {
                Position::Above => Position::Below,
                Position::On => Position::On,
                Position::Below => Position::Above,
            };
            assert_eq!(pos_dual, expected, "point {p:?}");
        }
    }

    #[test]
    fn example_2_1_of_the_paper_shape() {
        // Recreate the spirit of Example 2.1 with the rectangle:
        // q2 ≡ y >= TOP(0) touches the polygon from above: EXIST holds with equality.
        let t = rect_1134();
        let top0 = top(&t, &[0.0]).unwrap();
        assert!((top0 - 4.0).abs() < 1e-9);
        // A line with slope 1 passing between BOT(1) and TOP(1) cuts the polygon.
        let (b_lo, b_hi) = (bot(&t, &[1.0]).unwrap(), top(&t, &[1.0]).unwrap());
        assert!(b_lo < 0.0 && 0.0 < b_hi);
    }

    #[test]
    fn three_dimensional_surfaces() {
        // Unit cube in 3-D.
        let mut cs = Vec::new();
        for i in 0..3 {
            let mut lo = vec![0.0; 3];
            lo[i] = 1.0;
            cs.push(LinearConstraint::new(lo.clone(), 0.0, RelOp::Ge)); // xi >= 0
            cs.push(LinearConstraint::new(lo, -1.0, RelOp::Le)); // xi <= 1
        }
        let cube = GeneralizedTuple::new(cs);
        // TOP at slope (1, 1): max(z - x - y) = 1 at (0,0,1).
        assert!((top(&cube, &[1.0, 1.0]).unwrap() - 1.0).abs() < 1e-7);
        // BOT at slope (1, 1): min(z - x - y) = -2 at (1,1,0).
        assert!((bot(&cube, &[1.0, 1.0]).unwrap() + 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic]
    fn slope_dimension_mismatch_panics() {
        let t = rect_1134();
        let _ = top(&t, &[0.0, 1.0]);
    }
}
