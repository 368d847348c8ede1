//! `TOP_P`/`BOT_P` of 2-D tuples read off their vertices: the refinement
//! kernel.
//!
//! In the plane, `TOP_P(a)` is the upper envelope, at `a`, of the dual
//! lines of `P`'s vertices (Section 2.1 of the paper): the maximum of
//! `v_y − a·v_x` over the vertices `v`, or `+∞` when a recession ray of `P`
//! climbs faster than slope `a`. `BOT_P(a)` is the lower envelope, with
//! `−∞` for a descending ray. [`extent`] evaluates both straight from the
//! constraints, with no allocation: it clips each boundary line by the
//! other constraints. The finite ends of what survives are the vertices,
//! and an infinite end is an unbounded edge, whose direction is a recession
//! ray.
//!
//! The kernel covers pointed extensions: those with at least one vertex,
//! which is every bounded tuple. Whatever it cannot decide it leaves to the
//! LP of [`crate::dual`], which stays the reference evaluator:
//!
//! * extensions with no vertex: empty ones, half-planes, strips, lines and
//!   the whole plane;
//! * trivial constraints, `d ≠ 2`, and more than 16 constraints (the
//!   size of the kernel's stack array);
//! * ill-conditioned input: two boundaries, or a boundary and the query
//!   line, that are neither clearly parallel nor clearly apart.
//!
//! [`top`] and [`bot`] combine the two and return what
//! [`dual::top`]/[`dual::bot`] return, up to rounding.

use std::cmp::Ordering;

use crate::constraint::RelOp;
use crate::dual::{self, DualValue};
use crate::scalar::{approx_zero, EPS};
use crate::tuple::GeneralizedTuple;

/// The most constraints the kernel reads into its stack array; larger
/// tuples go to the LP.
const MAX_CONSTRAINTS: usize = 16;

/// Relative size below which a 2×2 cross product is rounding noise, so its
/// two directions count as parallel.
const PARALLEL: f64 = 64.0 * f64::EPSILON;

/// `(BOT_P(a), TOP_P(a))` of a 2-D tuple, from its vertices and recession
/// rays; `None` when the kernel cannot decide (see the module docs).
///
/// ```
/// use cdb_geometry::{envelope, parse::parse_tuple};
///
/// let square = parse_tuple("x >= 1 && x <= 3 && y >= 1 && y <= 4").unwrap();
/// assert_eq!(envelope::extent(&square, 0.0), Some((1.0, 4.0)));
/// // A wedge open upwards: TOP is +∞, BOT stays at the apex.
/// let wedge = parse_tuple("y >= x && y >= 0").unwrap();
/// assert_eq!(envelope::extent(&wedge, 0.5), Some((0.0, f64::INFINITY)));
/// // A half-plane has no vertex: the kernel defers to the LP.
/// assert_eq!(envelope::extent(&parse_tuple("y >= x").unwrap(), 0.5), None);
/// ```
pub fn extent(tuple: &GeneralizedTuple, a: f64) -> Option<(DualValue, DualValue)> {
    let cs = tuple.constraints();
    if tuple.dim() != 2 || cs.len() > MAX_CONSTRAINTS || !a.is_finite() {
        return None;
    }
    // Every constraint as `n·x ≤ b`, with the 1-norm of `n`.
    let mut buf = [Row::default(); MAX_CONSTRAINTS];
    for (row, c) in buf.iter_mut().zip(cs) {
        let n = [c.coeffs[0], c.coeffs[1]];
        if approx_zero(n[0]) && approx_zero(n[1]) {
            return None;
        }
        let (n, b) = match c.op {
            RelOp::Le => (n, -c.constant),
            RelOp::Ge => ([-n[0], -n[1]], c.constant),
        };
        *row = Row {
            n,
            b,
            norm: n[0].abs() + n[1].abs(),
        };
    }
    let rows = &buf[..cs.len()];

    // Clip each boundary line by the other constraints. The finite ends of
    // the surviving intervals are the vertices; an infinite end is an
    // unbounded edge, whose direction is a recession ray. A pointed
    // extension's extreme rays all run along such edges.
    let (mut bot, mut top) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut pointed = false;
    for (i, ri) in rows.iter().enumerate() {
        let p = ri.foot();
        let (lo, hi) = clip(rows, i, p)?;
        if lo > hi {
            continue; // the boundary misses the extension
        }
        // Along the boundary `p + t·r`, the objective `y − a·x` is `f0 + g·t`.
        let (f0, g) = (p[1] - a * p[0], ri.n[0] + a * ri.n[1]);
        for (t, dir) in [(hi, 1.0), (lo, -1.0)] {
            if t.is_finite() {
                let f = f0 + g * t;
                if !f.is_finite() {
                    return None;
                }
                pointed = true;
                bot = bot.min(f);
                top = top.max(f);
            } else {
                match sign(dir * g, (1.0 + a.abs()) * ri.norm)? {
                    Ordering::Greater => top = f64::INFINITY,
                    Ordering::Less => bot = f64::NEG_INFINITY,
                    Ordering::Equal => {} // parallel to the query lines
                }
            }
        }
    }
    // No vertex: the extension is empty or not pointed.
    pointed.then_some((bot, top))
}

/// The interval `[lo, hi]` of the points `p + t·r` on boundary `i` (`p` a
/// point on it, `r = (−n_y, n_x)` its direction) that satisfy every
/// constraint: `lo > hi` when there are none, and `None` when two
/// boundaries are neither clearly parallel nor clearly apart.
fn clip(rows: &[Row], i: usize, p: [f64; 2]) -> Option<(f64, f64)> {
    const MISSES: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);
    let ri = &rows[i];
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for (j, rj) in rows.iter().enumerate() {
        if j == i {
            continue;
        }
        // `n_j·(p + t·r) ≤ b_j` is `t·d ≤ s`, with `d = n_j·r`.
        let d = cross(ri.n, rj.n);
        let (q0, q1) = (rj.n[0] * p[0], rj.n[1] * p[1]);
        let s = rj.b - (q0 + q1);
        match sign(d, ri.norm * rj.norm)? {
            Ordering::Equal if s < -EPS * (1.0 + q0.abs() + q1.abs() + rj.b.abs()) => {
                return Some(MISSES); // a parallel constraint excludes the line
            }
            Ordering::Equal => {}
            Ordering::Greater => hi = hi.min(s / d),
            Ordering::Less => lo = lo.max(s / d),
        }
    }
    if lo.is_nan() || hi.is_nan() || lo == f64::INFINITY || hi == f64::NEG_INFINITY {
        return None; // an overflowing bound
    }
    if lo > hi {
        // Rounding can cross the two ends of a single point; an interval
        // past that is empty. The tolerance is relative to the point's
        // distance from the origin, in units of `t`.
        let reach = p[0].abs() + p[1].abs() + lo.abs().max(hi.abs()) * ri.norm;
        if lo - hi > EPS * (1.0 + reach) / ri.norm {
            return Some(MISSES);
        }
        hi = lo;
    }
    Some((lo, hi))
}

/// One constraint `n·x ≤ b`, with `norm = |n|₁`.
#[derive(Clone, Copy, Default)]
struct Row {
    n: [f64; 2],
    b: f64,
    norm: f64,
}

impl Row {
    /// The point of the boundary `n·x = b` nearest the origin.
    #[inline]
    fn foot(&self) -> [f64; 2] {
        let k = self.b / (self.n[0] * self.n[0] + self.n[1] * self.n[1]);
        [self.n[0] * k, self.n[1] * k]
    }
}

/// `TOP_P(slope)`: the kernel where it decides, else the LP. Returns what
/// [`dual::top`] returns.
pub fn top(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    match kernel(tuple, slope) {
        Some((_, t)) => Some(t),
        None => dual::top(tuple, slope),
    }
}

/// `BOT_P(slope)`: the kernel where it decides, else the LP. Returns what
/// [`dual::bot`] returns.
pub fn bot(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    match kernel(tuple, slope) {
        Some((b, _)) => Some(b),
        None => dual::bot(tuple, slope),
    }
}

/// [`extent`] for a slope given as a vector; `None` unless it is 2-D.
fn kernel(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<(DualValue, DualValue)> {
    match *slope {
        [a] => extent(tuple, a),
        _ => None,
    }
}

/// `u × v`, the 2×2 determinant `|u v|`.
#[inline]
fn cross(u: [f64; 2], v: [f64; 2]) -> f64 {
    u[0] * v[1] - u[1] * v[0]
}

/// The sign of a cross product whose operands' norms multiply to `scale`:
/// `Equal` when it is rounding noise (parallel directions), `None` when it
/// is too small to trust but too large to be noise.
#[inline]
fn sign(x: f64, scale: f64) -> Option<Ordering> {
    if x.abs() <= PARALLEL * scale {
        Some(Ordering::Equal)
    } else if x.abs() <= EPS * scale {
        None
    } else {
        x.partial_cmp(&0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tuple;

    fn t(s: &str) -> GeneralizedTuple {
        parse_tuple(s).unwrap()
    }

    #[test]
    fn rectangle_extent_matches_corners() {
        let r = t("x >= 1 && x <= 3 && y >= 1 && y <= 4");
        // Slope 1: TOP at (1,4) = 3, BOT at (3,1) = -2.
        assert_eq!(extent(&r, 1.0), Some((-2.0, 3.0)));
        // Slope -1: TOP at (3,4) = 7, BOT at (1,1) = 2.
        assert_eq!(extent(&r, -1.0), Some((2.0, 7.0)));
    }

    #[test]
    fn unbounded_pointed_regions_give_infinities() {
        // x <= 2 && y >= 3: vertex (2,3), rays (0,1) and (-1,0).
        let q = t("x <= 2 && y >= 3");
        assert_eq!(extent(&q, 0.0), Some((3.0, f64::INFINITY)));
        assert_eq!(extent(&q, 0.5), Some((2.0, f64::INFINITY)));
        assert_eq!(extent(&q, -0.5), Some((f64::NEG_INFINITY, f64::INFINITY)));
    }

    #[test]
    fn ray_parallel_to_the_query_keeps_the_value_finite() {
        // Strip y in [x, x + 1] from x = 10 on: its ray has slope 1.
        let s = t("y >= x && y <= x + 1 && x >= 10");
        assert_eq!(extent(&s, 1.0), Some((0.0, 1.0)));
        let (b, top) = extent(&s, 0.5).unwrap();
        assert_eq!((b, top), (5.0, f64::INFINITY));
        let (b, top) = extent(&s, 2.0).unwrap();
        assert_eq!((b, top), (f64::NEG_INFINITY, -9.0));
    }

    #[test]
    fn degenerate_pointed_regions() {
        let point = t("x = 1 && y = 2");
        assert_eq!(extent(&point, 3.0), Some((-1.0, -1.0)));
        let segment = t("y = 2 && x >= 0 && x <= 5");
        assert_eq!(extent(&segment, 1.0), Some((-3.0, 2.0)));
        let ray = t("y = 0 && x >= 0");
        assert_eq!(extent(&ray, -1.0), Some((0.0, f64::INFINITY)));
        assert_eq!(extent(&ray, 1.0), Some((f64::NEG_INFINITY, 0.0)));
        assert_eq!(extent(&ray, 0.0), Some((0.0, 0.0)));
    }

    #[test]
    fn undecided_shapes_defer() {
        for s in [
            "y >= x",                      // half-plane
            "y >= x && y <= x + 1",        // strip
            "y = 2x + 1",                  // line
            "x >= 0 && x <= -1 && y >= 0", // empty
            "y >= 0 && y <= -1 && x >= 0", // empty, parallel pair
        ] {
            assert_eq!(extent(&t(s), 0.3), None, "{s}");
        }
        assert_eq!(extent(&GeneralizedTuple::whole_space(2), 0.0), None);
        assert_eq!(extent(&t("x + y + z <= 1 && x >= 0"), 0.0), None);
    }

    #[test]
    fn ill_conditioned_pairs_defer() {
        // Boundaries 1e-11 apart in direction: neither parallel nor apart.
        let sliver = t("y >= 0 && y <= 0.00000000001x + 1 && x >= 0");
        assert_eq!(extent(&sliver, 0.0), None);
    }

    #[test]
    fn top_and_bot_fall_back_to_the_lp() {
        let strip = t("y >= x && y <= x + 1");
        assert_eq!(top(&strip, &[1.0]), dual::top(&strip, &[1.0]));
        assert_eq!(bot(&strip, &[0.5]), Some(f64::NEG_INFINITY));
        let empty = t("x >= 0 && x <= -1 && y >= 0");
        assert_eq!(top(&empty, &[0.0]), None);
        assert_eq!(bot(&empty, &[0.0]), None);
    }
}
