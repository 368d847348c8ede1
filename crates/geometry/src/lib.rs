//! Exact geometry substrate for linear constraint databases.
//!
//! This crate implements every geometric notion used by the dual-representation
//! indexing techniques of Bertino, Catania and Chidlovskii (*Indexing Constraint
//! Databases by Using a Dual Representation*, ICDE 1999):
//!
//! * [`constraint::LinearConstraint`] — a single linear constraint
//!   `a1*x1 + ... + ad*xd + c θ 0` with `θ ∈ {≤, ≥}`;
//! * [`tuple::GeneralizedTuple`] — a conjunction of linear constraints, i.e. a
//!   (possibly unbounded, possibly empty) convex polyhedron in `E^d`;
//! * [`halfplane::HalfPlane`] — a non-vertical query half-plane
//!   `x_d θ b1*x1 + ... + b_{d-1}*x_{d-1} + b_d`;
//! * [`dual`] — the point/hyperplane dual transform and the `TOP_P`/`BOT_P`
//!   surfaces of Section 2.1, evaluated exactly through linear programming so
//!   that unbounded polyhedra (values `±∞`) need no special casing;
//! * [`envelope`] — the same surfaces of a 2-D tuple read off its vertices
//!   and recession rays, allocation-free, deferring to the LP only for
//!   shapes it cannot decide: the refinement kernel;
//! * [`simplex`] — a small, dependency-free two-phase simplex solver used as
//!   the exact evaluation engine;
//! * [`polygon`] — an explicit 2-D vertex/ray representation with half-plane
//!   intersection, used by workload generation, the R⁺-tree baseline and as an
//!   independent cross-check of the LP path;
//! * [`predicates`] — the exact `ALL`/`EXIST` selection predicates of
//!   Proposition 2.2, used as the refinement step; their pure-LP twins in
//!   [`predicates::lp`] are the test oracle;
//! * [`vertex_enum`] — brute-force vertex/ray enumeration in `E^d` for
//!   cross-validation of the LP evaluator;
//! * [`parse`] — a tiny text syntax for constraints and tuples used by the
//!   examples ("`y >= 2x + 1 && x <= 4`").
//!
//! All computations are in `f64` with a single, explicit tolerance policy
//! defined in [`scalar`].

pub mod constraint;
pub mod dual;
pub mod eliminate;
pub mod envelope;
pub mod halfplane;
pub mod parse;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod scalar;
pub mod simplex;
pub mod tuple;
pub mod vertex_enum;

pub use constraint::{LinearConstraint, RelOp};
pub use dual::{DualValue, Surface};
pub use halfplane::HalfPlane;
pub use polygon::Polygon;
pub use rect::Rect;
pub use tuple::GeneralizedTuple;
