//! The repository benchmark.
//!
//! One command runs one seeded workload against the constraint database,
//! checks every answer against the brute-force oracle, and prints its
//! metrics by name with units; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-auto --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call the benchmark makes into a layer
//! and reports the per-layer metrics instead (see [`trace`]). Everything
//! is measured from outside the program, through the public API of each
//! crate. See `perfbench/README.md` for the workloads and metrics.

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;

pub use inputs::Sizes;
pub use report::Report;
pub use workloads::{run, Options, Workload};
