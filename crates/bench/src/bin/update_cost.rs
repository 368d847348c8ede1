//! Update-cost experiment: Theorems 3.1/4.1/4.2 claim tuple updates cost
//! `O(k log_B N/B)` (amortized, including handicap maintenance).
//!
//! Measures mean page accesses per *insert* and per *delete* into a dual
//! index, as N and k grow, plus the R⁺-tree's per-insert cost for scale.
//! The log growth in N and the linear growth in k should be visible; the
//! run finishes by verifying queries remain exact after the update storm
//! (incremental handicap maintenance is conservative, never wrong).
//!
//! ```text
//! cargo run --release -p cdb-bench --bin update_cost [--quick]
//! ```

use cdb_core::{DualIndex, Selection, SlopeSet};
use cdb_geometry::predicates;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{HalfPlane, Rect};
use cdb_rplustree::RPlusTree;
use cdb_storage::{MemPager, PageReader, Pager};
use cdb_workload::{tuple_mbr, DatasetSpec, ObjectSize, TupleGen};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ns: Vec<usize> = if quick {
        vec![500, 2000]
    } else {
        vec![500, 2000, 4000, 8000, 12000]
    };
    println!("Update cost — mean page accesses per operation");
    println!(
        "{:>8}{:>6}{:>14}{:>14}{:>14}",
        "N", "k", "T2 insert", "T2 delete", "R+ insert"
    );
    let mut csv = String::from("n,k,t2_insert,t2_delete,rp_insert\n");
    for &n in &ns {
        for k in [2usize, 5] {
            let tuples = DatasetSpec::paper_1999(n, ObjectSize::Small, n as u64).generate();
            let pairs: Vec<(u32, GeneralizedTuple)> = tuples
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, t)| (i as u32, t))
                .collect();
            let mut pager = MemPager::paper_1999();
            let mut idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(k), &pairs).unwrap();

            // Inserts.
            let mut gen = TupleGen::new(99, Rect::paper_window(), ObjectSize::Small);
            let batch: Vec<GeneralizedTuple> = (0..100).map(|_| gen.bounded_tuple()).collect();
            pager.reset_stats();
            for (j, t) in batch.iter().enumerate() {
                idx.insert(&mut pager, (n + j) as u32, t).unwrap();
            }
            let ins = pager.stats().accesses() as f64 / batch.len() as f64;

            // Deletes (the batch we just inserted).
            pager.reset_stats();
            for (j, t) in batch.iter().enumerate() {
                assert!(idx.remove(&mut pager, (n + j) as u32, t).unwrap());
            }
            let del = pager.stats().accesses() as f64 / batch.len() as f64;

            // R+ insert baseline (k-independent; measure once per N).
            let rp = if k == 2 {
                let mut rpager = MemPager::paper_1999();
                let items: Vec<_> = tuples
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (tuple_mbr(t), i as u32))
                    .collect();
                let mut tree = RPlusTree::pack(&mut rpager, &items, 0.8).unwrap();
                rpager.reset_stats();
                for (j, t) in batch.iter().enumerate() {
                    tree.insert(&mut rpager, tuple_mbr(t), (n + j) as u32)
                        .unwrap();
                }
                rpager.stats().accesses() as f64 / batch.len() as f64
            } else {
                f64::NAN
            };

            // Correctness after the storm: query vs oracle.
            let q = HalfPlane::above(0.37, -5.0);
            let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
                pairs.iter().cloned().collect();
            let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
            let got = idx
                .execute(
                    &pager,
                    &Selection::exist(q.clone()),
                    cdb_core::Strategy::T2,
                    &fetch,
                )
                .expect("query");
            let want: Vec<u32> = pairs
                .iter()
                .filter(|(_, t)| predicates::lp::exist(&q, t))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(got.ids(), want, "index correct after update storm");

            if rp.is_nan() {
                println!("{n:>8}{k:>6}{ins:>14.1}{del:>14.1}{:>14}", "-");
            } else {
                println!("{n:>8}{k:>6}{ins:>14.1}{del:>14.1}{rp:>14.1}");
            }
            csv.push_str(&format!("{n},{k},{ins:.2},{del:.2},{rp:.2}\n"));
        }
    }
    println!("\nexpected shape: ~log in N, ~linear in k (Theorems 3.1/4.2)");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/update_cost.csv", csv).expect("write CSV");
    println!("wrote results/update_cost.csv");
}
