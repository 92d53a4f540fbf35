//! Quickstart: route a permutation on a qubit grid and inspect the
//! schedule.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qroute::perm::{generators, metrics};
use qroute::prelude::*;

fn main() {
    // An 8x8 superconducting-style qubit grid.
    let grid = Grid::new(8, 8);
    println!(
        "coupling graph: {}x{} grid, {} qubits",
        grid.rows(),
        grid.cols(),
        grid.len()
    );

    // The transpiler asks us to realize a permutation: qubit at v must move
    // to pi(v). Take a uniformly random one (the hardest case for locality).
    let pi = generators::random(grid.len(), 42);
    println!(
        "instance: random permutation, total displacement {}, max displacement {}",
        metrics::total_displacement(grid, &pi),
        metrics::max_displacement(grid, &pi),
    );

    // Route with the paper's locality-aware algorithm (Algorithm 1+2).
    let schedule = RouterKind::locality_aware().route(grid, &pi);
    assert!(schedule.realizes(&pi));
    println!(
        "locality-aware: depth {} layers, {} SWAPs (lower bound {})",
        schedule.depth(),
        schedule.size(),
        metrics::depth_lower_bound(grid, &pi),
    );

    // Compare against approximate token swapping — the baseline used by
    // state-of-the-art transpilers.
    let ats = RouterKind::Ats.route(grid, &pi);
    assert!(ats.realizes(&pi));
    println!(
        "ats:            depth {} layers, {} SWAPs",
        ats.depth(),
        ats.size()
    );

    // Each layer is a matching of the grid: disjoint SWAPs that execute in
    // one time step.
    let first = schedule.layer(0);
    println!(
        "first layer has {} parallel swaps, e.g. {:?}",
        first.len(),
        &first[..3.min(first.len())]
    );

    // Every schedule can be checked against the coupling graph.
    schedule
        .validate_on(&grid.to_graph())
        .expect("layers are matchings of the grid");
    println!("schedule validated: every layer is a matching of coupling edges");
}
