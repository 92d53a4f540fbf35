//! Routing on Cartesian-product architectures (§IV extension): cylinders
//! and tori built from path/cycle factors.
//!
//! ```text
//! cargo run --release --example torus_routing
//! ```

use qroute::perm::generators;
use qroute::routing::product_route::{product_route, CycleFactor, PathFactor};
use qroute::routing::LocalRouteOptions;
use qroute::topology::{Cycle, Path, Product};

fn main() {
    // A 6x8 torus: C6 x C8 — a "grid-like" architecture with wraparound
    // links (common in proposals for modular superconducting fabrics).
    let c1 = Cycle::new(6);
    let c2 = Cycle::new(8);
    let torus = Product::new(c1.to_graph(), c2.to_graph());
    let graph = torus.to_graph();
    println!(
        "torus C6 x C8: {} qubits, {} coupling edges (every vertex degree 4)",
        torus.len(),
        graph.num_edges()
    );

    let pi = generators::random(torus.len(), 7);
    let schedule = product_route(
        &torus,
        &CycleFactor(c1),
        &CycleFactor(c2),
        &pi,
        &LocalRouteOptions::default(),
    );
    assert!(schedule.realizes(&pi));
    schedule.validate_on(&graph).unwrap();
    println!(
        "random permutation routed on the torus: depth {}, {} swaps",
        schedule.depth(),
        schedule.size()
    );

    // A cylinder: P4 x C8 (a grid rolled up along one axis).
    let p = Path::new(4);
    let cylinder = Product::new(p.to_graph(), c2.to_graph());
    let pi = generators::random(cylinder.len(), 7);
    let schedule = product_route(
        &cylinder,
        &PathFactor(p),
        &CycleFactor(c2),
        &pi,
        &LocalRouteOptions::default(),
    );
    assert!(schedule.realizes(&pi));
    println!(
        "random permutation routed on the P4 x C8 cylinder: depth {}, {} swaps",
        schedule.depth(),
        schedule.size()
    );

    // Compare against the flat 4x8 grid: wraparound links shorten routes.
    let grid = qroute::topology::Grid::new(4, 8);
    let pi_grid = generators::random(grid.len(), 7);
    let flat = qroute::routing::local_grid::local_grid_route(grid, &pi_grid);
    println!(
        "same-size flat 4x8 grid for reference: depth {}, {} swaps",
        flat.depth(),
        flat.size()
    );
}
