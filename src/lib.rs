//! # qroute
//!
//! Umbrella crate for the **locality-aware qubit routing** workspace — a
//! from-scratch Rust reproduction of *"Locality-aware Qubit Routing for the
//! Grid Architecture"* (Banerjee, Liang, Tohid; IPPS 2022).
//!
//! Re-exports the public API of every subsystem:
//!
//! * [`topology`] — coupling graphs (grids, paths, cycles, Cartesian
//!   products, grid-like lattices);
//! * [`perm`] — permutations, partial permutations, workload generators,
//!   locality metrics;
//! * [`matching`] — bipartite matching machinery (Hopcroft–Karp, regular
//!   multigraph decomposition, MCBBM bottleneck assignment);
//! * [`routing`] — the routers: the paper's locality-aware algorithm, the
//!   naive 3-phase baseline, approximate token swapping, hybrids;
//! * [`circuit`] — quantum circuit IR and workload builders;
//! * [`sim`] — statevector and permutation simulators for verification;
//! * [`transpiler`] — the full mapping+routing transpiler built on the
//!   routers;
//! * [`service`] — the batched, cached, multi-worker routing engine with
//!   the JSONL job API (`repro batch`).
//!
//! ## Quickstart
//!
//! ```
//! use qroute::prelude::*;
//!
//! // An 8x8 qubit grid and a random permutation of its 64 qubits.
//! let grid = Grid::new(8, 8);
//! let pi = qroute::perm::generators::random(grid.len(), 42);
//!
//! // Route with the paper's locality-aware algorithm...
//! let schedule = RouterKind::locality_aware().route(grid, &pi);
//! assert!(schedule.realizes(&pi));
//!
//! // ...and compare against approximate token swapping.
//! let ats = RouterKind::Ats.route(grid, &pi);
//! println!("local depth = {}, ats depth = {}", schedule.depth(), ats.depth());
//! ```

#![forbid(unsafe_code)]

pub use qroute_circuit as circuit;
pub use qroute_core as routing;
pub use qroute_matching as matching;
pub use qroute_perm as perm;
pub use qroute_service as service;
pub use qroute_sim as sim;
pub use qroute_topology as topology;
pub use qroute_transpiler as transpiler;

/// The most commonly used items in one import.
pub mod prelude {
    pub use qroute_circuit::{Circuit, Gate};
    pub use qroute_core::{GridRouter, LocalRouteOptions, RouterKind, RoutingSchedule};
    pub use qroute_perm::{PartialPermutation, Permutation};
    pub use qroute_topology::{Graph, Grid};
    pub use qroute_transpiler::{TranspileOptions, Transpiler};
}
