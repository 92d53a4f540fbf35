//! # qroute-core
//!
//! The paper's primary contribution: **locality-aware qubit routing via
//! matchings for grid and Cartesian-product ("grid-like") architectures**,
//! plus the baselines it is evaluated against.
//!
//! Routing problem (§II): given a coupling graph `G` and a permutation `π`
//! on its vertices, produce a sequence of *matchings* of `G`; each matching
//! is a layer of disjoint SWAP gates executed in parallel, and after all
//! layers the token starting at `v` must sit at `π(v)`. The objective is to
//! minimize the number of layers (the *depth* added to the physical
//! circuit).
//!
//! Modules:
//!
//! * [`schedule`] — [`RoutingSchedule`], swap layers stored flat as one
//!   `(u32, u32)` buffer plus layer offsets: application, verification,
//!   matching-validity checks, and the ASAP depth-compaction pass shared
//!   by all routers.
//! * [`line`](mod@line) — odd–even transposition routing on a path: the primitive
//!   each phase of the 3-phase grid algorithm runs on rows/columns.
//! * [`grid_route`] — the one 3-phase pipeline, `GridRoute(G, π; σ₁,…,σₙ)`
//!   (Alon–Chung–Graham) on any product `F1 □ F2` of factor routers, with
//!   Algorithm 1 on top (transpose retry = factor swap, compaction) and
//!   the *naive* staging with arbitrary matchings. A grid is `P □ P`.
//! * [`local_grid`] — **`LocalGridRoute`**, the locality-aware staging
//!   (Algorithm 2: doubling window search + `Δ` metric + MCBBM row
//!   assignment), and the main procedure (Algorithm 1) on grids.
//! * [`token_swap`] — the approximate token swapping (ATS) baseline of
//!   Miltzow et al. (4-approximation) with greedy parallelization, as used
//!   in the transpiler of Childs–Schoute–Unsal that the paper compares
//!   against; plus a simple serial cycle router.
//! * [`product_route`] — the Cartesian-product extension (§IV): the path
//!   and cycle factor routers, and `product_route`, the same pipeline and
//!   [`LocalRouteOptions`] on `G1 □ G2` (cylinders, tori).
//! * [`pathfinder`] — congestion-negotiated per-token A* routing (the
//!   PathFinder rip-up-and-reroute idiom from FPGA routing), built for
//!   sparse partial permutations where the matching-based routers pay
//!   full-permutation cost; falls back to ATS past its round cap.
//! * [`router`] — a uniform [`router::GridRouter`] trait over all of the
//!   above plus the `Hybrid` clamp (§V: locality-aware output replaced by
//!   the naive output whenever the latter is shallower).
//! * [`budget`] — cooperative deadlines/cancellation for long router
//!   calls: serving layers arm a [`RouteBudget`] with
//!   [`budget::with_budget`], routers call [`budget::checkpoint`]
//!   between rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod exact;
#[cfg(test)]
mod flat_reference;
pub mod grid_route;
#[cfg(test)]
mod kernel_reference;
pub mod line;
pub mod local_grid;
pub mod pathfinder;
pub mod product_route;
pub mod router;
pub mod schedule;
pub mod snake;
pub mod stats;
pub mod token_swap;

pub use budget::{BudgetExceeded, CancelToken, RouteBudget};
pub use local_grid::{AssignmentStrategy, LocalRouteOptions, WindowMode};
pub use pathfinder::{pathfinder_route_grid, pathfinder_route_with, PathfinderOptions};
pub use router::{GridRouter, RouterKind, UnsupportedTopology};
pub use schedule::{RoutingSchedule, ScheduleError};
pub use stats::{route_timed, schedule_stats, SampleSummary, ScheduleStats, TimedRoute};
