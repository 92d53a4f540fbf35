//! # qroute-matching
//!
//! Bipartite matching machinery for the locality-aware grid router:
//!
//! * [`hopcroft_karp`](mod@hopcroft_karp) — maximum-cardinality bipartite matching in
//!   `O(E √V)`; the workhorse underneath everything else.
//! * [`multigraph`] — the bipartite **multigraph** `G[a,b]` of §IV-A: one
//!   labeled parallel edge per qubit, restrictable to row bands.
//! * [`decompose`] — decomposition of a `k`-regular bipartite multigraph
//!   into `k` perfect matchings (Hall/König), used by the *naive*
//!   `GridRoute` baseline and as the fallback tail of the doubling search.
//! * [`bottleneck`] — the **MCBBM** solver (maximum-cardinality bottleneck
//!   bipartite matching) assigning matchings to staging rows (Algorithm 2,
//!   line 20), plus a min-*sum* Hungarian assignment used as an ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottleneck;
pub mod decompose;
pub mod euler;
pub mod hopcroft_karp;
pub mod multigraph;

pub use bottleneck::{bottleneck_assignment, min_sum_assignment, BottleneckResult};
pub use decompose::{decompose_regular, DecomposeError};
pub use euler::{decompose_regular_euler, euler_split};
pub use hopcroft_karp::{hopcroft_karp, Matching};
pub use multigraph::{BipartiteMultigraph, EdgeId, LabeledEdge};
