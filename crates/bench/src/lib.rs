//! # qroute-bench
//!
//! The experiment harness reproducing the paper's evaluation (§V):
//!
//! * [`workloads`] — the permutation classes of Figures 4–5 (random,
//!   disjoint blocks, overlapping blocks) plus the skinny-cycle
//!   adversarial class discussed in the text;
//! * [`circuits`] — the circuit-level workload classes (QFT, brickwork,
//!   QAOA, sparse random, QASM replay) measured through the transpile
//!   loop;
//! * [`verify`] — the differential verification harness every
//!   benchmarked transpile passes through (feasibility, metric recounts,
//!   structural unembedding, statevector equivalence within the
//!   simulator cutoff);
//! * [`experiments`] — sweep drivers measuring schedule depth (Fig. 4)
//!   and routing computation time (Fig. 5), the hybrid clamp check, the
//!   ablations, and the end-to-end transpile experiment;
//! * [`report`] — CSV and markdown rendering of experiment tables;
//! * [`bench`](mod@bench) — the machine-readable benchmark subsystem: the versioned
//!   `BENCH.json` schema ([`bench::BenchReport`]: five cell matrices of
//!   one cell type, each described by a static [`bench::Matrix`]), the
//!   matrix runners, and baseline regression checking for the CI gate.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run -p qroute-bench --release --bin repro -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod circuits;
pub mod experiments;
pub mod plot;
pub mod report;
pub mod verify;
pub mod workloads;
