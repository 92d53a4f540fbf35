//! Canonical instance keying and the sharded LRU routed-schedule cache.
//!
//! Real transpilation campaigns route the *same* local permutation
//! patterns over and over, just placed at different grid positions and
//! orientations (the blockwise locality structure the paper's Algorithm 1
//! exploits). Naive memoization on `(topology, π)` misses all of that
//! reuse; this module instead keys the cache on a **canonical form**:
//!
//! 1. restrict `π` to the bounding box of its support (the tokens that
//!    actually move) — this normalizes *translation* and makes the key
//!    independent of the surrounding grid size;
//! 2. minimize over the eight [`GridSymmetry`] elements (reflections and
//!    transposition) — two instances that are mirror images share a key.
//!
//! Defective grids canonicalize the same way, carrying the defects that
//! fall inside the support box along through the minimization (the
//! candidate order is `(rows, cols, dead vertices, dead edges, table)`),
//! so defect patterns that are translations or reflections of each other
//! share one entry — and a defect *outside* the box drops out entirely,
//! letting defective instances share entries with pristine-grid
//! instances whose moved region looks identical. When restricting to the
//! box would strand a moved token (the live path leaves the box), the
//! canonical frame falls back to the whole grid, which is always
//! routable for validated instances. Non-grid topologies (heavy-hex,
//! brick, torus) have no dihedral normal form here and canonicalize to
//! themselves — duplicates still share entries.
//!
//! The engine routes the canonical representative on its canonical
//! topology and replays the cached [`RoutingSchedule`] back through the
//! inverse symmetry ([`CanonicalForm::replay`]), which preserves layer
//! structure (identical depth and size) and maps box edges to coupling
//! edges of the original topology. Differential tests in
//! `tests/cache_differential.rs` prove the replayed schedule is feasible
//! and realizes the original permutation for arbitrary instances.

use qroute_core::RoutingSchedule;
use qroute_perm::Permutation;
use qroute_topology::{Grid, GridSymmetry, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Identity of a canonical routing instance: the resolved router
/// (label *and* configuration) plus the canonical topology and
/// permutation table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    /// Resolved router discriminator. The engine uses the router's
    /// `Debug` rendering, not just its [`qroute_core::RouterKind::label`]
    /// — two differently-configured routers sharing a label (e.g. two
    /// `LocalityAware` option sets) must never share cached schedules.
    pub router: String,
    /// The canonical topology (a bounding-box grid or defective grid for
    /// grid-family instances; the instance's own topology otherwise).
    pub topology: Topology,
    /// Canonical permutation image table on the canonical topology.
    pub perm: Vec<usize>,
}

/// The canonical form of a `(topology, π)` instance: the representative
/// to route, plus the vertex map to replay schedules back into the
/// original frame.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The canonical topology the representative lives on.
    pub topology: Topology,
    /// The canonical permutation on [`CanonicalForm::topology`].
    pub pi: Permutation,
    /// Canonical vertex id → original vertex id (an embedding: canonical
    /// coupling edges map to coupling edges of the original topology).
    to_original: Vec<usize>,
}

impl CanonicalForm {
    /// The cache key of this form under a resolved router discriminator
    /// (see [`CanonicalKey::router`]).
    pub fn key(&self, router: impl Into<String>) -> CanonicalKey {
        CanonicalKey {
            router: router.into(),
            topology: self.topology.clone(),
            perm: self.pi.as_slice().to_vec(),
        }
    }

    /// Replay a schedule computed for the canonical representative back
    /// into the original instance's frame. Depth and size are invariant;
    /// the result is valid on the original topology and realizes the
    /// original permutation (extended by the identity outside the box).
    pub fn replay(&self, schedule: &RoutingSchedule) -> RoutingSchedule {
        schedule.relabeled(|v| self.to_original[v])
    }
}

/// Compute the canonical form of `(grid, pi)`.
///
/// The support bounding box is translated to the origin, and the
/// lexicographically smallest `(rows, cols, table)` over all eight
/// dihedral transforms is chosen — a deterministic pick, so equal-orbit
/// instances collide on the same [`CanonicalKey`]. The identity
/// permutation (empty support) canonicalizes to the `1 × 1` box, which
/// every router handles with an empty schedule.
pub fn canonicalize(grid: Grid, pi: &Permutation) -> CanonicalForm {
    assert_eq!(grid.len(), pi.len(), "permutation does not fit the grid");
    canonicalize_windowed(grid, pi, &[], &[], support_window(grid, pi))
        .expect("defect-free boxes are always routable")
}

/// Compute the canonical form of `(topology, pi)` — the topology-generic
/// entry point the engine keys its cache on.
///
/// * Full grids delegate to [`canonicalize`] (identical keys, so pure
///   grid jobs hit the same entries they always did).
/// * Defective grids canonicalize like grids but carry the dead
///   vertices/edges inside the support box through the dihedral
///   minimization; out-of-box defects drop out. If restricting to the
///   box disconnects the live region (a live path between moved tokens
///   leaves the box), the canonical frame is the whole grid instead.
/// * Heavy-hex, brick-wall and torus topologies canonicalize to
///   themselves (identity form): exact duplicates still share entries.
///
/// Expects `topology` to be a constructor-normalized value (always true
/// for values built via [`Topology`]'s constructors) and, for defective
/// grids, one whose live region is connected ([`Topology::validate_routable`]);
/// the engine validates both before canonicalizing.
pub fn canonicalize_topology(topology: &Topology, pi: &Permutation) -> CanonicalForm {
    assert_eq!(
        topology.len(),
        pi.len(),
        "permutation does not fit the topology"
    );
    match topology {
        Topology::Grid(grid) => canonicalize(*grid, pi),
        Topology::GridWithDefects { grid, dead_vertices, dead_edges } => canonicalize_windowed(
            *grid,
            pi,
            dead_vertices,
            dead_edges,
            support_window(*grid, pi),
        )
        .or_else(|| {
            // Live paths leave the support box: fall back to the full
            // frame, which is connected for validated instances.
            let full = (0, 0, grid.rows() - 1, grid.cols() - 1);
            canonicalize_windowed(*grid, pi, dead_vertices, dead_edges, full)
        })
        .unwrap_or_else(|| CanonicalForm {
            // Unvalidated (disconnected) instance: cache it as itself.
            topology: topology.clone(),
            pi: pi.clone(),
            to_original: (0..pi.len()).collect(),
        }),
        _ => CanonicalForm {
            topology: topology.clone(),
            pi: pi.clone(),
            to_original: (0..pi.len()).collect(),
        },
    }
}

/// Support bounding box of `pi` on `grid`; `(0,0)..=(0,0)` for the
/// identity.
fn support_window(grid: Grid, pi: &Permutation) -> (usize, usize, usize, usize) {
    let (mut r0, mut c0, mut r1, mut c1) = (usize::MAX, usize::MAX, 0, 0);
    for v in 0..pi.len() {
        if pi.apply(v) != v {
            let (i, j) = grid.coords(v);
            r0 = r0.min(i);
            c0 = c0.min(j);
            r1 = r1.max(i);
            c1 = c1.max(j);
        }
    }
    if r0 == usize::MAX {
        (0, 0, 0, 0)
    } else {
        (r0, c0, r1, c1)
    }
}

/// Canonicalize `(grid, pi)` restricted to `window`, carrying the
/// in-window defects through the minimization. Returns `None` when the
/// live part of the windowed instance is not connected (so routers could
/// not run on it); the caller then widens the window.
fn canonicalize_windowed(
    grid: Grid,
    pi: &Permutation,
    dead_vertices: &[usize],
    dead_edges: &[(usize, usize)],
    window: (usize, usize, usize, usize),
) -> Option<CanonicalForm> {
    let (r0, c0, r1, c1) = window;
    if (0..pi.len()).all(|v| pi.apply(v) == v) {
        // Nothing moves: every instance shares the clean 1×1 box (any
        // defects are irrelevant to an empty schedule).
        return Some(CanonicalForm {
            topology: Topology::grid(1, 1),
            pi: Permutation::identity(1),
            to_original: vec![grid.index(r0, c0)],
        });
    }
    let boxed = Grid::new(r1 - r0 + 1, c1 - c0 + 1);
    // π restricted to the box: the support maps onto itself, and in-box
    // fixed points stay fixed, so this is a permutation of the box.
    let mut table = vec![0usize; boxed.len()];
    for i in 0..boxed.rows() {
        for j in 0..boxed.cols() {
            let img = pi.apply(grid.index(r0 + i, c0 + j));
            let (ir, jc) = grid.coords(img);
            debug_assert!(ir >= r0 && ir <= r1 && jc >= c0 && jc <= c1);
            table[boxed.index(i, j)] = boxed.index(ir - r0, jc - c0);
        }
    }
    // Defects that fall inside the window, in box coordinates. Defects
    // outside cannot touch any box edge, so they drop out — which is what
    // lets a defective instance share an entry with a pristine one whose
    // moved region looks identical.
    let in_window = |v: usize| {
        let (i, j) = grid.coords(v);
        i >= r0 && i <= r1 && j >= c0 && j <= c1
    };
    let to_box = |v: usize| {
        let (i, j) = grid.coords(v);
        boxed.index(i - r0, j - c0)
    };
    let box_defects: Vec<usize> = dead_vertices
        .iter()
        .copied()
        .filter(|&v| in_window(v))
        .map(to_box)
        .collect();
    let box_dead_edges: Vec<(usize, usize)> = dead_edges
        .iter()
        .filter(|&&(u, v)| in_window(u) && in_window(v))
        .map(|&(u, v)| {
            let (u, v) = (to_box(u), to_box(v));
            (u.min(v), u.max(v))
        })
        .collect();
    if !box_live_part_is_routable(boxed, &table, &box_defects, &box_dead_edges) {
        return None;
    }

    // Minimize (rows, cols, defects, dead edges, table) over the dihedral
    // orbit. With no defects this is the original (rows, cols, table)
    // order — empty defect lists never break a tie differently — so pure
    // grid instances keep their historical canonical pick. A candidate
    // replaces the best only when strictly smaller, so ties keep the
    // earlier symmetry. Tables are compared entry by entry straight from
    // `table` (most candidates differ within a few entries), and only the
    // winner's table is built.
    struct Candidate {
        sym: GridSymmetry,
        target: Grid,
        defects: Vec<usize>,
        edges: Vec<(usize, usize)>,
    }
    let candidate = |sym: GridSymmetry| {
        let mut defects: Vec<usize> = box_defects.iter().map(|&v| sym.apply(boxed, v)).collect();
        defects.sort_unstable();
        let mut edges: Vec<(usize, usize)> = box_dead_edges
            .iter()
            .map(|&(u, v)| {
                let (u, v) = (sym.apply(boxed, u), sym.apply(boxed, v));
                (u.min(v), u.max(v))
            })
            .collect();
        edges.sort_unstable();
        Candidate { sym, target: sym.target(boxed), defects, edges }
    };
    // Entry `w` of a candidate's table: `sym` applied to the box table at
    // `w`'s preimage under `sym`.
    let entries = |c: &Candidate| {
        let (sym, inv, target, table) = (c.sym, c.sym.inverse(), c.target, &table);
        (0..boxed.len()).map(move |w| sym.apply(boxed, table[inv.apply(target, w)]))
    };
    let [first, rest @ ..] = GridSymmetry::all();
    let mut best = candidate(first);
    for sym in rest {
        let cand = candidate(sym);
        let order = (cand.target.rows(), cand.target.cols())
            .cmp(&(best.target.rows(), best.target.cols()))
            .then_with(|| cand.defects.cmp(&best.defects))
            .then_with(|| cand.edges.cmp(&best.edges))
            .then_with(|| entries(&cand).cmp(entries(&best)));
        if order == std::cmp::Ordering::Less {
            best = cand;
        }
    }
    let Candidate { sym, target: canonical_grid, defects, edges: dead } = best;
    let mut canonical_table = vec![0usize; boxed.len()];
    for (v, &img) in table.iter().enumerate() {
        canonical_table[sym.apply(boxed, v)] = sym.apply(boxed, img);
    }
    let inv = sym.inverse();
    let to_original = (0..canonical_grid.len())
        .map(|v| {
            let (i, j) = boxed.coords(inv.apply(canonical_grid, v));
            grid.index(r0 + i, c0 + j)
        })
        .collect();
    let topology = if defects.is_empty() && dead.is_empty() {
        Topology::Grid(canonical_grid)
    } else {
        Topology::grid_with_defects(canonical_grid, &defects, &dead)
            .expect("a routable box keeps its moved tokens alive")
    };
    Some(CanonicalForm {
        topology,
        pi: Permutation::from_vec_unchecked(canonical_table),
        to_original,
    })
}

/// Whether the live part of the boxed instance is connected and every
/// moved token (and its destination) is alive. Routers reject anything
/// less: the routing frame of the canonical topology must be a connected
/// graph containing all moves.
fn box_live_part_is_routable(
    boxed: Grid,
    table: &[usize],
    defects: &[usize],
    dead_edges: &[(usize, usize)],
) -> bool {
    if defects.is_empty() && dead_edges.is_empty() {
        return true;
    }
    let n = boxed.len();
    let mut dead = vec![false; n];
    for &d in defects {
        dead[d] = true;
    }
    if (0..n).any(|v| table[v] != v && (dead[v] || dead[table[v]])) {
        return false;
    }
    // One BFS over the live subgraph: connected iff it reaches every
    // live vertex.
    let graph = boxed.to_graph();
    let Some(start) = (0..n).find(|&v| !dead[v]) else {
        return false;
    };
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut queue = vec![start];
    while let Some(u) = queue.pop() {
        for v in graph.neighbors(u) {
            let edge = (u.min(v), u.max(v));
            if !dead[v] && !seen[v] && !dead_edges.contains(&edge) {
                seen[v] = true;
                queue.push(v);
            }
        }
    }
    (0..n).all(|v| dead[v] || seen[v])
}

/// Hit/miss/evict counters of a [`ShardedLru`], aggregated over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot (for per-batch
    /// statistics on a long-lived cache).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
/// `FNV_PRIME^k` for `k = 0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// FNV-1a over the eight little-endian bytes of `x`. A zero byte only
/// multiplies by the prime, so the high zero bytes of `x` fold into one
/// multiply by a power of it (a permutation entry below 256 costs two
/// multiplies, not eight).
fn eat(mut h: u64, x: u64) -> u64 {
    let len = (u64::BITS - x.leading_zeros()).div_ceil(8) as usize;
    for byte in x.to_le_bytes().into_iter().take(len) {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_PRIME_POWERS[8 - len])
}

/// The key's fixed FNV-1a hash over its bytes: deterministic across runs
/// and machines, unlike the std hasher. Shard placement (and therefore
/// eviction grouping) is this value modulo the shard count, so it must
/// never change.
fn key_hash(key: &CanonicalKey) -> u64 {
    let mut h = key.router.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    });
    // Full grids keep the historical `rows, cols` byte sequence so shard
    // placement of pure grid workloads is unchanged; other variants
    // prepend a `u64::MAX` tag no grid can produce (a row count that
    // large cannot be a key).
    match &key.topology {
        Topology::Grid(grid) => {
            h = eat(h, grid.rows() as u64);
            h = eat(h, grid.cols() as u64);
        }
        Topology::GridWithDefects { grid, dead_vertices, dead_edges } => {
            h = eat(h, u64::MAX);
            h = eat(h, 1);
            h = eat(h, grid.rows() as u64);
            h = eat(h, grid.cols() as u64);
            for &d in dead_vertices {
                h = eat(h, d as u64);
            }
            h = eat(h, u64::MAX);
            for &(u, v) in dead_edges {
                h = eat(h, u as u64);
                h = eat(h, v as u64);
            }
        }
        Topology::HeavyHex { rows, cols } => {
            h = eat(h, u64::MAX);
            h = eat(h, 2);
            h = eat(h, *rows as u64);
            h = eat(h, *cols as u64);
        }
        Topology::BrickWall { rows, cols } => {
            h = eat(h, u64::MAX);
            h = eat(h, 3);
            h = eat(h, *rows as u64);
            h = eat(h, *cols as u64);
        }
        Topology::Torus { rows, cols } => {
            h = eat(h, u64::MAX);
            h = eat(h, 4);
            h = eat(h, *rows as u64);
            h = eat(h, *cols as u64);
        }
    }
    key.perm.iter().fold(h, |h, &img| eat(h, img as u64))
}

/// One cache entry: the key's [`key_hash`], compared before the key.
type Entry<V> = (u64, CanonicalKey, V);

/// The position of `key`, whose hash is `hash`, in a shard (keys are
/// unique per shard, and recent entries sit at the end).
fn position<V>(shard: &[Entry<V>], hash: u64, key: &CanonicalKey) -> Option<usize> {
    shard.iter().rposition(|(h, k, _)| *h == hash && k == key)
}

/// A sharded LRU map from [`CanonicalKey`] to a cloneable value.
///
/// Keys are distributed over shards by a *fixed* FNV-1a hash (never the
/// std `RandomState` — shard placement decides eviction grouping, and the
/// engine's byte-determinism guarantee requires the same placement every
/// run). Each shard orders its entries by recency and evicts its own
/// least-recently-used entry when it outgrows `capacity / shards`
/// (rounded up). A shard keeps its entries oldest first and holds each
/// key at most once, so lookups search it from the most-recent end. Each
/// entry keeps its key's hash, which a lookup compares before the key;
/// every call hashes its key once.
/// Lookups touch recency; all counters are atomic, so
/// shared references can be used concurrently — though the engine
/// serializes cache decisions on the submit thread precisely so that
/// hit/miss/evict sequences depend only on job order, never on worker
/// scheduling.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Vec<Entry<V>>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache budgeted at `capacity` entries across `shards` shards
    /// (`shards` is clamped to at least 1 and at most `capacity.max(1)`).
    /// Each shard's budget is `capacity / shards` rounded **up**, so when
    /// `capacity` is not a shard multiple the cache admits up to
    /// `shards − 1` extra entries; [`ShardedLru::capacity`] reports the
    /// exact admitted total. `capacity == 0` disables caching: every
    /// lookup misses and inserts are dropped.
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<V> {
        let shards = shards.max(1).min(capacity.max(1));
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry budget across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard_index(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Lock shard `idx`. With a trace subscriber armed, the wait for the
    /// shard mutex is measured and emitted as a `cache.shard_lock` event;
    /// disarmed, this is exactly the bare `lock()` — no clock reads.
    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, Vec<Entry<V>>> {
        if !qroute_obs::trace::armed() {
            return self.shards[idx].lock().expect("cache shard poisoned");
        }
        let start = std::time::Instant::now();
        let guard = self.shards[idx].lock().expect("cache shard poisoned");
        qroute_obs::trace::event(
            "cache.shard_lock",
            &[
                ("shard", qroute_obs::FieldValue::U64(idx as u64)),
                (
                    "wait_us",
                    qroute_obs::FieldValue::U64(start.elapsed().as_micros() as u64),
                ),
            ],
        );
        guard
    }

    /// Count a miss, and trace it against shard `idx`.
    fn miss(&self, idx: usize) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        qroute_obs::trace::event(
            "cache.miss",
            &[("shard", qroute_obs::FieldValue::U64(idx as u64))],
        );
    }

    /// Look `key` up in its locked shard `idx`: a hit moves the entry to
    /// the most-recent end and counts; a miss counts.
    fn touch(
        &self,
        shard: &mut Vec<Entry<V>>,
        idx: usize,
        hash: u64,
        key: &CanonicalKey,
    ) -> Option<V> {
        let Some(pos) = position(shard, hash, key) else {
            self.miss(idx);
            return None;
        };
        let entry = shard.remove(pos);
        let value = entry.2.clone();
        shard.push(entry);
        self.hits.fetch_add(1, Ordering::Relaxed);
        qroute_obs::trace::event(
            "cache.hit",
            &[("shard", qroute_obs::FieldValue::U64(idx as u64))],
        );
        Some(value)
    }

    /// Append `entry` to its locked shard `idx` as the most recent,
    /// evicting the shard's least-recently-used entry when the shard
    /// exceeds its budget.
    fn push(&self, shard: &mut Vec<Entry<V>>, idx: usize, entry: Entry<V>) {
        shard.push(entry);
        if shard.len() > self.per_shard_capacity {
            shard.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            qroute_obs::trace::event(
                "cache.eviction",
                &[("shard", qroute_obs::FieldValue::U64(idx as u64))],
            );
        }
    }

    /// Look up `key`, touching its recency on a hit. A zero-capacity
    /// cache holds nothing, so it counts the miss without hashing the key
    /// or taking a lock (it has one shard, so the `cache.miss` event names
    /// shard 0 either way).
    pub fn get(&self, key: &CanonicalKey) -> Option<V> {
        if self.per_shard_capacity == 0 {
            self.miss(0);
            return None;
        }
        let hash = key_hash(key);
        let idx = self.shard_index(hash);
        self.touch(&mut self.lock_shard(idx), idx, hash, key)
    }

    /// Insert (or refresh) `key`, evicting the shard's least-recently-used
    /// entry when the shard exceeds its budget.
    pub fn insert(&self, key: CanonicalKey, value: V) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let hash = key_hash(&key);
        let idx = self.shard_index(hash);
        let mut shard = self.lock_shard(idx);
        if let Some(pos) = position(&shard, hash, &key) {
            shard.remove(pos);
        }
        self.push(&mut shard, idx, (hash, key, value));
    }

    /// Atomic lookup-or-insert: returns `(value, inserted)`, holding the
    /// shard lock across the check and the insert so two threads racing
    /// on the same key agree on exactly one inserter.
    ///
    /// Counter- and trace-compatible with a `get` + `insert` pair —
    /// present keys count a hit and touch recency; absent keys count a
    /// miss, insert `make()` under a clone of `key` (the only clone), and
    /// evict the shard's LRU entry if over budget. With capacity 0 the
    /// miss is counted and traced and `make()`'s value returned unstored.
    pub fn get_or_insert_with(&self, key: &CanonicalKey, make: impl FnOnce() -> V) -> (V, bool) {
        if self.per_shard_capacity == 0 {
            self.miss(0);
            return (make(), true);
        }
        let hash = key_hash(key);
        let idx = self.shard_index(hash);
        let mut shard = self.lock_shard(idx);
        if let Some(value) = self.touch(&mut shard, idx, hash, key) {
            return (value, false);
        }
        let value = make();
        self.push(&mut shard, idx, (hash, key.clone(), value.clone()));
        (value, true)
    }

    /// Drop `key` from the cache, returning its value if present.
    /// Touches no hit/miss/eviction counter — the counters describe the
    /// deterministic lookup/capacity stream, and removal exists for
    /// *error* eviction (a slot whose compute timed out or panicked must
    /// not serve later duplicates), which is inherently fault-driven.
    pub fn remove(&self, key: &CanonicalKey) -> Option<V> {
        let hash = key_hash(key);
        let mut shard = self.lock_shard(self.shard_index(hash));
        let pos = position(&shard, hash, key)?;
        Some(shard.remove(pos).2)
    }

    /// Aggregate counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Differential references, kept verbatim: the eager dihedral
/// minimization [`canonicalize_windowed`] replaced (it builds all eight
/// candidate tables and compares them whole), and the byte-wise shard
/// hash [`key_hash`] replaced.
#[cfg(test)]
mod reference {
    use super::*;

    /// The replaced `ShardedLru::shard_index` body, with the shard count
    /// passed in.
    pub fn shard_index(key: &CanonicalKey, shards: usize) -> usize {
        (fnv(key) % shards as u64) as usize
    }

    pub fn fnv(key: &CanonicalKey) -> u64 {
        // FNV-1a over the key's bytes: deterministic across runs and
        // machines, unlike the std hasher.
        fn eat(h: u64, x: u64) -> u64 {
            x.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
        }
        let mut h: u64 = 0xcbf29ce484222325;
        h = key
            .router
            .bytes()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3));
        match &key.topology {
            Topology::Grid(grid) => {
                h = eat(h, grid.rows() as u64);
                h = eat(h, grid.cols() as u64);
            }
            Topology::GridWithDefects { grid, dead_vertices, dead_edges } => {
                h = eat(h, u64::MAX);
                h = eat(h, 1);
                h = eat(h, grid.rows() as u64);
                h = eat(h, grid.cols() as u64);
                for &d in dead_vertices {
                    h = eat(h, d as u64);
                }
                h = eat(h, u64::MAX);
                for &(u, v) in dead_edges {
                    h = eat(h, u as u64);
                    h = eat(h, v as u64);
                }
            }
            Topology::HeavyHex { rows, cols } => {
                h = eat(h, u64::MAX);
                h = eat(h, 2);
                h = eat(h, *rows as u64);
                h = eat(h, *cols as u64);
            }
            Topology::BrickWall { rows, cols } => {
                h = eat(h, u64::MAX);
                h = eat(h, 3);
                h = eat(h, *rows as u64);
                h = eat(h, *cols as u64);
            }
            Topology::Torus { rows, cols } => {
                h = eat(h, u64::MAX);
                h = eat(h, 4);
                h = eat(h, *rows as u64);
                h = eat(h, *cols as u64);
            }
        }
        for &img in &key.perm {
            h = eat(h, img as u64);
        }
        h
    }

    pub fn canonicalize_windowed(
        grid: Grid,
        pi: &Permutation,
        dead_vertices: &[usize],
        dead_edges: &[(usize, usize)],
        window: (usize, usize, usize, usize),
    ) -> Option<CanonicalForm> {
        let (r0, c0, r1, c1) = window;
        if (0..pi.len()).all(|v| pi.apply(v) == v) {
            // Nothing moves: every instance shares the clean 1×1 box (any
            // defects are irrelevant to an empty schedule).
            return Some(CanonicalForm {
                topology: Topology::grid(1, 1),
                pi: Permutation::identity(1),
                to_original: vec![grid.index(r0, c0)],
            });
        }
        let boxed = Grid::new(r1 - r0 + 1, c1 - c0 + 1);
        // π restricted to the box: the support maps onto itself, and in-box
        // fixed points stay fixed, so this is a permutation of the box.
        let mut table = vec![0usize; boxed.len()];
        for i in 0..boxed.rows() {
            for j in 0..boxed.cols() {
                let img = pi.apply(grid.index(r0 + i, c0 + j));
                let (ir, jc) = grid.coords(img);
                debug_assert!(ir >= r0 && ir <= r1 && jc >= c0 && jc <= c1);
                table[boxed.index(i, j)] = boxed.index(ir - r0, jc - c0);
            }
        }
        // Defects that fall inside the window, in box coordinates. Defects
        // outside cannot touch any box edge, so they drop out — which is what
        // lets a defective instance share an entry with a pristine one whose
        // moved region looks identical.
        let in_window = |v: usize| {
            let (i, j) = grid.coords(v);
            i >= r0 && i <= r1 && j >= c0 && j <= c1
        };
        let to_box = |v: usize| {
            let (i, j) = grid.coords(v);
            boxed.index(i - r0, j - c0)
        };
        let box_defects: Vec<usize> = dead_vertices
            .iter()
            .copied()
            .filter(|&v| in_window(v))
            .map(to_box)
            .collect();
        let box_dead_edges: Vec<(usize, usize)> = dead_edges
            .iter()
            .filter(|&&(u, v)| in_window(u) && in_window(v))
            .map(|&(u, v)| {
                let (u, v) = (to_box(u), to_box(v));
                (u.min(v), u.max(v))
            })
            .collect();
        if !box_live_part_is_routable(boxed, &table, &box_defects, &box_dead_edges) {
            return None;
        }

        // Minimize (rows, cols, defects, dead edges, table) over the dihedral
        // orbit. With no defects this is the original (rows, cols, table)
        // order — empty defect lists never break a tie differently — so pure
        // grid instances keep their historical canonical pick.
        type Candidate = (
            usize,
            usize,
            Vec<usize>,
            Vec<(usize, usize)>,
            Vec<usize>,
            GridSymmetry,
        );
        let mut best: Option<Candidate> = None;
        for sym in GridSymmetry::all() {
            let target = sym.target(boxed);
            let mut cand_table = vec![0usize; boxed.len()];
            for (v, &img) in table.iter().enumerate() {
                cand_table[sym.apply(boxed, v)] = sym.apply(boxed, img);
            }
            let mut cand_defects: Vec<usize> =
                box_defects.iter().map(|&v| sym.apply(boxed, v)).collect();
            cand_defects.sort_unstable();
            let mut cand_edges: Vec<(usize, usize)> = box_dead_edges
                .iter()
                .map(|&(u, v)| {
                    let (u, v) = (sym.apply(boxed, u), sym.apply(boxed, v));
                    (u.min(v), u.max(v))
                })
                .collect();
            cand_edges.sort_unstable();
            let better = match &best {
                None => true,
                Some((br, bc, bd, be, bt, _)) => {
                    (
                        target.rows(),
                        target.cols(),
                        &cand_defects,
                        &cand_edges,
                        &cand_table,
                    ) < (*br, *bc, bd, be, bt)
                }
            };
            if better {
                best = Some((
                    target.rows(),
                    target.cols(),
                    cand_defects,
                    cand_edges,
                    cand_table,
                    sym,
                ));
            }
        }
        let (rows, cols, defects, dead, canonical_table, sym) = best.expect("orbit is non-empty");
        let canonical_grid = Grid::new(rows, cols);
        let inv = sym.inverse();
        let to_original = (0..canonical_grid.len())
            .map(|v| {
                let (i, j) = boxed.coords(inv.apply(canonical_grid, v));
                grid.index(r0 + i, c0 + j)
            })
            .collect();
        let topology = if defects.is_empty() && dead.is_empty() {
            Topology::Grid(canonical_grid)
        } else {
            Topology::grid_with_defects(canonical_grid, &defects, &dead)
                .expect("a routable box keeps its moved tokens alive")
        };
        Some(CanonicalForm {
            topology,
            pi: Permutation::from_vec_unchecked(canonical_table),
            to_original,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_core::{GridRouter, RouterKind};
    use qroute_perm::generators;

    /// `table` (a permutation of `boxed`) placed on `grid` under `sym`
    /// with its image's top-left corner at `(r0, c0)`; every other token
    /// stays home.
    fn embed(
        grid: Grid,
        boxed: Grid,
        table: &[usize],
        sym: GridSymmetry,
        at: (usize, usize),
    ) -> Vec<usize> {
        let target = sym.target(boxed);
        let place = |v: usize| {
            let (i, j) = target.coords(sym.apply(boxed, v));
            grid.index(at.0 + i, at.1 + j)
        };
        let mut map: Vec<usize> = (0..grid.len()).collect();
        for (v, &img) in table.iter().enumerate() {
            map[place(v)] = place(img);
        }
        map
    }

    #[test]
    fn lazy_minimization_matches_the_eager_reference() {
        // Local patterns, symmetric ones included so that several
        // symmetries tie on the whole key and only the tie rule decides
        // the replay map.
        let mut patterns: Vec<(Grid, Vec<usize>)> = vec![
            (Grid::new(1, 2), vec![1, 0]),
            (Grid::new(2, 2), vec![1, 3, 0, 2]),
            (Grid::new(2, 2), vec![1, 0, 3, 2]),
            (Grid::new(1, 5), vec![4, 3, 2, 1, 0]),
            // A ring around a fixed center.
            (Grid::new(3, 3), vec![1, 2, 5, 0, 4, 8, 3, 6, 7]),
        ];
        for seed in 0..4 {
            let boxed = Grid::new(2 + seed as usize % 3, 3 + seed as usize % 2);
            patterns.push((
                boxed,
                generators::random(boxed.len(), seed).as_slice().to_vec(),
            ));
            let boxed = Grid::new(4, 4);
            patterns.push((
                boxed,
                generators::block_local(boxed, 2, 2, seed)
                    .as_slice()
                    .to_vec(),
            ));
            patterns.push((
                boxed,
                generators::sparse_random(boxed.len(), 5, seed)
                    .as_slice()
                    .to_vec(),
            ));
        }
        let mut compared = 0;
        for grid in [Grid::new(8, 9), Grid::new(10, 10)] {
            let graph = grid.to_graph();
            for (boxed, table) in &patterns {
                for sym in GridSymmetry::all() {
                    let target = sym.target(*boxed);
                    let (rows, cols) = (grid.rows() - target.rows(), grid.cols() - target.cols());
                    for at in [(0, 0), (1, 2), (rows, cols)] {
                        let pi =
                            Permutation::from_vec(embed(grid, *boxed, table, sym, at)).unwrap();
                        let window = support_window(grid, &pi);
                        let full = (0, 0, grid.rows() - 1, grid.cols() - 1);
                        let fixed: Vec<usize> =
                            (0..grid.len()).filter(|&v| pi.apply(v) == v).collect();
                        let (r0, c0, r1, c1) = window;
                        let inside = |v: usize| {
                            let (i, j) = grid.coords(v);
                            i >= r0 && i <= r1 && j >= c0 && j <= c1
                        };
                        let in_box: Vec<usize> = fixed
                            .iter()
                            .copied()
                            .filter(|&v| inside(v))
                            .take(1)
                            .collect();
                        let out_box: Vec<usize> = fixed
                            .iter()
                            .copied()
                            .filter(|&v| !inside(v))
                            .take(1)
                            .collect();
                        let box_edge: Vec<(usize, usize)> = graph
                            .edges()
                            .iter()
                            .copied()
                            .filter(|&(u, v)| inside(u) && inside(v))
                            .take(1)
                            .collect();
                        let defect_sets = [
                            (vec![], vec![]),
                            (out_box.clone(), vec![]),
                            (in_box.clone(), vec![]),
                            (vec![], box_edge.clone()),
                            ([in_box, out_box].concat(), box_edge),
                        ];
                        for (dead, dead_edges) in &defect_sets {
                            for w in [window, full] {
                                let what = format!("{boxed:?} {table:?} {sym:?} at {at:?} on {grid:?}, defects {dead:?} {dead_edges:?}, window {w:?}");
                                let got = canonicalize_windowed(grid, &pi, dead, dead_edges, w);
                                let want = reference::canonicalize_windowed(
                                    grid, &pi, dead, dead_edges, w,
                                );
                                let (Some(got), Some(want)) = (&got, &want) else {
                                    assert_eq!(got.is_some(), want.is_some(), "{what}");
                                    continue;
                                };
                                assert_eq!(got.topology, want.topology, "{what}");
                                assert_eq!(got.pi, want.pi, "{what}");
                                assert_eq!(got.to_original, want.to_original, "{what}");
                                let schedule = RouterKind::Ats
                                    .route_on(&got.topology, &got.pi)
                                    .expect("ats routes any connected topology");
                                let replayed = got.replay(&schedule);
                                assert_eq!(
                                    replayed.swaps(),
                                    want.replay(&schedule).swaps(),
                                    "{what}"
                                );
                                assert!(replayed.realizes(&pi), "{what}");
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(compared > 1000, "only {compared} forms compared");
    }

    #[test]
    fn zero_capacity_cache_counts_misses_without_storing() {
        let lru: ShardedLru<usize> = ShardedLru::new(0, 8);
        assert_eq!(lru.capacity(), 0);
        for tag in 0..3 {
            assert_eq!(lru.get(&key(tag)), None);
            lru.insert(key(tag), tag);
        }
        assert_eq!(lru.get(&key(0)), None);
        assert_eq!(lru.stats(), CacheStats { hits: 0, misses: 4, evictions: 0 });
        assert_eq!(lru.remove(&key(0)), None);
    }

    /// Empty-state audit: the hit-rate ratio of a cache that has never
    /// been looked up is a finite literal zero, never NaN from 0/0.
    #[test]
    fn empty_cache_stats_hit_rate_is_finite_zero() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        let fresh: ShardedLru<u64> = ShardedLru::new(8, 2);
        assert_eq!(fresh.stats().hit_rate(), 0.0);
    }

    #[test]
    fn key_hash_matches_the_bytewise_reference_on_every_topology() {
        let grid = Grid::new(5, 6);
        let topologies = [
            Topology::Grid(grid),
            Topology::grid(1, 1),
            Topology::grid(300, 70_000),
            Topology::grid_with_defects(grid, &[7, 22], &[(0, 1), (13, 19)])
                .expect("a valid defect pattern"),
            Topology::heavy_hex(4, 4),
            Topology::brick_wall(3, 5),
            Topology::torus(4, 3).expect("a valid torus"),
        ];
        // Every byte length of a word, interior zero bytes, and words
        // whose high bytes are set.
        let words = [
            0,
            1,
            255,
            256,
            0xff00,
            0x1_0000,
            0x00ff_00ff,
            0x1_0000_0000,
            0x0100_0000_0000_0001,
            usize::MAX >> 8,
            usize::MAX,
        ];
        let routers = ["", "ats", &format!("{:?}", RouterKind::all_default()[0])];
        let mut keys = 0;
        for topology in &topologies {
            for router in routers {
                for len in [0, 1, 5, words.len()] {
                    let key = CanonicalKey {
                        router: router.to_string(),
                        topology: topology.clone(),
                        perm: words
                            .iter()
                            .cycle()
                            .skip(len)
                            .take(len * 2)
                            .copied()
                            .collect(),
                    };
                    assert_eq!(key_hash(&key), reference::fnv(&key), "{key:?}");
                    for shards in 1..=16 {
                        let lru: ShardedLru<()> = ShardedLru::new(64, shards);
                        assert_eq!(
                            lru.shard_index(key_hash(&key)),
                            reference::shard_index(&key, shards),
                            "{key:?} over {shards} shards"
                        );
                    }
                    keys += 1;
                }
            }
        }
        assert_eq!(keys, topologies.len() * routers.len() * 4);
        // Canonical keys of real instances, translated and reflected.
        for seed in 0..40 {
            let side = 6 + seed as usize % 11;
            let grid = Grid::new(side, side);
            let pi = generators::random(grid.len(), seed);
            let key = canonicalize(grid, &pi).key("ats");
            assert_eq!(key_hash(&key), reference::fnv(&key), "seed {seed}");
        }
    }

    fn key(tag: usize) -> CanonicalKey {
        // Distinct degenerate keys for LRU plumbing tests.
        CanonicalKey {
            router: "ats".to_string(),
            topology: Topology::grid(1, tag + 1),
            perm: vec![0; tag + 1],
        }
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        // Single shard, capacity 2: the *least recently used* entry goes,
        // and a get() refreshes recency.
        let lru: ShardedLru<usize> = ShardedLru::new(2, 1);
        lru.insert(key(0), 10);
        lru.insert(key(1), 11);
        assert_eq!(lru.get(&key(0)), Some(10)); // 1 is now LRU
        lru.insert(key(2), 12); // evicts 1
        assert_eq!(lru.get(&key(1)), None);
        assert_eq!(lru.get(&key(0)), Some(10));
        assert_eq!(lru.get(&key(2)), Some(12));
        let stats = lru.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reinserting_refreshes_instead_of_evicting() {
        let lru: ShardedLru<usize> = ShardedLru::new(2, 1);
        lru.insert(key(0), 1);
        lru.insert(key(1), 2);
        lru.insert(key(0), 3); // refresh, not a third entry
        assert_eq!(lru.stats().evictions, 0);
        assert_eq!(lru.get(&key(0)), Some(3));
        lru.insert(key(2), 4); // now key(1) is LRU
        assert_eq!(lru.get(&key(1)), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let lru: ShardedLru<usize> = ShardedLru::new(0, 8);
        lru.insert(key(0), 1);
        assert_eq!(lru.get(&key(0)), None);
        assert_eq!(lru.stats().misses, 1);
        assert_eq!(lru.stats().hits, 0);
        assert_eq!(lru.get_or_insert_with(&key(0), || 2), (2, true));
        assert_eq!(lru.get(&key(0)), None, "nothing is ever stored");
    }

    #[test]
    fn get_or_insert_matches_get_plus_insert_counters() {
        let lru: ShardedLru<usize> = ShardedLru::new(2, 1);
        assert_eq!(lru.get_or_insert_with(&key(0), || 10), (10, true));
        assert_eq!(lru.get_or_insert_with(&key(0), || 99), (10, false));
        assert_eq!(lru.get_or_insert_with(&key(1), || 11), (11, true));
        // key(0) was touched by its hit, so key(1) is... no: the hit on
        // key(0) predates key(1)'s insert, making key(0) the LRU entry.
        assert_eq!(lru.get_or_insert_with(&key(2), || 12), (12, true));
        let stats = lru.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        assert_eq!(lru.get(&key(0)), None, "LRU entry evicted");
        assert_eq!(lru.get(&key(1)), Some(11));
        assert_eq!(lru.get(&key(2)), Some(12));
    }

    #[test]
    fn both_lookups_trace_one_miss_per_counted_miss() {
        use qroute_obs::trace::{with_subscriber, MemorySubscriber, Subscriber};
        use std::sync::Arc;
        // At capacity 0 every one of the six calls misses; at capacity 8
        // only the first lookup of each key does.
        for (capacity, misses) in [(0, 6), (8, 3)] {
            let lru: ShardedLru<usize> = ShardedLru::new(capacity, 8);
            let subscriber = Arc::new(MemorySubscriber::new());
            with_subscriber(Arc::clone(&subscriber) as Arc<dyn Subscriber>, || {
                lru.get(&key(0));
                lru.get_or_insert_with(&key(1), || 1);
                lru.get_or_insert_with(&key(1), || 1);
                lru.get(&key(1));
                lru.get_or_insert_with(&key(0), || 0);
                lru.get(&key(0));
            });
            let traced = |name: &str| {
                let prefix = format!("{{\"name\":\"{name}\"");
                let lines = subscriber.lines();
                lines.iter().filter(|l| l.starts_with(&prefix)).count() as u64
            };
            let stats = lru.stats();
            assert_eq!(stats.misses, misses, "capacity {capacity}");
            assert_eq!(traced("cache.miss"), stats.misses, "capacity {capacity}");
            assert_eq!(traced("cache.hit"), stats.hits, "capacity {capacity}");
        }
    }

    #[test]
    fn shard_locked_concurrent_access_keeps_counters_consistent() {
        // 8 threads hammer one shared cache with overlapping key sets:
        // counters must add up exactly (hits + misses == lookups) and
        // every thread racing on the same key must agree on one value —
        // the per-shard locking the daemon relies on.
        use std::sync::Arc;
        // Per-shard budget 32 ≫ 16 keys: even if the fixed hash lumped
        // every key into one shard, nothing could evict.
        let lru: Arc<ShardedLru<usize>> = Arc::new(ShardedLru::new(256, 8));
        const THREADS: usize = 8;
        const OPS: usize = 200;
        const DISTINCT: usize = 16;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let lru = Arc::clone(&lru);
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        let tag = (i + t) % DISTINCT;
                        let (value, _) = lru.get_or_insert_with(&key(tag), || tag * 7);
                        assert_eq!(value, tag * 7, "racing inserters must agree");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = lru.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * OPS) as u64);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, DISTINCT as u64, "one inserter per key");
    }

    #[test]
    fn sharding_never_loses_entries_under_capacity() {
        let lru: ShardedLru<usize> = ShardedLru::new(64, 8);
        for t in 0..32 {
            lru.insert(key(t), t);
        }
        for t in 0..32 {
            assert_eq!(lru.get(&key(t)), Some(t), "tag {t}");
        }
        assert_eq!(lru.stats().evictions, 0);
    }

    #[test]
    fn canonical_identity_is_the_unit_box() {
        let form = canonicalize(Grid::new(6, 6), &Permutation::identity(36));
        let grid = form.topology.as_grid().expect("clean canonical grid");
        assert_eq!((grid.rows(), grid.cols()), (1, 1));
        assert!(form.pi.is_identity());
    }

    #[test]
    fn translation_and_symmetry_collide_on_one_key() {
        // A 2-cycle in the top-left corner, the same pattern translated,
        // reflected, transposed, and on a different grid size: one orbit,
        // one key.
        let base = Grid::new(6, 6);
        let mut map: Vec<usize> = (0..36).collect();
        map.swap(base.index(0, 0), base.index(0, 1));
        let pi = Permutation::from_vec(map).unwrap();
        let reference = canonicalize(base, &pi).key("ats");

        let mut translated: Vec<usize> = (0..36).collect();
        translated.swap(base.index(4, 3), base.index(4, 4));
        let vertical: Grid = base;
        let mut vert_map: Vec<usize> = (0..36).collect();
        vert_map.swap(vertical.index(2, 5), vertical.index(3, 5));
        let other = Grid::new(9, 4);
        let mut other_map: Vec<usize> = (0..36).collect();
        other_map.swap(other.index(8, 2), other.index(8, 3));
        for (grid, map) in [(base, translated), (vertical, vert_map), (other, other_map)] {
            let key = canonicalize(grid, &Permutation::from_vec(map).unwrap()).key("ats");
            assert_eq!(key, reference);
        }
    }

    #[test]
    fn canonical_box_prefers_smaller_row_count() {
        // A vertical 2-cycle canonicalizes to the 1x2 (not 2x1) box.
        let grid = Grid::new(5, 5);
        let mut map: Vec<usize> = (0..25).collect();
        map.swap(grid.index(1, 2), grid.index(2, 2));
        let form = canonicalize(grid, &Permutation::from_vec(map).unwrap());
        let boxed = form.topology.as_grid().expect("clean canonical grid");
        assert_eq!((boxed.rows(), boxed.cols()), (1, 2));
    }

    #[test]
    fn replay_realizes_the_original_instance() {
        let grid = Grid::new(7, 5);
        let graph = grid.to_graph();
        for seed in 0..6 {
            let pi = generators::block_local(grid, 3, 3, seed);
            let form = canonicalize(grid, &pi);
            let canonical_grid = form.topology.as_grid().expect("clean canonical grid");
            for router in [RouterKind::locality_aware(), RouterKind::Ats] {
                let canonical_schedule = router.route(canonical_grid, &form.pi);
                let replayed = form.replay(&canonical_schedule);
                assert_eq!(replayed.depth(), canonical_schedule.depth());
                assert_eq!(replayed.size(), canonical_schedule.size());
                replayed.validate_on(&graph).unwrap();
                assert!(
                    replayed.realizes(&pi),
                    "{} seed {seed}: replay must realize the original",
                    router.name()
                );
            }
        }
    }

    /// Conjugate a defective-grid instance by a dihedral symmetry of its
    /// full grid: the transformed instance is "the same physical
    /// situation seen in a mirror" and must share a canonical key.
    fn conjugate(
        grid: Grid,
        sym: GridSymmetry,
        defects: &[usize],
        dead_edges: &[(usize, usize)],
        pi: &Permutation,
    ) -> (Topology, Permutation) {
        let mut table = vec![0usize; grid.len()];
        for v in 0..grid.len() {
            table[sym.apply(grid, v)] = sym.apply(grid, pi.apply(v));
        }
        let defects: Vec<usize> = defects.iter().map(|&v| sym.apply(grid, v)).collect();
        let dead_edges: Vec<(usize, usize)> = dead_edges
            .iter()
            .map(|&(u, v)| (sym.apply(grid, u), sym.apply(grid, v)))
            .collect();
        let topology = Topology::grid_with_defects(sym.target(grid), &defects, &dead_edges)
            .expect("conjugated pattern stays valid");
        (topology, Permutation::from_vec_unchecked(table))
    }

    #[test]
    fn defect_orbit_collides_on_one_key() {
        // A 4-cycle around a dead center vertex, versus every dihedral
        // transform of it and a translated copy on a bigger grid: one
        // orbit, one key.
        let grid = Grid::new(5, 5);
        let mut map: Vec<usize> = (0..25).collect();
        let ring = [
            grid.index(1, 1),
            grid.index(1, 3),
            grid.index(3, 3),
            grid.index(3, 1),
        ];
        for w in 0..4 {
            map[ring[w]] = ring[(w + 1) % 4];
        }
        let pi = Permutation::from_vec(map).unwrap();
        let defects = [grid.index(2, 2)];
        let topology = Topology::grid_with_defects(grid, &defects, &[]).unwrap();
        let reference = canonicalize_topology(&topology, &pi).key("ats");
        assert!(
            matches!(reference.topology, Topology::GridWithDefects { .. }),
            "in-box defect must survive canonicalization"
        );

        for sym in GridSymmetry::all() {
            let (topology, pi) = conjugate(grid, sym, &defects, &[], &pi);
            assert_eq!(
                canonicalize_topology(&topology, &pi).key("ats"),
                reference,
                "{sym:?}"
            );
        }

        // Same pattern translated to the bottom-right of a 7×8 grid.
        let big = Grid::new(7, 8);
        let mut map: Vec<usize> = (0..big.len()).collect();
        let ring = [
            big.index(3, 4),
            big.index(3, 6),
            big.index(5, 6),
            big.index(5, 4),
        ];
        for w in 0..4 {
            map[ring[w]] = ring[(w + 1) % 4];
        }
        let topology = Topology::grid_with_defects(big, &[big.index(4, 5)], &[]).unwrap();
        let key = canonicalize_topology(&topology, &Permutation::from_vec(map).unwrap()).key("ats");
        assert_eq!(key, reference);
    }

    #[test]
    fn defect_outside_the_box_shares_the_clean_grid_entry() {
        // The dead corner is outside the support box, so the instance
        // canonicalizes to the same pure-grid key as its pristine twin.
        let grid = Grid::new(4, 4);
        let mut map: Vec<usize> = (0..16).collect();
        map.swap(grid.index(0, 0), grid.index(0, 1));
        let pi = Permutation::from_vec(map).unwrap();
        let topology = Topology::grid_with_defects(grid, &[grid.index(3, 3)], &[]).unwrap();
        let defective = canonicalize_topology(&topology, &pi);
        assert_eq!(defective.key("ats"), canonicalize(grid, &pi).key("ats"));
        assert!(defective.topology.as_grid().is_some());
    }

    #[test]
    fn identity_on_a_defective_grid_is_the_clean_unit_box() {
        let grid = Grid::new(3, 3);
        let topology = Topology::grid_with_defects(grid, &[0], &[]).unwrap();
        let form = canonicalize_topology(&topology, &Permutation::identity(9));
        let unit = form.topology.as_grid().expect("clean canonical grid");
        assert_eq!((unit.rows(), unit.cols()), (1, 1));
        assert!(form.pi.is_identity());
    }

    #[test]
    fn stranded_box_falls_back_to_the_full_frame() {
        // Swapping (1,1) ↔ (1,3) with (1,2) dead: the 1×3 support box is
        // cut in half, so the canonical frame must widen to the full grid
        // (where the detour around the dead vertex exists).
        let grid = Grid::new(5, 5);
        let mut map: Vec<usize> = (0..25).collect();
        map.swap(grid.index(1, 1), grid.index(1, 3));
        let pi = Permutation::from_vec(map).unwrap();
        let topology = Topology::grid_with_defects(grid, &[grid.index(1, 2)], &[]).unwrap();
        let form = canonicalize_topology(&topology, &pi);
        assert_eq!(form.topology.len(), 25, "full-frame fallback");
        let schedule = RouterKind::Ats
            .route_on(&form.topology, &form.pi)
            .expect("ats routes any connected topology");
        let replayed = form.replay(&schedule);
        replayed.validate_on(&topology.graph()).unwrap();
        assert!(replayed.realizes(&pi));
    }

    #[test]
    fn boxed_defective_replay_realizes_the_original() {
        // In-box dead vertex and dead edge: route the canonical
        // representative, replay, and check validity on the original.
        let grid = Grid::new(6, 6);
        let mut map: Vec<usize> = (0..36).collect();
        let ring = [
            grid.index(2, 2),
            grid.index(2, 4),
            grid.index(4, 4),
            grid.index(4, 2),
        ];
        for w in 0..4 {
            map[ring[w]] = ring[(w + 1) % 4];
        }
        let pi = Permutation::from_vec(map).unwrap();
        let dead_edges = [(grid.index(2, 2), grid.index(2, 3))];
        let topology = Topology::grid_with_defects(grid, &[grid.index(3, 3)], &dead_edges).unwrap();
        let form = canonicalize_topology(&topology, &pi);
        assert!(matches!(form.topology, Topology::GridWithDefects { .. }));
        let schedule = RouterKind::Ats
            .route_on(&form.topology, &form.pi)
            .expect("ats routes any connected topology");
        let replayed = form.replay(&schedule);
        assert_eq!(replayed.depth(), schedule.depth());
        replayed.validate_on(&topology.graph()).unwrap();
        assert!(replayed.realizes(&pi));
    }
}
