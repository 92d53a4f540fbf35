//! Odd–even transposition routing on a path.
//!
//! Each phase of the 3-phase grid algorithm routes a permutation *within*
//! a row or column — a path graph. The classic odd–even transposition sort
//! realizes any permutation of a path with `L` vertices in at most `L`
//! rounds, where each round is a matching of alternating edges. Crucially
//! for the locality-aware router, the sort finishes early on
//! almost-sorted inputs: tokens that only need to move a short distance
//! produce shallow line schedules, which is exactly how small `Δ` values
//! turn into small depth.
//!
//! The sort keeps a window `[lo, hi)` from the first to past the last
//! misplaced position, and each round compares only the pairs inside it.
//! A position left of `lo` holds its own index, so the values left of
//! `lo` are exactly `0..lo`: every one of them is smaller than every value
//! right of it, and no pair that touches the sorted prefix can swap
//! again; the sorted suffix likewise. The window only shrinks, its ends
//! move over each position once, and a round with no misplaced position
//! left is never started — no per-round scan of the whole line.
//!
//! A line is routed by a [`LinePlan`]: the factor vertex its positions
//! start at (a path starts at 0; a cycle cut open after edge `c` starts at
//! `c + 1` and wraps around) and the parity of its first round. One
//! routine advances a line by its next non-empty round, and every walk
//! runs on it:
//!
//! - a depth-only count, [`LineScratch::count_below`], which writes no
//!   swap and is how plans are chosen;
//! - a lockstep batch (`LineBatch`), which advances every line of a phase
//!   by one non-empty round per step, lines in order, positions ascending.
//!   Step `k` holds every line's `k`-th non-empty round: one layer of the
//!   phase, in the order the layer lists its swaps;
//! - a one-line route ([`LineScratch::route`]), which writes each round
//!   straight behind the previous ones.
//!
//! Rounds are reported as pairs `(a, b)` of factor vertices, `b` the
//! position after `a` on the line; with start 0 they are the positions
//! `(p, p + 1)` themselves.

/// Which edge parity the first round compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstParity {
    /// Start with edges `(0,1), (2,3), …`.
    Even,
    /// Start with edges `(1,2), (3,4), …`.
    Odd,
}

/// How one line is routed: its position `p` is factor vertex
/// `(start + p) mod L`, and its first round compares `first`-parity
/// position pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinePlan {
    /// The factor vertex at position 0.
    pub start: usize,
    /// The parity of the first round.
    pub first: FirstParity,
}

/// What routing a line by a plan costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCost {
    /// Non-empty rounds.
    pub depth: usize,
    /// Swaps.
    pub swaps: usize,
}

/// Rounds of disjoint swaps on a line, stored flat: round `k` is
/// `swaps()[ends()[k - 1]..ends()[k]]` (from 0 for `k = 0`), borrowed from
/// a [`LineScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRounds<'a> {
    swaps: &'a [(u32, u32)],
    ends: &'a [usize],
}

impl<'a> LineRounds<'a> {
    /// Number of rounds.
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Every swap, round after round.
    pub fn swaps(&self) -> &'a [(u32, u32)] {
        self.swaps
    }

    /// The end offset of every round in [`LineRounds::swaps`].
    pub fn ends(&self) -> &'a [usize] {
        self.ends
    }

    /// The rounds in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [(u32, u32)]> + 'a {
        let (swaps, ends) = (self.swaps, self.ends);
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(ends.iter().copied())
            .map(move |(from, to)| &swaps[from..to])
    }

    /// One vector of `usize` pairs per round.
    pub fn to_vecs(&self) -> Vec<Vec<(usize, usize)>> {
        self.iter()
            .map(|round| {
                round
                    .iter()
                    .map(|&(a, b)| (a as usize, b as usize))
                    .collect()
            })
            .collect()
    }
}

/// One line's sort in progress: the window `[lo, hi)` that still holds
/// its misplaced positions, and the parity of its next round.
#[derive(Debug, Clone, Copy)]
struct Sort {
    lo: usize,
    hi: usize,
    parity: usize,
}

impl Sort {
    fn new(len: usize, first: FirstParity) -> Sort {
        let parity = match first {
            FirstParity::Even => 0,
            FirstParity::Odd => 1,
        };
        Sort { lo: 0, hi: len, parity }
    }

    /// Advance `key` by its next non-empty round and return the round's
    /// swap count, or 0 once the line is sorted. An empty round still
    /// flips the parity. With `EMIT`, every swap's positions `(p, p + 1)`
    /// are written to `out`, ascending, which must hold `L / 2` slots;
    /// without it no slot is written. Odd–even transposition sorts any
    /// line within `L` rounds, so the loop ends.
    #[inline]
    fn round<const EMIT: bool>(&mut self, key: &mut [u32], out: &mut [(u32, u32)]) -> usize {
        loop {
            let Sort { mut lo, mut hi, parity } = *self;
            while lo < hi && key[lo] as usize == lo {
                lo += 1;
            }
            while lo < hi && key[hi - 1] as usize == hi - 1 {
                hi -= 1;
            }
            *self = Sort { lo, hi, parity: parity ^ 1 };
            if lo == hi {
                return 0;
            }
            // The round's pairs inside the window: `(p, p+1)` from the
            // first `p >= lo` of the round's parity while `p + 1 < hi`.
            let start = lo + ((lo ^ parity) & 1);
            let pairs = (hi - start) / 2;
            let mut swapped = 0;
            for (i, pair) in key[start..start + 2 * pairs]
                .chunks_exact_mut(2)
                .enumerate()
            {
                // Branch-free compare-exchange: the slot is always
                // written and kept only when the pair swapped.
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a.min(b);
                pair[1] = a.max(b);
                if EMIT {
                    let p = (start + 2 * i) as u32;
                    out[swapped] = (p, p + 1);
                }
                swapped += usize::from(a > b);
            }
            if swapped > 0 {
                return swapped;
            }
        }
    }
}

/// Load the sort key of a line whose position `p` is factor vertex
/// `(start + p) mod L`: `key[p]` is the destination position of the
/// token at position `p`, where `targets[v]` is the destination vertex
/// of the token at vertex `v`.
///
/// # Panics
/// Panics when the line has more than `u32::MAX` positions, and (debug)
/// when `targets` is not a permutation of `0..L`.
fn load(key: &mut [u32], targets: &[usize], start: usize) {
    let l = targets.len();
    assert!(
        u32::try_from(l).is_ok(),
        "a line of {l} positions overflows u32"
    );
    debug_assert!({
        let mut seen = vec![false; l];
        targets
            .iter()
            .all(|&t| t < l && !std::mem::replace(&mut seen[t], true))
    });
    if start == 0 {
        for (k, &t) in key.iter_mut().zip(targets) {
            *k = t as u32;
        }
        return;
    }
    let position = |v: usize| if v >= start { v - start } else { v + l - start };
    for (v, &t) in targets.iter().enumerate() {
        key[position(v)] = position(t) as u32;
    }
}

/// Lines of one length routed in lockstep: each step advances every
/// unfinished line by its next non-empty round.
#[derive(Debug, Default)]
pub(crate) struct LineBatch {
    len: usize,
    /// Line `c`'s sort key is `keys[c·len..(c + 1)·len]`.
    keys: Vec<u32>,
    /// Line `c`'s sort and start vertex.
    lines: Vec<(Sort, usize)>,
    /// The unfinished lines, in order.
    active: Vec<usize>,
    /// The positions of one round's swaps.
    round: Vec<(u32, u32)>,
}

impl LineBatch {
    /// Start routing every `(targets, plan)` line of `len` positions.
    pub(crate) fn load<'t>(
        &mut self,
        lines: impl IntoIterator<Item = (&'t [usize], LinePlan)>,
        len: usize,
    ) {
        self.len = len;
        self.keys.clear();
        self.lines.clear();
        self.active.clear();
        self.round.resize(len / 2, (0, 0));
        for (c, (targets, plan)) in lines.into_iter().enumerate() {
            assert_eq!(targets.len(), len, "the lines of a batch share a length");
            let from = self.keys.len();
            self.keys.resize(from + len, 0);
            load(&mut self.keys[from..], targets, plan.start);
            self.lines.push((Sort::new(len, plan.first), plan.start));
            self.active.push(c);
        }
    }

    /// Advance every unfinished line by its next non-empty round, lines
    /// in order, and hand each line's round to `each`. Returns `false`,
    /// and hands over nothing, once every line is sorted.
    pub(crate) fn step(&mut self, mut each: impl FnMut(Round<'_>)) -> bool {
        let LineBatch { len, keys, lines, active, round } = self;
        let len = *len;
        let mut kept = 0;
        for i in 0..active.len() {
            let c = active[i];
            let (sort, start) = &mut lines[c];
            let swaps = sort.round::<true>(&mut keys[c * len..(c + 1) * len], round);
            if swaps == 0 {
                continue;
            }
            each(Round { line: c, start: *start, len, positions: &round[..swaps] });
            active[kept] = c;
            kept += 1;
        }
        active.truncate(kept);
        kept > 0
    }
}

/// One line's round in a lockstep step.
pub(crate) struct Round<'a> {
    /// The line's index in its batch.
    pub(crate) line: usize,
    start: usize,
    len: usize,
    /// The positions of every swap, ascending.
    positions: &'a [(u32, u32)],
}

impl Round<'_> {
    /// The round's swaps as factor vertex pairs, positions ascending.
    pub(crate) fn swaps(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let (start, len) = (self.start, self.len);
        self.positions
            .iter()
            .map(move |&(p, q)| (wrap(p, start, len), wrap(q, start, len)))
    }
}

/// Position `p` of a line of `len` positions from factor vertex `start`:
/// vertex `start + p`, wrapped once.
#[inline]
fn wrap(p: u32, start: usize, len: usize) -> usize {
    let v = p as usize + start;
    if v >= len {
        v - len
    } else {
        v
    }
}

/// Reusable buffers for odd–even transposition routing.
///
/// The 3-phase grid router counts and lays out `2n + m` lines per pass;
/// a shared scratch turns every one of those routings into zero fresh
/// allocations once the buffers have warmed up. Rounds borrow the scratch
/// until its next routing call.
#[derive(Debug, Default)]
pub struct LineScratch {
    /// The depth-only count's sort key.
    key: Vec<u32>,
    batch: LineBatch,
    /// The rounds of one-line routings.
    rounds: RoundBuf,
    rounds_alt: RoundBuf,
}

/// Recycled round storage for one-line routings.
#[derive(Debug, Default)]
struct RoundBuf {
    swaps: Vec<(u32, u32)>,
    ends: Vec<usize>,
}

impl RoundBuf {
    /// Route `targets` by `plan` into the buffers, each round written
    /// straight into the slots behind the previous rounds.
    fn lay_out(&mut self, key: &mut Vec<u32>, targets: &[usize], plan: LinePlan) {
        let RoundBuf { swaps, ends } = self;
        let l = targets.len();
        ends.clear();
        key.resize(l, 0);
        load(&mut key[..l], targets, plan.start);
        let mut sort = Sort::new(l, plan.first);
        let mut used = 0;
        loop {
            swaps.resize(swaps.len().max(used + l / 2), (0, 0));
            let round = sort.round::<true>(&mut key[..l], &mut swaps[used..]);
            if round == 0 {
                break;
            }
            used += round;
            ends.push(used);
        }
        swaps.truncate(used);
        if plan.start != 0 {
            for swap in swaps.iter_mut() {
                *swap = (
                    wrap(swap.0, plan.start, l) as u32,
                    wrap(swap.1, plan.start, l) as u32,
                );
            }
        }
    }

    fn as_rounds(&self) -> LineRounds<'_> {
        LineRounds { swaps: &self.swaps, ends: &self.ends }
    }
}

impl LineScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> LineScratch {
        LineScratch::default()
    }

    /// What routing `targets` by `plan` costs, counted depth-only (no
    /// swap is recorded) and given up once the depth reaches `cap`:
    /// `None` when the plan is not strictly shallower than `cap`.
    pub fn count_below(
        &mut self,
        targets: &[usize],
        plan: LinePlan,
        cap: usize,
    ) -> Option<LineCost> {
        if cap == 0 {
            return None;
        }
        let l = targets.len();
        self.key.resize(l, 0);
        let key = &mut self.key[..l];
        load(key, targets, plan.start);
        let mut sort = Sort::new(l, plan.first);
        let mut cost = LineCost::default();
        loop {
            let swaps = sort.round::<false>(key, &mut []);
            if swaps == 0 {
                break;
            }
            cost.depth += 1;
            cost.swaps += swaps;
            if cost.depth >= cap {
                return None;
            }
        }
        debug_assert!(cost.depth <= l, "odd-even transposition took over L rounds");
        Some(cost)
    }

    /// The plan from `start` with the shallower first parity (ties prefer
    /// even-first, matching the deterministic baseline), and its cost;
    /// `None` when neither parity is strictly shallower than `cap`. The
    /// odd count stops once it is no shallower than the even one.
    pub fn best_below(
        &mut self,
        targets: &[usize],
        start: usize,
        cap: usize,
    ) -> Option<(LinePlan, LineCost)> {
        let even = LinePlan { start, first: FirstParity::Even };
        let odd = LinePlan { start, first: FirstParity::Odd };
        let even_cost = self.count_below(targets, even, cap);
        let odd_cap = even_cost.map_or(cap, |cost| cost.depth);
        match self.count_below(targets, odd, odd_cap) {
            Some(odd_cost) => Some((odd, odd_cost)),
            None => even_cost.map(|cost| (even, cost)),
        }
    }

    /// Route `targets` by `plan` alone; the rounds, as factor vertex
    /// pairs, live in the scratch until the next routing call.
    pub fn route_by(&mut self, targets: &[usize], plan: LinePlan) -> LineRounds<'_> {
        self.rounds.lay_out(&mut self.key, targets, plan);
        self.rounds.as_rounds()
    }

    /// Route `targets` starting with parity `first`; the rounds live in
    /// the scratch until the next routing call.
    pub fn route(&mut self, targets: &[usize], first: FirstParity) -> LineRounds<'_> {
        self.route_by(targets, LinePlan { start: 0, first })
    }

    /// Route with both starting parities and keep the shallower schedule
    /// (ties prefer even-first, matching the deterministic baseline). Both
    /// are laid out, so the kept one is not routed a third time.
    pub fn route_best(&mut self, targets: &[usize]) -> LineRounds<'_> {
        let LineScratch { key, rounds, rounds_alt, .. } = self;
        rounds.lay_out(
            key,
            targets,
            LinePlan { start: 0, first: FirstParity::Even },
        );
        rounds_alt.lay_out(key, targets, LinePlan { start: 0, first: FirstParity::Odd });
        if rounds_alt.ends.len() < rounds.ends.len() {
            rounds_alt.as_rounds()
        } else {
            rounds.as_rounds()
        }
    }

    /// The lockstep batch, for the 3-phase engine's walks.
    pub(crate) fn batch(&mut self) -> &mut LineBatch {
        &mut self.batch
    }
}

/// Route the permutation `targets` (`targets[p]` = destination position of
/// the token currently at position `p`) on a path, starting with the given
/// parity. Returns rounds of disjoint adjacent transpositions; empty
/// rounds are skipped but parity still alternates per round slot.
///
/// Allocates a fresh result; loops over many lines should reuse a
/// [`LineScratch`] instead.
///
/// # Panics
/// Panics (debug) if `targets` is not a permutation of `0..L`.
pub fn route_line(targets: &[usize], first: FirstParity) -> Vec<Vec<(usize, usize)>> {
    LineScratch::new().route(targets, first).to_vecs()
}

/// Route with both starting parities and keep the shallower schedule
/// (ties prefer even-first, matching the deterministic baseline).
pub fn route_line_best(targets: &[usize]) -> Vec<Vec<(usize, usize)>> {
    LineScratch::new().route_best(targets).to_vecs()
}

/// Apply position-space rounds to a token array (test helper / verifier).
pub fn apply_rounds(rounds: &[Vec<(usize, usize)>], tokens: &mut [usize]) {
    for round in rounds {
        for &(a, b) in round {
            tokens.swap(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-line kernel the lockstep batch replaced, verbatim: one
    /// line routed to the end, each round's slots written behind the
    /// previous rounds' and kept when the pair swapped.
    mod per_line {
        use super::super::FirstParity;

        #[derive(Debug, Default)]
        pub struct RoundBuf {
            pub swaps: Vec<(u32, u32)>,
            pub ends: Vec<usize>,
        }

        pub fn route_into(
            targets: &[usize],
            first: FirstParity,
            key: &mut Vec<usize>,
            buf: &mut RoundBuf,
        ) {
            let l = targets.len();
            buf.ends.clear();
            if l <= 1 {
                return;
            }
            key.clear();
            key.extend_from_slice(targets);
            let mut parity = match first {
                FirstParity::Even => 0usize,
                FirstParity::Odd => 1usize,
            };
            let (mut lo, mut hi) = (0, l);
            let mut used = 0;
            for _ in 0..=l {
                while lo < hi && key[lo] == lo {
                    lo += 1;
                }
                while lo < hi && key[hi - 1] == hi - 1 {
                    hi -= 1;
                }
                if lo == hi {
                    break;
                }
                let start = lo + ((lo ^ parity) & 1);
                let pairs = (hi - start) / 2;
                if buf.swaps.len() < used + pairs {
                    buf.swaps.resize(used + pairs, (0, 0));
                }
                let out = &mut buf.swaps[used..used + pairs];
                let mut swapped = 0;
                for (i, pair) in key[start..start + 2 * pairs]
                    .chunks_exact_mut(2)
                    .enumerate()
                {
                    let (a, b) = (pair[0], pair[1]);
                    pair[0] = a.min(b);
                    pair[1] = a.max(b);
                    let p = (start + 2 * i) as u32;
                    out[swapped] = (p, p + 1);
                    swapped += usize::from(a > b);
                }
                if swapped > 0 {
                    used += swapped;
                    buf.ends.push(used);
                }
                parity ^= 1;
            }
        }

        /// The rounds `route_into` lays out, one vector per round.
        pub fn route(targets: &[usize], first: FirstParity) -> Vec<Vec<(usize, usize)>> {
            let mut buf = RoundBuf::default();
            route_into(targets, first, &mut Vec::new(), &mut buf);
            let mut from = 0;
            buf.ends
                .iter()
                .map(|&to| {
                    let round = buf.swaps[from..to]
                        .iter()
                        .map(|&(a, b)| (a as usize, b as usize))
                        .collect();
                    from = to;
                    round
                })
                .collect()
        }
    }

    fn perms(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in perms(n - 1) {
            for pos in 0..=p.len() {
                let mut q = p.clone();
                q.insert(pos, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn one_line_batches_match_the_per_line_kernel() {
        // Every permutation up to 8 positions, then reversals and
        // rotations of longer lines, each from both parities; the counts
        // must agree with the rounds the batch lays out.
        let mut scratch = LineScratch::new();
        let mut cases: Vec<Vec<usize>> = (0..=8).flat_map(perms).collect();
        for l in [9, 16, 31, 64] {
            cases.push((0..l).rev().collect());
            cases.push((0..l).map(|p| (p + 3) % l).collect());
            cases.push((0..l).map(|p| p ^ 1).filter(|&p| p < l).collect());
        }
        for t in &cases {
            for first in [FirstParity::Even, FirstParity::Odd] {
                let want = per_line::route(t, first);
                assert_eq!(scratch.route(t, first).to_vecs(), want, "{t:?} {first:?}");
                let cost = scratch.count_below(t, LinePlan { start: 0, first }, usize::MAX);
                let cost = cost.expect("no cap");
                assert_eq!(cost.depth, want.len(), "{t:?} {first:?} depth");
                assert_eq!(cost.swaps, want.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    #[test]
    fn a_plan_start_rotates_the_line() {
        // Routing from start s is routing the rotated targets and naming
        // position p as vertex (s + p) mod L.
        let mut scratch = LineScratch::new();
        let l = 7;
        for t in [vec![1, 2, 3, 4, 5, 6, 0], vec![6, 5, 4, 3, 2, 1, 0]] {
            for start in 0..l {
                let rotated: Vec<usize> = (0..l)
                    .map(|p| (t[(p + start) % l] + l - start) % l)
                    .collect();
                for first in [FirstParity::Even, FirstParity::Odd] {
                    let want: Vec<Vec<(usize, usize)>> = per_line::route(&rotated, first)
                        .into_iter()
                        .map(|round| {
                            round
                                .into_iter()
                                .map(|(a, b)| ((a + start) % l, (b + start) % l))
                                .collect()
                        })
                        .collect();
                    let got = scratch.route_by(&t, LinePlan { start, first }).to_vecs();
                    assert_eq!(got, want, "{t:?} start {start} {first:?}");
                }
            }
        }
    }

    fn realizes(targets: &[usize], rounds: &[Vec<(usize, usize)>]) -> bool {
        // Token at position p must end at targets[p]: final position of
        // token initially at p equals targets[p].
        let l = targets.len();
        let mut at: Vec<usize> = (0..l).collect();
        apply_rounds(rounds, &mut at);
        // at[pos] = original position of token now at pos.
        (0..l).all(|pos| targets[at[pos]] == pos)
    }

    #[test]
    fn identity_needs_no_rounds() {
        let t: Vec<usize> = (0..8).collect();
        assert!(route_line(&t, FirstParity::Even).is_empty());
    }

    #[test]
    fn trivial_sizes() {
        assert!(route_line(&[], FirstParity::Even).is_empty());
        assert!(route_line(&[0], FirstParity::Odd).is_empty());
        let r = route_line(&[1, 0], FirstParity::Even);
        assert_eq!(r, vec![vec![(0, 1)]]);
    }

    #[test]
    fn odd_parity_first_on_swap_at_odd_edge() {
        // Tokens 1<->2 swapped: odd-first solves in 1 round, even-first in
        // more.
        let t = vec![0, 2, 1, 3];
        let odd = route_line(&t, FirstParity::Odd);
        assert_eq!(odd.len(), 1);
        let best = route_line_best(&t);
        assert_eq!(best.len(), 1);
    }

    #[test]
    fn reversal_takes_l_rounds() {
        for l in 2..10 {
            let t: Vec<usize> = (0..l).rev().collect();
            let r = route_line_best(&t);
            assert!(realizes(&t, &r));
            assert!(r.len() <= l, "reversal of {l} took {} rounds", r.len());
            // Reversal is the worst case; it needs at least l-1 rounds.
            assert!(r.len() >= l - 1);
        }
    }

    #[test]
    fn all_permutations_of_small_lines_are_realized() {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        for l in 0..7 {
            for t in perms(l) {
                for first in [FirstParity::Even, FirstParity::Odd] {
                    let r = route_line(&t, first);
                    assert!(realizes(&t, &r), "targets {t:?} parity {first:?}");
                    assert!(r.len() <= l, "depth bound violated for {t:?}");
                }
            }
        }
    }

    #[test]
    fn local_shift_is_shallow() {
        // A single adjacent transposition far from others finishes fast.
        let mut t: Vec<usize> = (0..64).collect();
        t.swap(10, 11);
        t.swap(40, 41);
        let r = route_line_best(&t);
        assert!(r.len() <= 2, "local swaps took {} rounds", r.len());
        assert!(realizes(&t, &r));
    }

    #[test]
    fn rounds_are_disjoint_adjacent_pairs() {
        let t: Vec<usize> = (0..9).rev().collect();
        for round in route_line(&t, FirstParity::Even) {
            let mut used = [false; 9];
            for (a, b) in round {
                assert_eq!(b, a + 1);
                assert!(!used[a] && !used[b]);
                used[a] = true;
                used[b] = true;
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        // A warm scratch (dirty buffers from previous lines) must produce
        // exactly the rounds a fresh allocation produces.
        let mut scratch = LineScratch::new();
        let cases: Vec<Vec<usize>> = vec![
            (0..9).rev().collect(),
            (0..9).collect(),
            vec![5, 0, 1, 2, 3, 4],
            vec![1, 0],
            vec![0],
            vec![],
            vec![0, 2, 1, 3],
        ];
        for t in &cases {
            for first in [FirstParity::Even, FirstParity::Odd] {
                assert_eq!(
                    scratch.route(t, first).to_vecs(),
                    route_line(t, first),
                    "{t:?}"
                );
            }
            assert_eq!(scratch.route_best(t).to_vecs(), route_line_best(t), "{t:?}");
        }
    }

    #[test]
    fn displacement_lower_bound_holds() {
        let t = vec![5, 0, 1, 2, 3, 4]; // token at 0 must travel 5
        let r = route_line_best(&t);
        assert!(realizes(&t, &r));
        assert!(r.len() >= 5);
    }
}
