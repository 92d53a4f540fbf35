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
//! Rounds are returned in *position space* (`(p, p+1)` pairs with
//! `0 <= p < L-1`); callers map positions to grid vertex ids.

use std::borrow::Cow;

/// Which edge parity the first round compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstParity {
    /// Start with edges `(0,1), (2,3), …`.
    Even,
    /// Start with edges `(1,2), (3,4), …`.
    Odd,
}

/// Rounds of disjoint swaps on a line, stored flat: round `k` is
/// `swaps()[ends()[k - 1]..ends()[k]]` (from 0 for `k = 0`). Borrowed
/// from a [`LineScratch`], or owned when a factor router maps them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRounds<'a> {
    swaps: Cow<'a, [(u32, u32)]>,
    ends: Cow<'a, [usize]>,
}

impl<'a> LineRounds<'a> {
    /// Owned rounds from every swap in order and each round's end offset.
    ///
    /// # Panics
    /// Panics when the end offsets decrease or the last one is not
    /// `swaps.len()`.
    pub fn new(swaps: Vec<(u32, u32)>, ends: Vec<usize>) -> LineRounds<'static> {
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1])
                && ends.last().copied().unwrap_or(0) == swaps.len(),
            "round ends must rise to the swap count"
        );
        LineRounds { swaps: Cow::Owned(swaps), ends: Cow::Owned(ends) }
    }

    /// Number of rounds.
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Every swap, round after round.
    pub fn swaps(&self) -> &[(u32, u32)] {
        &self.swaps
    }

    /// The end offset of every round in [`LineRounds::swaps`].
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// The rounds in order.
    pub fn iter(&self) -> impl Iterator<Item = &[(u32, u32)]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(self.ends.iter().copied())
            .map(|(from, to)| &self.swaps[from..to])
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

/// Recycled round storage. `swaps` only grows: its first `ends.last()`
/// entries hold the current routing, so a round can write a slot for
/// every pair it compares and keep those that swapped.
#[derive(Debug, Default)]
struct RoundBuf {
    swaps: Vec<(u32, u32)>,
    ends: Vec<usize>,
}

impl RoundBuf {
    fn as_rounds(&self) -> LineRounds<'_> {
        let used = self.ends.last().copied().unwrap_or(0);
        LineRounds { swaps: Cow::Borrowed(&self.swaps[..used]), ends: Cow::Borrowed(&self.ends) }
    }
}

/// Reusable scratch buffers for odd–even transposition routing.
///
/// The 3-phase grid router routes `2n + m` lines per call (and twice that
/// with the transpose trick); a shared scratch turns every one of those
/// routings into zero fresh allocations once the buffers have warmed up.
/// Results borrow the scratch until its next routing call.
#[derive(Debug, Default)]
pub struct LineScratch {
    key: Vec<usize>,
    rounds: RoundBuf,
    rounds_alt: RoundBuf,
}

impl LineScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> LineScratch {
        LineScratch::default()
    }

    /// Route `targets` starting with parity `first`; the rounds live in
    /// the scratch until the next routing call.
    pub fn route(&mut self, targets: &[usize], first: FirstParity) -> LineRounds<'_> {
        route_into(targets, first, &mut self.key, &mut self.rounds);
        self.rounds.as_rounds()
    }

    /// Route with both starting parities and keep the shallower schedule
    /// (ties prefer even-first, matching the deterministic baseline).
    pub fn route_best(&mut self, targets: &[usize]) -> LineRounds<'_> {
        route_into(targets, FirstParity::Even, &mut self.key, &mut self.rounds);
        route_into(
            targets,
            FirstParity::Odd,
            &mut self.key,
            &mut self.rounds_alt,
        );
        if self.rounds_alt.ends.len() < self.rounds.ends.len() {
            self.rounds_alt.as_rounds()
        } else {
            self.rounds.as_rounds()
        }
    }
}

/// The odd–even transposition core, writing rounds into recycled buffers.
fn route_into(targets: &[usize], first: FirstParity, key: &mut Vec<usize>, buf: &mut RoundBuf) {
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
    // Odd-even transposition sort completes within l rounds; we allow one
    // extra slack round for the parity offset and assert completion.
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
        // The round's pairs inside the window: `(p, p+1)` from the first
        // `p >= lo` of the round's parity while `p + 1 < hi`.
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
            // Branch-free compare-exchange: the slot is always written
            // and kept only when the pair swapped.
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
    debug_assert!(
        key.iter().enumerate().all(|(p, &k)| p == k),
        "odd-even transposition failed to sort within L+1 rounds"
    );
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
