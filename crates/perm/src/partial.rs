//! Partial permutations (`f : S → R` with `S, R ⊆ V`) and their completion
//! to full permutations.
//!
//! §II of the paper: "Oftentimes, we do not care about the location of some
//! qubits. In such a case, the destinations are given by a bijection
//! `f : S → R` … We can extend `f` to a permutation by selecting
//! destinations for the don't-care qubits. Here we assume this extension has
//! already been determined by the transpiler." This module is that
//! transpiler piece: it owns the extension policies.

use crate::permutation::{PermError, Permutation};
use qroute_topology::Grid;

/// A partial permutation: `dest[v] = Some(w)` pins the token at `v` to end
/// at `w`; `None` marks a don't-care token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialPermutation {
    dest: Vec<Option<usize>>,
    /// The inverse of `dest`: `src_of[w] = Some(v)` iff `dest[v] = Some(w)`.
    src_of: Vec<Option<usize>>,
}

/// Strategy used to place don't-care tokens when completing a partial
/// permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Keep every don't-care token in place when its vertex is a free
    /// destination, then fill the leftovers in index order. Cheap and good
    /// when few tokens are pinned.
    StayInPlace,
    /// Assign each don't-care token to the free destination nearest to it
    /// in L1 distance on the given grid (greedy, token order by increasing
    /// id). Produces more local extensions — the right default for the
    /// locality-aware router.
    NearestFree(Grid),
}

impl PartialPermutation {
    /// An all-don't-care partial permutation on `n` points.
    pub fn new(n: usize) -> PartialPermutation {
        PartialPermutation { dest: vec![None; n], src_of: vec![None; n] }
    }

    /// Build from explicit pinned pairs `(src, dst)`.
    pub fn from_pairs(
        n: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<PartialPermutation, PermError> {
        let mut pp = PartialPermutation::new(n);
        for (s, d) in pairs {
            pp.pin(s, d)?;
        }
        Ok(pp)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.dest.len()
    }

    /// `true` when there are no points at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dest.is_empty()
    }

    /// Pin the token at `src` to destination `dst`.
    ///
    /// Fails if out of range or if `dst` is already claimed by another
    /// source; re-pinning the same `src` overwrites its previous
    /// destination and frees it. `O(1)`.
    pub fn pin(&mut self, src: usize, dst: usize) -> Result<(), PermError> {
        let n = self.dest.len();
        if src >= n || dst >= n {
            return Err(PermError::ImageOutOfRange { src, img: dst, n });
        }
        if self.src_of[dst].is_some_and(|s| s != src) {
            return Err(PermError::NotInjective { img: dst });
        }
        if let Some(old) = self.dest[src] {
            self.src_of[old] = None;
        }
        self.dest[src] = Some(dst);
        self.src_of[dst] = Some(src);
        Ok(())
    }

    /// Destination of the token at `v`, if pinned.
    #[inline]
    pub fn get(&self, v: usize) -> Option<usize> {
        self.dest[v]
    }

    /// Number of pinned tokens.
    pub fn num_pinned(&self) -> usize {
        self.dest.iter().filter(|d| d.is_some()).count()
    }

    /// Complete to a full [`Permutation`] with the given policy.
    pub fn complete(&self, policy: &Completion) -> Permutation {
        let n = self.dest.len();
        let mut map: Vec<Option<usize>> = self.dest.clone();
        let mut taken = vec![false; n];
        for d in map.iter().flatten() {
            taken[*d] = true;
        }

        match policy {
            Completion::StayInPlace => {
                // First pass: fix in place whatever can stay.
                for v in 0..n {
                    if map[v].is_none() && !taken[v] {
                        map[v] = Some(v);
                        taken[v] = true;
                    }
                }
                // Second pass: pour the rest into free slots in order.
                let mut free = (0..n).filter(|&d| !taken[d]);
                for slot in map.iter_mut() {
                    if slot.is_none() {
                        *slot = Some(free.next().expect("free destination must exist"));
                    }
                }
            }
            Completion::NearestFree(grid) => {
                assert_eq!(grid.len(), n, "grid size must match permutation size");
                for (v, slot) in map.iter_mut().enumerate() {
                    if slot.is_some() {
                        continue;
                    }
                    let d = (0..n)
                        .filter(|&d| !taken[d])
                        .min_by_key(|&d| (grid.dist(v, d), d))
                        .expect("free destination must exist");
                    *slot = Some(d);
                    taken[d] = true;
                }
            }
        }
        Permutation::from_vec(map.into_iter().map(|d| d.expect("all assigned")).collect())
            .expect("completion produces a valid permutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_completes_to_identity() {
        let pp = PartialPermutation::new(6);
        assert!(pp.complete(&Completion::StayInPlace).is_identity());
    }

    #[test]
    fn pinned_pairs_respected() {
        let pp = PartialPermutation::from_pairs(5, [(0, 4), (3, 0)]).unwrap();
        let p = pp.complete(&Completion::StayInPlace);
        assert_eq!(p.apply(0), 4);
        assert_eq!(p.apply(3), 0);
    }

    #[test]
    fn stay_in_place_keeps_dont_cares_when_possible() {
        let pp = PartialPermutation::from_pairs(5, [(0, 4)]).unwrap();
        let p = pp.complete(&Completion::StayInPlace);
        // 1, 2, 3 stay; token at 4 must take the leftover slot 0.
        assert_eq!(p.apply(1), 1);
        assert_eq!(p.apply(2), 2);
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.apply(4), 0);
    }

    #[test]
    fn nearest_free_is_local() {
        let grid = Grid::new(2, 3);
        // Pin the token at (0,0) to (0,1); everything else should stay put
        // except the displaced token at (0,1), which should go to the free
        // slot nearest to it — (0,0), at distance 1.
        let pp = PartialPermutation::from_pairs(6, [(grid.index(0, 0), grid.index(0, 1))]).unwrap();
        let p = pp.complete(&Completion::NearestFree(grid));
        assert_eq!(p.apply(grid.index(0, 1)), grid.index(0, 0));
        assert_eq!(p.apply(grid.index(1, 2)), grid.index(1, 2));
    }

    #[test]
    fn pin_rejects_conflicts() {
        let mut pp = PartialPermutation::new(4);
        pp.pin(0, 2).unwrap();
        assert_eq!(pp.pin(1, 2), Err(PermError::NotInjective { img: 2 }));
        assert_eq!(pp.get(1), None, "a rejected pin changes nothing");
        // Re-pinning the same source is allowed and frees its old
        // destination; pinning the same pair again is a no-op.
        pp.pin(0, 3).unwrap();
        pp.pin(0, 3).unwrap();
        pp.pin(1, 2).unwrap();
        assert_eq!(pp.pin(2, 3), Err(PermError::NotInjective { img: 3 }));
        assert_eq!(pp.num_pinned(), 2);
    }

    #[test]
    fn half_pinned_pair_keeps_its_first_pin() {
        // The transpiler planner pins a pair's two tokens one at a time
        // and skips the pair when a pin fails; a pin that already
        // succeeded stays, and its destination stays held.
        let mut pp = PartialPermutation::new(6);
        pp.pin(5, 1).unwrap();
        pp.pin(0, 4).unwrap();
        assert_eq!(pp.pin(3, 1), Err(PermError::NotInjective { img: 1 }));
        assert_eq!(pp.get(0), Some(4));
        assert_eq!(pp.get(3), None);
        assert_eq!(pp.pin(2, 4), Err(PermError::NotInjective { img: 4 }));
        assert_eq!(pp.num_pinned(), 2);
        let p = pp.complete(&Completion::StayInPlace);
        assert_eq!((p.apply(0), p.apply(5)), (4, 1));
    }

    #[test]
    fn pin_rejects_out_of_range() {
        let mut pp = PartialPermutation::new(3);
        assert_eq!(
            pp.pin(0, 9),
            Err(PermError::ImageOutOfRange { src: 0, img: 9, n: 3 })
        );
        assert_eq!(
            pp.pin(9, 0),
            Err(PermError::ImageOutOfRange { src: 9, img: 0, n: 3 })
        );
        assert_eq!(pp.num_pinned(), 0);
    }

    #[test]
    fn completion_is_always_a_permutation() {
        // Exhaustively check a saturated partial permutation.
        let pp = PartialPermutation::from_pairs(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let p = pp.complete(&Completion::StayInPlace);
        assert_eq!(p.as_slice(), &[1, 0, 3, 2]);
    }
}
