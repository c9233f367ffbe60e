//! Level-synchronous prefix trie over a candidate list — the sharing
//! structure and sweep loop behind the split amplitude/probability
//! sweeps of [`crate::ChainMps`] and [`crate::PurifiedMps`].
//!
//! A sweep walks the chain one site (level) at a time from one end.
//! Candidates that agree on every site visited so far share one trie
//! row, i.e. one environment; a row forks only where its candidates
//! disagree on the current site's bit. Child rows are numbered bit-0
//! group first (in parent order), then the bit-1 group, so a level's
//! environment update is at most two gather-GEMMs over contiguous output
//! blocks.

use bgls_core::BitString;
use bgls_linalg::C64;

/// Marks a `(parent, bit)` slot with no child.
const NONE: usize = usize::MAX;

/// Trie rows of a candidate list, advanced one level at a time. Lives in
/// the backends' thread-local scratch, so its tables are reused.
#[derive(Debug, Default)]
pub(crate) struct Trie {
    /// Trie row of each candidate at the current level.
    row: Vec<usize>,
    /// `child[parent * 2 + bit]`: the child row of the last level built.
    child: Vec<usize>,
    /// Parent rows of the bit-0 and the bit-1 children, in parent order.
    parents: [Vec<usize>; 2],
    /// Rows at the current level.
    rows: usize,
}

impl Trie {
    /// One environment sweep over `levels` of `(site, qubit, row
    /// length)`: `env` starts as the single root row `[1]`, and each
    /// level descends on `qubit`, then calls `step(site, bit, parents,
    /// env, out)` once per non-empty bit group to fill the group's
    /// child rows `out` (contiguous, the given row length each) from
    /// their `parents`' rows of `env`. On return `env` holds the last
    /// level's rows; [`Trie::row`] maps candidates onto them.
    pub(crate) fn sweep(
        &mut self,
        candidates: &[BitString],
        levels: impl IntoIterator<Item = (usize, usize, usize)>,
        env: &mut Vec<C64>,
        next: &mut Vec<C64>,
        mut step: impl FnMut(usize, usize, &[usize], &[C64], &mut [C64]),
    ) {
        self.reset(candidates.len());
        env.clear();
        env.push(C64::ONE);
        for (site, qubit, len) in levels {
            self.descend(candidates, qubit);
            next.clear();
            next.resize(self.rows * len, C64::ZERO);
            let mut row0 = 0;
            for (bit, parents) in self.parents.iter().enumerate() {
                let rows = parents.len();
                if rows > 0 {
                    step(
                        site,
                        bit,
                        parents,
                        env,
                        &mut next[row0 * len..(row0 + rows) * len],
                    );
                    row0 += rows;
                }
            }
            std::mem::swap(env, next);
        }
    }

    /// Starts a sweep: every one of `candidates` candidates shares the
    /// single root row.
    fn reset(&mut self, candidates: usize) {
        self.row.clear();
        self.row.resize(candidates, 0);
        self.rows = 1;
    }

    /// Descends one level keyed on `qubit`'s bit.
    fn descend(&mut self, candidates: &[BitString], qubit: usize) {
        debug_assert_eq!(candidates.len(), self.row.len());
        self.child.clear();
        self.child.resize(self.rows * 2, NONE);
        for (&r, c) in self.row.iter().zip(candidates) {
            self.child[r * 2 + c.get(qubit) as usize] = 0;
        }
        let mut next = 0;
        for (bit, parents) in self.parents.iter_mut().enumerate() {
            parents.clear();
            for p in 0..self.rows {
                let slot = &mut self.child[p * 2 + bit];
                if *slot != NONE {
                    *slot = next;
                    next += 1;
                    parents.push(p);
                }
            }
        }
        for (r, c) in self.row.iter_mut().zip(candidates) {
            *r = self.child[*r * 2 + c.get(qubit) as usize];
        }
        self.rows = next;
    }

    /// Trie row of candidate `c` at the current level.
    pub(crate) fn row(&self, c: usize) -> usize {
        self.row[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_fork_only_where_candidates_disagree() {
        // qubit 0 is the least significant bit
        let cands: Vec<BitString> = [0b000u64, 0b001, 0b101, 0b001]
            .iter()
            .map(|&x| BitString::from_u64(3, x))
            .collect();
        let mut t = Trie::default();
        t.reset(cands.len());
        // qubit 1 is 0 everywhere: no fork
        t.descend(&cands, 1);
        assert_eq!(t.rows, 1);
        assert_eq!(t.parents, [vec![0], vec![]]);
        // qubit 2 splits 101 off
        t.descend(&cands, 2);
        assert_eq!(t.rows, 2);
        assert_eq!(t.parents, [vec![0], vec![0]]);
        assert_eq!((0..4).map(|c| t.row(c)).collect::<Vec<_>>(), [0, 0, 1, 0]);
        // qubit 0 splits 000 from 001; bit-0 children are numbered first
        t.descend(&cands, 0);
        assert_eq!(t.rows, 3);
        assert_eq!(t.parents, [vec![0], vec![0, 1]]);
        assert_eq!((0..4).map(|c| t.row(c)).collect::<Vec<_>>(), [0, 1, 2, 1]);
    }
}
