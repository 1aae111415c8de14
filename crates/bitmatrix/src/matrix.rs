//! The `n × n` atomic bit matrix.
//!
//! Bits are packed 64 per word, row-major. Two ways to write:
//!
//! * [`BitMatrix::set`] is a `fetch_or` that reports whether the bit was
//!   newly set — the duplicate test fused into the join ("merging the join
//!   and deduplication into one single stage"). Algorithm 3 uses it,
//!   because its writes land in arbitrary rows.
//! * [`BitMatrix::load_row`] / [`BitMatrix::store_row`] move a whole row
//!   between the matrix and a private `u64` buffer. Algorithm 2 builds each
//!   row in such a buffer and publishes it with one relaxed store per
//!   word; this is only sound while the caller is the row's sole writer.
//!
//! Reads are relaxed loads; a reader ordered after the writers (the
//! thread pool's join) sees every bit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Square bit matrix over vertices `0..n`.
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<AtomicU64>,
}

impl BitMatrix {
    /// All-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        let total = words_per_row.checked_mul(n).expect("bit matrix too large");
        let mut bits = Vec::with_capacity(total);
        bits.resize_with(total, || AtomicU64::new(0));
        BitMatrix {
            n,
            words_per_row,
            bits,
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes the matrix itself would occupy (the paper's memory-fit check
    /// uses this *before* allocating).
    pub fn bytes_for(n: usize) -> usize {
        n.div_ceil(64) * n * 8
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }

    /// Set bit `(i, j)`; returns `true` iff it was previously 0.
    #[inline]
    pub fn set(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        let word = i * self.words_per_row + j / 64;
        let mask = 1u64 << (j % 64);
        let prev = self.bits[word].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Number of `u64` words per row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Copy row `i`'s words into `out` (`out.len() == words_per_row()`).
    pub fn load_row(&self, i: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words_per_row);
        let row = &self.bits[i * self.words_per_row..][..self.words_per_row];
        for (o, w) in out.iter_mut().zip(row) {
            *o = w.load(Ordering::Relaxed);
        }
    }

    /// Overwrite row `i` with `words` (`words.len() == words_per_row()`),
    /// one relaxed store per word. The caller must be the row's only writer
    /// until the stores are published (e.g. by the thread pool's join);
    /// bits past column `n` must be 0.
    pub fn store_row(&self, i: usize, words: &[u64]) {
        debug_assert_eq!(words.len(), self.words_per_row);
        let row = &self.bits[i * self.words_per_row..][..self.words_per_row];
        for (w, &v) in row.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
    }

    /// Number of set bits in row `i`.
    pub fn row_count(&self, i: usize) -> usize {
        self.bits[i * self.words_per_row..][..self.words_per_row]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Read bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        let word = i * self.words_per_row + j / 64;
        let mask = 1u64 << (j % 64);
        self.bits[word].load(Ordering::Relaxed) & mask != 0
    }

    /// Iterate the set columns of row `i`.
    pub fn row_ones(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let base = i * self.words_per_row;
        let n = self.n;
        (0..self.words_per_row).flat_map(move |w| {
            let mut word = self.bits[base + w].load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + bit)
            })
            .filter(move |&j| j < n)
        })
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Materialize all set bits as `(row, col)` pairs.
    pub fn to_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.count_ones());
        for i in 0..self.n {
            for j in self.row_ones(i) {
                out.push((i as u32, j as u32));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reports_novelty() {
        let m = BitMatrix::new(10);
        assert!(m.set(3, 7));
        assert!(!m.set(3, 7));
        assert!(m.get(3, 7));
        assert!(!m.get(7, 3));
    }

    #[test]
    fn row_iteration_across_word_boundaries() {
        let m = BitMatrix::new(130);
        for j in [0usize, 63, 64, 65, 127, 128, 129] {
            m.set(5, j);
        }
        let got: Vec<usize> = m.row_ones(5).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 129]);
        assert_eq!(m.count_ones(), 7);
    }

    #[test]
    fn to_pairs_round_trips() {
        let m = BitMatrix::new(6);
        let pairs = [(0u32, 5u32), (2, 2), (5, 0)];
        for &(i, j) in &pairs {
            m.set(i as usize, j as usize);
        }
        let mut got = m.to_pairs();
        got.sort_unstable();
        assert_eq!(got, pairs.to_vec());
    }

    #[test]
    fn bytes_estimate_matches_allocation() {
        assert_eq!(BitMatrix::bytes_for(64), 64 * 8);
        assert_eq!(BitMatrix::bytes_for(65), 2 * 65 * 8);
        let m = BitMatrix::new(65);
        assert_eq!(m.heap_bytes(), BitMatrix::bytes_for(65));
    }

    #[test]
    fn rows_load_store_and_count() {
        let m = BitMatrix::new(130);
        assert_eq!(m.words_per_row(), 3);
        m.set(4, 1);
        let mut buf = vec![0u64; 3];
        m.load_row(4, &mut buf);
        assert_eq!(buf, vec![0b10, 0, 0]);
        buf[0] |= 1;
        buf[2] |= 1 << 1; // column 129
        m.store_row(4, &buf);
        assert_eq!(m.row_ones(4).collect::<Vec<_>>(), vec![0, 1, 129]);
        assert_eq!(m.row_count(4), 3);
        assert_eq!(m.row_count(3), 0);
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn concurrent_sets_count_once() {
        let m = std::sync::Arc::new(BitMatrix::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut fresh = 0usize;
                for i in 0..64 {
                    for j in 0..64 {
                        if m.set(i, j) {
                            fresh += 1;
                        }
                    }
                }
                fresh
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 64 * 64);
        assert_eq!(m.count_ones(), 64 * 64);
    }
}
