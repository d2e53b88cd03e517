//! The copy-on-write arena the database keeps its rows in.
//!
//! A [`ChunkVec`] stores rows in fixed chunks of [`CHUNK`] rows, each
//! behind its own `Arc`. Cloning one copies only the chunk pointers, so
//! a published epoch (`serve.rs`) shares every row with the writer. The
//! writer copies a chunk only when it writes into one an epoch still
//! shares: an append copies the last chunk, an in-place write copies
//! its row's chunk, and either copy happens at most once per chunk
//! between two publishes. Each copy adds the rows it copied to the
//! `core.db.cow_rows` counter. Dropping a clone frees only the chunks no
//! other clone holds.
//!
//! Every chunk but the last holds exactly [`CHUNK`] rows, so row `i`
//! lives at `chunks[i / CHUNK][i % CHUNK]` and ids stay arena positions.

use crate::clock::Timestamp;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Rows per chunk: 64. A clone copies one pointer per chunk and the
/// first write into a shared chunk copies all its rows, so the size
/// trades the one against the other. A probe on a 2-core host (release
/// build; the medium and large worlds after 200 replication steps, then
/// 400 cycles of two steps' writes, a clone and a drop of the previous
/// clone; medians of five interleaved runs) measured per cycle:
/// - 16 rows: 180 pointers and 12 copied rows on medium; 93 µs on
///   medium, 332 µs on large (670 pointers);
/// - 64 rows: 51 pointers and 52 copied rows; 94 µs and 309 µs;
/// - 256 rows: 18 pointers and 198 copied rows; 111 µs and 347 µs.
const CHUNK: usize = 64;

/// A row arena of copy-on-write chunks (see the module docs).
pub(crate) struct ChunkVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

/// The row iterator of a [`ChunkVec`]: each chunk's rows in turn.
pub(crate) type Iter<'a, T> =
    std::iter::FlatMap<std::slice::Iter<'a, Arc<Vec<T>>>, &'a [T], fn(&'a Arc<Vec<T>>) -> &'a [T]>;

impl<T> ChunkVec<T> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Row `i`, or `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The rows whose `at` falls in `[from, to)`, for rows in
    /// non-decreasing `at` order: two binary searches.
    pub(crate) fn window(
        &self,
        from: Timestamp,
        to: Timestamp,
        at: impl Fn(&T) -> Timestamp,
    ) -> std::ops::Range<usize> {
        let first = |t: Timestamp| {
            let (mut lo, mut hi) = (0, self.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.get(mid).is_some_and(|row| at(row) < t) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let lo = first(from);
        lo..first(to).max(lo)
    }

    /// Every row, in id order.
    pub(crate) fn iter(&self) -> Iter<'_, T> {
        fn rows<T>(chunk: &Arc<Vec<T>>) -> &[T] {
            chunk
        }
        self.chunks.iter().flat_map(rows as fn(&Arc<Vec<T>>) -> &[T])
    }
}

impl<T: Clone> ChunkVec<T> {
    /// Appends a row. The last chunk is copied first only while another
    /// clone still shares it; a full last chunk starts a new one.
    pub(crate) fn push(&mut self, row: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => writable(last).push(row),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(row);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Every row in id order, copied out into one `Vec`.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }
}

/// The chunk's rows for writing: a chunk another clone still shares is
/// first replaced by a private copy with room for [`CHUNK`] rows
/// (`Arc::make_mut` would copy it at its exact length, so the next
/// append would reallocate). No `Weak` to a chunk is ever made, so the
/// strong count alone says whether it is shared.
fn writable<T: Clone>(chunk: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::strong_count(chunk) > 1 {
        let mut copy = Vec::with_capacity(CHUNK);
        copy.extend_from_slice(chunk);
        hive_obs::count("core.db.cow_rows", copy.len() as u64);
        *chunk = Arc::new(copy);
    }
    // Unique now, so this never copies.
    Arc::make_mut(chunk)
}

impl<T> Clone for ChunkVec<T> {
    /// Copies the chunk pointers, not the rows.
    fn clone(&self) -> Self {
        ChunkVec { chunks: self.chunks.clone() }
    }
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec { chunks: Vec::new() }
    }
}

impl<T> From<Vec<T>> for ChunkVec<T> {
    /// Moves the rows into chunks, in order.
    fn from(rows: Vec<T>) -> Self {
        let mut chunks = Vec::with_capacity(rows.len().div_ceil(CHUNK));
        let mut rows = rows.into_iter();
        loop {
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.extend(rows.by_ref().take(CHUNK));
            if chunk.is_empty() {
                return ChunkVec { chunks };
            }
            chunks.push(Arc::new(chunk));
        }
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone> IndexMut<usize> for ChunkVec<T> {
    /// Row `i` for writing; copies its chunk first while another clone
    /// shares it.
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut writable(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }
}

impl<'a, T> IntoIterator for &'a ChunkVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkVec<T> {
    /// Renders the rows as one list, as a `Vec` would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_rng::Rng;

    fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let out = f();
            (out, hive_obs::snapshot().counter("core.db.cow_rows"))
        })
    }

    #[test]
    fn rows_keep_their_positions() {
        let rows: Vec<u32> = (0..200).collect();
        let mut arena = ChunkVec::from(rows.clone());
        assert_eq!(arena.len(), 200);
        assert_eq!(arena.to_vec(), rows);
        assert_eq!(arena.iter().copied().collect::<Vec<_>>(), rows);
        assert_eq!((arena[63], arena[64], arena[199]), (63, 64, 199));
        assert_eq!((arena.get(199), arena.get(200)), (Some(&199), None));
        arena.push(200);
        assert_eq!((arena.len(), arena[200]), (201, 200));
        assert_eq!(format!("{arena:?}"), format!("{:?}", (0..201).collect::<Vec<u32>>()));
        let empty = ChunkVec::<u32>::from(Vec::new());
        assert_eq!((empty.len(), empty.get(0), format!("{empty:?}")), (0, None, "[]".into()));
    }

    #[test]
    fn a_write_copies_only_a_shared_chunk() {
        let mut arena = ChunkVec::from((0..130u32).collect::<Vec<_>>());
        // Nothing shares the chunks: writes and appends copy no row.
        let ((), copied) = counted(|| {
            arena[5] = 1000;
            arena.push(130);
        });
        assert_eq!(copied, 0);
        let pinned = arena.clone();
        // The first write into each shared chunk copies it once.
        let ((), copied) = counted(|| {
            arena[70] = 2000;
            arena[71] = 2001;
            arena.push(131);
            arena.push(132);
        });
        assert_eq!(copied, 64 + 3, "the second chunk and the three-row tail");
        assert_eq!((pinned[70], pinned.len()), (70, 131));
        assert!(Arc::ptr_eq(&arena.chunks[0], &pinned.chunks[0]), "untouched chunk shared");
        // A copied tail keeps room for a full chunk.
        assert!(arena.chunks[2].capacity() >= CHUNK);
    }

    /// Random push, index-write and clone sequences against a `Vec`:
    /// every clone keeps the rows it was taken with, and shares every
    /// chunk with the arena it was cloned from, so a clone is O(chunks).
    #[test]
    fn clones_stay_frozen_under_random_writes() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut arena = ChunkVec::default();
            let mut model: Vec<u64> = Vec::new();
            let mut clones: Vec<(ChunkVec<u64>, Vec<u64>)> = Vec::new();
            for step in 0..600u64 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        arena.push(step);
                        model.push(step);
                    }
                    6..=8 if !model.is_empty() => {
                        let i = rng.gen_range(0..model.len());
                        arena[i] = step;
                        model[i] = step;
                    }
                    _ => {
                        let copy = arena.clone();
                        assert_eq!(copy.chunks.len(), arena.len().div_ceil(CHUNK));
                        for (a, b) in arena.chunks.iter().zip(&copy.chunks) {
                            assert!(Arc::ptr_eq(a, b), "seed {seed}: a clone copied a chunk");
                        }
                        clones.push((copy, model.clone()));
                    }
                }
                assert_eq!(arena.len(), model.len());
            }
            assert_eq!(arena.to_vec(), model, "seed {seed}");
            for (copy, frozen) in &clones {
                assert_eq!(&copy.to_vec(), frozen, "seed {seed}: a clone saw a later write");
            }
        }
    }
}
