//! A copy-on-write ordered map: the storage under [`Table`](crate::Table)
//! rows and [`ColumnIndex`](crate::ColumnIndex) entries.
//!
//! Entries sit in key-ordered chunks of at most [`CHUNK`] entries. A
//! chunk is a `BTreeMap<K, V>` with its first key cached beside it,
//! behind one `Arc`, and the list of chunk pointers sits behind an `Arc`
//! of its own. Cloning the map copies that one pointer, and the clone
//! shares the list and every chunk with the original. A write does
//! `Arc::make_mut` on the list and on the one chunk it lands in: while
//! a clone still shares them, it copies the chunk pointers (O(chunks),
//! no entry and no key) and that one chunk, and never touches the other
//! chunks. Removing an absent key copies nothing.
//!
//! Two maps descended from one share every chunk neither side wrote, so
//! [`CowMap::unshared`] finds what differs between them by pointer
//! equality and walks only the entries outside the shared chunks.
//!
//! A chunk that grows past [`CHUNK`] splits in two; one that shrinks
//! below a quarter of it folds into a neighbour. Lookups binary-search
//! the cached first keys, then search one chunk.
//!
//! Building a map from entries (`collect`) takes one pass: each run of
//! up to [`CHUNK`] entries in strictly ascending key order becomes one
//! chunk whose B-tree is built bottom-up with full nodes, where per-key
//! inserts would leave its nodes about half full. The first entry that
//! does not ascend, and every entry after it, goes through
//! [`CowMap::insert`].

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// The most entries one chunk holds; a chunk that grows past it splits.
pub const CHUNK: usize = 256;

/// A chunk with fewer entries than this folds into a neighbour.
const MIN_CHUNK: usize = CHUNK / 4;

/// A copy-on-write ordered map (see the [module docs](self)).
#[derive(Clone)]
pub struct CowMap<K, V> {
    /// Non-empty chunks in key order; every key of a chunk is below the
    /// next chunk's first key.
    chunks: Arc<Vec<Arc<Chunk<K, V>>>>,
    /// Total entries across the chunks.
    len: usize,
}

#[derive(Clone)]
struct Chunk<K, V> {
    /// The smallest key in `entries`.
    first: K,
    entries: BTreeMap<K, V>,
}

impl<K: Clone, V> Chunk<K, V> {
    /// A chunk over `entries`; `None` when they are empty.
    fn new(entries: BTreeMap<K, V>) -> Option<Arc<Chunk<K, V>>> {
        let first = entries.keys().next()?.clone();
        Some(Arc::new(Chunk { first, entries }))
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> CowMap<K, V> {
        CowMap {
            chunks: Arc::default(),
            len: 0,
        }
    }
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> CowMap<K, V> {
        CowMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.chunks = Arc::default();
        self.len = 0;
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.chunks.iter().flat_map(|c| c.entries.iter())
    }

    /// Iterate keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The key at position `idx` in key order (`None` when out of
    /// bounds): O(chunks) to find its chunk, then a walk inside it.
    pub fn key_at(&self, mut idx: usize) -> Option<&K> {
        for chunk in self.chunks.iter() {
            if idx < chunk.entries.len() {
                return chunk.entries.keys().nth(idx);
            }
            idx -= chunk.entries.len();
        }
        None
    }
}

impl<K: Ord + Clone, V: Clone> CowMap<K, V> {
    /// The chunk list, for a write: copied first (the chunk pointers
    /// only) if a clone shares it.
    fn chunks_mut(&mut self) -> &mut Vec<Arc<Chunk<K, V>>> {
        Arc::make_mut(&mut self.chunks)
    }

    /// The chunk that holds `key` if any chunk does: the last chunk whose
    /// first key is at most `key`, or the first chunk when `key` precedes
    /// them all. The map must not be empty.
    fn chunk_of<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.chunks
            .partition_point(|c| c.first.borrow() <= key)
            .saturating_sub(1)
    }

    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.chunks.is_empty() {
            return None;
        }
        self.chunks[self.chunk_of(key)].entries.get(key)
    }

    /// Insert `value` under `key`, returning the value it replaced.
    /// Copies the target chunk if a clone shares it.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.put(key, value, |_, _| false) {
            Ok(replaced) => replaced,
            Err(_) => unreachable!("every value counts as a change"),
        }
    }

    /// [`CowMap::insert`] that writes nothing when `key` already maps to
    /// an equal value: `Ok` with the replaced value after a write, `Err`
    /// handing `value` back when nothing changed. A shared chunk is
    /// looked up before it is copied; a chunk this map owns alone is
    /// searched once.
    pub fn insert_changed(&mut self, key: K, value: V) -> Result<Option<V>, V>
    where
        V: PartialEq,
    {
        self.put(key, value, |old, new| old == new)
    }

    /// Write `value` under `key` unless `unchanged(old, &value)` holds
    /// for the value already there.
    fn put(
        &mut self,
        key: K,
        value: V,
        unchanged: impl Fn(&V, &V) -> bool,
    ) -> Result<Option<V>, V> {
        if self.chunks.is_empty() {
            self.chunks_mut()
                .extend(Chunk::new(BTreeMap::from([(key, value)])));
            self.len = 1;
            return Ok(None);
        }
        let i = self.chunk_of(&key);
        let shared = Arc::strong_count(&self.chunks) > 1 || Arc::strong_count(&self.chunks[i]) > 1;
        if shared && (self.chunks[i].entries.get(&key)).is_some_and(|old| unchanged(old, &value)) {
            return Err(value);
        }
        let is_last = i + 1 == self.chunks.len();
        let chunk = Arc::make_mut(&mut Arc::make_mut(&mut self.chunks)[i]);
        // A key past the end of the last chunk is an append: when that
        // chunk overflows, the new key starts the next chunk and the full
        // one stays full, so ordered bulk loads pack their chunks. Only a
        // full chunk can overflow, so only a full one is asked.
        let appending = is_last
            && chunk.entries.len() >= CHUNK
            && (chunk.entries.last_key_value()).is_some_and(|(last, _)| *last < key);
        if key < chunk.first {
            chunk.first = key.clone();
        }
        match chunk.entries.entry(key) {
            Entry::Occupied(slot) if unchanged(slot.get(), &value) => return Err(value),
            Entry::Occupied(mut slot) => return Ok(Some(slot.insert(value))),
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
        self.len += 1;
        if chunk.entries.len() > CHUNK {
            if appending {
                let last = chunk.entries.keys().next_back().cloned();
                self.split_at(i, last.expect("an overflowing chunk is not empty"));
            } else {
                self.split(i);
            }
        }
        Ok(None)
    }

    /// Remove the entry under `key`, returning its value. An absent key
    /// copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.chunks.is_empty() {
            return None;
        }
        let i = self.chunk_of(key);
        if !self.chunks[i].entries.contains_key(key) {
            return None;
        }
        let removed = Arc::make_mut(&mut self.chunks_mut()[i]).entries.remove(key);
        self.len -= 1;
        self.settle(i);
        removed
    }

    /// Iterate the entries whose keys lie in `range`, in key order: a
    /// seek to the range's start, then a walk that stops at its end.
    pub fn range<'a, Q, R>(&'a self, range: R) -> impl Iterator<Item = (&'a K, &'a V)> + 'a
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q> + 'a,
    {
        let start = match range.start_bound() {
            _ if self.chunks.is_empty() => 0,
            Bound::Included(lo) | Bound::Excluded(lo) => self.chunk_of(lo),
            Bound::Unbounded => 0,
        };
        let (head, tail) = match self.chunks.get(start) {
            Some(chunk) => (
                Some(
                    chunk
                        .entries
                        .range::<Q, _>((range.start_bound(), Bound::Unbounded)),
                ),
                &self.chunks[start + 1..],
            ),
            None => (None, &self.chunks[..0]),
        };
        head.into_iter()
            .flatten()
            .chain(tail.iter().flat_map(|c| c.entries.iter()))
            .take_while(move |(k, _)| match range.end_bound() {
                Bound::Included(hi) => Borrow::<Q>::borrow(*k) <= hi,
                Bound::Excluded(hi) => Borrow::<Q>::borrow(*k) < hi,
                Bound::Unbounded => true,
            })
    }

    /// Split off the entries with keys `>= at` into a new map. Chunks
    /// wholly above `at` move without copying; only the chunk `at` falls
    /// inside is cut. O(chunks + one chunk).
    pub fn split_off<Q>(&mut self, at: &Q) -> CowMap<K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.chunks.is_empty() {
            return CowMap::new();
        }
        let i = self.chunk_of(at);
        let whole = self.chunks[i].first.borrow() >= at;
        let chunks = self.chunks_mut();
        let upper = if whole {
            // `at` precedes the whole chunk (only possible for the first).
            chunks.split_off(i)
        } else {
            let mut tail = chunks.split_off(i + 1);
            let cut = Arc::make_mut(&mut chunks[i]).entries.split_off(at);
            if let Some(chunk) = Chunk::new(cut) {
                tail.insert(0, chunk);
            }
            tail
        };
        let moved: usize = upper.iter().map(|c| c.entries.len()).sum();
        self.len -= moved;
        let mut out = CowMap {
            chunks: Arc::new(upper),
            len: moved,
        };
        if let Some(last) = self.chunks.len().checked_sub(1) {
            self.settle(last);
        }
        if !out.chunks.is_empty() {
            out.settle(0);
        }
        out
    }

    /// Append `other`, whose keys all sort after this map's: its chunks
    /// join this map's list shared with `other`, not copied, so the
    /// concatenation costs O(chunks). The two chunks that meet fold into
    /// one when either is undersized, which copies at most those two.
    /// Returns `false`, changing nothing, when `other`'s first key does
    /// not follow this map's last.
    pub fn append(&mut self, other: &CowMap<K, V>) -> bool {
        let (Some(tail), Some(head)) = (self.chunks.last(), other.chunks.first()) else {
            if self.is_empty() {
                *self = other.clone();
            }
            return true;
        };
        if (tail.entries.keys().next_back()).is_some_and(|last| *last >= head.first) {
            return false;
        }
        let junction = self.chunks.len();
        self.len += other.len;
        self.chunks_mut().extend(other.chunks.iter().cloned());
        let small = |i: usize| self.chunks[i].entries.len() < MIN_CHUNK;
        if small(junction - 1) || small(junction) {
            self.fold(junction);
        }
        true
    }

    /// The entries of `self` and of `other` outside the chunks the two
    /// share, each in key order. Shared chunks — the same `Arc`, found by
    /// walking both chunk lists in key order — hold identical entries on
    /// both sides, so an ordered merge of the two iterators sees exactly
    /// the entries that differ, at O(chunks + unshared entries).
    pub fn unshared<'a>(
        &'a self,
        other: &'a CowMap<K, V>,
    ) -> (
        impl Iterator<Item = (&'a K, &'a V)> + 'a,
        impl Iterator<Item = (&'a K, &'a V)> + 'a,
    ) {
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        let (mut i, mut j) = if Arc::ptr_eq(&self.chunks, &other.chunks) {
            (self.chunks.len(), other.chunks.len())
        } else {
            (0, 0)
        };
        while let (Some(a), Some(b)) = (self.chunks.get(i), other.chunks.get(j)) {
            if Arc::ptr_eq(a, b) {
                i += 1;
                j += 1;
                continue;
            }
            match a.first.cmp(&b.first) {
                Ordering::Less => {
                    mine.push(a);
                    i += 1;
                }
                Ordering::Greater => {
                    theirs.push(b);
                    j += 1;
                }
                Ordering::Equal => {
                    mine.push(a);
                    theirs.push(b);
                    i += 1;
                    j += 1;
                }
            }
        }
        mine.extend(&self.chunks[i..]);
        theirs.extend(&other.chunks[j..]);
        (
            mine.into_iter().flat_map(|c| c.entries.iter()),
            theirs.into_iter().flat_map(|c| c.entries.iter()),
        )
    }

    /// Restore chunk `i`'s bounds after a write: drop it when empty,
    /// refresh its cached first key, split it when oversized, fold it
    /// into a neighbour when undersized.
    fn settle(&mut self, i: usize) {
        let chunk = &self.chunks[i];
        let Some(first) = chunk.entries.keys().next() else {
            self.chunks_mut().remove(i);
            return;
        };
        if *first != chunk.first {
            let first = first.clone();
            Arc::make_mut(&mut self.chunks_mut()[i]).first = first;
        }
        let len = self.chunks[i].entries.len();
        if len > CHUNK {
            self.split(i);
        } else if len < MIN_CHUNK && self.chunks.len() > 1 {
            self.fold(i);
        }
    }

    /// Split chunk `i` at its middle key.
    fn split(&mut self, i: usize) {
        let entries = &self.chunks[i].entries;
        let mid = entries.keys().nth(entries.len() / 2);
        let mid = mid.expect("a chunk being split is not empty").clone();
        self.split_at(i, mid);
    }

    /// Move chunk `i`'s keys `>= at` into a new chunk right after it.
    fn split_at(&mut self, i: usize, at: K) {
        let chunks = self.chunks_mut();
        let entries = Arc::make_mut(&mut chunks[i]).entries.split_off(&at);
        chunks.insert(i + 1, Arc::new(Chunk { first: at, entries }));
    }

    /// Merge chunk `i` with its left neighbour (its right one for the
    /// first chunk), splitting the result again if it overflows.
    fn fold(&mut self, i: usize) {
        let left = i.saturating_sub(1);
        let chunks = self.chunks_mut();
        let right = chunks.remove(left + 1);
        let merged = Arc::make_mut(&mut chunks[left]);
        match Arc::try_unwrap(right) {
            Ok(mut right) => merged.entries.append(&mut right.entries),
            // Shared: clone its entries straight in; they all sort after
            // the merged chunk's, so each insert lands on its right edge.
            Err(right) => {
                (merged.entries).extend(right.entries.iter().map(|(k, v)| (k.clone(), v.clone())))
            }
        }
        if merged.entries.len() > CHUNK {
            self.split(left);
        }
    }
}

impl<K, Q, V> std::ops::Index<&Q> for CowMap<K, V>
where
    K: Ord + Clone + Borrow<Q>,
    Q: Ord + ?Sized,
    V: Clone,
{
    type Output = V;

    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for CowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> CowMap<K, V> {
        let mut iter = iter.into_iter();
        let mut load = AscendingLoad::default();
        let stray = iter.by_ref().find_map(|(k, v)| load.push(k, v).err());
        let mut map = load.finish();
        for (k, v) in stray.into_iter().chain(iter) {
            map.insert(k, v);
        }
        map
    }
}

/// A map under construction from entries in strictly ascending key
/// order, one chunk at a time: entries gather into a run, and each full
/// run becomes one chunk built bottom-up. At most one run of [`CHUNK`]
/// entries is held besides the finished chunks.
pub(crate) struct AscendingLoad<K, V> {
    map: CowMap<K, V>,
    run: Vec<(K, V)>,
}

impl<K, V> Default for AscendingLoad<K, V> {
    fn default() -> AscendingLoad<K, V> {
        AscendingLoad {
            map: CowMap::new(),
            run: Vec::new(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> AscendingLoad<K, V> {
    /// Take the next entry, or hand it back when its key does not
    /// follow every key taken so far.
    pub(crate) fn push(&mut self, key: K, value: V) -> Result<(), (K, V)> {
        let last = match self.run.last() {
            Some((last, _)) => Some(last),
            None => self
                .map
                .chunks
                .last()
                .and_then(|c| c.entries.keys().next_back()),
        };
        if last.is_some_and(|last| *last >= key) {
            return Err((key, value));
        }
        if self.run.is_empty() && !self.map.is_empty() {
            // Past the first chunk the input is long: take a whole run's
            // room at once.
            self.run.reserve_exact(CHUNK);
        }
        self.run.push((key, value));
        if self.run.len() == CHUNK {
            self.seal_run();
        }
        Ok(())
    }

    /// The map holding every entry taken.
    pub(crate) fn finish(mut self) -> CowMap<K, V> {
        self.seal_run();
        self.map
    }

    /// Turn the gathered run into the map's next chunk. A `BTreeMap`
    /// collected from sorted entries is built bottom-up with full nodes
    /// (it reuses the run's buffer and finds it already sorted).
    fn seal_run(&mut self) {
        let run = std::mem::take(&mut self.run);
        if let Some(chunk) = Chunk::new(BTreeMap::from_iter(run)) {
            self.map.len += chunk.entries.len();
            self.map.chunks_mut().push(chunk);
        }
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for CowMap<K, V> {
    /// Equal entries, compared outside the chunks the maps share.
    fn eq(&self, other: &CowMap<K, V>) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mine, theirs) = self.unshared(other);
        mine.eq(theirs)
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for CowMap<K, V> {}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: i64) -> CowMap<i64, i64> {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    /// Every chunk is non-empty, within bounds, first-key-cached and in
    /// order, and `len` is their sum.
    fn assert_well_formed(m: &CowMap<i64, i64>) {
        let mut prev: Option<i64> = None;
        for (i, c) in m.chunks.iter().enumerate() {
            assert!(
                !c.entries.is_empty() && c.entries.len() <= CHUNK,
                "chunk {i} size"
            );
            assert_eq!(
                c.entries.keys().next(),
                Some(&c.first),
                "chunk {i} first key"
            );
            if let Some(p) = prev {
                assert!(p < c.first, "chunk {i} out of order");
            }
            prev = c.entries.keys().next_back().copied();
        }
        assert_eq!(
            m.len(),
            m.chunks.iter().map(|c| c.entries.len()).sum::<usize>()
        );
    }

    #[test]
    fn ordered_loads_pack_full_chunks() {
        let m = filled(1000);
        assert_well_formed(&m);
        assert_eq!(m.chunks.len(), 4);
        assert_eq!(
            m.keys().copied().collect::<Vec<_>>(),
            (0..1000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn collect_loads_ascending_runs_then_inserts_the_rest() {
        // 600 ascending keys load as full chunks; from the stray 5 on,
        // entries insert (and the repeated 5 replaces the first).
        let input = (0..600)
            .map(|k| (k, k))
            .chain([(5, -5), (1000, 1), (700, 7)]);
        let m: CowMap<i64, i64> = input.clone().collect();
        assert_well_formed(&m);
        assert!(m.iter().eq(input.collect::<BTreeMap<_, _>>().iter()));
        let loaded: CowMap<i64, i64> = (0..600).map(|k| (k, k)).collect();
        let sizes: Vec<usize> = loaded.chunks.iter().map(|c| c.entries.len()).collect();
        assert_eq!(sizes, vec![CHUNK, CHUNK, 600 - 2 * CHUNK]);
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let base = filled(2000);
        let mut copy = base.clone();
        assert!(base.unshared(&copy).0.next().is_none());
        copy.insert(700, -1);
        copy.remove(&1500);
        copy.remove(&5000); // absent: copies nothing
        let (old, new): (Vec<_>, Vec<_>) = {
            let (a, b) = base.unshared(&copy);
            (a.collect(), b.collect())
        };
        assert!(old.len() <= 2 * CHUNK && new.len() <= 2 * CHUNK);
        assert_eq!(base.get(&700), Some(&7000));
        assert_eq!(copy.get(&700), Some(&-1));
        assert_eq!(base.len(), copy.len() + 1);
        assert_well_formed(&copy);
        assert_ne!(base, copy);
    }

    #[test]
    fn removals_fold_and_ranges_respect_bounds() {
        let mut m = filled(1200);
        for k in (0..1200).filter(|k| k % 7 != 0) {
            m.remove(&k);
            assert_well_formed(&m);
        }
        let got: Vec<i64> = m
            .range((Bound::Excluded(&14), Bound::Included(&70)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, vec![21, 28, 35, 42, 49, 56, 63, 70]);
        assert_eq!(m.range(9..9).count(), 0);
        assert_eq!(m.range((Bound::Excluded(9), Bound::Excluded(3))).count(), 0);
        assert_eq!(m.range(1190..).count(), 2);
        assert_eq!(m.range(1198..).count(), 0);
        assert_eq!(m.range(..=7).count(), 2);
    }

    #[test]
    fn appends_share_chunks_and_fold_only_the_junction() {
        let sizes = [0usize, 1, 10, 63, 64, 200, 256, 300, 1000];
        for &a in &sizes {
            for &b in &sizes {
                let lower: CowMap<i64, i64> = (0..a as i64).map(|k| (k, k)).collect();
                let upper: CowMap<i64, i64> = (0..b as i64).map(|k| (k + 5000, k)).collect();
                let mut joined = lower.clone();
                assert!(joined.append(&upper));
                assert_well_formed(&joined);
                assert!(joined.iter().eq(lower.iter().chain(upper.iter())));
                // Every chunk but the two that met is the source's own.
                let sources: Vec<_> = lower.chunks.iter().chain(upper.chunks.iter()).collect();
                let copied = joined
                    .chunks
                    .iter()
                    .filter(|c| !sources.iter().any(|s| Arc::ptr_eq(s, c)))
                    .count();
                assert!(copied <= 2, "{a} + {b}: {copied} chunks copied");
                // The chunks that meet are both at least a quarter full,
                // or folded into one.
                if a > 0 && b > 0 {
                    let at = joined.chunk_of(&5000);
                    let folded = joined.chunks[at].entries.contains_key(&(a as i64 - 1));
                    let len = |i: usize| joined.chunks[i].entries.len();
                    assert!(
                        folded || (len(at - 1) >= MIN_CHUNK && len(at) >= MIN_CHUNK),
                        "{a} + {b}: junction chunks of {} and {}",
                        len(at - 1),
                        len(at)
                    );
                }
            }
        }
        // Keys that do not follow are refused, and nothing moves.
        let mut m = filled(10);
        assert!(!m.append(&filled(3)));
        assert_eq!(m, filled(10));
    }

    #[test]
    fn split_off_moves_whole_chunks() {
        let mut m = filled(1500);
        let shared = m.clone();
        let upper = m.split_off(&600);
        assert_well_formed(&m);
        assert_well_formed(&upper);
        assert_eq!(m.len(), 600);
        assert_eq!(upper.keys().next(), Some(&600));
        assert_eq!(shared.len(), 1500, "the clone keeps every entry");
        assert_eq!(m.key_at(599), Some(&599));
        assert_eq!(upper.key_at(0), Some(&600));
        assert_eq!(upper.key_at(900), None);
    }
}
