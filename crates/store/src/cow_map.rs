//! A copy-on-write ordered map: the storage under [`Table`](crate::Table)
//! rows and [`ColumnIndex`](crate::ColumnIndex) entries.
//!
//! Entries sit in order in chunks of at most [`CHUNK`] entries. An
//! [`Order`] compares whole entries, so an entry carries its own key: a
//! table's rows order by their key cells, compared in place, and no key
//! is stored beside a row. A chunk is a sorted `Vec` with a copy of its
//! first entry cached beside it, behind one `Arc`, and the list of chunk
//! pointers sits behind an `Arc` of its own. Cloning the map copies that
//! one pointer, and the clone shares the list and every chunk with the
//! original. A write makes the list and the one chunk it lands in its
//! own (`Arc::make_mut`): while a clone still shares them, it copies the
//! chunk pointers (O(chunks), no entry) and that one chunk, and never
//! touches the other chunks. Removing an absent entry copies nothing.
//!
//! Two maps descended from one share every chunk neither side wrote, so
//! [`CowMap::unshared`] finds what differs between them by pointer
//! equality and walks only the entries outside the shared chunks.
//!
//! Lookups take a probe, `|entry| entry.cmp(sought)`: they binary-search
//! the cached first entries, then the one chunk. Ranges and splits take
//! the predicate "this entry sorts before the bound", as
//! [`slice::partition_point`] does.
//!
//! A chunk that grows past [`CHUNK`] splits in two; one that shrinks
//! below a quarter of it folds into a neighbour. A chunk's vector grows
//! as any `Vec` does, by doubling, so its reallocations amortize over
//! the inserts. A load, a split and a cut leave each chunk they make at
//! its length, and a copy is made at its length: a 16-row window holds
//! 16 slots, and 32 after its first insert, never 256.
//!
//! Building a map from entries ([`CowMap::from_entries`]) takes one
//! pass: each run of up to [`CHUNK`] entries in strictly ascending order
//! becomes one chunk as it is. The first entry that does not ascend, and
//! every entry after it, goes through [`CowMap::insert`].

use std::cmp::Ordering;
use std::sync::Arc;

/// The most entries one chunk holds; a chunk that grows past it splits.
pub const CHUNK: usize = 256;

/// A chunk with fewer entries than this folds into a neighbour.
const MIN_CHUNK: usize = CHUNK / 4;

/// How a [`CowMap`] orders its entries. Entries that compare equal are
/// one key: the map holds at most one of them.
pub trait Order<T>: Clone {
    /// Compare two entries.
    fn cmp(&self, a: &T, b: &T) -> Ordering;
}

/// A copy-on-write ordered map (see the [module docs](self)).
#[derive(Clone)]
pub struct CowMap<T, O> {
    /// Non-empty chunks in order; every entry of a chunk sorts before the
    /// next chunk's first entry.
    chunks: Arc<Vec<Arc<Chunk<T>>>>,
    /// Total entries across the chunks.
    len: usize,
    order: O,
}

#[derive(Clone)]
struct Chunk<T> {
    /// A copy of the first entry, taken when it became first: it orders
    /// as `entries[0]` does, which is all a search asks of it.
    first: T,
    /// The entries, sorted.
    entries: Vec<T>,
}

impl<T: Clone> Chunk<T> {
    /// A chunk over `entries`; `None` when they are empty.
    fn new(entries: Vec<T>) -> Option<Arc<Chunk<T>>> {
        let first = entries.first()?.clone();
        Some(Arc::new(Chunk { first, entries }))
    }
}

impl<T, O: Default> Default for CowMap<T, O> {
    fn default() -> CowMap<T, O> {
        CowMap::with_order(O::default())
    }
}

impl<T, O> CowMap<T, O> {
    /// An empty map ordered by `order`.
    pub fn with_order(order: O) -> CowMap<T, O> {
        CowMap {
            chunks: Arc::default(),
            len: 0,
            order,
        }
    }

    /// The map's ordering.
    pub fn order(&self) -> &O {
        &self.order
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

    /// Iterate entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.entries.iter())
    }

    /// The entry at position `idx` in order (`None` when out of bounds):
    /// O(chunks) to find its chunk.
    pub fn entry_at(&self, mut idx: usize) -> Option<&T> {
        for chunk in self.chunks.iter() {
            if idx < chunk.entries.len() {
                return chunk.entries.get(idx);
            }
            idx -= chunk.entries.len();
        }
        None
    }
}

impl<T: Clone, O: Order<T>> CowMap<T, O> {
    /// A map of `entries` in one pass (see the [module docs](self)); of
    /// entries that compare equal, the last one stays.
    pub fn from_entries(order: O, entries: impl IntoIterator<Item = T>) -> CowMap<T, O> {
        let mut entries = entries.into_iter();
        let mut load = AscendingLoad::new(order);
        let stray = entries.by_ref().find_map(|e| load.push(e).err());
        let mut map = load.finish();
        for entry in stray.into_iter().chain(entries) {
            map.insert(entry);
        }
        map
    }

    /// The chunk list, for a write: copied first (the chunk pointers
    /// only) if a clone shares it.
    fn chunks_mut(&mut self) -> &mut Vec<Arc<Chunk<T>>> {
        Arc::make_mut(&mut self.chunks)
    }

    /// Chunk `i`, for a write: copied first if a clone shares it.
    fn chunk_mut(&mut self, i: usize) -> &mut Chunk<T> {
        Arc::make_mut(&mut self.chunks_mut()[i])
    }

    /// The chunk that holds the sought entry if any chunk does: the last
    /// chunk whose first entry is at most it, or the first chunk when it
    /// precedes them all. The map must not be empty.
    fn chunk_of(&self, probe: impl Fn(&T) -> Ordering) -> usize {
        self.chunks
            .partition_point(|c| probe(&c.first) != Ordering::Greater)
            .saturating_sub(1)
    }

    /// The entry `probe` seeks: `probe(e)` is `e` compared with it.
    pub fn get(&self, probe: impl Fn(&T) -> Ordering) -> Option<&T> {
        if self.chunks.is_empty() {
            return None;
        }
        let chunk = &self.chunks[self.chunk_of(&probe)];
        let at = chunk.entries.binary_search_by(probe).ok()?;
        Some(&chunk.entries[at])
    }

    /// Insert `entry`, returning the entry equal to it that it replaced.
    /// Copies the target chunk if a clone shares it.
    pub fn insert(&mut self, entry: T) -> Option<T> {
        match self.put(entry, |_, _| false) {
            Ok(replaced) => replaced,
            Err(_) => unreachable!("every entry counts as a change"),
        }
    }

    /// [`CowMap::insert`] that writes nothing when an identical entry is
    /// already there: `Ok` with the replaced entry after a write, `Err`
    /// handing `entry` back when nothing changed. The chunk is searched
    /// once, before it is copied.
    pub fn insert_changed(&mut self, entry: T) -> Result<Option<T>, T>
    where
        T: PartialEq,
    {
        self.put(entry, |old, new| old == new)
    }

    /// Write `entry` unless `unchanged(old, &entry)` holds for the entry
    /// equal to it already there.
    fn put(&mut self, entry: T, unchanged: impl Fn(&T, &T) -> bool) -> Result<Option<T>, T> {
        if self.chunks.is_empty() {
            self.chunks_mut().extend(Chunk::new(vec![entry]));
            self.len = 1;
            return Ok(None);
        }
        let i = self.chunk_of(|e| self.order.cmp(e, &entry));
        let entries = &self.chunks[i].entries;
        let at = entries.binary_search_by(|e| self.order.cmp(e, &entry));
        if at.is_ok_and(|p| unchanged(&entries[p], &entry)) {
            return Err(entry);
        }
        self.len += usize::from(at.is_err());
        if at == Err(CHUNK) && i + 1 == self.chunks.len() {
            // Past the end of a full last chunk: an append. The entry
            // starts the next chunk and the full one stays as it is, so
            // ordered loads through inserts pack their chunks.
            self.chunks_mut().extend(Chunk::new(vec![entry]));
            return Ok(None);
        }
        let chunk = self.chunk_mut(i);
        match at {
            Ok(p) => Ok(Some(std::mem::replace(&mut chunk.entries[p], entry))),
            Err(p) => {
                if p == 0 {
                    chunk.first = entry.clone();
                }
                chunk.entries.insert(p, entry);
                if chunk.entries.len() > CHUNK {
                    self.split(i);
                }
                Ok(None)
            }
        }
    }

    /// Remove the entry `probe` seeks (as in [`CowMap::get`]), returning
    /// it. An absent entry copies nothing.
    pub fn remove(&mut self, probe: impl Fn(&T) -> Ordering) -> Option<T> {
        if self.chunks.is_empty() {
            return None;
        }
        let i = self.chunk_of(&probe);
        let p = self.chunks[i].entries.binary_search_by(probe).ok()?;
        let chunk = self.chunk_mut(i);
        let removed = chunk.entries.remove(p);
        if let (0, Some(first)) = (p, chunk.entries.first()) {
            chunk.first = first.clone();
        }
        self.len -= 1;
        self.settle(i);
        Some(removed)
    }

    /// Iterate, in order, the entries from the first one `before_start`
    /// rejects to the last one `before_end` accepts: a seek to the start,
    /// then a walk that stops at the end. Each predicate must hold on a
    /// prefix of the entries, as for [`slice::partition_point`].
    pub fn range<'a>(
        &'a self,
        before_start: impl Fn(&T) -> bool + 'a,
        before_end: impl Fn(&T) -> bool + 'a,
    ) -> impl Iterator<Item = &'a T> + 'a {
        let start = self.chunks.partition_point(|c| before_start(&c.first));
        let (head, tail): (&[T], _) = match &self.chunks[start.saturating_sub(1)..] {
            [chunk, tail @ ..] => {
                let from = chunk.entries.partition_point(&before_start);
                (&chunk.entries[from..], tail)
            }
            [] => (&[], &[]),
        };
        head.iter()
            .chain(tail.iter().flat_map(|c| c.entries.iter()))
            .take_while(move |e| before_end(e))
    }

    /// Split off the entries `before` rejects into a new map (`before`
    /// holds on a prefix, as for [`slice::partition_point`]). Chunks
    /// wholly past the cut move without copying; only the chunk it falls
    /// inside is cut. O(chunks + one chunk).
    pub fn split_off(&mut self, before: impl Fn(&T) -> bool) -> CowMap<T, O> {
        let whole = self.chunks.partition_point(|c| before(&c.first));
        let cut = whole.checked_sub(1).and_then(|i| {
            let entries = &self.chunks[i].entries;
            let p = entries.partition_point(&before);
            (p < entries.len()).then_some((i, p))
        });
        let mut upper = Vec::new();
        if whole < self.chunks.len() || cut.is_some() {
            upper = self.chunks_mut().split_off(whole);
            if let Some((i, p)) = cut {
                let chunk = self.chunk_mut(i);
                let moved = chunk.entries.split_off(p);
                chunk.entries.shrink_to_fit();
                upper.insert(0, Chunk::new(moved).expect("the cut moves an entry"));
            }
        }
        let moved: usize = upper.iter().map(|c| c.entries.len()).sum();
        self.len -= moved;
        let mut out = CowMap {
            chunks: Arc::new(upper),
            len: moved,
            order: self.order.clone(),
        };
        if let Some(last) = self.chunks.len().checked_sub(1) {
            self.settle(last);
        }
        if !out.chunks.is_empty() {
            out.settle(0);
        }
        out
    }

    /// Append `other`, whose entries all sort after this map's: its
    /// chunks join this map's list shared with `other`, not copied, so
    /// the concatenation costs O(chunks). The two chunks that meet fold
    /// into one when either is undersized, which copies at most those
    /// two. Returns `false`, changing nothing, when `other`'s first entry
    /// does not follow this map's last.
    pub fn append(&mut self, other: &CowMap<T, O>) -> bool {
        let (Some(tail), Some(head)) = (self.chunks.last(), other.chunks.first()) else {
            if self.is_empty() {
                self.chunks = other.chunks.clone();
                self.len = other.len;
            }
            return true;
        };
        if (tail.entries.last()).is_some_and(|last| self.order.cmp(last, &head.first).is_ge()) {
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
    /// share, each in order. Shared chunks — the same `Arc`, found by
    /// walking both chunk lists in order — hold identical entries on
    /// both sides, so an ordered merge of the two iterators sees exactly
    /// the entries that differ, at O(chunks + unshared entries).
    pub fn unshared<'a>(
        &'a self,
        other: &'a CowMap<T, O>,
    ) -> (
        impl Iterator<Item = &'a T> + 'a,
        impl Iterator<Item = &'a T> + 'a,
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
            match self.order.cmp(&a.first, &b.first) {
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
    /// split it when oversized, fold it into a neighbour when undersized.
    fn settle(&mut self, i: usize) {
        let len = self.chunks[i].entries.len();
        if len == 0 {
            self.chunks_mut().remove(i);
        } else if len > CHUNK {
            self.split(i);
        } else if len < MIN_CHUNK && self.chunks.len() > 1 {
            self.fold(i);
        }
    }

    /// Split chunk `i` at its middle entry; both halves keep no spare
    /// capacity.
    fn split(&mut self, i: usize) {
        let chunk = self.chunk_mut(i);
        let upper = chunk.entries.split_off(chunk.entries.len() / 2);
        chunk.entries.shrink_to_fit();
        let upper = Chunk::new(upper).expect("a chunk being split holds two entries");
        self.chunks_mut().insert(i + 1, upper);
    }

    /// Merge chunk `i` with its left neighbour (its right one for the
    /// first chunk), splitting the result again if it overflows.
    fn fold(&mut self, i: usize) {
        let left = i.saturating_sub(1);
        let right = self.chunks_mut().remove(left + 1);
        let merged = self.chunk_mut(left);
        match Arc::try_unwrap(right) {
            Ok(right) => merged.entries.extend(right.entries),
            Err(right) => merged.entries.extend_from_slice(&right.entries),
        }
        if merged.entries.len() > CHUNK {
            self.split(left);
        }
    }
}

impl<T: Clone, O: Order<T> + Default> FromIterator<T> for CowMap<T, O> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> CowMap<T, O> {
        CowMap::from_entries(O::default(), iter)
    }
}

/// A map under construction from entries in strictly ascending order,
/// one chunk at a time: entries gather into a run, and each full run
/// becomes one chunk as it is. At most one run of [`CHUNK`] entries is
/// held besides the finished chunks.
pub(crate) struct AscendingLoad<T, O> {
    map: CowMap<T, O>,
    run: Vec<T>,
}

impl<T: Clone, O: Order<T>> AscendingLoad<T, O> {
    /// An empty load ordered by `order`.
    pub(crate) fn new(order: O) -> AscendingLoad<T, O> {
        AscendingLoad {
            map: CowMap::with_order(order),
            run: Vec::new(),
        }
    }

    /// Take the next entry, or hand it back when it does not follow
    /// every entry taken so far.
    pub(crate) fn push(&mut self, entry: T) -> Result<(), T> {
        let last = (self.run.last()).or_else(|| self.map.chunks.last()?.entries.last());
        if last.is_some_and(|last| self.map.order.cmp(last, &entry).is_ge()) {
            return Err(entry);
        }
        if self.run.is_empty() && !self.map.is_empty() {
            // Past the first chunk the input is long: take a whole run's
            // room at once.
            self.run.reserve_exact(CHUNK);
        }
        self.run.push(entry);
        if self.run.len() == CHUNK {
            self.seal_run();
        }
        Ok(())
    }

    /// The map holding every entry taken.
    pub(crate) fn finish(mut self) -> CowMap<T, O> {
        self.seal_run();
        self.map
    }

    /// Turn the gathered run into the map's next chunk, without spare
    /// capacity.
    fn seal_run(&mut self) {
        let mut run = std::mem::take(&mut self.run);
        run.shrink_to_fit();
        if let Some(chunk) = Chunk::new(run) {
            self.map.len += chunk.entries.len();
            self.map.chunks_mut().push(chunk);
        }
    }
}

impl<T: Clone + PartialEq, O: Order<T>> PartialEq for CowMap<T, O> {
    /// Equal entries, compared outside the chunks the maps share.
    fn eq(&self, other: &CowMap<T, O>) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mine, theirs) = self.unshared(other);
        mine.eq(theirs)
    }
}

impl<T: Clone + Eq, O: Order<T>> Eq for CowMap<T, O> {}

impl<T: std::fmt::Debug, O> std::fmt::Debug for CowMap<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `(key, value)` pairs ordered by key: a map from `i64` to `i64`.
    #[derive(Clone, Copy, Default)]
    struct ByKey;

    impl Order<(i64, i64)> for ByKey {
        fn cmp(&self, a: &(i64, i64), b: &(i64, i64)) -> Ordering {
            a.0.cmp(&b.0)
        }
    }

    type Map = CowMap<(i64, i64), ByKey>;

    fn key(k: i64) -> impl Fn(&(i64, i64)) -> Ordering {
        move |e| e.0.cmp(&k)
    }

    fn filled(n: i64) -> Map {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    /// Every chunk is non-empty, within bounds, first-entry-cached and
    /// in order, and `len` is their sum.
    fn assert_well_formed(m: &Map) {
        let mut prev: Option<i64> = None;
        for (i, c) in m.chunks.iter().enumerate() {
            let n = c.entries.len();
            assert!(n > 0 && n <= CHUNK, "chunk {i} size");
            assert_eq!(c.entries[0].0, c.first.0, "chunk {i} first entry");
            assert!(
                c.entries.windows(2).all(|w| w[0].0 < w[1].0),
                "chunk {i} sorted"
            );
            if let Some(p) = prev {
                assert!(p < c.first.0, "chunk {i} out of order");
            }
            prev = c.entries.last().map(|e| e.0);
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
        assert!(m.iter().map(|e| e.0).eq(0..1000));
        // A small map holds only its own entries' slots, and an insert,
        // into a copy or in place, at most doubles them.
        let mut small = filled(16);
        assert_eq!(small.chunks[0].entries.capacity(), 16);
        let mut copy = small.clone();
        copy.insert((100, 0));
        small.insert((100, 0));
        assert!(copy.chunks[0].entries.capacity() <= 32);
        assert!(small.chunks[0].entries.capacity() <= 32);
    }

    #[test]
    fn collect_loads_ascending_runs_then_inserts_the_rest() {
        // 600 ascending keys load as full chunks; from the stray 5 on,
        // entries insert (and the repeated 5 replaces the first).
        let input = (0..600)
            .map(|k| (k, k))
            .chain([(5, -5), (1000, 1), (700, 7)]);
        let m: Map = input.clone().collect();
        assert_well_formed(&m);
        assert!(m.iter().copied().eq(input.collect::<BTreeMap<_, _>>()));
        let loaded: Map = (0..600).map(|k| (k, k)).collect();
        let sizes: Vec<usize> = loaded.chunks.iter().map(|c| c.entries.len()).collect();
        assert_eq!(sizes, vec![CHUNK, CHUNK, 600 - 2 * CHUNK]);
    }

    #[test]
    fn inserts_grow_chunks_at_most_twofold() {
        let mut m = Map::default();
        for k in (0..2000).rev() {
            m.insert((k, k));
            assert_well_formed(&m);
            for c in m.chunks.iter() {
                assert!(c.entries.capacity() <= 2 * c.entries.len());
            }
        }
        for k in (0..2000).step_by(3) {
            m.remove(key(k));
            assert_well_formed(&m);
        }
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let base = filled(2000);
        let mut copy = base.clone();
        assert!(base.unshared(&copy).0.next().is_none());
        copy.insert((700, -1));
        copy.remove(key(1500));
        copy.remove(key(5000)); // absent: copies nothing
        let (old, new): (Vec<_>, Vec<_>) = {
            let (a, b) = base.unshared(&copy);
            (a.collect(), b.collect())
        };
        assert!(old.len() <= 2 * CHUNK && new.len() <= 2 * CHUNK);
        assert_eq!(base.get(key(700)), Some(&(700, 7000)));
        assert_eq!(copy.get(key(700)), Some(&(700, -1)));
        assert_eq!(base.len(), copy.len() + 1);
        assert_well_formed(&copy);
        assert_ne!(base, copy);
    }

    #[test]
    fn removals_fold_and_ranges_respect_bounds() {
        let mut m = filled(1200);
        for k in (0..1200).filter(|k| k % 7 != 0) {
            m.remove(key(k));
            assert_well_formed(&m);
        }
        let keys = |lo: i64, hi: i64| -> Vec<i64> {
            m.range(move |e| e.0 <= lo, move |e| e.0 <= hi)
                .map(|e| e.0)
                .collect()
        };
        assert_eq!(keys(14, 70), vec![21, 28, 35, 42, 49, 56, 63, 70]);
        assert!(keys(9, 8).is_empty());
        assert!(keys(9, 3).is_empty());
        assert_eq!(keys(1189, i64::MAX).len(), 2);
        assert!(keys(1197, i64::MAX).is_empty());
        assert_eq!(keys(i64::MIN, 7).len(), 2);
    }

    #[test]
    fn appends_share_chunks_and_fold_only_the_junction() {
        let sizes = [0usize, 1, 10, 63, 64, 200, 256, 300, 1000];
        for &a in &sizes {
            for &b in &sizes {
                let lower: Map = (0..a as i64).map(|k| (k, k)).collect();
                let upper: Map = (0..b as i64).map(|k| (k + 5000, k)).collect();
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
                    let at = joined.chunk_of(key(5000));
                    let folded = joined.chunks[at].entries[0].0 < 5000;
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
        let upper = m.split_off(|e| e.0 < 600);
        assert_well_formed(&m);
        assert_well_formed(&upper);
        assert_eq!(m.len(), 600);
        assert_eq!(upper.iter().next(), Some(&(600, 6000)));
        assert_eq!(shared.len(), 1500, "the clone keeps every entry");
        assert_eq!(m.entry_at(599), Some(&(599, 5990)));
        assert_eq!(upper.entry_at(0), Some(&(600, 6000)));
        assert_eq!(upper.entry_at(900), None);
        // A cut at a chunk boundary, before everything, and past the end.
        let mut m = filled(1024);
        assert_eq!(m.split_off(|e| e.0 < 512).len(), 512);
        assert_eq!(m.split_off(|_| false).len(), 512);
        assert!(m.is_empty());
        let mut m = filled(300);
        assert!(m.split_off(|_| true).is_empty());
        assert_well_formed(&m);
    }
}
