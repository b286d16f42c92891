//! Flat arena storage for node-set collections (the set `R` of RR sets),
//! and the [`SetsAccess`] seam the greedy solvers are generic over.

use std::cell::RefCell;
use tim_graph::NodeId;

/// Read-only access to an indexed collection of node sets over the
/// universe `0..universe()` — the seam between the greedy max-coverage
/// solvers and the storage backing.
///
/// Two backings implement it: the heap [`SetCollection`] and the
/// zero-copy [`MmapSets`](crate::MmapSets) view over a mapped `.timp` v2
/// pool file. The `*_indexed` solver entry points are generic over this
/// trait, so each backing gets its own monomorphized hot loops;
/// [`SetsView`](crate::SetsView) carries the dispatch to the call
/// boundary.
///
/// Every method is `&self` and the contract is strictly read-only —
/// which is why a `PROT_READ` file mapping can serve concurrent
/// selections directly (the `Sync` supertrait lets one shared pool answer
/// readers on several threads).
pub trait SetsAccess: Sync {
    /// Universe size `n`; members are node ids in `0..n`.
    fn universe(&self) -> usize;

    /// Number of sets stored.
    fn len(&self) -> usize;

    /// True when no sets are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of members across all sets (arena length).
    fn total_members(&self) -> usize;

    /// The members of set `i`.
    fn set(&self, i: usize) -> &[NodeId];

    /// True when [`sets_containing`](Self::sets_containing) may be
    /// called. Mapped backings persist their index, so this is
    /// constant-true there; heap collections build it lazily.
    fn has_inverted_index(&self) -> bool;

    /// Ids of the sets containing `v`, ascending.
    ///
    /// # Panics
    /// May panic if the index is stale
    /// ([`has_inverted_index`](Self::has_inverted_index) is false) or
    /// `v` is outside the universe.
    fn sets_containing(&self, v: NodeId) -> &[u32];

    /// Number of sets containing `v` (its coverage count / hypergraph
    /// degree).
    ///
    /// # Panics
    /// As [`sets_containing`](Self::sets_containing).
    fn degree(&self, v: NodeId) -> usize {
        self.sets_containing(v).len()
    }
}

/// Reusable per-thread scratch for [`SetCollection::count_covered`]'s
/// index-backed path: a stamped bitmap over set ids. Bumping the stamp
/// "clears" the map in O(1); the vec itself is only rewritten on the
/// (practically unreachable) stamp wraparound, and grows monotonically to
/// the largest collection the thread has evaluated.
#[derive(Default)]
struct CoverScratch {
    stamp: u32,
    mark: Vec<u32>,
}

thread_local! {
    static COVER_SCRATCH: RefCell<CoverScratch> = RefCell::new(CoverScratch::default());
}

/// A collection of node sets over the universe `0..n`, stored as one flat
/// arena plus offsets, with a lazily built inverted index.
///
/// Appending a set is O(|set|); `memory_bytes` reports the arena footprint
/// that dominates TIM's memory profile (Figure 12).
#[derive(Debug, Clone)]
pub struct SetCollection {
    n: usize,
    /// Concatenated member lists.
    data: Vec<NodeId>,
    /// Set `i` occupies `data[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Inverted index (node → ids of sets containing it), built on demand.
    inv_data: Vec<u32>,
    inv_offsets: Vec<usize>,
    inv_built_for: usize,
}

impl SetCollection {
    /// Creates an empty collection over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            data: Vec::new(),
            offsets: vec![0],
            inv_data: Vec::new(),
            inv_offsets: Vec::new(),
            inv_built_for: usize::MAX,
        }
    }

    /// Creates an empty collection with arena capacity for `total` members.
    pub fn with_capacity(n: usize, sets: usize, total: usize) -> Self {
        let mut c = Self::new(n);
        c.data.reserve(total);
        c.offsets.reserve(sets);
        c
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of sets stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no sets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of members across all sets (arena length).
    #[inline]
    pub fn total_members(&self) -> usize {
        self.data.len()
    }

    /// The members of set `i`.
    #[inline]
    pub fn set(&self, i: usize) -> &[NodeId] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The flat member arena: all sets concatenated back to back. Together
    /// with [`raw_offsets`](Self::raw_offsets) this is the full persistent
    /// state of the collection (the inverted index is derived data), which
    /// is what `tim_engine` serializes into `.timp` pool files.
    #[inline]
    pub fn raw_data(&self) -> &[NodeId] {
        &self.data
    }

    /// Set boundaries into [`raw_data`](Self::raw_data): set `i` occupies
    /// `raw_data()[raw_offsets()[i]..raw_offsets()[i + 1]]`. Always has
    /// `len() + 1` entries starting at 0.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Rebuilds a collection from the arena layout exposed by
    /// [`raw_data`](Self::raw_data) / [`raw_offsets`](Self::raw_offsets),
    /// validating every structural invariant (used by pool deserialization
    /// on untrusted bytes).
    pub fn from_raw_parts(
        n: usize,
        data: Vec<NodeId>,
        offsets: Vec<usize>,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if offsets.last() != Some(&data.len()) {
            return Err("offsets must end at the arena length".into());
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        if let Some(&v) = data.iter().find(|&&v| v as usize >= n) {
            return Err(format!("member {v} out of universe 0..{n}"));
        }
        Ok(Self {
            n,
            data,
            offsets,
            inv_data: Vec::new(),
            inv_offsets: Vec::new(),
            inv_built_for: usize::MAX,
        })
    }

    /// Appends a set. Members must be in `[0, n)` (checked in debug builds);
    /// duplicates within one set are the caller's responsibility (RR
    /// samplers never produce them).
    pub fn push(&mut self, members: &[NodeId]) {
        debug_assert!(
            members.iter().all(|&v| (v as usize) < self.n),
            "set member out of universe"
        );
        self.data.extend_from_slice(members);
        self.offsets.push(self.data.len());
        self.inv_built_for = usize::MAX; // invalidate
    }

    /// Heap bytes held by the arena and index.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.data.capacity() * size_of::<NodeId>()
            + self.offsets.capacity() * size_of::<usize>()
            + self.inv_data.capacity() * size_of::<u32>()
            + self.inv_offsets.capacity() * size_of::<usize>()
    }

    /// True when the inverted index is built and matches the current set
    /// count. While this holds, every query the index serves
    /// ([`sets_containing`](Self::sets_containing),
    /// [`degree`](Self::degree), and the `*_indexed` greedy solvers) is
    /// `&self` — the basis for answering influence queries concurrently
    /// from a shared read-only pool.
    #[inline]
    pub fn has_inverted_index(&self) -> bool {
        self.inv_built_for == self.len()
    }

    /// Builds (or rebuilds) the inverted index if stale.
    pub fn ensure_inverted_index(&mut self) {
        if self.inv_built_for == self.len() {
            return;
        }
        let (inv_offsets, inv_data) = build_inverted_index(self.n, &self.data, &self.offsets);
        self.inv_offsets = inv_offsets;
        self.inv_data = inv_data;
        self.inv_built_for = self.len();
    }

    /// The built inverted index as its raw arrays `(inv_offsets,
    /// inv_data)`: node `v`'s posting list is
    /// `inv_data[inv_offsets[v]..inv_offsets[v + 1]]`, set ids strictly
    /// ascending within each list. `None` while the index is stale.
    ///
    /// This is what the `.timp` v2 pool format persists, so a mapped
    /// pool can skip the counting-sort rebuild entirely.
    pub fn raw_inverted(&self) -> Option<(&[usize], &[u32])> {
        self.has_inverted_index()
            .then_some((self.inv_offsets.as_slice(), self.inv_data.as_slice()))
    }

    /// Ids of the sets containing `v`.
    ///
    /// # Panics
    /// Panics if the inverted index has not been built
    /// ([`ensure_inverted_index`](Self::ensure_inverted_index)).
    #[inline]
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        assert!(
            self.inv_built_for == self.len(),
            "inverted index is stale; call ensure_inverted_index first"
        );
        let v = v as usize;
        &self.inv_data[self.inv_offsets[v]..self.inv_offsets[v + 1]]
    }

    /// Number of sets containing `v` (its coverage count / hypergraph
    /// degree).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.sets_containing(v).len()
    }

    /// `F_R(S)`: the fraction of stored sets covered by (intersecting) the
    /// node set `seeds`. Returns 0 when the collection is empty.
    ///
    /// By Corollary 1, `n · F_R(S)` is an unbiased estimator of `E[I(S)]`.
    pub fn coverage_fraction(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_covered(seeds) as f64 / self.len() as f64
    }

    /// Number of stored sets intersecting `seeds`.
    ///
    /// With the inverted index built this walks only the seeds' posting
    /// lists — O(Σ|sets_containing(seed)|) with a reusable per-thread
    /// scratch bitmap, which is what keeps protocol `eval`/`marginal`
    /// lines cheap against big warm pools. Without the index it falls
    /// back to scanning every member (this method never mutates the
    /// collection, so it cannot build the index itself).
    pub fn count_covered(&self, seeds: &[NodeId]) -> usize {
        if self.has_inverted_index() {
            return count_covered_indexed(self, seeds);
        }
        for &s in seeds {
            assert!((s as usize) < self.n, "seed {s} out of universe");
        }
        let mut in_seed = vec![false; self.n];
        for &s in seeds {
            in_seed[s as usize] = true;
        }
        (0..self.len())
            .filter(|&i| self.set(i).iter().any(|&v| in_seed[v as usize]))
            .count()
    }
}

impl SetsAccess for SetCollection {
    #[inline]
    fn universe(&self) -> usize {
        SetCollection::universe(self)
    }

    #[inline]
    fn len(&self) -> usize {
        SetCollection::len(self)
    }

    #[inline]
    fn total_members(&self) -> usize {
        SetCollection::total_members(self)
    }

    #[inline]
    fn set(&self, i: usize) -> &[NodeId] {
        SetCollection::set(self, i)
    }

    #[inline]
    fn has_inverted_index(&self) -> bool {
        SetCollection::has_inverted_index(self)
    }

    #[inline]
    fn sets_containing(&self, v: NodeId) -> &[u32] {
        SetCollection::sets_containing(self, v)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        SetCollection::degree(self, v)
    }
}

/// Counting-sort construction of the inverted index for an arena layout
/// (`data`/`offsets` as in [`SetCollection::raw_data`] /
/// [`SetCollection::raw_offsets`]): returns `(inv_offsets, inv_data)`
/// where node `v`'s posting list is
/// `inv_data[inv_offsets[v]..inv_offsets[v + 1]]`, with set ids strictly
/// ascending within each list (set ids are appended in increasing
/// order). Shared by [`SetCollection::ensure_inverted_index`] and the
/// `.timp` v2 pool writer in `tim_engine`, which persists the arrays so
/// a mapped pool never pays this build.
pub fn build_inverted_index(
    n: usize,
    data: &[NodeId],
    offsets: &[usize],
) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; n + 1];
    for &v in data {
        counts[v as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let inv_offsets = counts.clone();
    let mut inv_data = vec![0u32; data.len()];
    let mut cursor = counts;
    for set_id in 0..offsets.len() - 1 {
        for &v in &data[offsets[set_id]..offsets[set_id + 1]] {
            inv_data[cursor[v as usize]] = set_id as u32;
            cursor[v as usize] += 1;
        }
    }
    (inv_offsets, inv_data)
}

/// Number of sets in `collection` intersecting `seeds`, walking the
/// seeds' posting lists with a reusable per-thread scratch bitmap — the
/// index-backed counting path shared by every [`SetsAccess`] backing
/// (see [`SetCollection::count_covered`] for the cost model).
///
/// # Panics
/// Panics if the inverted index is not built or a seed falls outside the
/// universe.
pub fn count_covered_indexed<C: SetsAccess>(collection: &C, seeds: &[NodeId]) -> usize {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of universe");
    }
    COVER_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        if scratch.mark.len() < collection.len() {
            scratch.mark.resize(collection.len(), 0);
        }
        scratch.stamp = match scratch.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                scratch.mark.fill(0);
                1
            }
        };
        let stamp = scratch.stamp;
        let mut count = 0usize;
        for &s in seeds {
            for &set_id in collection.sets_containing(s) {
                let mark = &mut scratch.mark[set_id as usize];
                if *mark != stamp {
                    *mark = stamp;
                    count += 1;
                }
            }
        }
        count
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SetCollection {
        let mut c = SetCollection::new(5);
        c.push(&[0, 1]);
        c.push(&[1, 2]);
        c.push(&[3]);
        c.push(&[1, 3, 4]);
        c
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.universe(), 5);
        assert_eq!(c.total_members(), 8);
        assert_eq!(c.set(0), &[0, 1]);
        assert_eq!(c.set(3), &[1, 3, 4]);
    }

    #[test]
    fn inverted_index_matches_membership() {
        let mut c = sample();
        c.ensure_inverted_index();
        assert_eq!(c.sets_containing(1), &[0, 1, 3]);
        assert_eq!(c.sets_containing(3), &[2, 3]);
        assert_eq!(c.sets_containing(0), &[0]);
        assert_eq!(c.degree(1), 3);
        assert_eq!(c.degree(4), 1);
    }

    #[test]
    fn index_rebuilds_after_push() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.push(&[0, 4]);
        c.ensure_inverted_index();
        assert_eq!(c.sets_containing(0), &[0, 4]);
        assert_eq!(c.sets_containing(4), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_index_access_panics() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.push(&[2]);
        let _ = c.sets_containing(2);
    }

    #[test]
    fn raw_inverted_exposes_the_built_index() {
        let mut c = sample();
        assert!(c.raw_inverted().is_none(), "index not built yet");
        c.ensure_inverted_index();
        let (inv_offsets, inv_data) = c.raw_inverted().unwrap();
        assert_eq!(inv_offsets.len(), c.universe() + 1);
        assert_eq!(inv_data.len(), c.total_members());
        for v in 0..c.universe() {
            assert_eq!(
                &inv_data[inv_offsets[v]..inv_offsets[v + 1]],
                c.sets_containing(v as NodeId),
            );
        }
        c.push(&[2]);
        assert!(c.raw_inverted().is_none(), "push invalidates the index");
    }

    #[test]
    fn build_inverted_index_matches_ensure() {
        let mut c = sample();
        let (inv_offsets, inv_data) =
            build_inverted_index(c.universe(), c.raw_data(), c.raw_offsets());
        c.ensure_inverted_index();
        assert_eq!(c.raw_inverted(), Some((&inv_offsets[..], &inv_data[..])));
        // Posting lists come out strictly ascending — the invariant the
        // mapped backing validates at open.
        for v in 0..c.universe() {
            let list = &inv_data[inv_offsets[v]..inv_offsets[v + 1]];
            assert!(list.windows(2).all(|w| w[0] < w[1]), "node {v}: {list:?}");
        }
    }

    #[test]
    fn coverage_fraction_counts_intersections() {
        let c = sample();
        assert_eq!(c.coverage_fraction(&[1]), 0.75);
        assert_eq!(c.coverage_fraction(&[3]), 0.5);
        assert_eq!(c.coverage_fraction(&[1, 3]), 1.0);
        assert_eq!(c.coverage_fraction(&[]), 0.0);
        assert_eq!(c.count_covered(&[0]), 1);
    }

    #[test]
    fn empty_collection_has_zero_coverage() {
        let c = SetCollection::new(3);
        assert!(c.is_empty());
        assert_eq!(c.coverage_fraction(&[0, 1, 2]), 0.0);
    }

    #[test]
    fn empty_sets_are_allowed() {
        let mut c = SetCollection::new(3);
        c.push(&[]);
        c.push(&[1]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(0), &[] as &[NodeId]);
        assert_eq!(c.coverage_fraction(&[1]), 0.5);
    }

    #[test]
    fn memory_bytes_grows_with_content() {
        let mut c = SetCollection::new(100);
        let before = c.memory_bytes();
        for i in 0..50u32 {
            c.push(&[i, i + 1, i + 2]);
        }
        assert!(c.memory_bytes() > before);
    }

    #[test]
    fn raw_parts_round_trip() {
        let c = sample();
        let rebuilt = SetCollection::from_raw_parts(
            c.universe(),
            c.raw_data().to_vec(),
            c.raw_offsets().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), c.len());
        for i in 0..c.len() {
            assert_eq!(rebuilt.set(i), c.set(i));
        }
    }

    #[test]
    fn from_raw_parts_rejects_malformed_layouts() {
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![1, 2]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 1]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 2, 1]).is_err());
        assert!(SetCollection::from_raw_parts(2, vec![0, 9], vec![0, 2]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 1, 2]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn coverage_with_bad_seed_panics() {
        let c = sample();
        c.coverage_fraction(&[10]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn indexed_coverage_with_bad_seed_panics() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.coverage_fraction(&[10]);
    }

    /// Counts intersections the slow way, bypassing the index path — the
    /// oracle the index-backed fast path must agree with.
    fn count_covered_slow(c: &SetCollection, seeds: &[NodeId]) -> usize {
        (0..c.len())
            .filter(|&i| c.set(i).iter().any(|&v| seeds.contains(&v)))
            .count()
    }

    #[test]
    fn indexed_count_covered_matches_the_slow_path() {
        let mut c = sample();
        let seed_sets: &[&[NodeId]] = &[&[], &[0], &[1], &[1, 3], &[0, 1, 2, 3, 4], &[4, 2]];
        for &seeds in seed_sets {
            let slow = c.count_covered(seeds);
            assert_eq!(slow, count_covered_slow(&c, seeds), "oracle disagrees");
            c.ensure_inverted_index();
            assert_eq!(c.count_covered(seeds), slow, "seeds {seeds:?}");
            assert_eq!(
                c.coverage_fraction(seeds),
                slow as f64 / c.len() as f64,
                "seeds {seeds:?}"
            );
            // Drop back to the slow path for the next iteration.
            c.push(&[2]);
        }
    }

    #[test]
    fn indexed_count_covered_matches_on_random_instances() {
        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(0xC0FE);
        for _ in 0..30 {
            let n = 2 + rng.next_index(40);
            let mut c = SetCollection::new(n);
            for _ in 0..rng.next_index(80) {
                let size = rng.next_index(6);
                let mut m: Vec<NodeId> = (0..size).map(|_| rng.next_index(n) as u32).collect();
                m.sort_unstable();
                m.dedup();
                c.push(&m);
            }
            let mut seeds: Vec<NodeId> = (0..rng.next_index(n + 1))
                .map(|_| rng.next_index(n) as u32)
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let slow = c.count_covered(&seeds);
            c.ensure_inverted_index();
            // Repeated calls exercise the scratch's stamp reuse.
            assert_eq!(c.count_covered(&seeds), slow);
            assert_eq!(c.count_covered(&seeds), slow);
        }
    }
}
