//! Zero-copy, memory-mapped file views.
//!
//! [`Mmap`] is the reusable primitive: a whole file mapped read-only
//! (`PROT_READ` + `MAP_PRIVATE`) with naturally-aligned `u64`/`u32`
//! slice carving and `madvise` paging hints. It is what every
//! page-aligned binary format in the workspace maps through — the
//! `.timg` v2 snapshots here and the `.timp` v2 RR-set pools in
//! `tim_coverage`/`tim_engine`.
//!
//! [`MmapCsr`] builds on it: a [`snapshot`] v2 file served as
//! [`CsrAccess`] slices straight out of the mapping. The kernel pages
//! the graph in on demand, so attaching a multi-gigabyte snapshot
//! costs a header parse plus one structural scan instead of a full heap
//! decode, and graphs larger than RAM stay servable. The syscall bindings
//! (`mmap`/`munmap`/`madvise`) follow the same dependency-free `extern
//! "C"` idiom as the epoll reactor in `tim_server`.
//!
//! # Safety argument
//!
//! Every `unsafe` block in this module rests on the same three pillars:
//!
//! 1. **The mapping outlives every borrow.** [`Mmap`] owns the mapping
//!    and only unmaps in `Drop`; the returned slices borrow `&self`, so
//!    the borrow checker ties their lifetime to the mapping's.
//! 2. **The mapping is immutable.** `PROT_READ` + `MAP_PRIVATE` means
//!    neither this process nor (through this mapping) any other can write
//!    the pages; writes to the underlying file by another process are not
//!    ordered with our reads, which is why [`MmapCsr::verify`] exists for
//!    callers that distrust the file, and why every *structural* invariant
//!    (offsets, endpoints, probabilities) is validated eagerly at open
//!    into crate-private copies of `n`/`m`/section bounds that a racing
//!    writer cannot retroactively change. A torn read of *data* (targets,
//!    probabilities) under a racing writer can change results but cannot
//!    read out of bounds: every slice is carved from the validated
//!    section bounds, and sampling clamps endpoints defensively.
//! 3. **Alignment is guaranteed by the format.** v2 sections start on
//!    4096-byte boundaries and `mmap` returns page-aligned addresses, so
//!    reinterpreting section bytes as `u64`/`u32` is always
//!    naturally-aligned. The decoder additionally rejects files on
//!    big-endian hosts, where zero-copy reinterpretation of the
//!    little-endian sections would be wrong.

use crate::csr::CsrAccess;
use crate::snapshot::{self, v2_section, Fnv1a, V2Layout, V2_SECTION_COUNT};
use crate::{GraphError, NodeId};
use std::path::Path;

fn snap_err(message: impl Into<String>) -> GraphError {
    GraphError::Snapshot {
        message: message.into(),
    }
}

#[cfg(unix)]
mod sys {
    //! Raw bindings to the three mapping syscalls, libc-free.

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, length: usize) -> i32;
        pub fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x02;
    /// `mmap` error sentinel (`MAP_FAILED`).
    pub const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

    /// Expect random access — don't aggressively read ahead. RR-set
    /// sampling walks reverse-reachable sets, which hop arbitrarily
    /// around the CSR.
    pub const MADV_RANDOM: i32 = 1;
    /// Expect access soon — fault these pages in now.
    pub const MADV_WILLNEED: i32 = 3;
}

/// A whole file mapped read-only (`PROT_READ` + `MAP_PRIVATE`),
/// page-aligned by the kernel.
///
/// The reusable mapping primitive behind every zero-copy view in the
/// workspace: [`MmapCsr`] for `.timg` graph snapshots, `MmapSets` in
/// `tim_coverage` for `.timp` RR-set pools. [`open`](Mmap::open) rejects
/// empty files, non-unix hosts, and big-endian hosts (the page-aligned
/// formats are little-endian on disk, so zero-copy reinterpretation
/// would be wrong); dropping the value unmaps the file.
pub struct Mmap {
    /// Base address of the mapping (page-aligned, never null).
    base: *const u8,
    /// Mapped length in bytes (the whole file).
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE — immutable shared
// state. The raw pointer is only ever read through, never written, so
// &Mmap is as shareable as &[u8] and moving the struct across threads
// moves only ownership of the unmap.
unsafe impl Send for Mmap {}
// SAFETY: as above — concurrent readers of an immutable mapping.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the whole file at `path` read-only.
    ///
    /// Errors cleanly on empty files, on non-unix hosts (no mapping
    /// syscalls bound), and on big-endian hosts (callers reinterpret the
    /// mapped bytes as little-endian `u64`/`u32` sections).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Mmap, GraphError> {
        if cfg!(target_endian = "big") {
            return Err(snap_err(
                "zero-copy mapped views require a little-endian host; \
                 load the file on the heap instead",
            ));
        }
        Self::open_impl(path.as_ref())
    }

    #[cfg(not(unix))]
    fn open_impl(_path: &Path) -> Result<Mmap, GraphError> {
        Err(snap_err(
            "mapped views are only supported on unix hosts; \
             load the file on the heap instead",
        ))
    }

    #[cfg(unix)]
    fn open_impl(path: &Path) -> Result<Mmap, GraphError> {
        use std::os::fd::AsRawFd;

        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            return Err(snap_err("cannot map an empty file"));
        }
        let len = usize::try_from(file_len)
            .map_err(|_| snap_err("file is larger than the address space"))?;

        // SAFETY: plain syscall; the kernel picks the address (addr =
        // null), the fd is live for the duration of the call, and a
        // PROT_READ | MAP_PRIVATE mapping cannot alias any writable
        // memory in this process.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if base == sys::MAP_FAILED {
            return Err(GraphError::Io(std::io::Error::last_os_error()));
        }
        // The mapping persists past the close of `file` (POSIX: the
        // mapping holds its own reference), so the File can drop freely.
        Ok(Mmap { base, len })
    }

    /// Mapped length in bytes (the whole file).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never true: empty files are rejected at open.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole mapping as bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: base..base+len is a live readable mapping owned by self
        // (pillar 1); u8 has no alignment or validity requirements.
        unsafe { std::slice::from_raw_parts(self.base, self.len) }
    }

    /// `count` little-endian `u64`s starting at byte `offset`.
    ///
    /// # Panics
    /// Panics if `offset` is not 8-aligned or the range leaves the
    /// mapping — callers carve sections whose bounds a format parser has
    /// already validated, so a trip here is a caller bug, not bad data.
    #[inline]
    pub fn u64s(&self, offset: usize, count: usize) -> &[u64] {
        let len = count.checked_mul(8).expect("section length overflows");
        assert!(offset % 8 == 0, "u64 section offset must be 8-aligned");
        assert!(offset.checked_add(len).is_some_and(|e| e <= self.len));
        // SAFETY: in bounds and aligned per the asserts above, the
        // mapping is live for &self's lifetime (pillar 1), and any u64
        // bit pattern is valid (pillar 3).
        unsafe { std::slice::from_raw_parts(self.base.add(offset).cast::<u64>(), count) }
    }

    /// `count` little-endian `u32`s starting at byte `offset`.
    ///
    /// # Panics
    /// As [`u64s`](Mmap::u64s), with 4-byte alignment.
    #[inline]
    pub fn u32s(&self, offset: usize, count: usize) -> &[u32] {
        let len = count.checked_mul(4).expect("section length overflows");
        assert!(offset % 4 == 0, "u32 section offset must be 4-aligned");
        assert!(offset.checked_add(len).is_some_and(|e| e <= self.len));
        // SAFETY: as u64s(), for u32.
        unsafe { std::slice::from_raw_parts(self.base.add(offset).cast::<u32>(), count) }
    }

    /// Advises the kernel the whole mapping will be accessed randomly.
    /// Best-effort: errors are ignored — default paging is slower, not
    /// wrong.
    pub fn advise_random(&self) {
        #[cfg(unix)]
        // SAFETY: (base, len) is the live mapping; madvise only tunes
        // paging policy, it cannot invalidate the mapping.
        unsafe {
            sys::madvise(self.base as *mut u8, self.len, sys::MADV_RANDOM);
        }
    }

    /// Advises the kernel the first `prefix` bytes are needed soon
    /// (fault them in now). Best-effort; `prefix` is clamped to the
    /// mapping.
    pub fn advise_willneed_prefix(&self, prefix: usize) {
        #[cfg(unix)]
        // SAFETY: as advise_random(), over a clamped prefix.
        unsafe {
            sys::madvise(
                self.base as *mut u8,
                prefix.min(self.len),
                sys::MADV_WILLNEED,
            );
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: (base, len) is the mapping created in open_impl; we are
        // the sole owner, and no borrow of the mapping can outlive self.
        unsafe {
            sys::munmap(self.base as *mut u8, self.len);
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// A read-only memory-mapped v2 snapshot serving the [`CsrAccess`] API
/// with zero copies (labels excepted — see [`MmapCsr::labels`]).
///
/// Opening validates the header, the section table, and the full CSR
/// structure (offset monotonicity, endpoint ranges, probability ranges),
/// so the accessors can never panic or read out of bounds for any node
/// `v < n`. Per-section content checksums are **deferred**: call
/// [`MmapCsr::verify`] to pay the full integrity pass when the file's
/// provenance is in doubt. Dropping the view unmaps the file.
#[derive(Debug)]
pub struct MmapCsr {
    map: Mmap,
    n: usize,
    m: usize,
    checksum: u64,
    /// Byte offset of each section from the mapping base, in
    /// `v2_section` order.
    sections: [usize; V2_SECTION_COUNT],
    /// Per-section FNV checksums from the table, for [`MmapCsr::verify`].
    section_fnv: [u64; V2_SECTION_COUNT],
}

impl MmapCsr {
    /// Maps the v2 snapshot at `path` and validates everything needed to
    /// make the accessors infallible.
    ///
    /// Errors with a clean [`GraphError`] when the file is not a v2
    /// snapshot (use [`snapshot::snapshot_version`] to sniff first), when
    /// any structural invariant fails, and on non-unix or big-endian
    /// hosts where zero-copy mapping is not implemented (the eager heap
    /// decoder in [`snapshot::load_snapshot`] remains fully portable).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<MmapCsr, GraphError> {
        let map = Mmap::open(path)?;
        let layout = snapshot::parse_v2_layout(map.bytes(), map.len() as u64)?;
        let view = Self::from_layout(map, &layout)?;

        view.map.advise_random();
        // Offsets are touched for every sampled node; fault the header
        // and both offset sections in up front.
        view.map
            .advise_willneed_prefix(view.sections[v2_section::OUT_TARGETS]);
        Ok(view)
    }

    /// Builds the view over an already-validated layout, then runs the
    /// eager structural scan that makes the accessors infallible.
    fn from_layout(map: Mmap, layout: &V2Layout) -> Result<MmapCsr, GraphError> {
        let mut sections = [0usize; V2_SECTION_COUNT];
        let mut section_fnv = [0u64; V2_SECTION_COUNT];
        for (i, s) in layout.sections.iter().enumerate() {
            // In-bounds per parse_v2_layout; usize conversion cannot
            // truncate because offset + len <= file_len <= usize::MAX.
            sections[i] = s.offset as usize;
            section_fnv[i] = s.fnv;
        }
        let view = MmapCsr {
            map,
            n: layout.n as usize,
            m: layout.m as usize,
            checksum: layout.checksum,
            sections,
            section_fnv,
        };
        snapshot::validate_v2_csr(
            layout.n,
            layout.m,
            view.offsets(v2_section::OUT_OFFSETS),
            view.endpoints(v2_section::OUT_TARGETS),
            view.offsets(v2_section::IN_OFFSETS),
            view.endpoints(v2_section::IN_SOURCES),
            [
                view.prob_bits(v2_section::OUT_PROBS),
                view.prob_bits(v2_section::IN_PROBS),
            ],
        )?;
        Ok(view)
    }

    /// Byte length of section `i` (exact for `n`/`m`, validated at open).
    fn section_len(&self, i: usize) -> usize {
        snapshot::v2_expected_len(i, self.n as u64, self.m as u64).expect("validated at open")
            as usize
    }

    /// Raw bytes of section `i`; bounds come from the validated table.
    fn section_bytes(&self, i: usize) -> &[u8] {
        &self.map.bytes()[self.sections[i]..self.sections[i] + self.section_len(i)]
    }

    /// An offsets section as `&[u64]` (length `n + 1`).
    fn offsets(&self, i: usize) -> &[u64] {
        self.map.u64s(self.sections[i], self.section_len(i) / 8)
    }

    /// An endpoint section as `&[u32]` (length `m`).
    fn endpoints(&self, i: usize) -> &[NodeId] {
        self.map.u32s(self.sections[i], self.section_len(i) / 4)
    }

    /// A probability section as raw `&[u32]` bits (length `m`).
    fn prob_bits(&self, i: usize) -> &[u32] {
        self.map.u32s(self.sections[i], self.section_len(i) / 4)
    }

    /// A probability section as `&[f32]` (length `m`).
    fn probs(&self, i: usize) -> &[f32] {
        let bits = self.prob_bits(i);
        // SAFETY: same base pointer and length as the validated u32
        // view; every bit pattern is a valid f32 (NaNs were rejected by
        // the open-time range scan, but would be *safe* regardless).
        unsafe { std::slice::from_raw_parts(bits.as_ptr().cast::<f32>(), bits.len()) }
    }

    /// Edge range of node `v` in the section pair starting at `offsets`.
    #[inline]
    fn range(&self, offsets: &[u64], v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        // Clamp against m: the offsets were validated monotone 0..=m at
        // open, so under honest files this is the identity; under a
        // racing writer it degrades to a short slice instead of UB.
        let lo = (offsets[v] as usize).min(self.m);
        let hi = (offsets[v + 1] as usize).clamp(lo, self.m);
        lo..hi
    }

    /// The content checksum recorded in the header — equal to
    /// [`snapshot::graph_checksum`] of the heap-decoded form, so pool
    /// provenance is identical across backings without an O(m) hash.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The label section (`n × u64`), borrowed from the mapping.
    pub fn labels(&self) -> &[u64] {
        self.offsets(v2_section::LABELS)
    }

    /// Verifies every per-section FNV checksum against the mapped bytes
    /// — the deferred integrity pass. O(file size); faults in every page.
    pub fn verify(&self) -> Result<(), GraphError> {
        for i in 0..V2_SECTION_COUNT {
            let mut h = Fnv1a::new();
            h.update(self.section_bytes(i));
            if h.finish() != self.section_fnv[i] {
                return Err(snap_err(format!(
                    "v2 section {i} checksum mismatch: table says {:#018x}, \
                     data hashes to {:#018x}",
                    self.section_fnv[i],
                    h.finish()
                )));
            }
        }
        Ok(())
    }

    /// Decodes the mapping into an owned heap [`Graph`](crate::Graph) and
    /// label vector (an escape hatch for code that needs mutation, e.g.
    /// re-weighting).
    pub fn to_loaded(&self) -> Result<crate::io::LoadedGraph, GraphError> {
        snapshot::read_snapshot(self.map.bytes())
    }
}

impl CsrAccess for MmapCsr {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.range(self.offsets(v2_section::OUT_OFFSETS), v).len()
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.range(self.offsets(v2_section::IN_OFFSETS), v).len()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let r = self.range(self.offsets(v2_section::OUT_OFFSETS), v);
        &self.endpoints(v2_section::OUT_TARGETS)[r]
    }

    #[inline]
    fn out_probabilities(&self, v: NodeId) -> &[f32] {
        let r = self.range(self.offsets(v2_section::OUT_OFFSETS), v);
        &self.probs(v2_section::OUT_PROBS)[r]
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let r = self.range(self.offsets(v2_section::IN_OFFSETS), v);
        &self.endpoints(v2_section::IN_SOURCES)[r]
    }

    #[inline]
    fn in_probabilities(&self, v: NodeId) -> &[f32] {
        let r = self.range(self.offsets(v2_section::IN_OFFSETS), v);
        &self.probs(v2_section::IN_PROBS)[r]
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::snapshot::{graph_checksum, save_snapshot_v2};
    use crate::{gen, weights, Graph};

    fn sample() -> (Graph, Vec<u64>) {
        let mut g = gen::barabasi_albert(120, 4, 0.1, 11);
        weights::assign_weighted_cascade(&mut g);
        let labels: Vec<u64> = (0..g.n() as u64).map(|i| i * 3 + 1).collect();
        (g, labels)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("timg_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mmap_view_matches_heap_graph_exactly() {
        let (g, labels) = sample();
        let path = tmp("view.timg");
        save_snapshot_v2(&g, &labels, &path).unwrap();
        let view = MmapCsr::open(&path).unwrap();
        assert_eq!(view.n(), g.n());
        assert_eq!(view.m(), g.m());
        assert_eq!(view.checksum(), graph_checksum(&g));
        assert_eq!(view.labels(), labels.as_slice());
        for v in 0..g.n() as NodeId {
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(view.out_probabilities(v), g.out_probabilities(v));
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(view.in_probabilities(v), g.in_probabilities(v));
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.in_degree(v), g.in_degree(v));
        }
        view.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_snapshot_is_rejected_cleanly() {
        let path = tmp("v1.timg");
        std::fs::write(&path, crate::v1_fixture::TIMG_V1).unwrap();
        assert!(matches!(
            MmapCsr::open(&path),
            Err(GraphError::Snapshot { message }) if message.contains("not a v2")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_catches_a_post_open_flip() {
        let (g, labels) = sample();
        let path = tmp("flip.timg");
        save_snapshot_v2(&g, &labels, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80; // last label byte: structural scan passes
        std::fs::write(&path, &bytes).unwrap();
        let view = MmapCsr::open(&path).unwrap();
        assert!(view.verify().is_err(), "deferred checksum must catch it");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn to_loaded_round_trips() {
        let (g, labels) = sample();
        let path = tmp("owned.timg");
        save_snapshot_v2(&g, &labels, &path).unwrap();
        let view = MmapCsr::open(&path).unwrap();
        let loaded = view.to_loaded().unwrap();
        assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
        assert_eq!(loaded.labels, labels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resave_over_a_mapped_path_leaves_the_mapping_intact() {
        use std::os::unix::fs::MetadataExt;
        let (old, old_labels) = sample();
        let mut new = gen::barabasi_albert(60, 2, 0.1, 12);
        weights::assign_weighted_cascade(&mut new);
        let new_labels: Vec<u64> = (0..new.n() as u64).collect();
        let path = tmp("resave.timg");
        save_snapshot_v2(&old, &old_labels, &path).unwrap();
        let view = MmapCsr::open(&path).unwrap();
        let inode = std::fs::metadata(&path).unwrap().ino();

        save_snapshot_v2(&new, &new_labels, &path).unwrap();
        // Checked before the old mapping is touched: an in-place rewrite
        // keeps the inode and would fault the reads below.
        assert_ne!(
            std::fs::metadata(&path).unwrap().ino(),
            inode,
            "a re-save must publish a new inode"
        );
        assert_eq!(view.checksum(), graph_checksum(&old));
        view.verify().unwrap();
        assert_eq!(view.labels(), old_labels.as_slice());
        let fresh = MmapCsr::open(&path).unwrap();
        assert_eq!(fresh.checksum(), graph_checksum(&new));
        assert_eq!(fresh.labels(), new_labels.as_slice());
        fresh.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MmapCsr>();
    }
}
