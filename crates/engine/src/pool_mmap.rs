//! Zero-copy mapped RR-set pools.
//!
//! [`PoolMmap`] attaches a `.timp` v2 file without loading it: the
//! header and section table are parsed and validated eagerly (see
//! [`pool`](crate::pool) for the layout), the four sections are carved
//! as slices straight out of a `PROT_READ` mapping, and the persisted
//! inverted index means the first greedy selection runs with no index
//! rebuild. Open cost is a header parse plus one structural scan —
//! independent of how the kernel later pages the arenas in — so pools
//! larger than RAM stay servable, mirroring `tim_graph::MmapCsr` for
//! `.timg` snapshots.
//!
//! Per-section checksums are deferred to [`verify`](PoolMmap::verify);
//! structural validation (monotone offsets, in-universe members, a
//! consistent ascending inverted index) happens at open inside
//! [`MmapSets::from_map`], so the solvers can never index out of
//! bounds even over a hostile file.

use crate::error::EngineError;
use crate::pool::{parse_v2, PoolMeta, RrPool};
use std::path::Path;
use std::sync::Arc;
use tim_coverage::MmapSets;
use tim_graph::{GraphError, Mmap};

fn map_graph_err(e: GraphError) -> EngineError {
    match e {
        GraphError::Io(io) => EngineError::Io(io),
        other => EngineError::Format(other.to_string()),
    }
}

/// A `.timp` v2 pool served zero-copy from a read-only file mapping:
/// validated provenance plus a shared [`MmapSets`] collection.
#[derive(Debug)]
pub struct PoolMmap {
    meta: PoolMeta,
    sets: Arc<MmapSets>,
}

impl PoolMmap {
    /// Maps and validates the v2 pool at `path`.
    ///
    /// Errors: [`EngineError::Io`] when the file cannot be opened (a
    /// missing file stays distinguishable from a corrupt one);
    /// [`EngineError::Format`] on any header, table, or structural
    /// violation — including v1 files, which must be loaded eagerly via
    /// [`RrPool::load`] instead.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, EngineError> {
        let map = Mmap::open(path).map_err(map_graph_err)?;
        let (meta, layout) = parse_v2(map.bytes(), map.len() as u64)?;
        let sets = MmapSets::from_map(map, &layout).map_err(EngineError::Format)?;
        Ok(PoolMmap {
            meta,
            sets: Arc::new(sets),
        })
    }

    /// Provenance of the mapped pool, as recorded in the (checksummed)
    /// header.
    pub fn meta(&self) -> &PoolMeta {
        &self.meta
    }

    /// The mapped collection.
    pub fn sets(&self) -> &Arc<MmapSets> {
        &self.sets
    }

    /// Bytes of the underlying file mapping.
    pub fn mapped_bytes(&self) -> usize {
        self.sets.mapped_bytes()
    }

    /// Full integrity pass: hashes every section and compares against
    /// the table recorded at spill time. O(file size) — the cost open
    /// deliberately defers.
    pub fn verify(&self) -> Result<(), EngineError> {
        self.sets.verify().map_err(EngineError::Format)
    }

    /// Splits into provenance and the shared collection (what the
    /// engine threads into its backing store).
    pub fn into_parts(self) -> (PoolMeta, Arc<MmapSets>) {
        (self.meta, self.sets)
    }

    /// Materializes a heap [`RrPool`] — the escape hatch for growth or
    /// for re-spilling through the v1 writer.
    pub fn to_pool(&self) -> RrPool {
        RrPool {
            meta: self.meta.clone(),
            sets: self.sets.to_collection(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_coverage::SetCollection;

    fn sample_pool() -> RrPool {
        let mut sets = SetCollection::new(10);
        sets.push(&[0, 1, 2]);
        sets.push(&[3]);
        sets.push(&[4, 5]);
        sets.push(&[2, 3, 9]);
        RrPool {
            meta: PoolMeta {
                graph_checksum: 0xFEED_F00D,
                model: "ic".into(),
                epsilon: 0.2,
                ell: 1.0,
                seed: 7,
                k_max: 3,
                theta: 4,
                select_seed: 99,
            },
            sets,
        }
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("timp_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.timp"))
    }

    #[test]
    fn open_serves_the_spilled_sets_without_heap_decode() {
        let pool = sample_pool();
        let path = temp_file("open");
        pool.save_v2(&path).unwrap();
        let mapped = PoolMmap::open(&path).unwrap();
        assert_eq!(mapped.meta(), &pool.meta);
        assert_eq!(mapped.sets().len(), pool.sets.len());
        for i in 0..pool.sets.len() {
            assert_eq!(mapped.sets().set(i), pool.sets.set(i));
        }
        // The persisted index answers membership queries immediately.
        assert_eq!(mapped.sets().sets_containing(2), &[0, 3]);
        assert!(mapped.mapped_bytes() > 0);
        mapped.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected_with_a_clean_error() {
        let path = temp_file("v1");
        std::fs::write(&path, crate::v1_fixture::TIMP_V1).unwrap();
        match PoolMmap::open(&path) {
            Err(EngineError::Format(m)) => assert!(m.contains("not a v2 pool"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn resave_over_a_mapped_path_leaves_the_mapping_intact() {
        use std::os::unix::fs::MetadataExt;
        let old = sample_pool();
        let mut new = sample_pool();
        new.sets.push(&[7, 8]);
        new.meta.theta = 5;
        new.meta.seed = 8;
        let path = temp_file("resave");
        old.save_v2(&path).unwrap();
        let mapped = PoolMmap::open(&path).unwrap();
        let inode = std::fs::metadata(&path).unwrap().ino();

        new.save_v2(&path).unwrap();
        // Checked before the old mapping is touched: an in-place rewrite
        // keeps the inode and would fault the reads below.
        assert_ne!(
            std::fs::metadata(&path).unwrap().ino(),
            inode,
            "a re-save must publish a new inode"
        );
        mapped.verify().unwrap();
        assert_eq!(mapped.meta(), &old.meta);
        for i in 0..old.sets.len() {
            assert_eq!(mapped.sets().set(i), old.sets.set(i));
        }
        let fresh = PoolMmap::open(&path).unwrap();
        assert_eq!(fresh.meta(), &new.meta);
        assert_eq!(fresh.sets().set(4), new.sets.set(4));
        fresh.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_not_format() {
        assert!(matches!(
            PoolMmap::open(temp_file("missing-nonexistent")),
            Err(EngineError::Io(_))
        ));
    }

    #[test]
    fn to_pool_round_trips_through_the_heap() {
        let pool = sample_pool();
        let path = temp_file("roundtrip");
        pool.save_v2(&path).unwrap();
        let mapped = PoolMmap::open(&path).unwrap();
        let heap = mapped.to_pool();
        assert_eq!(heap.meta, pool.meta);
        let mut buf = Vec::new();
        heap.write_v2(&mut buf).unwrap();
        assert_eq!(buf, std::fs::read(&path).unwrap(), "respill is byte-stable");
        std::fs::remove_file(&path).ok();
    }
}
