//! A frozen `.timg` v1 file and the graph it holds.
//!
//! `v1.timg` was written by the v1 writer before that writer was
//! removed. Nothing writes v1 any more, but v1 files still load, so tests
//! decode these bytes and compare them with the graph spelled out here.

// Each test target that includes this module uses only part of it.
#![allow(dead_code)]

/// The bytes of `v1.timg`.
pub const TIMG_V1: &[u8] = include_bytes!("v1.timg");

/// Node count of the fixture graph.
pub const NODES: usize = 5;

/// The fixture graph's arcs `(source, target, probability)`, in the
/// order `Graph::from_edges` was given them.
pub const EDGES: [(u32, u32, f32); 6] = [
    (0, 1, 0.5),
    (1, 2, 0.25),
    (2, 0, 1.0),
    (0, 3, 0.125),
    (3, 4, 0.75),
    (4, 1, 0.0625),
];

/// The original label of each dense node.
pub const LABELS: [u64; NODES] = [100, 7, 42, 3, 999];
