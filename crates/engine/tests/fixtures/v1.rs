//! A frozen `.timp` v1 file and the pool it holds.
//!
//! `v1.timp` was written by the v1 writer before that writer was
//! removed. Nothing writes v1 any more, but v1 pools still load (onto the
//! heap), so tests decode these bytes and compare them with the pool
//! spelled out here.

// Each test target that includes this module uses only part of it.
#![allow(dead_code)]

/// The bytes of `v1.timp`.
pub const TIMP_V1: &[u8] = include_bytes!("v1.timp");

/// Graph checksum in the header: `graph_checksum` of the graph held by
/// the `.timg` v1 fixture of `tim_graph`.
pub const GRAPH_CHECKSUM: u64 = 0x9a50_c2e8_2925_6007;
/// Model tag in the header.
pub const MODEL: &str = "ic";
/// ε in the header.
pub const EPSILON: f64 = 0.5;
/// ℓ in the header.
pub const ELL: f64 = 1.0;
/// Run seed in the header.
pub const SEED: u64 = 7;
/// Selection-stream seed in the header: `tim_core::select_stream_seed(7)`.
pub const SELECT_SEED: u64 = 0x0813_f642_eff4_4f13;
/// `k_max` in the header.
pub const K_MAX: u32 = 2;
/// Universe (node count) of the set collection.
pub const UNIVERSE: usize = 5;
/// The stored RR sets, in order (θ = 4).
pub const SETS: [&[u32]; 4] = [&[0, 1, 2], &[3], &[4, 1], &[2]];
