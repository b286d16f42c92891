//! Differential determinism suite for sharded selection: full TCP
//! transcripts under `--select-threads 1/2/4/8` must be byte-identical to
//! the serial replay — selections, fast selections, spreads, marginals,
//! and batches — on both heap and mmap backings, including a pool-growth
//! race mid-session. Thread count may only ever change latency, never a
//! single answer byte.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, snapshot, weights, Graph};
use tim_server::{GraphCatalog, Server, ServerConfig, ServerState};

fn wc_graph(n: usize, seed: u64) -> Graph {
    let mut g = gen::barabasi_albert(n, 3, 0.0, seed);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn config(mmap: bool, select_threads: usize) -> ServerConfig {
    ServerConfig {
        threads: 2,
        epsilon: 1.0,
        seed: 5,
        k_max: 4,
        sample_threads: 1,
        select_threads,
        // Both backings serve the probabilities baked into the snapshot.
        weights: "keep".to_string(),
        mmap,
        ..ServerConfig::default()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_sharded_select_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a weighted graph (sparse `v*10+3` labels) as a v2 snapshot.
fn write_v2(dir: &std::path::Path, name: &str, n: usize, seed: u64) -> std::path::PathBuf {
    let g = wc_graph(n, seed);
    let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 10 + 3).collect();
    let path = dir.join(format!("{name}.timg"));
    snapshot::save_snapshot_v2(&g, &labels, &path).unwrap();
    path
}

fn state_over(
    path: &std::path::Path,
    config: ServerConfig,
) -> Arc<ServerState<IndependentCascade>> {
    let catalog = GraphCatalog::new(IndependentCascade, "ic", config);
    catalog.add_path("g", path).unwrap();
    Arc::new(ServerState::from_catalog(catalog, "g").unwrap())
}

/// Sends `lines` over one real TCP connection; returns the response lines.
fn run_client(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for l in lines {
        stream.write_all(l.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

/// Serves `path` with the given config and plays `lines` through one TCP
/// client, returning the full transcript.
fn tcp_transcript(path: &std::path::Path, config: ServerConfig, lines: &[&str]) -> Vec<String> {
    let state = state_over(path, config);
    let server = Server::bind(state, "127.0.0.1:0").unwrap();
    let handle = server.start();
    let out = run_client(handle.addr(), lines);
    handle.stop();
    out
}

/// The query mix the differential contract covers: deep and fast
/// selections (full-pool greedy), an ε-override (subset greedy), spreads,
/// marginals, and a batch. Labels are the sparse `v*10+3` form.
const MIX: &[&str] = &[
    "ping",
    "select 4",
    "select 2",
    "select 3 eps=0.5",
    "select 2 fast",
    "eval 3,13,23",
    "marginal 3,13 23",
    "batch 3",
    "select 1",
    "eval 3",
    "ping",
    "graphs",
    "stats",
];

#[test]
fn select_threads_transcripts_match_serial_on_heap_and_mmap() {
    let dir = tmpdir("transcripts");
    let path = write_v2(&dir, "g", 150, 1);

    for mmap in [false, true] {
        let serial = tcp_transcript(&path, config(mmap, 1), MIX);
        assert!(
            serial.iter().any(|l| l.starts_with("seeds: ")),
            "mix must exercise selection, got {serial:?}"
        );
        for threads in [2usize, 4, 8] {
            let sharded = tcp_transcript(&path, config(mmap, threads), MIX);
            assert_eq!(
                sharded, serial,
                "mmap={mmap} select_threads={threads}: transcript diverged from serial"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn select_threads_zero_means_all_cores_and_stays_identical() {
    let dir = tmpdir("auto");
    let path = write_v2(&dir, "g", 140, 2);
    let serial = tcp_transcript(&path, config(false, 1), MIX);
    let auto = tcp_transcript(&path, config(false, 0), MIX);
    assert_eq!(auto, serial, "select_threads=0 (all cores) diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pool_growth_race_mid_session_stays_deterministic() {
    // Client A forces pool growth mid-session (ε tightens 1.0 → 0.35, a
    // ~8x θ demand, exercising the SharedEngine write upgrade under the
    // sharded solver) while client B hammers warm-pool queries on a
    // second connection. Each client's per-session transcript must be
    // byte-identical across thread counts — on both backings.
    let dir = tmpdir("growth");
    let path = write_v2(&dir, "g", 150, 3);
    for mmap in [false, true] {
        let (a_serial, b_serial) = growth_race(&path, mmap, 1);
        assert!(
            a_serial.iter().all(|l| !l.starts_with("error")),
            "{a_serial:?}"
        );
        for threads in [2usize, 4, 8] {
            let (a, b) = growth_race(&path, mmap, threads);
            assert_eq!(a, a_serial, "mmap={mmap} t={threads}: grower diverged");
            assert_eq!(b, b_serial, "mmap={mmap} t={threads}: reader diverged");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the two-client pool-growth race against a fresh server over
/// `path` and returns (grower, reader) transcripts.
fn growth_race(
    path: &std::path::Path,
    mmap: bool,
    select_threads: usize,
) -> (Vec<String>, Vec<String>) {
    let a_mix = [
        "select 3",
        "select 4 eps=0.35", // grows the pool mid-session
        "select 2",
        "select 3 eps=0.35",
        "eval 3,13",
    ];
    let b_mix = [
        "select 2",
        "marginal 3,13 23",
        "select 2 fast",
        "eval 3,13,23",
        "select 4",
    ];
    let state = state_over(path, config(mmap, select_threads));
    let server = Server::bind(state, "127.0.0.1:0").unwrap();
    let handle = server.start();
    let addr = handle.addr();
    let a = std::thread::spawn(move || run_client(addr, &a_mix));
    let b = std::thread::spawn(move || run_client(addr, &b_mix));
    let out = (a.join().unwrap(), b.join().unwrap());
    handle.stop();
    out
}

#[test]
fn per_graph_select_threads_override_parses_and_stays_identical() {
    // The `::select_threads=` catalog override reconfigures one tenant;
    // answers still cannot depend on it.
    let dir = tmpdir("override");
    let path = write_v2(&dir, "g", 130, 4);

    let with_override = |spec: Option<&str>| -> Vec<String> {
        let catalog = GraphCatalog::new(IndependentCascade, "ic", config(false, 1));
        match spec {
            Some(s) => {
                let overrides = tim_graph::catalog::GraphOverrides::parse(s).unwrap();
                catalog.add_path_with("g", &path, overrides).unwrap();
            }
            None => catalog.add_path("g", &path).unwrap(),
        }
        let state = Arc::new(ServerState::from_catalog(catalog, "g").unwrap());
        let server = Server::bind(state, "127.0.0.1:0").unwrap();
        let handle = server.start();
        let out = run_client(handle.addr(), MIX);
        handle.stop();
        out
    };

    let serial = with_override(None);
    for spec in ["select_threads=4", "select_threads=0", "select_threads=8"] {
        assert_eq!(with_override(Some(spec)), serial, "{spec} diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn select_strategy_transcripts_match_serial_on_heap_and_mmap() {
    // The sharded solver's lazy strategy (per-worker CELF heaps, stale
    // pops re-evaluated, cached votes reused) is the same argmax as the
    // serial replay: full transcripts on a second graph match serial
    // byte-for-byte on both backings.
    let dir = tmpdir("strategy");
    let path = write_v2(&dir, "g", 150, 6);

    for mmap in [false, true] {
        let serial = tcp_transcript(&path, config(mmap, 1), MIX);
        assert!(
            serial.iter().any(|l| l.starts_with("seeds: ")),
            "mix must exercise selection, got {serial:?}"
        );
        for threads in [2usize, 8] {
            let sharded = tcp_transcript(&path, config(mmap, threads), MIX);
            assert_eq!(
                sharded, serial,
                "mmap={mmap} t={threads}: transcript diverged from serial"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pool_growth_race_stays_deterministic_under_every_strategy() {
    // The mid-session pool growth from the race test above, on a second
    // graph: growing the pool swaps the SetCollection under the lazy
    // solver, so every worker's cached heap state is rebuilt from
    // scratch. Transcripts must still match serial on both backings.
    let dir = tmpdir("growth_strategy");
    let path = write_v2(&dir, "g", 150, 7);

    for mmap in [false, true] {
        let (a_serial, b_serial) = growth_race(&path, mmap, 1);
        assert!(
            a_serial.iter().all(|l| !l.starts_with("error")),
            "{a_serial:?}"
        );
        for threads in [4usize, 8] {
            let (a, b) = growth_race(&path, mmap, threads);
            assert_eq!(a, a_serial, "mmap={mmap} t={threads}: grower diverged");
            assert_eq!(b, b_serial, "mmap={mmap} t={threads}: reader diverged");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
