//! The serving determinism contract: N concurrent clients receive
//! responses byte-identical to a serial replay of the same commands
//! through an exclusive `QueryEngine`, for any interleaving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tim_diffusion::IndependentCascade;
use tim_engine::QueryEngine;
use tim_graph::{gen, weights, Graph};
use tim_server::{LabelMap, Server, ServerConfig, ServerState};

mod common;

fn wc_graph() -> Graph {
    let mut g = gen::barabasi_albert(300, 4, 0.0, 1);
    weights::assign_weighted_cascade(&mut g);
    g
}

/// A near-saturated cycle: one seed reaches most of the graph, so the
/// KPT bound barely rises with `k` and a `select` past `k_max` grows the
/// pool, while partial RR sets keep every answer sensitive to θ and to
/// the pool's contents.
fn lossy_cycle(n: usize) -> Graph {
    gen::directed_cycle(n, 0.999)
}

fn config() -> ServerConfig {
    ServerConfig {
        threads: 4,
        pool_cache: 4,
        epsilon: 0.8,
        ell: 1.0,
        seed: 7,
        k_max: 8,
        sample_threads: 2,
        ..ServerConfig::default()
    }
}

/// Serial ground truth: the same lines through an exclusive engine over
/// `g` with the same provenance, via the very same protocol
/// implementation.
fn serial_replay(g: Graph, lines: &[String]) -> Vec<String> {
    let labels = LabelMap::identity(g.n());
    let cfg = config();
    let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
        .epsilon(cfg.epsilon)
        .ell(cfg.ell)
        .seed(cfg.seed)
        .threads(cfg.sample_threads)
        .k_max(cfg.k_max);
    engine.warm().unwrap();
    common::serial_replay(engine, &labels, lines)
}

fn start_server(
    g: Graph,
) -> (
    Arc<ServerState<IndependentCascade>>,
    tim_server::ServerHandle,
) {
    let labels = LabelMap::identity(g.n());
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        config(),
    ));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").unwrap();
    (state, server.start())
}

/// Sends `lines` over one connection and collects the response lines.
fn run_client(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for l in lines {
        stream.write_all(l.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

#[test]
fn interleaved_clients_get_byte_identical_answers() {
    // Every command stays within the warmed pool, so every answer —
    // including eval/marginal coverage values — is a pure function of
    // provenance + query, independent of interleaving.
    let script: Vec<String> = [
        "# warm-pool session",
        "select 1",
        "select 4",
        "marginal 0 1",
        "select 8",
        "eval 0,1,2",
        "",
        "select 2 fast",
        "marginal 0,1 2",
        "ping",
        "select 5",
        "bogus query",
        "eval 0,5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let want = serial_replay(wc_graph(), &script);
    assert_eq!(want.len(), 11, "9 answers + 1 pong + 1 error");

    let (_state, handle) = start_server(wc_graph());
    let addr = handle.addr();
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let script = script.clone();
            std::thread::spawn(move || {
                // Rotate each client's command order so the worker
                // threads genuinely interleave different queries.
                let mut rotated: Vec<String> = script.clone();
                rotated.rotate_left(i % script.len());
                (rotated.clone(), run_client(addr, &rotated))
            })
        })
        .collect();

    // Answers must match a serial replay of each client's own order.
    for c in clients {
        let (sent, got) = c.join().unwrap();
        assert_eq!(got, serial_replay(wc_graph(), &sent));
    }
    handle.stop();
}

#[test]
fn pool_growth_keeps_exact_replay_byte_identical() {
    // k = 12 > k_max = 8 forces the default pool to grow mid-session
    // (on the near-saturated cycle; on a weighted-cascade graph θ(12)
    // fits in the warm pool). Exact-replay selects carve their plan's
    // θ-prefix out of whatever the pool holds, so even clients racing
    // the growth get answers byte-identical to the serial replay.
    let script: Vec<String> = ["select 12", "select 3", "select 8", "select 1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let want = serial_replay(lossy_cycle(300), &script);

    let (state, handle) = start_server(lossy_cycle(300));
    let warm_theta = state.warm_default();
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let script = script.clone();
            std::thread::spawn(move || {
                let mut rotated = script.clone();
                rotated.rotate_left(i % script.len());
                (rotated.clone(), run_client(addr, &rotated))
            })
        })
        .collect();
    for c in clients {
        let (sent, got) = c.join().unwrap();
        // Same multiset of answers as the serial replay, in the client's
        // own command order.
        let mut expect: Vec<String> = serial_replay(lossy_cycle(300), &sent);
        assert_eq!(got, expect);
        expect.sort();
        let mut sorted_want = want.clone();
        sorted_want.sort();
        assert_eq!(expect, sorted_want);
    }
    let grown = state.default_engine().pool_theta();
    assert!(
        grown > warm_theta,
        "default pool grew: {warm_theta} -> {grown}"
    );
    handle.stop();
}

/// Serves a v2 snapshot (sparse `v*10+3` labels) from the heap or
/// zero-copy mapped, with a small warm pool.
fn snapshot_server(
    path: &std::path::Path,
    mmap: bool,
) -> (
    Arc<ServerState<IndependentCascade>>,
    tim_server::ServerHandle,
) {
    let config = ServerConfig {
        threads: 2,
        epsilon: 1.0,
        seed: 5,
        k_max: 4,
        sample_threads: 1,
        // Both backings serve the probabilities baked into the snapshot.
        weights: "keep".to_string(),
        mmap,
        ..ServerConfig::default()
    };
    let catalog = tim_server::GraphCatalog::new(IndependentCascade, "ic", config);
    catalog.add_path("g", path).unwrap();
    let state = Arc::new(ServerState::from_catalog(catalog, "g").unwrap());
    let handle = Server::bind(Arc::clone(&state), "127.0.0.1:0")
        .unwrap()
        .start();
    (state, handle)
}

#[test]
fn pool_growth_race_mid_session_stays_deterministic() {
    // Client A forces the default pool to grow mid-session (k = 6 past
    // k_max = 4 on the near-saturated cycle, exercising the SharedEngine
    // write upgrade) and builds an ε = 0.35 pool while client B hammers
    // warm-pool queries on a second connection. A's transcript must
    // match the same sessions run one after the other on the heap
    // backing; each of B's answers must match B's serial answer from
    // before A's growth or from after it — on both backings.
    let dir = std::env::temp_dir().join(format!("tim_growth_race_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.timg");
    let g = lossy_cycle(150);
    let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 10 + 3).collect();
    tim_graph::snapshot::save_snapshot_v2(&g, &labels, &path).unwrap();

    let a_mix: Vec<String> = [
        "select 3",
        "select 6",          // grows the default pool mid-session
        "select 4 eps=0.35", // builds a second pool mid-session
        "select 2",
        "select 3 eps=0.35",
        "eval 3,13",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let b_mix: Vec<String> = [
        "select 2",
        "marginal 3,13 23",
        "select 2 fast",
        "eval 3,13,23",
        "select 4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let (_, handle) = snapshot_server(&path, false);
    let b_pre = run_client(handle.addr(), &b_mix);
    let a_want = run_client(handle.addr(), &a_mix);
    let b_want = run_client(handle.addr(), &b_mix);
    handle.stop();
    assert!(a_want.iter().all(|l| !l.starts_with("error")), "{a_want:?}");
    assert_ne!(b_pre, b_want, "B's answers depend on the pool's size");

    for mmap in [false, true] {
        let (state, handle) = snapshot_server(&path, mmap);
        let warm_theta = state.warm_default();
        let addr = handle.addr();
        let a = {
            let a_mix = a_mix.clone();
            std::thread::spawn(move || run_client(addr, &a_mix))
        };
        let b = {
            let b_mix = b_mix.clone();
            std::thread::spawn(move || run_client(addr, &b_mix))
        };
        assert_eq!(a.join().unwrap(), a_want, "mmap={mmap}: grower diverged");
        common::assert_pre_or_post_growth(
            &b.join().unwrap(),
            &b_pre,
            &b_want,
            &format!("mmap={mmap}: reader"),
        );
        let grown = state.default_engine().pool_theta();
        assert!(
            grown > warm_theta,
            "mmap={mmap}: default pool grew: {warm_theta} -> {grown}"
        );
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).ok();
}
