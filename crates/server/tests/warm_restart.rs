//! Warm-state tenancy end to end: a server restart with `--pool-dir`
//! serves a previously seen query mix with **zero** pool builds
//! (counter-asserted) and byte-identical responses, and runtime
//! attach/detach leaves concurrent sessions on other graphs
//! byte-identical to a static-catalog replay.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tim_diffusion::IndependentCascade;
use tim_graph::catalog::GraphOverrides;
use tim_graph::{gen, weights, Graph};
use tim_server::{GraphCatalog, LabelMap, Server, ServerConfig, ServerState};

fn wc_graph(n: usize, seed: u64) -> Graph {
    let mut g = gen::barabasi_albert(n, 3, 0.0, seed);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        epsilon: 1.0,
        seed: 5,
        k_max: 4,
        sample_threads: 1,
        ..ServerConfig::default()
    }
}

/// Scripted TCP session: send every line, half-close, read the full
/// response transcript.
fn tcp_session(addr: std::net::SocketAddr, lines: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(lines.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_warm_restart_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn restart_with_pool_dir_serves_warm_with_zero_rebuilds() {
    let dir = tmpdir("restart");
    let pool_dir = dir.join("pools");
    // The query mix: default pool, an ε-override pool, fast prefix,
    // coverage queries — everything whose answers depend on pool bytes.
    let mix = "ping\nselect 4\nselect 2\nselect 3 eps=0.5\nselect 2 fast\neval 0,1,2\nmarginal 0,1 2\nstats\n";

    let state = |persist: bool| {
        let g = wc_graph(150, 1);
        let n = g.n();
        Arc::new(ServerState::new(
            g,
            LabelMap::identity(n),
            IndependentCascade,
            "ic",
            ServerConfig {
                pool_dir: Some(pool_dir.clone()),
                persist_pools: persist,
                ..config()
            },
        ))
    };

    // Cold phase: serve, build pools (write-through spills them), stop.
    let cold_state = state(true);
    let server = Server::bind(Arc::clone(&cold_state), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.start();
    let cold = tcp_session(addr, mix);
    handle.stop();
    let s = cold_state.default_state().cache_stats();
    assert_eq!(s.builds, 2, "cold run samples default + override pools");
    assert_eq!(s.loads, 0);
    assert!(s.spills >= 2, "both pools spilled at build");
    drop(cold_state);

    // Warm phase: a fresh process image (new state, same pool dir,
    // read-through only) must answer byte-identically without sampling.
    let warm_state = state(false);
    let server = Server::bind(Arc::clone(&warm_state), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.start();
    let warm = tcp_session(addr, mix);
    handle.stop();
    assert_eq!(warm, cold, "restart transcript byte-identical");
    let s = warm_state.default_state().cache_stats();
    assert_eq!(s.builds, 0, "warm restart builds nothing");
    assert_eq!(s.loads, 2, "both pools loaded from the store");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mmap_pools_restart_serves_mapped_zero_build_byte_identical() {
    let dir = tmpdir("mmap_restart");
    let pool_dir = dir.join("pools");
    // Everything whose answer depends on pool bytes, the batch verb
    // included: default pool, an ε-override pool, fast prefix, coverage.
    let mix = "ping\nselect 4\nselect 2\nselect 3 eps=0.5\nselect 2 fast\n\
               eval 0,1,2\nmarginal 0,1 2\nbatch 3\nselect 3\neval 0,3\nmarginal 0 2\nstats\n";

    let state = |persist: bool, mmap_pools: bool| {
        let g = wc_graph(150, 1);
        let n = g.n();
        Arc::new(ServerState::new(
            g,
            LabelMap::identity(n),
            IndependentCascade,
            "ic",
            ServerConfig {
                pool_dir: Some(pool_dir.clone()),
                persist_pools: persist,
                mmap_pools,
                admin: true,
                ..config()
            },
        ))
    };
    let serve = |state: &Arc<ServerState<IndependentCascade>>, lines: &str| {
        let server = Server::bind(Arc::clone(state), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.start();
        let out = tcp_session(addr, lines);
        handle.stop();
        out
    };

    // Cold phase: heap serving builds and spills both pools (v2 files).
    let cold_state = state(true, false);
    let cold = serve(&cold_state, mix);
    assert_eq!(cold_state.default_state().cache_stats().builds, 2);
    drop(cold_state);

    // Heap warm restart is the reference transcript.
    let heap_state = state(false, false);
    let heap = serve(&heap_state, mix);
    assert_eq!(heap, cold, "heap restart transcript byte-identical");
    drop(heap_state);

    // Mapped warm restart: byte-identical to heap serving, zero builds,
    // and the store counters prove the pools really were mapped (and
    // checksum-verified), not decoded.
    let mapped_state = state(false, true);
    let mapped = serve(&mapped_state, format!("{mix}stats pools\n").as_str());
    let (answers, pools_line) = mapped.split_at(mapped.len() - 1);
    assert_eq!(answers, &heap[..], "mapped transcript byte-identical");
    let s = mapped_state.default_state().cache_stats();
    assert_eq!((s.builds, s.loads), (0, 2), "mapped restart builds nothing");
    for part in [
        "builds=0",
        "quarantined=0",
        "mmap_opens=2",
        "verifies=2",
        "heap_loads=0",
    ] {
        assert!(
            pools_line[0].contains(part),
            "want {part} in {}",
            pools_line[0]
        );
    }
    drop(mapped_state);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn growth_on_mapped_pool_races_readers_and_stays_byte_identical() {
    let dir = tmpdir("mmap_growth");
    let pool_dir = dir.join("pools");
    let state = |persist: bool, mmap_pools: bool| {
        let g = wc_graph(150, 1);
        let n = g.n();
        Arc::new(ServerState::new(
            g,
            LabelMap::identity(n),
            IndependentCascade,
            "ic",
            ServerConfig {
                pool_dir: Some(pool_dir.clone()),
                persist_pools: persist,
                mmap_pools,
                ..config()
            },
        ))
    };

    // Reader sessions stay within the provisioned k_max=4; the grower
    // asks for k=6, which forces ensure_theta to resample — on a mapped
    // pool that swaps the backing heap-side mid-serve.
    let readers: [&str; 2] = [
        "select 3\neval 0,1\nselect 2 fast\nmarginal 0 2\nselect 4\n",
        "select 2\nmarginal 0,1 3\neval 2,3\nselect 3 fast\nselect 4\n",
    ];
    let grower = "select 6\nselect 3\neval 0,1\n";

    // Spill once, then capture the heap-restart reference transcripts
    // serially (growth included).
    let cold_state = state(true, false);
    let server = Server::bind(Arc::clone(&cold_state), "127.0.0.1:0").unwrap();
    let (addr, handle) = (server.local_addr(), server.start());
    tcp_session(addr, "select 4\n");
    handle.stop();
    drop(cold_state);

    let heap_state = state(false, false);
    let server = Server::bind(Arc::clone(&heap_state), "127.0.0.1:0").unwrap();
    let (addr, handle) = (server.local_addr(), server.start());
    let want_grow = tcp_session(addr, grower);
    let want_readers: Vec<Vec<String>> = readers.iter().map(|r| tcp_session(addr, r)).collect();
    handle.stop();
    drop(heap_state);

    // Mapped restart: the grower races the readers. Answers must match
    // the serial heap reference line for line regardless of interleaving.
    let mapped_state = state(false, true);
    let server = Server::bind(Arc::clone(&mapped_state), "127.0.0.1:0").unwrap();
    let (addr, handle) = (server.local_addr(), server.start());
    std::thread::scope(|scope| {
        let grow = scope.spawn(move || tcp_session(addr, grower));
        let got: Vec<_> = readers
            .iter()
            .map(|r| scope.spawn(move || tcp_session(addr, r)))
            .collect();
        assert_eq!(grow.join().unwrap(), want_grow, "grower byte-identical");
        for (th, want) in got.into_iter().zip(&want_readers) {
            assert_eq!(&th.join().unwrap(), want, "reader byte-identical");
        }
    });
    handle.stop();
    assert_eq!(
        mapped_state.default_state().cache_stats().builds,
        0,
        "growth resamples in place, never a cold build"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attach_detach_mid_session_leaves_other_graphs_byte_identical() {
    let dir = tmpdir("attach");
    // Path-backed graphs so attach/detach exercise the real load path.
    let write = |name: &str, seed: u64| {
        let path = dir.join(format!("{name}.txt"));
        tim_graph::io::save_edge_list(&wc_graph(120, seed), &path).unwrap();
        path
    };
    let (pa, pb, pc) = (write("a", 1), write("b", 2), write("c", 3));
    let on_a = ["select 3", "select 2 eps=0.8", "eval 0,1", "select 2 fast"];
    let on_b = ["select 2", "marginal 0 1"];

    // Ground truth: a static single-graph catalog per graph, replayed
    // serially with no catalog mutation anywhere near it.
    let replay = |path: &std::path::Path, lines: &[&str]| -> Vec<String> {
        let catalog = GraphCatalog::new(IndependentCascade, "ic", config());
        catalog.add_path("only", path).unwrap();
        let state = ServerState::from_catalog(catalog, "only").unwrap();
        let mut session = state.session();
        let mut out = Vec::new();
        for l in lines {
            out.extend(session.push_line(l));
        }
        out.extend(session.finish());
        out
    };
    let want_a: Vec<String> = [replay(&pa, &on_a[..2]), replay(&pa, &on_a[2..])]
        .concat()
        .to_vec();
    let want_b = replay(&pb, &on_b);

    // Dynamic catalog: sessions on a and b run while c is attached,
    // queried, and b is detached between their chunks.
    let catalog = GraphCatalog::new(
        IndependentCascade,
        "ic",
        ServerConfig {
            admin: true,
            ..config()
        },
    );
    catalog.add_path("a", &pa).unwrap();
    catalog.add_path("b", &pb).unwrap();
    let state = ServerState::from_catalog(catalog, "a").unwrap();

    let mut sess_a = state.session();
    let mut sess_b = state.session();
    let mut admin = state.session();
    assert_eq!(admin.push_line("use b"), ["using b"]);

    let mut got_a: Vec<String> = Vec::new();
    let mut got_b: Vec<String> = Vec::new();
    for l in &on_a[..2] {
        got_a.extend(sess_a.push_line(l));
    }
    got_b.extend(sess_b.push_line("use b"));
    got_b.extend(sess_b.push_line(on_b[0]));

    // Mid-session mutation: attach c, query it, detach b.
    assert_eq!(
        admin.push_line(&format!("attach c={}", pc.display())),
        ["attached c".to_string()]
    );
    let mut on_c = state.session();
    assert_eq!(on_c.push_line("use c"), ["using c"]);
    assert!(on_c.push_line("select 2")[0].starts_with("seeds: "));
    assert_eq!(admin.push_line("detach b"), ["detached b"]);
    assert!(!state.catalog().contains("b"));

    // The in-flight sessions finish undisturbed: sess_b drains on its
    // held state, sess_a never notices anything.
    for l in &on_a[2..] {
        got_a.extend(sess_a.push_line(l));
    }
    got_b.extend(sess_b.push_line(on_b[1]));
    got_a.extend(sess_a.finish());
    got_b.extend(sess_b.finish());

    assert_eq!(got_b.remove(0), "using b");
    assert_eq!(got_a, want_a, "session on a == static-catalog replay");
    assert_eq!(got_b, want_b, "drained session on b == static replay");

    // A session that tries b *after* the detach is cleanly rejected.
    let mut late = state.session();
    assert_eq!(
        late.push_line("use b"),
        ["error: use: unknown graph 'b'".to_string()]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attached_tenant_with_existing_store_starts_warm() {
    // The "newly attached tenant pays the cold build again" half of the
    // motivation: a tenant attached at runtime whose pool store already
    // has state must start warm.
    let dir = tmpdir("tenant");
    let pool_dir = dir.join("pools");
    let path = dir.join("t.txt");
    tim_graph::io::save_edge_list(&wc_graph(130, 7), &path).unwrap();
    let overrides = GraphOverrides::parse("eps=0.9,seed=11").unwrap();

    let make_state = || {
        let catalog = GraphCatalog::new(
            IndependentCascade,
            "ic",
            ServerConfig {
                admin: true,
                pool_dir: Some(pool_dir.clone()),
                persist_pools: true,
                ..config()
            },
        );
        catalog
            .add_resident("main", wc_graph(150, 1), LabelMap::identity(150))
            .unwrap();
        ServerState::from_catalog(catalog, "main").unwrap()
    };

    // First life: attach the tenant, query it (builds + spills), detach.
    let state = make_state();
    let mut s = state.session();
    assert_eq!(
        s.push_line(&format!("attach t={}::eps=0.9,seed=11", path.display())),
        ["attached t"]
    );
    s.push_line("use t");
    let first = s.push_line("select 3");
    let t_state = state.catalog().get("t").unwrap();
    assert_eq!(t_state.cache_stats().builds, 1);
    drop(s);
    drop(t_state);
    state.catalog().detach("t").unwrap();

    // Second life (fresh process image): the same tenant attaches with
    // the same overrides and answers from its store — zero builds.
    let state = make_state();
    state.catalog().attach_path("t", &path, overrides).unwrap();
    let mut s = state.session();
    s.push_line("use t");
    assert_eq!(s.push_line("select 3"), first, "warm tenant, same bytes");
    let t_state = state.catalog().get("t").unwrap();
    assert_eq!(t_state.cache_stats().builds, 0, "no cold build");
    assert_eq!(t_state.cache_stats().loads, 1);
    std::fs::remove_dir_all(&dir).ok();
}
