//! Fan-in serving benchmark: thousands of concurrent scripted sessions
//! against one server, event-loop core vs thread-pool core.
//!
//! ```text
//! cargo run --release -p tim_bench --bin c10k_fanin -- [flags]
//!
//! flags:
//!   --quick             reduced scale for CI (fewer sessions, smaller graph)
//!   --sessions <n>      override the per-mode session count
//!   --out <path>        where to write the JSON report (default BENCH_6.json)
//! ```
//!
//! Every session writes a short pipelined query script, half-closes, and
//! reads to EOF. Transcripts are checked byte-for-byte against a serial
//! replay through the same session machinery — a run that answers fast
//! but wrong fails loudly (`transcripts_ok`). The report is machine
//! readable (schema `tim-bench-fanin/1`); `bench_schema_check` validates
//! it in CI and the full-scale run is checked in at the repo root so the
//! trajectory is diffable across PRs.
//!
//! Fairness note: the first event-loop row opens every session at once
//! (that is the point of the epoll core); the thread-pool mode is driven
//! with at most 128 in flight so the measurement stays inside the
//! listener backlog — beyond that the kernel drops SYNs and the numbers
//! would measure retransmission timers, not the server. A second
//! event-loop row runs at the same 128 in flight, so the two cores are
//! also compared at matched offered load.

#[cfg(target_os = "linux")]
mod fanin_bench {
    use std::sync::Arc;
    use std::time::Duration;
    use tim_diffusion::IndependentCascade;
    use tim_server::{fanin, reactor, LabelMap, Server, ServerConfig, ServerState};

    /// The thread pool's in-flight cap (its listener backlog), which the
    /// matched-load event-loop row runs at too.
    const MATCHED_IN_FLIGHT: usize = 128;

    /// One benched serving mode.
    struct ModeReport {
        mode: &'static str,
        threads: usize,
        sessions: usize,
        max_in_flight: usize,
        wall_ms: f64,
        sessions_per_sec: f64,
        p50_ms: f64,
        p99_ms: f64,
        first_byte_p50_ms: f64,
        first_byte_p99_ms: f64,
        transcripts_ok: bool,
    }

    struct Opts {
        quick: bool,
        sessions: Option<usize>,
        out: String,
    }

    /// The query rotation every session draws from. Selections stay
    /// within the warmed `k_max` so answers are interleaving-independent
    /// (the determinism the transcript check relies on).
    const VARIANTS: &[&[&str]] = &[
        &["ping", "select 3", "eval 0,1"],
        &["select 5", "marginal 0 1", "ping"],
        &["batch 3", "ping", "select 2", "eval 1,2"],
        &["graphs", "use default", "select 4 fast"],
        &["stats", "select 1", "ping"],
    ];

    fn parse_opts() -> Opts {
        let mut opts = Opts {
            quick: false,
            sessions: None,
            out: "BENCH_6.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--sessions" => {
                    let v = it.next().expect("--sessions requires a value");
                    opts.sessions = Some(v.parse().expect("--sessions: not a number"));
                }
                "--out" => opts.out = it.next().expect("--out requires a value"),
                other => {
                    eprintln!("unknown flag: {other}");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    fn build_state(
        quick: bool,
        event_loop: bool,
        threads: usize,
    ) -> (Arc<ServerState<IndependentCascade>>, usize, usize) {
        let nodes = if quick { 300 } else { 1000 };
        let mut g = tim_graph::gen::barabasi_albert(nodes, 4, 0.0, 1);
        tim_graph::weights::assign_weighted_cascade(&mut g);
        let arcs = g.m();
        let labels = LabelMap::identity(g.n());
        let config = ServerConfig {
            threads,
            pool_cache: 4,
            epsilon: 0.8,
            ell: 1.0,
            seed: 7,
            k_max: 8,
            sample_threads: 1,
            event_loop,
            ..ServerConfig::default()
        };
        let state = Arc::new(ServerState::new(
            g,
            labels,
            IndependentCascade,
            "ic",
            config,
        ));
        // Warm the default pool before serving: sessions then never
        // trigger a θ-extension, so transcripts don't depend on which
        // session arrives first.
        state.warm_default();
        (state, nodes, arcs)
    }

    fn wire(script: &[&str]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for line in script {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        bytes
    }

    fn serial_replay(state: &ServerState<IndependentCascade>, script: &[&str]) -> Vec<u8> {
        let mut session = state.session();
        let mut out = Vec::new();
        for line in script {
            for a in session.push_line(line) {
                out.extend_from_slice(a.as_bytes());
                out.push(b'\n');
            }
        }
        for a in session.finish() {
            out.extend_from_slice(a.as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn run_mode(
        mode: &'static str,
        event_loop: bool,
        threads: usize,
        sessions: usize,
        max_in_flight: usize,
        quick: bool,
    ) -> (ModeReport, usize, usize) {
        let (state, nodes, arcs) = build_state(quick, event_loop, threads);
        let expected: Vec<Vec<u8>> = VARIANTS.iter().map(|s| serial_replay(&state, s)).collect();
        let scripts: Vec<Vec<u8>> = (0..sessions)
            .map(|i| wire(VARIANTS[i % VARIANTS.len()]))
            .collect();

        let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").expect("bind");
        let handle = server.start();
        let report = fanin::drive_sessions(
            handle.addr(),
            &scripts,
            max_in_flight,
            Duration::from_secs(900),
        )
        .expect("fan-in run");
        handle.stop();

        let transcripts_ok = report
            .outcomes
            .iter()
            .enumerate()
            .all(|(i, o)| o.transcript == expected[i % VARIANTS.len()]);
        // Session lifetime (connect → EOF) is dominated by admission
        // queueing under an everything-at-once fan-in; first-byte is the
        // per-session responsiveness number comparable across modes.
        let stats = fanin::latency_stats(&report.outcomes);
        let wall = report.wall.as_secs_f64();
        (
            ModeReport {
                mode,
                threads,
                sessions,
                max_in_flight,
                wall_ms: wall * 1e3,
                sessions_per_sec: sessions as f64 / wall,
                p50_ms: stats.p50_ms,
                p99_ms: stats.p99_ms,
                first_byte_p50_ms: stats
                    .first_byte_p50_ms
                    .expect("every script elicits answer bytes"),
                first_byte_p99_ms: stats
                    .first_byte_p99_ms
                    .expect("every script elicits answer bytes"),
                transcripts_ok,
            },
            nodes,
            arcs,
        )
    }

    fn emit_json(quick: bool, nodes: usize, arcs: usize, modes: &[ModeReport]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tim-bench-fanin/1\",\n");
        out.push_str("  \"bench\": \"c10k_fanin\",\n");
        out.push_str("  \"protocol\": \"tim/3\",\n");
        out.push_str(&format!("  \"quick\": {quick},\n"));
        out.push_str(&format!(
            "  \"graph\": {{\"kind\": \"barabasi_albert\", \"nodes\": {nodes}, \"arcs\": {arcs}}},\n"
        ));
        out.push_str("  \"modes\": [\n");
        for (i, m) in modes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"threads\": {}, \"sessions\": {}, \
                 \"max_in_flight\": {}, \"wall_ms\": {:.1}, \"sessions_per_sec\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"first_byte_p50_ms\": {:.3}, \"first_byte_p99_ms\": {:.3}, \
                 \"transcripts_ok\": {}}}{}\n",
                m.mode,
                m.threads,
                m.sessions,
                m.max_in_flight,
                m.wall_ms,
                m.sessions_per_sec,
                m.p50_ms,
                m.p99_ms,
                m.first_byte_p50_ms,
                m.first_byte_p99_ms,
                m.transcripts_ok,
                if i + 1 < modes.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    pub fn main() {
        let opts = parse_opts();
        let sessions = opts
            .sessions
            .unwrap_or(if opts.quick { 1000 } else { 10_000 });

        // Every fan-in session costs two fds (one in the driver, one in
        // the server) plus slack for listeners/epoll instances. If the
        // hard limit won't cover full concurrency, cap in-flight rather
        // than letting accept()/connect() die on EMFILE mid-run.
        let want = (2 * sessions + 512) as u64;
        let got = reactor::raise_nofile_limit(want);
        let in_flight_cap = ((got.saturating_sub(512)) / 2).max(1) as usize;
        let ev_in_flight = sessions.min(in_flight_cap);
        if ev_in_flight < sessions {
            eprintln!("note: RLIMIT_NOFILE {got} caps concurrency at {ev_in_flight} of {sessions}");
        }

        eprintln!(
            "c10k_fanin: {sessions} sessions per mode ({})",
            if opts.quick { "quick" } else { "full" }
        );

        // Event loop: every session open at once across 2 shards (minus
        // any fd-limit cap).
        let (ev, nodes, arcs) = run_mode("event_loop", true, 2, sessions, ev_in_flight, opts.quick);
        eprintln!(
            "  event_loop:  {:>8.1} sessions/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
             first-byte p50 {:>8.3} ms  ok={}",
            ev.sessions_per_sec, ev.p50_ms, ev.p99_ms, ev.first_byte_p50_ms, ev.transcripts_ok
        );

        // Thread pool: one thread per live connection; drive at most 128
        // in flight (the listener backlog) so queueing happens in
        // accept(), not in SYN retransmits.
        let matched = MATCHED_IN_FLIGHT;
        let (tp, _, _) = run_mode("thread_pool", false, 32, sessions, matched, opts.quick);
        eprintln!(
            "  thread_pool: {:>8.1} sessions/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
             first-byte p50 {:>8.3} ms  ok={}",
            tp.sessions_per_sec, tp.p50_ms, tp.p99_ms, tp.first_byte_p50_ms, tp.transcripts_ok
        );

        // Event loop again at the thread pool's in-flight level: the
        // matched-load comparison between the two cores.
        let (ev_matched, _, _) = run_mode("event_loop", true, 2, sessions, matched, opts.quick);
        eprintln!(
            "  event_loop @{matched}: {:>8.1} sessions/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
             first-byte p50 {:>8.3} ms  ok={}",
            ev_matched.sessions_per_sec,
            ev_matched.p50_ms,
            ev_matched.p99_ms,
            ev_matched.first_byte_p50_ms,
            ev_matched.transcripts_ok
        );

        let modes = [ev, tp, ev_matched];
        let json = emit_json(opts.quick, nodes, arcs, &modes);
        // Self-check the emitter against our own parser before writing:
        // a malformed report should fail here, not in CI.
        tim_bench::json::parse(&json).expect("emitted JSON must parse");
        std::fs::write(&opts.out, &json).expect("write report");
        eprintln!("wrote {}", opts.out);

        if modes.iter().any(|m| !m.transcripts_ok) {
            eprintln!("error: transcript divergence — see report");
            std::process::exit(1);
        }
    }
}

#[cfg(target_os = "linux")]
fn main() {
    fanin_bench::main();
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("c10k_fanin requires Linux (epoll-based fan-in driver)");
    std::process::exit(1);
}
