//! Validates a bench report against its schema, dispatching on the
//! report's `schema` string: `tim-bench-fanin/1` (`BENCH_6.json`, the
//! `c10k_fanin` bin), `tim-bench-graph-load/1` (`BENCH_7.json`, the
//! `graph_load` bin), `tim-bench-select/1` (`BENCH_8.json`, the
//! original `select_scaling` shape), `tim-bench-select/2`
//! (`BENCH_9.json`, the per-strategy shape with `evals_per_round` work
//! counters and the lazy-vs-eager evaluation-ratio bar),
//! `tim-bench-select/3` (`BENCH_13.json`, one sharded block per thread
//! count and the evaluations-vs-node-scan bar), or
//! `tim-bench-pool-load/1` (`BENCH_10.json`, the `pool_load` bin: v1
//! heap restore vs v2 mmap open of spilled RR-set pools).
//!
//! ```text
//! cargo run -p tim_bench --bin bench_schema_check -- <report.json>
//! ```
//!
//! CI runs this on the quick-mode artifacts so a refactor that silently
//! breaks a report shape (or a run whose transcripts/answers diverged)
//! fails the build instead of producing an unreadable trajectory point.
//! Full-mode graph-load reports additionally enforce the acceptance bar:
//! v2 open+first-query must beat the v1 full parse by ≥ 5× at the
//! million-arc scale.

use tim_bench::json::{parse, Value};

fn fail(msg: &str) -> ! {
    eprintln!("bench_schema_check: {msg}");
    std::process::exit(1);
}

fn require_f64(mode: &Value, key: &str, what: &str) -> f64 {
    mode.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| fail(&format!("{what}: missing numeric '{key}'")))
}

fn check_mode(mode: &Value, name: &str) {
    let what = format!("mode '{name}'");
    for key in ["threads", "sessions", "max_in_flight"] {
        let v = require_f64(mode, key, &what);
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "{what}: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    for key in ["wall_ms", "sessions_per_sec"] {
        if require_f64(mode, key, &what) <= 0.0 {
            fail(&format!("{what}: '{key}' must be positive"));
        }
    }
    let p50 = require_f64(mode, "p50_ms", &what);
    let p99 = require_f64(mode, "p99_ms", &what);
    if p50 < 0.0 || p99 < p50 {
        fail(&format!(
            "{what}: need 0 <= p50_ms <= p99_ms, got {p50}/{p99}"
        ));
    }
    // First-byte percentiles (added after BENCH_6.json was first checked
    // in): optional for old reports, but when present they must be
    // ordered and cannot exceed the matching session-lifetime numbers.
    if mode.get("first_byte_p50_ms").is_some() || mode.get("first_byte_p99_ms").is_some() {
        let fb50 = require_f64(mode, "first_byte_p50_ms", &what);
        let fb99 = require_f64(mode, "first_byte_p99_ms", &what);
        if fb50 < 0.0 || fb99 < fb50 {
            fail(&format!(
                "{what}: need 0 <= first_byte_p50_ms <= first_byte_p99_ms, got {fb50}/{fb99}"
            ));
        }
        if fb50 > p50 || fb99 > p99 {
            fail(&format!(
                "{what}: first-byte percentiles exceed session-lifetime percentiles \
                 ({fb50}/{fb99} vs {p50}/{p99})"
            ));
        }
    }
    if mode.get("transcripts_ok").and_then(Value::as_bool) != Some(true) {
        fail(&format!(
            "{what}: transcripts_ok must be true — the run diverged"
        ));
    }
}

/// `tim-bench-fanin/…`: the c10k fan-in report shape.
fn check_fanin(doc: &Value, path: &str, schema: &str) {
    let modes = doc
        .get("modes")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'modes' array"));
    if modes.is_empty() {
        fail("'modes' is empty");
    }
    for want in ["event_loop", "thread_pool"] {
        let Some(mode) = modes
            .iter()
            .find(|m| m.get("mode").and_then(Value::as_str) == Some(want))
        else {
            fail(&format!("missing required mode '{want}'"));
        };
        check_mode(mode, want);
    }
    println!("{path}: ok ({schema}, {} modes)", modes.len());
}

/// `tim-bench-graph-load/…`: the v1-parse vs v2-mmap report shape.
fn check_graph_load(doc: &Value, path: &str, schema: &str) {
    let quick = doc
        .get("quick")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| fail("missing boolean 'quick'"));
    let scales = doc
        .get("scales")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'scales' array"));
    if scales.is_empty() {
        fail("'scales' is empty");
    }
    for scale in scales {
        let name = scale
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail("scale: missing 'name' string"));
        let what = format!("scale '{name}'");
        for key in ["nodes", "arcs", "v1_bytes", "v2_bytes"] {
            let v = require_f64(scale, key, &what);
            if v < 1.0 || v.fract() != 0.0 {
                fail(&format!(
                    "{what}: '{key}' must be a positive integer, got {v}"
                ));
            }
        }
        for key in [
            "v1_parse_ms",
            "v2_open_ms",
            "v2_open_plus_query_ms",
            "warm_query_ms",
        ] {
            if require_f64(scale, key, &what) <= 0.0 {
                fail(&format!("{what}: '{key}' must be positive"));
            }
        }
        if require_f64(scale, "first_query_ms", &what) < 0.0 {
            fail(&format!("{what}: 'first_query_ms' must be non-negative"));
        }
        if require_f64(scale, "speedup", &what) <= 0.0 {
            fail(&format!("{what}: 'speedup' must be positive"));
        }
        for key in ["answers_match", "checksums_match"] {
            if scale.get(key).and_then(Value::as_bool) != Some(true) {
                fail(&format!("{what}: '{key}' must be true — the run diverged"));
            }
        }
    }
    // Full-mode runs carry the acceptance bar: at the ~million-arc scale,
    // v2 open+first-query must beat the v1 full parse by ≥ 5×.
    if !quick {
        let Some(big) = scales
            .iter()
            .find(|s| require_f64(s, "arcs", "scale") >= 1_000_000.0)
        else {
            fail("full-mode report has no million-arc scale");
        };
        let speedup = require_f64(big, "speedup", "million-arc scale");
        if speedup < 5.0 {
            fail(&format!(
                "million-arc scale: v2 open+first-query is only {speedup:.1}x \
                 faster than the v1 parse (need >= 5x)"
            ));
        }
    }
    println!("{path}: ok ({schema}, {} scales)", scales.len());
}

/// `tim-bench-pool-load/…`: the v1-restore vs v2-mmap pool report
/// shape. Same bones as `check_graph_load`, pool-flavored fields: the
/// restore-to-first-answer pair (`v1_restore_plus_select_ms` vs
/// `v2_open_plus_select_ms`) carries the acceptance bar, and every
/// scale must have re-verified its seed sets (`answers_match`) and
/// provenance header (`provenance_match`) across backings.
fn check_pool_load(doc: &Value, path: &str, schema: &str) {
    let quick = doc
        .get("quick")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| fail("missing boolean 'quick'"));
    let scales = doc
        .get("scales")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'scales' array"));
    if scales.is_empty() {
        fail("'scales' is empty");
    }
    for scale in scales {
        let name = scale
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail("scale: missing 'name' string"));
        let what = format!("scale '{name}'");
        for key in ["nodes", "arcs", "sets", "members", "v1_bytes", "v2_bytes"] {
            let v = require_f64(scale, key, &what);
            if v < 1.0 || v.fract() != 0.0 {
                fail(&format!(
                    "{what}: '{key}' must be a positive integer, got {v}"
                ));
            }
        }
        for key in [
            "v1_load_ms",
            "v1_restore_plus_select_ms",
            "v2_open_ms",
            "v2_verify_ms",
            "v2_open_plus_select_ms",
            "speedup",
        ] {
            if require_f64(scale, key, &what) <= 0.0 {
                fail(&format!("{what}: '{key}' must be positive"));
            }
        }
        // The composite timings contain their components.
        if require_f64(scale, "v1_restore_plus_select_ms", &what)
            < require_f64(scale, "v1_load_ms", &what)
        {
            fail(&format!(
                "{what}: v1 restore+select is faster than the v1 load it contains"
            ));
        }
        for key in ["answers_match", "provenance_match"] {
            if scale.get(key).and_then(Value::as_bool) != Some(true) {
                fail(&format!("{what}: '{key}' must be true — the run diverged"));
            }
        }
    }
    // Full-mode runs carry the acceptance bar: at the ~1.3M-arc /
    // 200k-set scale, v2 open+first-select must beat the v1
    // restore+first-select by ≥ 5×.
    if !quick {
        let Some(big) = scales.iter().find(|s| {
            require_f64(s, "arcs", "scale") >= 1_000_000.0
                && require_f64(s, "sets", "scale") >= 200_000.0
        }) else {
            fail("full-mode report has no million-arc / 200k-set scale");
        };
        let speedup = require_f64(big, "speedup", "million-arc scale");
        if speedup < 5.0 {
            fail(&format!(
                "million-arc scale: v2 open+first-select is only {speedup:.1}x \
                 faster than the v1 restore+first-select (need >= 5x)"
            ));
        }
    }
    println!("{path}: ok ({schema}, {} scales)", scales.len());
}

/// `tim-bench-select/…`: the sharded-selection scaling report shape.
fn check_select(doc: &Value, path: &str, schema: &str) {
    let graph = doc
        .get("graph")
        .unwrap_or_else(|| fail("missing 'graph' object"));
    for key in ["nodes", "arcs"] {
        let v = require_f64(graph, key, "graph");
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "graph: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    for key in ["theta", "k"] {
        let v = require_f64(doc, key, "report");
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "report: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    let serial_ms = require_f64(doc, "serial_ms", "report");
    if serial_ms <= 0.0 {
        fail("report: 'serial_ms' must be positive");
    }
    let threads = doc
        .get("threads")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'threads' array"));
    // The acceptance bar names 1/2/4/8 threads; every entry must have
    // re-verified byte-identity against the serial baseline.
    for want in [1.0, 2.0, 4.0, 8.0] {
        let Some(entry) = threads
            .iter()
            .find(|t| t.get("threads").and_then(Value::as_f64) == Some(want))
        else {
            fail(&format!("missing measurement for threads={want}"));
        };
        let what = format!("threads={want}");
        if require_f64(entry, "select_ms", &what) <= 0.0 {
            fail(&format!("{what}: 'select_ms' must be positive"));
        }
        if require_f64(entry, "speedup", &what) <= 0.0 {
            fail(&format!("{what}: 'speedup' must be positive"));
        }
        if entry.get("identical").and_then(Value::as_bool) != Some(true) {
            fail(&format!(
                "{what}: 'identical' must be true — sharded selection diverged"
            ));
        }
    }
    println!("{path}: ok ({schema}, {} thread counts)", threads.len());
}

/// Shared by both strategy blocks of a `tim-bench-select/2` entry and the
/// one block of a `/3` entry.
fn check_strategy_block(entry: &Value, what: &str) -> f64 {
    if require_f64(entry, "select_ms", what) <= 0.0 {
        fail(&format!("{what}: 'select_ms' must be positive"));
    }
    if require_f64(entry, "speedup", what) <= 0.0 {
        fail(&format!("{what}: 'speedup' must be positive"));
    }
    for key in ["repushes", "dirty"] {
        let v = require_f64(entry, key, what);
        if v < 0.0 || v.fract() != 0.0 {
            fail(&format!(
                "{what}: '{key}' must be a non-negative integer, got {v}"
            ));
        }
    }
    if entry.get("identical").and_then(Value::as_bool) != Some(true) {
        fail(&format!(
            "{what}: 'identical' must be true — sharded selection diverged"
        ));
    }
    let epr = require_f64(entry, "evals_per_round", what);
    if epr <= 0.0 {
        fail(&format!("{what}: 'evals_per_round' must be positive"));
    }
    epr
}

/// The fields `tim-bench-select/2` and `/3` share — `quick`, `graph`,
/// `theta`, `k`, and the `serial` block — checked once. Returns `quick`,
/// `graph.nodes`, and the `threads` array.
fn check_select_header(doc: &Value) -> (bool, f64, &[Value]) {
    let quick = doc
        .get("quick")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| fail("missing boolean 'quick'"));
    let graph = doc
        .get("graph")
        .unwrap_or_else(|| fail("missing 'graph' object"));
    for key in ["nodes", "arcs"] {
        let v = require_f64(graph, key, "graph");
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "graph: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    for key in ["theta", "k"] {
        let v = require_f64(doc, key, "report");
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "report: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    let serial = doc
        .get("serial")
        .unwrap_or_else(|| fail("missing 'serial' object"));
    if require_f64(serial, "select_ms", "serial") <= 0.0 {
        fail("serial: 'select_ms' must be positive");
    }
    if require_f64(serial, "evals_per_round", "serial") <= 0.0 {
        fail("serial: 'evals_per_round' must be positive");
    }
    let threads = doc
        .get("threads")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'threads' array"));
    (quick, require_f64(graph, "nodes", "graph"), threads)
}

/// The `threads` entry measuring `want` worker threads.
fn thread_entry(threads: &[Value], want: f64) -> &Value {
    threads
        .iter()
        .find(|t| t.get("threads").and_then(Value::as_f64) == Some(want))
        .unwrap_or_else(|| fail(&format!("missing measurement for threads={want}")))
}

/// `tim-bench-select/2`: the per-strategy shape. Beyond the v1 checks,
/// every thread count carries an `eager` and a `lazy` block with work
/// counters, and full-mode reports must meet the lazy acceptance bar:
/// ≥ 5× fewer candidate evaluations per round wherever real sharding
/// happens (t ≥ 2 — t = 1 delegates to the serial solver under either
/// strategy, so its ratio is 1).
fn check_select_v2(doc: &Value, path: &str, schema: &str) {
    let (quick, _, threads) = check_select_header(doc);
    for want in [1.0, 2.0, 4.0, 8.0] {
        let entry = thread_entry(threads, want);
        let eager = entry
            .get("eager")
            .unwrap_or_else(|| fail(&format!("threads={want}: missing 'eager' block")));
        let lazy = entry
            .get("lazy")
            .unwrap_or_else(|| fail(&format!("threads={want}: missing 'lazy' block")));
        let eager_epr = check_strategy_block(eager, &format!("threads={want} eager"));
        let lazy_epr = check_strategy_block(lazy, &format!("threads={want} lazy"));
        let ratio = require_f64(entry, "lazy_eval_ratio", &format!("threads={want}"));
        // The recorded ratio must agree with the blocks it summarizes
        // (loose tolerance: the report rounds to one decimal).
        let derived = eager_epr / lazy_epr.max(1e-9);
        if (ratio - derived).abs() > 0.05 * derived.max(1.0) + 0.1 {
            fail(&format!(
                "threads={want}: 'lazy_eval_ratio' {ratio} does not match \
                 eager/lazy evals_per_round ({derived:.1})"
            ));
        }
        if !quick && want >= 2.0 && ratio < 5.0 {
            fail(&format!(
                "threads={want}: lazy strategy evaluates only {ratio:.1}x fewer \
                 candidates per round than eager (need >= 5x at full scale)"
            ));
        }
    }
    println!("{path}: ok ({schema}, {} thread counts)", threads.len());
}

/// `tim-bench-select/3`: one sharded `lazy` block per thread count,
/// with the v2 block checks. Full-mode reports must meet the acceptance
/// bar: wherever real sharding happens (t ≥ 2) the workers evaluate ≥ 5×
/// fewer candidates per round than a full node scan (`graph.nodes`).
fn check_select_v3(doc: &Value, path: &str, schema: &str) {
    let (quick, nodes, threads) = check_select_header(doc);
    for want in [1.0, 2.0, 4.0, 8.0] {
        let lazy = thread_entry(threads, want)
            .get("lazy")
            .unwrap_or_else(|| fail(&format!("threads={want}: missing 'lazy' block")));
        let epr = check_strategy_block(lazy, &format!("threads={want} lazy"));
        let ratio = nodes / epr;
        if !quick && want >= 2.0 && ratio < 5.0 {
            fail(&format!(
                "threads={want}: the sharded solver evaluates only {ratio:.1}x fewer \
                 candidates per round than a full node scan (need >= 5x at full scale)"
            ));
        }
    }
    println!("{path}: ok ({schema}, {} thread counts)", threads.len());
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: bench_schema_check <report.json>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: not valid JSON: {e}")));

    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("missing 'schema' string"))
        .to_string();
    if schema.starts_with("tim-bench-fanin/") {
        check_fanin(&doc, &path, &schema);
    } else if schema.starts_with("tim-bench-graph-load/") {
        check_graph_load(&doc, &path, &schema);
    } else if schema == "tim-bench-select/1" {
        check_select(&doc, &path, &schema);
    } else if schema == "tim-bench-select/2" {
        check_select_v2(&doc, &path, &schema);
    } else if schema == "tim-bench-select/3" {
        check_select_v3(&doc, &path, &schema);
    } else if schema.starts_with("tim-bench-pool-load/") {
        check_pool_load(&doc, &path, &schema);
    } else {
        fail(&format!("unknown schema '{schema}'"));
    }
}
