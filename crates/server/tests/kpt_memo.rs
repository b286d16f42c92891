//! The per-graph KPT memo seen from the wire: fresh-ε selects on one
//! tenant reuse the graph's KPT estimation (`kpt_hits` in `stats pools`)
//! and still answer byte-identically to a fresh `TimPlus::run` at each ε,
//! on the heap and the mmap backing; two tenants of one file under
//! different models keep separate memos.

use tim_core::TimPlus;
use tim_diffusion::{DiffusionModel, IndependentCascade, LinearThreshold, ModelKind};
use tim_graph::catalog::GraphOverrides;
use tim_graph::{gen, snapshot, weights, Graph};
use tim_server::{GraphCatalog, ServerConfig, ServerState};

const SEED: u64 = 5;

/// Weighted-cascade weights: valid under IC and LT alike.
fn wc_graph() -> Graph {
    let mut g = gen::barabasi_albert(400, 3, 0.0, 8);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn config(mmap: bool) -> ServerConfig {
    ServerConfig {
        threads: 2,
        epsilon: 1.0,
        seed: SEED,
        sample_threads: 2,
        weights: "keep".to_string(),
        mmap,
        admin: true,
        ..ServerConfig::default()
    }
}

/// Writes `g` as a v2 snapshot with sparse labels `v*10+3` into a fresh
/// temp dir and returns the file's path.
fn write_v2(g: &Graph, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_kpt_memo_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 10 + 3).collect();
    let path = dir.join("g.timg");
    snapshot::save_snapshot_v2(g, &labels, &path).unwrap();
    path
}

/// The `select` answer a fresh TIM+ run gives at `eps`, in wire labels.
fn fresh_answer<M: DiffusionModel<Graph> + Sync>(
    g: &Graph,
    model: M,
    k: usize,
    eps: f64,
) -> String {
    let run = TimPlus::new(model).epsilon(eps).seed(SEED).run(g, k);
    let labels: Vec<String> = run
        .seeds
        .iter()
        .map(|&v| (v as u64 * 10 + 3).to_string())
        .collect();
    format!("seeds: {}", labels.join(" "))
}

fn transcript(state: &ServerState<ModelKind>, lines: &[&str]) -> Vec<String> {
    let mut session = state.session();
    let mut out = Vec::new();
    for l in lines {
        out.extend(session.push_line(l));
    }
    out.extend(session.finish());
    out
}

#[test]
fn fresh_eps_selects_reuse_the_memo_and_match_fresh_runs_on_both_backings() {
    let g = wc_graph();
    let path = write_v2(&g, "backings");
    let want = [
        fresh_answer(&g, IndependentCascade, 50, 0.6),
        fresh_answer(&g, IndependentCascade, 50, 0.7),
    ];
    for mmap in [false, true] {
        let catalog = GraphCatalog::new(ModelKind::IndependentCascade, "ic", config(mmap));
        catalog.add_path("g", &path).unwrap();
        let state = ServerState::from_catalog(catalog, "g").unwrap();
        let got = transcript(
            &state,
            &["select 50 eps=0.6", "select 50 eps=0.7", "stats pools"],
        );
        assert_eq!(got[..2], want, "mmap={mmap}");
        // Each ε pool plans k = 1 and k = k_max = 50 while warming; the
        // second pool takes both from the first pool's estimations.
        assert!(
            got[2].ends_with(" kpt_hits=2 kpt_misses=2"),
            "mmap={mmap}: {}",
            got[2]
        );
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn ic_and_lt_tenants_of_one_file_keep_separate_memos() {
    let g = wc_graph();
    let path = write_v2(&g, "models");
    let mut catalog = GraphCatalog::new(ModelKind::IndependentCascade, "ic", config(false));
    catalog.register_model("lt", ModelKind::LinearThreshold);
    catalog.add_path("ic_t", &path).unwrap();
    let lt = GraphOverrides::parse("model=lt").unwrap();
    catalog.add_path_with("lt_t", &path, lt).unwrap();
    let state = ServerState::from_catalog(catalog, "ic_t").unwrap();
    let got = transcript(
        &state,
        &[
            "select 50 eps=0.6",
            "use lt_t",
            "select 50 eps=0.6",
            "stats pools",
            "select 50 eps=0.7",
            "use ic_t",
            "stats pools",
        ],
    );
    assert_eq!(got[0], fresh_answer(&g, IndependentCascade, 50, 0.6));
    assert_eq!(got[1], "using lt_t");
    assert_eq!(got[2], fresh_answer(&g, LinearThreshold, 50, 0.6));
    // The LT tenant estimated for itself, though IC had planned the same
    // (k, ℓ, seed) on the same file.
    assert!(got[3].ends_with(" kpt_hits=0 kpt_misses=2"), "{}", got[3]);
    assert_eq!(got[4], fresh_answer(&g, LinearThreshold, 50, 0.7));
    // …and the LT tenant's second ε never touched the IC tenant's memo.
    assert!(got[6].ends_with(" kpt_hits=0 kpt_misses=2"), "{}", got[6]);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
