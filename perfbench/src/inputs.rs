//! Inputs: the tenant graph files, generated with `tim generate` (from
//! fixed generator seeds, see [`HEPT_GRAPH_SEED`]) and `tim snapshot
//! --format v2`, and the request streams, which the workload seed drives
//! (id lists and ε overrides). The server only ever sees the files.

use std::path::{Path, PathBuf};
use std::process::Command;
use tim_graph::CsrAccess;

/// Deterministic 64-bit generator (SplitMix64) for request streams — kept
/// in the benchmark so the program's own RNG can change freely.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Size knobs: the full stand-ins, or the seconds-long self-test scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `tim generate --scale` for both stand-ins.
    pub graph: f64,
    /// Tenant default ε for `hept`, `epin`, and `epin_lt`.
    pub eps_hept: f64,
    pub eps_epin: f64,
    pub eps_lt: f64,
    /// ε of `cold_build`'s dedicated pools on `hept`, `epin`, `epin_lt`.
    pub cold_eps: [f64; 3],
}

impl Scale {
    pub const FULL: Scale = Scale {
        graph: 1.0,
        eps_hept: 0.5,
        eps_epin: 2.5,
        eps_lt: 0.8,
        cold_eps: [0.75, 2.25, 1.2],
    };
    pub const TINY: Scale = Scale {
        graph: 0.05,
        eps_hept: 0.5,
        eps_epin: 0.8,
        eps_lt: 0.8,
        cold_eps: [0.75, 1.2, 1.2],
    };
}

/// One generated graph file and what the benchmark needs to know of it.
#[derive(Debug, Clone)]
pub struct GraphFile {
    pub path: PathBuf,
    pub labels: Vec<u64>,
    pub n: usize,
    pub m: usize,
}

/// The two generated files: the NetHEPT and Epinions stand-ins.
#[derive(Debug, Clone)]
pub struct Files {
    pub hept: GraphFile,
    pub epin: GraphFile,
}

fn run_tim(tim: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(tim)
        .args(args)
        .output()
        .map_err(|e| format!("running tim {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "tim {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// Generator seeds of the two stand-ins. The graphs do not follow the
/// workload seed: a pool's θ is dominated by `λ/KPT⁺(1)`, and KPT⁺(1)
/// follows the single largest hub, so across generator seeds the `hept`
/// warm θ spans 0.35M–2.0M sets and the `epin` build 5.6–9.6 s — a spread
/// no run-to-run bound could hold. The workload seed drives the request
/// streams instead.
pub const HEPT_GRAPH_SEED: u64 = 15;
pub const EPIN_GRAPH_SEED: u64 = 14;

/// Generates both stand-ins into `dir`: an edge list from `tim generate`,
/// then a v2 snapshot with weighted-cascade weights baked in (so every
/// tenant, heap or mapped, serves identical probabilities).
pub fn generate(tim: &Path, dir: &Path, scale: Scale) -> Result<Files, String> {
    let one = |kind: &str, name: &str, seed: u64| -> Result<GraphFile, String> {
        let txt = dir.join(format!("{name}.txt"));
        let timg = dir.join(format!("{name}.timg"));
        let (txt_s, timg_s) = (txt.display().to_string(), timg.display().to_string());
        let (scale_s, seed_s) = (scale.graph.to_string(), seed.to_string());
        run_tim(
            tim,
            &[
                "generate", kind, "--scale", &scale_s, "--seed", &seed_s, "--out", &txt_s,
            ],
        )?;
        run_tim(
            tim,
            &[
                "snapshot",
                &txt_s,
                "--format",
                "v2",
                "--weights",
                "wc",
                "--out",
                &timg_s,
            ],
        )?;
        std::fs::remove_file(&txt).ok();
        let csr = tim_graph::MmapCsr::open(&timg).map_err(|e| format!("{timg_s}: {e}"))?;
        Ok(GraphFile {
            labels: csr.labels().to_vec(),
            n: csr.n(),
            m: csr.m(),
            path: timg,
        })
    };
    Ok(Files {
        hept: one("nethept", "hept", HEPT_GRAPH_SEED)?,
        epin: one("epinions", "epin", EPIN_GRAPH_SEED)?,
    })
}

/// A served tenant: catalog name, file, and per-graph overrides.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: &'static str,
    pub file: GraphFile,
    pub overrides: String,
}

impl Tenant {
    /// The `--graph name=path::overrides` flag value.
    pub fn spec(&self) -> String {
        format!(
            "{}={}::{}",
            self.name,
            self.file.path.display(),
            self.overrides
        )
    }

    /// `count` distinct labels of this tenant, drawn from `rng`.
    pub fn labels(&self, rng: &mut Rng, count: usize) -> Vec<u64> {
        pick(rng, &self.file.labels, count)
    }
}

/// `count` distinct values of `pool` (all of them if it is smaller).
pub fn pick(rng: &mut Rng, pool: &[u64], count: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count.min(pool.len()) {
        let l = pool[rng.below(pool.len() as u64) as usize];
        if !out.contains(&l) {
            out.push(l);
        }
    }
    out
}

/// Comma-joined label list as the protocol takes it.
pub fn ids(labels: &[u64]) -> String {
    labels
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// `hept`: IC, weighted cascade, narrow RR sets.
pub fn hept(files: &Files, scale: Scale, mapped: bool) -> Tenant {
    let mut overrides = format!("weights=keep,eps={}", scale.eps_hept);
    if mapped {
        overrides.push_str(",mmap=on,mmap_pools=on");
    }
    Tenant {
        name: "hept",
        file: files.hept.clone(),
        overrides,
    }
}

/// `epin`: IC, weighted cascade, wide RR sets (in-degree hubs).
pub fn epin(files: &Files, scale: Scale) -> Tenant {
    Tenant {
        name: "epin",
        file: files.epin.clone(),
        overrides: format!("weights=keep,eps={}", scale.eps_epin),
    }
}

/// `epin_lt`: the `epin` file under LT (RR sets are random walks).
pub fn epin_lt(files: &Files, scale: Scale) -> Tenant {
    Tenant {
        name: "epin_lt",
        file: files.epin.clone(),
        overrides: format!("model=lt,weights=lt,eps={}", scale.eps_lt),
    }
}

/// An ε override distinct from the tenant default and from other seeds'
/// overrides: `base · (1 + step/100)` plus a seed-dependent offset below
/// 1e-4 (so the pool cost does not depend on the seed). Server and replay
/// parse the same printed bits.
pub fn eps_variant(base: f64, step: u32, seed: u64) -> String {
    let v = base * (1.0 + f64::from(step) / 100.0) + (seed % 997) as f64 * 1e-7;
    format!("{v:.7}")
}
