//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! cargo run --release -p tim_bench --bin experiments -- <experiment> [flags]
//!
//! experiments: table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 all
//! flags:
//!   --scale <f>   override the dataset scale factor (default: per-dataset)
//!   --quick       smaller sweeps for a fast smoke run
//!   --eps <f>     override epsilon where applicable (default 0.2)
//!   --seed <u64>  RNG seed (default 0)
//!   --csv         emit CSV instead of aligned tables
//! ```
//!
//! Absolute numbers differ from the paper (synthetic stand-in datasets,
//! different hardware); the *shapes* — method ordering, crossovers in k
//! and ε — are the reproduction target. `tim_eval::datasets` documents
//! the dataset substitutions.

use std::time::Duration;
use tim_baselines::celf::{CelfGreedy, CelfVariant};
use tim_baselines::irie::Irie;
use tim_baselines::ris::Ris;
use tim_baselines::simpath::SimPath;
use tim_baselines::SeedSelector;
use tim_bench::{eps_sweep, k_sweep, prepare, Model};
use tim_core::{Tim, TimPlus, TimResult};
use tim_diffusion::{DiffusionModel, SpreadEstimator};
use tim_eval::memory::{format_bytes, peak_bytes, reset_peak, TrackingAllocator};
use tim_eval::{time, Dataset, Table};
use tim_graph::Graph;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[derive(Debug, Clone)]
struct Opts {
    scale: Option<f64>,
    quick: bool,
    csv: bool,
    eps: f64,
    seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: None,
            quick: false,
            csv: false,
            eps: 0.2,
            seed: 0,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <table2|fig3..fig12|all> [--scale f] [--quick] [--eps f] [--seed u64] [--csv]");
        std::process::exit(2);
    }
    let mut opts = Opts::default();
    let mut exp = String::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number"),
                )
            }
            "--eps" => {
                opts.eps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--eps needs a number")
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            name if exp.is_empty() && !name.starts_with("--") => exp = name.to_string(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    match exp.as_str() {
        "table2" => table2(&opts),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "fig5" => fig5(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "fig8" => fig8_9(&opts, false),
        "fig9" => fig8_9(&opts, true),
        "fig10" => fig10_11(&opts, false),
        "fig11" => fig10_11(&opts, true),
        "fig12" => fig12(&opts),
        "ablation" => ablation(&opts),
        "all" => {
            table2(&opts);
            fig3(&opts);
            fig4(&opts);
            fig5(&opts);
            fig6(&opts);
            fig7(&opts);
            fig8_9(&opts, false);
            fig8_9(&opts, true);
            fig10_11(&opts, false);
            fig10_11(&opts, true);
            fig12(&opts);
            ablation(&opts);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}

fn emit(opts: &Opts, title: &str, table: &Table) {
    println!("\n=== {title} ===");
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_ascii());
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Harness-wide reduced-fidelity settings for the expensive baselines,
/// noted in every table that uses them (the theoretical settings take
/// hours-days, which is the paper's point — Figure 3 shows RIS/CELF++ at
/// 10^3..10^5 seconds).
const CELF_RUNS: usize = 100; // paper: r = 10 000
/// τ constant for RIS. c = 1 is the *literal* Θ(kℓ(m+n)log n/ε³) threshold
/// with unit constant — already far below the hidden constant of Borgs et
/// al., yet orders of magnitude above TIM+'s sample count, reproducing
/// Figure 3's ordering.
const RIS_TAU_C: f64 = 1.0;
/// Memory-safety cap; runs that hit it report a *lower bound* on RIS cost.
const RIS_MAX_SETS: u64 = 30_000_000;
/// CELF++'s initial pass alone is n·r simulations; k above this only adds
/// to an already-demonstrated 10²–10³× gap, so the harness stops here.
const CELF_MAX_K: usize = 10;

// ---------------------------------------------------------------- table 2

fn table2(opts: &Opts) {
    let mut t = Table::new([
        "dataset",
        "paper n",
        "paper m",
        "type",
        "paper avg deg",
        "stand-in n",
        "stand-in arcs",
        "stand-in arcs/node",
    ]);
    for d in Dataset::all() {
        let g = d.build(opts.scale.unwrap_or_else(|| d.default_scale()), 1);
        let stats = g.degree_stats();
        t.push_row([
            d.name().to_string(),
            d.paper_n().to_string(),
            d.paper_m().to_string(),
            if d.undirected() {
                "undirected"
            } else {
                "directed"
            }
            .to_string(),
            format!("{:.1}", d.paper_arcs_per_node()),
            g.n().to_string(),
            g.m().to_string(),
            format!("{:.1}", stats.avg_degree),
        ]);
    }
    emit(
        opts,
        "Table 2: dataset characteristics (paper vs stand-in)",
        &t,
    );
}

// ------------------------------------------------------------ fig 3: time

fn run_tim<M: DiffusionModel + Sync + Clone>(
    g: &Graph,
    model: M,
    k: usize,
    eps: f64,
    seed: u64,
) -> TimResult {
    Tim::new(model).epsilon(eps).seed(seed).run(g, k)
}

fn run_tim_plus<M: DiffusionModel + Sync + Clone>(
    g: &Graph,
    model: M,
    k: usize,
    eps: f64,
    seed: u64,
) -> TimResult {
    TimPlus::new(model).epsilon(eps).seed(seed).run(g, k)
}

fn fig3(opts: &Opts) {
    for model in [Model::Ic, Model::Lt] {
        let g = prepare(Dataset::NetHept, opts.scale, model);
        let mut t = Table::new(["k", "TIM (s)", "TIM+ (s)", "RIS (s)", "CELF++ (s)"]);
        for k in k_sweep(opts.quick) {
            let (tim, tim_t);
            let (timp, timp_t);
            let (ris_sets, ris_t);
            let celf_t;
            match model {
                Model::Ic => {
                    let m = model.ic();
                    (tim, tim_t) = time(|| run_tim(&g, m, k, opts.eps, opts.seed));
                    (timp, timp_t) = time(|| run_tim_plus(&g, m, k, opts.eps, opts.seed));
                    (ris_sets, ris_t) = time(|| {
                        Ris::new(m)
                            .epsilon(opts.eps)
                            .tau_constant(RIS_TAU_C)
                            .max_sets(RIS_MAX_SETS)
                            .seed(opts.seed)
                            .select_with_stats(&g, k)
                            .1
                    });
                    celf_t = if k > CELF_MAX_K {
                        None
                    } else {
                        Some(
                            time(|| {
                                CelfGreedy::new(m)
                                    .variant(CelfVariant::CelfPlusPlus)
                                    .runs(CELF_RUNS)
                                    .seed(opts.seed)
                                    .select(&g, k)
                            })
                            .1,
                        )
                    };
                }
                Model::Lt => {
                    let m = model.lt();
                    (tim, tim_t) = time(|| run_tim(&g, m, k, opts.eps, opts.seed));
                    (timp, timp_t) = time(|| run_tim_plus(&g, m, k, opts.eps, opts.seed));
                    (ris_sets, ris_t) = time(|| {
                        Ris::new(m)
                            .epsilon(opts.eps)
                            .tau_constant(RIS_TAU_C)
                            .max_sets(RIS_MAX_SETS)
                            .seed(opts.seed)
                            .select_with_stats(&g, k)
                            .1
                    });
                    celf_t = if k > CELF_MAX_K {
                        None
                    } else {
                        Some(
                            time(|| {
                                CelfGreedy::new(m)
                                    .variant(CelfVariant::CelfPlusPlus)
                                    .runs(CELF_RUNS)
                                    .seed(opts.seed)
                                    .select(&g, k)
                            })
                            .1,
                        )
                    };
                }
            }
            let _ = (tim, timp, ris_sets);
            t.push_row([
                k.to_string(),
                secs(tim_t),
                secs(timp_t),
                secs(ris_t),
                celf_t.map_or("-".into(), secs),
            ]);
        }
        emit(
            opts,
            &format!(
                "Figure 3{}: running time vs k on NetHEPT, {} model \
                 (eps={}, CELF++ r={CELF_RUNS}, RIS c={RIS_TAU_C})",
                if model == Model::Ic { "a" } else { "b" },
                model.name(),
                opts.eps
            ),
            &t,
        );
    }
}

// ----------------------------------------------- fig 4: phase breakdown

fn fig4(opts: &Opts) {
    let g = prepare(Dataset::NetHept, opts.scale, Model::Ic);
    for plus in [false, true] {
        let mut t = Table::new([
            "k",
            "Alg 2 est. (s)",
            "Alg 3 refine (s)",
            "Alg 1 select (s)",
            "total (s)",
            "theta",
        ]);
        for k in k_sweep(opts.quick) {
            let r = if plus {
                run_tim_plus(
                    &g,
                    tim_diffusion::IndependentCascade,
                    k,
                    opts.eps,
                    opts.seed,
                )
            } else {
                run_tim(
                    &g,
                    tim_diffusion::IndependentCascade,
                    k,
                    opts.eps,
                    opts.seed,
                )
            };
            t.push_row([
                k.to_string(),
                secs(r.phases.parameter_estimation),
                secs(r.phases.refinement),
                secs(r.phases.node_selection),
                secs(r.phases.total()),
                r.theta.to_string(),
            ]);
        }
        emit(
            opts,
            &format!(
                "Figure 4{}: {} computation-time breakdown on NetHEPT (IC, eps={})",
                if plus { "b" } else { "a" },
                if plus { "TIM+" } else { "TIM" },
                opts.eps
            ),
            &t,
        );
    }
}

// --------------------------------------- fig 5: spread + KPT* and KPT+

fn fig5(opts: &Opts) {
    let mc_runs = if opts.quick { 2_000 } else { 10_000 };
    for model in [Model::Ic, Model::Lt] {
        let g = prepare(Dataset::NetHept, opts.scale, model);
        let mut t = Table::new(["k", "TIM", "TIM+", "RIS", "CELF++", "KPT*", "KPT+"]);

        // Greedy-style selectors are prefix-nested: select once at k_max.
        let k_values = k_sweep(opts.quick);
        let k_max = *k_values.iter().max().unwrap();

        macro_rules! with_model {
            ($m:expr) => {{
                let m = $m;
                let est = SpreadEstimator::new(m).runs(mc_runs).seed(opts.seed ^ 0xE5);
                // CELF++ seeds are greedy-nested; one run at the capped k
                // serves every smaller k.
                let celf_seeds = CelfGreedy::new(m)
                    .variant(CelfVariant::CelfPlusPlus)
                    .runs(CELF_RUNS)
                    .seed(opts.seed)
                    .select(&g, k_max.min(CELF_MAX_K));
                for &k in &k_values {
                    let tim = run_tim(&g, m, k, opts.eps, opts.seed);
                    let timp = run_tim_plus(&g, m, k, opts.eps, opts.seed);
                    let ris = Ris::new(m)
                        .epsilon(opts.eps)
                        .tau_constant(RIS_TAU_C)
                        .max_sets(RIS_MAX_SETS)
                        .seed(opts.seed)
                        .select(&g, k);
                    let celf_cell = if k <= celf_seeds.len() {
                        format!("{:.0}", est.estimate(&g, &celf_seeds[..k]))
                    } else {
                        "-".into()
                    };
                    t.push_row([
                        k.to_string(),
                        format!("{:.0}", est.estimate(&g, &tim.seeds)),
                        format!("{:.0}", est.estimate(&g, &timp.seeds)),
                        format!("{:.0}", est.estimate(&g, &ris)),
                        celf_cell,
                        format!("{:.0}", timp.kpt_star),
                        format!("{:.0}", timp.kpt_plus.unwrap()),
                    ]);
                }
            }};
        }
        match model {
            Model::Ic => with_model!(model.ic()),
            Model::Lt => with_model!(model.lt()),
        }
        emit(
            opts,
            &format!(
                "Figure 5{}: expected spread + KPT bounds on NetHEPT, {} model \
                 ({mc_runs} MC runs/estimate)",
                if model == Model::Ic { "a" } else { "b" },
                model.name()
            ),
            &t,
        );
    }
}

// ------------------------------------- fig 6: time vs k, large datasets

fn fig6(opts: &Opts) {
    for dataset in Dataset::large() {
        for model in [Model::Ic, Model::Lt] {
            let g = prepare(dataset, opts.scale, model);
            // Mirror the paper: TIM is omitted on Twitter for cost.
            let include_tim = dataset != Dataset::Twitter;
            let mut t = Table::new(["k", "TIM (s)", "TIM+ (s)", "TIM+ theta"]);
            for k in k_sweep(opts.quick) {
                let (timp, timp_t);
                let tim_t;
                match model {
                    Model::Ic => {
                        let m = model.ic();
                        (timp, timp_t) = time(|| run_tim_plus(&g, m, k, opts.eps, opts.seed));
                        tim_t =
                            include_tim.then(|| time(|| run_tim(&g, m, k, opts.eps, opts.seed)).1);
                    }
                    Model::Lt => {
                        let m = model.lt();
                        (timp, timp_t) = time(|| run_tim_plus(&g, m, k, opts.eps, opts.seed));
                        tim_t =
                            include_tim.then(|| time(|| run_tim(&g, m, k, opts.eps, opts.seed)).1);
                    }
                }
                t.push_row([
                    k.to_string(),
                    tim_t.map_or("-".into(), secs),
                    secs(timp_t),
                    timp.theta.to_string(),
                ]);
            }
            emit(
                opts,
                &format!(
                    "Figure 6 ({}, {} model): running time vs k \
                     [stand-in n={}, m={}, eps={}]",
                    dataset.name(),
                    model.name(),
                    g.n(),
                    g.m(),
                    opts.eps
                ),
                &t,
            );
        }
    }
}

// ------------------------------------------- fig 7: time vs epsilon

fn fig7(opts: &Opts) {
    for dataset in Dataset::large() {
        let mut t = Table::new([
            "eps",
            "TIM IC (s)",
            "TIM LT (s)",
            "TIM+ IC (s)",
            "TIM+ LT (s)",
        ]);
        let g_ic = prepare(dataset, opts.scale, Model::Ic);
        let g_lt = prepare(dataset, opts.scale, Model::Lt);
        let include_tim = dataset != Dataset::Twitter;
        let k = 50;
        for eps in eps_sweep(opts.quick) {
            let tim_ic = include_tim.then(|| {
                time(|| run_tim(&g_ic, tim_diffusion::IndependentCascade, k, eps, opts.seed)).1
            });
            let tim_lt = include_tim.then(|| {
                time(|| run_tim(&g_lt, tim_diffusion::LinearThreshold, k, eps, opts.seed)).1
            });
            let timp_ic =
                time(|| run_tim_plus(&g_ic, tim_diffusion::IndependentCascade, k, eps, opts.seed))
                    .1;
            let timp_lt =
                time(|| run_tim_plus(&g_lt, tim_diffusion::LinearThreshold, k, eps, opts.seed)).1;
            t.push_row([
                format!("{eps}"),
                tim_ic.map_or("-".into(), secs),
                tim_lt.map_or("-".into(), secs),
                secs(timp_ic),
                secs(timp_lt),
            ]);
        }
        emit(
            opts,
            &format!(
                "Figure 7 ({}): running time vs eps at k=50 [stand-in n={}]",
                dataset.name(),
                g_ic.n()
            ),
            &t,
        );
    }
}

// ------------------------- fig 8 / fig 9: TIM+ vs IRIE under IC

/// §7.3 datasets: everything except Twitter.
fn heuristic_datasets() -> [Dataset; 4] {
    [
        Dataset::NetHept,
        Dataset::Epinions,
        Dataset::Dblp,
        Dataset::LiveJournal,
    ]
}

fn fig8_9(opts: &Opts, spread: bool) {
    let mc_runs = if opts.quick { 2_000 } else { 10_000 };
    for dataset in heuristic_datasets() {
        let g = prepare(dataset, opts.scale, Model::Ic);
        let mut t = Table::new(if spread {
            ["k", "TIM+ spread", "IRIE spread"]
        } else {
            ["k", "TIM+ (s)", "IRIE (s)"]
        });
        let est = SpreadEstimator::new(tim_diffusion::IndependentCascade)
            .runs(mc_runs)
            .seed(opts.seed ^ 0x89);
        let k_values = k_sweep(opts.quick);
        let k_max = *k_values.iter().max().unwrap();
        // IRIE seeds are greedy-nested: one run at k_max serves all k for
        // the spread figure; timing reruns per k for fig 8.
        let irie = Irie::new(tim_diffusion::IndependentCascade).seed(opts.seed);
        let irie_seeds_max = spread.then(|| irie.select(&g, k_max));
        for &k in &k_values {
            // §7.3: TIM+ with eps = ell = 1 (weak guarantee, high speed).
            let (timp, timp_t) = time(|| {
                TimPlus::new(tim_diffusion::IndependentCascade)
                    .epsilon(1.0)
                    .ell(1.0)
                    .seed(opts.seed)
                    .run(&g, k)
            });
            if spread {
                let irie_seeds = &irie_seeds_max.as_ref().unwrap()[..k];
                t.push_row([
                    k.to_string(),
                    format!("{:.0}", est.estimate(&g, &timp.seeds)),
                    format!("{:.0}", est.estimate(&g, irie_seeds)),
                ]);
            } else {
                let (_, irie_t) = time(|| irie.select(&g, k));
                t.push_row([k.to_string(), secs(timp_t), secs(irie_t)]);
            }
        }
        emit(
            opts,
            &format!(
                "Figure {} ({}): TIM+ (eps=l=1) vs IRIE under IC — {} [stand-in n={}]",
                if spread { "9" } else { "8" },
                dataset.name(),
                if spread {
                    "expected spread"
                } else {
                    "running time"
                },
                g.n()
            ),
            &t,
        );
    }
}

// ----------------------- fig 10 / fig 11: TIM+ vs SimPath under LT

fn fig10_11(opts: &Opts, spread: bool) {
    let mc_runs = if opts.quick { 2_000 } else { 10_000 };
    for dataset in heuristic_datasets() {
        // SimPath's path enumeration is the bottleneck; keep the larger
        // stand-ins modest (the paper's SimPath runs took 10^4+ seconds).
        let scale = opts.scale.or(match dataset {
            Dataset::Dblp => Some(0.05),
            Dataset::LiveJournal => Some(0.005),
            _ => None,
        });
        let g = prepare(dataset, scale, Model::Lt);
        let mut t = Table::new(if spread {
            ["k", "TIM+ spread", "SimPath spread"]
        } else {
            ["k", "TIM+ (s)", "SimPath (s)"]
        });
        let est = SpreadEstimator::new(tim_diffusion::LinearThreshold)
            .runs(mc_runs)
            .seed(opts.seed ^ 0xAB);
        let k_values = k_sweep(opts.quick);
        let k_max = *k_values.iter().max().unwrap();
        let simpath = SimPath::new().eta(1e-3).lookahead(4);
        let sp_seeds_max = spread.then(|| simpath.select(&g, k_max));
        for &k in &k_values {
            let (timp, timp_t) = time(|| {
                TimPlus::new(tim_diffusion::LinearThreshold)
                    .epsilon(1.0)
                    .ell(1.0)
                    .seed(opts.seed)
                    .run(&g, k)
            });
            if spread {
                let sp_seeds = &sp_seeds_max.as_ref().unwrap()[..k];
                t.push_row([
                    k.to_string(),
                    format!("{:.0}", est.estimate(&g, &timp.seeds)),
                    format!("{:.0}", est.estimate(&g, sp_seeds)),
                ]);
            } else {
                let (_, sp_t) = time(|| simpath.select(&g, k));
                t.push_row([k.to_string(), secs(timp_t), secs(sp_t)]);
            }
        }
        emit(
            opts,
            &format!(
                "Figure {} ({}): TIM+ (eps=l=1) vs SimPath under LT — {} [stand-in n={}]",
                if spread { "11" } else { "10" },
                dataset.name(),
                if spread {
                    "expected spread"
                } else {
                    "running time"
                },
                g.n()
            ),
            &t,
        );
    }
}

// -------------------------------------------- fig 12: memory vs k

fn fig12(opts: &Opts) {
    for dataset in Dataset::all() {
        let mut t = Table::new([
            "k",
            "IC peak heap",
            "IC RR arena",
            "LT peak heap",
            "LT RR arena",
        ]);
        let g_ic = prepare(dataset, opts.scale, Model::Ic);
        let g_lt = prepare(dataset, opts.scale, Model::Lt);
        // ell = 1 + log 3 / log n, as in §7.4 (success >= 1 - 1/n): the
        // TimPlus driver applies that adjustment internally.
        for k in k_sweep(opts.quick) {
            reset_peak();
            let r_ic = TimPlus::new(tim_diffusion::IndependentCascade)
                .epsilon(if opts.quick { 0.3 } else { 0.1 })
                .seed(opts.seed)
                .run(&g_ic, k);
            let ic_peak = peak_bytes();
            reset_peak();
            let r_lt = TimPlus::new(tim_diffusion::LinearThreshold)
                .epsilon(if opts.quick { 0.3 } else { 0.1 })
                .seed(opts.seed)
                .run(&g_lt, k);
            let lt_peak = peak_bytes();
            t.push_row([
                k.to_string(),
                format_bytes(ic_peak),
                format_bytes(r_ic.rr_memory_bytes),
                format_bytes(lt_peak),
                format_bytes(r_lt.rr_memory_bytes),
            ]);
        }
        emit(
            opts,
            &format!(
                "Figure 12 ({}): TIM+ memory vs k [stand-in n={}, m={}, eps={}]",
                dataset.name(),
                g_ic.n(),
                g_ic.m(),
                if opts.quick { 0.3 } else { 0.1 }
            ),
            &t,
        );
    }
}

// --------------------------- ablations

fn ablation(opts: &Opts) {
    let g = prepare(Dataset::NetHept, opts.scale, Model::Ic);
    let ic = tim_diffusion::IndependentCascade;
    let k = 50;

    // A. Greedy max-coverage implementation (lazy heap vs bucket queue).
    {
        let mut t = Table::new(["k", "lazy heap (s)", "bucket queue (s)"]);
        for k in [1usize, 10, 50] {
            let (_, lazy_t) = time(|| {
                TimPlus::new(ic)
                    .epsilon(opts.eps)
                    .seed(opts.seed)
                    .greedy(tim_core::GreedyImpl::LazyHeap)
                    .run(&g, k)
            });
            let (_, bucket_t) = time(|| {
                TimPlus::new(ic)
                    .epsilon(opts.eps)
                    .seed(opts.seed)
                    .greedy(tim_core::GreedyImpl::BucketQueue)
                    .run(&g, k)
            });
            t.push_row([k.to_string(), secs(lazy_t), secs(bucket_t)]);
        }
        emit(
            opts,
            "Ablation A: greedy max-coverage variant (TIM+ total time)",
            &t,
        );
    }

    // B. θ sensitivity: spread of NodeSelection at fractions of TIM+'s θ.
    {
        let base = TimPlus::new(ic)
            .epsilon(opts.eps)
            .seed(opts.seed)
            .run(&g, k);
        let est = SpreadEstimator::new(ic).runs(5_000).seed(opts.seed ^ 0x51);
        let mut t = Table::new(["theta multiplier", "theta", "MC spread", "vs full"]);
        let full_spread = est.estimate(&g, &base.seeds);
        for mult in [0.1f64, 0.25, 0.5, 1.0, 2.0] {
            let theta = ((base.theta as f64 * mult) as u64).max(1);
            let sel = tim_core::select::node_selection(
                &g,
                &ic,
                k,
                theta,
                opts.seed ^ 0x77,
                1,
                1,
                tim_core::GreedyImpl::LazyHeap,
            );
            let spread = est.estimate(&g, &sel.seeds);
            t.push_row([
                format!("{mult}"),
                theta.to_string(),
                format!("{spread:.0}"),
                format!("{:+.1}%", 100.0 * (spread - full_spread) / full_spread),
            ]);
        }
        emit(
            opts,
            &format!(
                "Ablation B: theta sensitivity at k={k} (guaranteed theta = {})",
                base.theta
            ),
            &t,
        );
    }

    // C. ε′ choice for RefineKPT: total RR sets vs the §4.1 minimiser.
    {
        let auto = tim_core::math::epsilon_prime(opts.eps, k as u64, 1.0);
        let mut t = Table::new(["eps'", "total RR sets", "KPT+", "time (s)"]);
        for eps_p in [0.2f64, 0.5, 1.0, auto, 2.0, 4.0] {
            let (r, d) = time(|| {
                TimPlus::new(ic)
                    .epsilon(opts.eps)
                    .epsilon_prime(eps_p)
                    .seed(opts.seed)
                    .run(&g, k)
            });
            let tag = if (eps_p - auto).abs() < 1e-12 {
                format!("{eps_p:.3} (paper's minimiser)")
            } else {
                format!("{eps_p:.3}")
            };
            t.push_row([
                tag,
                r.total_rr_sets.to_string(),
                format!("{:.0}", r.kpt_plus.unwrap()),
                secs(d),
            ]);
        }
        emit(
            opts,
            "Ablation C: eps' choice in RefineKPT (total sampling effort)",
            &t,
        );
    }

    // D. TIM vs TIM+ vs IMM (the successor algorithm, our extension).
    {
        let est = SpreadEstimator::new(ic).runs(5_000).seed(opts.seed ^ 0x99);
        let mut t = Table::new(["algorithm", "time (s)", "RR sets", "MC spread"]);
        let (tim, tim_t) = time(|| Tim::new(ic).epsilon(opts.eps).seed(opts.seed).run(&g, k));
        let (timp, timp_t) = time(|| {
            TimPlus::new(ic)
                .epsilon(opts.eps)
                .seed(opts.seed)
                .run(&g, k)
        });
        let (imm, imm_t) = time(|| {
            tim_core::Imm::new(ic)
                .epsilon(opts.eps)
                .seed(opts.seed)
                .run(&g, k)
        });
        t.push_row([
            "TIM".into(),
            secs(tim_t),
            tim.total_rr_sets.to_string(),
            format!("{:.0}", est.estimate(&g, &tim.seeds)),
        ]);
        t.push_row([
            "TIM+".into(),
            secs(timp_t),
            timp.total_rr_sets.to_string(),
            format!("{:.0}", est.estimate(&g, &timp.seeds)),
        ]);
        t.push_row([
            "IMM".into(),
            secs(imm_t),
            imm.theta.to_string(),
            format!("{:.0}", est.estimate(&g, &imm.seeds)),
        ]);
        emit(
            opts,
            &format!("Ablation D: TIM vs TIM+ vs IMM at k={k}, eps={}", opts.eps),
            &t,
        );
    }
}
