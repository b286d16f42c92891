//! `timbench`: runs one workload of the repository benchmark. See
//! `perfbench/README.md`.
//!
//! ```text
//! timbench --workload <cold_build|restart> --seed <n> --seconds <s>
//!          --trace <0|1> --tim <path to tim> --work <scratch dir> [--tiny]
//! ```
//!
//! The last stdout line is the result object; earlier `#` lines are the
//! human-readable report (fingerprint, sample counts, layer breakdown).

mod client;
mod inputs;
mod layers;
mod oracle;
mod server;
mod stats;
mod sys;
mod workloads;

use stats::{jn, metrics_json};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Hard bound on one run, inside the 180 s a run may take.
const RUN_BUDGET: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tim: PathBuf,
    work: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
        tim: PathBuf::from(need("--tim")?),
        work: PathBuf::from(need("--work")?),
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

fn run(args: &Args) -> Result<workloads::Outcome, String> {
    let deadline = Instant::now() + RUN_BUDGET;
    let scale = if args.tiny {
        inputs::Scale::TINY
    } else {
        inputs::Scale::FULL
    };
    std::fs::create_dir_all(&args.work).map_err(|e| format!("creating work dir: {e}"))?;
    let files = inputs::generate(&args.tim, &args.work, scale)?;
    let ctx = workloads::Ctx {
        tim: args.tim.clone(),
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale,
        deadline,
        files,
    };
    let mut out = match args.workload.as_str() {
        "cold_build" => workloads::cold_build(&ctx)?,
        "restart" => workloads::restart(&ctx)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    out.layers.put(
        "error_frac",
        out.verdict.error_frac(),
        "ratio",
        out.verdict.attempted(),
    );
    for (k, v) in sys::fingerprint() {
        out.report.insert(0, (k.to_string(), v));
    }
    let f = &ctx.files;
    out.note("seed", args.seed);
    out.note(
        "tenants",
        format!(
            "hept n={} m={} eps={}; epin n={} m={} eps={}; epin_lt eps={}",
            f.hept.n, f.hept.m, scale.eps_hept, f.epin.n, f.epin.m, scale.eps_epin, scale.eps_lt
        ),
    );
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("timbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    std::fs::remove_dir_all(&args.work).ok();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("timbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let v = &out.verdict;
    for (k, val) in &out.report {
        println!("# {k}: {val}");
    }
    for (name, t) in [
        ("setup", v.setup),
        ("measured", v.measured),
        ("tail", v.tail),
    ] {
        println!(
            "# phase {name}: sent={} answered={} failed={}",
            t.sent, t.answered, t.failed
        );
    }
    let shown = if args.trace { &out.layers } else { &out.e2e };
    for m in &shown.0 {
        println!(
            "# {} = {} {} (n={})",
            m.name,
            jn(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "# failures: error lines={} missing answers={} differing answers={}",
        v.errors, v.missing, v.mismatches
    );
    if let Some(p) = &v.first_problem {
        println!("# first problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        v.failed() == 0,
        v.attempted(),
        v.failed(),
        metrics_json(shown)
    );
}
