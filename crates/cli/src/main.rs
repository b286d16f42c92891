//! `tim` — command-line influence maximization.
//!
//! Run `tim` with no arguments for the usage text (`commands::USAGE`),
//! the one synopsis of every subcommand and flag.
//!
//! `<graph>` is either SNAP-style text (`src dst [prob]`, `#` comments) or
//! a binary `.timg` snapshot (`tim snapshot`), auto-detected by content.
//! Node labels may be arbitrary integers; seeds are printed in original
//! labels.
//!
//! `tim query` keeps an RR-set pool warm (optionally persisted as a
//! `.timp` file) and answers line-delimited `tim/3` queries from stdin
//! (`select` / `eval` / `marginal` / `use` / `graphs` / `stats` /
//! `batch` / `ping`, plus the `--admin`-gated `attach` / `detach` /
//! `persist` / `stats pools`) — `select` answers are byte-identical to a
//! fresh `tim select --algo tim+` at the same `(seed, eps, ell, k)`.
//!
//! `tim serve` answers the same protocol over TCP from multiple worker
//! threads. One process hosts a catalog of named graphs (positional
//! graph = `default`, plus `--graph`/`--graphs` entries, loaded lazily
//! with LRU eviction beyond `--max-loaded`), each with its own
//! provenance-keyed LRU pool cache; `--graph` specs take per-graph
//! `model`/`eps`/`ell`/`seed`/`k`/`weights` overrides after `::`.
//! Sessions switch graphs with `use` and batch requests with
//! `batch <n>`. With `--pool-dir <dir>` each graph keeps its pools in a
//! persistent per-tenant store under `<dir>/<name>/`, so a restart (or a
//! newly attached tenant with existing state) loads its warm pools from
//! disk instead of resampling; `--persist-pools` writes newly built or
//! grown pools back automatically. `tim client` pipes a scripted stdin
//! session to a running server, exits nonzero if any response is
//! `error: …`, and bounds connects/reads with `--timeout` instead of
//! hanging on a dead server. The protocol spec is `docs/PROTOCOL.md`.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A malformed command line gets the usage text; a command that fails
    // on its inputs gets one error line.
    let (run, args) = commands::parse_command(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!();
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
