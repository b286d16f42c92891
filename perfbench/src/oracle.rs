//! The correctness oracle: the same request lines replayed serially,
//! in-process, through `tim_server::Session` on a `ServerState` built from
//! the same graph specs — hence the same pool provenance — as the server.

use crate::client::{Exchange, Phase};
use crate::inputs::Tenant;
use std::path::Path;
use std::time::Instant;
use tim_diffusion::ModelKind;
use tim_server::{GraphCatalog, ServerConfig, ServerState};

/// An in-process serving state configured like `tim serve` with the
/// given tenants, `--admin`, and optionally `--pool-dir` (with
/// `--persist-pools` when `persist`) — so its sessions take the server's
/// code path, and the θ of every pool it built can be read back from its
/// store. Answers do not depend on the store.
pub fn state(
    tenants: &[Tenant],
    pool_dir: Option<&Path>,
    persist: bool,
) -> Result<ServerState<ModelKind>, String> {
    let config = ServerConfig {
        admin: true,
        pool_dir: pool_dir.map(Path::to_path_buf),
        persist_pools: persist,
        ..ServerConfig::default()
    };
    let mut catalog = GraphCatalog::new(ModelKind::IndependentCascade, "ic", config);
    catalog.register_model("lt", ModelKind::LinearThreshold);
    for t in tenants {
        let (name, path, overrides) =
            tim_graph::catalog::parse_graph_spec_full(&t.spec()).map_err(|e| e.to_string())?;
        catalog.add_path_with(name, path, overrides)?;
    }
    // `tim serve` without a positional graph defaults to the first name.
    let default = catalog.names()[0].clone();
    ServerState::from_catalog(catalog, default)
}

/// Replay of one connection: answer and in-process time per line.
pub struct Replay {
    pub answers: Vec<String>,
    pub micros: Vec<f64>,
}

/// Feeds `lines` through one `Session`, timing each `push_line`.
pub fn replay(state: &ServerState<ModelKind>, lines: &[&str]) -> Replay {
    let mut session = state.session();
    let mut answers = Vec::with_capacity(lines.len());
    let mut micros = Vec::with_capacity(lines.len());
    for line in lines {
        let t = Instant::now();
        let mut out = session.push_line(line);
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        answers.push(if out.len() == 1 {
            out.pop().expect("one answer")
        } else {
            format!("error: oracle expected one answer, got {}", out.len())
        });
    }
    session.finish();
    Replay { answers, micros }
}

/// Lines whose answers are live counters, not functions of provenance:
/// they are checked by the workloads, not compared byte for byte.
pub fn is_counter_line(line: &str) -> bool {
    line == "stats pools" || line == "persist"
}

/// Per-phase request accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: usize,
    pub answered: usize,
    pub failed: usize,
}

/// Outcome of comparing a TCP log with the oracle.
#[derive(Debug, Default)]
pub struct Verdict {
    pub setup: Tally,
    pub measured: Tally,
    pub tail: Tally,
    pub errors: usize,
    pub missing: usize,
    pub mismatches: usize,
    pub first_problem: Option<String>,
}

impl Verdict {
    pub fn attempted(&self) -> usize {
        self.setup.sent + self.measured.sent + self.tail.sent
    }

    pub fn failed(&self) -> usize {
        self.setup.failed + self.measured.failed + self.tail.failed
    }

    /// Records one TCP exchange against its reference answer.
    pub fn check(&mut self, ex: &Exchange, reference: &str) {
        let tally = match ex.phase {
            Phase::Setup => &mut self.setup,
            Phase::Measured => &mut self.measured,
            Phase::Tail => &mut self.tail,
        };
        tally.sent += 1;
        let problem = match &ex.answer {
            None => {
                self.missing += 1;
                Some(format!("no answer to '{}'", ex.line))
            }
            Some(a) => {
                tally.answered += 1;
                if a.starts_with("error:") {
                    self.errors += 1;
                    Some(format!("'{}' answered '{a}'", ex.line))
                } else if !is_counter_line(&ex.line) && a != reference {
                    self.mismatches += 1;
                    Some(format!(
                        "'{}' answered '{}', reference '{}'",
                        ex.line,
                        clip(a),
                        clip(reference)
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            tally.failed += 1;
            self.first_problem.get_or_insert(p);
        }
    }

    /// Compares every exchange of `log` with `reference`, the oracle's
    /// answers to the same lines in the same order.
    pub fn check_log(&mut self, log: &[Exchange], reference: &[String]) {
        for (ex, r) in log.iter().zip(reference) {
            self.check(ex, r);
        }
    }

    /// A failure that is not tied to one answer (e.g. a broken restart
    /// invariant): counts as a failed request of the measured phase.
    pub fn fail(&mut self, why: String) {
        self.measured.failed += 1;
        self.first_problem.get_or_insert(why);
    }

    pub fn error_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

fn clip(s: &str) -> String {
    if s.len() > 120 {
        format!("{}…", &s[..120])
    } else {
        s.to_string()
    }
}

/// The lines of `log`, in order.
pub fn lines_of(log: &[Exchange]) -> Vec<&str> {
    log.iter().map(|e| e.line.as_str()).collect()
}
