//! Tabling for the ε-free half of TIM+ planning.
//!
//! Algorithm 2's KPT* and RefineKPT's candidate `S'_k` (Algorithm 3
//! lines 2–6) depend on the graph, the model, `k`, the adjusted ℓ and
//! the run seed — never on ε: the KPT stream is the
//! first split of the run seed and is drawn before ε is used. A
//! [`KptMemo`] stores that ε-free summary the first time a key is
//! planned and answers repeats from the table (XSB-style tabling), so
//! planning a fresh ε on an already-estimated graph starts at the ε-
//! dependent θ′ step. The memoized value is deterministic, so a plan
//! through the memo is bit-identical to a fresh
//! [`TimPlus::try_plan`](crate::TimPlus::try_plan).
//!
//! A memo serves **one graph**: the key does not identify the graph, so
//! callers keep one memo per resident graph (`tim_server` keeps it on
//! the graph's state and drops it with the graph).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tim_graph::NodeId;

const POISONED: &str = "kpt memo lock poisoned";

/// The ε-free outcome of Algorithm 2 plus RefineKPT lines 2–6 — about
/// `k` ids, never the RR sets they were computed from.
#[derive(Debug, Clone)]
pub(crate) struct KptSummary {
    /// KPT* from Algorithm 2.
    pub kpt_star: f64,
    /// RR sets Algorithm 2 sampled across all its iterations.
    pub total_rr_sets: u64,
    /// RefineKPT's candidate `S'_k`: the greedy cover of the last KPT
    /// iteration's RR sets (empty for plain TIM).
    pub candidate: Vec<NodeId>,
}

/// What a `KptSummary` depends on, besides the graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    /// The caller's model tag (`"ic"` / `"lt"`): two models on one graph
    /// must never share an entry.
    pub model: String,
    /// `k`, already clamped to the node count.
    pub k: usize,
    /// Bit pattern of the union-bound-adjusted ℓ.
    pub ell_eff_bits: u64,
    /// The run seed.
    pub seed: u64,
}

/// One key's value, filled at most once; its lock is held while the
/// value is computed, so concurrent planners of one key wait for the
/// first instead of repeating its estimation.
type Slot = Arc<Mutex<Option<KptSummary>>>;

/// A per-graph table of ε-free plan halves (KPT*, the KPT RR-set count
/// and RefineKPT's candidate), shared by every planner of that
/// graph (e.g. every ε pool a server builds for it). Pass it to
/// [`TimPlus::try_plan_memo`](crate::TimPlus::try_plan_memo).
///
/// Each key is estimated once: the map lock is held only to find or
/// insert the key's slot, never during estimation. An estimation that
/// fails (a sample count no pool can hold) is returned to its caller and
/// not stored.
#[derive(Debug, Default)]
pub struct KptMemo {
    slots: Mutex<HashMap<MemoKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KptMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimations run (successful or not).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The summary for `key`, computing it with `compute` if the table
    /// has none yet.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: MemoKey,
        compute: impl FnOnce() -> Result<KptSummary, E>,
    ) -> Result<KptSummary, E> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect(POISONED)
                .entry(key.clone())
                .or_default(),
        );
        let mut value = slot.lock().expect(POISONED);
        if let Some(summary) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(summary.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match compute() {
            Ok(summary) => {
                *value = Some(summary.clone());
                Ok(summary)
            }
            Err(e) => {
                // Failure is a deterministic function of the key, so the
                // empty slot is dropped (it would never fill) — a client
                // cycling through extreme ℓ values cannot grow the map.
                drop(value);
                self.slots.lock().expect(POISONED).remove(&key);
                Err(e)
            }
        }
    }
}
