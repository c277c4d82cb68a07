//! Query admission: [`EngineRuntime::admit`], the [`QueryTicket`] it hands
//! out, and the ticket's cancel token and private spill directory.
//!
//! This module decides which *queries* (not tasks) may run: at most
//! `max_concurrent_queries` tickets are outstanding, and when the runtime
//! is built with a global memory budget each ticket carves a tuple budget
//! out of it — the per-query [`MemGauge`] hangs off the ticket, so a
//! query's peak is measured against the slice it was granted. It must not
//! touch the pool's tasks: admission blocks the *client* thread, never a
//! pool worker; calling it from inside a task would deadlock the pool and
//! is the one usage rule the runtime imposes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use super::super::morsel::MemGauge;
use super::{CancelToken, EngineRuntime, RuntimeMetrics};

/// The runtime's admission state and counters.
#[derive(Default)]
pub(super) struct AdmissionGate {
    state: Mutex<Admission>,
    cv: Condvar,
    admissions: AtomicU64,
    wait_nanos: AtomicU64,
}

#[derive(Default)]
struct Admission {
    active: usize,
    budget_in_use: u64,
}

impl AdmissionGate {
    /// The admission fields of a [`RuntimeMetrics`] snapshot (the rest
    /// default).
    pub(super) fn metrics(&self) -> RuntimeMetrics {
        let adm = self.state.lock().expect("admission poisoned");
        RuntimeMetrics {
            admissions: self.admissions.load(Ordering::Relaxed),
            admission_wait_secs: self.wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            active_queries: adm.active,
            budget_in_use_tuples: adm.budget_in_use,
            ..RuntimeMetrics::default()
        }
    }
}

impl EngineRuntime {
    /// Admits one query, blocking the *client* thread until an admission
    /// slot — and, under a global memory budget, enough unreserved budget —
    /// is available. `requested_tuples` is the query's own estimate (e.g.
    /// its configured memory capacity); with a global budget and no
    /// request, the query gets an equal `total / max_concurrent` slice. A
    /// request larger than the whole budget is clamped to it rather than
    /// rejected, and waits for the pool to drain.
    ///
    /// Must never be called from inside a pool task: it would park the
    /// worker the unblocking query needs.
    pub fn admit(&self, requested_tuples: Option<u64>) -> QueryTicket<'_> {
        let start = Instant::now();
        let gate = &self.shared.admission;
        let max_q = self.cfg.max_concurrent_queries.max(1);
        let total = self.cfg.memory_budget_tuples;
        let budget = match total {
            Some(total) => Some(match requested_tuples {
                Some(r) => r.clamp(1, total),
                None => (total / max_q as u64).max(1),
            }),
            None => requested_tuples,
        };
        // Only a budget-gated runtime carves anything: a bare request on an
        // un-budgeted runtime is advisory (it sizes the ticket's
        // over-budget check) and must not show up as budget "in use".
        let carved = if total.is_some() {
            budget.unwrap_or(0)
        } else {
            0
        };
        let mut adm = gate.state.lock().expect("admission poisoned");
        // Budget gating only defers while someone else holds budget to
        // return — an empty pool always admits, so one oversized query
        // can never wedge the queue.
        while adm.active >= max_q
            || total.is_some_and(|t| adm.active > 0 && adm.budget_in_use + carved > t)
        {
            adm = gate.cv.wait(adm).expect("admission poisoned");
        }
        adm.active += 1;
        adm.budget_in_use += carved;
        drop(adm);
        let wait = start.elapsed();
        gate.admissions.fetch_add(1, Ordering::Relaxed);
        gate.wait_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        QueryTicket {
            rt: self,
            budget_tuples: budget,
            carved,
            gauge: MemGauge::default(),
            cancel: CancelToken::new(),
            wait,
            spill_dir: OnceLock::new(),
        }
    }
}

/// An admitted query's handle: its carved memory budget, the per-query
/// [`MemGauge`] the engine charges and the query's [`CancelToken`], its
/// one failure latch. Dropping the ticket releases the admission slot and
/// returns the budget to the runtime.
pub struct QueryTicket<'rt> {
    rt: &'rt EngineRuntime,
    budget_tuples: Option<u64>,
    /// Tuples actually reserved against the runtime's global budget
    /// (0 on an un-budgeted runtime, where requests are advisory).
    carved: u64,
    gauge: MemGauge,
    cancel: CancelToken,
    wait: Duration,
    /// Lazily named per-query spill directory; removed wholesale when the
    /// ticket drops (success, cancel and panic paths alike), so spilled
    /// runs can never outlive their query.
    spill_dir: OnceLock<PathBuf>,
}

impl QueryTicket<'_> {
    /// The per-query gauge; pass it to the engine so this query's peak is
    /// measured against its own budget slice.
    pub fn gauge(&self) -> &MemGauge {
        &self.gauge
    }

    /// The query's failure latch; pass it to every engine run of the query,
    /// so a failure in any of them cancels them all.
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Tuple budget carved for this query (`None`: admission was not
    /// budget-gated and the query made no request).
    pub fn budget_tuples(&self) -> Option<u64> {
        self.budget_tuples
    }

    /// How long this query sat in the admission queue.
    pub fn admission_wait_secs(&self) -> f64 {
        self.wait.as_secs_f64()
    }

    /// This query's private spill directory, a uniquely named child of
    /// `base` (the system temp dir when `None`). The name is fixed on
    /// first call; nothing is created on disk here — the engine's spill
    /// writer makes the directory on the first actual spill — but whatever
    /// ends up inside is removed when the ticket drops.
    pub fn spill_dir(&self, base: Option<&Path>) -> &Path {
        self.spill_dir.get_or_init(|| {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            // A pid alone is not unique across time: a worker process that
            // fork-spawns after a sibling died can recycle its pid while
            // the dead sibling's spill directory still exists (or worse,
            // while a survivor still reads from it). The startup nonce —
            // wall-clock nanos mixed with ASLR entropy, fixed once per
            // process — keeps directory names distinct across pid reuse.
            static NONCE: OnceLock<u64> = OnceLock::new();
            let nonce = *NONCE.get_or_init(|| {
                let clock = std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                let aslr = &NONCE as *const _ as u64;
                clock ^ aslr.rotate_left(32)
            });
            let base = base
                .map(Path::to_path_buf)
                .unwrap_or_else(std::env::temp_dir);
            base.join(format!(
                "ewh-spill-{}-{:016x}-{}",
                std::process::id(),
                nonce,
                SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        })
    }
}

impl Drop for QueryTicket<'_> {
    fn drop(&mut self) {
        // Tmpfile hygiene: the spill directory (if any run was ever
        // written) dies with the ticket, on every exit path.
        if let Some(dir) = self.spill_dir.get() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let gate = &self.rt.shared.admission;
        let mut adm = gate.state.lock().expect("admission poisoned");
        adm.active -= 1;
        adm.budget_in_use -= self.carved;
        drop(adm);
        gate.cv.notify_all();
    }
}
