//! The migration coordinator: the control-plane task of the pipelined
//! engine's run-time skew handling.
//!
//! The coordinator owns two responsibilities:
//!
//! 1. **Straggler detection and region migration** (§V's SkewTune-style
//!    run-time reassignment, made real). Once every `R1` morsel has been
//!    routed, it polls the [`ProgressBoard`] and the reducer queues; when
//!    some reducer sits idle on an empty queue while another's backlog
//!    exceeds `AdaptiveConfig::migrate_backlog_tuples`, it picks the
//!    victim's hottest not-yet-migrated region (by absorbed probe volume),
//!    checks the move is profitable (`backlog > move_cost_factor × shipped
//!    state`), redirects the region in the shared
//!    [`RoutingTable`](ewh_core::RoutingTable) — so every subsequent probe
//!    fragment re-routes immediately — and asks the old owner to ship its
//!    sealed state to the new owner ([`Delivery::Migrate`]). Handshakes are
//!    serialized: a new migration starts only after the previous adoption
//!    completed, which keeps the latency accounting exact and gives the
//!    pipeline time to react before the next decision.
//!
//! 2. **Quiescence-driven termination** — of every run, migrating or not
//!    (with `AdaptiveConfig::reassign` off this is the coordinator's whole
//!    job). `SealAll` does not mean "no more data can reach you": migrated
//!    state and fenced-off fragments travel reducer → reducer after the
//!    mappers exit. The coordinator broadcasts [`Delivery::Finish`] only when
//!    the mappers have finished, every routed tuple has been absorbed into
//!    some region's state (`in_flight == 0`), and no migration handshake is
//!    pending — at which point no queue can ever receive data again. A
//!    cancelled run never gets there (discarded deliveries never drain
//!    `in_flight`): the coordinator exits on the run's cancel token
//!    instead, and whichever of it and the last mapper drops last aborts
//!    the reducers.
//!
//! Like the mappers and reducers, the coordinator is a task on the shared
//! worker-pool runtime — and it is the engine's one *legitimately timed*
//! wait. Between polls it parks with three wake sources armed: a timer
//! ([`TaskCx::sleep`]) for the next cadence tick, the run's cancel token,
//! and the run's quiescence wake-set, bumped by reducers on the events its
//! termination check watches (the in-flight count crossing zero after the
//! mappers finish, an adoption completing) and by the last mapper to drop
//! — so termination is detected the moment it happens rather than a poll
//! interval later. The generation of the wake-set is read *before* any
//! condition atomics; a registration that straddles an event is refused
//! and the task re-polls immediately (`Poll::Yielded`). A coordinator
//! folds its migration tally into the run's outcome as it drops; one that
//! drops without having sent `Finish` (a cancel, or a panic) cancels the
//! run.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::mapper::broadcast;
use super::queue::Delivery;
use super::runtime::{Poll, TaskCx};
use super::Run;

/// Polls a starvation pattern must survive before any migration fires at
/// all: a short blip (an OS scheduling hiccup, a queue momentarily
/// draining) must never move a region. Under the shared worker pool this
/// needs more history than the old dedicated-thread engine did — a pool
/// worker carrying the "backlogged" reducer can be descheduled by the OS
/// for a couple of coordinator polls on an oversubscribed host, which is
/// starvation that cures itself the moment the worker runs again.
const MIN_PERSIST_POLLS: u32 = 4;

/// Polls a starvation pattern must survive before the one-shot
/// profitability gate is waived: a queue-capacity-bounded backlog snapshot
/// systematically undervalues a *persistent* straggler (the backlog refills
/// as fast as it drains), so a condition that holds this many consecutive
/// polls migrates regardless of the move cost.
const PERSIST_POLLS: u32 = 10;

/// The coordinator's resumable state across polls.
pub struct CoordinatorTask<'a> {
    run: &'a Run<'a>,
    /// Handshakes started (compared against completed adoptions): the
    /// regions migrated, one handshake each.
    started: u64,
    /// Summed handshake latency: decision → adoption installed, including
    /// the time the old owner spent draining its queue down to the
    /// `Migrate` message.
    migration_secs: f64,
    /// One-shot flags: each region migrates at most once per run.
    migrated: Vec<bool>,
    /// Decision time of the in-flight handshake.
    pending_since: Option<Instant>,
    starved_polls: u32,
    poll_interval: Duration,
    last_poll: Option<Instant>,
    /// `Finish` went out: the run completes.
    finished: bool,
}

impl<'a> CoordinatorTask<'a> {
    pub fn new(run: &'a Run<'a>) -> Self {
        CoordinatorTask {
            run,
            started: 0,
            migration_secs: 0.0,
            migrated: vec![false; run.io.table.n_regions()],
            pending_since: None,
            starved_polls: 0,
            poll_interval: Duration::from_micros(run.cfg.adaptive.poll_micros.max(1)),
            last_poll: None,
            finished: false,
        }
    }

    /// One coordinator iteration, rate-limited to the configured poll
    /// cadence. A `Pending` poll leaves the task's waker registered with
    /// the quiescence wake-set and the cancel token, *and* armed on a
    /// cadence timer.
    pub fn poll(&mut self, cx: &TaskCx<'_>) -> Poll {
        let run = self.run;
        // Generation before any condition read: an event (adoption,
        // in-flight zero-crossing, mappers done) landing after the checks
        // below bumps it and refuses the park registration at the bottom.
        let quiesce_gen = run.quiesce.generation();
        if run.io.cancel.is_cancelled() {
            return Poll::Ready;
        }
        if let Some(last) = self.last_poll {
            let since = last.elapsed();
            if since < self.poll_interval {
                return self.park_until(cx, quiesce_gen, self.poll_interval - since);
            }
        }
        self.last_poll = Some(Instant::now());

        let adopted = run.adoptions.load(Ordering::Acquire);
        if let Some(t0) = self.pending_since {
            if adopted == self.started {
                self.migration_secs += t0.elapsed().as_secs_f64();
                self.pending_since = None;
            }
        }
        if self.pending_since.is_none()
            && run.mappers_done.load(Ordering::Acquire)
            && run.in_flight.load(Ordering::Acquire) == 0
        {
            broadcast(&run.queues, || Delivery::Finish);
            self.finished = true;
            return Poll::Ready;
        }
        if run.cfg.adaptive.reassign
            && self.pending_since.is_none()
            && run.seal.r1_remaining.load(Ordering::Acquire) == 0
        {
            match try_migrate(run, &mut self.migrated, self.starved_polls) {
                Decision::Migrated => {
                    self.started += 1;
                    self.pending_since = Some(Instant::now());
                    self.starved_polls = 0;
                }
                Decision::Starved => self.starved_polls += 1,
                Decision::Balanced => self.starved_polls = 0,
            }
        }
        self.park_until(cx, quiesce_gen, self.poll_interval)
    }

    /// Parks until the next cadence tick, a quiescence event or a cancel,
    /// whichever comes first. A stale timer firing after a quiescence wake
    /// costs one spurious re-poll, never a hang.
    fn park_until(&self, cx: &TaskCx<'_>, quiesce_gen: u64, wait: Duration) -> Poll {
        let run = self.run;
        if !run.quiesce.register(cx.waker(), quiesce_gen) || !run.io.cancel.park(cx.waker()) {
            return Poll::Yielded;
        }
        cx.sleep(wait);
        Poll::Pending
    }
}

/// Folds the migration tally into the run's outcome and counts the
/// coordinator out of the run; without `Finish` the run cannot complete,
/// so it is cancelled.
impl Drop for CoordinatorTask<'_> {
    fn drop(&mut self) {
        let run = self.run;
        if !self.finished {
            run.io.cancel.cancel();
        }
        let mut out = run.outcome();
        out.stats.regions_migrated = self.started;
        out.stats.migration_secs = self.migration_secs;
        drop(out);
        run.sender_exited();
    }
}

enum Decision {
    /// A handshake was started.
    Migrated,
    /// The straggler pattern is present but no profitable move exists (yet).
    Starved,
    /// No idle-while-backlogged pair observed.
    Balanced,
}

/// One migration decision. `starved_polls` counts how many consecutive
/// prior polls already observed the starvation pattern — migrations need
/// [`MIN_PERSIST_POLLS`] of history, and [`PERSIST_POLLS`] waive the
/// move-cost gate entirely.
fn try_migrate(run: &Run<'_>, migrated: &mut [bool], starved_polls: u32) -> Decision {
    let (queues, board, adaptive) = (&run.queues, &run.board, &run.cfg.adaptive);
    let reducers = queues.len();
    // A target must be demonstrably starved: parked on an empty queue.
    let Some(target) = (0..reducers).find(|&q| board.is_idle(q) && queues[q].used_tuples() == 0)
    else {
        return Decision::Balanced;
    };
    // The victim is the busiest non-idle reducer by queued backlog.
    let Some((victim, backlog)) = (0..reducers)
        .filter(|&q| q != target && !(board.is_idle(q) && queues[q].used_tuples() == 0))
        .map(|q| (q, queues[q].used_tuples()))
        .max_by_key(|&(_, used)| used)
    else {
        return Decision::Balanced;
    };
    if backlog < adaptive.migrate_backlog_tuples.max(1) {
        return Decision::Balanced;
    }
    // Hottest not-yet-migrated region of the victim, by absorbed probe
    // volume (the best available proxy for its share of the remaining
    // stream); ties broken by build volume.
    let owners = run.io.table.snapshot();
    let candidate = (0..owners.len() as u32)
        .filter(|&r| owners[r as usize] as usize == victim && !migrated[r as usize])
        .max_by_key(|&r| (board.probe_tuples(r), board.build_tuples(r)));
    let Some(region) = candidate else {
        return Decision::Starved;
    };
    // Profitability, mirroring the simulation's thief-finishes-first test
    // with `wi` cancelled out: the backlog a move relieves must exceed the
    // re-shipping cost of the region's accumulated build state — plus the
    // re-read cost of whatever the region has spilled to disk, which the
    // adopting reducer will have to reload: without that charge, budget
    // pressure would make the coordinator thrash exactly the regions that
    // are already paying for their size.
    let ship_tuples = board.build_tuples(region) + board.spilled_tuples(region);
    let fire = match run.io.links {
        // Communication-aware gate: both sides of the comparison in
        // seconds. The relief is the backlog drained at the configured
        // rate; the cost is shipping the sealed state over the *target's*
        // inbound link (bandwidth + handshake RTT), scaled by the same
        // `move_cost_factor` safety margin. The persistent-starvation
        // waiver is deliberately disabled here: over a thin link a move
        // stays unprofitable no matter how long the backlog persists —
        // waiting it out locally is the whole point of the tradeoff.
        Some(links) => {
            let backlog_secs = backlog as f64 / adaptive.drain_tuples_per_sec.max(1.0);
            let ship_secs = links[target].ship_secs(ship_tuples);
            let profitable = backlog_secs > ship_secs * adaptive.move_cost_factor;
            profitable && starved_polls >= MIN_PERSIST_POLLS
        }
        // Flat tuple-count gate, waived under persistent starvation (see
        // [`PERSIST_POLLS`]): a queue-capacity-bounded backlog snapshot
        // systematically undervalues a persistent straggler. Conversely
        // even a profitable move needs a little history
        // ([`MIN_PERSIST_POLLS`]).
        None => {
            let profitable = (backlog as f64) > ship_tuples as f64 * adaptive.move_cost_factor;
            starved_polls >= PERSIST_POLLS || (profitable && starved_polls >= MIN_PERSIST_POLLS)
        }
    };
    if !fire {
        return Decision::Starved;
    }
    migrated[region as usize] = true;
    run.io.table.migrate(region, target as u32);
    queues[victim].push_unbounded(Delivery::Migrate { region });
    Decision::Migrated
}
