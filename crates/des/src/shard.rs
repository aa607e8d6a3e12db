//! Sharded parallel DES: per-shard clocks plus a conservative time coordinator.
//!
//! One event queue on one thread caps every fleet-scale experiment at one
//! core. This module provides:
//!
//! * [`Scheduler`] — one event queue + local virtual clock per shard (a
//!   mission, in the fleet layer); a solo run is shard 0.
//! * [`TimeCoordinator`] — tracks, per shard, a lower bound on the timestamp
//!   of the next event that shard will execute, and computes from those
//!   bounds a conservative **horizon** granting each shard a safe advance
//!   window.
//! * [`run_shards`] — a worker pool that drives N [`ShardTask`]s to
//!   completion, consulting the coordinator only for events that touch
//!   shared state.
//!
//! # The conservative rule
//!
//! Events are classified shard-local vs shared-resource ([`EventClass`]).
//! Local events never read or write cross-shard state, so a shard with only
//! local work runs ahead of the others without any synchronization. An
//! action at time `t` on shard `i` that *is* cross-shard-visible may only
//! execute when
//!
//! ```text
//! (t, i)  <  (next_j, j)   lexicographically, for every other live shard j
//! ```
//!
//! where `next_j` is shard `j`'s reported bound. Bounds are exact queue-head
//! timestamps when a shard parks or requests clearance, and stale-but-lower
//! values otherwise — stale-low is conservative (it only delays clearance).
//! Because the `(t, i)`-minimal shard always passes the check, the pool
//! cannot deadlock; because the check totally orders shared actions by
//! `(t, i)`, the sequence of shared-state mutations is a pure function of
//! the inputs regardless of thread interleaving.
//!
//! Cross-shard wakes (resource grants) are **mailboxes**, never injections
//! into another shard's queue: the releasing shard records the grant, and
//! the waiting shard's own [`ShardTask::poll`] surfaces it as
//! [`ShardPoll::Granted`]. A shard that is waiting on a grant must gate even
//! its local events behind the horizon ([`ShardPoll::Gated`]); under that
//! discipline a grant provably never lands in the grantee's past (the
//! releaser's bound is `<=` the release time at all times before the release
//! executes, so the horizon pins the waiter at or below it).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

pub(crate) struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    /// Reversed so that the `BinaryHeap` (a max-heap) pops the *earliest*
    /// event; ties broken by scheduling order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Whether an event only touches state owned by its shard, or reads/writes
/// a shared resource (cluster core pool, shared WAN link) and therefore must
/// execute in global `(time, shard)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Touches only shard-owned state; runs without coordination.
    Local,
    /// Touches shared-resource state; gated on the conservative horizon.
    Shared,
}

/// Priority queue of timed events with a local virtual clock.
///
/// `pop` advances the clock to the popped event's timestamp. Time never
/// moves backwards: scheduling in the past panics (it would silently
/// corrupt causality in the orchestrator). The queue carries a shard id so
/// N of them can advance independently under [`run_shards`]; solo runs use
/// shard 0.
///
/// Cancellation bookkeeping: `live` holds the sequence numbers still in the
/// heap and not cancelled, `cancelled` those still in the heap but dead.
/// Every heap node is in exactly one of the two sets, so `len()` is exact
/// and a stale cancel (the event already fired) is a no-op returning
/// `false` — it cannot leave a tombstone behind.
pub struct Scheduler<E> {
    shard: usize,
    heap: BinaryHeap<Scheduled<E>>,
    live: HashSet<u64>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create an empty scheduler with the clock at time zero (shard 0).
    pub fn new() -> Self {
        Self::for_shard(0)
    }

    /// Create an empty scheduler whose clock is tagged with `shard` — used
    /// by the fleet layer so each mission's queue knows its shard id.
    pub fn for_shard(shard: usize) -> Self {
        Scheduler {
            shard,
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The shard id this scheduler's clock is tagged with (0 for solo runs).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of cancelled entries still physically in the heap, awaiting
    /// lazy removal. Bounded by the number of outstanding cancels on queued
    /// events — a long soak cannot grow it without bound (diagnostic for
    /// the cancel-then-pop accounting regression).
    pub fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule `event` at absolute time `t`.
    ///
    /// # Panics
    /// If `t` is earlier than the current clock.
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> EventId {
        assert!(
            t >= self.now,
            "cannot schedule into the past: t={:?} now={:?}",
            t,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Scheduled {
            time: t,
            seq,
            event,
        });
        EventId(seq)
    }

    /// Schedule `event` `dt` seconds from now. Non-finite or negative `dt`
    /// is clamped to 0.
    pub fn schedule_in(&mut self, dt: f64, event: E) -> EventId {
        let dt = if dt.is_finite() && dt > 0.0 { dt } else { 0.0 };
        self.schedule_at(self.now + dt, event)
    }

    /// Cancel a previously scheduled event. Returns `false` when the event
    /// already fired (or was already cancelled, or never existed).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Only an id still live in the heap can move to the cancelled set;
        // a stale id (already popped) is rejected outright, so the set
        // cannot accumulate tombstones that never match a heap node.
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.heap.pop() {
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            self.live.remove(&s.seq);
            self.now = s.time;
            return Some((s.time, s.event));
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Timestamp and payload of the next live event without popping it.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        // Drop stale cancelled entries off the top first.
        while let Some(s) = self.heap.peek() {
            if self.cancelled.contains(&s.seq) {
                let s = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&s.seq);
            } else {
                break;
            }
        }
        self.heap.peek().map(|s| (s.time, &s.event))
    }
}

/// A conservative horizon: the lexicographically smallest `(next, shard)`
/// bound among a set of peer shards, or `None` when no live peer constrains
/// advancement (all finished — the shard may run to completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Horizon(pub Option<(SimTime, usize)>);

impl Horizon {
    /// May shard `shard` execute a cross-shard-visible action at `t`?
    /// True iff `(t, shard)` precedes the horizon pair lexicographically.
    pub fn admits(&self, t: SimTime, shard: usize) -> bool {
        match self.0 {
            None => true,
            Some((ht, hs)) => t < ht || (t == ht && shard < hs),
        }
    }
}

/// Tracks per-shard next-event lower bounds and answers "may shard `i`
/// perform a shared action at time `t` yet?".
///
/// Not internally synchronized: [`run_shards`] guards it with the pool
/// lock; single-threaded callers (tests, a reference merge) use it bare.
pub struct TimeCoordinator {
    /// Reported lower bound on each shard's next executed event. Starts at
    /// zero (nothing can precede the epoch) and is refreshed from exact
    /// queue heads whenever a shard parks, requests clearance, or — while
    /// any shard is parked — pops an event.
    next: Vec<SimTime>,
    finished: Vec<bool>,
    live: usize,
}

impl TimeCoordinator {
    /// Coordinator for `shards` shards, all bounds at time zero.
    pub fn new(shards: usize) -> Self {
        TimeCoordinator {
            next: vec![SimTime::ZERO; shards],
            finished: vec![false; shards],
            live: shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.next.len()
    }

    /// Record that shard `i`'s next event executes no earlier than `t`.
    pub fn report(&mut self, i: usize, t: SimTime) {
        self.next[i] = t;
    }

    /// Mark shard `i` complete; it no longer constrains any horizon.
    pub fn finish(&mut self, i: usize) {
        if !self.finished[i] {
            self.finished[i] = true;
            self.live -= 1;
        }
    }

    /// True when every shard has finished.
    pub fn all_finished(&self) -> bool {
        self.live == 0
    }

    /// Global lower bound over all live shards' next events (diagnostic /
    /// window reporting). `None` when all shards are finished.
    pub fn horizon(&self) -> Horizon {
        self.horizon_excluding(usize::MAX)
    }

    /// The horizon shard `i` must respect: the lexicographic minimum of
    /// `(next_j, j)` over live shards `j != i`.
    pub fn horizon_excluding(&self, i: usize) -> Horizon {
        let mut best: Option<(SimTime, usize)> = None;
        for (j, &t) in self.next.iter().enumerate() {
            if j == i || self.finished[j] {
                continue;
            }
            if best.is_none_or(|(bt, bj)| t < bt || (t == bt && j < bj)) {
                best = Some((t, j));
            }
        }
        Horizon(best)
    }

    /// May shard `i` execute a cross-shard-visible action at `t` now?
    pub fn admits(&self, i: usize, t: SimTime) -> bool {
        self.horizon_excluding(i).admits(t, i)
    }
}

/// What a shard offers to execute next, as seen by the [`run_shards`] pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardPoll {
    /// Pure shard-local event: execute without coordination.
    Local { time: SimTime },
    /// Needs the conservative window (a shared-resource event, or any event
    /// while this shard may still receive a grant): execute only once the
    /// coordinator horizon admits `(time, shard)`.
    Gated { time: SimTime },
    /// A pre-cleared cross-shard wake sitting in this shard's grant
    /// mailbox: execute immediately. (Its release event was itself gated,
    /// which is what makes it safe to consume without a fresh check.)
    Granted { time: SimTime },
    /// Nothing left to execute; the shard is complete.
    Done,
}

/// One shard of work driven by [`run_shards`]: typically a full mission
/// engine wrapped around a [`Scheduler`].
///
/// Contract: `poll` is cheap and side-effect-free (it may lazily tidy
/// internal queues but must not advance the simulation); `step` executes
/// exactly the action the immediately preceding `poll` described. A shard
/// that can still receive grants must keep offering events (a finite
/// `poll` time) until the grant source finishes — in the fleet engine the
/// standing decision-epoch chain guarantees this.
pub trait ShardTask: Send {
    /// Describe the next action without executing it.
    fn poll(&mut self) -> ShardPoll;
    /// Execute the action most recently described by `poll`.
    fn step(&mut self);
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShardState {
    /// In the ready queue, or about to be polled by `reschedule`.
    Parked,
    Queued,
    Running,
    Finished,
}

struct Pool<T> {
    tasks: Vec<Option<T>>,
    coord: TimeCoordinator,
    state: Vec<ShardState>,
    ready: VecDeque<usize>,
    running: usize,
}

impl<T: ShardTask> Pool<T> {
    /// Re-poll every parked shard and queue those now runnable. Called
    /// under the pool lock after anything that can change admission:
    /// a report, a gated/granted step, or a shard finishing.
    fn reschedule(&mut self) -> bool {
        let mut woke = false;
        // Phase 1: refresh every parked shard's bound, releasing the ones
        // that no longer need the horizon (Done/Local/Granted).
        let mut gated: Vec<(usize, SimTime)> = Vec::new();
        for i in 0..self.tasks.len() {
            if self.state[i] != ShardState::Parked {
                continue;
            }
            let task = self.tasks[i].as_mut().expect("parked task is present");
            match task.poll() {
                ShardPoll::Done => {
                    self.state[i] = ShardState::Finished;
                    self.coord.finish(i);
                    woke = true;
                }
                ShardPoll::Local { time } | ShardPoll::Granted { time } => {
                    self.coord.report(i, time);
                    self.state[i] = ShardState::Queued;
                    self.ready.push_back(i);
                    woke = true;
                }
                ShardPoll::Gated { time } => {
                    self.coord.report(i, time);
                    gated.push((i, time));
                }
            }
        }
        // Phase 2: admission checks against everyone's *fresh* bounds.
        // A single interleaved pass would check shard i against bounds
        // shards j > i have not refreshed yet (the initial seed's ZERO
        // placeholders), wrongly holding the minimal shard.
        for (i, time) in gated {
            if self.coord.admits(i, time) {
                self.state[i] = ShardState::Queued;
                self.ready.push_back(i);
                woke = true;
            }
        }
        woke
    }

    fn all_finished(&self) -> bool {
        self.state.iter().all(|s| *s == ShardState::Finished)
    }
}

/// Drive `tasks` to completion on `workers` OS threads, coordinating
/// shared-resource events conservatively. Returns the tasks (in order) once
/// every shard reports [`ShardPoll::Done`].
///
/// The outcome of every shared-state interaction is a pure function of the
/// tasks' inputs — worker count and thread timing only affect wall-clock.
///
/// # Panics
/// If the pool wedges (no shard runnable, none running, not all finished),
/// which indicates a broken `ShardTask` contract — e.g. a shard waiting on
/// a grant whose source already finished without releasing.
pub fn run_shards<T: ShardTask>(tasks: Vec<T>, workers: usize) -> Vec<T> {
    let n = tasks.len();
    if n == 0 {
        return tasks;
    }
    let workers = workers.max(1);
    let pool = Mutex::new(Pool {
        tasks: tasks.into_iter().map(Some).collect(),
        coord: TimeCoordinator::new(n),
        state: vec![ShardState::Parked; n],
        ready: VecDeque::new(),
        running: 0,
    });
    let cond = Condvar::new();

    {
        // Seed the ready queue from the initial polls.
        let mut p = pool.lock().expect("pool lock");
        p.reschedule();
        assert!(
            !p.ready.is_empty() || p.all_finished(),
            "sharded DES could not start: no shard admissible at time zero"
        );
    }

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| worker_loop(&pool, &cond));
        }
    });

    let mut p = pool.lock().expect("pool lock");
    assert!(
        p.all_finished(),
        "worker pool exited with unfinished shards"
    );
    p.tasks
        .iter_mut()
        .map(|t| t.take().expect("finished task is present"))
        .collect()
}

fn worker_loop<T: ShardTask>(pool: &Mutex<Pool<T>>, cond: &Condvar) {
    'acquire: loop {
        let (shard, mut task) = {
            let mut p = pool.lock().expect("pool lock");
            loop {
                if p.all_finished() {
                    cond.notify_all();
                    return;
                }
                if let Some(i) = p.ready.pop_front() {
                    p.state[i] = ShardState::Running;
                    p.running += 1;
                    let t = p.tasks[i].take().expect("queued task is present");
                    break (i, t);
                }
                if p.running == 0 {
                    // Everyone is parked; a reschedule must free someone
                    // (the (t, shard)-minimal shard is always admissible).
                    if !p.reschedule() && p.ready.is_empty() && !p.all_finished() {
                        panic!(
                            "conservative DES deadlock: all shards parked, \
                             none admissible (broken ShardTask contract?)"
                        );
                    }
                    continue;
                }
                p = cond.wait(p).expect("pool lock");
            }
        };

        loop {
            match task.poll() {
                ShardPoll::Done => {
                    let mut p = pool.lock().expect("pool lock");
                    p.coord.finish(shard);
                    p.state[shard] = ShardState::Finished;
                    p.tasks[shard] = Some(task);
                    p.running -= 1;
                    p.reschedule();
                    cond.notify_all();
                    continue 'acquire;
                }
                ShardPoll::Local { time } => {
                    // Fast path: only lock to publish progress when some
                    // shard is parked and may be waiting on our bound.
                    let mut p = pool.lock().expect("pool lock");
                    let anyone_parked = p.state.contains(&ShardState::Parked);
                    if anyone_parked {
                        p.coord.report(shard, time);
                        if p.reschedule() {
                            cond.notify_all();
                        }
                    }
                    drop(p);
                    task.step();
                }
                ShardPoll::Granted { .. } => {
                    task.step();
                    let mut p = pool.lock().expect("pool lock");
                    if p.reschedule() {
                        cond.notify_all();
                    }
                }
                ShardPoll::Gated { time } => {
                    let mut p = pool.lock().expect("pool lock");
                    p.coord.report(shard, time);
                    if p.reschedule() {
                        cond.notify_all();
                    }
                    if p.coord.admits(shard, time) {
                        // Execute outside the lock; our reported bound
                        // stays at `time`, holding later shared actions
                        // on other shards until we re-report.
                        drop(p);
                        task.step();
                        let mut p = pool.lock().expect("pool lock");
                        if p.reschedule() {
                            cond.notify_all();
                        }
                    } else {
                        p.state[shard] = ShardState::Parked;
                        p.tasks[shard] = Some(task);
                        p.running -= 1;
                        cond.notify_all();
                        continue 'acquire;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};
    use std::sync::{Arc, Mutex as StdMutex};

    #[test]
    fn shard_clock_carries_its_id() {
        let c: Scheduler<u32> = Scheduler::for_shard(3);
        assert_eq!(c.shard(), 3);
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn horizon_admits_is_lexicographic() {
        let h = Horizon(Some((SimTime::from_secs(5.0), 2)));
        assert!(h.admits(SimTime::from_secs(4.0), 7));
        assert!(
            h.admits(SimTime::from_secs(5.0), 1),
            "tie broken by shard id"
        );
        assert!(!h.admits(SimTime::from_secs(5.0), 2));
        assert!(!h.admits(SimTime::from_secs(5.0), 3));
        assert!(!h.admits(SimTime::from_secs(6.0), 0));
        assert!(Horizon(None).admits(SimTime::from_secs(1e9), 0));
    }

    #[test]
    fn coordinator_minimal_shard_is_always_admissible() {
        let mut c = TimeCoordinator::new(3);
        c.report(0, SimTime::from_secs(10.0));
        c.report(1, SimTime::from_secs(10.0));
        c.report(2, SimTime::from_secs(12.0));
        // Shard 0 is the (time, id) minimum: admitted.
        assert!(c.admits(0, SimTime::from_secs(10.0)));
        // Shard 1 ties on time but loses on id: held.
        assert!(!c.admits(1, SimTime::from_secs(10.0)));
        // Once shard 0 moves past, shard 1 clears.
        c.report(0, SimTime::from_secs(10.5));
        assert!(c.admits(1, SimTime::from_secs(10.0)));
    }

    #[test]
    fn finished_shards_stop_constraining() {
        let mut c = TimeCoordinator::new(2);
        c.report(0, SimTime::from_secs(1.0));
        c.report(1, SimTime::from_secs(100.0));
        assert!(!c.admits(1, SimTime::from_secs(100.0)));
        c.finish(0);
        assert!(c.admits(1, SimTime::from_secs(100.0)));
        assert!(!c.all_finished());
        c.finish(1);
        assert!(c.all_finished());
        assert_eq!(c.horizon(), Horizon(None));
    }

    /// A shard that executes `n` local events 1s apart, appending to a
    /// shared log only at gated events — used to check that gated actions
    /// are globally ordered regardless of worker count.
    struct LogShard {
        clock: Scheduler<u64>,
        shared_every: u64,
        log: Arc<StdMutex<Vec<(u64, usize)>>>,
        steps: Arc<AtomicUsize>,
        pending: Option<(SimTime, u64)>,
    }

    impl LogShard {
        fn new(
            shard: usize,
            n: u64,
            shared_every: u64,
            log: Arc<StdMutex<Vec<(u64, usize)>>>,
            steps: Arc<AtomicUsize>,
        ) -> Self {
            let mut clock = Scheduler::for_shard(shard);
            for k in 0..n {
                clock.schedule_at(SimTime::from_secs(k as f64), k);
            }
            LogShard {
                clock,
                shared_every,
                log,
                steps,
                pending: None,
            }
        }
    }

    impl ShardTask for LogShard {
        fn poll(&mut self) -> ShardPoll {
            match self.clock.peek() {
                None => ShardPoll::Done,
                Some((t, &k)) => {
                    if k % self.shared_every == 0 {
                        self.pending = Some((t, k));
                        ShardPoll::Gated { time: t }
                    } else {
                        ShardPoll::Local { time: t }
                    }
                }
            }
        }

        fn step(&mut self) {
            let (t, k) = self.clock.pop().expect("poll said an event exists");
            self.steps.fetch_add(1, AtOrd::Relaxed);
            if self.pending.take() == Some((t, k)) {
                self.log
                    .lock()
                    .unwrap()
                    .push((t.as_secs() as u64, self.clock.shard()));
            }
        }
    }

    #[test]
    fn gated_events_execute_in_global_time_shard_order() {
        for workers in [1, 2, 4, 8] {
            let log = Arc::new(StdMutex::new(Vec::new()));
            let steps = Arc::new(AtomicUsize::new(0));
            let shards: Vec<LogShard> = (0..4)
                .map(|i| LogShard::new(i, 40, 5, Arc::clone(&log), Arc::clone(&steps)))
                .collect();
            let done = run_shards(shards, workers);
            assert_eq!(done.len(), 4);
            assert_eq!(steps.load(AtOrd::Relaxed), 4 * 40);
            let got = log.lock().unwrap().clone();
            let mut expect = got.clone();
            expect.sort();
            assert_eq!(
                got, expect,
                "shared log out of (time, shard) order at workers={workers}"
            );
            // 8 gated events per shard, all logged.
            assert_eq!(got.len(), 4 * 8);
        }
    }

    #[test]
    fn run_shards_handles_empty_and_single() {
        let empty: Vec<LogShard> = Vec::new();
        assert!(run_shards(empty, 4).is_empty());
        let log = Arc::new(StdMutex::new(Vec::new()));
        let steps = Arc::new(AtomicUsize::new(0));
        let one = vec![LogShard::new(0, 10, 3, log, Arc::clone(&steps))];
        run_shards(one, 4);
        assert_eq!(steps.load(AtOrd::Relaxed), 10);
    }
}
