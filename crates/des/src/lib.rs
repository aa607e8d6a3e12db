//! Deterministic discrete-event simulation (DES) engine.
//!
//! The adaptive framework of the paper runs for 20–38 wall-clock hours per
//! experiment. To reproduce every figure in seconds, the closed loop
//! (simulation steps, parallel I/O, frame transfers, decision epochs,
//! restarts, stalls) is advanced on a *virtual clock*: this crate provides
//! the clock ([`SimTime`]), the event queue ([`Scheduler`]), and a small
//! time-series recorder ([`Series`]) used to capture the figure data.
//!
//! Determinism: events scheduled for the same instant are delivered in
//! scheduling order (a monotone sequence number breaks ties), so a run is a
//! pure function of its inputs — a property the integration tests rely on.
//!
//! For fleet-scale runs the queue is sharded: each mission owns one
//! [`Scheduler`] tagged with its shard id ([`Scheduler::for_shard`]), and
//! [`TimeCoordinator`]/[`run_shards`] advance many of them in parallel,
//! synchronizing only at shared-resource events via conservative time
//! windows (see the [`shard`] module docs). A solo run is the same type on
//! shard 0 ([`Scheduler::new`]).
//!
//! # Example
//! ```
//! use des::{Scheduler, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(1.0, Ev::Ping);
//! sched.schedule_in(2.0, Ev::Pong);
//! let mut seen = Vec::new();
//! while let Some((t, e)) = sched.pop() {
//!     seen.push((t.as_secs(), e));
//! }
//! assert_eq!(seen.len(), 2);
//! assert_eq!(seen[0].1, Ev::Ping);
//! ```

mod series;
pub mod shard;
mod time;

pub use series::{Series, SeriesSet};
pub use shard::{
    run_shards, EventClass, EventId, Horizon, Scheduler, ShardPoll, ShardTask, TimeCoordinator,
};
pub use time::SimTime;

/// Drive a world to completion: pop events and hand them to `handler`
/// until the queue drains or `handler` returns `false` (stop requested).
///
/// Returns the final virtual time.
pub fn run_until_empty<E, W>(
    sched: &mut Scheduler<E>,
    world: &mut W,
    mut handler: impl FnMut(&mut W, SimTime, E, &mut Scheduler<E>) -> bool,
) -> SimTime {
    while let Some((t, e)) = sched.pop() {
        if !handler(world, t, e, sched) {
            break;
        }
    }
    sched.now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum E {
        A,
        B,
        C,
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_in(3.0, E::C);
        s.schedule_in(1.0, E::A);
        s.schedule_in(2.0, E::B);
        assert_eq!(s.pop().unwrap().1, E::A);
        assert_eq!(s.pop().unwrap().1, E::B);
        assert_eq!(s.pop().unwrap().1, E::C);
        assert!(s.pop().is_none());
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut s = Scheduler::new();
        s.schedule_in(5.0, E::B);
        s.schedule_in(5.0, E::A);
        s.schedule_in(5.0, E::C);
        let order: Vec<E> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![E::B, E::A, E::C]);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut s = Scheduler::new();
        s.schedule_in(2.5, E::A);
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2.5));
        assert_eq!(s.now(), t);
    }

    #[test]
    fn cancel_skips_event() {
        let mut s = Scheduler::new();
        let id = s.schedule_in(1.0, E::A);
        s.schedule_in(2.0, E::B);
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double cancel reports false");
        assert_eq!(s.pop().unwrap().1, E::B);
        assert!(s.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut s: Scheduler<E> = Scheduler::new();
        assert!(!s.cancel(EventId(42)));
    }

    #[test]
    fn len_accounts_for_cancellation() {
        let mut s = Scheduler::new();
        let a = s.schedule_in(1.0, E::A);
        s.schedule_in(2.0, E::B);
        assert_eq!(s.len(), 2);
        s.cancel(a);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_in(1.0, E::A);
        s.schedule_in(2.0, E::B);
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn cancel_after_fire_is_rejected_and_keeps_len_exact() {
        // Regression: cancelling an id that already fired used to insert a
        // tombstone into the cancelled set, making `len()` drift (and
        // underflow once the heap drained). It must be a no-op now.
        let mut s = Scheduler::new();
        let a = s.schedule_in(1.0, E::A);
        assert_eq!(s.pop().unwrap().1, E::A);
        assert!(!s.cancel(a), "cancel after fire must report false");
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.tombstones(), 0);
        // The queue stays fully usable afterwards.
        s.schedule_in(1.0, E::B);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().unwrap().1, E::B);
    }

    #[test]
    fn long_soak_of_cancel_then_pop_does_not_drift() {
        // Mimic the orchestrator's timeout pattern: schedule a guard, fire
        // the real event, then (too late) cancel the guard — thousands of
        // times, with some cancels landing before the pop and some after.
        let mut s = Scheduler::new();
        for round in 0..5_000u64 {
            let guard = s.schedule_in(1.0, E::A);
            let real = s.schedule_in(0.5, E::B);
            if round % 2 == 0 {
                // Timely cancel: guard never fires.
                assert!(s.cancel(guard));
                assert_eq!(s.pop().unwrap().1, E::B);
            } else {
                // Late cancel: both fire, then both cancels are stale.
                assert_eq!(s.pop().unwrap().1, E::B);
                assert_eq!(s.pop().unwrap().1, E::A);
                assert!(!s.cancel(guard));
                assert!(!s.cancel(real));
            }
            assert_eq!(s.len(), 0, "len drifted at round {round}");
            assert!(s.tombstones() <= 1, "tombstones grew at round {round}");
        }
        assert!(s.pop().is_none());
        assert_eq!(s.tombstones(), 0, "drained heap leaves no tombstones");
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut s = Scheduler::new();
        s.schedule_in(2.0, E::B);
        let a = s.schedule_in(1.0, E::A);
        s.cancel(a);
        let (t, e) = {
            let (t, e) = s.peek().expect("live event");
            (t, *e)
        };
        assert_eq!((t, e), (SimTime::from_secs(2.0), E::B));
        assert_eq!(s.pop().unwrap(), (SimTime::from_secs(2.0), E::B));
        assert!(s.peek().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(5.0, E::A);
        s.pop();
        s.schedule_at(SimTime::from_secs(1.0), E::B);
    }

    #[test]
    fn negative_delay_clamps_to_now() {
        let mut s = Scheduler::new();
        s.schedule_in(-3.0, E::A);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn run_until_empty_drains_and_allows_rescheduling() {
        let mut s = Scheduler::new();
        s.schedule_in(1.0, 3u32);
        let mut fired = Vec::new();
        let end = run_until_empty(&mut s, &mut fired, |fired, t, remaining, s| {
            fired.push(t.as_secs());
            if remaining > 0 {
                s.schedule_in(1.0, remaining - 1);
            }
            true
        });
        assert_eq!(fired, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(end, SimTime::from_secs(4.0));
    }

    #[test]
    fn run_until_empty_stops_on_false() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_in(i as f64, i);
        }
        let mut count = 0usize;
        run_until_empty(&mut s, &mut count, |count, _, _, _| {
            *count += 1;
            *count < 3
        });
        assert_eq!(count, 3);
        assert_eq!(s.len(), 7);
    }
}
