//! Property tests for the sharded DES: under any random event workload
//! and any shard/worker count, the parallel pool produces exactly the
//! trace of a single-threaded reference that merges the shard clocks in
//! `(time, shard)` order — same timestamps, same tie-break order, per
//! shard and across shards.

use des::{run_shards, Scheduler, ShardPoll, ShardTask, SimTime};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// One workload event. Initial events are drawn by proptest; executing
/// one schedules `children` derived follow-ups (children of children are
/// none, so every program terminates).
#[derive(Debug, Clone, Copy)]
struct Ev {
    tag: u64,
    shared: bool,
    children: u8,
}

fn child_of(tag: u64, k: u8) -> Ev {
    let t = tag
        .wrapping_mul(6364136223846793005)
        .wrapping_add(k as u64 + 1);
    Ev {
        tag: t,
        shared: t.is_multiple_of(3),
        children: 0,
    }
}

fn child_delay(tag: u64) -> f64 {
    ((tag % 97) as f64) * 0.25 + 0.125
}

type LocalTrace = Vec<(u64, u64)>; // (time bits, tag) in execution order
type SharedTrace = Vec<(u64, usize, u64)>; // (time bits, shard, tag)

/// A shard program over one [`Scheduler`], recording everything it
/// executes; shared-class events also land on the fleet-wide trace.
struct Prog {
    clock: Scheduler<Ev>,
    local: LocalTrace,
    shared: Arc<Mutex<SharedTrace>>,
}

impl Prog {
    fn new(shard: usize, initial: &[(f64, bool, u8)], shared: Arc<Mutex<SharedTrace>>) -> Self {
        let mut clock = Scheduler::for_shard(shard);
        for (i, &(delay, is_shared, children)) in initial.iter().enumerate() {
            clock.schedule_in(
                delay,
                Ev {
                    tag: (shard as u64) * 1_000_000 + i as u64,
                    shared: is_shared,
                    children: children % 3,
                },
            );
        }
        Prog {
            clock,
            local: Vec::new(),
            shared,
        }
    }

    fn exec(&mut self) {
        let Some((t, ev)) = self.clock.pop() else {
            return;
        };
        self.local.push((t.as_secs().to_bits(), ev.tag));
        if ev.shared {
            self.shared
                .lock()
                .unwrap()
                .push((t.as_secs().to_bits(), self.clock.shard(), ev.tag));
        }
        for k in 0..ev.children {
            let c = child_of(ev.tag, k);
            self.clock.schedule_in(child_delay(c.tag), c);
        }
    }
}

impl ShardTask for Prog {
    fn poll(&mut self) -> ShardPoll {
        match self.clock.peek() {
            None => ShardPoll::Done,
            Some((t, ev)) => {
                if ev.shared {
                    ShardPoll::Gated { time: t }
                } else {
                    ShardPoll::Local { time: t }
                }
            }
        }
    }

    fn step(&mut self) {
        self.exec();
    }
}

/// Single-threaded reference: run the same shard programs by always
/// executing the lexicographically `(time, shard)`-minimal head — the
/// total order the conservative horizon enforces for shared events.
fn reference(workload: &[Vec<(f64, bool, u8)>]) -> (Vec<LocalTrace>, SharedTrace) {
    let shared = Arc::new(Mutex::new(Vec::new()));
    let mut progs: Vec<Prog> = workload
        .iter()
        .enumerate()
        .map(|(i, w)| Prog::new(i, w, Arc::clone(&shared)))
        .collect();
    loop {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, p) in progs.iter_mut().enumerate() {
            if let Some(t) = p.clock.peek_time() {
                if best.is_none_or(|(bt, bi)| (t, i) < (bt, bi)) {
                    best = Some((t, i));
                }
            }
        }
        match best {
            Some((_, i)) => progs[i].exec(),
            None => break,
        }
    }
    let locals = progs.into_iter().map(|p| p.local).collect();
    let shared = Arc::try_unwrap(shared).unwrap().into_inner().unwrap();
    (locals, shared)
}

fn arb_workload() -> impl Strategy<Value = Vec<Vec<(f64, bool, u8)>>> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..50.0, any::<bool>(), any::<u8>()), 0..20),
        1..=8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merged traces from the worker pool equal the single-threaded
    /// reference at every worker count: identical per-shard event order
    /// and timestamps, and an identical global order of shared events.
    #[test]
    fn sharded_trace_matches_single_threaded_reference(workload in arb_workload()) {
        let (ref_locals, ref_shared) = reference(&workload);
        for workers in [1usize, 3, 8] {
            let shared = Arc::new(Mutex::new(Vec::new()));
            let progs: Vec<Prog> = workload
                .iter()
                .enumerate()
                .map(|(i, w)| Prog::new(i, w, Arc::clone(&shared)))
                .collect();
            let done = run_shards(progs, workers);
            let locals: Vec<LocalTrace> = done.into_iter().map(|p| p.local).collect();
            prop_assert_eq!(
                &locals, &ref_locals,
                "per-shard traces diverged at {} workers", workers
            );
            let shared = shared.lock().unwrap().clone();
            prop_assert_eq!(
                &shared, &ref_shared,
                "shared-event order diverged at {} workers", workers
            );
        }
    }
}
