//! Golden behaviour corpus for the modeled broker, public API only.
//!
//! Every case below is one deterministic `run_broker` call — the four
//! `loadgen` shapes, link sags, repeated outages and a composed storm,
//! under each `ShedPolicy` the scenario can reach, two seeds, 200–2 000
//! clients, and breaker settings (`trip_after` 1, 2, 3, 5 against 60 s to
//! 1 200 s windows) under which failure histories fill, expire and trip —
//! pinned to its whole outcome: all sixteen `BrokerCounters`, the bit
//! patterns of the byte totals, p99 staleness, admission wait, recovery
//! time and wall clock, and a CRC-32 of the three series rendered as CSV.
//!
//! **The table was recorded by running this file on the commit before
//! per-viewer state was split into a shared policy and an inline ladder**
//! (`QosController` + `VecDeque` breaker history per client), and has to
//! match on every commit after it: a change to how the broker *stores* a
//! viewer may not change what the broker *does*. To re-record after an
//! intended behaviour change, empty `GOLDEN` and paste the table the
//! failure prints.

use climate_adaptive::adaptive::broker::{
    loadgen, run_broker, BreakerConfig, BrokerConfig, BrokerOutcome, LoadEvent, LoadScenario,
    ShedPolicy,
};
use climate_adaptive::adaptive::resilience::crc32;
use climate_adaptive::resources::SharedLink;

const POLICIES: [(ShedPolicy, &str); 3] = [
    (ShedPolicy::DropOldest, "drop"),
    (ShedPolicy::DemoteToTrackOnly, "demote"),
    (ShedPolicy::Disconnect, "kick"),
];

/// A link sag deep and long enough to blow the 32-frame bulkhead.
fn sag() -> LoadEvent {
    LoadEvent::LinkSag {
        factor: 1e-9,
        for_secs: 1500.0,
    }
}

/// Everything at once: a ramp, a sag, a partial outage whose victims the
/// seed picks, and a flap squad arriving into the recovery.
fn composed(clients: u64) -> LoadScenario {
    loadgen::steady_ramp(clients)
        .then(600.0, sag())
        .then(
            2400.0,
            LoadEvent::MassDisconnect {
                frac: 0.4,
                outage_secs: 600.0,
            },
        )
        .then(
            2700.0,
            LoadEvent::FlapSquad {
                clients: clients / 20,
                period_secs: 100.0,
            },
        )
}

/// Three short outages (none outlives the ring): everyone at 1 800 s, then
/// a seeded half of the fleet at 2 500 s and again at 2 900 s, with a flap
/// squad that trips early arriving in between.
fn repeated_outages(clients: u64) -> LoadScenario {
    let outage = |frac: f64, outage_secs: f64| LoadEvent::MassDisconnect { frac, outage_secs };
    loadgen::steady_ramp(clients)
        .then(1800.0, outage(1.0, 300.0))
        .then(
            2200.0,
            LoadEvent::FlapSquad {
                clients: clients / 25,
                period_secs: 12.0,
            },
        )
        .then(2500.0, outage(0.5, 300.0))
        .then(2900.0, outage(0.5, 100.0))
}

fn config(seed: u64, scenario: LoadScenario, horizon_secs: f64) -> BrokerConfig {
    let mut cfg = BrokerConfig::new(seed, scenario);
    cfg.horizon_secs = horizon_secs;
    cfg
}

fn cases() -> Vec<(String, BrokerConfig)> {
    let mut out = Vec::new();

    // Nothing overloads: no shed policy is reachable, the seed is inert.
    out.push((
        "steady_ramp/200".to_string(),
        config(1, loadgen::steady_ramp(200), 3600.0),
    ));
    // 2 000 viewers on a link that fits 600 full-resolution frames per
    // tick: only the ladder keeps them live.
    for seed in [1, 2] {
        let mut cfg = config(seed, loadgen::steady_ramp(2000), 3600.0);
        cfg.link = SharedLink::new(2e7);
        out.push((format!("steady_ramp/2000/narrow/seed{seed}"), cfg));
    }
    for seed in [1, 2] {
        out.push((
            format!("thundering_herd/1500/seed{seed}"),
            config(seed, loadgen::thundering_herd(1500), 1800.0),
        ));
    }
    // The 2 h outage outlives the ring (expired cursors, a full ring of
    // backlog at the bulkhead); the 20 min one does not (resumes succeed,
    // 40 frames of backlog).
    for (policy, tag) in POLICIES {
        for seed in [1, 2] {
            let mut cfg = config(seed, loadgen::outage_reconnect(1000, 7200.0), 3.0 * 3600.0);
            cfg.shed = policy;
            out.push((format!("outage_reconnect/1000/7200s/{tag}/seed{seed}"), cfg));
        }
        let mut cfg = config(3, loadgen::outage_reconnect(400, 1200.0), 2.0 * 3600.0);
        cfg.shed = policy;
        out.push((format!("outage_reconnect/400/1200s/{tag}"), cfg));
    }
    for (policy, tag) in POLICIES {
        let mut cfg = config(5, loadgen::steady_ramp(200).then(900.0, sag()), 3600.0);
        cfg.shed = policy;
        out.push((format!("link_sag/200/{tag}"), cfg));
    }
    // Flappers drop 45 s after each admission, so a 60 s window never
    // holds more than two of their failures: `trip_after` 1 and 2 trip on
    // it, 5 needs the default 600 s window. (A squad that never trips is
    // not in the corpus because such a run never ends: flap and re-admit
    // events keep each other alive past the tick safety horizon.)
    for (trip_after, window_secs) in [(1, 60.0), (2, 60.0), (5, 600.0)] {
        let mut cfg = config(11, loadgen::ramp_with_flappers(300, 30), 3600.0);
        cfg.breaker = BreakerConfig {
            trip_after,
            window_secs,
        };
        out.push((
            format!("ramp_with_flappers/300+30/trip{trip_after}/window{window_secs}"),
            cfg,
        ));
    }
    // Failures 700 s then 400 s apart: a 600 s window expires the first
    // before the second lands and trips on the third; a 1 200 s window
    // holds all three; a 60 s window only ever holds one.
    for (trip_after, window_secs) in [(1, 60.0), (2, 60.0), (2, 600.0), (3, 1200.0), (5, 60.0)] {
        for seed in [1, 2] {
            let mut cfg = config(seed, repeated_outages(500), 2.0 * 3600.0);
            cfg.breaker = BreakerConfig {
                trip_after,
                window_secs,
            };
            out.push((
                format!("repeated_outages/500/trip{trip_after}/window{window_secs}/seed{seed}"),
                cfg,
            ));
        }
    }
    for (policy, tag) in POLICIES {
        for seed in [1, 2] {
            let mut cfg = config(seed, composed(600), 2.0 * 3600.0);
            cfg.shed = policy;
            out.push((format!("composed/600/{tag}/seed{seed}"), cfg));
        }
    }
    out
}

/// One outcome as a table row: every counter by name, every float by its
/// bits.
fn row(out: &BrokerOutcome) -> String {
    let c = &out.counters;
    format!(
        "clients={} admitted={} deferred={} resume_failures={} kicks={} quarantined={} \
         produced={} delivered={} shed={} starvation={} demotions={} promotions={} deepest={} \
         peak_connected={} peak_ring={} cursor_advance={} live={:016x} catchup={:016x} \
         p99={:016x} wait={:016x} recovery={} wall={:016x} drained={} series={:08x}",
        c.clients_total,
        c.admitted_sessions,
        c.deferred_admissions,
        c.resume_failures,
        c.bulkhead_disconnects,
        c.quarantined,
        c.frames_produced,
        c.frames_delivered,
        c.frames_shed,
        c.starvation_ticks,
        c.demotions,
        c.promotions,
        c.deepest_rung,
        c.peak_connected,
        c.peak_ring_frames,
        c.cursor_advance,
        out.live_bytes.to_bits(),
        out.catchup_bytes.to_bits(),
        out.p99_staleness_secs.to_bits(),
        out.max_admission_wait_secs.to_bits(),
        out.recovery_secs
            .map_or("none".into(), |r| format!("{:016x}", r.to_bits())),
        out.wall_secs.to_bits(),
        out.drained,
        crc32(out.series.to_csv().as_bytes()),
    )
}

#[test]
fn modeled_broker_matches_the_recorded_corpus() {
    let outcomes: Vec<(String, BrokerOutcome)> = cases()
        .into_iter()
        .map(|(name, cfg)| (name, run_broker(cfg)))
        .collect();
    let actual: Vec<(&str, String)> = outcomes
        .iter()
        .map(|(name, out)| (name.as_str(), row(out)))
        .collect();
    if !actual
        .iter()
        .map(|(name, row)| (*name, row.as_str()))
        .eq(GOLDEN.iter().copied())
    {
        let mut table = String::new();
        for (name, row) in &actual {
            table.push_str(&format!(
                "    (\n        {name:?},\n        {row:?},\n    ),\n"
            ));
        }
        let moved: Vec<&str> = actual
            .iter()
            .filter(|(name, row)| !GOLDEN.contains(&(*name, row.as_str())))
            .map(|(name, _)| *name)
            .collect();
        panic!("broker behaviour moved in {moved:?}; this commit produces:\n{table}");
    }

    // The corpus only pins what it reaches: every shed policy has shed,
    // kicked or pinned somewhere, breakers have tripped and not tripped,
    // resumes have expired and not, the gate has deferred, the ladder has
    // engaged.
    let counters = |tag: &str| {
        let hit = outcomes.iter().find(|(name, _)| name.contains(tag));
        hit.expect("case present").1.counters
    };
    assert!(counters("link_sag/200/drop").frames_shed > 0);
    assert!(counters("link_sag/200/kick").bulkhead_disconnects > 0);
    assert_eq!(counters("link_sag/200/demote").frames_shed, 0);
    for trip in ["trip1", "trip2", "trip5"] {
        assert_eq!(
            counters(&format!("flappers/300+30/{trip}/")).quarantined,
            30
        );
    }
    // 20 of the 520 are flappers and always trip; the rest trip only when
    // the window still holds the earlier outage.
    assert_eq!(
        counters("outages/500/trip1/window60/seed1").quarantined,
        520
    );
    assert_eq!(counters("outages/500/trip2/window60/seed1").quarantined, 20);
    assert_eq!(counters("outages/500/trip5/window60/seed1").quarantined, 20);
    assert!(counters("outages/500/trip2/window600/seed1").quarantined > 100);
    assert!(counters("outages/500/trip3/window1200/seed1").quarantined > 100);
    assert!(counters("7200s/drop/seed1").resume_failures > 0);
    assert_eq!(counters("1200s/drop").resume_failures, 0);
    assert!(counters("thundering_herd/1500/seed1").deferred_admissions > 0);
    assert!(counters("narrow/seed1").demotions > 0);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    (
        "steady_ramp/200",
        "clients=200 admitted=200 deferred=0 resume_failures=0 kicks=0 quarantined=0 produced=120 delivered=22118 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=200 peak_ring=60 cursor_advance=22118 live=4214995796000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=a278d5c8",
    ),
    (
        "steady_ramp/2000/narrow/seed1",
        "clients=2000 admitted=2000 deferred=0 resume_failures=0 kicks=0 quarantined=0 produced=120 delivered=221018 shed=0 starvation=0 demotions=22325 promotions=17006 deepest=4 peak_connected=2000 peak_ring=60 cursor_advance=221018 live=423053ce42180000 catchup=41b6767918000000 p99=404e000000000000 wait=0000000000000000 recovery=none wall=40ac5c0000000000 drained=true series=1327af43",
    ),
    (
        "steady_ramp/2000/narrow/seed2",
        "clients=2000 admitted=2000 deferred=0 resume_failures=0 kicks=0 quarantined=0 produced=120 delivered=221018 shed=0 starvation=0 demotions=22325 promotions=17006 deepest=4 peak_connected=2000 peak_ring=60 cursor_advance=221018 live=423053ce42180000 catchup=41b6767918000000 p99=404e000000000000 wait=0000000000000000 recovery=none wall=40ac5c0000000000 drained=true series=1327af43",
    ),
    (
        "thundering_herd/1500/seed1",
        "clients=1500 admitted=1500 deferred=1451 resume_failures=0 kicks=0 quarantined=0 produced=60 delivered=90000 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=1500 peak_ring=60 cursor_advance=90000 live=4234f46b04000000 catchup=0000000000000000 p99=0000000000000000 wait=401d051eb851eaf0 recovery=none wall=409c200000000000 drained=true series=39624f40",
    ),
    (
        "thundering_herd/1500/seed2",
        "clients=1500 admitted=1500 deferred=1451 resume_failures=0 kicks=0 quarantined=0 produced=60 delivered=90000 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=1500 peak_ring=60 cursor_advance=90000 live=4234f46b04000000 catchup=0000000000000000 p99=0000000000000000 wait=401d051eb851eaf0 recovery=none wall=409c200000000000 drained=true series=39624f40",
    ),
    (
        "outage_reconnect/1000/7200s/drop/seed1",
        "clients=1000 admitted=2000 deferred=950 resume_failures=1000 kicks=0 quarantined=0 produced=360 delivered=140518 shed=210000 starvation=0 demotions=3000 promotions=3000 deepest=3 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4236ec0486400000 catchup=42038af9b8000000 p99=4086800000000000 wait=4012e7b1d951f800 recovery=4062c00000000000 wall=40c5180000000000 drained=true series=b312708c",
    ),
    (
        "outage_reconnect/1000/7200s/drop/seed2",
        "clients=1000 admitted=2000 deferred=950 resume_failures=1000 kicks=0 quarantined=0 produced=360 delivered=140518 shed=210000 starvation=0 demotions=3000 promotions=3000 deepest=3 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4236ec0486400000 catchup=42038af9b8000000 p99=4086800000000000 wait=4012e7e8717ab000 recovery=4062c00000000000 wall=40c5180000000000 drained=true series=b312708c",
    ),
    (
        "outage_reconnect/400/1200s/drop",
        "clients=400 admitted=800 deferred=350 resume_failures=0 kicks=0 quarantined=0 produced=240 delivered=88218 shed=4000 starvation=0 demotions=1200 promotions=1200 deepest=3 peak_connected=400 peak_ring=60 cursor_advance=92218 live=42309f330e000000 catchup=41ef44c2c0000000 p99=4086800000000000 wait=3ffba6945e9ee800 recovery=4062c00000000000 wall=40bc200000000000 drained=true series=59ef50fe",
    ),
    (
        "outage_reconnect/1000/7200s/demote/seed1",
        "clients=1000 admitted=2000 deferred=950 resume_failures=1000 kicks=0 quarantined=0 produced=360 delivered=168518 shed=182000 starvation=0 demotions=4000 promotions=4000 deepest=4 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4235fd995e400000 catchup=4190366400000000 p99=4098600000000000 wait=4012e7b1d951f800 recovery=4070e00000000000 wall=40c5180000000000 drained=true series=bedc5d95",
    ),
    (
        "outage_reconnect/1000/7200s/demote/seed2",
        "clients=1000 admitted=2000 deferred=950 resume_failures=1000 kicks=0 quarantined=0 produced=360 delivered=168518 shed=182000 starvation=0 demotions=4000 promotions=4000 deepest=4 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4235fd995e400000 catchup=4190366400000000 p99=4098600000000000 wait=4012e7e8717ab000 recovery=4070e00000000000 wall=40c5180000000000 drained=true series=bedc5d95",
    ),
    (
        "outage_reconnect/400/1200s/demote",
        "clients=400 admitted=800 deferred=350 resume_failures=0 kicks=0 quarantined=0 produced=240 delivered=92218 shed=0 starvation=0 demotions=1600 promotions=1600 deepest=4 peak_connected=400 peak_ring=60 cursor_advance=92218 live=42303fe74d800000 catchup=4171edd800000000 p99=408fe00000000000 wait=3ffba6945e9ee800 recovery=4066800000000000 wall=40bc200000000000 drained=true series=24c361b2",
    ),
    (
        "outage_reconnect/1000/7200s/kick/seed1",
        "clients=1000 admitted=3000 deferred=1900 resume_failures=1000 kicks=1000 quarantined=0 produced=360 delivered=108518 shed=242000 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4239442d45800000 catchup=0000000000000000 p99=0000000000000000 wait=4012e7b1d951f800 recovery=404e000000000000 wall=40c5180000000000 drained=true series=8d1dacd5",
    ),
    (
        "outage_reconnect/1000/7200s/kick/seed2",
        "clients=1000 admitted=3000 deferred=1900 resume_failures=1000 kicks=1000 quarantined=0 produced=360 delivered=108518 shed=242000 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=1000 peak_ring=60 cursor_advance=350518 live=4239442d45800000 catchup=0000000000000000 p99=0000000000000000 wait=4012e7e8717ab000 recovery=404e000000000000 wall=40c5180000000000 drained=true series=8d1dacd5",
    ),
    (
        "outage_reconnect/400/1200s/kick",
        "clients=400 admitted=1200 deferred=700 resume_failures=0 kicks=400 quarantined=0 produced=240 delivered=75418 shed=16800 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=400 peak_ring=60 cursor_advance=92218 live=42318f435a800000 catchup=0000000000000000 p99=0000000000000000 wait=3ffba6945e9ee800 recovery=404e000000000000 wall=40bc200000000000 drained=true series=cf21132f",
    ),
    (
        "link_sag/200/drop",
        "clients=200 admitted=200 deferred=0 resume_failures=0 kicks=0 quarantined=0 produced=120 delivered=18318 shed=3800 starvation=0 demotions=800 promotions=800 deepest=4 peak_connected=200 peak_ring=60 cursor_advance=22118 live=420272b0ca000000 catchup=415b774000000000 p99=408e000000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=a984d381",
    ),
    (
        "link_sag/200/demote",
        "clients=200 admitted=200 deferred=0 resume_failures=0 kicks=0 quarantined=0 produced=120 delivered=22118 shed=0 starvation=0 demotions=1000 promotions=1000 deepest=4 peak_connected=200 peak_ring=60 cursor_advance=22118 live=4200f581c8000000 catchup=41655cc000000000 p99=4097700000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=d28f9ffd",
    ),
    (
        "link_sag/200/kick",
        "clients=200 admitted=400 deferred=149 resume_failures=0 kicks=200 quarantined=0 produced=120 delivered=15518 shed=6600 starvation=0 demotions=800 promotions=800 deepest=4 peak_connected=200 peak_ring=60 cursor_advance=22118 live=420272e19e000000 catchup=414e848000000000 p99=408e000000000000 wait=3fe73dd439b36800 recovery=none wall=40ac200000000000 drained=true series=e3c7304f",
    ),
    (
        "ramp_with_flappers/300+30/trip1/window60",
        "clients=330 admitted=330 deferred=0 resume_failures=0 kicks=0 quarantined=30 produced=120 delivered=33198 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=330 peak_ring=60 cursor_advance=33198 live=421eeb051e000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=17c1cf89",
    ),
    (
        "ramp_with_flappers/300+30/trip2/window60",
        "clients=330 admitted=360 deferred=0 resume_failures=0 kicks=0 quarantined=30 produced=120 delivered=33258 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=330 peak_ring=60 cursor_advance=33258 live=421ef9533a000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=83e23845",
    ),
    (
        "ramp_with_flappers/300+30/trip5/window600",
        "clients=330 admitted=450 deferred=0 resume_failures=0 kicks=0 quarantined=30 produced=120 delivered=33378 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=330 peak_ring=60 cursor_advance=33378 live=421f15ef72000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=none wall=40ac200000000000 drained=true series=61aa969f",
    ),
    (
        "repeated_outages/500/trip1/window60/seed1",
        "clients=520 admitted=520 deferred=0 resume_failures=0 kicks=0 quarantined=520 produced=240 delivered=24768 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=500 peak_ring=60 cursor_advance=24768 live=42171126c0000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=0000000000000000 wall=40bc200000000000 drained=true series=d5fd0e95",
    ),
    (
        "repeated_outages/500/trip1/window60/seed2",
        "clients=520 admitted=520 deferred=0 resume_failures=0 kicks=0 quarantined=520 produced=240 delivered=24768 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=500 peak_ring=60 cursor_advance=24768 live=42171126c0000000 catchup=0000000000000000 p99=0000000000000000 wait=0000000000000000 recovery=0000000000000000 wall=40bc200000000000 drained=true series=d5fd0e95",
    ),
    (
        "repeated_outages/500/trip2/window60/seed1",
        "clients=520 admitted=1528 deferred=838 resume_failures=0 kicks=0 quarantined=20 produced=240 delivered=115288 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=115288 live=423860c8fdc00000 catchup=4203b75242000000 p99=405e000000000000 wait=4001d16921949000 recovery=404e000000000000 wall=40bc200000000000 drained=true series=d015ad78",
    ),
    (
        "repeated_outages/500/trip2/window60/seed2",
        "clients=520 admitted=1568 deferred=877 resume_failures=0 kicks=0 quarantined=20 produced=240 delivered=115288 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=115288 live=423848c3b3000000 catchup=4204777c98000000 p99=405e000000000000 wait=4001d4403e3ddc00 recovery=404e000000000000 wall=40bc200000000000 drained=true series=006b83d8",
    ),
    (
        "repeated_outages/500/trip2/window600/seed1",
        "clients=520 admitted=1408 deferred=717 resume_failures=0 kicks=0 quarantined=140 produced=240 delivered=98008 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=98008 live=42347e9463c00000 catchup=4202993812000000 p99=405e000000000000 wait=4001d16921949000 recovery=404e000000000000 wall=40bc200000000000 drained=true series=030cd88e",
    ),
    (
        "repeated_outages/500/trip2/window600/seed2",
        "clients=520 admitted=1435 deferred=742 resume_failures=0 kicks=0 quarantined=153 produced=240 delivered=96136 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=96136 live=4233fada77400000 catchup=42033a63d6000000 p99=405e000000000000 wait=4001d4403e3ddc00 recovery=404e000000000000 wall=40bc200000000000 drained=true series=d9fa46ea",
    ),
    (
        "repeated_outages/500/trip3/window1200/seed1",
        "clients=520 admitted=1428 deferred=717 resume_failures=0 kicks=0 quarantined=140 produced=240 delivered=98008 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=98008 live=42347e9463c00000 catchup=4202993812000000 p99=405e000000000000 wait=4001d16921949000 recovery=404e000000000000 wall=40bc200000000000 drained=true series=030cd88e",
    ),
    (
        "repeated_outages/500/trip3/window1200/seed2",
        "clients=520 admitted=1455 deferred=742 resume_failures=0 kicks=0 quarantined=153 produced=240 delivered=96136 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=96136 live=4233fada77400000 catchup=42033a63d6000000 p99=405e000000000000 wait=4001d4403e3ddc00 recovery=404e000000000000 wall=40bc200000000000 drained=true series=d9fa46ea",
    ),
    (
        "repeated_outages/500/trip5/window60/seed1",
        "clients=520 admitted=1588 deferred=838 resume_failures=0 kicks=0 quarantined=20 produced=240 delivered=115308 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=115308 live=423861fa2ac00000 catchup=4203b75242000000 p99=405e000000000000 wait=4001d16921949000 recovery=404e000000000000 wall=40bc200000000000 drained=true series=617880d2",
    ),
    (
        "repeated_outages/500/trip5/window60/seed2",
        "clients=520 admitted=1628 deferred=877 resume_failures=0 kicks=0 quarantined=20 produced=240 delivered=115308 shed=0 starvation=0 demotions=0 promotions=0 deepest=0 peak_connected=520 peak_ring=60 cursor_advance=115308 live=423849f4e0000000 catchup=4204777c98000000 p99=405e000000000000 wait=4001d4403e3ddc00 recovery=404e000000000000 wall=40bc200000000000 drained=true series=b106ae72",
    ),
    (
        "composed/600/drop/seed1",
        "clients=630 admitted=948 deferred=208 resume_failures=0 kicks=0 quarantined=30 produced=240 delivered=127218 shed=11400 starvation=0 demotions=2658 promotions=2658 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=42363337dea00000 catchup=41c7673600000000 p99=408e000000000000 wait=3ff04e6f70969000 recovery=4056800000000000 wall=40bc200000000000 drained=true series=a9acaa4a",
    ),
    (
        "composed/600/drop/seed2",
        "clients=630 admitted=955 deferred=215 resume_failures=0 kicks=0 quarantined=30 produced=240 delivered=127218 shed=11400 starvation=0 demotions=2665 promotions=2665 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=4236287fe1b00000 catchup=41c8054ac0000000 p99=408e000000000000 wait=3ff1322365c88800 recovery=4056800000000000 wall=40bc200000000000 drained=true series=155a84f4",
    ),
    (
        "composed/600/demote/seed1",
        "clients=630 admitted=948 deferred=208 resume_failures=0 kicks=0 quarantined=30 produced=240 delivered=138618 shed=0 starvation=0 demotions=3258 promotions=3258 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=4235aee68c500000 catchup=41a342aa00000000 p99=4097700000000000 wait=3ff04e6f70969000 recovery=4056800000000000 wall=40bc200000000000 drained=true series=c2af31f3",
    ),
    (
        "composed/600/demote/seed2",
        "clients=630 admitted=955 deferred=215 resume_failures=0 kicks=0 quarantined=30 produced=240 delivered=138618 shed=0 starvation=0 demotions=3265 promotions=3265 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=4235a4785de80000 catchup=41a3ac9f00000000 p99=4097700000000000 wait=3ff1322365c88800 recovery=4056800000000000 wall=40bc200000000000 drained=true series=37eef9c4",
    ),
    (
        "composed/600/kick/seed1",
        "clients=630 admitted=1548 deferred=758 resume_failures=0 kicks=600 quarantined=30 produced=240 delivered=118818 shed=19800 starvation=0 demotions=2658 promotions=2658 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=4236334a2e200000 catchup=41c71df800000000 p99=408e000000000000 wait=4005d143131e9a00 recovery=4056800000000000 wall=40bc200000000000 drained=true series=c16ea50f",
    ),
    (
        "composed/600/kick/seed2",
        "clients=630 admitted=1555 deferred=765 resume_failures=0 kicks=600 quarantined=30 produced=240 delivered=118818 shed=19800 starvation=0 demotions=2665 promotions=2665 deepest=4 peak_connected=600 peak_ring=60 cursor_advance=138618 live=4236289231300000 catchup=41c7bc0cc0000000 p99=408e000000000000 wait=4005d29ff7ead200 recovery=4056800000000000 wall=40bc200000000000 drained=true series=3c190fff",
    ),
];
