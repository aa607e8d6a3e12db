//! Property tests for the persistent rank team: the pooled step of the
//! dynamical core must be *bitwise* identical to the serial lanes step —
//! fields and finite probe — for any grid shape, any team size, nest
//! active or not, and across mid-run pool resizes. Parity is load-bearing — the adaptation
//! layer retunes the worker count mid-mission, and a retune that nudged
//! the trajectory would make every golden track and recovery byte-compare
//! in the repo flaky.

use proptest::prelude::*;
use wrf::{
    DomainGeom, Fields, ModelConfig, PhysicsParams, VortexParams, VortexState, WorkerPool, WrfModel,
};

/// Deterministic splitmix64 — cheap way to fill four grids from one seed
/// without asking proptest for tens of thousands of shrinkable floats.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Uniform in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A physically plausible random state on an arbitrary grid.
fn random_fields(nx: usize, ny: usize, seed: u64) -> Fields {
    let mut f = Fields::zeros(nx, ny, 27.0);
    let mut s = seed;
    for v in f.eta.data_mut() {
        *v = 10.0 * splitmix(&mut s) - 5.0;
    }
    for v in f.u.data_mut() {
        *v = 60.0 * splitmix(&mut s) - 30.0;
    }
    for v in f.v.data_mut() {
        *v = 60.0 * splitmix(&mut s) - 30.0;
    }
    for v in f.q.data_mut() {
        *v = 0.03 * splitmix(&mut s);
    }
    f
}

struct Scene {
    vortex: VortexState,
    phys: PhysicsParams,
    vparams: VortexParams,
    geom: DomainGeom,
}

impl Scene {
    fn aila() -> Self {
        let vparams = VortexParams::aila();
        let geom = DomainGeom::bay_of_bengal();
        Scene {
            vortex: VortexState::genesis(&vparams, &geom),
            phys: PhysicsParams::bay_of_bengal(),
            vparams,
            geom,
        }
    }

    /// The serial reference: team size 1 takes the serial fast path
    /// inside the pool, the lane-ordered `step_serial_lanes_into`.
    fn serial_step(&self, old: &Fields) -> (Fields, f64) {
        let mut reference = WorkerPool::with_exact_team(1);
        let mut out = Fields::zeros(1, 1, 1.0);
        let probe = reference.step(
            old,
            &self.vortex,
            &self.phys,
            &self.vparams,
            &self.geom,
            120.0,
            &mut out,
        );
        (out, probe)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lanes pool is bitwise identical to the lane-ordered serial
    /// reference — fields AND probe — for any grid and team size,
    /// including teams larger than the row count. The probe comparison is
    /// exact because the kernels carry per-row probe slots and reduce them
    /// in a documented fixed order, so the team decomposition can never
    /// reorder the sum.
    #[test]
    fn lanes_pool_matches_lane_ordered_serial_bitwise(
        nx in 4usize..40,
        ny in 4usize..40,
        team in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let scene = Scene::aila();
        let old = random_fields(nx, ny, seed);
        let (want, want_probe) = scene.serial_step(&old);

        let mut pool = WorkerPool::with_exact_team(team);
        let mut got = Fields::zeros(1, 1, 1.0);
        let probe = pool.step(
            &old, &scene.vortex, &scene.phys, &scene.vparams, &scene.geom, 120.0, &mut got,
        );
        prop_assert_eq!(&got, &want, "lanes team {} diverged from lanes serial", team);
        prop_assert_eq!(
            probe.to_bits(), want_probe.to_bits(),
            "lanes probe must be bit-exact: {} vs {}", probe, want_probe
        );
    }

    /// Mid-run resizes of a lanes pool — what `FollowDecision` does when
    /// the manager retunes the processor count — keep the trajectory and every probe bit-exact against
    /// the lane-ordered serial reference.
    #[test]
    fn lanes_mid_run_resizes_stay_bitwise(
        nx in 4usize..32,
        ny in 4usize..32,
        teams in prop::collection::vec(1usize..=8, 2..5),
        seed in any::<u64>(),
    ) {
        let scene = Scene::aila();
        let mut serial = random_fields(nx, ny, seed);
        let mut pooled = serial.clone();
        let mut pool = WorkerPool::with_exact_team(teams[0]);
        let mut out = Fields::zeros(1, 1, 1.0);
        for &team in &teams {
            pool.resize(team);
            let (want, want_probe) = scene.serial_step(&serial);
            serial = want;
            let probe = pool.step(
                &pooled, &scene.vortex, &scene.phys, &scene.vparams, &scene.geom, 120.0, &mut out,
            );
            std::mem::swap(&mut pooled, &mut out);
            prop_assert_eq!(&pooled, &serial, "diverged after resize to {}", team);
            prop_assert_eq!(probe.to_bits(), want_probe.to_bits(), "probe drifted at team {}", team);
        }
    }
}

proptest! {
    // Full-model cases integrate a real (coarse) mission grid, so run few.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The whole model — double-buffered parent step, nest substeps,
    /// feedback, recentring — is thread-count invariant, nest or not.
    #[test]
    fn model_advance_is_thread_count_invariant(
        threads in 2usize..=6,
        with_nest in any::<bool>(),
        steps in 1usize..3,
    ) {
        let cfg = ModelConfig::aila_default().with_resolution(48.0);
        let mut reference = WrfModel::new(cfg).expect("valid configuration");
        let mut parallel = reference.clone();
        if with_nest {
            reference.spawn_nest();
            parallel.spawn_nest();
        }
        reference.advance_steps(steps, 1).expect("finite");
        parallel.advance_steps(steps, threads).expect("finite");
        prop_assert_eq!(reference.fields(), parallel.fields());
        prop_assert_eq!(
            reference.nest().map(|n| &n.fields),
            parallel.nest().map(|n| &n.fields)
        );
    }
}
