//! Persistent-rank physics engine: a long-lived worker team for the
//! integrator.
//!
//! Spawning one OS thread per band per pass per step (what the seed
//! engine did) makes thread creation a first-order cost at WRF-like step
//! times of a few milliseconds. This module is the structure a real MPI
//! dycore uses instead, and the only engine that steps a model:
//!
//! - **One team, spawned once.** A [`WorkerPool`] owns `team − 1` parked
//!   OS threads; the caller's thread acts as the last team member. The
//!   team persists across steps, epochs, and (via [`WorkerPool::resize`])
//!   reconfigurations.
//! - **Jobs, not threads.** Each step publishes one type-erased job
//!   (raw pointers to the step inputs and the four output arrays) under a
//!   mutex + condvar, bumps an epoch counter, and wakes the team.
//! - **A reusable sense-reversing barrier** separates the fused
//!   continuity+tracer pass from the momentum pass (which reads the *new*
//!   eta), and a second crossing ends the step. No thread is created or
//!   destroyed anywhere on the hot path.
//!
//! # Safety model
//!
//! The job carries `*const StepInputs<'static>` (lifetime-erased) and
//! `*mut f64` output pointers. This is sound because [`WorkerPool::step`]
//! does not return until every team member has crossed the final barrier,
//! so all worker access to the borrowed inputs and outputs is strictly
//! contained within the call; the bands handed to the team are disjoint
//! row ranges of the outputs; and the barrier crossings give the necessary
//! happens-before edges (pass 1 writes of `eta` → pass 2 reads, all
//! writes → the caller's reads after return).
//!
//! # Parity
//!
//! Every band runs exactly the serial lanes kernels on its rows, so
//! results are **bitwise identical** to the lane-ordered serial reference
//! (`solver::step_serial_lanes_into`, also the team-of-one fast path) for
//! every team size; per-row probe slots make even the finite probe's bits
//! independent of the band and tile decomposition. That property is
//! load-bearing: the adaptive layer changes the processor count mid-run
//! and the restart logic replays trajectories on different worker counts;
//! parity makes both invisible to the physics.
//!
//! Within a band, sweeps run in L2-sized row tiles (`par::row_tiles`) —
//! bit-neutral, since rows are independent within a pass and tiles never
//! split a row.
//!
//! # Sizing
//!
//! [`WorkerPool::new`] clamps the team to `std::thread::available_parallelism`
//! — oversubscribing cores can only add scheduling noise, and parity means
//! the clamp never changes results. Tests that must exercise real
//! multi-thread interleavings regardless of host size can use
//! [`WorkerPool::with_exact_team`].

use crate::fields::Fields;
use crate::geom::DomainGeom;
use crate::par::{band_ranges, row_tiles};
use crate::solver::{
    step_eta_q_rows_lanes, step_serial_lanes_into, step_uv_rows_lanes, LaneScratch, PhysicsParams,
    StepInputs,
};
use crate::vortex::{VortexParams, VortexState};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A reusable sense-reversing barrier for a fixed party count.
///
/// `std::sync::Barrier` would also work, but the explicit sense-reversing
/// form keeps the protocol visible (it is the same algorithm WRF-class
/// codes use inside their OpenMP runtimes) and lets the party count be
/// checked against the team size at construction.
struct SenseBarrier {
    parties: usize,
    /// (arrived count, current sense).
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl SenseBarrier {
    fn new(parties: usize) -> Self {
        assert!(parties >= 1);
        SenseBarrier {
            parties,
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Block until all parties have arrived. Reusable immediately: the
    /// sense flips each generation, so a fast thread re-entering the next
    /// crossing cannot be confused with a slow thread still leaving the
    /// previous one.
    fn wait(&self) {
        let mut g = self.state.lock().expect("barrier lock");
        let sense = g.1;
        g.0 += 1;
        if g.0 == self.parties {
            g.0 = 0;
            g.1 = !sense;
            self.cv.notify_all();
        } else {
            while g.1 == sense {
                g = self.cv.wait(g).expect("barrier wait");
            }
        }
    }
}

/// One step's worth of work, type-erased for the parked team.
///
/// All pointers are owned by the `step` call that published the job and
/// outlive every worker access (see the module-level safety model).
#[derive(Clone, Copy)]
struct Job {
    inp: *const StepInputs<'static>,
    eta: *mut f64,
    u: *mut f64,
    v: *mut f64,
    q: *mut f64,
    /// One finite-probe slot per grid *row*: members write the disjoint
    /// slots of their band, the caller reduces in ascending row order so
    /// the probe's bits are team-size-invariant.
    probe_rows: *mut f64,
    nx: usize,
    ny: usize,
    team: usize,
}

// Safety: the raw pointers are only dereferenced between the job's
// publication and the final barrier crossing of the same step, during
// which the owning `step` frame keeps all of them valid; band disjointness
// prevents data races (see module docs).
unsafe impl Send for Job {}

struct JobSlot {
    /// Incremented once per published job; workers run a job exactly once.
    epoch: u64,
    shutdown: bool,
    job: Option<Job>,
}

struct Shared {
    slot: Mutex<JobSlot>,
    start: Condvar,
    barrier: SenseBarrier,
}

/// Run this member's bands for one job: fused continuity+tracer pass,
/// barrier, momentum pass (reading the completed new eta), barrier.
///
/// `scratch` is the member's persistent lane scratch; keeping it on the
/// worker avoids re-allocating the column tables every step.
///
/// # Safety
/// Caller must guarantee the job's pointers are valid for the duration of
/// the call and that no other member uses the same `index`.
unsafe fn run_member(job: &Job, index: usize, barrier: &SenseBarrier, scratch: &mut LaneScratch) {
    let bands = band_ranges(job.ny, job.team);
    let inp: &StepInputs<'_> = &*job.inp;
    let band = bands.get(index).copied();

    if let Some((j0, j1)) = band {
        // Column tables once per step per member, then tile sweeps.
        scratch.prepare(inp);
        for (t0, t1) in row_tiles(j0, j1, job.nx) {
            let len = (t1 - t0) * job.nx;
            let off = t0 * job.nx;
            let eta = std::slice::from_raw_parts_mut(job.eta.add(off), len);
            let q = std::slice::from_raw_parts_mut(job.q.add(off), len);
            let rows = std::slice::from_raw_parts_mut(job.probe_rows.add(t0), t1 - t0);
            step_eta_q_rows_lanes(inp, scratch, t0, t1, eta, q, rows);
        }
    }
    barrier.wait();
    if let Some((j0, j1)) = band {
        // The new eta is complete and no longer written: shared read view.
        let eta_new = std::slice::from_raw_parts(job.eta as *const f64, job.nx * job.ny);
        for (t0, t1) in row_tiles(j0, j1, job.nx) {
            let len = (t1 - t0) * job.nx;
            let off = t0 * job.nx;
            let u = std::slice::from_raw_parts_mut(job.u.add(off), len);
            let v = std::slice::from_raw_parts_mut(job.v.add(off), len);
            let rows = std::slice::from_raw_parts_mut(job.probe_rows.add(t0), t1 - t0);
            step_uv_rows_lanes(inp, scratch, eta_new, t0, t1, u, v, rows);
        }
    }
    barrier.wait();
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let mut seen = 0u64;
    let mut scratch = LaneScratch::default();
    loop {
        let job = {
            let mut g = shared.slot.lock().expect("job slot lock");
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen {
                    seen = g.epoch;
                    break g.job.expect("epoch bumped with a job published");
                }
                g = shared.start.wait(g).expect("job slot wait");
            }
        };
        // Safety: the publishing `step` frame keeps the job's pointers
        // alive until after the final barrier, and `index` is unique.
        unsafe { run_member(&job, index, &shared.barrier, &mut scratch) };
    }
}

/// A persistent team of integrator ranks. See the module docs.
pub struct WorkerPool {
    /// Worker count the caller asked for (before the host-size clamp).
    requested: usize,
    /// Actual team size, including the caller's thread.
    team: usize,
    clamp: bool,
    /// `None` when `team == 1` (pure serial — no sync machinery at all).
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-row finite probes, reused across steps.
    probe_rows: Vec<f64>,
    /// The caller-thread member's lane scratch.
    caller_scratch: LaneScratch,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("requested", &self.requested)
            .field("team", &self.team)
            .finish()
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl WorkerPool {
    /// A pool of `workers` ranks, clamped to the host's available
    /// parallelism (oversubscription cannot help and parity makes the
    /// clamp semantically invisible).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, true)
    }

    /// A pool with exactly `workers` ranks, no host clamp — for tests
    /// that must exercise real multi-thread interleavings even on small
    /// hosts.
    pub fn with_exact_team(workers: usize) -> Self {
        Self::build(workers, false)
    }

    fn build(workers: usize, clamp: bool) -> Self {
        let requested = workers.max(1);
        let team = if clamp {
            requested.min(host_parallelism())
        } else {
            requested
        };
        let (shared, handles) = if team > 1 {
            let shared = Arc::new(Shared {
                slot: Mutex::new(JobSlot {
                    epoch: 0,
                    shutdown: false,
                    job: None,
                }),
                start: Condvar::new(),
                barrier: SenseBarrier::new(team),
            });
            let handles = (0..team - 1)
                .map(|index| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("wrf-rank-{index}"))
                        .spawn(move || worker_loop(shared, index))
                        .expect("spawn integrator rank")
                })
                .collect();
            (Some(shared), handles)
        } else {
            (None, Vec::new())
        };
        WorkerPool {
            requested,
            team,
            clamp,
            shared,
            handles,
            probe_rows: Vec::new(),
            caller_scratch: LaneScratch::default(),
        }
    }

    /// Worker count the caller asked for.
    pub fn workers(&self) -> usize {
        self.requested
    }

    /// Actual team size after the host clamp (includes the caller).
    pub fn team_size(&self) -> usize {
        self.team
    }

    /// Retarget the pool to `workers` ranks. A no-op when the effective
    /// team size is unchanged; otherwise the old team is shut down and a
    /// new one spawned (reconfiguration cost, never per-step cost).
    pub fn resize(&mut self, workers: usize) {
        let requested = workers.max(1);
        let team = if self.clamp {
            requested.min(host_parallelism())
        } else {
            requested
        };
        if team == self.team {
            self.requested = requested;
            return;
        }
        self.shutdown();
        *self = Self::build(requested, self.clamp);
    }

    fn shutdown(&mut self) {
        if let Some(shared) = &self.shared {
            {
                let mut g = shared.slot.lock().expect("job slot lock");
                g.shutdown = true;
            }
            shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            h.join().expect("integrator rank panicked");
        }
        self.shared = None;
    }

    /// Advance one integration step, writing the new state into `out`
    /// (reshaped if needed; a warm buffer makes the step allocation-free).
    /// Returns the finite probe — non-finite iff some written value was.
    ///
    /// Results are bitwise identical to the serial lanes reference for
    /// every team size.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        old: &Fields,
        vortex: &VortexState,
        phys: &PhysicsParams,
        vparams: &VortexParams,
        geom: &DomainGeom,
        dt_secs: f64,
        out: &mut Fields,
    ) -> f64 {
        let inp = StepInputs {
            old,
            vortex,
            phys,
            vparams,
            geom,
            dt_secs,
        };
        if self.team <= 1 {
            return step_serial_lanes_into(
                &inp,
                &mut self.caller_scratch,
                &mut self.probe_rows,
                out,
            );
        }
        out.shape_like(old);
        let (nx, ny) = (old.nx(), old.ny());
        self.probe_rows.clear();
        self.probe_rows.resize(ny, 0.0);
        let job = Job {
            // Lifetime erasure only — the pointee lives on this frame and
            // outlives every use (see module docs).
            inp: (&inp as *const StepInputs<'_>).cast::<StepInputs<'static>>(),
            eta: out.eta.data_mut().as_mut_ptr(),
            u: out.u.data_mut().as_mut_ptr(),
            v: out.v.data_mut().as_mut_ptr(),
            q: out.q.data_mut().as_mut_ptr(),
            probe_rows: self.probe_rows.as_mut_ptr(),
            nx,
            ny,
            team: self.team,
        };
        let shared = self.shared.as_ref().expect("team > 1 has workers");
        {
            let mut g = shared.slot.lock().expect("job slot lock");
            g.epoch += 1;
            g.job = Some(job);
        }
        shared.start.notify_all();
        // The caller's thread is team member `team − 1`.
        // Safety: pointers in `job` stay valid for this whole call; the
        // final barrier inside guarantees every worker is done with them
        // before we continue.
        unsafe {
            run_member(
                &job,
                self.team - 1,
                &shared.barrier,
                &mut self.caller_scratch,
            )
        };
        // Workers are parked again (their epoch matches): clear the slot so
        // the raw pointers do not dangle past this frame.
        shared.slot.lock().expect("job slot lock").job = None;
        // Ascending-row reduction — identical bits to the serial lanes
        // reference at every team size.
        self.probe_rows.iter().sum()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Fields, VortexState, PhysicsParams, VortexParams, DomainGeom) {
        let geom = DomainGeom::bay_of_bengal();
        let phys = PhysicsParams::bay_of_bengal();
        let vparams = VortexParams::aila();
        let vortex = VortexState::genesis(&vparams, &geom);
        let mut fields = Fields::zeros(36, 30, 192.0);
        for j in 0..fields.ny() {
            for i in 0..fields.nx() {
                let (x, y) = (fields.x_km(i), fields.y_km(j));
                fields
                    .eta
                    .set(i, j, vortex.target_eta(x, y, &vparams) * 0.5);
                let (u, v) = vortex.target_uv(x, y, &vparams);
                fields.u.set(i, j, u * 0.5);
                fields.v.set(i, j, v * 0.5);
            }
        }
        (fields, vortex, phys, vparams, geom)
    }

    fn lanes_reference(
        fields: &Fields,
        vortex: &VortexState,
        phys: &PhysicsParams,
        vparams: &VortexParams,
        geom: &DomainGeom,
        dt: f64,
    ) -> (Fields, f64) {
        let inp = StepInputs {
            old: fields,
            vortex,
            phys,
            vparams,
            geom,
            dt_secs: dt,
        };
        let mut out = Fields::zeros(fields.nx(), fields.ny(), fields.dx_km);
        let mut scratch = LaneScratch::default();
        let mut rows = Vec::new();
        let probe = step_serial_lanes_into(&inp, &mut scratch, &mut rows, &mut out);
        (out, probe)
    }

    #[test]
    fn pooled_step_matches_serial_bitwise_for_all_team_sizes() {
        let (fields, vortex, phys, vparams, geom) = setup();
        let dt = 6.0 * fields.dx_km;
        let (serial, serial_probe) = lanes_reference(&fields, &vortex, &phys, &vparams, &geom, dt);
        for team in [1usize, 2, 3, 4, 7, 8] {
            let mut pool = WorkerPool::with_exact_team(team);
            let mut out = Fields::zeros(1, 1, 1.0);
            let probe = pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut out);
            assert_eq!(serial, out, "team = {team}");
            // The lanes probe is part of the parity contract: identical
            // *bits*, not merely finite, at every team size.
            assert_eq!(probe.to_bits(), serial_probe.to_bits(), "team = {team}");
        }
    }

    #[test]
    fn pool_is_reusable_across_steps_and_grids() {
        let (mut fields, vortex, phys, vparams, geom) = setup();
        let mut pool = WorkerPool::with_exact_team(3);
        let mut out = Fields::zeros(1, 1, 1.0);
        for _ in 0..5 {
            let dt = 6.0 * fields.dx_km;
            let (serial, _) = lanes_reference(&fields, &vortex, &phys, &vparams, &geom, dt);
            pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut out);
            assert_eq!(serial, out);
            std::mem::swap(&mut fields, &mut out);
        }
        // Same pool, different grid shape: `out` reshapes in place.
        let smaller = fields.resample(20, 17, 320.0);
        let dt = 6.0 * smaller.dx_km;
        let (serial, _) = lanes_reference(&smaller, &vortex, &phys, &vparams, &geom, dt);
        pool.step(&smaller, &vortex, &phys, &vparams, &geom, dt, &mut out);
        assert_eq!(serial, out);
    }

    #[test]
    fn resize_changes_team_and_preserves_results() {
        let (fields, vortex, phys, vparams, geom) = setup();
        let dt = 6.0 * fields.dx_km;
        let (serial, serial_probe) = lanes_reference(&fields, &vortex, &phys, &vparams, &geom, dt);
        let mut pool = WorkerPool::with_exact_team(2);
        let mut out = Fields::zeros(1, 1, 1.0);
        for team in [4usize, 1, 3, 2] {
            pool.resize(team);
            assert_eq!(pool.team_size(), team);
            let probe = pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut out);
            assert_eq!(serial, out, "after resize to {team}");
            assert_eq!(probe.to_bits(), serial_probe.to_bits());
        }
    }

    #[test]
    fn resize_to_same_size_is_a_noop() {
        let mut pool = WorkerPool::with_exact_team(2);
        pool.resize(2);
        assert_eq!(pool.team_size(), 2);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn new_clamps_to_host_parallelism() {
        let pool = WorkerPool::new(4096);
        assert_eq!(pool.workers(), 4096);
        assert!(pool.team_size() <= host_parallelism());
    }

    #[test]
    fn more_ranks_than_rows_is_fine() {
        let (fields, vortex, phys, vparams, geom) = setup();
        let dt = 6.0 * fields.dx_km;
        let (serial, _) = lanes_reference(&fields, &vortex, &phys, &vparams, &geom, dt);
        // team > ny: trailing members idle at the barriers.
        let mut pool = WorkerPool::with_exact_team(40);
        let mut out = Fields::zeros(1, 1, 1.0);
        pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut out);
        assert_eq!(serial, out);
    }

    #[test]
    fn probe_detects_blowup_without_field_scan() {
        let (mut fields, vortex, phys, vparams, geom) = setup();
        fields.u.set(7, 9, f64::NAN);
        let dt = 6.0 * fields.dx_km;
        let mut pool = WorkerPool::with_exact_team(3);
        let mut out = Fields::zeros(1, 1, 1.0);
        let probe = pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut out);
        assert!(!probe.is_finite());
    }

    #[test]
    fn repeated_steps_stay_finite_and_track_vortex() {
        let (mut fields, mut vortex, phys, vparams, geom) = setup();
        let dt = 6.0 * fields.dx_km;
        let mut pool = WorkerPool::with_exact_team(2);
        let mut scratch = Fields::zeros(1, 1, 1.0);
        for _ in 0..100 {
            let probe = pool.step(&fields, &vortex, &phys, &vparams, &geom, dt, &mut scratch);
            std::mem::swap(&mut fields, &mut scratch);
            vortex.advance(dt, &vparams, &geom);
            assert!(probe.is_finite());
        }
        // After ~100 steps of nudging, the field minimum should sit near
        // the vortex centre.
        let (p_min, x, y) = fields.min_pressure(vparams.hpa_per_eta_m);
        assert!(p_min < 1010.0, "a depression formed: {p_min}");
        let dist = ((x - vortex.x_km).powi(2) + (y - vortex.y_km).powi(2)).sqrt();
        assert!(dist < 600.0, "eye within a few grid cells: {dist} km");
    }

    #[test]
    fn sense_barrier_reusable_many_generations() {
        let barrier = Arc::new(SenseBarrier::new(3));
        let counter = Arc::new(Mutex::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    *counter.lock().unwrap() += 1;
                    barrier.wait();
                    barrier.wait();
                }
            }));
        }
        for gen in 1..=50 {
            barrier.wait();
            // Between the two crossings all increments of this generation
            // are visible and no thread has started the next one.
            assert_eq!(*counter.lock().unwrap(), 2 * gen);
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
