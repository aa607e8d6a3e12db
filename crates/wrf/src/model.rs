//! The top-level model: configuration, stepping, frames, lifecycle.

use crate::dt_for_resolution_secs;
use crate::fields::Fields;
use crate::geom::DomainGeom;
use crate::nest::{Nest, NestConfig};
use crate::pool::WorkerPool;
use crate::record::{Record, Source, Var};
use crate::solver::PhysicsParams;
use crate::vortex::{VortexParams, VortexState};
use ncdf::{AttrValue, Dataset};
use serde::{Deserialize, Serialize};

/// Errors from model construction and control.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Requested resolution is non-positive or absurd for the domain.
    BadResolution(f64),
    /// Decimation must be at least 1.
    BadDecimation(usize),
    /// A checkpoint could not be decoded.
    BadCheckpoint(String),
    /// The integrator produced a non-finite value (CFL violation or
    /// corrupted state) — the run cannot continue.
    NumericalBlowup {
        /// Simulated seconds reached when the blow-up was detected.
        at_sim_secs: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::BadResolution(r) => write!(f, "invalid resolution {r} km"),
            ModelError::BadDecimation(d) => write!(f, "invalid decimation {d}"),
            ModelError::BadCheckpoint(m) => write!(f, "bad checkpoint: {m}"),
            ModelError::NumericalBlowup { at_sim_secs } => {
                write!(f, "numerical blow-up at simulated t = {at_sim_secs} s")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Full model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Forecast domain geometry.
    pub geom: DomainGeom,
    /// Integrator parameters.
    pub phys: PhysicsParams,
    /// Cyclone scenario.
    pub vortex: VortexParams,
    /// Nest geometry (spawning is the caller's policy decision).
    pub nest: NestConfig,
    /// Nominal parent resolution, km — what the frame sizes, time step,
    /// and compute model are quoted at.
    pub resolution_km: f64,
    /// Physics-grid coarsening: the PDE integrates on a grid whose spacing
    /// is `resolution_km × decimation`. 1 = full resolution. Experiments
    /// that only need the pressure lifecycle and frames run decimated so a
    /// 60-hour mission integrates in milliseconds; the nominal resolution
    /// still drives dt, frame bytes, and the performance model.
    pub decimation: usize,
}

impl ModelConfig {
    /// The paper's Aila setup at 24 km, full-resolution physics.
    pub fn aila_default() -> Self {
        ModelConfig {
            geom: DomainGeom::bay_of_bengal(),
            phys: PhysicsParams::bay_of_bengal(),
            vortex: VortexParams::aila(),
            nest: NestConfig::aila(),
            resolution_km: 24.0,
            decimation: 1,
        }
    }

    /// Builder: physics-grid coarsening factor.
    pub fn with_decimation(mut self, d: usize) -> Self {
        self.decimation = d;
        self
    }

    /// Builder: nominal parent resolution.
    pub fn with_resolution(mut self, km: f64) -> Self {
        self.resolution_km = km;
        self
    }

    /// Physics-grid spacing, km.
    pub fn physics_dx_km(&self) -> f64 {
        self.resolution_km * self.decimation as f64
    }

    /// Physics-grid extent.
    pub fn physics_grid(&self) -> (usize, usize) {
        self.geom.grid_size(self.physics_dx_km())
    }

    /// Nominal grid extent at the quoted resolution (sizes frames and the
    /// performance model's workload).
    pub fn nominal_grid(&self) -> (usize, usize) {
        self.geom.grid_size(self.resolution_km)
    }

    fn validate(&self) -> Result<(), ModelError> {
        if !(self.resolution_km > 0.0 && self.resolution_km.is_finite()) {
            return Err(ModelError::BadResolution(self.resolution_km));
        }
        if self.decimation == 0 {
            return Err(ModelError::BadDecimation(0));
        }
        let (nx, ny) = self.physics_grid();
        if nx < 4 || ny < 4 {
            return Err(ModelError::BadResolution(self.resolution_km));
        }
        Ok(())
    }
}

/// Ephemeral per-process machinery of a running model: the persistent
/// integrator rank team and the double-buffer scratch fields. Not part of
/// the model *state* — it is rebuilt lazily after clone or checkpoint
/// restore, compares equal to everything, and is never serialized.
#[derive(Debug)]
struct Runtime {
    /// Long-lived rank team; spawned on the first `advance_steps` and
    /// resized (not respawned per step) when the worker count changes.
    pool: Option<WorkerPool>,
    /// Ping-pong partner of the parent `fields` buffer.
    scratch: Fields,
    /// Ping-pong partner of the nest fields.
    nest_scratch: Fields,
}

impl Default for Runtime {
    fn default() -> Self {
        // Minimal placeholder shapes: the first step reshapes in place.
        Runtime {
            pool: None,
            scratch: Fields::zeros(1, 1, 1.0),
            nest_scratch: Fields::zeros(1, 1, 1.0),
        }
    }
}

impl Clone for Runtime {
    fn clone(&self) -> Self {
        // A cloned model gets fresh lazy machinery, not shared threads.
        Runtime::default()
    }
}

impl PartialEq for Runtime {
    fn eq(&self, _: &Self) -> bool {
        // Runtime machinery never participates in state comparisons (the
        // restart logic compares models across different worker counts).
        true
    }
}

impl Runtime {
    fn ensure_pool(&mut self, workers: usize) {
        match &mut self.pool {
            Some(p) => {
                if p.workers() != workers {
                    p.resize(workers);
                }
            }
            None => self.pool = Some(WorkerPool::new(workers)),
        }
    }
}

/// A running simulation instance (the paper's "WRF simulation process").
#[derive(Debug, Clone, PartialEq)]
pub struct WrfModel {
    cfg: ModelConfig,
    fields: Fields,
    nest: Option<Nest>,
    vortex: VortexState,
    sim_secs: f64,
    steps_taken: u64,
    runtime: Runtime,
}

impl WrfModel {
    /// Cold-start the model at mission time zero from the analytic state.
    pub fn new(cfg: ModelConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        let (nx, ny) = cfg.physics_grid();
        let vortex = VortexState::genesis(&cfg.vortex, &cfg.geom);
        let mut fields = Fields::zeros(nx, ny, cfg.physics_dx_km());
        for j in 0..ny {
            for i in 0..nx {
                let (x, y) = (fields.x_km(i), fields.y_km(j));
                fields.eta.set(i, j, vortex.target_eta(x, y, &cfg.vortex));
                let (u, v) = vortex.target_uv(x, y, &cfg.vortex);
                fields.u.set(i, j, u);
                fields.v.set(i, j, v);
                // Moisture starts at its land/sea background.
                let q0 = if cfg.geom.is_land_km(x, y) {
                    cfg.phys.q_land
                } else {
                    cfg.phys.q_sea
                };
                fields.q.set(i, j, q0);
            }
        }
        Ok(WrfModel {
            cfg,
            fields,
            nest: None,
            vortex,
            sim_secs: 0.0,
            steps_taken: 0,
            runtime: Runtime::default(),
        })
    }

    /// Active configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Integration time step, seconds (WRF's 6 s/km rule at the nominal
    /// resolution).
    pub fn dt_secs(&self) -> f64 {
        dt_for_resolution_secs(self.cfg.resolution_km)
    }

    /// Simulated time reached, seconds from mission start.
    pub fn sim_secs(&self) -> f64 {
        self.sim_secs
    }

    /// Simulated time reached, minutes from mission start.
    pub fn sim_minutes(&self) -> f64 {
        self.sim_secs / 60.0
    }

    /// Total integration steps taken (parent steps).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Parent-grid prognostic fields.
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// The live nest, if one is spawned.
    pub fn nest(&self) -> Option<&Nest> {
        self.nest.as_ref()
    }

    /// True when a nest is active.
    pub fn has_nest(&self) -> bool {
        self.nest.is_some()
    }

    /// Analytic vortex state (truth for tests and diagnostics).
    pub fn vortex(&self) -> &VortexState {
        &self.vortex
    }

    /// Advance exactly `n` parent steps on `threads` workers.
    ///
    /// The rank team persists across calls; changing `threads` resizes it
    /// once, not per step. Each step ping-pongs the prognostic buffers
    /// through the runtime scratch fields, so the hot loop is
    /// allocation-free, and blow-up detection rides on the kernels'
    /// finite probes instead of an extra full-grid scan (nest feedback
    /// and re-centre only bilinearly sample probe-covered values, which
    /// cannot manufacture a non-finite parent point).
    pub fn advance_steps(&mut self, n: usize, threads: usize) -> Result<(), ModelError> {
        self.runtime.ensure_pool(threads);
        for _ in 0..n {
            let dt = self.dt_secs();
            let Runtime {
                pool,
                scratch,
                nest_scratch,
            } = &mut self.runtime;
            let pool = pool.as_mut().expect("pool ensured above");
            // Parent step (vortex frozen during the parent pass; the nest
            // substeps advance it through the same interval).
            let mut probe = pool.step(
                &self.fields,
                &self.vortex,
                &self.cfg.phys,
                &self.cfg.vortex,
                &self.cfg.geom,
                dt,
                scratch,
            );
            std::mem::swap(&mut self.fields, scratch);
            match &mut self.nest {
                Some(nest) => {
                    probe += nest.advance_parent_step(
                        &mut self.vortex,
                        &self.cfg.phys,
                        &self.cfg.vortex,
                        &self.cfg.geom,
                        dt,
                        pool,
                        nest_scratch,
                    );
                    nest.feedback(&mut self.fields);
                    let (ex, ey) = (self.vortex.x_km, self.vortex.y_km);
                    nest.maybe_recenter(&self.fields, ex, ey);
                }
                None => {
                    self.vortex.advance(dt, &self.cfg.vortex, &self.cfg.geom);
                }
            }
            self.sim_secs += dt;
            self.steps_taken += 1;
            if !probe.is_finite() {
                return Err(ModelError::NumericalBlowup {
                    at_sim_secs: self.sim_secs,
                });
            }
        }
        Ok(())
    }

    /// Advance until simulated time reaches at least `target_minutes`.
    pub fn advance_to_minutes(
        &mut self,
        target_minutes: f64,
        threads: usize,
    ) -> Result<(), ModelError> {
        while self.sim_minutes() < target_minutes {
            self.advance_steps(1, threads)?;
        }
        Ok(())
    }

    /// Minimum diagnosed surface pressure, hPa — from the nest when one is
    /// active (finer sampling of the eye), else the parent.
    pub fn min_pressure_hpa(&self) -> f64 {
        let hpa = self.cfg.vortex.hpa_per_eta_m;
        let parent_min = self.fields.min_pressure(hpa).0;
        match &self.nest {
            Some(n) => parent_min.min(n.fields.min_pressure(hpa).0),
            None => parent_min,
        }
    }

    /// Eye position (pressure minimum) in lon/lat.
    pub fn eye_lonlat(&self) -> (f64, f64) {
        let hpa = self.cfg.vortex.hpa_per_eta_m;
        let (_, x, y) = match &self.nest {
            Some(n) => n.fields.min_pressure(hpa),
            None => self.fields.min_pressure(hpa),
        };
        self.cfg.geom.km_to_lonlat(x, y)
    }

    /// Maximum wind speed over all grids, m/s.
    pub fn max_wind_ms(&self) -> f64 {
        let parent = self.fields.max_wind();
        match &self.nest {
            Some(n) => parent.max(n.fields.max_wind()),
            None => parent,
        }
    }

    /// Spawn the nest centred on the current eye (idempotent).
    pub fn spawn_nest(&mut self) {
        if self.nest.is_none() {
            self.nest = Some(Nest::spawn(
                &self.fields,
                self.cfg.nest,
                self.vortex.x_km,
                self.vortex.y_km,
            ));
        }
    }

    /// Remove the nest (e.g. after the cyclone dissipates).
    pub fn despawn_nest(&mut self) {
        self.nest = None;
    }

    /// Change the nominal resolution: resample the parent (and rebuild the
    /// nest) onto the new grid. This is the paper's "changes the resolution
    /// of the nest multiple times" — in WRF it requires a stop/restart,
    /// which the job handler accounts for separately.
    pub fn set_resolution(&mut self, km: f64) -> Result<(), ModelError> {
        if !(km > 0.0 && km.is_finite()) {
            return Err(ModelError::BadResolution(km));
        }
        let new_cfg = ModelConfig {
            resolution_km: km,
            ..self.cfg
        };
        new_cfg.validate()?;
        let (nx, ny) = new_cfg.physics_grid();
        self.fields = self.fields.resample(nx, ny, new_cfg.physics_dx_km());
        self.cfg = new_cfg;
        if let Some(nest) = &self.nest {
            self.nest = Some(nest.rebuild_for_parent(&self.fields));
        }
        Ok(())
    }

    /// The current state as one history frame (the NetCDF stand-in the
    /// pipeline ships to the visualization site), materialised as a
    /// [`Dataset`]. A caller that only wants the encoded bytes should use
    /// [`frame_into`](Self::frame_into), which builds no dataset.
    pub fn frame(&self) -> Dataset {
        self.history_record().into_dataset()
    }

    /// Encode the current history frame into `out`, replacing whatever it
    /// held: exactly the bytes of `self.frame().to_bytes()`, narrowed and
    /// written straight from the solver's grids. With a buffer that has
    /// held a frame of this size before, nothing frame-sized is allocated.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        let record = self.history_record();
        out.clear();
        out.reserve(record.encoded_size_hint());
        record
            .write_to(out)
            .expect("a Vec sink cannot fail, and every variable spans its own grid");
    }

    /// What a history frame holds — the one place its attributes,
    /// dimensions and variables are listed.
    fn history_record<'a>(&'a self) -> Record<'a> {
        let mut head = Dataset::new();
        head.set_attr("title", AttrValue::Text("wrf-lite history frame".into()));
        head.set_attr("sim_minutes", AttrValue::F64(self.sim_minutes()));
        head.set_attr("resolution_km", AttrValue::F64(self.cfg.resolution_km));
        head.set_attr("physics_dx_km", AttrValue::F64(self.fields.dx_km));
        let hpa_per_eta_m = self.cfg.vortex.hpa_per_eta_m;
        head.set_attr("hpa_per_eta_m", AttrValue::F64(hpa_per_eta_m));
        head.set_attr(
            "domain_lonlat",
            AttrValue::F64List(vec![
                self.cfg.geom.lon_west,
                self.cfg.geom.lat_south,
                self.cfg.geom.lon_west + self.cfg.geom.lon_span,
                self.cfg.geom.lat_south + self.cfg.geom.lat_span,
            ]),
        );
        let y = head
            .add_dim("south_north", self.fields.ny())
            .expect("fresh dataset");
        let x = head
            .add_dim("west_east", self.fields.nx())
            .expect("fresh dataset");
        let mut vars = Vec::with_capacity(11);
        // The four prognostic fields narrowed, then diagnosed pressure.
        let prognostic = |vars: &mut Vec<Var<'a>>, prefix: &str, dims, f: &'a Fields| {
            let eta = f.eta.data();
            let sources = [
                ("eta", Source::Narrow(eta)),
                ("u", Source::Narrow(f.u.data())),
                ("v", Source::Narrow(f.v.data())),
                ("qvapor", Source::Narrow(f.q.data())),
                ("pressure", Source::Pressure { eta, hpa_per_eta_m }),
            ];
            vars.extend(sources.map(|(name, source)| Var {
                name: format!("{prefix}{name}"),
                dims,
                source,
            }));
        };
        prognostic(&mut vars, "", [y, x], &self.fields);
        vars.push(Var {
            name: "landmask".into(),
            dims: [y, x],
            source: Source::LandMask {
                fields: &self.fields,
                geom: &self.cfg.geom,
            },
        });
        if let Some(nest) = &self.nest {
            let ny = head
                .add_dim("nest_south_north", nest.fields.ny())
                .expect("fresh dim");
            let nx = head
                .add_dim("nest_west_east", nest.fields.nx())
                .expect("fresh dim");
            head.set_attr(
                "nest_origin_km",
                AttrValue::F64List(vec![nest.fields.origin_x_km, nest.fields.origin_y_km]),
            );
            head.set_attr("nest_dx_km", AttrValue::F64(nest.fields.dx_km));
            prognostic(&mut vars, "nest_", [ny, nx], &nest.fields);
        }
        Record { head, vars }
    }

    // -- checkpoint plumbing (serialization lives in `checkpoint.rs`) -----

    pub(crate) fn parts(&self) -> (&ModelConfig, &Fields, Option<&Nest>, &VortexState, f64, u64) {
        (
            &self.cfg,
            &self.fields,
            self.nest.as_ref(),
            &self.vortex,
            self.sim_secs,
            self.steps_taken,
        )
    }

    pub(crate) fn from_parts(
        cfg: ModelConfig,
        fields: Fields,
        nest: Option<Nest>,
        vortex: VortexState,
        sim_secs: f64,
        steps_taken: u64,
    ) -> Result<Self, ModelError> {
        cfg.validate()?;
        // A checksum vouches for a checkpoint's bytes, not for their sense:
        // grids of the right element count but another shape (dimension
        // lengths exchanged) must not become a model whose fields disagree
        // with its own configuration.
        let expect_shape = |what: &str, f: &Fields, (nx, ny): (usize, usize)| {
            if (f.nx(), f.ny()) == (nx, ny) {
                return Ok(());
            }
            Err(ModelError::BadCheckpoint(format!(
                "{what} grid is {}x{}, its configuration spans {nx}x{ny}",
                f.nx(),
                f.ny()
            )))
        };
        expect_shape("parent", &fields, cfg.physics_grid())?;
        if let Some(n) = &nest {
            let window = Nest::window_grid(fields.dx_km, &n.config());
            expect_shape("nest", &n.fields, window)?;
        }
        Ok(WrfModel {
            cfg,
            fields,
            nest,
            vortex,
            sim_secs,
            steps_taken,
            runtime: Runtime::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ModelConfig {
        // Heavy decimation: tiny physics grid, instant tests.
        ModelConfig::aila_default().with_decimation(8)
    }

    #[test]
    fn cold_start_has_weak_depression() {
        let m = WrfModel::new(fast_cfg()).unwrap();
        let p = m.min_pressure_hpa();
        assert!((1004.0..1010.0).contains(&p), "initial pressure {p}");
        assert_eq!(m.sim_secs(), 0.0);
        assert!(!m.has_nest());
    }

    #[test]
    fn dt_follows_wrf_rule() {
        let m = WrfModel::new(fast_cfg()).unwrap();
        assert_eq!(m.dt_secs(), 144.0); // 6 s/km × 24 km
    }

    #[test]
    fn advances_and_deepens() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        let p0 = m.min_pressure_hpa();
        m.advance_to_minutes(12.0 * 60.0, 1).unwrap(); // 12 simulated hours
        assert!(m.sim_minutes() >= 12.0 * 60.0);
        let p1 = m.min_pressure_hpa();
        assert!(p1 < p0, "cyclone deepened: {p0} → {p1}");
        assert!(m.steps_taken() > 0);
    }

    #[test]
    fn nest_lifecycle() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        m.advance_steps(5, 1).unwrap();
        m.spawn_nest();
        assert!(m.has_nest());
        m.spawn_nest(); // idempotent
        let before = m.min_pressure_hpa();
        m.advance_steps(5, 2).unwrap();
        assert!(m.min_pressure_hpa() <= before + 1.0);
        m.despawn_nest();
        assert!(!m.has_nest());
    }

    #[test]
    fn resolution_change_preserves_state_roughly() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        m.advance_to_minutes(6.0 * 60.0, 1).unwrap();
        let p_before = m.min_pressure_hpa();
        let t_before = m.sim_minutes();
        m.set_resolution(18.0).unwrap();
        assert_eq!(m.config().resolution_km, 18.0);
        assert_eq!(
            m.sim_minutes(),
            t_before,
            "resolution change is not time travel"
        );
        let p_after = m.min_pressure_hpa();
        assert!(
            (p_before - p_after).abs() < 2.0,
            "pressure continuity across regrid: {p_before} vs {p_after}"
        );
        assert_eq!(m.dt_secs(), 108.0);
        // Finer grid has more points.
        let (nx, _) = m.config().physics_grid();
        assert!(
            nx > ModelConfig::aila_default()
                .with_decimation(8)
                .physics_grid()
                .0
        );
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(matches!(
            WrfModel::new(ModelConfig::aila_default().with_resolution(-1.0)),
            Err(ModelError::BadResolution(_))
        ));
        assert!(matches!(
            WrfModel::new(ModelConfig::aila_default().with_decimation(0)),
            Err(ModelError::BadDecimation(0))
        ));
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        assert!(m.set_resolution(f64::NAN).is_err());
    }

    #[test]
    fn frame_contains_expected_variables() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        m.advance_steps(3, 1).unwrap();
        let ds = m.frame();
        for name in ["eta", "u", "v", "pressure", "landmask"] {
            assert!(ds.var(name).is_some(), "missing variable {name}");
        }
        assert!(ds.var("nest_eta").is_none());
        let t = ds.attr("sim_minutes").unwrap().as_f64().unwrap();
        assert!((t - m.sim_minutes()).abs() < 1e-9);

        m.spawn_nest();
        let ds = m.frame();
        assert!(ds.var("nest_eta").is_some());
        assert!(ds.var("nest_pressure").is_some());
        // Frames round-trip through the wire format.
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert_eq!(back.var("pressure").unwrap().shape(&back), {
            let (nx, ny) = m.config().physics_grid();
            vec![ny, nx]
        });
    }

    #[test]
    fn frame_pressure_and_landmask_equal_the_per_cell_diagnostics() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        m.advance_steps(3, 1).unwrap();
        m.spawn_nest();
        m.advance_steps(2, 1).unwrap();
        let ds = m.frame();
        let hpa = m.config().vortex.hpa_per_eta_m;
        let check = |var: &str, f: &Fields| {
            let got = ds.var(var).unwrap().data.as_f32().unwrap();
            assert_eq!(got.len(), f.nx() * f.ny());
            for j in 0..f.ny() {
                for i in 0..f.nx() {
                    let want = f.pressure_at(i, j, hpa) as f32;
                    assert_eq!(got[j * f.nx() + i].to_bits(), want.to_bits());
                }
            }
        };
        check("pressure", m.fields());
        check("nest_pressure", &m.nest().unwrap().fields);
        let f = m.fields();
        let land = ds.var("landmask").unwrap().data.as_u8().unwrap();
        for j in 0..f.ny() {
            for i in 0..f.nx() {
                let want = m.config().geom.is_land_km(f.x_km(i), f.y_km(j));
                assert_eq!(land[j * f.nx() + i], u8::from(want), "cell ({i}, {j})");
            }
        }
        assert!(land.contains(&0) && land.contains(&1));
    }

    #[test]
    fn moisture_tracer_behaves_physically() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        m.advance_to_minutes(6.0 * 60.0, 1).unwrap();
        let f = m.fields();
        let geom = m.config().geom;
        // Sample a deep-sea point and a deep-land point.
        let mut sea = None;
        let mut land = None;
        for j in 0..f.ny() {
            for i in 0..f.nx() {
                let (lon, lat) = geom.km_to_lonlat(f.x_km(i), f.y_km(j));
                if sea.is_none() && (lon - 90.0).abs() < 2.0 && (lat - 5.0).abs() < 2.0 {
                    sea = Some(f.q.at(i, j));
                }
                if land.is_none() && (lon - 75.0).abs() < 2.0 && (lat - 25.0).abs() < 2.0 {
                    land = Some(f.q.at(i, j));
                }
            }
        }
        let (sea, land) = (sea.expect("sea point"), land.expect("land point"));
        assert!(sea > land, "maritime air moister: sea {sea} vs land {land}");
        // Tracer bounded by its sources.
        let phys = m.config().phys;
        for &q in f.q.data() {
            assert!(
                q >= phys.q_land * 0.5 && q <= (phys.q_sea + phys.q_vortex_boost) * 1.5,
                "tracer escaped its source range: {q}"
            );
        }
        // The frame carries it.
        let ds = m.frame();
        assert!(ds.var("qvapor").is_some());
    }

    #[test]
    fn eye_tracks_north_over_a_day() {
        let mut m = WrfModel::new(fast_cfg()).unwrap();
        let (_, lat0) = m.eye_lonlat();
        m.advance_to_minutes(24.0 * 60.0, 1).unwrap();
        let (_, lat1) = m.eye_lonlat();
        assert!(lat1 > lat0 + 1.0, "eye moved north: {lat0} → {lat1}");
    }

    #[test]
    fn threads_do_not_change_the_trajectory() {
        let run = |threads: usize| {
            let mut m = WrfModel::new(fast_cfg()).unwrap();
            m.advance_steps(20, threads).unwrap();
            m
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a, b, "thread count must not alter results");
    }
}
