//! Two-way moving nest at a 1:3 refinement ratio.
//!
//! WRF nests place a finer grid over the region of interest inside the
//! parent domain; the paper spawns one dynamically when the surface
//! pressure first drops below 995 hPa, centres it on the eye, and moves it
//! along the track. The nest here mirrors that: a window of the parent
//! domain at `ratio`× finer spacing, initialized by bilinear interpolation,
//! advanced with `ratio` substeps per parent step, fed back into the
//! parent (two-way), and re-centred when the eye drifts.

use crate::fields::Fields;
use crate::grid::Grid2;
use crate::pool::WorkerPool;
use crate::solver::PhysicsParams;
use crate::vortex::{VortexParams, VortexState};
use serde::{Deserialize, Serialize};

/// Static nest configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NestConfig {
    /// Refinement ratio (the paper's nesting ratio 1:3).
    pub ratio: usize,
    /// Window extent west–east, km.
    pub width_km: f64,
    /// Window extent south–north, km.
    pub height_km: f64,
    /// Re-centre the window once the eye drifts this far from its centre.
    pub recenter_km: f64,
}

impl NestConfig {
    /// The paper's nest: 1:3 ratio; window sized so the minimum nest grid
    /// is ~100×127 points at the coarsest parent resolution (24 km parent
    /// → 8 km nest → 800×1016 km window).
    pub fn aila() -> Self {
        NestConfig {
            ratio: 3,
            width_km: 800.0,
            height_km: 1016.0,
            recenter_km: 120.0,
        }
    }
}

/// A live nest: finer fields over a window of the parent domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nest {
    /// Nest prognostic fields (origin set to the window's SW corner).
    pub fields: Fields,
    cfg: NestConfig,
}

impl Nest {
    /// Reassemble a nest from already-built fields (checkpoint restore).
    pub(crate) fn from_fields(fields: Fields, cfg: NestConfig) -> Nest {
        Nest { fields, cfg }
    }

    /// Spawn a nest centred as close to `(cx_km, cy_km)` as the parent
    /// domain allows, initialized by interpolation from the parent.
    pub fn spawn(parent: &Fields, cfg: NestConfig, cx_km: f64, cy_km: f64) -> Nest {
        let dx = parent.dx_km / cfg.ratio as f64;
        let (nx, ny) = Self::window_grid(parent.dx_km, &cfg);
        let (ox, oy) = clamp_origin(parent, &cfg, cx_km, cy_km);
        let mut fields = Fields::zeros(nx, ny, dx);
        fields.origin_x_km = ox;
        fields.origin_y_km = oy;
        fill_from_parent(&mut fields, parent);
        Nest { fields, cfg }
    }

    /// Grid extent `(nx, ny)` of the window `cfg` describes under a parent
    /// of spacing `parent_dx_km` — what every spawned or rebuilt nest has,
    /// and what a checkpointed one is held to.
    pub(crate) fn window_grid(parent_dx_km: f64, cfg: &NestConfig) -> (usize, usize) {
        let dx = parent_dx_km / cfg.ratio as f64;
        let nx = (cfg.width_km / dx).round() as usize + 1;
        let ny = (cfg.height_km / dx).round() as usize + 1;
        (nx.max(4), ny.max(4))
    }

    /// Window centre in parent-frame km.
    pub fn center_km(&self) -> (f64, f64) {
        (
            self.fields.origin_x_km + (self.fields.nx() - 1) as f64 * self.fields.dx_km / 2.0,
            self.fields.origin_y_km + (self.fields.ny() - 1) as f64 * self.fields.dx_km / 2.0,
        )
    }

    /// Refinement ratio.
    pub fn ratio(&self) -> usize {
        self.cfg.ratio
    }

    /// Configuration this nest was spawned with.
    pub fn config(&self) -> NestConfig {
        self.cfg
    }

    /// Advance the nest by one *parent* step: `ratio` substeps at the
    /// finer time step, on the shared rank team, double-buffered through
    /// `scratch`. Returns the accumulated finite probe of the substeps.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_parent_step(
        &mut self,
        vortex: &mut VortexState,
        phys: &PhysicsParams,
        vparams: &VortexParams,
        geom: &crate::geom::DomainGeom,
        parent_dt_secs: f64,
        pool: &mut WorkerPool,
        scratch: &mut Fields,
    ) -> f64 {
        let sub_dt = parent_dt_secs / self.cfg.ratio as f64;
        let mut probe = 0.0;
        for _ in 0..self.cfg.ratio {
            probe += pool.step(&self.fields, vortex, phys, vparams, geom, sub_dt, scratch);
            std::mem::swap(&mut self.fields, scratch);
            vortex.advance(sub_dt, vparams, geom);
        }
        probe
    }

    /// Two-way feedback: overwrite parent points covered by the nest
    /// interior with the nest's (finer) solution.
    pub fn feedback(&self, parent: &mut Fields) {
        let margin = parent.dx_km; // keep a one-cell rim so parent BCs stay parent's
        let x0 = self.fields.origin_x_km + margin;
        let x1 = self.fields.x_km(self.fields.nx() - 1) - margin;
        let y0 = self.fields.origin_y_km + margin;
        let y1 = self.fields.y_km(self.fields.ny() - 1) - margin;
        for j in 0..parent.ny() {
            let py = parent.y_km(j);
            if !(y0..=y1).contains(&py) {
                continue;
            }
            for i in 0..parent.nx() {
                let px = parent.x_km(i);
                if !(x0..=x1).contains(&px) {
                    continue;
                }
                let gx = (px - self.fields.origin_x_km) / self.fields.dx_km;
                let gy = (py - self.fields.origin_y_km) / self.fields.dx_km;
                parent.eta.set(i, j, self.fields.eta.sample(gx, gy));
                parent.u.set(i, j, self.fields.u.sample(gx, gy));
                parent.v.set(i, j, self.fields.v.sample(gx, gy));
                parent.q.set(i, j, self.fields.q.sample(gx, gy));
            }
        }
    }

    /// Move the window to track the eye when it has drifted beyond the
    /// configured threshold. Returns true when a re-centre happened.
    pub fn maybe_recenter(&mut self, parent: &Fields, eye_x_km: f64, eye_y_km: f64) -> bool {
        let (cx, cy) = self.center_km();
        let drift = ((eye_x_km - cx).powi(2) + (eye_y_km - cy).powi(2)).sqrt();
        if drift <= self.cfg.recenter_km {
            return false;
        }
        let (ox, oy) = clamp_origin(parent, &self.cfg, eye_x_km, eye_y_km);
        let old = self.fields.clone();
        self.fields.origin_x_km = ox;
        self.fields.origin_y_km = oy;
        // Re-fill: keep the old nest solution where the windows overlap,
        // take the parent solution for newly covered ground.
        refill_after_move(&mut self.fields, &old, parent);
        true
    }

    /// Rebuild the nest at a new parent resolution (parent was resampled).
    pub fn rebuild_for_parent(&self, parent: &Fields) -> Nest {
        let (cx, cy) = self.center_km();
        let mut n = Nest::spawn(parent, self.cfg, cx, cy);
        // Preserve the old fine-scale solution over the overlap.
        refill_after_move(&mut n.fields, &self.fields, parent);
        n
    }
}

/// SW-corner origin of a window centred at `(cx, cy)`, clamped inside the
/// parent domain.
fn clamp_origin(parent: &Fields, cfg: &NestConfig, cx: f64, cy: f64) -> (f64, f64) {
    let pw = (parent.nx() - 1) as f64 * parent.dx_km;
    let ph = (parent.ny() - 1) as f64 * parent.dx_km;
    let w = cfg.width_km.min(pw);
    let h = cfg.height_km.min(ph);
    (
        (cx - w / 2.0).clamp(0.0, pw - w),
        (cy - h / 2.0).clamp(0.0, ph - h),
    )
}

/// Initialize every nest point from the parent by bilinear interpolation.
fn fill_from_parent(nest: &mut Fields, parent: &Fields) {
    let sample = |grid: &Grid2, x_km: f64, y_km: f64| {
        grid.sample(
            (x_km - parent.origin_x_km) / parent.dx_km,
            (y_km - parent.origin_y_km) / parent.dx_km,
        )
    };
    for j in 0..nest.ny() {
        for i in 0..nest.nx() {
            let (x, y) = (nest.x_km(i), nest.y_km(j));
            nest.eta.set(i, j, sample(&parent.eta, x, y));
            nest.u.set(i, j, sample(&parent.u, x, y));
            nest.v.set(i, j, sample(&parent.v, x, y));
            nest.q.set(i, j, sample(&parent.q, x, y));
        }
    }
}

/// Fill a moved/rebuilt window: old-nest solution where it overlaps,
/// parent elsewhere.
fn refill_after_move(nest: &mut Fields, old: &Fields, parent: &Fields) {
    let old_x1 = old.x_km(old.nx() - 1);
    let old_y1 = old.y_km(old.ny() - 1);
    for j in 0..nest.ny() {
        for i in 0..nest.nx() {
            let (x, y) = (nest.x_km(i), nest.y_km(j));
            let (src, sx, sy) = if (old.origin_x_km..=old_x1).contains(&x)
                && (old.origin_y_km..=old_y1).contains(&y)
            {
                (
                    old,
                    (x - old.origin_x_km) / old.dx_km,
                    (y - old.origin_y_km) / old.dx_km,
                )
            } else {
                (
                    parent,
                    (x - parent.origin_x_km) / parent.dx_km,
                    (y - parent.origin_y_km) / parent.dx_km,
                )
            };
            nest.eta.set(i, j, src.eta.sample(sx, sy));
            nest.u.set(i, j, src.u.sample(sx, sy));
            nest.v.set(i, j, src.v.sample(sx, sy));
            nest.q.set(i, j, src.q.sample(sx, sy));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DomainGeom;

    fn parent_with_bump() -> (Fields, VortexState, PhysicsParams, VortexParams, DomainGeom) {
        let geom = DomainGeom::bay_of_bengal();
        let phys = PhysicsParams::bay_of_bengal();
        let vparams = VortexParams::aila();
        let vortex = VortexState::genesis(&vparams, &geom);
        let mut parent = Fields::zeros(34, 28, 200.0);
        for j in 0..parent.ny() {
            for i in 0..parent.nx() {
                let (x, y) = (parent.x_km(i), parent.y_km(j));
                parent.eta.set(i, j, vortex.target_eta(x, y, &vparams));
                let (u, v) = vortex.target_uv(x, y, &vparams);
                parent.u.set(i, j, u);
                parent.v.set(i, j, v);
            }
        }
        (parent, vortex, phys, vparams, geom)
    }

    #[test]
    fn spawn_centres_on_eye_and_interpolates() {
        let (parent, vortex, _, vparams, _) = parent_with_bump();
        let nest = Nest::spawn(&parent, NestConfig::aila(), vortex.x_km, vortex.y_km);
        assert_eq!(nest.fields.dx_km, parent.dx_km / 3.0);
        let (cx, cy) = nest.center_km();
        assert!((cx - vortex.x_km).abs() < parent.dx_km);
        assert!((cy - vortex.y_km).abs() < parent.dx_km);
        // Interpolated minimum is near the analytic minimum at the eye.
        let (p_min, px, py) = nest.fields.min_pressure(vparams.hpa_per_eta_m);
        let analytic = crate::vortex::BASE_PRESSURE_HPA
            + vparams.hpa_per_eta_m * vortex.target_eta(vortex.x_km, vortex.y_km, &vparams);
        assert!(
            (p_min - analytic).abs() < 1.0,
            "p_min {p_min} vs {analytic}"
        );
        let d = ((px - vortex.x_km).powi(2) + (py - vortex.y_km).powi(2)).sqrt();
        assert!(d < 2.0 * parent.dx_km);
    }

    #[test]
    fn spawn_clamps_to_domain_edge() {
        let (parent, _, _, _, _) = parent_with_bump();
        let nest = Nest::spawn(&parent, NestConfig::aila(), 0.0, 0.0);
        assert_eq!(nest.fields.origin_x_km, 0.0);
        assert_eq!(nest.fields.origin_y_km, 0.0);
        let far_x = parent.x_km(parent.nx() - 1) + 500.0;
        let nest = Nest::spawn(&parent, NestConfig::aila(), far_x, 0.0);
        let nest_x1 = nest.fields.x_km(nest.fields.nx() - 1);
        assert!(nest_x1 <= parent.x_km(parent.nx() - 1) + 1e-9);
    }

    #[test]
    fn substeps_advance_vortex_by_parent_dt() {
        let (parent, mut vortex, phys, vparams, geom) = parent_with_bump();
        let mut nest = Nest::spawn(&parent, NestConfig::aila(), vortex.x_km, vortex.y_km);
        let x0 = vortex.x_km;
        let dt = 6.0 * parent.dx_km;
        let mut pool = WorkerPool::new(1);
        let mut scratch = Fields::zeros(1, 1, 1.0);
        let probe = nest.advance_parent_step(
            &mut vortex,
            &phys,
            &vparams,
            &geom,
            dt,
            &mut pool,
            &mut scratch,
        );
        let moved_km = vortex.x_km - x0;
        let expect = vparams.steer_east_ms * dt / 1000.0;
        assert!((moved_km - expect).abs() < 1e-9);
        assert!(probe.is_finite());
        assert!(nest.fields.all_finite());
    }

    #[test]
    fn feedback_imprints_nest_onto_parent() {
        let (mut parent, vortex, _, _, _) = parent_with_bump();
        let mut nest = Nest::spawn(&parent, NestConfig::aila(), vortex.x_km, vortex.y_km);
        // Perturb the nest solution, then feed back.
        nest.fields.eta.fill(-9.0);
        nest.feedback(&mut parent);
        // A parent point well inside the window took the nest value.
        let (cx, cy) = nest.center_km();
        let i = ((cx - parent.origin_x_km) / parent.dx_km).round() as usize;
        let j = ((cy - parent.origin_y_km) / parent.dx_km).round() as usize;
        assert!((parent.eta.at(i, j) + 9.0).abs() < 1e-9);
        // A corner far outside the window did not.
        assert!((parent.eta.at(0, 0) + 9.0).abs() > 1.0);
    }

    #[test]
    fn recenter_follows_the_eye() {
        let (parent, vortex, _, _, _) = parent_with_bump();
        let mut nest = Nest::spawn(&parent, NestConfig::aila(), vortex.x_km, vortex.y_km);
        assert!(!nest.maybe_recenter(&parent, vortex.x_km + 10.0, vortex.y_km));
        let (cx0, cy0) = nest.center_km();
        assert!(nest.maybe_recenter(&parent, vortex.x_km + 400.0, vortex.y_km + 300.0));
        let (cx1, cy1) = nest.center_km();
        assert!(cx1 > cx0 && cy1 > cy0);
        assert!(nest.fields.all_finite());
    }

    #[test]
    fn rebuild_preserves_window_after_resolution_change() {
        let (parent, vortex, _, _, _) = parent_with_bump();
        let nest = Nest::spawn(&parent, NestConfig::aila(), vortex.x_km, vortex.y_km);
        // Parent refined 2×.
        let fine_parent =
            parent.resample(parent.nx() * 2 - 1, parent.ny() * 2 - 1, parent.dx_km / 2.0);
        let rebuilt = nest.rebuild_for_parent(&fine_parent);
        assert_eq!(rebuilt.fields.dx_km, fine_parent.dx_km / 3.0);
        let (cx0, cy0) = nest.center_km();
        let (cx1, cy1) = rebuilt.center_km();
        assert!((cx0 - cx1).abs() < parent.dx_km && (cy0 - cy1).abs() < parent.dx_km);
    }
}
