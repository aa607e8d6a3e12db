//! Prognostic fields of one domain (parent or nest) and their diagnostics.

use crate::grid::Grid2;
use crate::vortex::BASE_PRESSURE_HPA;
use serde::{Deserialize, Serialize};

/// The shallow-water prognostic state on one grid: height perturbation
/// `eta` (m) and horizontal wind `(u, v)` (m/s), plus the grid spacing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fields {
    /// Grid spacing, km.
    pub dx_km: f64,
    /// Height-field perturbation, metres.
    pub eta: Grid2,
    /// Eastward wind, m/s.
    pub u: Grid2,
    /// Northward wind, m/s.
    pub v: Grid2,
    /// Column water-vapour mixing ratio, kg/kg (advected tracer with
    /// evaporation over sea and drying over land — the `QVAPOR` of a real
    /// WRF history).
    pub q: Grid2,
    /// Kilometre offset of this grid's (0,0) point from the parent
    /// domain's south-west corner (zero for the parent itself).
    pub origin_x_km: f64,
    /// Kilometre offset, northward component.
    pub origin_y_km: f64,
}

impl Fields {
    /// New zero state.
    pub fn zeros(nx: usize, ny: usize, dx_km: f64) -> Self {
        assert!(dx_km > 0.0, "grid spacing must be positive");
        Fields {
            dx_km,
            eta: Grid2::zeros(nx, ny),
            u: Grid2::zeros(nx, ny),
            v: Grid2::zeros(nx, ny),
            q: Grid2::zeros(nx, ny),
            origin_x_km: 0.0,
            origin_y_km: 0.0,
        }
    }

    /// Points west–east.
    pub fn nx(&self) -> usize {
        self.eta.nx()
    }

    /// Points south–north.
    pub fn ny(&self) -> usize {
        self.eta.ny()
    }

    /// Parent-frame kilometre x-coordinate of column `i`.
    #[inline]
    pub fn x_km(&self, i: usize) -> f64 {
        self.origin_x_km + i as f64 * self.dx_km
    }

    /// Parent-frame kilometre y-coordinate of row `j`.
    #[inline]
    pub fn y_km(&self, j: usize) -> f64 {
        self.origin_y_km + j as f64 * self.dx_km
    }

    /// Diagnosed surface pressure at `(i, j)`, hPa (linear in `eta`).
    #[inline]
    pub fn pressure_at(&self, i: usize, j: usize, hpa_per_eta_m: f64) -> f64 {
        BASE_PRESSURE_HPA + hpa_per_eta_m * self.eta.at(i, j)
    }

    /// Minimum diagnosed pressure and its parent-frame km location.
    pub fn min_pressure(&self, hpa_per_eta_m: f64) -> (f64, f64, f64) {
        let (eta_min, i, j) = self.eta.min_with_pos();
        (
            BASE_PRESSURE_HPA + hpa_per_eta_m * eta_min,
            self.x_km(i),
            self.y_km(j),
        )
    }

    /// Maximum wind speed over the grid, m/s.
    pub fn max_wind(&self) -> f64 {
        let mut max = 0.0f64;
        for (u, v) in self.u.data().iter().zip(self.v.data()) {
            max = max.max((u * u + v * v).sqrt());
        }
        max
    }

    /// Resample onto a grid of new extents spanning the same physical
    /// region (resolution change).
    pub fn resample(&self, nx: usize, ny: usize, dx_km: f64) -> Fields {
        Fields {
            dx_km,
            eta: self.eta.resample(nx, ny),
            u: self.u.resample(nx, ny),
            v: self.v.resample(nx, ny),
            q: self.q.resample(nx, ny),
            origin_x_km: self.origin_x_km,
            origin_y_km: self.origin_y_km,
        }
    }

    /// Adopt the grid extents, spacing, and origin of `other` in place,
    /// reusing existing allocations when possible. Cell values are
    /// unspecified afterwards — this is the scratch-buffer half of the
    /// integrator's double-buffering, and every kernel writes every cell.
    pub fn shape_like(&mut self, other: &Fields) {
        let (nx, ny) = (other.nx(), other.ny());
        if self.nx() != nx || self.ny() != ny {
            self.eta.reshape(nx, ny);
            self.u.reshape(nx, ny);
            self.v.reshape(nx, ny);
            self.q.reshape(nx, ny);
        }
        self.dx_km = other.dx_km;
        self.origin_x_km = other.origin_x_km;
        self.origin_y_km = other.origin_y_km;
    }

    /// True when every value in every field is finite — the integrator's
    /// blow-up detector (now used at checkpoints and on ingest; the
    /// per-step hot path relies on the kernels' finite probes instead).
    pub fn all_finite(&self) -> bool {
        self.eta.data().iter().all(|v| v.is_finite())
            && self.u.data().iter().all(|v| v.is_finite())
            && self.v.data().iter().all(|v| v.is_finite())
            && self.q.data().iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_account_for_origin() {
        let mut f = Fields::zeros(4, 4, 10.0);
        f.origin_x_km = 100.0;
        f.origin_y_km = 200.0;
        assert_eq!(f.x_km(0), 100.0);
        assert_eq!(f.x_km(3), 130.0);
        assert_eq!(f.y_km(2), 220.0);
    }

    #[test]
    fn pressure_diagnostic_is_linear_in_eta() {
        let mut f = Fields::zeros(3, 3, 10.0);
        f.eta.set(1, 1, -2.0);
        assert_eq!(f.pressure_at(1, 1, 10.0), BASE_PRESSURE_HPA - 20.0);
        assert_eq!(f.pressure_at(0, 0, 10.0), BASE_PRESSURE_HPA);
        let (p, x, y) = f.min_pressure(10.0);
        assert_eq!(p, BASE_PRESSURE_HPA - 20.0);
        assert_eq!((x, y), (10.0, 10.0));
    }

    #[test]
    fn max_wind_is_speed_not_component() {
        let mut f = Fields::zeros(2, 2, 1.0);
        f.u.set(0, 0, 3.0);
        f.v.set(0, 0, 4.0);
        assert!((f.max_wind() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn resample_changes_extent_keeps_origin() {
        let mut f = Fields::zeros(5, 5, 20.0);
        f.origin_x_km = 50.0;
        f.eta.set(2, 2, 1.0);
        let r = f.resample(9, 9, 10.0);
        assert_eq!(r.nx(), 9);
        assert_eq!(r.dx_km, 10.0);
        assert_eq!(r.origin_x_km, 50.0);
        // Centre value survives resampling.
        assert!((r.eta.at(4, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finiteness_detector() {
        let mut f = Fields::zeros(2, 2, 1.0);
        assert!(f.all_finite());
        f.v.set(1, 1, f64::NAN);
        assert!(!f.all_finite());
    }
}
