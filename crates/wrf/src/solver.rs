//! The shallow-water integrator: forward–backward time stepping.
//!
//! Per step, two passes:
//!
//! 1. **continuity + tracer (fused)** — `η' = η + dt·(−H ∇·(u,v) + ν∇²η +
//!    nudge − damp)` and the upwind moisture update, row by row. Both read
//!    only the previous state, so fusing them halves the number of
//!    synchronization points and sweeps over the input stencil once while
//!    the rows are hot in cache.
//! 2. **momentum** — `(u,v)' from the *new* η` (forward–backward coupling,
//!    which is stable for linear gravity waves up to CFL ≈ 1), with
//!    Coriolis on a beta plane, Rayleigh damping, diffusion, and nudging
//!    toward the analytic vortex.
//!
//! Each pass writes a fresh output array from read-only inputs, so a pass
//! parallelizes over row bands with no synchronization beyond the barrier
//! between passes — exactly the halo-exchange structure of the MPI
//! decomposition it stands in for (see [`crate::par`] and [`crate::pool`]).
//!
//! Every kernel returns a **finite probe**: the sum of all values it wrote.
//! IEEE-754 guarantees the sum is non-finite if any addend is (`inf + x`
//! stays `inf` or becomes `NaN`, and `NaN` propagates), so the caller can
//! detect numerical blow-up without a separate full-grid `all_finite()`
//! sweep per step. Physical magnitudes here are ≤ 1e2 and grids are ≤ 1e6
//! points, so the sum cannot overflow to `inf` on healthy data.

use crate::fields::Fields;
use crate::geom::DomainGeom;
use crate::simd::{exp4, F64x4};
use crate::vortex::{VortexParams, VortexState};
use serde::{Deserialize, Serialize};

/// Physical and numerical parameters of the integrator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhysicsParams {
    /// Gravitational acceleration, m/s².
    pub gravity: f64,
    /// Equivalent mean depth of the shallow-water layer, m (sets the
    /// gravity-wave speed √(gH); 500 m → 70 m/s, comfortably inside the
    /// CFL bound for WRF's 6 s/km time-step rule).
    pub mean_depth_m: f64,
    /// Coriolis parameter at the domain reference latitude, 1/s.
    pub coriolis_f0: f64,
    /// Beta-plane gradient df/dy, 1/(m·s).
    pub beta: f64,
    /// Rayleigh damping rate, 1/s.
    pub rayleigh: f64,
    /// Diffusion strength as a Courant-like number: ν = c·dx²/dt.
    pub diffusion_courant: f64,
    /// Nudging relaxation time toward the analytic vortex, seconds.
    pub nudge_tau_secs: f64,
    /// Domain-centre y coordinate, km (beta-plane origin).
    pub y_center_km: f64,
    /// Background water-vapour mixing ratio over land, kg/kg.
    pub q_land: f64,
    /// Background water-vapour mixing ratio over sea, kg/kg.
    pub q_sea: f64,
    /// Extra moisture loading in the vortex core, kg/kg.
    pub q_vortex_boost: f64,
    /// Relaxation time of the moisture source/sink, seconds.
    pub q_tau_secs: f64,
}

impl PhysicsParams {
    /// Defaults for the Bay-of-Bengal domain (reference latitude 15°N).
    pub fn bay_of_bengal() -> Self {
        let omega = 7.292e-5;
        let lat_ref = 15.0f64.to_radians();
        PhysicsParams {
            gravity: 9.81,
            mean_depth_m: 500.0,
            coriolis_f0: 2.0 * omega * lat_ref.sin(),
            beta: 2.0 * omega * lat_ref.cos() / 6.371e6,
            rayleigh: 1.0 / (12.0 * 3600.0),
            diffusion_courant: 0.02,
            // 30 minutes: strong enough that residual imbalance between
            // the analytic wind and height targets cannot drift the
            // diagnosed central pressure away from the calibrated
            // lifecycle, weak enough that the PDE dynamics still shape the
            // fields between targets.
            nudge_tau_secs: 1800.0,
            y_center_km: 2780.0,
            q_land: 0.008,
            q_sea: 0.016,
            q_vortex_boost: 0.006,
            q_tau_secs: 6.0 * 3600.0,
        }
    }

    /// Gravity-wave speed √(gH), m/s.
    pub fn wave_speed(&self) -> f64 {
        (self.gravity * self.mean_depth_m).sqrt()
    }

    /// Coriolis parameter at parent-frame `y_km`.
    #[inline]
    pub fn coriolis_at(&self, y_km: f64) -> f64 {
        self.coriolis_f0 + self.beta * (y_km - self.y_center_km) * 1000.0
    }
}

/// Everything one integration step needs, borrowed.
pub(crate) struct StepInputs<'a> {
    pub old: &'a Fields,
    pub vortex: &'a VortexState,
    pub phys: &'a PhysicsParams,
    pub vparams: &'a VortexParams,
    pub geom: &'a DomainGeom,
    pub dt_secs: f64,
}

#[cfg(test)]
impl StepInputs<'_> {
    /// Moisture relaxation target: maritime background over sea, drier
    /// over land, with a moist core following the vortex.
    fn q_target(&self, x_km: f64, y_km: f64) -> f64 {
        let base = if self.geom.is_land_km(x_km, y_km) {
            self.phys.q_land
        } else {
            self.phys.q_sea
        };
        let r2 = (x_km - self.vortex.x_km).powi(2) + (y_km - self.vortex.y_km).powi(2);
        let core = self.phys.q_vortex_boost
            * (self.vortex.depth_hpa / self.vparams.max_depth_hpa)
            * (-r2 / (2.0 * self.vparams.radius_km.powi(2))).exp();
        base + core
    }
}

impl StepInputs<'_> {
    fn dx_m(&self) -> f64 {
        self.old.dx_km * 1000.0
    }

    fn nu(&self) -> f64 {
        self.phys.diffusion_courant * self.dx_m() * self.dx_m() / self.dt_secs
    }
}

/// The scalar kernels (this, [`step_uv_rows`], [`step_serial_into`]) are
/// compiled for tests only: they are the point-at-a-time physical oracle
/// `tests::lanes_and_scalar_agree_physically` holds the lanes kernels to,
/// not an executable path.
///
/// Pass 1 (fused continuity + tracer): write new `eta` and `q` values for
/// rows `j0..j1` into `out_eta`/`out_q`, which must be the row-major slices
/// of those rows (`(j1 − j0) · nx` values each). Returns the finite probe
/// (sum of everything written).
///
/// The eta row is computed before the q row of the same `j`, and each point
/// uses exactly the arithmetic of the historical separate passes, so the
/// fusion is bitwise-neutral.
#[cfg(test)]
pub(crate) fn step_eta_q_rows(
    inp: &StepInputs<'_>,
    j0: usize,
    j1: usize,
    out_eta: &mut [f64],
    out_q: &mut [f64],
) -> f64 {
    let f = inp.old;
    let (nx, ny) = (f.nx(), f.ny());
    debug_assert_eq!(out_eta.len(), (j1 - j0) * nx);
    debug_assert_eq!(out_q.len(), (j1 - j0) * nx);
    let dx = inp.dx_m();
    let dt = inp.dt_secs;
    let h = inp.phys.mean_depth_m;
    let nu = inp.nu();
    let tau = inp.phys.nudge_tau_secs;
    let damp = inp.phys.rayleigh;
    let q_tau = inp.phys.q_tau_secs;
    let mut probe = 0.0;

    for j in j0..j1 {
        let row = &mut out_eta[(j - j0) * nx..(j - j0 + 1) * nx];
        for (i, slot) in row.iter_mut().enumerate() {
            let y = f.y_km(j);
            let x = f.x_km(i);
            let target = inp.vortex.target_eta(x, y, inp.vparams);
            if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                // Analytic boundary: the nudging target is the large-scale
                // state, which is what a limited-area model's boundary
                // forcing provides.
                *slot = target;
                continue;
            }
            let eta = f.eta.at(i, j);
            let div = (f.u.at(i + 1, j) - f.u.at(i - 1, j) + f.v.at(i, j + 1) - f.v.at(i, j - 1))
                / (2.0 * dx);
            let lap =
                (f.eta.at(i + 1, j) + f.eta.at(i - 1, j) + f.eta.at(i, j + 1) + f.eta.at(i, j - 1)
                    - 4.0 * eta)
                    / (dx * dx);
            *slot = eta + dt * (-h * div + nu * lap + (target - eta) / tau - damp * eta);
        }
        probe += row.iter().sum::<f64>();

        let row = &mut out_q[(j - j0) * nx..(j - j0 + 1) * nx];
        for (i, slot) in row.iter_mut().enumerate() {
            let x = f.x_km(i);
            let y = f.y_km(j);
            let target = inp.q_target(x, y);
            if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                *slot = target;
                continue;
            }
            let q = f.q.at(i, j);
            let u = f.u.at(i, j);
            let v = f.v.at(i, j);
            // First-order upwind derivatives (monotone, keeps the tracer
            // free of advective over/undershoots).
            let dqdx = if u >= 0.0 {
                (q - f.q.at(i - 1, j)) / dx
            } else {
                (f.q.at(i + 1, j) - q) / dx
            };
            let dqdy = if v >= 0.0 {
                (q - f.q.at(i, j - 1)) / dx
            } else {
                (f.q.at(i, j + 1) - q) / dx
            };
            let lap = (f.q.at(i + 1, j) + f.q.at(i - 1, j) + f.q.at(i, j + 1) + f.q.at(i, j - 1)
                - 4.0 * q)
                / (dx * dx);
            *slot = q + dt * (-(u * dqdx + v * dqdy) + nu * lap + (target - q) / q_tau);
        }
        probe += row.iter().sum::<f64>();
    }
    probe
}

/// Pass 2: write new `(u, v)` for rows `j0..j1`, reading the *new* eta.
/// Returns the finite probe (sum of everything written).
#[cfg(test)]
pub(crate) fn step_uv_rows(
    inp: &StepInputs<'_>,
    eta_new: &[f64],
    j0: usize,
    j1: usize,
    out_u: &mut [f64],
    out_v: &mut [f64],
) -> f64 {
    let f = inp.old;
    let (nx, ny) = (f.nx(), f.ny());
    debug_assert_eq!(eta_new.len(), nx * ny);
    debug_assert_eq!(out_u.len(), (j1 - j0) * nx);
    debug_assert_eq!(out_v.len(), (j1 - j0) * nx);
    let dx = inp.dx_m();
    let dt = inp.dt_secs;
    let g = inp.phys.gravity;
    let nu = inp.nu();
    let tau = inp.phys.nudge_tau_secs;
    let damp = inp.phys.rayleigh;
    let eta_at = |i: usize, j: usize| eta_new[j * nx + i];
    let mut probe = 0.0;

    for j in j0..j1 {
        let base = (j - j0) * nx;
        for i in 0..nx {
            let x = f.x_km(i);
            let y = f.y_km(j);
            let (tu, tv) = inp.vortex.target_uv(x, y, inp.vparams);
            if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                out_u[base + i] = tu;
                out_v[base + i] = tv;
                continue;
            }
            let u = f.u.at(i, j);
            let v = f.v.at(i, j);
            let detadx = (eta_at(i + 1, j) - eta_at(i - 1, j)) / (2.0 * dx);
            let detady = (eta_at(i, j + 1) - eta_at(i, j - 1)) / (2.0 * dx);
            let lap_u = (f.u.at(i + 1, j) + f.u.at(i - 1, j) + f.u.at(i, j + 1) + f.u.at(i, j - 1)
                - 4.0 * u)
                / (dx * dx);
            let lap_v = (f.v.at(i + 1, j) + f.v.at(i - 1, j) + f.v.at(i, j + 1) + f.v.at(i, j - 1)
                - 4.0 * v)
                / (dx * dx);
            let fcor = inp.phys.coriolis_at(y);
            out_u[base + i] =
                u + dt * (-g * detadx + fcor * v + nu * lap_u + (tu - u) / tau - damp * u);
            out_v[base + i] =
                v + dt * (-g * detady - fcor * u + nu * lap_v + (tv - v) / tau - damp * v);
        }
        let row_u = &out_u[base..base + nx];
        let row_v = &out_v[base..base + nx];
        probe += row_u.iter().sum::<f64>() + row_v.iter().sum::<f64>();
    }
    probe
}

/// Per-rank scratch for the lanes kernels, prepared once per step.
///
/// The expensive per-point work of the scalar kernels is transcendental:
/// the Gaussian nudge targets cost two `exp` per point in pass 1 and a
/// `sqrt` + `exp` per point in pass 2. The eta target and the moisture
/// core share the same radius, and a Gaussian separates —
/// `exp(−(Δx²+Δy²)·s) = exp(−Δx²·s) · exp(−Δy²·s)` — so pass 1 needs only
/// an `nx`-length column table plus one row factor: `nx + ny` libm exps
/// per rank per step instead of `2·nx·ny`. Pass 2's Rankine decay does not
/// separate (it is a function of `r`, not `r²`) and is evaluated four-wide
/// with [`exp4`] instead.
#[derive(Debug, Default, Clone)]
pub(crate) struct LaneScratch {
    /// `x_km(i)` per column.
    xcol: Vec<f64>,
    /// `exp(−(x_i − cx)²/(2·radius²))` per column — the separable half of
    /// both pass-1 Gaussian targets.
    gauss_col: Vec<f64>,
    /// Per-row land/sea moisture background, filled inside pass 1.
    qbase_row: Vec<f64>,
}

impl LaneScratch {
    /// Rebuild the column tables for this step's grid and vortex position.
    pub fn prepare(&mut self, inp: &StepInputs<'_>) {
        let f = inp.old;
        let nx = f.nx();
        self.xcol.clear();
        self.xcol.extend((0..nx).map(|i| f.x_km(i)));
        let inv2s2 = 1.0 / (2.0 * inp.vparams.radius_km * inp.vparams.radius_km);
        let cx = inp.vortex.x_km;
        self.gauss_col.clear();
        for &x in &self.xcol {
            let d = x - cx;
            self.gauss_col.push((-(d * d) * inv2s2).exp());
        }
        self.qbase_row.clear();
        self.qbase_row.resize(nx, 0.0);
    }
}

/// Lanes pass 1 (fused continuity + tracer) for rows `j0..j1`.
///
/// Writes the same rows as [`step_eta_q_rows`] but four columns at a time,
/// and writes each row's finite-probe contribution into `probes[j − j0]`
/// instead of returning a running sum. The per-row probe is computed in a
/// *fixed* order — left boundary value, then the lane accumulator reduced
/// as `(l0+l1)+(l2+l3)` ([`F64x4::reduce`]), then scalar remainder columns
/// in ascending `i`, then the right boundary value; eta's row sum plus q's
/// row sum — so a row's probe depends only on the row's inputs and `nx`,
/// never on how rows were split into bands or tiles.
pub(crate) fn step_eta_q_rows_lanes(
    inp: &StepInputs<'_>,
    scratch: &mut LaneScratch,
    j0: usize,
    j1: usize,
    out_eta: &mut [f64],
    out_q: &mut [f64],
    probes: &mut [f64],
) {
    let f = inp.old;
    let (nx, ny) = (f.nx(), f.ny());
    debug_assert_eq!(out_eta.len(), (j1 - j0) * nx);
    debug_assert_eq!(out_q.len(), (j1 - j0) * nx);
    debug_assert_eq!(probes.len(), j1 - j0);
    debug_assert_eq!(scratch.gauss_col.len(), nx, "prepare() not called");

    let dx = inp.dx_m();
    let dt = inp.dt_secs;
    let h = inp.phys.mean_depth_m;
    let nu = inp.nu();
    let damp = inp.phys.rayleigh;
    // The lanes reference multiplies by reciprocals where the scalar path
    // divides — one of the deliberate low-order-bit differences between
    // the two paths.
    let inv_2dx = 1.0 / (2.0 * dx);
    let inv_dx = 1.0 / dx;
    let inv_dx2 = 1.0 / (dx * dx);
    let inv_tau = 1.0 / inp.phys.nudge_tau_secs;
    let inv_qtau = 1.0 / inp.phys.q_tau_secs;

    let amp = inp.vortex.depth_hpa / inp.vparams.hpa_per_eta_m;
    let boost = inp.phys.q_vortex_boost * (inp.vortex.depth_hpa / inp.vparams.max_depth_hpa);
    let inv2s2 = 1.0 / (2.0 * inp.vparams.radius_km * inp.vparams.radius_km);
    let cy = inp.vortex.y_km;
    let (q_land, q_sea) = (inp.phys.q_land, inp.phys.q_sea);

    let eta = f.eta.data();
    let u = f.u.data();
    let v = f.v.data();
    let q = f.q.data();

    let dt4 = F64x4::splat(dt);
    let neg_h4 = F64x4::splat(-h);
    let nu4 = F64x4::splat(nu);
    let damp4 = F64x4::splat(damp);
    let inv_2dx4 = F64x4::splat(inv_2dx);
    let inv_dx4 = F64x4::splat(inv_dx);
    let inv_dx2_4 = F64x4::splat(inv_dx2);
    let inv_tau4 = F64x4::splat(inv_tau);
    let inv_qtau4 = F64x4::splat(inv_qtau);
    let four4 = F64x4::splat(4.0);
    let neg_amp4 = F64x4::splat(-amp);
    let boost4 = F64x4::splat(boost);

    let LaneScratch {
        xcol,
        gauss_col,
        qbase_row,
    } = scratch;

    for j in j0..j1 {
        let y = f.y_km(j);
        let dyk = y - cy;
        let gy = (-(dyk * dyk) * inv2s2).exp();
        let gy4 = F64x4::splat(gy);
        for (slot, &x) in qbase_row.iter_mut().zip(xcol.iter()) {
            *slot = if inp.geom.is_land_km(x, y) {
                q_land
            } else {
                q_sea
            };
        }
        let base = (j - j0) * nx;
        let row_eta = &mut out_eta[base..base + nx];
        let row_q = &mut out_q[base..base + nx];

        if j == 0 || j == ny - 1 {
            // Boundary rows are pure analytic targets; plain ascending sum.
            for i in 0..nx {
                row_eta[i] = (-amp) * gauss_col[i] * gy;
                row_q[i] = qbase_row[i] + boost * gauss_col[i] * gy;
            }
            probes[j - j0] = row_eta.iter().sum::<f64>() + row_q.iter().sum::<f64>();
            continue;
        }

        let ec = &eta[j * nx..(j + 1) * nx];
        let en = &eta[(j + 1) * nx..(j + 2) * nx];
        let es = &eta[(j - 1) * nx..j * nx];
        let uc = &u[j * nx..(j + 1) * nx];
        let vc = &v[j * nx..(j + 1) * nx];
        let vn = &v[(j + 1) * nx..(j + 2) * nx];
        let vs = &v[(j - 1) * nx..j * nx];
        let qc = &q[j * nx..(j + 1) * nx];
        let qn = &q[(j + 1) * nx..(j + 2) * nx];
        let qs = &q[(j - 1) * nx..j * nx];

        // --- eta row ---
        row_eta[0] = (-amp) * gauss_col[0] * gy;
        let mut p_eta = row_eta[0];
        let mut acc = F64x4::splat(0.0);
        let mut i = 1;
        while i + F64x4::LANES < nx {
            let e = F64x4::load(&ec[i..]);
            let div = ((F64x4::load(&uc[i + 1..]) - F64x4::load(&uc[i - 1..]))
                + (F64x4::load(&vn[i..]) - F64x4::load(&vs[i..])))
                * inv_2dx4;
            let lap = ((F64x4::load(&ec[i + 1..]) + F64x4::load(&ec[i - 1..]))
                + (F64x4::load(&en[i..]) + F64x4::load(&es[i..]))
                - four4 * e)
                * inv_dx2_4;
            let tgt = neg_amp4 * F64x4::load(&gauss_col[i..]) * gy4;
            let val = e + dt4 * (neg_h4 * div + nu4 * lap + (tgt - e) * inv_tau4 - damp4 * e);
            val.store(&mut row_eta[i..]);
            acc = acc + val;
            i += F64x4::LANES;
        }
        p_eta += acc.reduce();
        while i < nx - 1 {
            let e = ec[i];
            let div = ((uc[i + 1] - uc[i - 1]) + (vn[i] - vs[i])) * inv_2dx;
            let lap = ((ec[i + 1] + ec[i - 1]) + (en[i] + es[i]) - 4.0 * e) * inv_dx2;
            let tgt = (-amp) * gauss_col[i] * gy;
            let val = e + dt * ((-h) * div + nu * lap + (tgt - e) * inv_tau - damp * e);
            row_eta[i] = val;
            p_eta += val;
            i += 1;
        }
        row_eta[nx - 1] = (-amp) * gauss_col[nx - 1] * gy;
        p_eta += row_eta[nx - 1];

        // --- q row ---
        row_q[0] = qbase_row[0] + boost * gauss_col[0] * gy;
        let mut p_q = row_q[0];
        let mut acc = F64x4::splat(0.0);
        let mut i = 1;
        while i + F64x4::LANES < nx {
            let qv = F64x4::load(&qc[i..]);
            let ql = F64x4::load(&qc[i - 1..]);
            let qr = F64x4::load(&qc[i + 1..]);
            let qup = F64x4::load(&qn[i..]);
            let qdn = F64x4::load(&qs[i..]);
            let uv = F64x4::load(&uc[i..]);
            let vv = F64x4::load(&vc[i..]);
            // Upwind selects replace the scalar path's branches.
            let dqdx = F64x4::select(uv.ge_zero(), (qv - ql) * inv_dx4, (qr - qv) * inv_dx4);
            let dqdy = F64x4::select(vv.ge_zero(), (qv - qdn) * inv_dx4, (qup - qv) * inv_dx4);
            let lap = ((qr + ql) + (qup + qdn) - four4 * qv) * inv_dx2_4;
            let tgt = F64x4::load(&qbase_row[i..]) + boost4 * F64x4::load(&gauss_col[i..]) * gy4;
            let val = qv + dt4 * (-(uv * dqdx + vv * dqdy) + nu4 * lap + (tgt - qv) * inv_qtau4);
            val.store(&mut row_q[i..]);
            acc = acc + val;
            i += F64x4::LANES;
        }
        p_q += acc.reduce();
        while i < nx - 1 {
            let qv = qc[i];
            let uv = uc[i];
            let vv = vc[i];
            let dqdx = if uv >= 0.0 {
                (qv - qc[i - 1]) * inv_dx
            } else {
                (qc[i + 1] - qv) * inv_dx
            };
            let dqdy = if vv >= 0.0 {
                (qv - qs[i]) * inv_dx
            } else {
                (qn[i] - qv) * inv_dx
            };
            let lap = ((qc[i + 1] + qc[i - 1]) + (qn[i] + qs[i]) - 4.0 * qv) * inv_dx2;
            let tgt = qbase_row[i] + boost * gauss_col[i] * gy;
            let val = qv + dt * (-(uv * dqdx + vv * dqdy) + nu * lap + (tgt - qv) * inv_qtau);
            row_q[i] = val;
            p_q += val;
            i += 1;
        }
        row_q[nx - 1] = qbase_row[nx - 1] + boost * gauss_col[nx - 1] * gy;
        p_q += row_q[nx - 1];

        probes[j - j0] = p_eta + p_q;
    }
}

/// Lanes pass 2 (momentum) for rows `j0..j1`, reading the *new* eta.
///
/// Adds each row's probe contribution into `probes[j − j0]` (pass 1 wrote
/// the slot), u's row sum then v's, each in the same fixed order as pass 1.
/// The Rankine wind target is evaluated four-wide: `sqrt` lowers to
/// `sqrtpd`, the outside-the-eyewall decay uses [`exp4`], and the calm-eye
/// and solid-body branches become lane selects.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_uv_rows_lanes(
    inp: &StepInputs<'_>,
    scratch: &LaneScratch,
    eta_new: &[f64],
    j0: usize,
    j1: usize,
    out_u: &mut [f64],
    out_v: &mut [f64],
    probes: &mut [f64],
) {
    let f = inp.old;
    let (nx, ny) = (f.nx(), f.ny());
    debug_assert_eq!(eta_new.len(), nx * ny);
    debug_assert_eq!(out_u.len(), (j1 - j0) * nx);
    debug_assert_eq!(out_v.len(), (j1 - j0) * nx);
    debug_assert_eq!(probes.len(), j1 - j0);
    debug_assert_eq!(scratch.xcol.len(), nx, "prepare() not called");

    let dx = inp.dx_m();
    let dt = inp.dt_secs;
    let g = inp.phys.gravity;
    let nu = inp.nu();
    let damp = inp.phys.rayleigh;
    let inv_2dx = 1.0 / (2.0 * dx);
    let inv_dx2 = 1.0 / (dx * dx);
    let inv_tau = 1.0 / inp.phys.nudge_tau_secs;

    let cx = inp.vortex.x_km;
    let cy = inp.vortex.y_km;
    let rm = inp.vparams.radius_km;
    let vmax = inp.vparams.wind_per_depth * inp.vortex.depth_hpa;
    let steer_e = inp.vparams.steer_east_ms;
    let steer_n = inp.vparams.steer_north_ms;

    let u = f.u.data();
    let v = f.v.data();

    let dt4 = F64x4::splat(dt);
    let neg_g4 = F64x4::splat(-g);
    let nu4 = F64x4::splat(nu);
    let damp4 = F64x4::splat(damp);
    let inv_2dx4 = F64x4::splat(inv_2dx);
    let inv_dx2_4 = F64x4::splat(inv_dx2);
    let inv_tau4 = F64x4::splat(inv_tau);
    let four4 = F64x4::splat(4.0);
    let one4 = F64x4::splat(1.0);
    let eps4 = F64x4::splat(1e-9);
    let cx4 = F64x4::splat(cx);
    let rm4 = F64x4::splat(rm);
    let inv_rm4 = F64x4::splat(1.0 / rm);
    let inv_2rm4 = F64x4::splat(1.0 / (2.0 * rm));
    let vmax4 = F64x4::splat(vmax);
    let steer_e4 = F64x4::splat(steer_e);
    let steer_n4 = F64x4::splat(steer_n);

    for j in j0..j1 {
        let y = f.y_km(j);
        let dyk = y - cy;
        let dy4 = F64x4::splat(dyk);
        let base = (j - j0) * nx;
        let row_u = &mut out_u[base..base + nx];
        let row_v = &mut out_v[base..base + nx];

        if j == 0 || j == ny - 1 {
            for i in 0..nx {
                let (tu, tv) = inp.vortex.target_uv(f.x_km(i), y, inp.vparams);
                row_u[i] = tu;
                row_v[i] = tv;
            }
            probes[j - j0] += row_u.iter().sum::<f64>() + row_v.iter().sum::<f64>();
            continue;
        }

        let uc = &u[j * nx..(j + 1) * nx];
        let un = &u[(j + 1) * nx..(j + 2) * nx];
        let us = &u[(j - 1) * nx..j * nx];
        let vc = &v[j * nx..(j + 1) * nx];
        let vn = &v[(j + 1) * nx..(j + 2) * nx];
        let vs = &v[(j - 1) * nx..j * nx];
        let ec = &eta_new[j * nx..(j + 1) * nx];
        let en = &eta_new[(j + 1) * nx..(j + 2) * nx];
        let es = &eta_new[(j - 1) * nx..j * nx];
        let fcor = inp.phys.coriolis_at(y);
        let fcor4 = F64x4::splat(fcor);

        let (tu0, tv0) = inp.vortex.target_uv(f.x_km(0), y, inp.vparams);
        row_u[0] = tu0;
        row_v[0] = tv0;
        let mut p_u = row_u[0];
        let mut p_v = row_v[0];
        let mut acc_u = F64x4::splat(0.0);
        let mut acc_v = F64x4::splat(0.0);
        let mut i = 1;
        while i + F64x4::LANES < nx {
            // Wind target, four points at once.
            let dxk = F64x4::load(&scratch.xcol[i..]) - cx4;
            let r = (dxk * dxk + dy4 * dy4).sqrt();
            let near = r.lt(eps4);
            let inv_r = one4 / r;
            let decay = exp4(-((r - rm4) * inv_2rm4));
            let vt = F64x4::select(r.le(rm4), vmax4 * r * inv_rm4, vmax4 * decay);
            // At the exact eye r = 0 gives 0·∞ = NaN in the unselected
            // lane; the select masks it out.
            let tu = F64x4::select(near, steer_e4, vt * (-dy4 * inv_r) + steer_e4);
            let tv = F64x4::select(near, steer_n4, vt * (dxk * inv_r) + steer_n4);

            let uv = F64x4::load(&uc[i..]);
            let vv = F64x4::load(&vc[i..]);
            let detadx = (F64x4::load(&ec[i + 1..]) - F64x4::load(&ec[i - 1..])) * inv_2dx4;
            let detady = (F64x4::load(&en[i..]) - F64x4::load(&es[i..])) * inv_2dx4;
            let lap_u = ((F64x4::load(&uc[i + 1..]) + F64x4::load(&uc[i - 1..]))
                + (F64x4::load(&un[i..]) + F64x4::load(&us[i..]))
                - four4 * uv)
                * inv_dx2_4;
            let lap_v = ((F64x4::load(&vc[i + 1..]) + F64x4::load(&vc[i - 1..]))
                + (F64x4::load(&vn[i..]) + F64x4::load(&vs[i..]))
                - four4 * vv)
                * inv_dx2_4;
            let val_u = uv
                + dt4
                    * (neg_g4 * detadx + fcor4 * vv + nu4 * lap_u + (tu - uv) * inv_tau4
                        - damp4 * uv);
            let val_v = vv
                + dt4
                    * (neg_g4 * detady - fcor4 * uv + nu4 * lap_v + (tv - vv) * inv_tau4
                        - damp4 * vv);
            val_u.store(&mut row_u[i..]);
            val_v.store(&mut row_v[i..]);
            acc_u = acc_u + val_u;
            acc_v = acc_v + val_v;
            i += F64x4::LANES;
        }
        p_u += acc_u.reduce();
        p_v += acc_v.reduce();
        while i < nx - 1 {
            let (tu, tv) = inp.vortex.target_uv(f.x_km(i), y, inp.vparams);
            let uv = uc[i];
            let vv = vc[i];
            let detadx = (ec[i + 1] - ec[i - 1]) * inv_2dx;
            let detady = (en[i] - es[i]) * inv_2dx;
            let lap_u = ((uc[i + 1] + uc[i - 1]) + (un[i] + us[i]) - 4.0 * uv) * inv_dx2;
            let lap_v = ((vc[i + 1] + vc[i - 1]) + (vn[i] + vs[i]) - 4.0 * vv) * inv_dx2;
            let val_u = uv
                + dt * ((-g) * detadx + fcor * vv + nu * lap_u + (tu - uv) * inv_tau - damp * uv);
            let val_v = vv
                + dt * ((-g) * detady - fcor * uv + nu * lap_v + (tv - vv) * inv_tau - damp * vv);
            row_u[i] = val_u;
            row_v[i] = val_v;
            p_u += val_u;
            p_v += val_v;
            i += 1;
        }
        let (tu1, tv1) = inp.vortex.target_uv(f.x_km(nx - 1), y, inp.vparams);
        row_u[nx - 1] = tu1;
        row_v[nx - 1] = tv1;
        p_u += row_u[nx - 1];
        p_v += row_v[nx - 1];

        probes[j - j0] += p_u + p_v;
    }
}

/// One full serial lanes step into a caller-owned output buffer: the
/// lane-ordered serial reference every parallel lanes engine must match
/// bitwise. Sweeps in the same L2-sized row tiles as the parallel engines
/// (tiling is bit-neutral — rows are independent), records per-row probes
/// in `probe_rows`, and reduces them in ascending row order.
pub(crate) fn step_serial_lanes_into(
    inp: &StepInputs<'_>,
    scratch: &mut LaneScratch,
    probe_rows: &mut Vec<f64>,
    out: &mut Fields,
) -> f64 {
    let (nx, ny) = (inp.old.nx(), inp.old.ny());
    out.shape_like(inp.old);
    probe_rows.clear();
    probe_rows.resize(ny, 0.0);
    scratch.prepare(inp);
    {
        let Fields { eta, q, .. } = out;
        for (t0, t1) in crate::par::row_tiles(0, ny, nx) {
            step_eta_q_rows_lanes(
                inp,
                scratch,
                t0,
                t1,
                &mut eta.data_mut()[t0 * nx..t1 * nx],
                &mut q.data_mut()[t0 * nx..t1 * nx],
                &mut probe_rows[t0..t1],
            );
        }
    }
    let Fields { eta, u, v, .. } = out;
    for (t0, t1) in crate::par::row_tiles(0, ny, nx) {
        step_uv_rows_lanes(
            inp,
            scratch,
            eta.data(),
            t0,
            t1,
            &mut u.data_mut()[t0 * nx..t1 * nx],
            &mut v.data_mut()[t0 * nx..t1 * nx],
            &mut probe_rows[t0..t1],
        );
    }
    // Ascending-row reduction: the probe's bits are independent of band
    // and tile decomposition because each slot is a pure per-row value.
    probe_rows.iter().sum()
}

/// One full serial step into a caller-owned output buffer (reshaped if its
/// geometry differs). The kernels write every cell, so no zeroing is
/// needed; a warm `out` makes the step allocation-free. Returns the finite
/// probe.
#[cfg(test)]
pub(crate) fn step_serial_into(inp: &StepInputs<'_>, out: &mut Fields) -> f64 {
    let ny = inp.old.ny();
    out.shape_like(inp.old);
    let mut probe = {
        let Fields { eta, q, .. } = out;
        step_eta_q_rows(inp, 0, ny, eta.data_mut(), q.data_mut())
    };
    // Disjoint field borrows: eta read-only, u and v written.
    let Fields { eta, u, v, .. } = out;
    probe += step_uv_rows(inp, eta.data(), 0, ny, u.data_mut(), v.data_mut());
    probe
}

/// One full serial step: returns the new fields (allocating convenience
/// wrapper over [`step_serial_into`], used as the parity reference in
/// tests).
#[cfg(test)]
pub(crate) fn step_serial(inp: &StepInputs<'_>) -> Fields {
    let mut new = Fields::zeros(inp.old.nx(), inp.old.ny(), inp.old.dx_km);
    step_serial_into(inp, &mut new);
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DomainGeom;

    #[test]
    fn wave_speed_within_cfl_for_wrf_timestep() {
        let p = PhysicsParams::bay_of_bengal();
        // dt = 6 s per km of dx → Courant = c·dt/dx = 6e-3 s/m · c.
        let courant = p.wave_speed() * 6.0 / 1000.0;
        assert!(courant < 0.7, "Courant {courant} too close to instability");
    }

    #[test]
    fn coriolis_changes_sign_across_equator() {
        let g = DomainGeom::bay_of_bengal();
        let p = PhysicsParams::bay_of_bengal();
        let (_, y_north) = g.lonlat_to_km(90.0, 30.0);
        let (_, y_south) = g.lonlat_to_km(90.0, -8.0);
        assert!(p.coriolis_at(y_north) > 0.0);
        assert!(p.coriolis_at(y_south) < 0.0);
    }

    struct Scene {
        fields: Fields,
        vortex: VortexState,
        phys: PhysicsParams,
        vparams: VortexParams,
        geom: DomainGeom,
    }

    fn scene(nx: usize, ny: usize) -> Scene {
        let geom = DomainGeom::bay_of_bengal();
        let phys = PhysicsParams::bay_of_bengal();
        let vparams = VortexParams::aila();
        let vortex = VortexState::genesis(&vparams, &geom);
        let mut fields = Fields::zeros(nx, ny, 27.0);
        // Deterministic non-trivial state with both wind signs so the
        // upwind selects exercise every branch.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for slot in fields.eta.data_mut() {
            *slot = 10.0 * next();
        }
        for slot in fields.u.data_mut() {
            *slot = 60.0 * next();
        }
        for slot in fields.v.data_mut() {
            *slot = 60.0 * next();
        }
        for slot in fields.q.data_mut() {
            *slot = 0.015 + 0.01 * next();
        }
        Scene {
            fields,
            vortex,
            phys,
            vparams,
            geom,
        }
    }

    impl Scene {
        fn inputs(&self) -> StepInputs<'_> {
            StepInputs {
                old: &self.fields,
                vortex: &self.vortex,
                phys: &self.phys,
                vparams: &self.vparams,
                geom: &self.geom,
                dt_secs: 120.0,
            }
        }
    }

    /// Tiling is bit-neutral: the tiled serial lanes reference must equal
    /// one untiled kernel invocation over the whole grid.
    #[test]
    fn lanes_tiled_matches_untiled_bitwise() {
        for (nx, ny) in [(4, 4), (7, 5), (33, 29), (130, 90)] {
            let sc = scene(nx, ny);
            let inp = sc.inputs();
            let mut scratch = LaneScratch::default();
            let mut probe_rows = Vec::new();
            let mut tiled = Fields::zeros(nx, ny, 27.0);
            let p_tiled = step_serial_lanes_into(&inp, &mut scratch, &mut probe_rows, &mut tiled);

            let mut flat = Fields::zeros(nx, ny, 27.0);
            let mut rows = vec![0.0; ny];
            scratch.prepare(&inp);
            {
                let Fields { eta, q, .. } = &mut flat;
                step_eta_q_rows_lanes(
                    &inp,
                    &mut scratch,
                    0,
                    ny,
                    eta.data_mut(),
                    q.data_mut(),
                    &mut rows,
                );
            }
            {
                let Fields { eta, u, v, .. } = &mut flat;
                step_uv_rows_lanes(
                    &inp,
                    &scratch,
                    eta.data(),
                    0,
                    ny,
                    u.data_mut(),
                    v.data_mut(),
                    &mut rows,
                );
            }
            let p_flat: f64 = rows.iter().sum();
            assert_eq!(tiled.eta.data(), flat.eta.data(), "{nx}x{ny} eta");
            assert_eq!(tiled.u.data(), flat.u.data(), "{nx}x{ny} u");
            assert_eq!(tiled.v.data(), flat.v.data(), "{nx}x{ny} v");
            assert_eq!(tiled.q.data(), flat.q.data(), "{nx}x{ny} q");
            assert_eq!(p_tiled.to_bits(), p_flat.to_bits(), "{nx}x{ny} probe");
        }
    }

    /// The lanes kernels implement the scalar oracle's physics: they agree
    /// to within stencil-arithmetic rounding, far tighter than any physical
    /// signal, but are not (and need not be) bitwise equal.
    #[test]
    fn lanes_and_scalar_agree_physically() {
        let sc = scene(90, 70);
        let inp = sc.inputs();
        let scalar = step_serial(&inp);
        let mut lanes = Fields::zeros(90, 70, 27.0);
        let mut scratch = LaneScratch::default();
        let mut rows = Vec::new();
        step_serial_lanes_into(&inp, &mut scratch, &mut rows, &mut lanes);
        for (name, a, b) in [
            ("eta", scalar.eta.data(), lanes.eta.data()),
            ("u", scalar.u.data(), lanes.u.data()),
            ("v", scalar.v.data(), lanes.v.data()),
            ("q", scalar.q.data(), lanes.q.data()),
        ] {
            let mut worst = 0.0f64;
            for (x, y) in a.iter().zip(b) {
                worst = worst.max((x - y).abs());
            }
            assert!(worst < 1e-9, "{name}: worst |scalar − lanes| = {worst:e}");
        }
    }

    /// Low-order-bit differences do not grow into a physical one: ten
    /// steps on each kernel from the same state leave the diagnosed
    /// central pressure within 1e-6 hPa.
    #[test]
    fn lanes_and_scalar_trajectories_stay_close() {
        let sc = scene(90, 70);
        let (mut scalar, mut lanes) = (sc.fields.clone(), sc.fields.clone());
        let mut vortex = sc.vortex;
        let (mut next, mut lanes_next) = (Fields::zeros(1, 1, 1.0), Fields::zeros(1, 1, 1.0));
        let mut scratch = LaneScratch::default();
        let mut rows = Vec::new();
        for _ in 0..10 {
            let at = |old| StepInputs {
                old,
                vortex: &vortex,
                ..sc.inputs()
            };
            step_serial_into(&at(&scalar), &mut next);
            let inp = at(&lanes);
            step_serial_lanes_into(&inp, &mut scratch, &mut rows, &mut lanes_next);
            std::mem::swap(&mut scalar, &mut next);
            std::mem::swap(&mut lanes, &mut lanes_next);
            vortex.advance(120.0, &sc.vparams, &sc.geom);
        }
        let hpa = sc.vparams.hpa_per_eta_m;
        let (p_scalar, p_lanes) = (scalar.min_pressure(hpa).0, lanes.min_pressure(hpa).0);
        assert!((p_scalar - p_lanes).abs() < 1e-6, "{p_scalar} vs {p_lanes}");
    }

    /// The lanes probe keeps the blow-up guarantee: a non-finite value
    /// anywhere in the written state makes the reduced probe non-finite.
    #[test]
    fn lanes_probe_detects_blowup() {
        let mut sc = scene(24, 18);
        sc.fields.u.set(11, 9, f64::NAN);
        let inp = sc.inputs();
        let mut scratch = LaneScratch::default();
        let mut rows = Vec::new();
        let mut out = Fields::zeros(24, 18, 27.0);
        let probe = step_serial_lanes_into(&inp, &mut scratch, &mut rows, &mut out);
        assert!(!probe.is_finite());
    }
}
