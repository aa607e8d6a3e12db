//! Reduced mesoscale dynamical core — the WRF stand-in.
//!
//! The paper runs the Weather Research and Forecasting model (WRF) to track
//! tropical cyclone Aila across the Bay of Bengal at resolutions from 24 km
//! down to a 1:3 nest, writing a history frame every output interval. The
//! adaptive framework consumes four things from that simulation:
//!
//! 1. a realistic minimum-surface-pressure lifecycle (it drives the
//!    pressure→resolution schedule of Table III and nest spawning),
//! 2. per-step compute cost as a function of processors and resolution,
//! 3. history frames — sized by the grid — written through parallel I/O,
//! 4. stop / checkpoint / restart semantics for reconfiguration.
//!
//! This crate provides all four with a genuine PDE integrator: a linearized
//! shallow-water system on a beta plane (forward–backward time stepping,
//! Coriolis, Rayleigh damping, Laplacian diffusion) nudged toward an
//! analytic cyclone whose intensity obeys a logistic deepening law over
//! ocean and exponential filling over land, and whose track follows a
//! steering flow. A two-way moving nest refines the cyclone region at a
//! 1:3 ratio, exactly as the paper configures WRF.
//!
//! Parallelism mirrors the MPI decomposition with one engine: a
//! persistent rank team ([`pool::WorkerPool`]) — spawned once per model,
//! parked on a reusable barrier between passes, double-buffered so the hot
//! loop never allocates — running f64×4 lane kernels over row bands. It is
//! tested bitwise against the serial lanes integrator at every team size;
//! the point-at-a-time scalar kernels survive only as the test oracle the
//! lanes arithmetic is checked against.
//!
//! # Quickstart
//!
//! ```
//! use wrf::{ModelConfig, WrfModel};
//!
//! let cfg = ModelConfig::aila_default().with_decimation(16);
//! let mut model = WrfModel::new(cfg).unwrap();
//! model.advance_to_minutes(60.0, 1).unwrap(); // one simulated hour
//! let p = model.min_pressure_hpa();
//! assert!(p > 900.0 && p < 1020.0);
//! let frame = model.frame();
//! assert!(frame.var("pressure").is_some());
//! ```

pub mod checkpoint;
pub mod decomp;
mod fields;
mod geom;
mod grid;
mod model;
mod nest;
mod par;
pub mod pool;
mod record;
mod simd;
mod solver;
mod vortex;

pub use fields::Fields;
pub use geom::DomainGeom;
pub use grid::Grid2;
pub use model::{ModelConfig, ModelError, WrfModel};
pub use nest::{Nest, NestConfig};
pub use pool::WorkerPool;
pub use solver::PhysicsParams;
pub use vortex::{VortexParams, VortexState, BASE_PRESSURE_HPA};

/// WRF's rule of thumb tying the integration time step to resolution:
/// roughly six seconds per kilometre of grid spacing.
pub fn dt_for_resolution_secs(resolution_km: f64) -> f64 {
    assert!(resolution_km > 0.0);
    6.0 * resolution_km
}

/// Minimum parent-domain grid points each MPI rank must own (the paper's
/// "each MPI process should have at least 6x6 parent domain grid points").
pub const MIN_PARENT_POINTS_PER_RANK: usize = 6;
/// Minimum nest-domain grid points per rank ("9x9 nest domain grid
/// points").
pub const MIN_NEST_POINTS_PER_RANK: usize = 9;
