//! The adaptive framework — the paper's primary contribution.
//!
//! Components mirror the paper's Figure 2 one-to-one:
//!
//! - [`config::ApplicationConfig`] — the *application configuration file*
//!   through which the manager steers the other components (number of
//!   processors, output interval, resolution, CRITICAL flag),
//! - [`manager::ApplicationManager`] — periodically observes free disk
//!   space and measured bandwidth and invokes a decision algorithm,
//! - [`decision`] — the two decision algorithms: the reactive
//!   [`decision::GreedyThreshold`] (the paper's Algorithm 1) and the
//!   linear-programming [`decision::Optimization`] (paper §IV-B, solved
//!   with our own simplex instead of GLPK),
//! - [`jobhandler::JobHandler`] — starts, stalls, and restarts the
//!   simulation process when the configuration changes,
//! - [`engine::EpochEngine`] — the single epoch-driven pipeline state
//!   machine (observe → decide → simulate-epoch → emit/transport →
//!   persist → advance), parameterized by environment traits
//!   ([`engine::Clock`], [`engine::FrameTransport`],
//!   [`engine::Durability`], [`engine::FaultInjector`]),
//! - [`orchestrator::Orchestrator`] — the DES driver: the engine on a
//!   virtual clock with fully modeled transport — producing the exact
//!   time series plotted in Figures 5–8,
//! - [`online`] — the live driver: the same engine paced against the
//!   wall clock with real encoded frames, a receiver thread, and
//!   journal+checkpoint durability.
//!
//! # Quickstart
//!
//! ```
//! use adaptive_core::decision::AlgorithmKind;
//! use adaptive_core::orchestrator::Orchestrator;
//! use cyclone::{Mission, Site};
//!
//! let outcome = Orchestrator::new(
//!     Site::inter_department(),
//!     Mission::aila().with_duration_hours(3.0),
//!     AlgorithmKind::Optimization,
//! )
//! .run();
//! assert!(outcome.completed);
//! assert!(outcome.frames_rendered > 0);
//! ```

pub mod broker;
pub mod chaos;
pub mod config;
pub mod decision;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod jobhandler;
pub mod manager;
pub mod metrics;
pub mod net_transport;
pub mod online;
pub mod orchestrator;
pub mod qos;
pub mod recovery;
pub mod resilience;
pub mod server;
pub mod steering;
