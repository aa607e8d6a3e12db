//! Resource substrate models: stable storage, wide-area network, cluster.
//!
//! The paper's framework adapts to three resource signals — free disk space
//! at the simulation site (polled with `df` every decision epoch), the
//! measured bandwidth of the simulation→visualization link (timed 1 GB
//! transfers), and the processor space of the cluster. This crate models
//! all three with the same observable surface:
//!
//! - [`Disk`] — byte-accurate stable storage with capacity, high-water
//!   tracking, and a `df`-style percentage query,
//! - [`FrameStore`] — the output directory: a FIFO ledger of frames on the
//!   disk, with in-flight transfer accounting (a frame's bytes are freed
//!   only once its transfer completes, exactly as the paper removes
//!   transferred data from the simulation site),
//! - [`Network`] — a wide-area link with nominal bandwidth, latency, and a
//!   temporally-correlated variability model (bounded random walk), plus
//!   the [`BandwidthProbe`] that observes it the way the paper does,
//! - [`Cluster`] — a named machine: core count, parallel-I/O bandwidth,
//!   restart overhead, and its fitted scaling law.
//!
//! All stochastic behaviour is seeded and deterministic.

mod cluster;
mod disk;
pub mod journal;
mod network;
mod store;

pub use cluster::{Cluster, SharedCores};
pub use disk::{Disk, DiskFull};
pub use journal::{crc32, crc32_update};
pub use network::{BandwidthProbe, Network, SharedLink, WanQueue};
pub use store::{FrameMeta, FrameStore, StoreError};
