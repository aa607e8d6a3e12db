//! Tier-1 home of the rank-team parity suite: `cargo test -q` runs the root
//! package only, and the pool being bitwise equal to the serial lanes step
//! is what lets `WorkerPool` be the only physics engine. The properties
//! live with the crate they test and are included here by path.

#[path = "../crates/wrf/tests/pool_parity.rs"]
mod suite;
