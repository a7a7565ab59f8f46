//! riot-perfbench: one timed, traced benchmark of the RIOT engine over
//! four out-of-core R workloads. See `README.md` beside this crate for the
//! workloads, every metric and the layer each one measures.

pub mod device;
pub mod ledger;
pub mod rig;
pub mod workloads;
