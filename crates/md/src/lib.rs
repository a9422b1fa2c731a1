//! # fc_md — molecular dynamics and structure relaxation
//!
//! The paper's §V-D compares one-step MD time of CHGNet vs FastCHGNet on
//! three lithium compounds (Table II). This crate provides the MD engine
//! behind that comparison — and the surrounding tooling a potential's
//! users need:
//!
//! * a [`ForceField`] abstraction implemented by model [`Calculator`]s and
//!   by the exact synthetic-DFT [`OracleField`] (ground truth for
//!   validating the integrator),
//! * velocity-Verlet NVE with an optional Langevin (NVT) thermostat and
//!   per-step wall timing,
//! * FIRE structure relaxation ([`relax`]), CHGNet's flagship workload.

pub mod calculator;
pub mod field;
pub mod integrator;
pub mod relax;
pub mod simulation;

pub use calculator::{CalcResult, Calculator};
pub use field::{ForceField, OracleField};
pub use integrator::{langevin_kick, velocity_verlet_step, MdState, ACC_UNIT, KB_EV};
pub use relax::{relax, FireConfig, RelaxResult};
pub use simulation::{run_md, Ensemble, Frame, MdConfig, Trajectory};
