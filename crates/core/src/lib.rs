//! # arcs — Adaptive Runtime Configuration Selection
//!
//! Reproduction of *"ARCS: Adaptive Runtime Configuration Selection for
//! Power-Constrained OpenMP Applications"* (Shahneous Bari et al., IEEE
//! CLUSTER 2016): a framework that automatically selects, per parallel
//! region, the best **number of threads**, **scheduling policy** and
//! **chunk size** for a given package power cap.
//!
//! Two strategies, as in the paper:
//!
//! * **ARCS-Offline** — an exhaustive training execution per power
//!   cap/workload saves the best configuration per region to a history
//!   file; the measured execution replays it
//!   ([`sweep::SweepStrategy::Offline`]).
//! * **ARCS-Online** — Nelder–Mead search converges within the same run
//!   ([`sweep::SweepStrategy::Online`]).
//!
//! Two backends behind one [`backend::Backend`] trait and one run driver:
//!
//! * [`executor::SimExecutor`] drives the deterministic power-capped
//!   machine simulator (`arcs-powersim`), which is where the paper's
//!   power-sweep experiments run (RAPL capping is simulated; see
//!   DESIGN.md);
//! * [`live::LiveExecutor`] runs region models as calibrated spin loops on
//!   a real [`arcs_omprt::Runtime`] — and [`live::ArcsLive`] attaches ARCS
//!   to any runtime through the OMPT-like tool interface and APEX policies
//!   (the paper's Fig. 2 wiring, adapting real executions).
//!
//! Every run goes through one driver, [`backend::Runner`]. Whole
//! experiment grids (workload × power cap × strategy) run through the
//! [`sweep::SweepEngine`], which executes cells concurrently over a shared
//! per-machine simulation memo cache; [`sweep::SweepEngine::run_cell`]
//! holds the one recipe per strategy and runs a single cell.
//!
//! ## Quickstart (simulator)
//! ```
//! use arcs::{Objective, Runner, SimExecutor, SweepEngine, SweepStrategy};
//! use arcs_powersim::Machine;
//! use arcs_kernels::{model, Class};
//!
//! let machine = Machine::crill();
//! let mut workload = model::sp(Class::B);
//! workload.timesteps = 10;
//!
//! let base = Runner::new(&mut SimExecutor::new(machine.clone(), 85.0))
//!     .workload(&workload)
//!     .run()
//!     .unwrap();
//! let offline = SweepEngine::new(machine).run_cell(
//!     &workload,
//!     85.0,
//!     SweepStrategy::Offline,
//!     Objective::Time,
//!     None,
//! );
//! assert!(offline.report.time_s < base.time_s);
//! assert_eq!(offline.history.unwrap().len(), 5); // one best config per SP region
//! ```

pub mod backend;
pub mod cap;
pub mod config;
pub mod dvfs;
pub mod executor;
pub mod faults;
pub mod live;
pub mod profiler;
pub mod report;
pub mod resilience;
pub mod sweep;
pub mod tunable;
pub mod tuner;

pub use backend::{
    overhead_power_w, Backend, Measurement, RegionFeatures, RegionRun, RunError, Runner,
    RunnerStrategy,
};
pub use cap::{CapHandle, CapWatch};
pub use config::{ChunkChoice, ConfigSpace, OmpConfig, ScheduleChoice, ThreadChoice};
pub use dvfs::{DvfsConfig, DvfsOutcome, DvfsSpace};
pub use executor::{NoiseModel, SimExecutor};
pub use faults::{FaultClock, MeterFault};
pub use live::{ArcsLive, LiveExecutor};
pub use profiler::{OmptProfiler, RegionProfile};
pub use report::{AppRunReport, FaultRecovery, RegionSummary, RunStatus};
pub use resilience::ResilienceOptions;
pub use sweep::{CellResult, SweepEngine, SweepGrid, SweepReport, SweepStrategy};
pub use tunable::{TunableSpace, TunedConfig};
pub use tuner::{RegionTuner, TunerDecision, TunerOptions, TunerStats, TuningMode};

/// The scalar a run is scored by (time, energy, or EDP). Defined in
/// `arcs-trace` so trace events can carry it; re-exported here as the
/// canonical user-facing name.
pub use arcs_trace::Objective;

/// One-import surface for the common simulator workflow.
///
/// ```
/// use arcs::prelude::*;
/// # use arcs_kernels::{model, Class};
/// let mut wl = model::sp(Class::B);
/// wl.timesteps = 3;
/// let mut exec = SimExecutor::new(Machine::crill(), 85.0);
/// let report = Runner::new(&mut exec).workload(&wl).run().unwrap();
/// assert!(report.time_s > 0.0);
/// ```
pub mod prelude {
    pub use crate::backend::{Backend, RunError, Runner, RunnerStrategy};
    pub use crate::cap::CapHandle;
    pub use crate::config::{ConfigSpace, OmpConfig};
    pub use crate::executor::SimExecutor;
    pub use crate::report::{AppRunReport, FaultRecovery, RunStatus};
    pub use crate::resilience::ResilienceOptions;
    pub use crate::sweep::{SweepEngine, SweepGrid, SweepStrategy};
    pub use crate::tunable::{TunableSpace, TunedConfig};
    pub use crate::tuner::{RegionTuner, TunerOptions};
    pub use arcs_powersim::{FaultPlan, Machine, SharedSimCache, WorkloadDescriptor};
    pub use arcs_trace::{
        chrome_trace, JsonlSink, NullSink, Objective, TraceEvent, TraceRecord, TraceSink, VecSink,
    };
}
