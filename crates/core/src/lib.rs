//! # morello-sim
//!
//! The top of the reproduction stack: configure a [`Platform`], pick a
//! workload from [`cheri_workloads::registry`], and run it under any of the
//! three CHERI ABIs to get a full [`RunReport`] — PMU event counts, the
//! derived metrics of the paper's Table 1, top-down bucket shares,
//! simulated execution time, heap/footprint statistics, and the modelled
//! binary layout.
//!
//! ```no_run
//! use morello_sim::{Platform, Runner};
//! use cheri_isa::Abi;
//! use cheri_workloads::{by_key, Scale};
//!
//! let runner = Runner::new(Platform::morello().with_scale(Scale::Small));
//! let w = by_key("omnetpp_520").unwrap();
//! let hybrid = runner.run(&w, Abi::Hybrid)?;
//! let purecap = runner.run(&w, Abi::Purecap)?;
//! let slowdown = purecap.seconds / hybrid.seconds;
//! println!("purecap slowdown: {slowdown:.2}x");
//! # Ok::<(), morello_sim::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod engine;
mod observe;
mod projection;
mod report;
mod runner;
mod span;
pub mod suite;
mod watchdog;

pub use cache::ProgramCache;
pub use observe::{uarch_config_hash, RunObserver, RunRecord, VecObserver};
pub use projection::{project, project_with, ProjectionRow};
pub use report::{HeapSummary, RunReport, TopDown};
pub use runner::{fold_heap_stats, Collector, Observed, Platform, RunError, Runner};
pub use span::{span, NullSpanSink, SpanGuard, SpanSink};
pub use watchdog::Watchdog;

// Re-exported so experiment drivers can select allocator strategies
// without depending on `cheri-revoke` directly.
pub use cheri_revoke::StrategyKind;
