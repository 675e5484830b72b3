//! # morello-fault
//!
//! Deterministic fault injection and recovery for the Morello
//! reproduction: seeded [`FaultPlan`] campaigns arm triggers at
//! instruction counts, PC ranges, or address ranges and inject
//! capability corruptions (tag clears, bounds nudges, permission
//! drops, PCC corruption) into a running workload; a CheriBSD
//! SIGPROT-analogue recovery model ([`RecoveryPolicy`]) decides whether a
//! trapped run aborts, skips the faulting operation, or unwinds to the
//! caller; and every run is classified **trapped**, **silently
//! corrupted**, **benign**, or **crashed** against a clean reference
//! execution.
//!
//! The layer exists to measure the paper's central safety claim from
//! the performance side: under the purecap and benchmark ABIs a
//! corrupted capability is caught at its next use (≈100 % detection
//! coverage), while the hybrid ABI lets the same corruption flow into
//! the program's output as a silent wrong answer. The
//! [`run_coverage`] campaign sweeps injection rate × ABI × workload
//! and renders the comparison as the fig. 9 detection-coverage table.
//!
//! Everything is reproducible by construction: plans are drawn from
//! explicit seeds, injections ride on architecturally defined polls,
//! journals record every firing, and campaign aggregation is
//! scheduling-independent — `--jobs 1` and `--jobs 8` produce
//! byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod plan;
mod runner;
mod session;

pub use campaign::{
    coverage_table, plan_seed, run_coverage, CampaignConfig, CoverageCell, CoverageReport,
};
pub use plan::{FaultKind, FaultPlan, Trigger, TriggerSite};
pub use runner::{fold_fault_stats, CleanReference, FaultOutcome, FaultRun, FaultRunner, Injected};
pub use session::{FaultSession, InjectionRecord};

// Re-exported so campaign drivers need not depend on `cheri-isa`
// directly for the policy knob.
pub use cheri_isa::RecoveryPolicy;
