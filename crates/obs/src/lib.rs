//! # morello-obs
//!
//! The observability layer of the reproduction — the tooling the paper's
//! methodology leans on around the raw counters:
//!
//! * **Windowed PMU collection** ([`IntervalSampler`]): the `pmcstat -w`
//!   analogue. Samples every Table 1 event each N simulated cycles and
//!   emits per-window deltas plus derived metrics as a time-series. The
//!   deltas of a run telescope: summed over all windows they equal the
//!   single-shot [`EventCounts`](morello_pmu::EventCounts) of the same
//!   run, exactly.
//! * **Cycle-attribution profiling** ([`Profiler`]): workloads tag their
//!   phases with region markers
//!   ([`ProgramBuilder::region`](cheri_isa::ProgramBuilder::region));
//!   the profiler attributes retired instructions, stall cycles, cache
//!   and TLB misses, and PCC resteers to the region in force, and renders
//!   a hotspot table plus collapsed-stack lines for flamegraph tooling.
//! * **Structured run journals** ([`JsonlJournal`]): a
//!   [`RunObserver`](morello_sim::RunObserver) that appends one JSON line
//!   per completed run — a machine-readable lab notebook.
//! * **Phase tracing** ([`Tracer`]): a
//!   [`SpanSink`](morello_sim::SpanSink) recording thread-tagged
//!   `lower`/`run`/`sweep`/`fault-campaign`/`report` spans, exported as
//!   JSONL and as Chrome `trace_event` JSON for
//!   `chrome://tracing`/Perfetto — the `--trace` flag of every
//!   experiment binary.
//! * **Latency quantiles** ([`LogHistogram`]): a fixed-layout
//!   log-bucket histogram (HDR-style, 16 sub-buckets per octave) whose
//!   merges are exact — per-thread shards fold into the histogram a
//!   single thread would have recorded, which is what keeps the serving
//!   simulation's p50/p99/p999 byte-identical across `--jobs` counts.
//!
//! [`run_sampled`] and [`run_profiled`] are thin wrappers over the core's
//! one run pipeline, [`Runner::execute`](morello_sim::Runner::execute):
//! the sampler and the profiler are [`Collector`](morello_sim::Collector)s,
//! so the same pipeline folds their run totals and credits them to the
//! last window, and a fault-injected run can pass them to
//! `morello_fault::FaultRunner::inject` unchanged.
//!
//! ```no_run
//! use cheri_isa::Abi;
//! use cheri_workloads::{by_key, Scale};
//! use morello_obs::{hotspot_table, run_profiled};
//! use morello_sim::Platform;
//!
//! let platform = Platform::morello().with_scale(Scale::Small);
//! let w = by_key("omnetpp_520").unwrap();
//! let run = run_profiled(&platform, &w, Abi::Purecap)?;
//! println!("{}", hotspot_table(&run.regions).render());
//! # Ok::<(), morello_sim::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod interval;
mod journal;
mod profile;
mod trace;

pub use hist::{LogHistogram, BUCKETS, SUB_BUCKETS};
pub use interval::{run_sampled, IntervalSample, IntervalSampler, SampledRun};
pub use journal::{read_journal, JsonlJournal};
pub use profile::{
    collapsed_stacks, hotspot_table, run_profiled, ProfiledRun, Profiler, RegionProfile,
};
pub use trace::{read_trace_jsonl, SpanRecord, Tracer};
