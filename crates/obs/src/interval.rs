//! Windowed PMU collection — the simulator's analogue of the paper's
//! `pmcstat -w` sampling loop.
//!
//! [`IntervalSampler`] wraps a [`TimingCore`] behind the same
//! [`EventSink`] interface and, every `window` simulated cycles, takes a
//! cheap non-consuming snapshot and emits the *delta* of every Table 1
//! event over the window, plus the derived metrics computed on those
//! deltas (per-window IPC, miss rates, top-down shares).
//!
//! Because every counter the timing model produces is cumulative and
//! monotone, the per-window deltas telescope: summed over the whole run
//! they reproduce the single-shot [`EventCounts`] exactly — a property
//! locked by an integration test.

use cheri_isa::{Abi, EventSink, NoInjector, OpClass, RetiredEvent};
use cheri_workloads::Workload;
use morello_pmu::{DerivedMetrics, EventCounts};
use morello_sim::{Collector, Platform, RunError, Runner};
use morello_uarch::{TimingCore, UarchConfig, UarchStats};
use serde::{Deserialize, Serialize};

/// One window of the PMU time-series: event-count deltas over
/// `[start_cycle, end_cycle)` and the derived metrics of that window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Window index, starting at 0.
    pub index: usize,
    /// First cycle covered by the window (inclusive).
    pub start_cycle: u64,
    /// Cycle the window was flushed at (exclusive).
    pub end_cycle: u64,
    /// Per-event deltas over this window.
    pub counts: EventCounts,
    /// Table 1 derived metrics computed on the window's deltas.
    pub derived: DerivedMetrics,
}

/// An [`EventSink`] that forwards every retired instruction to an inner
/// [`TimingCore`] and flushes an [`IntervalSample`] each time the core
/// crosses a window boundary.
pub struct IntervalSampler {
    core: TimingCore,
    window: u64,
    next_boundary: u64,
    last: EventCounts,
    last_cycle: u64,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Creates a sampler flushing every `window` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(config: UarchConfig, window: u64) -> IntervalSampler {
        assert!(window > 0, "sampling window must be at least one cycle");
        IntervalSampler {
            core: TimingCore::new(config),
            window,
            next_boundary: window,
            last: EventCounts::new(),
            last_cycle: 0,
            samples: Vec::new(),
        }
    }

    /// The window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Windows flushed so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    fn flush(&mut self) {
        let snap = EventCounts::from_uarch(&self.core.snapshot());
        let cycle = self.core.cycles();
        let delta = snap.delta(&self.last);
        self.samples.push(IntervalSample {
            index: self.samples.len(),
            start_cycle: self.last_cycle,
            end_cycle: cycle,
            derived: DerivedMetrics::from_counts(&delta),
            counts: delta,
        });
        self.last = snap;
        self.last_cycle = cycle;
        self.next_boundary = (cycle / self.window + 1) * self.window;
    }
}

impl Collector for IntervalSampler {
    type Extra = Vec<IntervalSample>;

    /// Flushes the final (possibly partial) window and returns the full
    /// run statistics together with the time-series.
    fn finish(mut self) -> (UarchStats, Vec<IntervalSample>) {
        if self.core.cycles() > self.last_cycle || self.samples.is_empty() {
            self.flush();
        }
        (self.core.snapshot(), self.samples)
    }

    /// The allocator and fault counters are run totals read at exit, not
    /// cycle-attributed, so they land in the last window and the deltas
    /// still telescope. A truncated run never reached exit, so only its
    /// fault counters can be nonzero.
    fn credit_last_window(
        samples: &mut Vec<IntervalSample>,
        credit: impl FnOnce(&mut EventCounts),
    ) {
        if let Some(last) = samples.last_mut() {
            credit(&mut last.counts);
            last.derived = DerivedMetrics::from_counts(&last.counts);
        }
    }
}

impl EventSink for IntervalSampler {
    #[inline]
    fn retire(&mut self, ev: RetiredEvent) {
        self.core.retire(ev);
        if self.core.cycles() >= self.next_boundary {
            self.flush();
        }
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.core.retire_classified(ev, class);
        if self.core.cycles() >= self.next_boundary {
            self.flush();
        }
    }

    #[inline]
    fn region(&mut self, id: u32) {
        self.core.region(id);
    }
}

/// A run collected through an [`IntervalSampler`]: the final statistics
/// plus the windowed time-series.
#[derive(Clone, Debug, Serialize)]
pub struct SampledRun {
    /// Workload name.
    pub workload: String,
    /// The ABI run.
    pub abi: Abi,
    /// Window length in cycles.
    pub window: u64,
    /// Full-run statistics (identical to an unsampled run).
    pub stats: UarchStats,
    /// Per-window event deltas and derived metrics.
    pub samples: Vec<IntervalSample>,
    /// Program exit code (0 when the run was truncated).
    pub exit_code: u64,
    /// The run stopped at the interpreter's instruction budget instead
    /// of completing: everything sampled up to the cut-off is real, but
    /// there is no exit code and no allocator exit statistics.
    #[serde(default)]
    pub truncated: bool,
}

/// Runs one workload with windowed collection. A fuel-exhausted run is a
/// partial observation, not a failed one: everything sampled up to the
/// budget is real, and the journals must record it.
///
/// # Errors
///
/// [`RunError::UnsupportedAbi`] for the paper's NA cells;
/// [`RunError::Interp`] if execution faults.
pub fn run_sampled(
    platform: &Platform,
    workload: &Workload,
    abi: Abi,
    window: u64,
) -> Result<SampledRun, RunError> {
    let runner = Runner::new(*platform);
    let prog = runner.program(workload, abi, None)?;
    let sampler = IntervalSampler::new(platform.uarch, window);
    let run = runner.execute(&prog, sampler, &mut NoInjector, |_, _, _| {});
    Ok(SampledRun {
        workload: workload.name.to_owned(),
        abi,
        window,
        truncated: run.truncated()?,
        exit_code: run.exit_code().unwrap_or(0),
        stats: run.stats,
        samples: run.extra,
    })
}
