//! What every workload shares: its lowered programs, the result of one
//! timed pass, optional spans around the calls a pass makes, and the
//! model's slowdown error against the paper.

use crate::trace::Tracer;
use cheri_isa::{Abi, Program};
use cheri_workloads::{Scale, Workload};
use morello_sim::{Platform, ProgramCache};
use std::sync::Arc;
use std::time::Instant;

/// One (workload, ABI) program a benchmark workload runs.
#[derive(Clone)]
pub struct Cell {
    pub w: Workload,
    pub abi: Abi,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}/{}", self.w.key, self.abi)
    }
}

/// Every supported (workload, ABI) pair of `workloads`, workload-major.
pub fn cells_of(workloads: &[Workload]) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|w| {
            Abi::ALL
                .into_iter()
                .filter(|a| w.supports(*a))
                .map(|abi| Cell { w: w.clone(), abi })
        })
        .collect()
}

/// A workload's programs: the platform they run on, the cells, and the
/// cells' programs lowered at set-up into a warmed cache.
pub struct Programs {
    pub platform: Platform,
    pub cells: Vec<Cell>,
    pub cache: ProgramCache,
    pub lowered: Vec<Arc<Program>>,
}

impl Programs {
    /// `cells` on the Morello platform at `scale`, not yet set up.
    pub fn new(cells: Vec<Cell>, scale: Scale) -> Programs {
        Programs {
            platform: Platform::morello().with_scale(scale),
            cells,
            cache: ProgramCache::new(),
            lowered: Vec::new(),
        }
    }

    /// Set-up: builds and lowers every cell into a fresh cache; returns
    /// the host seconds that took.
    pub fn setup(&mut self) -> f64 {
        let scale = self.platform.scale;
        let ((cache, lowered), secs) = timed(|| {
            let cache = ProgramCache::new();
            let lowered = self
                .cells
                .iter()
                .map(|c| cache.get_or_lower(&c.w, c.abi, scale))
                .collect();
            (cache, lowered)
        });
        // The programs being replaced are freed outside the timing.
        (self.cache, self.lowered) = (cache, lowered);
        secs
    }
}

/// One timed pass of a workload.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall: f64,
    /// Host milliseconds of each cell.
    pub cell_ms: Vec<f64>,
    /// Simulated instructions retired during the pass.
    pub sim_insts: u64,
    /// Units of work completed (suite runs, classified fault runs, or
    /// simulated requests).
    pub work: u64,
    /// The deterministic output, one canonical line per checked item.
    pub lines: Vec<String>,
    /// How many cells each line stands for, to count mismatches.
    pub line_cells: Vec<usize>,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that returned an error or panicked.
    pub errors: usize,
    /// Errors and other diagnostics, for the report.
    pub notes: Vec<String>,
    /// Purecap-over-hybrid simulated slowdown per workload key.
    pub slowdowns: Vec<(&'static str, f64)>,
    /// Workload-specific measurements: (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// Spans around a pass's calls, when the pass is traced: the recorder and
/// the span the calls belong under.
#[derive(Clone, Copy)]
pub struct Tr<'a> {
    pub tracer: &'a Tracer,
    pub parent: usize,
}

/// Runs `f`, inside a span when traced.
pub fn traced<T>(
    tr: Option<Tr<'_>>,
    layer: &'static str,
    name: impl FnOnce() -> String,
    cell: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.tracer.span(layer, name(), Some(t.parent), cell, |_| f()),
        None => f(),
    }
}

/// Runs `f` and returns its result with the elapsed host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Mean relative error of the simulated purecap/hybrid slowdowns against
/// the paper's, over the workloads the paper reports one for. This is the
/// calibration data the model was tuned on, not a held-out set.
pub fn slowdown_err(slowdowns: &[(&'static str, f64)]) -> Option<f64> {
    let errs: Vec<f64> = slowdowns
        .iter()
        .filter_map(|(key, model)| {
            let paper = cheri_workloads::by_key(key)?.paper_purecap_slowdown?;
            Some((model - paper).abs() / paper)
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
