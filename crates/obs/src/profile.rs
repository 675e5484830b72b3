//! Cycle-attribution profiling over workload-declared regions.
//!
//! Workload builders tag their phases with
//! [`ProgramBuilder::region`](cheri_isa::ProgramBuilder::region) /
//! [`FunctionBuilder::region`](cheri_isa::FunctionBuilder::region)
//! markers; the markers survive lowering and reach the event stream as
//! [`EventSink::region`] calls. The [`Profiler`] snapshots the inner
//! [`TimingCore`] at every marker and charges the statistics accrued
//! since the previous marker to the region that was in force — a
//! deterministic, zero-overhead analogue of sampling profilers like
//! `pmcstat -G` on the real platform.

use cheri_isa::{Abi, EventSink, NoInjector, OpClass, RetiredEvent};
use cheri_workloads::Workload;
use morello_pmu::{fmt_metric, Table};
use morello_sim::{Collector, Platform, RunError, Runner};
use morello_uarch::{TimingCore, UarchConfig, UarchStats};
use serde::{Deserialize, Serialize};

/// Everything attributed to one region over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionProfile {
    /// Region name (from the program's region table), or `(outside)` for
    /// work before the first marker / after a region end.
    pub name: String,
    /// Retired instructions.
    pub retired: u64,
    /// Core cycles.
    pub cycles: u64,
    /// Frontend stall cycles.
    pub stall_frontend: u64,
    /// Backend stall cycles.
    pub stall_backend: u64,
    /// Backend-memory cycles (L1 + L2 + external, the top-down memory
    /// bound numerator).
    pub backend_mem_cycles: u64,
    /// L1D refills.
    pub l1d_refills: u64,
    /// L2 refills.
    pub l2_refills: u64,
    /// LLC read misses.
    pub llc_read_misses: u64,
    /// Data-side page-table walks.
    pub dtlb_walks: u64,
    /// Branches that changed PCC bounds (resteer candidates).
    pub pcc_resteers: u64,
    /// Frontend cycles charged specifically to PCC-bounds resteers.
    pub pcc_stall_cycles: u64,
}

impl RegionProfile {
    fn charge(&mut self, now: &UarchStats, then: &UarchStats) {
        self.retired += now.inst_retired - then.inst_retired;
        self.cycles += now.cpu_cycles - then.cpu_cycles;
        self.stall_frontend += now.stall_frontend - then.stall_frontend;
        self.stall_backend += now.stall_backend - then.stall_backend;
        self.backend_mem_cycles += (now.bound_mem_l1 + now.bound_mem_l2 + now.bound_mem_ext)
            - (then.bound_mem_l1 + then.bound_mem_l2 + then.bound_mem_ext);
        self.l1d_refills += now.l1d_cache_refill - then.l1d_cache_refill;
        self.l2_refills += now.l2d_cache_refill - then.l2d_cache_refill;
        self.llc_read_misses += now.ll_cache_miss_rd - then.ll_cache_miss_rd;
        self.dtlb_walks += now.dtlb_walk - then.dtlb_walk;
        self.pcc_resteers += now.pcc_change_branches - then.pcc_change_branches;
        self.pcc_stall_cycles += now.pcc_stall_cycles - then.pcc_stall_cycles;
    }

    /// Instructions per cycle within the region.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles.max(1) as f64
    }

    /// Share of the region's cycles spent backend-memory bound.
    pub fn backend_mem_share(&self) -> f64 {
        self.backend_mem_cycles as f64 / self.cycles.max(1) as f64
    }
}

const OUTSIDE: u32 = u32::MAX;

/// An [`EventSink`] that attributes the timing model's statistics to the
/// region in force at each retired instruction.
pub struct Profiler {
    core: TimingCore,
    names: Vec<String>,
    regions: Vec<RegionProfile>,
    outside: RegionProfile,
    current: u32,
    mark: UarchStats,
}

impl Profiler {
    /// Creates a profiler over the given region-name table (a program's
    /// `regions` vector; ids index into it).
    pub fn new(config: UarchConfig, names: Vec<String>) -> Profiler {
        let regions = names
            .iter()
            .map(|n| RegionProfile {
                name: n.clone(),
                ..RegionProfile::default()
            })
            .collect();
        Profiler {
            core: TimingCore::new(config),
            names,
            regions,
            outside: RegionProfile {
                name: "(outside)".to_owned(),
                ..RegionProfile::default()
            },
            current: OUTSIDE,
            mark: UarchStats::default(),
        }
    }

    fn switch_to(&mut self, id: u32) {
        let now = self.core.snapshot();
        let slot = match self.current {
            OUTSIDE => &mut self.outside,
            i => &mut self.regions[i as usize],
        };
        slot.charge(&now, &self.mark);
        self.mark = now;
        self.current = id;
    }
}

impl Collector for Profiler {
    type Extra = Vec<RegionProfile>;

    /// Charges the residual to the current region and returns the
    /// full-run statistics plus one profile per region. The `(outside)`
    /// profile comes last; regions keep program order. The rows keep
    /// hardware-attributed statistics only: run totals read at exit are
    /// folded into the full-run statistics alone.
    fn finish(mut self) -> (UarchStats, Vec<RegionProfile>) {
        self.switch_to(OUTSIDE);
        let mut out = self.regions;
        out.push(self.outside);
        (self.core.snapshot(), out)
    }
}

impl EventSink for Profiler {
    #[inline]
    fn retire(&mut self, ev: RetiredEvent) {
        self.core.retire(ev);
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.core.retire_classified(ev, class);
    }

    fn region(&mut self, id: u32) {
        // Unknown ids (no name-table entry) grow the table defensively.
        if id != OUTSIDE && id as usize >= self.names.len() {
            for i in self.names.len()..=id as usize {
                let name = format!("region#{i}");
                self.names.push(name.clone());
                self.regions.push(RegionProfile {
                    name,
                    ..RegionProfile::default()
                });
            }
        }
        self.switch_to(id);
    }
}

/// A fully profiled run.
#[derive(Clone, Debug, Serialize)]
pub struct ProfiledRun {
    /// Workload name.
    pub workload: String,
    /// The ABI run.
    pub abi: Abi,
    /// Full-run statistics (identical to an unprofiled run).
    pub stats: UarchStats,
    /// Per-region attribution, program order, `(outside)` last.
    pub regions: Vec<RegionProfile>,
    /// Program exit code (0 when the run was truncated).
    pub exit_code: u64,
    /// The run stopped at the interpreter's instruction budget instead
    /// of completing: the per-region attribution covers the executed
    /// prefix only.
    #[serde(default)]
    pub truncated: bool,
}

/// Runs one workload under the cycle-attribution profiler. A
/// fuel-exhausted run keeps its partial attribution: the regions
/// profiled before the budget ran out are real.
///
/// # Errors
///
/// [`RunError::UnsupportedAbi`] for the paper's NA cells;
/// [`RunError::Interp`] if execution faults.
pub fn run_profiled(
    platform: &Platform,
    workload: &Workload,
    abi: Abi,
) -> Result<ProfiledRun, RunError> {
    let runner = Runner::new(*platform);
    let prog = runner.program(workload, abi, None)?;
    let profiler = Profiler::new(platform.uarch, prog.regions.clone());
    let run = runner.execute(&prog, profiler, &mut NoInjector, |_, _, _| {});
    Ok(ProfiledRun {
        workload: workload.name.to_owned(),
        abi,
        truncated: run.truncated()?,
        exit_code: run.exit_code().unwrap_or(0),
        stats: run.stats,
        regions: run.extra,
    })
}

/// Renders the hotspot table: regions sorted by cycles, with shares of
/// the run total and the stall/miss columns that explain *why* a region
/// is hot.
pub fn hotspot_table(regions: &[RegionProfile]) -> Table {
    let total: u64 = regions.iter().map(|r| r.cycles).sum();
    let mut sorted: Vec<&RegionProfile> = regions.iter().collect();
    sorted.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.name.cmp(&b.name)));
    let mut t = Table::new(&[
        "Region",
        "Cycles",
        "Cycles %",
        "Retired",
        "IPC",
        "BE-mem %",
        "FE %",
        "PCC %",
        "L1D refills",
        "L2 refills",
    ]);
    for r in sorted {
        if r.cycles == 0 && r.retired == 0 {
            continue;
        }
        let c = r.cycles.max(1) as f64;
        t.row(&[
            r.name.clone(),
            r.cycles.to_string(),
            fmt_metric(r.cycles as f64 / total.max(1) as f64 * 100.0),
            r.retired.to_string(),
            fmt_metric(r.ipc()),
            fmt_metric(r.backend_mem_cycles as f64 / c * 100.0),
            fmt_metric(r.stall_frontend as f64 / c * 100.0),
            fmt_metric(r.pcc_stall_cycles as f64 / c * 100.0),
            r.l1d_refills.to_string(),
            r.l2_refills.to_string(),
        ]);
    }
    t
}

/// Renders collapsed-stack lines (`program;region cycles`), the input
/// format of flamegraph tooling.
pub fn collapsed_stacks(program: &str, regions: &[RegionProfile]) -> String {
    let mut out = String::new();
    for r in regions {
        if r.cycles == 0 {
            continue;
        }
        out.push_str(program);
        out.push(';');
        out.push_str(&r.name);
        out.push(' ');
        out.push_str(&r.cycles.to_string());
        out.push('\n');
    }
    out
}
