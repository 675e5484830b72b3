//! `suite`: the fig. 1 sweep — every registry workload under every ABI it
//! supports at `Scale::Small`, each run through the timing model from a
//! warmed program cache. Seed-free: the programs are the fixed registry.

use crate::common::{cells_of, timed, traced, Cell, Pass, Programs, Tr};
use cheri_isa::Abi;
use cheri_workloads::{registry, Scale};
use morello_sim::engine::{run_cells, CellOutcome};
use morello_sim::{RunReport, Runner};

pub const SCALE: Scale = Scale::Small;

pub struct Suite {
    pub programs: Programs,
}

fn line(c: &Cell, r: &RunReport) -> String {
    format!(
        "{} retired={} cpu_cycles={} exit={}",
        c.label(),
        r.retired,
        r.stats.cpu_cycles,
        r.exit_code
    )
}

impl Suite {
    pub fn new() -> Suite {
        Suite {
            programs: Programs::new(cells_of(&registry()), SCALE),
        }
    }

    /// One sweep over every cell on `jobs` workers.
    pub fn pass(&self, jobs: usize, tr: Option<Tr<'_>>) -> Pass {
        let runner = Runner::new(self.programs.platform);
        let (outcomes, wall) = timed(|| {
            run_cells(self.programs.cells.len(), jobs, |i| {
                let c = &self.programs.cells[i];
                traced(
                    tr,
                    "core.run_with_cache",
                    || c.label(),
                    Some(i),
                    || timed(|| runner.run_with_cache(&c.w, c.abi, &self.programs.cache)),
                )
            })
        });
        let mut pass = Pass {
            wall,
            attempted: self.programs.cells.len(),
            ..Pass::default()
        };
        let mut reports: Vec<Option<RunReport>> = Vec::new();
        for (c, outcome) in self.programs.cells.iter().zip(outcomes) {
            let report = match outcome {
                CellOutcome::Done((Ok(r), secs)) => {
                    pass.cell_ms.push(secs * 1e3);
                    pass.sim_insts += r.retired;
                    pass.work += 1;
                    pass.lines.push(line(c, &r));
                    Some(r)
                }
                CellOutcome::Done((Err(e), _)) => {
                    pass.notes.push(format!("{}: {e}", c.label()));
                    None
                }
                CellOutcome::Panicked(msg) => {
                    pass.notes.push(format!("{}: panicked: {msg}", c.label()));
                    None
                }
            };
            if report.is_none() {
                pass.errors += 1;
                pass.lines.push(format!("{} failed", c.label()));
            }
            pass.line_cells.push(1);
            reports.push(report);
        }
        for (i, c) in self.programs.cells.iter().enumerate() {
            if c.abi != Abi::Hybrid {
                continue;
            }
            let seconds = |abi: Abi| {
                self.programs
                    .cells
                    .iter()
                    .zip(&reports)
                    .find(|(o, _)| o.w.key == c.w.key && o.abi == abi)
                    .and_then(|(_, r)| r.as_ref().map(|r| r.seconds))
            };
            if let (Some(h), Some(p)) = (reports[i].as_ref(), seconds(Abi::Purecap)) {
                pass.slowdowns.push((c.w.key, p / h.seconds));
            }
        }
        pass
    }

    /// The expected lines, computed through `Runner::run` (a fresh build
    /// and lowering per cell) rather than the cached path the pass times.
    pub fn reference_lines(&self, jobs: usize) -> Vec<String> {
        let runner = Runner::new(self.programs.platform);
        run_cells(self.programs.cells.len(), jobs, |i| {
            let c = &self.programs.cells[i];
            match runner.run(&c.w, c.abi) {
                Ok(r) => line(c, &r),
                Err(e) => format!("{} failed: {e}", c.label()),
            }
        })
        .into_iter()
        .map(|o| match o {
            CellOutcome::Done(l) => l,
            CellOutcome::Panicked(msg) => format!("panicked: {msg}"),
        })
        .collect()
    }
}
