//! `serve`: the fig. 11 load sweep followed by the fig. 12 resilience
//! sweep, full size. Most of the time goes to the two discrete-event
//! loops; the rest profiles the request shapes through the timing model.
//!
//! The load sweep is seeded from the command line. The resilience sweep
//! runs at fig. 12's default seed: it always prices a fault-injected twin
//! of every request shape under a 200 M-instruction watchdog, and on about
//! a quarter of seeds one twin spins to that cap, making the pass five to
//! nine times longer. That cost is real but a lottery over seeds; the
//! `faults` workload measures the same spin-to-the-fuel-cap work steadily.
//!
//! The sweeps' own cells run inside the program's pool and cannot be
//! timed from outside, so a serve cell is one pass: both sweeps.

use crate::common::{cells_of, timed, traced, Pass, Programs, Tr};
use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_serve::{
    profile_shapes, resilience_metrics, run_resilience_sweep, run_service_sweep, service_metrics,
    SweepConfig, SHAPE_KEYS,
};
use morello_sim::suite::select;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The scale the sweeps profile their request shapes at.
pub const SCALE: Scale = Scale::Test;

pub struct Serve {
    pub programs: Programs,
    pub seed: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        Serve {
            programs: Programs::new(cells_of(&select(&SHAPE_KEYS)), SCALE),
            seed,
        }
    }

    /// Both sweeps, each on `jobs` workers.
    pub fn pass(&self, jobs: usize, tr: Option<Tr<'_>>) -> Pass {
        let resilience_cfg = SweepConfig {
            quick: false,
            jobs,
            ..SweepConfig::default()
        };
        let service_cfg = SweepConfig {
            seed: self.seed,
            ..resilience_cfg.clone()
        };
        let (sweeps, wall) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let service = traced(tr, "serve.service_sweep", String::new, None, || {
                    timed(|| run_service_sweep(&service_cfg))
                });
                let resilience = traced(tr, "serve.resilience_sweep", String::new, None, || {
                    timed(|| run_resilience_sweep(&resilience_cfg))
                });
                (service, resilience)
            }))
        });
        let mut pass = Pass {
            wall,
            attempted: 1,
            ..Pass::default()
        };
        let ((service, service_s), (resilience, resilience_s)) = match sweeps {
            Ok(s) => s,
            Err(payload) => {
                pass.errors = 1;
                pass.notes.push(format!(
                    "sweep panicked: {}",
                    morello_sim::engine::panic_message(payload)
                ));
                pass.lines.push("sweep panicked".into());
                pass.line_cells.push(1);
                return pass;
            }
        };
        pass.cell_ms.push(wall * 1e3);
        let metrics = service_metrics(&service)
            .into_iter()
            .map(|(k, v)| format!("service.{k}={v:?}"))
            .chain(
                resilience_metrics(&resilience)
                    .into_iter()
                    .map(|(k, v)| format!("resilience.{k}={v:?}")),
            );
        pass.lines.extend(metrics);
        pass.line_cells = vec![1; pass.lines.len()];
        pass.work = service
            .abis
            .iter()
            .flat_map(|a| a.points.iter().map(|p| p.arrivals))
            .chain(
                resilience
                    .abis
                    .iter()
                    .flat_map(|a| a.cells.iter().map(|c| c.arrivals)),
            )
            .sum();
        // Both sweeps profile the same clean shapes; fault twins and
        // watchdog retries are not counted.
        pass.sim_insts = 2 * service
            .abis
            .iter()
            .flat_map(|a| a.profiles.iter().map(|p| p.retired))
            .sum::<u64>();
        let demand = |key: &str, abi: Abi| {
            service
                .abis
                .iter()
                .find(|a| a.abi == abi)?
                .profiles
                .iter()
                .find(|p| p.key == key && !p.degraded)
                .map(|p| p.service_cycles as f64)
        };
        pass.slowdowns = SHAPE_KEYS
            .iter()
            .filter_map(|k| Some((*k, demand(k, Abi::Purecap)? / demand(k, Abi::Hybrid)?)))
            .collect();
        pass.extra = vec![
            ("serve.service_sweep_s", service_s, "s"),
            ("serve.resilience_sweep_s", resilience_s, "s"),
        ];
        pass
    }

    /// Host seconds `profile_shapes` takes for every ABI, as the load sweep
    /// calls it (no fault twins) and as the resilience sweep does (with
    /// them), run one after the other.
    pub fn profile_legs(&self, tr: Tr<'_>) -> f64 {
        let shapes = select(&SHAPE_KEYS);
        // The resilience sweep derives its twin-campaign seed this way.
        let twin_seed = SweepConfig::default().seed ^ 0xFA17;
        let (_, secs) = timed(|| {
            for fault_seed in [None, Some(twin_seed)] {
                for abi in Abi::ALL {
                    let name = || format!("{abi} twins={}", fault_seed.is_some());
                    traced(Some(tr), "serve.profile", name, None, || {
                        std::hint::black_box(profile_shapes(
                            self.programs.platform,
                            &shapes,
                            abi,
                            1,
                            fault_seed,
                        ))
                    });
                }
            }
        });
        secs
    }
}
