//! The traced run's layer legs: each of a workload's programs is taken
//! through build, lowering, decode, the engine alone, the engine with a
//! recording sink whose stream is replayed into a fresh timing core, the
//! timed run itself, the PMU fold and the reference executor — each call
//! in its own span. The timed run minus engine minus replay is the cost
//! of handing events from the engine to the timing core.

use crate::common::Cell;
use crate::replay::ReplaySink;
use crate::trace::{Span, Tracer};
use cheri_isa::{lower, superblock_stats, Interp, NullSink, Program};
use morello_obs::{run_profiled, run_sampled};
use morello_pmu::{DerivedMetrics, EventCounts};
use morello_sim::{fold_heap_stats, Platform, ProgramCache, Runner};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Sampling window of the interval-sampler leg, in cycles (the window
/// the repository's speed harness uses).
const SAMPLE_WINDOW: u64 = 10_000;

/// Deterministic work counts of the timed runs, summed over programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub dtlb_walks: u64,
    pub br_mispredicts: u64,
    pub pages_touched: u64,
    pub revoke_epochs: u64,
    pub sweep_granules: u64,
}

/// What the legs measured.
pub struct Legs {
    /// Host seconds per leg layer, summed over programs.
    pub secs: BTreeMap<&'static str, f64>,
    /// Retired instructions of one pass over the programs.
    pub retired: u64,
    /// Events replayed into the timing core.
    pub events: u64,
    pub counts: Counts,
    /// Programs whose replay did not reproduce the timed run's statistics.
    pub mismatches: Vec<String>,
}

/// Sum of span durations per layer under `root`.
fn sum_by_layer(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let mut under = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for s in spans {
        under[s.id] = s.id == root || s.parent.is_some_and(|p| under[p]);
        if under[s.id] && s.id != root {
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    out
}

/// Runs every leg on every program, one after the other, under a new
/// root span.
pub fn program_legs(
    tracer: &Tracer,
    platform: Platform,
    cells: &[Cell],
    progs: &[Arc<Program>],
) -> Legs {
    let interp = Interp::new(platform.interp);
    let runner = Runner::new(platform);
    let mut legs = Legs {
        secs: BTreeMap::new(),
        retired: 0,
        events: 0,
        counts: Counts::default(),
        mismatches: Vec::new(),
    };
    let root = tracer.span("legs", "program legs", None, None, |root| {
        for (i, (c, prog)) in cells.iter().zip(progs).enumerate() {
            let label = c.label();
            tracer.span("legs.cell", label.clone(), Some(root), Some(i), |cid| {
                let leg = |layer, f: &mut dyn FnMut(usize)| {
                    tracer.span(layer, label.clone(), Some(cid), Some(i), &mut *f);
                };
                let (mut generic, mut engine, mut replayed, mut report) = (None, None, None, None);
                leg("workloads.build", &mut |_| {
                    generic = Some(c.w.build(c.abi, platform.scale))
                });
                let generic = generic.expect("build leg ran");
                leg("isa.lower", &mut |_| drop(black_box(lower(&generic))));
                leg("isa.decode", &mut |_| {
                    drop(black_box(superblock_stats(prog)))
                });
                leg("isa.engine", &mut |_| {
                    engine = Some(interp.run(prog, &mut NullSink))
                });
                leg("isa.record_run", &mut |rid| {
                    let mut sink = ReplaySink::new(platform.uarch);
                    let result = interp.run(prog, &mut sink);
                    let mut r = sink.finish();
                    tracer.record(
                        "uarch.replay",
                        label.clone(),
                        Some(rid),
                        Some(i),
                        r.replay.as_secs_f64(),
                    );
                    if let Ok(res) = &result {
                        fold_heap_stats(&mut r.stats, &res.heap_stats);
                    }
                    replayed = Some(r);
                });
                leg("core.run_lowered", &mut |_| {
                    report = Some(runner.run_lowered(&c.w, c.abi, prog))
                });
                leg("isa.refexec", &mut |_| {
                    drop(black_box(interp.run_reference(prog, &mut NullSink)))
                });
                let replayed = replayed.expect("record leg ran");
                let (Some(Ok(engine)), Some(Ok(report))) = (engine, report) else {
                    legs.mismatches.push(format!("{label}: run failed"));
                    return;
                };
                leg("pmu.fold", &mut |_| {
                    black_box(DerivedMetrics::from_counts(&EventCounts::from_uarch(
                        &report.stats,
                    )));
                });
                if replayed.stats != report.stats {
                    legs.mismatches.push(format!(
                        "{label}: replay cpu_cycles {} vs timed {}",
                        replayed.stats.cpu_cycles, report.stats.cpu_cycles
                    ));
                }
                legs.retired += engine.retired;
                legs.events += replayed.events;
                let s = &report.stats;
                let k = &mut legs.counts;
                k.events += s.inst_retired;
                k.l1d_misses += s.l1d_cache_refill;
                k.l2_misses += s.l2d_cache_refill;
                k.dtlb_walks += s.dtlb_walk;
                k.br_mispredicts += s.br_mis_pred_retired;
                k.pages_touched += report.heap.pages_touched;
                k.revoke_epochs += s.revocation_epochs;
                k.sweep_granules += s.sweep_granules_visited;
            });
        }
        root
    });
    legs.secs = sum_by_layer(&tracer.spans(), root);
    legs
}

/// Observer cost on `subset`: host time of `run_sampled` and
/// `run_profiled` over `Runner::run_with_cache` on the same cells,
/// interleaved per cell, `reps` times. Both observer entry points build
/// and lower their program on every call; the plain leg reads the warm
/// cache.
pub fn observer_ratios(
    tracer: &Tracer,
    platform: Platform,
    cells: &[Cell],
    cache: &ProgramCache,
    reps: usize,
) -> (f64, f64) {
    let runner = Runner::new(platform);
    let root = tracer.span("obs", "observer legs", None, None, |root| {
        for _ in 0..reps {
            for (i, c) in cells.iter().enumerate() {
                let p = Some(root);
                tracer.span("obs.plain", c.label(), p, Some(i), |_| {
                    black_box(runner.run_with_cache(&c.w, c.abi, cache).ok())
                });
                tracer.span("obs.sampled", c.label(), p, Some(i), |_| {
                    black_box(run_sampled(&platform, &c.w, c.abi, SAMPLE_WINDOW).ok())
                });
                tracer.span("obs.profiled", c.label(), p, Some(i), |_| {
                    black_box(run_profiled(&platform, &c.w, c.abi).ok())
                });
            }
        }
        root
    });
    let secs = sum_by_layer(&tracer.spans(), root);
    let plain = secs["obs.plain"];
    (secs["obs.sampled"] / plain, secs["obs.profiled"] / plain)
}
