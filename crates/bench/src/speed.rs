//! The `bench_speed` harness: measures how fast the reproduction itself
//! runs, and `bench_compare`'s regression gate over the result.
//!
//! The report splits hard along the determinism boundary:
//!
//! * **`model`** — values derived from the simulation model only
//!   (retired instructions, model cycles, per-opcode-class attribution,
//!   simulated seconds, lowered-program cache hit rate). Byte-identical
//!   across hosts and `--jobs` values; this is the section
//!   `bench_compare` gates on.
//! * **`host`** — wall-clock measurements of the harness itself, every
//!   field prefixed `host_` (suite wall-time at `--jobs {1,N}`,
//!   host-side retired-insts/sec per ABI, simulated-vs-host throughput
//!   ratios, and the observer-effect overheads of sampling/tracing).
//!   Never part of golden or baseline comparisons.
//!
//! The `bench_speed` binary drives [`run_bench`] and writes
//! `BENCH_interp.json` at the repo root; `bench_compare` diffs the
//! [`model_metrics`] of two such files with [`compare_metric_sets`] and
//! exits nonzero past `--threshold`.

use cheri_isa::{superblock_stats, Abi};
use cheri_workloads::Scale;
use morello_obs::{run_sampled, Tracer};
use morello_pmu::{fmt_metric, PmuEvent, Table};
use morello_sim::suite::{run_suite_traced, select, SuiteConfig, SuiteRow, TABLE3_KEYS};
use morello_sim::{Platform, ProgramCache, RunError, Runner, SpanSink};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version stamped into every `BENCH_interp.json`; bump on any
/// shape change so `bench_compare` refuses cross-schema diffs.
///
/// v2: the `model` section gained the `dispatch` subsection (engine
/// dispatch mode plus per-ABI superblock structure and block-size
/// histogram).
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// How the engine leg reaches its handlers: the direct-threaded
/// superblock engine (fn-pointer table over fused micro-op blocks).
/// Stamped into the report so a future dispatch-strategy change is
/// visible in the artefact, not just the commit log.
pub const DISPATCH_MODE: &str = "fn_ptr_superblocks";

/// The `--quick` workload selection: the golden-report five, run at
/// test scale. The full selection is the paper's Table 3 set at the
/// environment-selected scale.
pub const QUICK_KEYS: [&str; 5] = [
    "lbm_519",
    "omnetpp_520",
    "xz_557",
    "quickjs",
    "alloc_stress",
];

/// The sampling window (model cycles) used by the observer-effect
/// measurement.
pub const OBSERVER_WINDOW: u64 = 10_000;

/// Timed repetitions of the engine leg per workload. The leg measures
/// the interpreter's steady-state throughput, so each workload gets
/// one untimed warmup run (first-touch page faults, host caches) and
/// then this many individually-timed repetitions, of which the
/// *fastest* is kept (best-of-N, the `timeit`/hyperfine convention:
/// external load only ever adds time, so the minimum is the best
/// estimate of the engine's own speed).
pub const ENGINE_LEG_REPS: u32 = 5;

/// Model attribution of one opcode class within one ABI.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSpeedRow {
    /// Opcode-class label (matches `cheri_isa::OpClass::name`).
    pub class: String,
    /// Retired instructions attributed to the class.
    pub retired: u64,
    /// Model cycles attributed to the class.
    pub cycles: u64,
}

/// Deterministic model totals for one ABI, aggregated over the
/// selection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AbiModel {
    /// ABI label (`hybrid` / `benchmark` / `purecap`).
    pub abi: String,
    /// Total retired instructions.
    pub retired: u64,
    /// Total model cycles.
    pub cycles: u64,
    /// Total simulated seconds at the platform clock.
    pub sim_seconds: f64,
    /// Per-opcode-class attribution; `retired`/`cycles` partition the
    /// totals above exactly.
    pub classes: Vec<ClassSpeedRow>,
}

/// Lowered-program cache statistics over the two sweeps (`--jobs 1`
/// fresh, `--jobs N` warm) — deterministic by construction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheModel {
    /// Lookups that lowered (first sweep: one per cell).
    pub misses: u64,
    /// Lookups served from cache (second sweep: one per cell).
    pub hits: u64,
    /// `hits / (hits + misses)` — exactly `0.5` when both sweeps ran.
    pub hit_rate: f64,
}

/// Superblock structure of one ABI's lowered selection: what the
/// direct-threaded engine actually dispatches. Decode-derived, so
/// deterministic — a lowering change that reshapes the partition moves
/// these counts and trips the gate.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DispatchAbi {
    /// ABI label.
    pub abi: String,
    /// Superblocks across the selection's functions.
    pub blocks: u64,
    /// Packed interior micro-ops (fast-path fn-pointer dispatched).
    pub interior_ops: u64,
    /// Ops kept as terminators (inline-branched or slow-path stepped).
    pub terminators: u64,
    /// Blocks that fall through to the next block without a terminator.
    pub fallthrough_blocks: u64,
    /// `size_hist[k]` = blocks with `k` interior ops; the last bucket
    /// aggregates every larger block. Buckets sum to `blocks`.
    pub size_hist: Vec<u64>,
}

/// Dispatch-structure subsection of the model: the engine's dispatch
/// mode and the per-ABI superblock partition of the selection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DispatchModel {
    /// [`DISPATCH_MODE`].
    pub mode: String,
    /// Per-ABI partition totals and block-size histogram.
    pub abis: Vec<DispatchAbi>,
}

/// The deterministic section of the report: model-derived only,
/// byte-identical across hosts and `--jobs` values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelSection {
    /// Workload keys in run order.
    pub workloads: Vec<String>,
    /// Per-ABI totals.
    pub abis: Vec<AbiModel>,
    /// Lowered-program cache behaviour.
    pub cache: CacheModel,
    /// Engine dispatch structure (absent in pre-v2 reports).
    #[serde(default)]
    pub dispatch: DispatchModel,
}

/// Host-side throughput of one ABI (interpreter speed on this machine).
///
/// Two legs are timed over the same pre-lowered programs:
///
/// * the **engine leg** (`host_seconds` / `host_insts_per_sec`) runs
///   the architectural fast path alone — per-class counts accumulate
///   batched inside the engine and no per-instruction event crosses
///   into the timing model. Each workload is timed
///   [`ENGINE_LEG_REPS`] times after a warmup and the fastest rep
///   counts, so transient host load does not depress the rate. This
///   is the interpreter's own speed and the number the CI lower bound
///   gates on.
/// * the **timed leg** (`host_seconds_timed` /
///   `host_insts_per_sec_timed`) attaches the full
///   [`TimingCore`](morello_uarch::TimingCore) sink, paying the
///   per-event cache/TLB/branch model plus per-class cycle
///   attribution. `host_sim_ratio` is defined on this leg, since only
///   it produces simulated time.
///
/// The `_timed` fields default to `0.0` when absent so reports written
/// before they existed still parse.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostAbiRate {
    /// ABI label.
    pub abi: String,
    /// Host wall-clock seconds of the engine leg: the sum over
    /// workloads of each workload's best timed rep (lowering excluded —
    /// programs come pre-lowered from the cache).
    pub host_seconds: f64,
    /// Retired instructions per host second on the engine leg.
    pub host_insts_per_sec: f64,
    /// Simulated seconds per host second of the timed leg (how much
    /// Morello time one host second buys with the model attached).
    pub host_sim_ratio: f64,
    /// Host wall-clock seconds of the timed (model-attached) leg.
    #[serde(default)]
    pub host_seconds_timed: f64,
    /// Retired instructions per host second on the timed leg.
    #[serde(default)]
    pub host_insts_per_sec_timed: f64,
}

/// The observer effect: the same cell run plain, under the
/// [`IntervalSampler`](morello_obs::IntervalSampler), and under a live
/// [`Tracer`] — each timed end-to-end (lower + run) on the host.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObserverEffect {
    /// The measured workload key.
    pub workload: String,
    /// The measured ABI.
    pub abi: String,
    /// Host seconds for the plain run.
    pub host_plain_seconds: f64,
    /// Host seconds under windowed PMU sampling.
    pub host_sampled_seconds: f64,
    /// Host seconds under span tracing.
    pub host_traced_seconds: f64,
    /// `sampled / plain` — the cost of `pmcstat -w`-style collection.
    pub host_sampling_overhead: f64,
    /// `traced / plain` — the cost of `--trace`.
    pub host_tracing_overhead: f64,
}

/// Host-side measurements: wall-clock dependent, excluded from golden
/// and baseline comparisons (every field carries the `host_` prefix).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostSection {
    /// Worker count of the parallel sweep.
    pub host_jobs: u64,
    /// Suite wall-clock at `--jobs 1` (fresh cache).
    pub host_wall_seconds_jobs1: f64,
    /// Suite wall-clock at `--jobs N` (warm cache).
    pub host_wall_seconds_jobs_n: f64,
    /// `jobs1 / jobsN` wall-clock speedup.
    ///
    /// Only meaningful when `host_jobs > 1`. On a single-CPU host the
    /// scheduler clamps both sweeps to one worker, so the two legs
    /// differ only by cache warmth and this ratio is `1.0` plus
    /// wall-clock noise — values slightly below `1.0` (e.g. a recorded
    /// `0.83` with `host_jobs: 1`) indicate measurement jitter, not
    /// pool overhead: the work-stealing pool runs the identical serial
    /// schedule in both sweeps.
    pub host_parallel_speedup: f64,
    /// Per-ABI interpreter throughput.
    pub host_abi_rates: Vec<HostAbiRate>,
    /// Sampling/tracing overhead vs a plain run.
    pub host_observer_effect: ObserverEffect,
}

/// The `BENCH_interp.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Scale label (`test` / `small` / `default`).
    pub scale: String,
    /// Deterministic model section (the gated part).
    pub model: ModelSection,
    /// Host wall-clock section (informational only).
    pub host: HostSection,
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Default => "default",
    }
}

fn abi_models(rows: &[SuiteRow]) -> Vec<AbiModel> {
    let pairs = PmuEvent::opcode_class_pairs();
    Abi::ALL
        .iter()
        .map(|&abi| {
            let reports: Vec<_> = rows.iter().filter_map(|r| r.get(abi)).collect();
            let classes = pairs
                .iter()
                .map(|(label, retired_ev, cycles_ev)| ClassSpeedRow {
                    class: (*label).to_owned(),
                    retired: reports.iter().map(|rep| rep.counts.get(*retired_ev)).sum(),
                    cycles: reports.iter().map(|rep| rep.counts.get(*cycles_ev)).sum(),
                })
                .collect();
            AbiModel {
                abi: abi.to_string(),
                retired: reports.iter().map(|rep| rep.retired).sum(),
                cycles: reports
                    .iter()
                    .map(|rep| rep.counts.get(PmuEvent::CpuCycles))
                    .sum(),
                sim_seconds: reports.iter().map(|rep| rep.seconds).sum(),
                classes,
            }
        })
        .collect()
}

/// Runs the full measurement matrix and assembles the report:
///
/// 1. the suite at `--jobs 1` on a fresh cache (every cell lowers),
/// 2. the same suite at `--jobs N` on the now-warm cache (every cell
///    hits) — the model section is read off sweep 1, the cache stats
///    after sweep 2 (hit rate exactly 0.5),
/// 3. a per-ABI execution-only timing pass over the pre-lowered
///    programs, once on the architectural engine alone
///    (`host_insts_per_sec`) and once with the timing model attached
///    (`host_insts_per_sec_timed`, simulated-vs-host ratio) — the two
///    legs must agree on the retired-instruction count,
/// 4. the observer-effect cell (plain vs sampled vs traced).
///
/// # Errors
///
/// Propagates the first [`RunError`] in canonical cell order.
pub fn run_bench(quick: bool, jobs: usize, spans: &dyn SpanSink) -> Result<BenchReport, RunError> {
    let scale = if quick {
        Scale::Test
    } else {
        crate::scale_from_env()
    };
    let keys: Vec<&str> = if quick {
        QUICK_KEYS.to_vec()
    } else {
        TABLE3_KEYS.to_vec()
    };
    let workloads = select(&keys);
    let platform = Platform::morello().with_scale(scale);
    let runner = Runner::new(platform);
    let cache = ProgramCache::new();

    let started = Instant::now();
    let rows = run_suite_traced(
        &runner,
        &workloads,
        &cache,
        &SuiteConfig::with_jobs(1),
        None,
        spans,
    )?;
    let host_wall_seconds_jobs1 = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let _warm = run_suite_traced(
        &runner,
        &workloads,
        &cache,
        &SuiteConfig::with_jobs(jobs),
        None,
        spans,
    )?;
    let host_wall_seconds_jobs_n = started.elapsed().as_secs_f64();

    // Cache stats are captured here, before the timing passes below
    // take extra (hit) lookups: misses == hits == the cell count.
    let (misses, hits) = (cache.misses(), cache.hits());
    let cache_model = CacheModel {
        misses,
        hits,
        hit_rate: if misses + hits > 0 {
            hits as f64 / (misses + hits) as f64
        } else {
            0.0
        },
    };

    let mut host_abi_rates = Vec::new();
    let mut dispatch_abis = Vec::new();
    for &abi in &Abi::ALL {
        let mut host_seconds = 0.0;
        let mut host_seconds_timed = 0.0;
        let mut retired = 0_u64;
        let mut retired_timed = 0_u64;
        let mut sim_seconds = 0.0;
        let mut dispatch = DispatchAbi {
            abi: abi.to_string(),
            ..DispatchAbi::default()
        };
        for w in workloads.iter().filter(|w| w.supports(abi)) {
            let prog = cache.get_or_lower(w, abi, scale);

            // Superblock partition of this cell — static decode
            // structure, folded per ABI into the model's dispatch
            // subsection.
            let sb = superblock_stats(&prog);
            dispatch.blocks += sb.blocks;
            dispatch.interior_ops += sb.interior_ops;
            dispatch.terminators += sb.terminators;
            dispatch.fallthrough_blocks += sb.fallthrough_blocks;
            if dispatch.size_hist.len() < sb.size_hist.len() {
                dispatch.size_hist.resize(sb.size_hist.len(), 0);
            }
            for (bucket, n) in sb.size_hist.iter().enumerate() {
                dispatch.size_hist[bucket] += n;
            }

            // Engine leg: architectural fast path, batched class counts
            // only — no per-event traffic into the timing model. One
            // untimed warmup, then [`ENGINE_LEG_REPS`] individually
            // timed runs of which the fastest counts (best-of-N).
            let arch = runner.run_lowered_arch(&prog)?;
            let mut best = f64::INFINITY;
            for _ in 0..ENGINE_LEG_REPS {
                let started = Instant::now();
                let rerun = runner.run_lowered_arch(&prog)?;
                let elapsed = started.elapsed().as_secs_f64();
                assert_eq!(arch.retired, rerun.retired, "{}/{abi}: reruns agree", w.key);
                best = best.min(elapsed);
            }
            retired += arch.retired;
            host_seconds += best;

            // Timed leg: same program with the full uarch model sink.
            let started = Instant::now();
            let rep = runner.run_lowered(w, abi, &prog)?;
            host_seconds_timed += started.elapsed().as_secs_f64();
            retired_timed += rep.retired;
            sim_seconds += rep.seconds;
            assert_eq!(
                arch.retired, rep.retired,
                "{}/{abi}: engine and timed legs must retire identically",
                w.key
            );
        }
        dispatch_abis.push(dispatch);
        host_abi_rates.push(HostAbiRate {
            abi: abi.to_string(),
            host_seconds,
            host_insts_per_sec: if host_seconds > 0.0 {
                retired as f64 / host_seconds
            } else {
                0.0
            },
            host_sim_ratio: if host_seconds_timed > 0.0 {
                sim_seconds / host_seconds_timed
            } else {
                0.0
            },
            host_seconds_timed,
            host_insts_per_sec_timed: if host_seconds_timed > 0.0 {
                retired_timed as f64 / host_seconds_timed
            } else {
                0.0
            },
        });
    }

    let host_observer_effect = observer_effect(&platform, &runner, scale)?;

    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        quick,
        scale: scale_label(scale).to_owned(),
        model: ModelSection {
            workloads: keys.iter().map(|k| (*k).to_owned()).collect(),
            abis: abi_models(&rows),
            cache: cache_model,
            dispatch: DispatchModel {
                mode: DISPATCH_MODE.to_owned(),
                abis: dispatch_abis,
            },
        },
        host: HostSection {
            host_jobs: jobs as u64,
            host_wall_seconds_jobs1,
            host_wall_seconds_jobs_n,
            host_parallel_speedup: if host_wall_seconds_jobs_n > 0.0 {
                host_wall_seconds_jobs1 / host_wall_seconds_jobs_n
            } else {
                0.0
            },
            host_abi_rates,
            host_observer_effect,
        },
    })
}

fn observer_effect(
    platform: &Platform,
    runner: &Runner,
    scale: Scale,
) -> Result<ObserverEffect, RunError> {
    let w = cheri_workloads::by_key("omnetpp_520").expect("registry workload");
    let abi = Abi::Purecap;

    // All three variants pay one lowering plus one run, so the ratios
    // isolate the observation cost.
    let started = Instant::now();
    let _plain = runner.run(&w, abi)?;
    let host_plain_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let _sampled = run_sampled(platform, &w, abi, OBSERVER_WINDOW)?;
    let host_sampled_seconds = started.elapsed().as_secs_f64();

    let tracer = Tracer::new();
    let local = ProgramCache::new();
    let started = Instant::now();
    let _traced = runner.run_with_cache_spanned(&w, abi, &local, &tracer)?;
    let host_traced_seconds = started.elapsed().as_secs_f64();
    let _ = scale;

    let ratio = |num: f64| {
        if host_plain_seconds > 0.0 {
            num / host_plain_seconds
        } else {
            0.0
        }
    };
    Ok(ObserverEffect {
        workload: w.key.to_owned(),
        abi: abi.to_string(),
        host_plain_seconds,
        host_sampled_seconds,
        host_traced_seconds,
        host_sampling_overhead: ratio(host_sampled_seconds),
        host_tracing_overhead: ratio(host_traced_seconds),
    })
}

/// The human-readable summary table of a report (model throughput per
/// ABI plus the headline host numbers).
pub fn speed_table(report: &BenchReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "retired",
        "cycles",
        "sim (s)",
        "host insts/s",
        "host timed/s",
        "sim/host",
    ]);
    for abi in &report.model.abis {
        let rate = report.host.host_abi_rates.iter().find(|r| r.abi == abi.abi);
        t.row(&[
            abi.abi.clone(),
            abi.retired.to_string(),
            abi.cycles.to_string(),
            format!("{:.4}", abi.sim_seconds),
            rate.map_or("-".into(), |r| fmt_metric(r.host_insts_per_sec)),
            rate.map_or("-".into(), |r| fmt_metric(r.host_insts_per_sec_timed)),
            rate.map_or("-".into(), |r| fmt_metric(r.host_sim_ratio)),
        ]);
    }
    t
}

/// One gated model metric's divergence between two reports.
#[derive(Clone, Debug, Serialize)]
pub struct MetricDiff {
    /// Metric path (e.g. `purecap.cycles`, `cache.hit_rate`).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed percent change from baseline (`100.0` for a metric that
    /// appeared from zero).
    pub pct: f64,
}

/// `bench_compare`'s verdict.
#[derive(Clone, Debug, Serialize)]
pub struct CompareOutcome {
    /// Every gated metric that moved at all.
    pub diffs: Vec<MetricDiff>,
    /// The subset whose |pct| exceeds the threshold (also includes
    /// metrics present in only one report).
    pub regressions: Vec<MetricDiff>,
}

/// The gated metric set: model-section values only (host wall-clock is
/// deliberately invisible to the gate).
pub fn model_metrics(report: &BenchReport) -> Vec<(String, f64)> {
    let mut m = vec![("cache.hit_rate".to_owned(), report.model.cache.hit_rate)];
    for abi in &report.model.abis {
        m.push((format!("{}.retired", abi.abi), abi.retired as f64));
        m.push((format!("{}.cycles", abi.abi), abi.cycles as f64));
        m.push((format!("{}.sim_seconds", abi.abi), abi.sim_seconds));
        for c in &abi.classes {
            m.push((format!("{}.{}.retired", abi.abi, c.class), c.retired as f64));
            m.push((format!("{}.{}.cycles", abi.abi, c.class), c.cycles as f64));
        }
    }
    // Dispatch structure (v2+; a pre-v2 report deserialises to an empty
    // subsection, and the schema gate refuses cross-version diffs
    // before this set is ever compared).
    for d in &report.model.dispatch.abis {
        m.push((format!("{}.dispatch.blocks", d.abi), d.blocks as f64));
        m.push((
            format!("{}.dispatch.interior_ops", d.abi),
            d.interior_ops as f64,
        ));
        m.push((
            format!("{}.dispatch.terminators", d.abi),
            d.terminators as f64,
        ));
    }
    m
}

/// The deterministic-metric gate behind `bench_compare`: diffs two
/// named metric sets — [`model_metrics`] of two interpreter reports, or
/// `morello_serve::service_metrics` / `resilience_metrics` of two serving
/// reports. The metrics are deterministic, so any movement is a real
/// behaviour change: a metric whose absolute percent change exceeds
/// `threshold_pct` (in either direction, slower or suspiciously faster)
/// lands in `regressions`, as does a metric present in only one set.
pub fn compare_metric_sets(
    base_metrics: &[(String, f64)],
    new_metrics: &[(String, f64)],
    threshold_pct: f64,
) -> CompareOutcome {
    let mut diffs = Vec::new();
    let mut regressions = Vec::new();
    for (name, b) in base_metrics {
        let Some((_, n)) = new_metrics.iter().find(|(k, _)| k == name) else {
            regressions.push(MetricDiff {
                metric: format!("{name} (missing from candidate)"),
                base: *b,
                new: 0.0,
                pct: -100.0,
            });
            continue;
        };
        let pct = if *b == 0.0 {
            if *n == 0.0 {
                0.0
            } else {
                100.0
            }
        } else {
            (n - b) / b * 100.0
        };
        if pct != 0.0 {
            let d = MetricDiff {
                metric: name.clone(),
                base: *b,
                new: *n,
                pct,
            };
            if pct.abs() > threshold_pct {
                regressions.push(d.clone());
            }
            diffs.push(d);
        }
    }
    for (name, n) in new_metrics {
        if !base_metrics.iter().any(|(k, _)| k == name) {
            regressions.push(MetricDiff {
                metric: format!("{name} (missing from baseline)"),
                base: 0.0,
                new: *n,
                pct: 100.0,
            });
        }
    }
    CompareOutcome { diffs, regressions }
}

/// A report's kind, from its top-level `kind` discriminator
/// (`"service"`, `"resilience"`, …). Interpreter reports predate the
/// field, so its absence — or a document that is not a JSON object —
/// means `"interp"`.
pub fn doc_kind(text: &str) -> String {
    match serde_json::from_str::<serde::Value>(text) {
        Ok(serde::Value::Map(entries)) => match serde::map_get(&entries, "kind") {
            Some(serde::Value::Str(kind)) => kind.clone(),
            _ => "interp".to_owned(),
        },
        _ => "interp".to_owned(),
    }
}

/// The fast-path floor check behind `bench_compare --min-host-rate`:
/// returns every ABI whose engine-leg throughput
/// ([`HostAbiRate::host_insts_per_sec`]) fell below `min` retired
/// instructions per host second. A silent fall-back to the reference
/// executor (or a fast path degraded into per-event sink traffic) drops
/// the engine leg far below any realistic floor, so CI gates on this
/// even though host numbers are otherwise informational.
pub fn host_rate_floor(report: &BenchReport, min: f64) -> Vec<(String, f64)> {
    report
        .host
        .host_abi_rates
        .iter()
        .filter(|r| r.host_insts_per_sec < min)
        .map(|r| (r.abi.clone(), r.host_insts_per_sec))
        .collect()
}

/// Renders a diff list the way `bench_compare` prints it.
pub fn diff_table(diffs: &[MetricDiff]) -> Table {
    let mut t = Table::new(&["metric", "baseline", "candidate", "change %"]);
    for d in diffs {
        t.row(&[
            d.metric.clone(),
            fmt_metric(d.base),
            fmt_metric(d.new),
            format!("{:+.2}", d.pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::NullSpanSink;

    fn compare(base: &BenchReport, new: &BenchReport, threshold_pct: f64) -> CompareOutcome {
        compare_metric_sets(&model_metrics(base), &model_metrics(new), threshold_pct)
    }

    fn quick_report(jobs: usize) -> BenchReport {
        run_bench(true, jobs, &NullSpanSink).expect("quick bench runs")
    }

    #[test]
    fn quick_report_shape_and_model_determinism_across_jobs() {
        let r2 = quick_report(2);
        let r4 = quick_report(4);
        assert_eq!(r2.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(r2.scale, "test");
        assert_eq!(r2.model.workloads.len(), QUICK_KEYS.len());
        assert_eq!(r2.model.abis.len(), 3);
        // Exactly half the lookups hit: sweep 1 lowers, sweep 2 hits.
        assert_eq!(r2.model.cache.misses, r2.model.cache.hits);
        assert!((r2.model.cache.hit_rate - 0.5).abs() < 1e-12);
        for abi in &r2.model.abis {
            let class_retired: u64 = abi.classes.iter().map(|c| c.retired).sum();
            let class_cycles: u64 = abi.classes.iter().map(|c| c.cycles).sum();
            assert_eq!(class_retired, abi.retired, "{}: classes partition", abi.abi);
            assert_eq!(class_cycles, abi.cycles, "{}: cycles partition", abi.abi);
        }
        // v2 dispatch subsection: one row per ABI, histogram buckets
        // partition the block count, interiors + terminators tile the
        // lowered ops.
        assert_eq!(r2.model.dispatch.mode, DISPATCH_MODE);
        assert_eq!(r2.model.dispatch.abis.len(), 3);
        for d in &r2.model.dispatch.abis {
            assert!(d.blocks > 0, "{}: selection decodes to blocks", d.abi);
            assert!(d.interior_ops > 0 && d.terminators > 0);
            assert_eq!(
                d.size_hist.iter().sum::<u64>(),
                d.blocks,
                "{}: size_hist buckets partition the block count",
                d.abi
            );
            assert_eq!(d.blocks, d.terminators + d.fallthrough_blocks);
        }
        // The gated section is byte-identical regardless of --jobs.
        let m2 = serde_json::to_string(&r2.model).unwrap();
        let m4 = serde_json::to_string(&r4.model).unwrap();
        assert_eq!(m2, m4, "model section must not depend on --jobs");
        // Host sections exist but are not compared.
        assert!(r2.host.host_wall_seconds_jobs1 > 0.0);
        for rate in &r2.host.host_abi_rates {
            assert!(
                rate.host_insts_per_sec > 0.0 && rate.host_insts_per_sec_timed > 0.0,
                "{}: both throughput legs must be measured",
                rate.abi
            );
        }
        assert_eq!(compare(&r2, &r4, 0.0).regressions.len(), 0);
    }

    #[test]
    fn parallel_speedup_exceeds_one_on_multicore() {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        if jobs < 2 {
            // Single-CPU host: the pool clamps both sweeps to one
            // worker running the identical serial schedule, so the
            // ratio is 1.0 ± wall-clock noise and asserting on it
            // would only test the noise floor (see
            // `HostSection::host_parallel_speedup`).
            eprintln!("parallel_speedup_exceeds_one_on_multicore: skipped (1 CPU)");
            return;
        }
        let workloads = select(&TABLE3_KEYS);
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let cache = ProgramCache::new();
        // Warm the lowered-program cache so both timed sweeps below
        // are execution-only and differ by worker count alone.
        run_suite_traced(
            &runner,
            &workloads,
            &cache,
            &SuiteConfig::with_jobs(jobs),
            None,
            &NullSpanSink,
        )
        .expect("warm sweep runs");
        let best_of = |j: usize| {
            (0..3)
                .map(|_| {
                    let started = Instant::now();
                    run_suite_traced(
                        &runner,
                        &workloads,
                        &cache,
                        &SuiteConfig::with_jobs(j),
                        None,
                        &NullSpanSink,
                    )
                    .expect("timed sweep runs");
                    started.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let serial = best_of(1);
        let parallel = best_of(jobs);
        assert!(
            serial / parallel > 1.0,
            "full-matrix warm speedup at jobs={jobs} was {:.3} (serial {serial:.3}s, parallel {parallel:.3}s)",
            serial / parallel
        );
    }

    #[test]
    fn compare_flags_injected_regression() {
        let base = quick_report(2);
        let mut slow = base.clone();
        // Inject a 20% cycle regression on one ABI — past a 10% gate.
        slow.model.abis[2].cycles = slow.model.abis[2].cycles * 12 / 10;
        let outcome = compare(&base, &slow, 10.0);
        assert!(
            outcome
                .regressions
                .iter()
                .any(|d| d.metric.ends_with(".cycles") && d.pct > 10.0),
            "20% cycle growth must trip a 10% gate: {:?}",
            outcome.regressions
        );
        // The same pair passes a looser gate but still shows the diff.
        let loose = compare(&base, &slow, 50.0);
        assert!(loose.regressions.is_empty());
        assert!(!loose.diffs.is_empty());
        // Identical reports are clean at any threshold.
        let clean = compare(&base, &base, 0.0);
        assert!(clean.diffs.is_empty() && clean.regressions.is_empty());
    }

    #[test]
    fn doc_kind_reads_the_discriminator_and_defaults_to_interp() {
        assert_eq!(doc_kind(r#"{"schema_version": 2, "model": {}}"#), "interp");
        assert_eq!(doc_kind(r#"{"kind": "service", "abis": []}"#), "service");
        assert_eq!(doc_kind(r#"{"kind": "resilience"}"#), "resilience");
        assert_eq!(doc_kind(r#"{"kind": "mystery"}"#), "mystery");
        assert_eq!(doc_kind(r#"{"kind": 3}"#), "interp");
        assert_eq!(doc_kind("[1, 2]"), "interp");
        assert_eq!(doc_kind("not json at all"), "interp");
    }
}
