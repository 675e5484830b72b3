//! End-to-end and per-layer host-time benchmark of the Morello simulator.
//!
//! ```text
//! perfbench --workload suite|faults|serve --seed N --seconds S --trace 0|1
//! perfbench --workload faults|serve --write-oracle --seeds A-B [--held-out N]
//! perfbench --workload suite --write-oracle
//! ```
//!
//! Untraced (`--trace 0`): runs closed-loop passes of the workload on at
//! most two workers for `--seconds`, timing the set-up (build and lower
//! every program) after each pass, checks every pass against the stored
//! oracle and prints the end-to-end metrics. Traced (`--trace 1`):
//! alternates untraced and traced sequential passes, takes every program
//! through the layer legs, writes the spans under `out/` and prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See README.md for the metrics and why each workload is there.

mod common;
mod faults;
mod layers;
mod oracle;
mod replay;
mod serve;
mod stats;
mod suite;
mod trace;

use common::{peak_rss_mb, slowdown_err, timed, Cell, Pass, Programs, Tr};
use oracle::{digest, Oracle, Verdict, SEED_FREE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Batches of set-ups timed after each pass. Spreading them over the
/// run, rather than timing them in one burst, lets the reported median see
/// the same host conditions as the passes.
const SETUP_BATCHES_PER_PASS: usize = 4;

/// Set-ups in one batch. One sample of `setup_s` is a batch's mean, so a
/// single slow set-up (the first after a pass finds cold caches) moves its
/// sample by an eighth, not the whole sample.
const SETUPS_PER_BATCH: usize = 8;

/// Workers per pass, at most: the host the benchmark was written on has
/// two CPUs.
const MAX_JOBS: usize = 2;

/// Untraced and traced pass pairs a traced run makes, at least.
const MIN_TRACED_PAIRS: usize = 2;

/// Host seconds of untimed passes before any timing.
const WARMUP_S: f64 = 2.0;

enum Bench {
    Suite(suite::Suite),
    Faults(faults::Faults),
    Serve(serve::Serve),
}

impl Bench {
    fn new(name: &str, seed: u64, jobs: usize) -> Option<Bench> {
        Some(match name {
            "suite" => Bench::Suite(suite::Suite::new()),
            "faults" => Bench::Faults(faults::Faults::new(seed, jobs)),
            "serve" => Bench::Serve(serve::Serve::new(seed)),
            _ => return None,
        })
    }

    /// Builds and lowers every program into a fresh cache; returns the
    /// host seconds that took.
    fn setup(&mut self) -> f64 {
        match self {
            Bench::Suite(b) => b.programs.setup(),
            Bench::Faults(b) => b.programs.setup(),
            Bench::Serve(b) => b.programs.setup(),
        }
    }

    fn pass(&self, jobs: usize, tr: Option<Tr<'_>>) -> Pass {
        match self {
            Bench::Suite(b) => b.pass(jobs, tr),
            Bench::Faults(b) => b.pass(jobs, tr),
            Bench::Serve(b) => b.pass(jobs, tr),
        }
    }

    /// The oracle key of this run: the seed, except for the seed-free suite.
    fn oracle_key(&self, seed: u64) -> String {
        match self {
            Bench::Suite(_) => SEED_FREE.to_owned(),
            _ => seed.to_string(),
        }
    }

    /// The expected lines from the program's own entry points.
    fn reference_lines(&self, jobs: usize) -> Vec<String> {
        match self {
            Bench::Suite(b) => b.reference_lines(jobs),
            Bench::Faults(b) => b.reference_lines(jobs),
            Bench::Serve(b) => b.pass(jobs, None).lines,
        }
    }

    fn slowdowns(&self, pass: &Pass) -> Vec<(&'static str, f64)> {
        match self {
            Bench::Faults(b) => b.slowdowns(),
            _ => pass.slowdowns.clone(),
        }
    }

    fn programs(&self) -> &Programs {
        match self {
            Bench::Suite(b) => &b.programs,
            Bench::Faults(b) => &b.programs,
            Bench::Serve(b) => &b.programs,
        }
    }

    /// The named cells the observer legs run on, and how many times.
    fn observer_cells(&self) -> (Vec<Cell>, usize) {
        let cells = &self.programs().cells;
        let purecap = |keys: &[&str]| -> Vec<Cell> {
            cells
                .iter()
                .filter(|c| c.abi == cheri_isa::Abi::Purecap && keys.contains(&c.w.key))
                .cloned()
                .collect()
        };
        match self {
            // Five pointer-heavy suite cells at small scale.
            Bench::Suite(_) => (
                purecap(&[
                    "omnetpp_520",
                    "xz_557",
                    "sqlite",
                    "deepsjeng_531",
                    "lbm_519",
                ]),
                2,
            ),
            Bench::Faults(_) => (purecap(&faults::KEYS), 6),
            Bench::Serve(_) => (purecap(&morello_serve::SHAPE_KEYS), 6),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_oracle: bool,
    seeds: Option<(u64, u64)>,
    held_out: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_oracle: false,
        seeds: None,
        held_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-oracle" {
            args.write_oracle = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? != 0,
            "--held-out" => args.held_out = Some(num(&value)?),
            "--seeds" => {
                let (a, b) = value
                    .split_once('-')
                    .ok_or_else(|| format!("--seeds wants A-B, got {value}"))?;
                args.seeds = Some((num(a)?, num(b)?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS));
    let Some(mut bench) = Bench::new(&args.workload, args.seed, jobs) else {
        eprintln!("perfbench: --workload must be suite, faults or serve");
        std::process::exit(2);
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("oracle")
        .join(format!("{}.json", args.workload));
    if args.write_oracle {
        write_oracle(&args, &bench, jobs, &path);
        return;
    }
    let oracle = Oracle::load(&path).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ok = if args.trace {
        traced_run(&args, &mut bench, &oracle, jobs)
    } else {
        untraced_run(&args, &mut bench, &oracle, jobs)
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Counts the cells of `pass` that failed or whose output mismatched.
/// `reference` supplies expected lines when the oracle lacks the seed.
fn failed_cells(
    pass: &Pass,
    oracle: &Oracle,
    key: &str,
    reference: &mut dyn FnMut() -> Vec<String>,
    notes: &mut Vec<String>,
) -> usize {
    notes.extend(pass.notes.iter().cloned());
    let verdict = match oracle.check(key, &pass.lines) {
        Verdict::Unknown => {
            let mut fallback = Oracle::default();
            fallback.full.insert(key.to_owned(), reference());
            fallback.check(key, &pass.lines)
        }
        v => v,
    };
    let mismatched = match &verdict {
        Verdict::Match | Verdict::Unknown => 0,
        Verdict::Digest => pass.attempted,
        Verdict::Lines(bad) => bad
            .iter()
            .map(|&i| pass.line_cells.get(i).copied().unwrap_or(1))
            .sum(),
    };
    if mismatched > 0 {
        notes.push(format!("output mismatch ({verdict:?})"));
    }
    pass.errors.max(mismatched).min(pass.attempted)
}

fn metric(name: &str, value: f64, unit: &str) -> (String, serde_json::JsonValue) {
    use serde::Serialize;
    let body = BTreeMap::from([("unit", unit.serialize()), ("value", value.serialize())]);
    (name.to_owned(), body.serialize())
}

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, serde_json::JsonValue)>,
) {
    use serde::Serialize;
    let out = serde_json::JsonValue::Map(vec![
        ("correct".into(), correct.serialize()),
        ("attempted".into(), attempted.serialize()),
        ("failed".into(), failed.serialize()),
        ("metrics".into(), serde_json::JsonValue::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("result serialises")
    );
}

/// Runs untimed passes for at least [`WARMUP_S`] so the host has both
/// CPUs at full speed before anything is timed: from idle, the first
/// couple of seconds of two busy threads run at about half speed here.
fn warm_up(bench: &mut Bench, jobs: usize) {
    bench.setup();
    let start = Instant::now();
    // `faults` counts its campaign's instructions in one full pass, which
    // warms the host as well as any.
    if let Bench::Faults(f) = bench {
        f.count_sim_insts(jobs);
    }
    while start.elapsed().as_secs_f64() < WARMUP_S {
        std::hint::black_box(bench.pass(jobs, None));
    }
}

fn untraced_run(args: &Args, bench: &mut Bench, oracle: &Oracle, jobs: usize) -> bool {
    warm_up(bench, jobs);
    let min_passes = if matches!(bench, Bench::Serve(_)) {
        3
    } else {
        2
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(bench.pass(jobs, None));
        for _ in 0..SETUP_BATCHES_PER_PASS {
            let batch: f64 = (0..SETUPS_PER_BATCH).map(|_| bench.setup()).sum();
            setups.push(batch / SETUPS_PER_BATCH as f64);
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let key = bench.oracle_key(args.seed);
    let mut reference: Option<Vec<String>> = None;
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for p in &passes {
        attempted += p.attempted;
        failed += failed_cells(
            p,
            oracle,
            &key,
            &mut || {
                reference
                    .get_or_insert_with(|| bench.reference_lines(1))
                    .clone()
            },
            &mut notes,
        );
    }
    if reference.is_none() && oracle.check(&key, &passes[0].lines) == Verdict::Match {
        println!("oracle: stored expected values for key {key}");
    } else if reference.is_some() {
        println!("oracle: no stored values for seed {key}; checked against the program's own entry point on one worker");
    }

    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let cell = stats::summarize(&cells);
    let wall = stats::summarize(&walls);
    let setup = stats::summarize(&setups);
    let sim = per_pass(&|p| p.sim_insts as f64 / p.wall / 1e6);
    let work = per_pass(&|p| p.work as f64 / p.wall);
    let rss = peak_rss_mb();
    let model_err = slowdown_err(&bench.slowdowns(&passes[0])).unwrap_or(f64::NAN);
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let work_name = match bench {
        Bench::Suite(_) => "suite runs",
        Bench::Faults(_) => "classified injected runs (fault_runs_per_s)",
        Bench::Serve(_) => "simulated requests (serve_requests_per_s)",
    };
    println!(
        "workload {} seed {} | {} passes in {measured_s:.1} s on {jobs} workers | host time unless marked simulated",
        args.workload, args.seed, passes.len()
    );
    println!(
        "  setup_s             {:.4} s     set-up: {setup}",
        setup.p50
    );
    println!(
        "  wall_s              {:.4} s     per pass: {wall}",
        wall.p50
    );
    println!(
        "  cell_ms_p50         {:.4} ms    per cell: {cell}",
        cell.p50
    );
    match cell.tail {
        Some((q, v)) => println!("  cell_ms_p{:<3}        {v:.4} ms", q * 100.0),
        None => println!(
            "  cell_ms_p90         unresolved: {} cells, p90 needs 100",
            cell.n
        ),
    }
    println!("  sim_minsts_per_s    {sim:.4} Minst/s  simulated instructions per host second");
    println!("  work_per_s          {work:.4} 1/s   {work_name}");
    println!("  peak_rss_mb         {rss:.1} MB");
    println!("  error_rate          {error_rate} ({failed} of {attempted} cells)");
    println!("  model_slowdown_err  {model_err:.4}      simulated: purecap/hybrid vs the paper (calibration data)");
    for (name, v, unit) in &passes[passes.len() - 1].extra {
        println!("  {name:<19} {v:.4} {unit}");
    }
    for n in &notes {
        println!("  ! {n}");
    }
    print_result(
        failed == 0,
        attempted,
        failed,
        vec![
            metric("setup_s", setup.p50, "s"),
            metric("wall_s", wall.p50, "s"),
            metric("cell_ms_p50", cell.p50, "ms"),
            metric("sim_minsts_per_s", sim, "Minst/s"),
            metric("work_per_s", work, "1/s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("model_slowdown_err", model_err, "ratio"),
        ],
    );
    failed == 0
}

/// Self time per layer over the subtrees of `roots`, summed.
fn subtree_layer_self(
    spans: &[trace::Span],
    selfs: &[f64],
    roots: &[usize],
) -> BTreeMap<&'static str, f64> {
    let mut under = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for s in spans {
        under[s.id] = roots.contains(&s.id) || s.parent.is_some_and(|p| under[p]);
        if under[s.id] {
            *out.entry(s.layer).or_insert(0.0) += selfs[s.id];
        }
    }
    out
}

/// Whether `inside`, the median host seconds spent inside the layer calls
/// of a traced pass (its wall minus the pass's own self time), accounts
/// for the untraced pass walls `untraced`: it must lie within the tracing
/// overhead, |`traced_wall` − untraced median|, plus the range of the
/// untraced walls themselves. Work a pass does outside any layer call
/// shows as a shortfall. Returns the verdict and the tolerance.
fn accounts_for(inside: f64, traced_wall: f64, untraced: &[f64]) -> (bool, f64) {
    let wall_u = stats::median(untraced);
    let range = untraced.iter().copied().fold(f64::MIN, f64::max)
        - untraced.iter().copied().fold(f64::MAX, f64::min);
    let tolerance = (traced_wall - wall_u).abs() + range;
    ((inside - wall_u).abs() <= tolerance, tolerance)
}

fn traced_run(args: &Args, bench: &mut Bench, oracle: &Oracle, jobs: usize) -> bool {
    warm_up(bench, jobs);
    let tracer = Tracer::new();
    tracer.span("setup", "build and lower every cell", None, None, |_| {
        bench.setup()
    });
    let bench = &*bench;
    let key = bench.oracle_key(args.seed);
    let mut reference: Option<Vec<String>> = None;
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let (mut untraced, mut traced_walls, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Pass::default();
    let traced_pass = || {
        tracer.span("core.pass", "traced pass", None, None, |root| {
            let tr = Tr {
                tracer: &tracer,
                parent: root,
            };
            (bench.pass(1, Some(tr)), root)
        })
    };
    let start = Instant::now();
    while roots.len() < MIN_TRACED_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate which of the pair runs first, so drift in host speed
        // does not read as tracing overhead.
        let (plain, (pass, root)) = if roots.len() % 2 == 0 {
            (bench.pass(1, None), traced_pass())
        } else {
            let traced = traced_pass();
            (bench.pass(1, None), traced)
        };
        for p in [&plain, &pass] {
            attempted += p.attempted;
            failed += failed_cells(
                p,
                oracle,
                &key,
                &mut || {
                    reference
                        .get_or_insert_with(|| bench.reference_lines(1))
                        .clone()
                },
                &mut notes,
            );
        }
        untraced.push(plain.wall);
        traced_walls.push(tracer.secs(root));
        roots.push(root);
        last = pass;
    }

    let Programs {
        platform,
        cells,
        cache,
        lowered,
    } = bench.programs();
    let platform = *platform;
    let legs = layers::program_legs(&tracer, platform, cells, lowered);
    for m in &legs.mismatches {
        notes.push(format!("replay: {m}"));
    }
    failed += legs.mismatches.len();
    attempted += cells.len();
    let (obs_cells, reps) = bench.observer_cells();
    let (sampling, profiling) = layers::observer_ratios(&tracer, platform, &obs_cells, cache, reps);
    let mut extra = last.extra.clone();
    if let Bench::Serve(s) = bench {
        let profile_s = tracer.span(
            "serve.profile_legs",
            "profile_shapes per ABI",
            None,
            None,
            |root| {
                s.profile_legs(Tr {
                    tracer: &tracer,
                    parent: root,
                })
            },
        );
        let sweeps_s: f64 = extra.iter().map(|(_, v, _)| v).sum();
        let des_s = sweeps_s - profile_s;
        extra.push(("serve.profile_s", profile_s, "s"));
        extra.push(("serve.des_s", des_s, "s"));
        extra.push(("serve.des_requests_per_s", last.work as f64 / des_s, "1/s"));
    }

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let overhead_s = stats::median(&roots.iter().map(|&r| selfs[r]).collect::<Vec<_>>());
    let wall_u = stats::median(&untraced);
    let wall_t = stats::median(&traced_walls);
    let tracing = wall_t / wall_u;
    let inside = stats::median(
        &roots
            .iter()
            .map(|&r| tracer.secs(r) - selfs[r])
            .collect::<Vec<_>>(),
    );
    let (accounted, tolerance) = accounts_for(inside, wall_t, &untraced);
    if !accounted {
        notes.push(format!(
            "layer calls account for {inside:.4} s of a {wall_u:.4} s untraced pass, \
             off by more than {tolerance:.4} s"
        ));
        failed += 1;
    }
    let pass_layers = subtree_layer_self(&spans, &selfs, &roots);
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace::write_jsonl(&spans, &out) {
        notes.push(format!("cannot write spans: {e}"));
    }

    let s = |layer: &str| legs.secs.get(layer).copied().unwrap_or(0.0);
    let replay_s = s("uarch.replay");
    let k = legs.counts;
    let per_layer = vec![
        metric("workloads.build_ms", s("workloads.build") * 1e3, "ms"),
        metric("isa.lower_ms", s("isa.lower") * 1e3, "ms"),
        metric("isa.decode_ms", s("isa.decode") * 1e3, "ms"),
        metric("isa.engine_s", s("isa.engine"), "s"),
        metric(
            "isa.engine_minsts_per_s",
            legs.retired as f64 / s("isa.engine") / 1e6,
            "Minst/s",
        ),
        metric(
            "isa.refexec_minsts_per_s",
            legs.retired as f64 / s("isa.refexec") / 1e6,
            "Minst/s",
        ),
        metric("uarch.replay_s", replay_s, "s"),
        metric(
            "uarch.ns_per_event",
            replay_s / legs.events.max(1) as f64 * 1e9,
            "ns",
        ),
        metric(
            "isa.sink_handoff_s",
            s("core.run_lowered") - s("isa.engine") - replay_s,
            "s",
        ),
        metric("pmu.fold_us", s("pmu.fold") * 1e6, "us"),
        metric("uarch.events", k.events as f64, "count"),
        metric("uarch.l1d_misses", k.l1d_misses as f64, "count"),
        metric("uarch.l2_misses", k.l2_misses as f64, "count"),
        metric("uarch.dtlb_walks", k.dtlb_walks as f64, "count"),
        metric("uarch.br_mispredicts", k.br_mispredicts as f64, "count"),
        metric("mem.pages_touched", k.pages_touched as f64, "count"),
        metric("revoke.epochs", k.revoke_epochs as f64, "count"),
        metric("core.pass_overhead_s", overhead_s, "s"),
        metric("obs.sampling_overhead", sampling, "ratio"),
        metric("obs.profiling_overhead", profiling, "ratio"),
        metric("trace.overhead", tracing, "ratio"),
    ];

    println!(
        "traced run: workload {} seed {} | {} untraced + {} traced sequential passes, {} programs through the layer legs",
        args.workload,
        args.seed,
        untraced.len(),
        roots.len(),
        cells.len()
    );
    println!(
        "self time per layer in a traced pass (s, mean over {} passes):",
        roots.len()
    );
    for (layer, t) in &pass_layers {
        println!("  {layer:<26} {:>10.4}", t / roots.len() as f64);
    }
    println!(
        "  {:<26} {:>10.4}  = traced pass wall; untraced pass wall {wall_u:.4} s (medians), \
         tracing overhead {:+.2}%",
        "sum",
        pass_layers.values().sum::<f64>() / roots.len() as f64,
        (tracing - 1.0) * 100.0
    );
    println!(
        "  layer calls {inside:.4} s vs untraced pass {wall_u:.4} s: {} (tolerance {tolerance:.4} s \
         = |traced - untraced| + untraced range)",
        if accounted { "accounted" } else { "NOT accounted" }
    );
    let pairs: Vec<String> = untraced
        .iter()
        .zip(&traced_walls)
        .map(|(u, t)| format!("{u:.3}/{t:.3}"))
        .collect();
    println!("  pass pairs, untraced/traced s: {}", pairs.join(" "));
    println!("self time per layer over the whole traced run (s):");
    for (layer, t) in trace::layer_self_times(&spans) {
        println!("  {layer:<26} {t:>10.4}");
    }
    let timed_s = s("core.run_lowered");
    println!("split of the timed run over the layer legs ({timed_s:.4} s):");
    for (name, v) in [
        ("isa.decode", s("isa.decode")),
        (
            "isa.dispatch (engine - decode)",
            s("isa.engine") - s("isa.decode"),
        ),
        ("uarch.replay (timing core)", replay_s),
        ("isa.sink_handoff", timed_s - s("isa.engine") - replay_s),
    ] {
        println!("  {name:<32} {v:>9.4} s {:>6.1}%", v / timed_s * 100.0);
    }
    for (name, v) in &per_layer {
        println!("  {name:<26} {}", serde_json::to_string(v).expect("metric"));
    }
    for (name, v, unit) in &extra {
        println!("  {name:<26} {v:.4} {unit}");
    }
    println!(
        "  revoke.sweep_granules      {} count (0 unless an allocator sweeps tags)",
        k.sweep_granules
    );
    if let Bench::Suite(_) = bench {
        let (hits, misses) = (cache.hits(), cache.misses());
        println!(
            "  core.cache_hit_rate        {:.4} ({hits} hits, {misses} misses)",
            hits as f64 / (hits + misses).max(1) as f64
        );
    }
    println!("  spans: {}", out.display());
    for n in &notes {
        println!("  ! {n}");
    }
    print_result(failed == 0, attempted, failed, per_layer);
    failed == 0
}

fn write_oracle(args: &Args, bench: &Bench, jobs: usize, path: &std::path::Path) {
    let mut o = Oracle {
        held_out_seed: args.held_out,
        ..Oracle::default()
    };
    match bench {
        Bench::Suite(_) => {
            o.note = "suite is seed-free: retired, cpu_cycles and exit code of every \
                      registry cell at small scale, from Runner::run"
                .into();
            o.full.insert(SEED_FREE.into(), bench.reference_lines(jobs));
        }
        _ => {
            o.note = match bench {
                Bench::Faults(_) => {
                    "fig. 9 coverage table lines from run_coverage, by campaign seed"
                }
                _ => "service_metrics and resilience_metrics of the full sweeps, by sweep seed",
            }
            .into();
            let (a, b) = args.seeds.unwrap_or((0, 0));
            for seed in a..=b {
                let (lines, secs) = timed(|| {
                    Bench::new(&args.workload, seed, jobs)
                        .expect("workload checked")
                        .reference_lines(jobs)
                });
                o.digests.insert(seed.to_string(), digest(&lines));
                eprintln!(
                    "seed {seed}: {} ({secs:.2} s)",
                    o.digests[&seed.to_string()]
                );
            }
            if let Some(h) = args.held_out {
                let lines = Bench::new(&args.workload, h, jobs)
                    .expect("workload checked")
                    .reference_lines(jobs);
                o.full.insert(h.to_string(), lines);
            }
        }
    }
    if let Err(e) = o.save(path) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_calls_must_account_for_the_untraced_pass() {
        // Untraced passes of 1.00 and 1.10 s, traced ones of 1.08 s.
        let untraced = [1.0, 1.1];
        let (ok, tolerance) = accounts_for(1.07, 1.08, &untraced);
        assert!(ok);
        assert!((tolerance - 0.13).abs() < 1e-9, "{tolerance}");
        // A pass that spends 0.3 s outside its layer calls is caught.
        assert!(!accounts_for(0.78, 1.08, &untraced).0);
        // So are layer calls that claim more time than the pass had.
        assert!(!accounts_for(1.4, 1.08, &untraced).0);
    }

    #[test]
    fn corrupted_expected_value_counts_its_cells_as_failed() {
        let pass = Pass {
            lines: vec!["a/r50 runs=2".into(), "a/r200 runs=2".into()],
            line_cells: vec![2, 2],
            attempted: 4,
            ..Pass::default()
        };
        let mut oracle = Oracle::default();
        oracle.full.insert("5".into(), pass.lines.clone());
        let mut notes = Vec::new();
        let mut no_reference = || -> Vec<String> { unreachable!("seed is stored") };
        assert_eq!(
            failed_cells(&pass, &oracle, "5", &mut no_reference, &mut notes),
            0
        );

        oracle.full.get_mut("5").unwrap()[1] = "a/r200 runs=3".into();
        assert_eq!(
            failed_cells(&pass, &oracle, "5", &mut no_reference, &mut notes),
            2
        );
        assert_eq!(notes.len(), 1, "the mismatch is reported");

        let mut digests = Oracle::default();
        digests
            .digests
            .insert("5".into(), digest(&["other".to_owned()]));
        assert_eq!(
            failed_cells(&pass, &digests, "5", &mut no_reference, &mut notes),
            4
        );

        let mut reference = || vec!["a/r50 runs=2".to_owned(), "a/r200 runs=9".to_owned()];
        let empty = Oracle::default();
        assert_eq!(
            failed_cells(&pass, &empty, "6", &mut reference, &mut notes),
            2
        );
    }
}
