//! Generators for every table and figure of the paper's evaluation.

use cheri_isa::Abi;
use cheri_workloads::by_key;
use morello_pmu::{correlation_matrix, fmt_metric, PmuEvent, Table};
use morello_sim::suite::SuiteRow;
use morello_sim::RunReport;
use serde::Serialize;

fn pct(v: f64) -> String {
    fmt_metric(v * 100.0)
}

/// Figure 1: overall execution performance normalised to hybrid.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Row {
    /// Workload name.
    pub name: String,
    /// Hybrid execution time in (simulated) seconds.
    pub hybrid_seconds: f64,
    /// benchmark-ABI time normalised to hybrid (`None` = NA).
    pub benchmark_norm: Option<f64>,
    /// purecap time normalised to hybrid.
    pub purecap_norm: Option<f64>,
}

/// Builds Figure 1 from suite results.
pub fn fig1_overall(rows: &[SuiteRow]) -> (Table, Vec<Fig1Row>) {
    let mut t = Table::new(&[
        "Benchmark",
        "hybrid (s)",
        "benchmark (norm)",
        "purecap (norm)",
    ]);
    let mut data = Vec::new();
    for r in rows {
        // Hybrid underpins every normalisation; a row without it cannot
        // be plotted.
        let Some(h) = r.get(Abi::Hybrid) else {
            continue;
        };
        let bm = r.normalized_time(Abi::Benchmark);
        let pc = r.normalized_time(Abi::Purecap);
        t.row(&[
            r.name.clone(),
            format!("{:.3}", h.seconds),
            bm.map_or("NA".into(), |v| format!("{v:.3}")),
            pc.map_or("NA".into(), |v| format!("{v:.3}")),
        ]);
        data.push(Fig1Row {
            name: r.name.clone(),
            hybrid_seconds: h.seconds,
            benchmark_norm: bm,
            purecap_norm: pc,
        });
    }
    (t, data)
}

/// Figure 2: binary-section sizes normalised to hybrid (median across
/// workloads), with absolute sizes for sections absent under hybrid.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Row {
    /// Section name.
    pub section: String,
    /// Median benchmark/hybrid size ratio (`None`: absent in hybrid).
    pub benchmark_ratio: Option<f64>,
    /// Median purecap/hybrid size ratio.
    pub purecap_ratio: Option<f64>,
    /// Median absolute size under purecap in bytes (for hybrid-absent
    /// sections).
    pub purecap_bytes: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Builds Figure 2.
pub fn fig2_binsize(rows: &[SuiteRow]) -> (Table, Vec<Fig2Row>) {
    let mut t = Table::new(&[
        "Section",
        "benchmark/hybrid",
        "purecap/hybrid",
        "purecap bytes (median)",
    ]);
    let mut data = Vec::new();
    let n_sections = rows
        .first()
        .and_then(|r| r.get(Abi::Hybrid))
        .map(|h| h.binary.named().len())
        .unwrap_or(0);
    for s in 0..n_sections + 1 {
        let mut ratios_bm = Vec::new();
        let mut ratios_pc = Vec::new();
        let mut abs_pc = Vec::new();
        let mut name = String::from("total");
        let mut hybrid_present = false;
        for r in rows {
            let (Some(h), Some(p)) = (r.get(Abi::Hybrid), r.get(Abi::Purecap)) else {
                continue;
            };
            let (h_sz, p_sz, bm_sz) = if s == n_sections {
                let bm = r.get(Abi::Benchmark).map(|b| b.binary.total());
                (h.binary.total(), p.binary.total(), bm)
            } else {
                name = h.binary.named()[s].0.to_owned();
                let bm = r.get(Abi::Benchmark).map(|b| b.binary.named()[s].1);
                (h.binary.named()[s].1, p.binary.named()[s].1, bm)
            };
            abs_pc.push(p_sz as f64);
            if h_sz > 0 {
                hybrid_present = true;
                ratios_pc.push(p_sz as f64 / h_sz as f64);
                if let Some(bm) = bm_sz {
                    ratios_bm.push(bm as f64 / h_sz as f64);
                }
            }
        }
        let row = Fig2Row {
            section: name.clone(),
            benchmark_ratio: hybrid_present.then(|| median(ratios_bm)),
            purecap_ratio: hybrid_present.then(|| median(ratios_pc)),
            purecap_bytes: median(abs_pc) as u64,
        };
        t.row(&[
            name,
            row.benchmark_ratio
                .map_or("absolute".into(), |v| format!("{v:.2}x")),
            row.purecap_ratio
                .map_or("absolute".into(), |v| format!("{v:.2}x")),
            format!("{}", row.purecap_bytes),
        ]);
        data.push(row);
    }
    (t, data)
}

/// Figure 3 / Table 4: the top-down breakdown, one column group per
/// workload, three values per cell (hybrid, benchmark, purecap — the
/// paper's comma convention; NA printed for missing cells).
pub fn fig3_table4_topdown(rows: &[SuiteRow]) -> Table {
    type Metric = fn(&RunReport, Option<f64>) -> String;
    let metrics: [(&str, Metric); 12] = [
        ("Execution Time (s)", |r, _| format!("{:.4}", r.seconds)),
        // Normalised to the hybrid run's time, like the paper.
        ("Speedup", |r, hybrid_seconds| {
            hybrid_seconds.map_or("NA".into(), |h| format!("{:.3}", h / r.seconds))
        }),
        ("IPC", |r, _| fmt_metric(r.derived.ipc)),
        ("Retiring", |r, _| fmt_metric(r.topdown.retiring)),
        ("Bad Spec", |r, _| fmt_metric(r.topdown.bad_speculation)),
        ("Frontend Bound", |r, _| {
            fmt_metric(r.topdown.frontend_bound)
        }),
        ("Backend Bound", |r, _| fmt_metric(r.topdown.backend_bound)),
        ("+ Memory Bound", |r, _| fmt_metric(r.topdown.memory_bound)),
        ("--- L1 Bound", |r, _| fmt_metric(r.topdown.l1_bound)),
        ("--- L2 Bound", |r, _| fmt_metric(r.topdown.l2_bound)),
        ("--- ExtMem Bound", |r, _| {
            fmt_metric(r.topdown.ext_mem_bound)
        }),
        ("+ Core Bound", |r, _| fmt_metric(r.topdown.core_bound)),
    ];
    let mut t = Table::new(&["Metric", "hybrid", "benchmark", "purecap", "Benchmark"]);
    for r in rows {
        let hybrid_seconds = r.get(Abi::Hybrid).map(|h| h.seconds);
        for (name, metric) in metrics {
            let mut cells = vec![name.to_owned()];
            cells.extend(Abi::ALL.map(|abi| {
                r.get(abi)
                    .map_or("NA".into(), |rep| metric(rep, hybrid_seconds))
            }));
            cells.push(r.name.clone());
            t.row(&cells);
        }
    }
    t
}

/// A table with one row per (workload, ABI) cell that ran: the
/// workload and ABI names, then `cells` of the cell's report.
fn per_cell_table(
    rows: &[SuiteRow],
    headers: &[&str],
    cells: impl Fn(&RunReport) -> Vec<String>,
) -> Table {
    let mut t = Table::new(headers);
    for r in rows {
        for abi in Abi::ALL {
            if let Some(rep) = r.get(abi) {
                let mut row = vec![r.name.clone(), abi.to_string()];
                row.extend(cells(rep));
                t.row(&row);
            }
        }
    }
    t
}

/// Figure 4: core-bound vs memory-bound percentages per workload and ABI.
pub fn fig4_bounds(rows: &[SuiteRow]) -> Table {
    let headers = ["Benchmark", "ABI", "Memory Bound %", "Core Bound %"];
    per_cell_table(rows, &headers, |rep| {
        vec![pct(rep.topdown.memory_bound), pct(rep.topdown.core_bound)]
    })
}

/// Figure 5: speculative-instruction-mix distribution per ABI, plus the
/// paper's headline deltas (DP_SPEC growth, LD/ST stability).
pub fn fig5_instmix(rows: &[SuiteRow]) -> Table {
    let headers = [
        "Benchmark",
        "ABI",
        "DP %",
        "LD %",
        "ST %",
        "VFP %",
        "ASE %",
        "BR %",
    ];
    per_cell_table(rows, &headers, |rep| {
        let s = &rep.stats;
        let br = s.br_immed_spec + s.br_indirect_spec + s.br_return_spec;
        [s.dp_spec, s.ld_spec, s.st_spec, s.vfp_spec, s.ase_spec, br]
            .map(|v| pct(v as f64 / s.inst_spec.max(1) as f64))
            .to_vec()
    })
}

/// Summary statistics for Figure 5's headline claim: the DP_SPEC share
/// grows under purecap while LD/ST shares stay stable.
#[derive(Clone, Debug, Serialize)]
pub struct InstMixShift {
    /// Minimum DP-share growth (percentage points) across workloads.
    pub dp_growth_min: f64,
    /// Maximum DP-share growth.
    pub dp_growth_max: f64,
    /// Standard deviation of the LD-share delta.
    pub ld_delta_std: f64,
    /// Standard deviation of the ST-share delta.
    pub st_delta_std: f64,
}

/// Computes the instruction-mix-shift summary.
pub fn fig5_shift_summary(rows: &[SuiteRow]) -> InstMixShift {
    let mut dp_growth = Vec::new();
    let mut ld_delta = Vec::new();
    let mut st_delta = Vec::new();
    for r in rows {
        let (Some(h), Some(p)) = (r.get(Abi::Hybrid), r.get(Abi::Purecap)) else {
            continue;
        };
        let share = |s: &morello_uarch::UarchStats, v: u64| v as f64 / s.inst_spec.max(1) as f64;
        dp_growth
            .push((share(&p.stats, p.stats.dp_spec) - share(&h.stats, h.stats.dp_spec)) * 100.0);
        ld_delta
            .push((share(&p.stats, p.stats.ld_spec) - share(&h.stats, h.stats.ld_spec)) * 100.0);
        st_delta
            .push((share(&p.stats, p.stats.st_spec) - share(&h.stats, h.stats.st_spec)) * 100.0);
    }
    let std = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len().max(1) as f64;
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len().max(1) as f64).sqrt()
    };
    InstMixShift {
        dp_growth_min: dp_growth.iter().copied().fold(f64::INFINITY, f64::min),
        dp_growth_max: dp_growth.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ld_delta_std: std(&ld_delta),
        st_delta_std: std(&st_delta),
    }
}

/// Figure 6: memory-bound analysis — which level of the hierarchy the
/// backend-memory stalls come from.
pub fn fig6_membound(rows: &[SuiteRow]) -> Table {
    let headers = [
        "Benchmark",
        "ABI",
        "L1 %",
        "L2 %",
        "ExtMem %",
        "of total cycles %",
    ];
    per_cell_table(rows, &headers, |rep| {
        let m = rep.topdown.memory_bound.max(1e-12);
        vec![
            pct(rep.topdown.l1_bound / m),
            pct(rep.topdown.l2_bound / m),
            pct(rep.topdown.ext_mem_bound / m),
            pct(rep.topdown.memory_bound),
        ]
    })
}

/// Figure 7: Pearson correlation matrix across derived metrics, computed
/// over the workload population for one ABI.
pub fn fig7_correlation(rows: &[SuiteRow], abi: Abi) -> (Table, Vec<Vec<f64>>) {
    let mut labels: Vec<&'static str> = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for r in rows {
        if let Some(rep) = r.get(abi) {
            let lv = rep.derived.labelled();
            if labels.is_empty() {
                labels = lv.iter().map(|(l, _)| *l).collect();
                series = vec![Vec::new(); labels.len()];
            }
            for (i, (_, v)) in lv.iter().enumerate() {
                series[i].push(*v);
            }
        }
    }
    let m = correlation_matrix(&series);
    let mut headers = vec!["metric"];
    headers.extend(labels.iter().copied());
    let mut t = Table::new(&headers);
    for (i, l) in labels.iter().enumerate() {
        let mut row = vec![l.to_string()];
        row.extend(m[i].iter().map(|v| format!("{v:+.2}")));
        t.row(&row);
    }
    (t, m)
}

/// Table 2: memory-intensity classification, with the paper's value for
/// comparison.
pub fn table2_memory_intensity(rows: &[SuiteRow]) -> Table {
    let mut t = Table::new(&[
        "Benchmark",
        "MI (measured)",
        "MI (paper)",
        "class",
        "quar hwm (KiB)",
        "epochs",
    ]);
    for r in rows {
        if let Some(h) = r.get(Abi::Hybrid) {
            let paper = by_key(&r.key)
                .and_then(|w| w.table2_mi)
                .map_or("-".to_owned(), |v| format!("{v:.3}"));
            // Quarantine columns come from the purecap run: the hybrid
            // ABI always uses the classic (non-quarantining) allocator.
            let (quar, epochs) = r.get(Abi::Purecap).map_or(("-".into(), "-".into()), |p| {
                (
                    format!("{:.1}", p.heap.quarantine_bytes_hwm as f64 / 1024.0),
                    p.heap.revocation_epochs.to_string(),
                )
            });
            t.row(&[
                r.name.clone(),
                format!("{:.3}", h.derived.memory_intensity),
                paper,
                h.derived.intensity_class().to_owned(),
                quar,
                epochs,
            ]);
        }
    }
    t
}

/// Table 3: aggregated key metrics for the representative workloads. Each
/// metric prints three lines (hybrid, benchmark, purecap), like the
/// paper's stacked cells.
pub fn table3_key_metrics(rows: &[SuiteRow]) -> Table {
    let mut headers = vec!["Metric", "ABI"];
    headers.extend(rows.iter().map(|r| r.name.as_str()));
    let mut t = Table::new(&headers);

    type Getter = fn(&RunReport) -> f64;
    let metrics: [(&str, Getter); 11] = [
        ("Execution Time (s)", |r| r.seconds),
        ("IPC", |r| r.derived.ipc),
        ("Branch MR (%)", |r| {
            r.derived.branch_mispredict_rate * 100.0
        }),
        ("L1I MR (%)", |r| r.derived.l1i_miss_rate * 100.0),
        ("L1D MR (%)", |r| r.derived.l1d_miss_rate * 100.0),
        ("L2D MR (%)", |r| r.derived.l2_miss_rate * 100.0),
        ("LLC Read MR (%)", |r| r.derived.llc_read_miss_rate * 100.0),
        ("Cap Load Density (%)", |r| {
            r.derived.cap_load_density * 100.0
        }),
        ("Cap Store Density (%)", |r| {
            r.derived.cap_store_density * 100.0
        }),
        ("Cap Traffic Share (%)", |r| {
            r.derived.cap_traffic_share * 100.0
        }),
        ("Cap Tag Overhead (%)", |r| {
            r.derived.cap_tag_overhead * 100.0
        }),
    ];
    for (name, get) in metrics {
        for abi in Abi::ALL {
            let mut cells = vec![name.to_owned(), abi.to_string()];
            for r in rows {
                cells.push(r.get(abi).map_or("NA".into(), |rep| fmt_metric(get(rep))));
            }
            t.row(&cells);
        }
    }
    t
}

/// The calibration overview: the load-bearing shape numbers of every
/// workload, side by side with the paper's values where available.
pub fn calibrate(rows: &[SuiteRow]) -> Table {
    let mut t = Table::new(&[
        "Benchmark",
        "retired(M)",
        "IPC(hyb)",
        "MI",
        "MI paper",
        "bm norm",
        "pc norm",
        "pc paper",
        "inst x",
        "capld%",
        "capst%",
        "brMR%",
        "L1D%",
        "L2%",
    ]);
    for r in rows {
        let (Some(h), Some(w)) = (r.get(Abi::Hybrid), by_key(&r.key)) else {
            continue;
        };
        let norm = |abi| {
            r.normalized_time(abi)
                .map_or("NA".into(), |v| format!("{v:.2}"))
        };
        let pc = |f: &dyn Fn(&RunReport) -> String| r.get(Abi::Purecap).map_or("NA".into(), f);
        t.row(&[
            r.name.clone(),
            format!("{:.1}", h.retired as f64 / 1e6),
            format!("{:.2}", h.derived.ipc),
            format!("{:.2}", h.derived.memory_intensity),
            w.table2_mi.map_or("-".into(), |v| format!("{v:.2}")),
            norm(Abi::Benchmark),
            norm(Abi::Purecap),
            w.paper_purecap_slowdown
                .map_or("-".into(), |v| format!("{v:.2}")),
            pc(&|p| format!("{:.2}", p.retired as f64 / h.retired as f64)),
            pc(&|p| format!("{:.1}", p.derived.cap_load_density * 100.0)),
            pc(&|p| format!("{:.1}", p.derived.cap_store_density * 100.0)),
            format!("{:.2}", h.derived.branch_mispredict_rate * 100.0),
            format!("{:.2}", h.derived.l1d_miss_rate * 100.0),
            format!("{:.2}", h.derived.l2_miss_rate * 100.0),
        ]);
    }
    t
}

/// One point of the Figure 8 revocation-overhead curves: one ABI at one
/// quarantine threshold (`0` = the padded baseline, which quarantines
/// but never tag-sweeps).
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Point {
    /// Quarantine byte threshold in KiB (`0` = padded baseline).
    pub quarantine_kib: u64,
    /// The ABI of this point.
    pub abi: Abi,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Time normalised to the same threshold's hybrid run.
    pub overhead_vs_hybrid: Option<f64>,
    /// Revocation epochs triggered.
    pub revocation_epochs: u64,
    /// Capability granules visited by tag sweeps.
    pub sweep_granules_visited: u64,
    /// Stale tags cleared by tag sweeps.
    pub sweep_tags_cleared: u64,
    /// Quarantine occupancy high-water mark in bytes.
    pub quarantine_bytes_hwm: u64,
}

/// Figure 8: revocation overhead vs quarantine threshold. `sets` pairs
/// each threshold (KiB; `0` = padded baseline) with the suite rows run
/// under that allocator strategy — the binary runs `alloc_stress`, but
/// any selection works.
pub fn fig8_revocation(sets: &[(u64, Vec<SuiteRow>)]) -> (Table, Vec<Fig8Point>) {
    let mut t = Table::new(&[
        "Quarantine",
        "Benchmark",
        "ABI",
        "time (s)",
        "vs hybrid",
        "epochs",
        "granules swept",
        "tags cleared",
        "quar hwm (KiB)",
    ]);
    let mut data = Vec::new();
    for (kib, rows) in sets {
        for r in rows {
            let hybrid_secs = r.get(Abi::Hybrid).map(|h| h.seconds);
            for abi in Abi::ALL {
                let rep = match r.get(abi) {
                    Some(rep) => rep,
                    None => continue,
                };
                let over = hybrid_secs.filter(|h| *h > 0.0).map(|h| rep.seconds / h);
                let label = if *kib == 0 {
                    "padded".to_owned()
                } else {
                    format!("{kib} KiB")
                };
                t.row(&[
                    label,
                    r.name.clone(),
                    abi.to_string(),
                    format!("{:.4}", rep.seconds),
                    over.map_or("-".into(), |v| format!("{v:.3}")),
                    rep.heap.revocation_epochs.to_string(),
                    rep.counts.get(PmuEvent::SweepGranulesVisited).to_string(),
                    rep.counts.get(PmuEvent::SweepTagsCleared).to_string(),
                    format!("{:.1}", rep.heap.quarantine_bytes_hwm as f64 / 1024.0),
                ]);
                data.push(Fig8Point {
                    quarantine_kib: *kib,
                    abi,
                    seconds: rep.seconds,
                    overhead_vs_hybrid: over,
                    revocation_epochs: rep.heap.revocation_epochs,
                    sweep_granules_visited: rep.counts.get(PmuEvent::SweepGranulesVisited),
                    sweep_tags_cleared: rep.counts.get(PmuEvent::SweepTagsCleared),
                    quarantine_bytes_hwm: rep.heap.quarantine_bytes_hwm,
                });
            }
        }
    }
    (t, data)
}

/// One row of the Figure 10 opcode-class attribution: one class under
/// one ABI, aggregated over the selection.
#[derive(Clone, Debug, Serialize)]
pub struct Fig10Row {
    /// The ABI of this row.
    pub abi: Abi,
    /// Opcode-class label (matches `cheri_isa::OpClass::name`).
    pub class: String,
    /// Retired instructions attributed to the class.
    pub retired: u64,
    /// Model cycles attributed to the class.
    pub cycles: u64,
    /// Share of the ABI's total retired instructions.
    pub retired_share: f64,
    /// Share of the ABI's total model cycles.
    pub cycle_share: f64,
    /// Cycles per instruction within the class (`None` when it retired
    /// nothing).
    pub cpi: Option<f64>,
}

/// Figure 10: where purecap's extra work comes from. Every retired
/// instruction and every model cycle is attributed to exactly one of
/// the eight opcode classes (the counts partition `INST_RETIRED` and
/// `CPU_CYCLES`), aggregated over the selection per ABI — so the
/// hybrid→purecap shift shows up as the cap-manip / cap-branch /
/// mem-cap shares growing at the int-alu and mem-scalar shares'
/// expense.
pub fn fig10_opcode_classes(rows: &[SuiteRow]) -> (Table, Vec<Fig10Row>) {
    let classes = PmuEvent::opcode_class_pairs();
    let mut t = Table::new(&["ABI", "class", "retired", "ret %", "cycles", "cyc %", "CPI"]);
    let mut data = Vec::new();
    for abi in Abi::ALL {
        let mut per = [(0u64, 0u64); 8];
        let mut any = false;
        for r in rows {
            if let Some(rep) = r.get(abi) {
                any = true;
                for (slot, (_, retired_ev, cycles_ev)) in per.iter_mut().zip(classes.iter()) {
                    slot.0 += rep.counts.get(*retired_ev);
                    slot.1 += rep.counts.get(*cycles_ev);
                }
            }
        }
        if !any {
            continue;
        }
        let total_retired: u64 = per.iter().map(|p| p.0).sum();
        let total_cycles: u64 = per.iter().map(|p| p.1).sum();
        for ((label, _, _), (retired, cycles)) in classes.iter().zip(per) {
            // A class's count is 0 whenever its total is.
            let retired_share = retired as f64 / total_retired.max(1) as f64;
            let cycle_share = cycles as f64 / total_cycles.max(1) as f64;
            let cpi = (retired > 0).then(|| cycles as f64 / retired as f64);
            t.row(&[
                abi.to_string(),
                (*label).to_owned(),
                retired.to_string(),
                pct(retired_share),
                cycles.to_string(),
                pct(cycle_share),
                cpi.map_or("-".into(), fmt_metric),
            ]);
            data.push(Fig10Row {
                abi,
                class: (*label).to_owned(),
                retired,
                cycles,
                retired_share,
                cycle_share,
                cpi,
            });
        }
    }
    (t, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_workloads::Scale;
    use morello_sim::suite::{run_suite, select};
    use morello_sim::{Platform, Runner};

    fn tiny_rows() -> Vec<SuiteRow> {
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        run_suite(&runner, &select(&["lbm_519", "omnetpp_520", "quickjs"])).unwrap()
    }

    #[test]
    fn every_generator_renders() {
        let rows = tiny_rows();
        let mut artefacts = Vec::new();
        for fig in &crate::figures::FIGURES {
            let rendered = (fig.render)(&rows);
            // Every table (a `---` separator line) has a data row.
            let lines: Vec<&str> = rendered.text.lines().collect();
            let seps: Vec<_> = lines
                .windows(2)
                .filter(|w| w[0].starts_with("--"))
                .collect();
            assert!(
                !seps.is_empty() && seps.iter().all(|w| !w[1].is_empty()),
                "{}",
                fig.name
            );
            for (name, value) in rendered.artefacts {
                assert_ne!(value, serde_json::JsonValue::Null, "{name}");
                assert!(!artefacts.contains(&name), "{name} written twice");
                artefacts.push(name);
            }
        }
        // Only the figures that derive data beyond the suite rows have
        // an artefact; fig7 has two (hybrid, purecap).
        assert_eq!(
            artefacts,
            [
                "fig1_overall",
                "fig2_binsize",
                "fig5_instmix",
                "fig7_correlation_hybrid",
                "fig7_correlation_purecap",
                "fig10_opcode_classes"
            ]
        );
        let (t1, d1) = fig1_overall(&rows);
        assert_eq!((t1.len(), d1.len()), (3, 3));
        let (t2, d2) = fig2_binsize(&rows);
        assert!(t2.len() >= 10);
        assert_eq!(d2.last().unwrap().section, "total");
        assert!(fig3_table4_topdown(&rows).len() >= 12 * 3);
        for table in [
            fig4_bounds(&rows),
            fig5_instmix(&rows),
            fig6_membound(&rows),
        ] {
            assert!(table.len() >= 8);
        }
        let (t7, m) = fig7_correlation(&rows, Abi::Purecap);
        assert!(!t7.is_empty());
        assert_eq!(m.len(), 15);
        assert_eq!(table2_memory_intensity(&rows).len(), 3);
        assert_eq!(table3_key_metrics(&rows).len(), 11 * 3);
        let (t10, d10) = fig10_opcode_classes(&rows);
        assert_eq!((t10.len(), d10.len()), (3 * 8, 3 * 8));
        assert_eq!(calibrate(&rows).len(), 3);
    }

    #[test]
    fn fig10_classes_partition_retired_and_cycles() {
        let rows = tiny_rows();
        let (_, data) = fig10_opcode_classes(&rows);
        for abi in Abi::ALL {
            let reports: Vec<_> = rows.iter().filter_map(|r| r.get(abi)).collect();
            let want_retired: u64 = reports
                .iter()
                .map(|rep| rep.counts.get(PmuEvent::InstRetired))
                .sum();
            let want_cycles: u64 = reports
                .iter()
                .map(|rep| rep.counts.get(PmuEvent::CpuCycles))
                .sum();
            let class_rows: Vec<_> = data.iter().filter(|d| d.abi == abi).collect();
            let got_retired: u64 = class_rows.iter().map(|d| d.retired).sum();
            let got_cycles: u64 = class_rows.iter().map(|d| d.cycles).sum();
            assert_eq!(
                got_retired, want_retired,
                "{abi}: classes partition retired"
            );
            assert_eq!(got_cycles, want_cycles, "{abi}: classes partition cycles");
        }
        // Purecap shifts work into the capability classes.
        let share = |abi: Abi, class: &str| {
            data.iter()
                .find(|d| d.abi == abi && d.class == class)
                .map_or(0.0, |d| d.retired_share)
        };
        assert!(share(Abi::Purecap, "cap-manip") > share(Abi::Hybrid, "cap-manip"));
        assert!(share(Abi::Purecap, "mem-cap") > share(Abi::Hybrid, "mem-cap"));
    }

    #[test]
    fn fig1_marks_na() {
        let rows = tiny_rows();
        let quickjs = d1_for(&rows, "QuickJS");
        assert!(quickjs.benchmark_norm.is_none());
        assert!(quickjs.purecap_norm.is_some());
    }

    fn d1_for(rows: &[SuiteRow], name: &str) -> Fig1Row {
        fig1_overall(rows)
            .1
            .into_iter()
            .find(|r| r.name == name)
            .expect("row present")
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn fig5_summary_shows_dp_growth() {
        let rows = tiny_rows();
        let s = fig5_shift_summary(&rows);
        assert!(s.dp_growth_max > 0.0, "purecap must add DP work");
    }

    #[test]
    fn fig8_curves_are_monotone_and_hybrid_is_free() {
        use morello_sim::suite::{run_suite_with, SuiteConfig};
        use morello_sim::{ProgramCache, StrategyKind};
        let base = Platform::morello().with_scale(Scale::Test);
        let workloads = select(&["alloc_stress"]);
        let cache = ProgramCache::new();
        let config = SuiteConfig::with_jobs(1);
        let mut sets = Vec::new();
        for kib in [0u64, 16, 32, 64, 256] {
            let platform = if kib == 0 {
                base
            } else {
                base.with_cap_alloc(StrategyKind::swept_bytes(kib * 1024))
            };
            let rows = run_suite_with(&Runner::new(platform), &workloads, &cache, &config).unwrap();
            sets.push((kib, rows));
        }
        let (t, points) = fig8_revocation(&sets);
        assert_eq!(t.len(), 5 * 3);
        assert_eq!(points.len(), 5 * 3);
        // Hybrid never sweeps and costs the same at every threshold.
        let hybrid: Vec<_> = points.iter().filter(|p| p.abi == Abi::Hybrid).collect();
        for h in &hybrid {
            assert_eq!(h.sweep_granules_visited, 0);
            assert_eq!(h.revocation_epochs, 0);
            assert_eq!(h.seconds, hybrid[0].seconds);
        }
        // Purecap: sweeping strategies sweep, and a larger quarantine
        // amortises — overhead decreases monotonically with threshold.
        let pc: Vec<_> = points.iter().filter(|p| p.abi == Abi::Purecap).collect();
        assert!(pc[1].sweep_granules_visited > 0, "16 KiB threshold sweeps");
        for w in pc[1..].windows(2) {
            assert!(
                w[1].overhead_vs_hybrid.unwrap() <= w[0].overhead_vs_hybrid.unwrap(),
                "larger quarantine must not cost more: {:?} -> {:?}",
                w[0].quarantine_kib,
                w[1].quarantine_kib
            );
            assert!(w[1].revocation_epochs <= w[0].revocation_epochs);
        }
        // The program cache was shared across every strategy platform.
        assert_eq!(cache.misses(), 3);
    }
}
