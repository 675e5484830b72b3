//! The figure registry: every suite-derived table and figure of the
//! paper, rendered from one set of suite rows.
//!
//! The paper derives all of its figures and tables from one set of PMU
//! counts per run. [`FIGURES`] mirrors that: each row names a figure,
//! the workloads it reads (the full registry or a key selection), and a
//! pure render function from [`SuiteRow`]s to the figure's text and
//! JSON artefacts. The `figures` binary runs the suite once for every
//! selected row, writes the rows once ([`SUITE_ROWS`]) and renders each
//! figure from them. A figure's own artefact holds only what it derives
//! beyond the rows; a figure that only tabulates them has none.

use crate::experiments;
use cheri_isa::Abi;
use morello_pmu::Table;
use morello_sim::suite::{SuiteRow, TABLE3_KEYS, TABLE4_KEYS};
use serde::Serialize;
use serde_json::JsonValue;
use std::borrow::Cow;
use std::path::Path;

/// The stem of the JSON file that holds the suite rows every figure of
/// one pass was rendered from.
pub const SUITE_ROWS: &str = "suite_rows";

/// One rendered figure: the text its table prints and its JSON
/// artefacts.
pub struct Rendered {
    /// The paper-style text (what `docs/results/<name>.txt` holds).
    pub text: String,
    /// `(artefact_name, value)` pairs, written as `<artefact_name>.json`.
    pub artefacts: Vec<(String, JsonValue)>,
}

impl Rendered {
    /// Writes `dir/<name>.txt` plus `dir/<artefact>.json` for every
    /// artefact, creating `dir` as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.txt")), &self.text)?;
        for (artefact, value) in &self.artefacts {
            morello_pmu::write_json_out(&dir.join(format!("{artefact}.json")), value)?;
        }
        Ok(())
    }
}

/// One row of the registry.
pub struct Figure {
    /// The figure's name: the stem of its `docs/results` text file.
    pub name: &'static str,
    /// The workloads it reads, in column order; `None` = the full
    /// registry.
    pub keys: Option<&'static [&'static str]>,
    /// Renders the figure from the rows of exactly those workloads.
    pub render: fn(&[SuiteRow]) -> Rendered,
}

impl Figure {
    /// The rows this figure renders from, picked out of `rows` (a suite
    /// that ran at least its workloads) in the figure's key order.
    ///
    /// # Panics
    ///
    /// Panics when `rows` lacks one of the figure's keys.
    pub fn rows<'a>(&self, rows: &'a [SuiteRow]) -> Cow<'a, [SuiteRow]> {
        let Some(keys) = self.keys else {
            return Cow::Borrowed(rows);
        };
        let pick = |key: &&str| rows.iter().find(|r| r.key == *key).expect("suite ran key");
        Cow::Owned(keys.iter().map(|k| pick(k).clone()).collect())
    }
}

/// Every suite-derived figure, in output order.
pub static FIGURES: [Figure; 11] = [
    Figure {
        name: "fig1_overall",
        keys: None,
        render: |rows| {
            let (table, data) = experiments::fig1_overall(rows);
            let title = "Figure 1: execution time normalised to the hybrid ABI";
            one_table(title, &table, "fig1_overall", &data)
        },
    },
    Figure {
        name: "fig2_binsize",
        keys: None,
        render: |rows| {
            let (table, data) = experiments::fig2_binsize(rows);
            let title = "Figure 2: program-section sizes (median ratio to hybrid)";
            one_table(title, &table, "fig2_binsize", &data)
        },
    },
    Figure {
        name: "fig3_topdown",
        keys: Some(&TABLE4_KEYS),
        render: |rows| {
            let table = experiments::fig3_table4_topdown(rows);
            let title = "Figure 3 / Table 4: top-down breakdown (hybrid, benchmark, purecap)";
            table_only(title, &table)
        },
    },
    Figure {
        name: "fig4_bounds",
        keys: None,
        render: |rows| {
            let table = experiments::fig4_bounds(rows);
            table_only("Figure 4: core-bound vs memory-bound cycles", &table)
        },
    },
    Figure {
        name: "fig5_instmix",
        keys: None,
        render: |rows| {
            let table = experiments::fig5_instmix(rows);
            let shift = experiments::fig5_shift_summary(rows);
            let title = "Figure 5: speculative instruction mix by ABI";
            let mut fig = one_table(title, &table, "fig5_instmix", &shift);
            fig.text += &format!(
                "DP_SPEC share growth under purecap: {:.2}pp .. {:.2}pp (paper: 5.21 .. 29.31)\n\
                 LD/ST share stability (std of delta): {:.2}pp / {:.2}pp (paper: 2.01 / 1.47)\n",
                shift.dp_growth_min, shift.dp_growth_max, shift.ld_delta_std, shift.st_delta_std
            );
            fig
        },
    },
    Figure {
        name: "fig6_membound",
        keys: None,
        render: |rows| {
            let table = experiments::fig6_membound(rows);
            let title = "Figure 6: memory-bound split (share of memory-bound cycles)";
            table_only(title, &table)
        },
    },
    Figure {
        name: "fig7_correlation",
        keys: None,
        render: |rows| {
            let parts = [Abi::Hybrid, Abi::Purecap].map(|abi| {
                let (table, matrix) = experiments::fig7_correlation(rows, abi);
                let title = format!("Figure 7 ({abi}): metric correlation matrix");
                one_table(&title, &table, &format!("fig7_correlation_{abi}"), &matrix)
            });
            Rendered {
                text: parts.iter().map(|p| p.text.as_str()).collect(),
                artefacts: parts.into_iter().flat_map(|p| p.artefacts).collect(),
            }
        },
    },
    Figure {
        name: "fig10_opcode_classes",
        keys: None,
        render: |rows| {
            let (table, data) = experiments::fig10_opcode_classes(rows);
            let title = "Figure 10: opcode-class attribution (retired and cycle shares per ABI)";
            one_table(title, &table, "fig10_opcode_classes", &data)
        },
    },
    Figure {
        name: "table2_memory_intensity",
        keys: None,
        render: |rows| {
            let table = experiments::table2_memory_intensity(rows);
            table_only("Table 2: benchmark memory-intensity values", &table)
        },
    },
    Figure {
        name: "table3_key_metrics",
        keys: Some(&TABLE3_KEYS),
        render: |rows| {
            let table = experiments::table3_key_metrics(rows);
            table_only("Table 3: aggregated key performance metrics", &table)
        },
    },
    Figure {
        name: "calibrate",
        keys: None,
        render: |rows| Rendered {
            text: format!("{}\n", experiments::calibrate(rows).render()),
            artefacts: Vec::new(),
        },
    },
];

/// The registry row named `name`.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The workloads one suite pass must run to render every figure in
/// `selected`: `None` (the full registry) when any of them reads it,
/// else the union of their key sets in first-seen order.
pub fn suite_keys(selected: &[&Figure]) -> Option<Vec<&'static str>> {
    let mut union = Vec::new();
    for fig in selected {
        for key in fig.keys? {
            if !union.contains(key) {
                union.push(*key);
            }
        }
    }
    Some(union)
}

/// A figure of one titled table and one JSON artefact.
fn one_table(
    title: &str,
    table: &Table,
    artefact: &str,
    value: &(impl Serialize + ?Sized),
) -> Rendered {
    let value = serde_json::to_value(value).expect("artefacts serialise");
    Rendered {
        artefacts: vec![(artefact.to_owned(), value)],
        ..table_only(title, table)
    }
}

/// A figure of one titled table over the suite rows, with no artefact
/// of its own.
fn table_only(title: &str, table: &Table) -> Rendered {
    Rendered {
        text: format!("{title}\n{}\n", table.render()),
        artefacts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_workloads::{registry, Scale};
    use morello_sim::suite::{run_suite_with, select, SuiteConfig};
    use morello_sim::{Platform, ProgramCache, Runner};

    #[test]
    fn one_pass_covers_every_keyed_figure() {
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let cache = ProgramCache::new();
        let config = SuiteConfig::with_jobs(2);
        let full = run_suite_with(&runner, &registry(), &cache, &config).unwrap();
        for keys in [&TABLE3_KEYS[..], &TABLE4_KEYS[..]] {
            let fig = FIGURES.iter().find(|f| f.keys == Some(keys)).unwrap();
            let alone = run_suite_with(&runner, &select(keys), &cache, &config).unwrap();
            assert_eq!(
                serde_json::to_string(&*fig.rows(&full)).unwrap(),
                serde_json::to_string(&alone).unwrap(),
                "{}: rows picked from the full pass",
                fig.name
            );
        }
        let fig7 = (by_name("fig7_correlation").unwrap().render)(&full);
        let names: Vec<&str> = fig7
            .artefacts
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            names,
            ["fig7_correlation_hybrid", "fig7_correlation_purecap"]
        );
    }

    #[test]
    fn suite_keys_are_the_union_unless_a_figure_reads_everything() {
        let table3 = by_name("table3_key_metrics").unwrap();
        let fig3 = by_name("fig3_topdown").unwrap();
        assert_eq!(suite_keys(&[fig3]).unwrap(), TABLE4_KEYS);
        // Table 4's workloads are a subset of Table 3's.
        assert_eq!(suite_keys(&[table3, fig3]).unwrap(), TABLE3_KEYS);
        let fig1 = by_name("fig1_overall").unwrap();
        assert_eq!(suite_keys(&[fig3, fig1]), None);
    }
}
