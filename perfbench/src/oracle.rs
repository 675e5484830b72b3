//! Expected deterministic outputs, stored beside the benchmark and checked
//! on every pass.
//!
//! A workload's output is rendered as canonical text lines (one per suite
//! cell, per campaign table cell, or per gated serve metric). The oracle
//! keeps the lines in full for some seeds and a 64-bit FNV-1a digest of
//! them for more seeds, so a wider seed range stays small on disk.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Key of the single entry of a seed-free workload.
pub const SEED_FREE: &str = "any";

/// One workload's expected outputs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Oracle {
    /// What the lines describe and how they were produced.
    pub note: String,
    /// A seed whose lines are stored but which was not used while the
    /// benchmark was written, for re-checking a later claim.
    pub held_out_seed: Option<u64>,
    /// Seed → the expected lines in full.
    pub full: BTreeMap<String, Vec<String>>,
    /// Seed → hex FNV-1a digest of the expected lines.
    pub digests: BTreeMap<String, String>,
}

/// The result of checking one pass's lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every line matched.
    Match,
    /// These line indices differ from the stored lines.
    Lines(Vec<usize>),
    /// The digest differs (which lines is unknown).
    Digest,
    /// The oracle holds nothing for this seed.
    Unknown,
}

/// FNV-1a over the lines, newline-terminated.
pub fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

impl Oracle {
    /// Reads an oracle file.
    pub fn load(path: &Path) -> Result<Oracle, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read oracle {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("bad oracle {}: {e:?}", path.display()))
    }

    /// Writes the oracle file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).expect("oracle serialises");
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("cannot write oracle {}: {e}", path.display()))
    }

    /// Checks `lines` against what is stored under `key`.
    pub fn check(&self, key: &str, lines: &[String]) -> Verdict {
        if let Some(want) = self.full.get(key) {
            let mut bad: Vec<usize> = (0..lines.len().max(want.len()))
                .filter(|&i| lines.get(i) != want.get(i))
                .collect();
            bad.dedup();
            return if bad.is_empty() {
                Verdict::Match
            } else {
                Verdict::Lines(bad)
            };
        }
        match self.digests.get(key) {
            Some(d) if *d == digest(lines) => Verdict::Match,
            Some(_) => Verdict::Digest,
            None => Verdict::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn corrupted_expected_value_is_a_mismatch() {
        let good = lines(&["a/hybrid retired=10", "a/purecap retired=12"]);
        let mut o = Oracle::default();
        o.full.insert(SEED_FREE.into(), good.clone());
        o.digests.insert("7".into(), digest(&good));
        assert_eq!(o.check(SEED_FREE, &good), Verdict::Match);
        assert_eq!(o.check("7", &good), Verdict::Match);
        assert_eq!(o.check("8", &good), Verdict::Unknown);

        o.full.get_mut(SEED_FREE).unwrap()[1] = "a/purecap retired=13".into();
        assert_eq!(o.check(SEED_FREE, &good), Verdict::Lines(vec![1]));
        o.digests.insert("7".into(), digest(&good[..1]));
        assert_eq!(o.check("7", &good), Verdict::Digest);
    }

    #[test]
    fn oracle_round_trips_through_json() {
        let mut o = Oracle {
            note: "n".into(),
            held_out_seed: Some(99),
            ..Oracle::default()
        };
        o.full.insert("99".into(), lines(&["x=0.1"]));
        o.digests.insert("1".into(), digest(&lines(&["x=0.1"])));
        let back: Oracle = serde_json::from_str(&serde_json::to_string(&o).unwrap()).unwrap();
        assert_eq!(back.check("99", &lines(&["x=0.1"])), Verdict::Match);
        assert_eq!(back.check("1", &lines(&["x=0.1"])), Verdict::Match);
        assert_eq!(back.held_out_seed, Some(99));
    }
}
