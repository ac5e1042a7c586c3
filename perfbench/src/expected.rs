//! The shipped fingerprint expectations (`expected.tsv`).
//!
//! Each line is `seed<TAB>cell<TAB>refs_per_core<TAB>fingerprint`, the
//! FNV fingerprint of the cell's `SystemStats` recorded by
//! `perfbench --record-expected`. A run whose seed is in the table must
//! reproduce it bit for bit; other seeds are checked for repeatability
//! across rounds only.

use std::collections::HashMap;

/// Fingerprints keyed by (seed, cell name, refs per core).
pub struct Expected {
    table: HashMap<(u64, String, u64), u64>,
}

impl Expected {
    /// The table compiled into the benchmark.
    pub fn shipped() -> Self {
        Expected::parse(include_str!("../expected.tsv"))
    }

    /// Parses the TSV format above; `#` lines and blank lines are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics on a malformed line: the table ships with the benchmark,
    /// so a bad line is a bug in the benchmark itself.
    pub fn parse(text: &str) -> Self {
        let mut table = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "expected.tsv: bad line `{line}`");
            let seed = f[0].parse().expect("expected.tsv: seed");
            let refs = f[2].parse().expect("expected.tsv: refs_per_core");
            let fp = u64::from_str_radix(f[3], 16).expect("expected.tsv: fingerprint");
            table.insert((seed, f[1].to_string(), refs), fp);
        }
        Expected { table }
    }

    /// The recorded fingerprint for this run, if the table has one.
    pub fn get(&self, seed: u64, cell: &str, refs_per_core: u64) -> Option<u64> {
        self.table
            .get(&(seed, cell.to_string(), refs_per_core))
            .copied()
    }
}
