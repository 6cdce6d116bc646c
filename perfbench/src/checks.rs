//! Output checks. A cell that fails any of them counts as failed:
//! a panic, a CPI stack whose classes do not sum to `total_cycles`, a
//! non-finite estimate or confidence interval, a digest that differs
//! from an earlier run of the same cell, or an exact-cell digest that
//! differs from the committed table.

use esp_bench::ConfigKey;
use esp_core::{RunReport, SampledRun, Simulator};
use esp_workload::{arena, BenchmarkProfile};
use std::collections::HashMap;

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of an exact report: FNV-1a of the `{:#?}` text `repro dump`
/// prints for the cell, so the table pins `repro dump` output.
pub fn report_digest(r: &RunReport) -> u64 {
    fnv1a64(format!("{r:#?}").as_bytes())
}

/// Digest of an estimated run: report, estimate and learned accounting.
pub fn sampled_digest(run: &SampledRun) -> u64 {
    fnv1a64(format!("{:?}{:?}{:?}", run.report, run.estimate, run.learned).as_bytes())
}

/// The CPI stack must tile the run.
pub fn check_report(r: &RunReport) -> Result<(), String> {
    let sum = r.cpi_stack.total();
    if sum != r.total_cycles {
        return Err(format!("CPI stack sums to {sum}, total_cycles is {}", r.total_cycles));
    }
    Ok(())
}

/// An estimated run must conserve its stack and carry finite estimates
/// and intervals.
pub fn check_sampled(run: &SampledRun) -> Result<(), String> {
    check_report(&run.report)?;
    let e = &run.estimate;
    for (what, r) in [
        ("cpi", &e.cpi),
        ("icache_cpi", &e.icache_cpi),
        ("dcache_cpi", &e.dcache_cpi),
        ("branch_cpi", &e.branch_cpi),
    ] {
        if !(r.ratio.is_finite() && r.se.is_finite() && r.ci95.is_finite()) || r.ci95 < 0.0 {
            return Err(format!("non-finite {what} estimate: {r:?}"));
        }
    }
    if let Some(l) = &run.learned {
        if ![l.mean_err_pct, l.rolling_err_pct, l.rmse_pct, l.confidence]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(format!("non-finite learned accounting: {l:?}"));
        }
    }
    Ok(())
}

/// Committed exact-cell digests for one (scale, seed).
#[derive(Clone, Debug, PartialEq)]
pub struct DigestTable {
    /// Instruction scale the digests were taken at.
    pub scale: u64,
    /// Workload seed the digests were taken at.
    pub seed: u64,
    digests: HashMap<(String, String), u64>,
}

impl DigestTable {
    /// An empty table for `(scale, seed)`.
    pub fn new(scale: u64, seed: u64) -> Self {
        DigestTable { scale, seed, digests: HashMap::new() }
    }

    /// Records the digest of `family` under `key`.
    pub fn insert(&mut self, family: &str, key: ConfigKey, digest: u64) {
        self.digests.insert((family.to_string(), format!("{key:?}")), digest);
    }

    /// The digest recorded for `family` under `key`.
    pub fn get(&self, family: &str, key: ConfigKey) -> Option<u64> {
        self.digests.get(&(family.to_string(), format!("{key:?}"))).copied()
    }

    /// Checks `digest` against the table.
    pub fn check(&self, family: &str, key: ConfigKey, digest: u64) -> Result<(), String> {
        match self.get(family, key) {
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!("{family}/{key:?}: digest {digest:016x}, committed {d:016x}")),
            None => Err(format!("{family}/{key:?}: no committed digest")),
        }
    }

    /// Parses the text form written by [`DigestTable::render`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty digest table")?;
        let mut h = header.split_whitespace();
        let (scale, seed) = match (h.next(), h.next(), h.next(), h.next(), h.next()) {
            (Some("#"), Some("scale"), Some(scale), Some("seed"), Some(seed)) => (
                scale.parse().map_err(|e| format!("bad scale: {e}"))?,
                seed.parse().map_err(|e| format!("bad seed: {e}"))?,
            ),
            _ => return Err(format!("bad digest table header: {header}")),
        };
        let mut t = DigestTable::new(scale, seed);
        for line in lines.filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [family, key, hex] = f[..] else {
                return Err(format!("bad digest line: {line}"));
            };
            let d = u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest {hex}: {e}"))?;
            t.digests.insert((family.to_string(), key.to_string()), d);
        }
        Ok(t)
    }

    /// One `family Config digest` line per cell, sorted, under a
    /// `# scale <n> seed <n>` header.
    pub fn render(&self) -> String {
        let mut rows: Vec<_> = self.digests.iter().collect();
        rows.sort();
        let mut out = format!("# scale {} seed {}\n", self.scale, self.seed);
        for ((family, key), d) in rows {
            out.push_str(&format!("{family} {key} {d:016x}\n"));
        }
        out
    }

    /// Number of cells in the table.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when the table holds no cells.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

/// Digests of every exact cell (all families at `seed`, all 29 configs)
/// at `scale`: what `digests/exact.txt` holds at the default scale and
/// seed.
pub fn digest_table(scale: u64, seed: u64) -> DigestTable {
    let mut table = DigestTable::new(scale, seed);
    for p in BenchmarkProfile::all_families() {
        let p = p.scaled(scale);
        let w = arena::packed_for(&p, seed, 1);
        for &key in ConfigKey::all() {
            table.insert(p.name(), key, report_digest(&Simulator::new(key.config()).run(&*w)));
        }
    }
    arena::reset();
    table
}

/// The committed digests of every exact cell at the default scale and
/// seed.
pub fn committed() -> DigestTable {
    DigestTable::parse(include_str!("../digests/exact.txt"))
        .expect("the committed digest table parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_checks() {
        let mut t = DigestTable::new(1000, 7);
        t.insert("amazon", ConfigKey::EspNl, 0xdead_beef);
        t.insert("bing", ConfigKey::Base, 1);
        let back = DigestTable::parse(&t.render()).unwrap();
        assert_eq!(back, t);
        assert!(back.check("amazon", ConfigKey::EspNl, 0xdead_beef).is_ok());
        assert!(back.check("amazon", ConfigKey::EspNl, 0xdead_beee).is_err());
        assert!(back.check("amazon", ConfigKey::Base, 1).is_err());
    }

    #[test]
    fn committed_table_covers_the_matrix() {
        let t = committed();
        assert_eq!(t.len(), 9 * ConfigKey::all().len());
    }
}
