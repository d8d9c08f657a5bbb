//! The correctness gate: per-trial record hashes, stream digests and
//! the reference files kept with the benchmark.
//!
//! A reference file holds one line per trial of a workload's canonical
//! record streams: `<spec> <ci> <k> <fnv1a-64 of the record line>`.
//! Comparing per trial, not just per stream, lets a mismatch count the
//! trials whose record is missing or differs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a 64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Trial key: `(spec index, class index, trial index)`.
pub type Key = (usize, usize, u32);

/// Per-trial record hashes of a workload's canonical streams.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hashes(pub BTreeMap<Key, u64>);

impl Hashes {
    /// Hash every line of each canonical stream, keyed by its slot.
    pub fn of_streams(streams: &[String]) -> Result<Hashes, String> {
        let mut m = BTreeMap::new();
        for (spec, text) in streams.iter().enumerate() {
            for line in text.lines() {
                let t = fl_inject::parse_record_line(line)?;
                if m.insert((spec, t.ci, t.k), fnv1a(line.as_bytes()))
                    .is_some()
                {
                    return Err(format!("duplicate record for slot {spec}/{}/{}", t.ci, t.k));
                }
            }
        }
        Ok(Hashes(m))
    }

    /// One digest over every trial hash, in slot order.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::with_capacity(self.0.len() * 8);
        for h in self.0.values() {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        format!("{:016x}", fnv1a(&bytes))
    }

    /// Trials missing from either side or hashing differently.
    pub fn mismatches(&self, reference: &Hashes) -> u64 {
        let mut n = 0;
        for (k, h) in &self.0 {
            if reference.0.get(k) != Some(h) {
                n += 1;
            }
        }
        n + reference
            .0
            .keys()
            .filter(|k| !self.0.contains_key(k))
            .count() as u64
    }

    pub fn to_text(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "# perfbench reference: workload {workload}, seed {seed}, {} trials, digest {}\n",
            self.0.len(),
            self.digest()
        );
        for ((spec, ci, k), h) in &self.0 {
            let _ = writeln!(out, "{spec} {ci} {k} {h:016x}");
        }
        out
    }

    pub fn from_text(text: &str) -> Result<Hashes, String> {
        let mut m = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad reference line `{line}`");
            if f.len() != 4 {
                return Err(bad());
            }
            let key = (
                f[0].parse().map_err(|_| bad())?,
                f[1].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
            );
            m.insert(key, u64::from_str_radix(f[3], 16).map_err(|_| bad())?);
        }
        Ok(Hashes(m))
    }
}

/// Path of the reference for `(workload, seed)` under `dir`.
pub fn reference_path(dir: &Path, workload: &str, seed: u64) -> std::path::PathBuf {
    dir.join(format!("{workload}-seed{seed}.txt"))
}

/// The stored reference for `(workload, seed)`, if the benchmark keeps
/// one for that seed.
pub fn load_reference(dir: &Path, workload: &str, seed: u64) -> Result<Option<Hashes>, String> {
    let path = reference_path(dir, workload, seed);
    match std::fs::read_to_string(&path) {
        Ok(text) => Hashes::from_text(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip_and_mismatch_count() {
        let mut a = Hashes::default();
        a.0.insert((0, 0, 0), 1);
        a.0.insert((0, 0, 1), 2);
        a.0.insert((1, 3, 0), 3);
        let b = Hashes::from_text(&a.to_text("w", 7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.mismatches(&b), 0);
        let mut c = b.clone();
        c.0.insert((0, 0, 1), 9); // differs
        c.0.remove(&(1, 3, 0)); // missing
        c.0.insert((2, 0, 0), 4); // extra
        assert_eq!(c.mismatches(&a), 3);
        assert_ne!(c.digest(), a.digest());
    }
}
