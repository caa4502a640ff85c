//! The committed per-op reference every op's output is checked against.
//!
//! `reference.txt` holds one `key<TAB>value` line per case, sorted by key.
//! Keys name a case (never a seed), so one file serves every seed; the
//! seed only reorders or relabels which cases a run visits. `--bless`
//! regenerates the file after an intentional output change.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The reference compiled into the binary.
pub const EMBEDDED: &str = include_str!("../reference.txt");

/// What one op produced, in the reference's terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// The case the op ran.
    pub key: String,
    /// Its canonical output (exact values, or FNV-1a digests of long
    /// payloads).
    pub value: String,
}

impl Observed {
    /// An observation of `value` for case `key`.
    pub fn new(key: impl Into<String>, value: impl Into<String>) -> Self {
        Observed {
            key: key.into(),
            value: value.into(),
        }
    }
}

/// Case key → expected value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    entries: BTreeMap<String, String>,
}

impl Reference {
    /// Parses `key<TAB>value` lines; blank lines and `#` comments skip.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('\t')
                .ok_or_else(|| format!("reference line {}: expected key<TAB>value", n + 1))?;
            if entries.insert(k.to_string(), v.to_string()).is_some() {
                return Err(format!("reference line {}: duplicate key `{k}`", n + 1));
            }
        }
        Ok(Reference { entries })
    }

    /// Checks one op's output against its case.
    pub fn check(&self, got: &Observed) -> Result<(), String> {
        match self.entries.get(&got.key) {
            Some(want) if *want == got.value => Ok(()),
            Some(want) => Err(format!(
                "`{}` mismatch: got `{}`, reference `{want}`",
                got.key, got.value
            )),
            None => Err(format!("`{}` has no reference entry", got.key)),
        }
    }

    /// Records `got` as the expected value of its case.
    pub fn insert(&mut self, got: Observed) {
        self.entries.insert(got.key, got.value);
    }

    /// The file text: a header comment, then sorted `key<TAB>value` lines.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# mobius-perf per-op reference: key<TAB>value, regenerated with --bless\n",
        );
        for (k, v) in &self.entries {
            out.push_str(&format!("{k}\t{v}\n"));
        }
        out
    }
}

/// Where `--bless` writes the reference (the source file the binary
/// embeds; rebuild to pick it up).
pub fn source_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.txt")
}

/// 16-hex-digit FNV-1a 64 digest, for payloads too long to pin verbatim.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", mobius::ckpt::fnv64(bytes))
}
