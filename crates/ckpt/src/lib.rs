//! # mobius-ckpt
//!
//! Crash-consistent checkpoint/restore for multi-step simulated runs.
//!
//! Long fine-tuning jobs on commodity servers get preempted and killed;
//! the determinism discipline of this workspace makes the strongest
//! possible recovery contract cheap to state: a run that crashes, resumes
//! from its newest checkpoint, and finishes must produce **byte-identical**
//! trace/metrics/analysis output to a run that was never interrupted.
//! This crate owns the pieces below the driver that make that possible:
//!
//! * [`RunState`] — the committed run state (step index, accumulated
//!   report totals, fault-schedule crash cursors, partition sizes) with a
//!   versioned, FNV-checksummed, single-line-JSON on-disk encoding.
//! * [`write_checkpoint`] / [`load_latest`] — atomic (tmp + rename)
//!   persistence with keep-last-k rotation and automatic fallback to the
//!   newest *valid* checkpoint; every corruption class (torn write, bad
//!   checksum, wrong version, foreign file, mismatched run config) is a
//!   distinct [`CkptError`] variant.
//! * [`flow`] — the simulated cost of writing a checkpoint, modeled as a
//!   DRAM→SSD flow on a [`mobius_sim::FlowNetwork`] and recorded into the
//!   observability DAG under the `ckpt` resource class so checkpoint
//!   overhead shows up in traces and critical-path attribution.
//!
//! The file format (three `\n`-terminated lines):
//!
//! ```text
//! mobius-ckpt v1
//! {"fingerprint":"cbf29ce484222325","seq":3,...}
//! fnv64:0123456789abcdef
//! ```
//!
//! Line 2 is deterministic JSON (written by [`mobius_obs::json`], the
//! workspace's hand-rolled writer); line 3 is the FNV-1a 64 checksum of
//! line 2's bytes. A reader that finds fewer than three lines or a file
//! not ending in a newline reports [`CkptError::Truncated`] — the torn
//! write left by a crash mid-`write(2)` — and the loader falls back to
//! the previous checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;

use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mobius_obs::json::{self, Value};
use mobius_sim::FaultStats;

/// Format magic written as the first token of every checkpoint file.
pub const CKPT_MAGIC: &str = "mobius-ckpt";
/// Current format version; bumped on any incompatible payload change.
pub const CKPT_VERSION: u32 = 1;
/// File extension of checkpoint files inside a checkpoint directory.
pub const CKPT_EXT: &str = "mckpt";
/// Default keep-last-k rotation depth.
pub const DEFAULT_KEEP: usize = 3;

/// Everything that can go wrong reading or writing a checkpoint. Each
/// corruption class is a distinct variant so callers (and tests) can
/// assert on exactly what was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// An underlying filesystem operation failed (environmental).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error, stringified.
        msg: String,
    },
    /// The file does not start with the `mobius-ckpt` magic — not a
    /// checkpoint at all (garbage bytes, a foreign file).
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file is a checkpoint of a format version this build does not
    /// read.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version token found after the magic.
        found: String,
    },
    /// The file ends early: fewer than three lines or no trailing
    /// newline — the torn write a crash leaves behind.
    Truncated {
        /// The offending file.
        path: PathBuf,
    },
    /// The payload's FNV-1a 64 checksum does not match the recorded one
    /// (bit rot or a partially overwritten payload).
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// The checksum recorded in the file (hex).
        expected: String,
        /// The checksum computed over the payload (hex).
        found: String,
    },
    /// The payload is not the JSON object the version promises (parse
    /// error, missing or ill-typed field, garbled checksum line).
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        msg: String,
    },
    /// The checkpoint is valid but belongs to a different run
    /// configuration (model/system/schedule fingerprint differs).
    FingerprintMismatch {
        /// The offending file.
        path: PathBuf,
        /// The fingerprint the caller expected (hex).
        expected: String,
        /// The fingerprint recorded in the checkpoint (hex).
        found: String,
    },
    /// No file in the directory decoded as a valid checkpoint.
    NoValidCheckpoint {
        /// The directory searched.
        dir: PathBuf,
        /// How many candidate files were tried.
        tried: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            CkptError::BadMagic { path } => {
                write!(f, "{}: not a mobius checkpoint", path.display())
            }
            CkptError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: unsupported checkpoint version `{found}` (this build reads v{CKPT_VERSION})",
                path.display()
            ),
            CkptError::Truncated { path } => {
                write!(f, "{}: truncated checkpoint (torn write)", path.display())
            }
            CkptError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checksum mismatch (file says {expected}, payload hashes to {found})",
                path.display()
            ),
            CkptError::Malformed { path, msg } => {
                write!(f, "{}: malformed checkpoint: {msg}", path.display())
            }
            CkptError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checkpoint belongs to a different run config \
                 (expected fingerprint {expected}, found {found})",
                path.display()
            ),
            CkptError::NoValidCheckpoint { dir, tried } => write!(
                f,
                "{}: no valid checkpoint found ({tried} file(s) tried)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64-bit hash — the workspace's standard content checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv64`]: feeding bytes in any number of pieces yields the
/// hash of their concatenation. As a [`fmt::Write`] sink it hashes
/// formatted text without building a `String`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The hash of no bytes (the FNV-1a 64 offset basis).
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The committed state of a checkpointed multi-step run: everything the
/// driver needs to continue a run bit-identically after a process crash.
///
/// Counter fields round-trip exactly through the wire format up to
/// 2^53 − 1 (the JSON layer parses numbers as `f64`); `cum_ns` at that
/// bound is 104 days of simulated time, orders of magnitude past any run
/// this workspace simulates. `fingerprint` has no such bound — it is
/// framed as a 16-digit hex *string*.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// FNV fingerprint of the run configuration (model, system, schedule,
    /// non-crash fault spec). Deliberately excludes the topology so a run
    /// can resume onto a shrunken server (GPU lost across the crash).
    pub fingerprint: u64,
    /// Monotonic write sequence number; the rotation and fallback order.
    pub seq: u64,
    /// Steps committed so far; the resumed run starts at this step index.
    pub step: u64,
    /// Accumulated simulated time over committed steps, including
    /// checkpoint write overhead, in nanoseconds.
    pub cum_ns: u64,
    /// Accumulated price over committed steps, USD.
    pub price_usd: f64,
    /// Accumulated simulated traffic over committed steps, bytes.
    pub traffic_bytes: f64,
    /// Step-addressed crash events already fired (cursor into the
    /// canonical [`mobius_sim::CrashPoint`] order).
    pub crash_step_cursor: u64,
    /// Time-addressed crash events already fired.
    pub crash_ns_cursor: u64,
    /// Committed partition stage sizes (layers per stage); the warm-start
    /// seed for an elastic replan when resuming onto a changed topology.
    pub partition: Vec<u64>,
    /// Topology descriptor string of the run that wrote the checkpoint.
    pub topo: String,
    /// Accumulated fault/recovery counters over committed steps.
    pub faults: FaultStats,
}

impl RunState {
    /// Fresh state at step 0 for a run with the given config fingerprint
    /// and topology descriptor.
    pub fn fresh(fingerprint: u64, topo: impl Into<String>) -> Self {
        RunState {
            fingerprint,
            seq: 0,
            step: 0,
            cum_ns: 0,
            price_usd: 0.0,
            traffic_bytes: 0.0,
            crash_step_cursor: 0,
            crash_ns_cursor: 0,
            partition: Vec::new(),
            topo: topo.into(),
            faults: FaultStats::default(),
        }
    }

    fn payload_json(&self) -> String {
        let f = &self.faults;
        let mut out = format!(
            "{{\"fingerprint\":\"{:016x}\",\"seq\":{},\"step\":{},\"cum_ns\":{},\"price_usd\":",
            self.fingerprint, self.seq, self.step, self.cum_ns
        );
        json::push_number(&mut out, self.price_usd);
        out.push_str(",\"traffic_bytes\":");
        json::push_number(&mut out, self.traffic_bytes);
        let _ = write!(
            out,
            ",\"crash_step_cursor\":{},\"crash_ns_cursor\":{},\"partition\":",
            self.crash_step_cursor, self.crash_ns_cursor
        );
        json::push_array(&mut out, &self.partition, |out, s| json::push_u64(out, *s));
        out.push_str(",\"topo\":");
        json::push_string(&mut out, &self.topo);
        let _ = write!(
            out,
            ",\"faults\":{{\"injected\":{},\"link_degrades\":{},\"slowdowns\":{},\"stalls\":{},\
             \"gpu_failures\":{},\"retries\":{},\"aborted_transfers\":{},\"crashes\":{}}}}}",
            f.injected,
            f.link_degrades,
            f.slowdowns,
            f.stalls,
            f.gpu_failures,
            f.retries,
            f.aborted_transfers,
            f.crashes
        );
        out
    }

    /// Renders the full checkpoint file contents (three `\n`-terminated
    /// lines: header, payload, checksum). Deterministic: the same state
    /// always encodes to the same bytes.
    pub fn encode(&self) -> String {
        let payload = self.payload_json();
        format!(
            "{CKPT_MAGIC} v{CKPT_VERSION}\n{payload}\nfnv64:{:016x}\n",
            fnv64(payload.as_bytes())
        )
    }

    /// Decodes checkpoint file contents, verifying the header, framing,
    /// and checksum. `path` is only used to label errors.
    ///
    /// # Errors
    ///
    /// One [`CkptError`] per corruption class; see the variant docs.
    pub fn decode(text: &str, path: &Path) -> Result<RunState, CkptError> {
        let bad = |msg: &str| CkptError::Malformed {
            path: path.to_path_buf(),
            msg: msg.to_string(),
        };
        let lines: Vec<&str> = text.lines().collect();
        let header = *lines.first().ok_or(CkptError::Truncated {
            path: path.to_path_buf(),
        })?;
        let version = header
            .strip_prefix(CKPT_MAGIC)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or(CkptError::BadMagic {
                path: path.to_path_buf(),
            })?;
        if version != format!("v{CKPT_VERSION}") {
            return Err(CkptError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: version.to_string(),
            });
        }
        if lines.len() < 3 || !text.ends_with('\n') {
            return Err(CkptError::Truncated {
                path: path.to_path_buf(),
            });
        }
        let (payload, checksum_line) = (lines[1], lines[2]);
        let stated = checksum_line
            .strip_prefix("fnv64:")
            .ok_or_else(|| bad("bad checksum line"))?;
        u64::from_str_radix(stated, 16).map_err(|_| bad("bad checksum hex"))?;
        let computed = format!("{:016x}", fnv64(payload.as_bytes()));
        if stated != computed {
            return Err(CkptError::ChecksumMismatch {
                path: path.to_path_buf(),
                expected: stated.to_string(),
                found: computed,
            });
        }
        let v = json::parse(payload).map_err(|e| bad(&format!("{e}")))?;
        let get_u64 = |k: &str| -> Result<u64, CkptError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(&format!("missing or bad `{k}`")))
        };
        let get_f64 = |k: &str| -> Result<f64, CkptError> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(&format!("missing or bad `{k}`")))
        };
        let fingerprint = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("missing or bad `fingerprint`"))?;
        let partition = v
            .get("partition")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("missing or bad `partition`"))?
            .iter()
            .map(|s| s.as_u64().ok_or_else(|| bad("bad `partition` entry")))
            .collect::<Result<Vec<u64>, CkptError>>()?;
        let topo = v
            .get("topo")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing or bad `topo`"))?
            .to_string();
        let fv = v.get("faults").ok_or_else(|| bad("missing `faults`"))?;
        let fget = |k: &str| -> Result<u64, CkptError> {
            fv.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(&format!("missing or bad `faults.{k}`")))
        };
        Ok(RunState {
            fingerprint,
            seq: get_u64("seq")?,
            step: get_u64("step")?,
            cum_ns: get_u64("cum_ns")?,
            price_usd: get_f64("price_usd")?,
            traffic_bytes: get_f64("traffic_bytes")?,
            crash_step_cursor: get_u64("crash_step_cursor")?,
            crash_ns_cursor: get_u64("crash_ns_cursor")?,
            partition,
            topo,
            faults: FaultStats {
                injected: fget("injected")?,
                link_degrades: fget("link_degrades")?,
                slowdowns: fget("slowdowns")?,
                stalls: fget("stalls")?,
                gpu_failures: fget("gpu_failures")?,
                retries: fget("retries")?,
                aborted_transfers: fget("aborted_transfers")?,
                crashes: fget("crashes")?,
            },
        })
    }
}

/// The filename of checkpoint `seq` inside a checkpoint directory
/// (`ckpt-000007.mckpt`); zero-padded so lexicographic order is seq order.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:06}.{CKPT_EXT}"))
}

fn io_err(path: &Path, e: &std::io::Error) -> CkptError {
    CkptError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    }
}

/// Checkpoint files in `dir`, sorted by ascending sequence number.
/// Non-checkpoint files are ignored; a missing directory is an error.
///
/// # Errors
///
/// [`CkptError::Io`] when the directory cannot be read.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("ckpt-") && name.ends_with(&format!(".{CKPT_EXT}")) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Atomically persists `state` into `dir` (write to a dot-temp file, then
/// rename) and rotates: only the newest `keep` checkpoints survive.
/// Returns the path written. `keep` is clamped to at least 1.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_checkpoint(dir: &Path, state: &RunState, keep: usize) -> Result<PathBuf, CkptError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let path = checkpoint_path(dir, state.seq);
    let tmp = dir.join(format!(".ckpt-{:06}.tmp", state.seq));
    std::fs::write(&tmp, state.encode()).map_err(|e| io_err(&tmp, &e))?;
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, &e))?;
    let all = list_checkpoints(dir)?;
    let keep = keep.max(1);
    if all.len() > keep {
        for old in &all[..all.len() - keep] {
            std::fs::remove_file(old).map_err(|e| io_err(old, &e))?;
        }
    }
    Ok(path)
}

/// A successfully loaded checkpoint plus the fallback trail that led to
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCheckpoint {
    /// The decoded state.
    pub state: RunState,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer files that were skipped as invalid, newest first, with why.
    pub skipped: Vec<(PathBuf, CkptError)>,
}

/// Loads the newest valid checkpoint in `dir`, falling back over corrupt
/// files (torn writes, bad checksums, foreign files) newest-first. When
/// `expected_fingerprint` is given, the newest *structurally valid*
/// checkpoint must belong to that run config — corruption falls back,
/// a config mismatch does not (an older checkpoint of the wrong run is
/// not a better answer).
///
/// # Errors
///
/// [`CkptError::FingerprintMismatch`] or [`CkptError::NoValidCheckpoint`];
/// [`CkptError::Io`] when `dir` itself is unreadable.
pub fn load_latest(
    dir: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<LoadedCheckpoint, CkptError> {
    let mut files = list_checkpoints(dir)?;
    files.reverse();
    let tried = files.len();
    let mut skipped = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                let err = io_err(&path, &e);
                skipped.push((path, err));
                continue;
            }
        };
        match RunState::decode(&text, &path) {
            Ok(state) => {
                if let Some(want) = expected_fingerprint {
                    if state.fingerprint != want {
                        return Err(CkptError::FingerprintMismatch {
                            path,
                            expected: format!("{want:016x}"),
                            found: format!("{:016x}", state.fingerprint),
                        });
                    }
                }
                return Ok(LoadedCheckpoint {
                    state,
                    path,
                    skipped,
                });
            }
            Err(e) => skipped.push((path, e)),
        }
    }
    Err(CkptError::NoValidCheckpoint {
        dir: dir.to_path_buf(),
        tried,
    })
}

/// How [`corrupt_newest`] damages a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Cut the file in half — the torn write a mid-write crash leaves.
    Truncate,
    /// Flip a payload byte so the recorded checksum no longer matches.
    FlipByte,
}

/// Deliberately corrupts the newest checkpoint in `dir` — the negative
/// half of crash testing (`--crash-corrupt`): a crash that tears its own
/// final write. Returns the damaged path.
///
/// # Errors
///
/// [`CkptError::NoValidCheckpoint`] when the directory holds no
/// checkpoint files; [`CkptError::Io`] on filesystem failures.
pub fn corrupt_newest(dir: &Path, mode: CorruptMode) -> Result<PathBuf, CkptError> {
    let files = list_checkpoints(dir)?;
    let path = files.last().cloned().ok_or(CkptError::NoValidCheckpoint {
        dir: dir.to_path_buf(),
        tried: 0,
    })?;
    let mut bytes = std::fs::read(&path).map_err(|e| io_err(&path, &e))?;
    match mode {
        CorruptMode::Truncate => bytes.truncate(bytes.len() / 2),
        CorruptMode::FlipByte => {
            // Flip inside the payload (line 2) so framing stays intact and
            // the checksum is what catches it.
            let payload_start = bytes.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
            if let Some(b) = bytes.get_mut(payload_start + 1) {
                *b ^= 0x01;
            }
        }
    }
    std::fs::write(&path, &bytes).map_err(|e| io_err(&path, &e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunState {
        RunState {
            fingerprint: 0x9a3f_0001_dead_beef,
            seq: 7,
            step: 4,
            cum_ns: 123_456_789,
            price_usd: 0.0625,
            traffic_bytes: 1.5e9,
            crash_step_cursor: 1,
            crash_ns_cursor: 0,
            partition: vec![12, 13, 12, 13],
            topo: "2+2".to_string(),
            faults: FaultStats {
                injected: 3,
                stalls: 2,
                retries: 1,
                crashes: 1,
                ..FaultStats::default()
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = sample();
        let text = s.encode();
        let back = RunState::decode(&text, Path::new("x.mckpt")).unwrap();
        assert_eq!(back, s);
        // Deterministic: encoding the decoded state reproduces the bytes.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streamed_fnv64_hashes_the_concatenation() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        let r = 'r';
        write!(h, "ba{r}").unwrap();
        assert_eq!(h.finish(), fnv64(b"foobar"));
        assert_eq!(Fnv64::default().finish(), fnv64(b""));
    }

    #[test]
    fn decode_rejects_each_corruption_class() {
        let p = Path::new("x.mckpt");
        let good = sample().encode();

        // Garbage / foreign file.
        assert!(matches!(
            RunState::decode("PK\u{3}\u{4}zipzip", p),
            Err(CkptError::BadMagic { .. })
        ));
        // Wrong version.
        let v2 = good.replacen("v1", "v2", 1);
        assert!(matches!(
            RunState::decode(&v2, p),
            Err(CkptError::UnsupportedVersion { ref found, .. }) if found == "v2"
        ));
        // Torn writes: empty, half a file, missing trailing newline.
        assert!(matches!(
            RunState::decode("", p),
            Err(CkptError::Truncated { .. })
        ));
        assert!(matches!(
            RunState::decode(&good[..good.len() / 2], p),
            Err(CkptError::Truncated { .. })
        ));
        assert!(matches!(
            RunState::decode(good.trim_end(), p),
            Err(CkptError::Truncated { .. })
        ));
        // Flipped payload byte: checksum catches it.
        let flipped = good.replacen("\"seq\":7", "\"seq\":8", 1);
        assert!(matches!(
            RunState::decode(&flipped, p),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        // Valid checksum over a payload missing a field: malformed.
        let payload = r#"{"fingerprint":"00000000000000aa","seq":1}"#;
        let forged = format!(
            "{CKPT_MAGIC} v{CKPT_VERSION}\n{payload}\nfnv64:{:016x}\n",
            fnv64(payload.as_bytes())
        );
        assert!(matches!(
            RunState::decode(&forged, p),
            Err(CkptError::Malformed { .. })
        ));
    }

    #[test]
    fn write_load_rotate_and_fall_back() {
        let dir = std::env::temp_dir().join(format!("mobius-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut s = sample();
        for seq in 1..=5u64 {
            s.seq = seq;
            s.step = seq;
            write_checkpoint(&dir, &s, 3).unwrap();
        }
        // keep-last-3 rotation: seqs 3..=5 survive.
        let names: Vec<String> = list_checkpoints(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "ckpt-000003.mckpt",
                "ckpt-000004.mckpt",
                "ckpt-000005.mckpt"
            ]
        );

        // Newest loads cleanly.
        let loaded = load_latest(&dir, Some(s.fingerprint)).unwrap();
        assert_eq!(loaded.state.step, 5);
        assert!(loaded.skipped.is_empty());

        // Corrupt the newest: loader falls back to seq 4 and reports why.
        corrupt_newest(&dir, CorruptMode::Truncate).unwrap();
        let loaded = load_latest(&dir, Some(s.fingerprint)).unwrap();
        assert_eq!(loaded.state.step, 4);
        assert_eq!(loaded.skipped.len(), 1);
        assert!(matches!(loaded.skipped[0].1, CkptError::Truncated { .. }));

        // Flip a byte in the (now-newest-valid) seq 4 file too: falls
        // back to 3 with a checksum error on record.
        let files = list_checkpoints(&dir).unwrap();
        let target = files.iter().find(|p| p.ends_with("ckpt-000004.mckpt"));
        let target = target.unwrap();
        let text = std::fs::read_to_string(target).unwrap();
        std::fs::write(target, text.replacen("\"step\":4", "\"step\":9", 1)).unwrap();
        let loaded = load_latest(&dir, Some(s.fingerprint)).unwrap();
        assert_eq!(loaded.state.step, 3);
        assert!(loaded
            .skipped
            .iter()
            .any(|(_, e)| matches!(e, CkptError::ChecksumMismatch { .. })));

        // Fingerprint mismatch on the newest valid file does NOT fall
        // back: the directory belongs to another run.
        let err = load_latest(&dir, Some(0x1234)).unwrap_err();
        assert!(matches!(err, CkptError::FingerprintMismatch { .. }));

        // Everything corrupt: typed NoValidCheckpoint.
        for f in list_checkpoints(&dir).unwrap() {
            std::fs::write(&f, "garbage").unwrap();
        }
        assert!(matches!(
            load_latest(&dir, None),
            Err(CkptError::NoValidCheckpoint { tried: 3, .. })
        ));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
