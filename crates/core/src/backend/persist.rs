//! On-disk persistence for router self-calibration and cache-consumer
//! hit-rate windows.
//!
//! A long-lived serving process learns two things worth keeping across
//! restarts:
//!
//! * the [`Router`]'s per-backend latency correction EWMAs
//!   ([`CalibrationEntry`]) — without them every restart re-trusts the
//!   analytic latency models until enough traffic re-converges them;
//! * each cached backend's [`CacheConsumer`](crate::cache::CacheConsumer)
//!   sliding window ([`ConsumerState`]) — the staged backend's
//!   `estimate()` discounts BFS by the windowed hit rate, so a cold
//!   window makes the router pessimistic about warmed caches for a full
//!   window after every restart.
//!
//! Both are captured into one [`PersistedState`] and written as a small
//! **versioned, line-oriented text file** (`meloppr-state v1`). Entries
//! are keyed by [`BackendKind`], not registration index, so state
//! survives reordering or adding unrelated backends. Corrupt, truncated
//! or version-mismatched files are **ignored with a warning** — stale
//! state must never keep a server from booting ([`load_state`] returns
//! `Ok(false)`; only real I/O failures are errors).
//!
//! The `meloppr-serve` binary and `meloppr-cli --calibration-file` load
//! this file at startup and save it on shutdown.
//!
//! # File format (v1)
//!
//! ```text
//! meloppr-state v1
//! calibration meloppr ratio 1.82 samples 41 degraded 3
//! consumer meloppr hits 812 reuse 640 shared 77 misses 131 extractions 131 rejected 4 ewma 0.87 window hhmhh...
//! ```
//!
//! `window` is the sliding window's outcomes oldest-first, one char per
//! lookup (`h` = served without BFS, `m` = paid for the extraction, `-`
//! for an empty window); `ewma -` means no lookup was ever recorded.
//! `reuse` (the hits served by stored stage results, which the staged
//! `estimate()` discounts diffusion by) may be absent, as in files
//! written before it existed; it then reads as 0.
//!
//! The final line is an integrity footer over every byte before it:
//!
//! ```text
//! footer crc32 9ae16a3b len 142
//! ```
//!
//! A missing footer, a length mismatch (truncation) or a CRC mismatch
//! (bit rot, torn write) all decode to an error — which [`load_state`]
//! downgrades to a warning and a cold boot, like any other corruption.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use super::{BackendKind, CalibrationEntry, Router};
use crate::cache::{ConsumerState, ConsumerStats};

/// First line of every state file; the version suffix gates decoding.
const HEADER: &str = "meloppr-state v1";

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial), bit-at-a-time — the state
/// file is a few hundred bytes at shutdown and startup, so a lookup
/// table would be pure bloat. The ball index (`meloppr_core::ballindex`)
/// reuses this function for its own integrity footer; its builder
/// streams megabytes through it once, offline, where bit-at-a-time is
/// still fine.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Incremental CRC-32 step: feed chunks through with an initial state of
/// `0xFFFF_FFFF` and complement the final state — equivalent to one
/// [`crc32`] call over the concatenated bytes. The ball-index loader
/// verifies multi-megabyte files in fixed-size chunks this way.
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc
}

/// Everything [`save_state`] persists: calibration entries plus each
/// cached backend's consumer state, both keyed by [`BackendKind`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersistedState {
    /// Per-backend latency calibration, in registration order.
    pub calibration: Vec<CalibrationEntry>,
    /// Cache-consumer state of every backend exposing a consumer handle.
    pub consumers: Vec<(BackendKind, ConsumerState)>,
}

impl PersistedState {
    /// Captures the router's current calibration plus every registered
    /// backend's cache-consumer state. Call once traffic has quiesced
    /// (shutdown) — consumer snapshots are relaxed-atomic reads.
    pub fn capture(router: &Router<'_>) -> Self {
        let mut consumers = Vec::new();
        for backend in router.backends() {
            if let Some(consumer) = backend.cache_consumer() {
                consumers.push((backend.capabilities().kind, consumer.export_state()));
            }
        }
        PersistedState {
            calibration: router.calibration_entries(),
            consumers,
        }
    }

    /// Re-applies this state to a (freshly built) router: calibration
    /// entries via [`Router::restore_calibration`], consumer states into
    /// the first not-yet-restored backend of each entry's kind. Entries
    /// for kinds the router does not register are skipped. Returns
    /// `(calibration entries applied, consumer windows applied)`.
    pub fn apply(&self, router: &Router<'_>) -> (usize, usize) {
        let applied = router.restore_calibration(&self.calibration);
        let mut used = vec![false; self.consumers.len()];
        let mut windows = 0;
        for backend in router.backends() {
            let Some(consumer) = backend.cache_consumer() else {
                continue;
            };
            let kind = backend.capabilities().kind;
            let next = self
                .consumers
                .iter()
                .enumerate()
                .find(|(i, (k, _))| *k == kind && !used[*i])
                .map(|(i, _)| i);
            if let Some(i) = next {
                consumer.restore_state(&self.consumers[i].1);
                used[i] = true;
                windows += 1;
            }
        }
        (applied, windows)
    }

    /// Renders the versioned text encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for entry in &self.calibration {
            let _ = writeln!(
                out,
                "calibration {} ratio {} samples {} degraded {}",
                entry.kind, entry.ratio, entry.samples, entry.degraded
            );
        }
        for (kind, state) in &self.consumers {
            let window: String = if state.window.is_empty() {
                "-".into()
            } else {
                state
                    .window
                    .iter()
                    .map(|&free| if free { 'h' } else { 'm' })
                    .collect()
            };
            let ewma = state
                .ewma
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "consumer {kind} hits {} reuse {} shared {} misses {} extractions {} \
                 rejected {} ewma {ewma} window {window}",
                state.stats.hits,
                state.stats.reuse_hits,
                state.stats.shared,
                state.stats.misses,
                state.stats.extractions,
                state.stats.rejected_admissions,
            );
        }
        let _ = writeln!(
            out,
            "footer crc32 {:08x} len {}",
            crc32(out.as_bytes()),
            out.len()
        );
        out
    }

    /// Parses the text encoding, rejecting unknown versions and any
    /// malformed record with a human-readable reason (the caller decides
    /// whether that is a warning or an error).
    pub fn decode(text: &str) -> Result<Self, String> {
        // Header before footer: a version mismatch should say so, not
        // "bad crc" (other versions may hash differently).
        match text.lines().next().map(str::trim) {
            Some(HEADER) => {}
            Some(other) => return Err(format!("unsupported header {other:?} (want {HEADER:?})")),
            None => return Err("empty file".into()),
        }
        let body = verify_footer(text)?;
        let mut lines = body.lines();
        lines.next(); // the header, checked above
        let mut state = PersistedState::default();
        for (number, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace().peekable();
            let context = |what: &str| format!("line {}: {what}", number + 2);
            match tokens.next() {
                Some("calibration") => {
                    let kind = parse_kind(&mut tokens).map_err(|e| context(&e))?;
                    state.calibration.push(CalibrationEntry {
                        kind,
                        ratio: parse_field(&mut tokens, "ratio").map_err(|e| context(&e))?,
                        samples: parse_field(&mut tokens, "samples").map_err(|e| context(&e))?,
                        degraded: parse_field(&mut tokens, "degraded").map_err(|e| context(&e))?,
                    });
                }
                Some("consumer") => {
                    let kind = parse_kind(&mut tokens).map_err(|e| context(&e))?;
                    let hits = parse_field(&mut tokens, "hits").map_err(|e| context(&e))?;
                    let reuse_hits = match tokens.peek() {
                        Some(&"reuse") => {
                            parse_field(&mut tokens, "reuse").map_err(|e| context(&e))?
                        }
                        _ => 0,
                    };
                    let stats = ConsumerStats {
                        hits,
                        reuse_hits,
                        shared: parse_field(&mut tokens, "shared").map_err(|e| context(&e))?,
                        misses: parse_field(&mut tokens, "misses").map_err(|e| context(&e))?,
                        extractions: parse_field(&mut tokens, "extractions")
                            .map_err(|e| context(&e))?,
                        rejected_admissions: parse_field(&mut tokens, "rejected")
                            .map_err(|e| context(&e))?,
                        // Cold-tier counters are not persisted (the v1
                        // format predates the disk tier); they restart
                        // at zero on every boot.
                        ..Default::default()
                    };
                    let ewma = parse_optional_f64(&mut tokens, "ewma").map_err(|e| context(&e))?;
                    let window = parse_window(&mut tokens).map_err(|e| context(&e))?;
                    state.consumers.push((
                        kind,
                        ConsumerState {
                            stats,
                            ewma,
                            window,
                        },
                    ));
                }
                Some(other) => return Err(context(&format!("unknown record {other:?}"))),
                None => unreachable!("blank lines are skipped"),
            }
        }
        Ok(state)
    }
}

/// Checks the trailing `footer crc32 <hex> len <bytes>` line against
/// every byte before it and returns that body slice (header included).
/// Any discrepancy — no footer at all, bytes missing relative to the
/// recorded length, or a checksum mismatch — is reported as the
/// corruption it implies.
fn verify_footer(text: &str) -> Result<&str, String> {
    let Some(start) = text.rfind("\nfooter ").map(|i| i + 1) else {
        return Err("missing integrity footer (file truncated?)".into());
    };
    let body = &text[..start];
    let mut trailing = text[start..].lines();
    let footer = trailing.next().unwrap_or_default();
    if trailing.any(|line| !line.trim().is_empty()) {
        return Err("unexpected content after the integrity footer".into());
    }
    let mut tokens = footer.split_whitespace().skip(1); // "footer"
    let expected_crc = match (tokens.next(), tokens.next()) {
        (Some("crc32"), Some(value)) => u32::from_str_radix(value, 16)
            .map_err(|e| format!("bad footer crc32 {value:?}: {e}"))?,
        other => {
            return Err(format!(
                "malformed footer: want \"crc32 <hex>\", found {other:?}"
            ))
        }
    };
    let expected_len = match (tokens.next(), tokens.next()) {
        (Some("len"), Some(value)) => value
            .parse::<usize>()
            .map_err(|e| format!("bad footer len {value:?}: {e}"))?,
        other => {
            return Err(format!(
                "malformed footer: want \"len <bytes>\", found {other:?}"
            ))
        }
    };
    if expected_len != body.len() {
        return Err(format!(
            "state file truncated: footer recorded {expected_len} bytes, found {}",
            body.len()
        ));
    }
    let actual = crc32(body.as_bytes());
    if actual != expected_crc {
        return Err(format!(
            "crc32 mismatch: footer recorded {expected_crc:08x}, content hashes to {actual:08x}"
        ));
    }
    Ok(body)
}

fn parse_kind<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<BackendKind, String> {
    tokens
        .next()
        .ok_or_else(|| "missing backend kind".to_string())?
        .parse()
}

fn parse_field<'a, T: std::str::FromStr>(
    tokens: &mut impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match tokens.next() {
        Some(key) if key == name => {}
        other => return Err(format!("expected key {name:?}, found {other:?}")),
    }
    let value = tokens
        .next()
        .ok_or_else(|| format!("{name} is missing its value"))?;
    value
        .parse()
        .map_err(|e| format!("bad {name} {value:?}: {e}"))
}

fn parse_optional_f64<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<Option<f64>, String> {
    match tokens.next() {
        Some(key) if key == name => {}
        other => return Err(format!("expected key {name:?}, found {other:?}")),
    }
    match tokens.next() {
        Some("-") => Ok(None),
        Some(value) => {
            let parsed: f64 = value
                .parse()
                .map_err(|e| format!("bad {name} {value:?}: {e}"))?;
            if !parsed.is_finite() {
                return Err(format!("non-finite {name} {value:?}"));
            }
            Ok(Some(parsed))
        }
        None => Err(format!("{name} is missing its value")),
    }
}

fn parse_window<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Vec<bool>, String> {
    match tokens.next() {
        Some("window") => {}
        other => return Err(format!("expected key \"window\", found {other:?}")),
    }
    match tokens.next() {
        Some("-") => Ok(Vec::new()),
        Some(chars) => chars
            .chars()
            .map(|c| match c {
                'h' => Ok(true),
                'm' => Ok(false),
                other => Err(format!("bad window outcome {other:?} (want h/m)")),
            })
            .collect(),
        None => Err("window is missing its value".into()),
    }
}

/// Captures the router's state and writes it to `path` (via a sibling
/// temp file + rename, so a crash mid-write never leaves a truncated
/// state file to be mistaken for real history).
///
/// # Errors
///
/// Any filesystem error (permissions, missing parent directory, …).
pub fn save_state(router: &Router<'_>, path: &Path) -> io::Result<()> {
    crate::failpoint::check("persist.io")?;
    let encoded = PersistedState::capture(router).encode();
    // Pid-suffixed temp name: two processes sharing one state file (CLI
    // alongside a daemon) each stage in their own sibling, so neither
    // can rename the other's half-written temp into place — last full
    // rename wins.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = std::fs::write(&tmp, encoded).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads `path` and applies it to `router`. Returns `Ok(true)` when
/// state was applied; a **missing** file (first boot) returns
/// `Ok(false)` silently, and a corrupt or version-mismatched file
/// returns `Ok(false)` after printing a warning to stderr — stale state
/// never panics or blocks startup.
///
/// # Errors
///
/// Only real I/O failures while reading an existing file.
pub fn load_state(router: &Router<'_>, path: &Path) -> io::Result<bool> {
    crate::failpoint::check("persist.io")?;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // Binary garbage where text should be is a corrupt file, not
            // an I/O failure: warn and boot cold like any other decode
            // error.
            eprintln!(
                "warning: ignoring calibration state {}: {e}",
                path.display()
            );
            return Ok(false);
        }
        Err(e) => return Err(e),
    };
    match PersistedState::decode(&text) {
        Ok(state) => {
            state.apply(router);
            Ok(true)
        }
        Err(reason) => {
            eprintln!(
                "warning: ignoring calibration state {}: {reason}",
                path.display()
            );
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> PersistedState {
        PersistedState {
            calibration: vec![
                CalibrationEntry {
                    kind: BackendKind::LocalPpr,
                    ratio: 1.8125,
                    samples: 12,
                    degraded: 0,
                },
                CalibrationEntry {
                    kind: BackendKind::Meloppr,
                    ratio: 0.25,
                    samples: 7,
                    degraded: 3,
                },
            ],
            consumers: vec![(
                BackendKind::Meloppr,
                ConsumerState {
                    stats: ConsumerStats {
                        hits: 10,
                        reuse_hits: 6,
                        shared: 2,
                        misses: 4,
                        extractions: 4,
                        rejected_admissions: 1,
                        ..Default::default()
                    },
                    ewma: Some(0.75),
                    window: vec![true, false, true, true],
                },
            )],
        }
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let state = sample_state();
        let text = state.encode();
        assert!(text.starts_with(HEADER));
        assert_eq!(PersistedState::decode(&text).unwrap(), state);

        // Empty windows and unset EWMAs render as '-' and roundtrip too.
        let mut bare = sample_state();
        bare.consumers[0].1.ewma = None;
        bare.consumers[0].1.window.clear();
        assert_eq!(PersistedState::decode(&bare.encode()).unwrap(), bare);

        // A record written before `reuse` existed still decodes, as 0.
        let old = with_footer(
            "meloppr-state v1\nconsumer meloppr hits 3 shared 1 misses 2 extractions 2 \
             rejected 0 ewma 0.5 window hm\n",
        );
        let decoded = PersistedState::decode(&old).unwrap();
        let stats = decoded.consumers[0].1.stats;
        assert_eq!((stats.hits, stats.reuse_hits, stats.misses), (3, 0, 2));
    }

    /// Appends a valid integrity footer, so record-level corruption
    /// tests exercise the record parser rather than the checksum.
    fn with_footer(body: &str) -> String {
        format!(
            "{body}footer crc32 {:08x} len {}\n",
            crc32(body.as_bytes()),
            body.len()
        )
    }

    #[test]
    fn decode_rejects_corruption_with_reasons() {
        for (text, needle) in [
            ("".into(), "empty"),
            ("meloppr-state v999\n".into(), "unsupported header"),
            ("meloppr-state v1\n".into(), "missing integrity footer"),
            (with_footer("meloppr-state v1\nfrobnicate all the things\n"), "unknown record"),
            (with_footer("meloppr-state v1\ncalibration nonsense ratio 1 samples 1 degraded 0\n"), "unknown backend kind"),
            (with_footer("meloppr-state v1\ncalibration meloppr ratio abc samples 1 degraded 0\n"), "bad ratio"),
            (with_footer("meloppr-state v1\ncalibration meloppr ratio 1.0 samples 1\n"), "degraded"),
            (with_footer("meloppr-state v1\nconsumer meloppr hits 1 shared 0 misses 0 extractions 0 rejected 0 ewma inf window h\n"), "non-finite"),
            (with_footer("meloppr-state v1\nconsumer meloppr hits 1 shared 0 misses 0 extractions 0 rejected 0 ewma 0.5 window hxm\n"), "bad window outcome"),
        ] {
            let err = PersistedState::decode(&text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
        // Comments and blank lines are fine.
        let text = with_footer("meloppr-state v1\n\n# a comment\n");
        assert_eq!(
            PersistedState::decode(&text).unwrap(),
            PersistedState::default()
        );
    }

    #[test]
    fn footer_catches_bit_flips_and_truncation() {
        let clean = sample_state().encode();

        // A single flipped bit anywhere in the body fails the checksum.
        let mut flipped = clean.clone().into_bytes();
        let target = clean.len() / 2; // well inside the records
        flipped[target] ^= 0x01;
        if let Ok(text) = String::from_utf8(flipped) {
            let err = PersistedState::decode(&text).unwrap_err();
            assert!(err.contains("crc32 mismatch"), "{err}");
        }

        // Losing a record line (footer intact) is a length mismatch.
        let record_start = clean.find("\nconsumer").unwrap() + 1;
        let record_end = clean[record_start..].find('\n').unwrap() + record_start + 1;
        let mut shorter = clean.clone();
        shorter.replace_range(record_start..record_end, "");
        let err = PersistedState::decode(&shorter).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Losing the tail (footer included) reads as a missing footer.
        let cut = &clean[..clean.rfind("footer").unwrap()];
        let err = PersistedState::decode(cut).unwrap_err();
        assert!(err.contains("missing integrity footer"), "{err}");
    }

    #[test]
    fn load_state_warns_and_boots_cold_on_corruption() {
        let router = Router::new();
        let path = std::env::temp_dir().join(format!(
            "meloppr-persist-bitflip-{}.state",
            std::process::id()
        ));
        // A valid file round-trips through disk.
        std::fs::write(&path, sample_state().encode()).unwrap();
        assert!(load_state(&router, &path).unwrap());
        // Corrupting it (torn footer) downgrades to a cold boot, not an
        // error and not a panic.
        let mut torn = sample_state().encode();
        torn.truncate(torn.len() - 10);
        std::fs::write(&path, torn).unwrap();
        assert!(!load_state(&router, &path).unwrap());
        let _ = std::fs::remove_file(&path);
    }
}
