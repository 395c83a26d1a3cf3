//! The persisted ball index — the disk half of the two-tier ball store.
//!
//! MeLoPPR's cache trades RAM for BFS work: a ball that falls out of the
//! byte-budgeted [`ConcurrentSubgraphCache`](crate::ConcurrentSubgraphCache)
//! must be re-extracted from the full graph, and on skewed traffic that
//! re-extraction dominates the miss cost. PowerWalk-style precomputation
//! moves that work offline: [`build_index`] BFS-extracts **every** node's
//! ball at one configured depth, encodes each in the
//! [`CompactBall`] wire layout, and writes one versioned, checksummed
//! index file. Online, a [`BallIndex`] serves any RAM miss with a single
//! positioned read (`read_exact_at` into a pooled caller-owned buffer —
//! no `unsafe`, no mmap) that decodes the compact wire form; the cache
//! serves and keeps that compact ball as-is (the kernels diffuse it to
//! the same bits as a BFS-extracted sub-graph), falling back to live BFS
//! only when the index lacks the node or was built at a different depth.
//!
//! # File format (`meloppr-ballindex v1`)
//!
//! All integers are little-endian; the layout is position-independent so
//! a record is one `read_exact_at` away:
//!
//! ```text
//! "meloppr-ballindex v1\n"           ASCII header line (21 bytes)
//! depth      u32                     ball depth every record was built at
//! num_nodes  u32                     node count of the indexed graph
//! table      (num_nodes + 1) × u64   absolute file offset of each record;
//!                                    table[i] == table[i+1] ⇒ node i has
//!                                    no record (ball exceeded u16 ids)
//! records    …                       per-node, at their table offsets:
//!     n           u32                nodes in the ball
//!     m           u32                directed adjacency entries
//!     global_ids  n × u32            local → parent-graph id map
//!     offsets     (n + 1) × u32      CSR prefix sums into `neighbors`
//!     neighbors   m × u16            packed local adjacency
//!     degrees     n × u32            parent-graph walk degrees
//! footer     u64 body_len + u32 crc32   integrity trailer over every
//!                                       byte before it (same CRC-32 as
//!                                       the `meloppr-state` footer)
//! ```
//!
//! A missing file is a silent cold boot; a corrupt, truncated or
//! version-mismatched file **warns and boots cold** via
//! [`BallIndex::load`], exactly like calibration state — a stale index
//! must never keep a server from starting. [`BallIndex::load_for`] adds
//! the same policy for an index built over a graph of another size, so
//! a binary never serves another graph's balls. Every decoded record passes
//! [`CompactBall::from_raw_parts`] validation, so a torn write can
//! produce an error but never an out-of-bounds panic.
//!
//! Reads pass the `index.read` failpoint, so chaos tests can inject
//! mid-burst cold-tier failures and assert the BFS fallback keeps
//! rankings bit-identical.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use meloppr_graph::{ExtractScratch, GraphView, NodeId};

use crate::backend::persist::crc32_update;
use crate::quantized::CompactBall;

/// First bytes of every index file; the version suffix gates decoding.
const HEADER: &[u8] = b"meloppr-ballindex v1\n";

/// Trailing integrity footer: `u64` body length + `u32` CRC-32.
const FOOTER_LEN: u64 = 12;

/// Fixed header fields after the magic line: `u32` depth + `u32` nodes.
const FIXED_FIELDS: u64 = 8;

/// Chunk size for streaming the checksum; bounds loader memory at open.
const CRC_CHUNK: usize = 64 * 1024;

/// A loaded ball index: the backing file plus the in-RAM `u64` offset
/// table (16 bytes per graph node — the only part of the index that
/// stays resident).
///
/// Shared read-only across threads; positioned reads need no seek state,
/// so concurrent cold-tier lookups never contend on the index itself.
#[derive(Debug)]
pub struct BallIndex {
    file: File,
    depth: u32,
    offsets: Vec<u64>,
}

/// What [`build_index`] did, for operator logs and bench sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexBuildReport {
    /// Nodes whose ball was encoded into the index.
    pub nodes_indexed: usize,
    /// Nodes skipped because their ball exceeds `u16` local ids
    /// (they will always fall back to live BFS).
    pub nodes_skipped: usize,
    /// Summed in-RAM [`CompactBall`] bytes of every indexed ball — the
    /// denominator of the "cache budget ≤ ¼ of resident ball bytes"
    /// beyond-RAM benchmark configuration.
    pub ball_bytes: usize,
    /// Total bytes of the written index file.
    pub file_bytes: u64,
}

impl BallIndex {
    /// Opens and fully validates an index file: header, version, footer
    /// checksum (streamed in fixed chunks) and offset-table invariants.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] with a human-readable reason for
    /// any corruption or version mismatch; other kinds for real I/O
    /// failures.
    pub fn open(path: &Path) -> io::Result<BallIndex> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let min_len = HEADER.len() as u64 + FIXED_FIELDS + 8 + FOOTER_LEN;
        if file_len < min_len {
            return Err(invalid(format!(
                "index file is {file_len} bytes; even an empty-graph index needs {min_len}"
            )));
        }

        // Footer first: a truncated file should say "truncated", not
        // fail half-way through a short offset table.
        let body_len = file_len - FOOTER_LEN;
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, body_len)?;
        let recorded_len = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let recorded_crc = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes"));
        if recorded_len != body_len {
            return Err(invalid(format!(
                "index truncated: footer recorded {recorded_len} body bytes, found {body_len}"
            )));
        }
        let actual_crc = stream_crc32(&mut file, body_len)?;
        if actual_crc != recorded_crc {
            return Err(invalid(format!(
                "index crc32 mismatch: footer recorded {recorded_crc:08x}, \
                 content hashes to {actual_crc:08x}"
            )));
        }

        let mut header = vec![0u8; HEADER.len()];
        file.read_exact_at(&mut header, 0)?;
        if header != HEADER {
            return Err(invalid(format!(
                "unsupported index header {:?} (want {:?})",
                String::from_utf8_lossy(&header),
                String::from_utf8_lossy(HEADER),
            )));
        }
        let mut fixed = [0u8; FIXED_FIELDS as usize];
        file.read_exact_at(&mut fixed, HEADER.len() as u64)?;
        let depth = u32::from_le_bytes(fixed[0..4].try_into().expect("4 bytes"));
        let num_nodes = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes")) as usize;

        let table_pos = HEADER.len() as u64 + FIXED_FIELDS;
        let table_bytes = (num_nodes as u64 + 1)
            .checked_mul(8)
            .filter(|bytes| table_pos + bytes <= body_len)
            .ok_or_else(|| {
                invalid(format!(
                    "offset table for {num_nodes} nodes does not fit the file body"
                ))
            })?;
        let mut raw = vec![0u8; table_bytes as usize];
        file.read_exact_at(&mut raw, table_pos)?;
        let offsets: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let data_start = table_pos + table_bytes;
        if offsets[0] != data_start {
            return Err(invalid(format!(
                "offset table starts at {} (want {data_start})",
                offsets[0]
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("offset table is not monotone".into()));
        }
        if offsets[num_nodes] != body_len {
            return Err(invalid(format!(
                "offset table ends at {} (want body length {body_len})",
                offsets[num_nodes]
            )));
        }
        Ok(BallIndex {
            file,
            depth,
            offsets,
        })
    }

    /// As [`BallIndex::open`], with the calibration-state boot policy: a
    /// missing file is a silent `Ok(None)` (first boot), a corrupt,
    /// truncated or version-mismatched file prints a warning to stderr
    /// and returns `Ok(None)` — the server boots cold on live BFS either
    /// way. Only real I/O failures are errors.
    pub fn load(path: &Path) -> io::Result<Option<BallIndex>> {
        match BallIndex::open(path) {
            Ok(index) => Ok(Some(index)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                eprintln!("warning: ignoring ball index {}: {e}", path.display());
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// As [`BallIndex::load`] for an index that will serve a graph of
    /// `num_nodes` nodes: an index built over a graph with a different
    /// node count warns and boots cold too. A foreign index decodes
    /// cleanly, so without this check the cache would serve another
    /// graph's balls as this one's. `meloppr-serve` and `meloppr-cli`
    /// both attach their `--ball-index` through here.
    ///
    /// # Errors
    ///
    /// As [`BallIndex::load`].
    pub fn load_for(path: &Path, num_nodes: usize) -> io::Result<Option<BallIndex>> {
        Ok(BallIndex::load(path)?.filter(|index| {
            let matches = index.num_nodes() == num_nodes;
            if !matches {
                eprintln!(
                    "warning: ignoring ball index {}: built over a {}-node graph, \
                     serving a {num_nodes}-node one",
                    path.display(),
                    index.num_nodes()
                );
            }
            matches
        }))
    }

    /// The ball depth every record was built at; only lookups for
    /// exactly this depth are served from disk.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Node count of the graph this index was built over.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether `node` has a record at `depth`.
    pub fn contains(&self, node: NodeId, depth: u32) -> bool {
        depth == self.depth
            && (node as usize + 1) < self.offsets.len()
            && self.offsets[node as usize] != self.offsets[node as usize + 1]
    }

    /// Reads and decodes one ball with a single positioned read into
    /// `buf` (cleared and reused — the caller owns it, typically pooled
    /// in a query workspace, so the steady-state cold path allocates
    /// only the decoded ball that the cache will retain).
    ///
    /// Returns `Ok(None)` when the index cannot serve this `(node,
    /// depth)` — wrong depth, out-of-range node, or a ball that was too
    /// large to encode — which is the caller's cue to fall back to live
    /// BFS. Passes the `index.read` failpoint before touching the file.
    ///
    /// # Errors
    ///
    /// Read failures, or [`io::ErrorKind::InvalidData`] when the record
    /// fails structural validation.
    pub fn read_ball(
        &self,
        node: NodeId,
        depth: u32,
        buf: &mut Vec<u8>,
    ) -> io::Result<Option<CompactBall>> {
        crate::failpoint::check("index.read")?;
        if !self.contains(node, depth) {
            return Ok(None);
        }
        let start = self.offsets[node as usize];
        let len = (self.offsets[node as usize + 1] - start) as usize;
        buf.clear();
        buf.resize(len, 0);
        self.file.read_exact_at(buf, start)?;
        decode_record(buf).map(Some)
    }
}

fn invalid(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

/// CRC-32 over the first `body_len` bytes of `file`, streamed in
/// [`CRC_CHUNK`]-sized reads.
fn stream_crc32(file: &mut File, body_len: u64) -> io::Result<u32> {
    file.seek(SeekFrom::Start(0))?;
    let mut state = 0xFFFF_FFFF_u32;
    let mut remaining = body_len;
    let mut chunk = vec![0u8; CRC_CHUNK.min(body_len as usize).max(1)];
    while remaining > 0 {
        let take = chunk.len().min(remaining as usize);
        file.read_exact(&mut chunk[..take])?;
        state = crc32_update(state, &chunk[..take]);
        remaining -= take as u64;
    }
    Ok(!state)
}

/// Appends the wire encoding of one ball to `out` (not cleared): the
/// `n`/`m` counts followed by the four raw arrays. The inverse of
/// [`decode_record`].
pub fn encode_record(ball: &CompactBall, out: &mut Vec<u8>) {
    let n = ball.global_ids().len() as u32;
    let m = ball.num_directed_edges() as u32;
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&m.to_le_bytes());
    for &id in ball.global_ids() {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for &off in ball.offsets_raw() {
        out.extend_from_slice(&off.to_le_bytes());
    }
    for &nbr in ball.neighbors_raw() {
        out.extend_from_slice(&nbr.to_le_bytes());
    }
    for &deg in ball.walk_degrees_raw() {
        out.extend_from_slice(&deg.to_le_bytes());
    }
}

/// Decodes one ball record, validating every structural invariant via
/// [`CompactBall::from_raw_parts`] — corrupt bytes produce a typed
/// error, never a panic. The inverse of [`encode_record`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] describing the first violation.
pub fn decode_record(bytes: &[u8]) -> io::Result<CompactBall> {
    if bytes.len() < 8 {
        return Err(invalid(format!(
            "ball record of {} bytes is shorter than its counts",
            bytes.len()
        )));
    }
    let n = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let m = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let expect = record_len(n, m);
    if bytes.len() != expect {
        return Err(invalid(format!(
            "ball record with n={n} m={m} must be {expect} bytes, got {}",
            bytes.len()
        )));
    }
    let mut at = 8usize;
    let mut take_u32s = |count: usize| -> Vec<u32> {
        let out = bytes[at..at + 4 * count]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        at += 4 * count;
        out
    };
    let global_ids: Vec<NodeId> = take_u32s(n);
    let offsets = take_u32s(n + 1);
    let neighbors: Vec<u16> = bytes[at..at + 2 * m]
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
        .collect();
    at += 2 * m;
    let take_u32s = |count: usize| -> Vec<u32> {
        bytes[at..at + 4 * count]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    let walk_degrees = take_u32s(n);
    CompactBall::from_raw_parts(global_ids, offsets, neighbors, walk_degrees)
        .map_err(|e| invalid(e.to_string()))
}

/// Exact wire size of a record with `n` nodes and `m` adjacency entries.
fn record_len(n: usize, m: usize) -> usize {
    8 + 4 * n + 4 * (n + 1) + 2 * m + 4 * n
}

/// Builds a full ball index for `graph` at `depth` and writes it to
/// `path` (via a pid-suffixed sibling temp file + rename, so a crash
/// mid-build never leaves a torn index to be mistaken for a real one).
///
/// Every node is BFS-extracted once through one reused
/// [`ExtractScratch`]; balls larger than `u16` local ids are recorded as
/// absent (they fall back to live BFS online, exactly as the RAM cache
/// keeps them full).
///
/// # Errors
///
/// Filesystem failures, or extraction errors rendered as
/// [`io::ErrorKind::InvalidData`] (only possible if `graph` is
/// internally inconsistent).
pub fn build_index<G: GraphView + ?Sized>(
    graph: &G,
    depth: u32,
    path: &Path,
) -> io::Result<IndexBuildReport> {
    let n = graph.num_nodes();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = write_index(graph, n, depth, &tmp).and_then(|report| {
        std::fs::rename(&tmp, path)?;
        Ok(report)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_index<G: GraphView + ?Sized>(
    graph: &G,
    n: usize,
    depth: u32,
    tmp: &Path,
) -> io::Result<IndexBuildReport> {
    // Read+write: the checksum pass streams the body back in after the
    // records are written.
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    let mut out = io::BufWriter::new(file);
    out.write_all(HEADER)?;
    out.write_all(&depth.to_le_bytes())?;
    out.write_all(&(n as u32).to_le_bytes())?;

    // Reserve the offset table; the real offsets are patched in after
    // the records are streamed out.
    let table_pos = HEADER.len() as u64 + FIXED_FIELDS;
    let table_bytes = (n as u64 + 1) * 8;
    out.write_all(&vec![0u8; table_bytes as usize])?;

    let mut offsets = Vec::with_capacity(n + 1);
    let mut cursor = table_pos + table_bytes;
    offsets.push(cursor);
    let mut scratch = ExtractScratch::new();
    let mut record = Vec::new();
    let mut report = IndexBuildReport::default();
    for node in 0..n as NodeId {
        let (sub, _) = scratch
            .extract(graph, node, depth)
            .map_err(|e| invalid(format!("extracting ball of node {node}: {e}")))?;
        match CompactBall::from_subgraph(sub) {
            Some(ball) => {
                record.clear();
                encode_record(&ball, &mut record);
                out.write_all(&record)?;
                cursor += record.len() as u64;
                report.nodes_indexed += 1;
                report.ball_bytes += ball.memory_bytes_total();
            }
            None => report.nodes_skipped += 1,
        }
        offsets.push(cursor);
    }

    // Patch the table, then checksum the whole body with streamed reads
    // and append the footer.
    let mut file = out.into_inner().map_err(|e| e.into_error())?;
    let mut table = Vec::with_capacity(table_bytes as usize);
    for &off in &offsets {
        table.extend_from_slice(&off.to_le_bytes());
    }
    file.write_all_at(&table, table_pos)?;
    let body_len = cursor;
    let crc = stream_crc32(&mut file, body_len)?;
    file.seek(SeekFrom::Start(body_len))?;
    file.write_all(&body_len.to_le_bytes())?;
    file.write_all(&crc.to_le_bytes())?;
    file.sync_all()?;
    report.file_bytes = body_len + FOOTER_LEN;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meloppr_graph::generators;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "meloppr-ballindex-{tag}-{}.idx",
            std::process::id()
        ))
    }

    #[test]
    fn build_and_read_matches_fresh_extraction() {
        let g = generators::grid(8, 6).unwrap();
        let path = tmp_path("roundtrip");
        let report = build_index(&g, 2, &path).unwrap();
        assert_eq!(report.nodes_indexed, g.num_nodes());
        assert_eq!(report.nodes_skipped, 0);
        assert!(report.ball_bytes > 0);
        assert_eq!(report.file_bytes, std::fs::metadata(&path).unwrap().len());

        let index = BallIndex::open(&path).unwrap();
        assert_eq!(index.depth(), 2);
        assert_eq!(index.num_nodes(), g.num_nodes());
        let mut scratch = ExtractScratch::new();
        let mut buf = Vec::new();
        for node in [0u32, 7, 23, 47] {
            let from_disk = index.read_ball(node, 2, &mut buf).unwrap().unwrap();
            let (sub, _) = scratch.extract(&g, node, 2).unwrap();
            let fresh = CompactBall::from_subgraph(sub).unwrap();
            assert_eq!(from_disk, fresh, "node {node}");
        }
        // Wrong depth and out-of-range nodes miss rather than error.
        assert!(index.read_ball(0, 3, &mut buf).unwrap().is_none());
        assert!(index.read_ball(9999, 2, &mut buf).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_codec_roundtrips_and_rejects_corruption() {
        let g = generators::karate_club();
        let mut scratch = ExtractScratch::new();
        let (sub, _) = scratch.extract(&g, 0, 2).unwrap();
        let ball = CompactBall::from_subgraph(sub).unwrap();
        let mut bytes = Vec::new();
        encode_record(&ball, &mut bytes);
        assert_eq!(decode_record(&bytes).unwrap(), ball);

        // Truncation and count corruption are typed errors, not panics.
        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_record(&bytes[..4]).is_err());
        let mut huge_n = bytes.clone();
        huge_n[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&huge_n).is_err());
    }

    #[test]
    fn corrupt_files_warn_and_boot_cold() {
        let g = generators::path(16).unwrap();
        let path = tmp_path("corrupt");
        build_index(&g, 1, &path).unwrap();
        assert!(BallIndex::load(&path).unwrap().is_some());

        // A flipped bit fails the checksum; load downgrades to None.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let opened = BallIndex::open(&path);
        assert!(opened.is_err());
        assert!(BallIndex::load(&path).unwrap().is_none());

        // Truncation is caught by the footer length.
        bytes[mid] ^= 0x01; // restore
        bytes.truncate(bytes.len() - 20);
        std::fs::write(&path, &bytes).unwrap();
        let err = BallIndex::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A version bump (with a *valid* checksum, as a real v2 writer
        // would produce) is rejected by name.
        let mut other_version = {
            build_index(&g, 1, &path).unwrap();
            std::fs::read(&path).unwrap()
        };
        other_version[HEADER.len() - 2] = b'9';
        let body_end = other_version.len() - FOOTER_LEN as usize;
        let crc = crate::backend::persist::crc32(&other_version[..body_end]);
        let crc_at = body_end + 8;
        other_version[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &other_version).unwrap();
        let err = BallIndex::open(&path).unwrap_err();
        assert!(
            err.to_string().contains("unsupported index header"),
            "{err}"
        );
        assert!(BallIndex::load(&path).unwrap().is_none());

        // A missing file is silent.
        let _ = std::fs::remove_file(&path);
        assert!(BallIndex::load(&path).unwrap().is_none());
    }

    #[test]
    fn an_index_of_another_graph_boots_cold() {
        let g = generators::path(16).unwrap();
        let path = tmp_path("foreign");
        build_index(&g, 1, &path).unwrap();
        let index = BallIndex::load_for(&path, 16).unwrap();
        assert_eq!(index.map(|index| index.num_nodes()), Some(16));
        assert!(BallIndex::load_for(&path, 17).unwrap().is_none());
        assert!(BallIndex::load_for(&path, 15).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
        assert!(BallIndex::load_for(&path, 16).unwrap().is_none());
    }

    #[test]
    fn oversized_balls_are_skipped_not_fatal() {
        // A complete graph ball at depth 1 is the whole graph; force the
        // skip path with a graph larger than u16 local ids by checking
        // the report wiring on a small graph instead (a real > 65536
        // ball would dominate test time), plus the contains() contract.
        let g = generators::complete(8).unwrap();
        let path = tmp_path("skip");
        let report = build_index(&g, 1, &path).unwrap();
        assert_eq!(report.nodes_indexed + report.nodes_skipped, 8);
        let index = BallIndex::open(&path).unwrap();
        for node in 0..8u32 {
            assert_eq!(
                index.contains(node, 1),
                index.offsets[node as usize] != index.offsets[node as usize + 1]
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
