//! Analytic memory-accounting models (Table II).
//!
//! The paper measures CPU memory with Python's `tracemalloc` and computes
//! FPGA BRAM with an explicit byte formula (§VI-B). Since absolute Python
//! allocator numbers are not reproducible from Rust, this module applies a
//! single *consistent* analytic model to every implementation, so the
//! **ratios** Table II reports (LocalPPR vs MeLoPPR, CPU vs FPGA) are
//! meaningful:
//!
//! * **CPU model** — every resident word costs [`CPU_WORD_BYTES`]: the CSR
//!   sub-graph (`2·|V| + 2·|E|` words: per-node index pair plus both
//!   adjacency directions), three score vectors (`3·|V|`: power,
//!   next-power, accumulated), and BFS bookkeeping (`2·|V|`: queue +
//!   visited map).
//! * **FPGA model** — the paper's formula, verbatim:
//!   `BRAM_bytes = 4·(2·|V| + 2·|E| + 2·|V| + |V|)` (sub-graph table +
//!   accumulated score table + residual score table, §VI-B), plus the
//!   bounded `c·k` global table.

/// Bytes per word in the CPU model. The baseline the paper measures is
/// NetworkX/Python, where scores and references are 8-byte objects.
pub const CPU_WORD_BYTES: usize = 8;

/// Byte breakdown of a single diffusion task on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTaskMemory {
    /// Sub-graph storage (CSR arrays + id maps).
    pub graph_bytes: usize,
    /// Score vectors (power, next-power, accumulated).
    pub score_bytes: usize,
    /// BFS bookkeeping (queue + visited map).
    pub bfs_bytes: usize,
}

impl CpuTaskMemory {
    /// Total bytes of the task.
    pub fn total(&self) -> usize {
        self.graph_bytes + self.score_bytes + self.bfs_bytes
    }
}

/// CPU memory of one diffusion over a ball with `nodes` nodes and `edges`
/// undirected edges (model described in the module docs).
pub fn cpu_task_memory(nodes: usize, edges: usize) -> CpuTaskMemory {
    cpu_task_memory_width(nodes, edges, CPU_WORD_BYTES)
}

/// [`cpu_task_memory`] with an explicit score-word width, used by the
/// staged planner, estimator and budget gate so a precision-ladder width
/// downgrade is priced *before* ball depth is shrunk. The precision
/// ladder stores scores at 8 bytes (`Exact64`) or 4 bytes (`Fast32` /
/// `Fixed(q)`); graph storage and BFS bookkeeping stay at
/// [`CPU_WORD_BYTES`], since they hold node ids, not scores. At width
/// [`CPU_WORD_BYTES`] this is exactly [`cpu_task_memory`].
pub fn cpu_task_memory_width(
    nodes: usize,
    edges: usize,
    score_width_bytes: usize,
) -> CpuTaskMemory {
    CpuTaskMemory {
        graph_bytes: (2 * nodes + 2 * edges) * CPU_WORD_BYTES,
        score_bytes: 3 * nodes * score_width_bytes,
        bfs_bytes: 2 * nodes * CPU_WORD_BYTES,
    }
}

/// Peak CPU memory of a whole MeLoPPR query: the largest single task plus
/// the persistent aggregation state.
///
/// `aggregate_entries` is the number of distinct `(node, score)` pairs the
/// aggregator holds (bounded by `c·k` when the table factor is set);
/// `pending_nodes` is the maximum size of the next-stage work queue.
pub fn meloppr_cpu_peak(
    peak_task: CpuTaskMemory,
    aggregate_entries: usize,
    pending_nodes: usize,
) -> usize {
    peak_task.total() + aggregate_entries * 2 * CPU_WORD_BYTES + pending_nodes * 2 * CPU_WORD_BYTES
}

/// The paper's FPGA BRAM formula (§VI-B):
/// `4·(2·|V| + 2·|E| + 2·|V| + |V|)` bytes for the sub-graph, accumulated
/// and residual score tables of one PE.
pub fn fpga_bram_bytes(nodes: usize, edges: usize) -> usize {
    4 * (2 * nodes + 2 * edges + 2 * nodes + nodes)
}

/// FPGA bytes for the bounded global score table (`c·k` entries of
/// 32-bit id + 32-bit score).
pub fn fpga_global_table_bytes(c: usize, k: usize) -> usize {
    c * k * 8
}

/// Peak FPGA memory of a MeLoPPR query: the largest sub-graph resident in
/// a PE plus the global table.
pub fn meloppr_fpga_peak(peak_nodes: usize, peak_edges: usize, c: usize, k: usize) -> usize {
    fpga_bram_bytes(peak_nodes, peak_edges) + fpga_global_table_bytes(c, k)
}

/// Parses a human byte size: a number with an optional binary
/// (`KiB`/`MiB`/`GiB`, or bare `K`/`M`/`G`) or decimal (`KB`/`MB`/`GB`)
/// suffix. Case-insensitive, fractional values allowed (`"1.5MiB"`),
/// surrounding whitespace ignored. Used by the CLI's `--cache-bytes` /
/// `--budget-memory` flags.
///
/// # Errors
///
/// Returns a description of the problem for empty input, an unknown
/// suffix, a malformed number, zero, or a value overflowing `usize`.
///
/// # Examples
///
/// ```
/// use meloppr_core::memory::parse_byte_size;
///
/// assert_eq!(parse_byte_size("64MiB").unwrap(), 64 << 20);
/// assert_eq!(parse_byte_size("2 kb").unwrap(), 2000);
/// assert_eq!(parse_byte_size("512").unwrap(), 512);
/// ```
pub fn parse_byte_size(s: &str) -> std::result::Result<usize, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty byte size".into());
    }
    let split = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let (number, suffix) = s.split_at(split);
    let number: f64 = number
        .parse()
        .map_err(|_| format!("bad byte size {s:?}: no leading number"))?;
    let multiplier: f64 = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1.0,
        "k" | "kib" => 1024.0,
        "m" | "mib" => 1024.0 * 1024.0,
        "g" | "gib" => 1024.0 * 1024.0 * 1024.0,
        "kb" => 1e3,
        "mb" => 1e6,
        "gb" => 1e9,
        other => {
            return Err(format!(
                "unknown byte suffix {other:?} in {s:?} (use B, KiB/MiB/GiB or KB/MB/GB)"
            ))
        }
    };
    let value = number * multiplier;
    if !value.is_finite() || value < 0.0 || value > usize::MAX as f64 {
        return Err(format!("byte size {s:?} out of range"));
    }
    let bytes = value.round() as usize;
    if bytes == 0 {
        return Err(format!("byte size {s:?} must be positive"));
    }
    Ok(bytes)
}

/// Formats a byte count with a binary suffix (`"1.5 MiB"`), for budget
/// and residency telemetry lines.
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_formula() {
        let m = cpu_task_memory(100, 300);
        assert_eq!(m.graph_bytes, (200 + 600) * 8);
        assert_eq!(m.score_bytes, 300 * 8);
        assert_eq!(m.bfs_bytes, 200 * 8);
        assert_eq!(m.total(), (800 + 300 + 200) * 8);
    }

    #[test]
    fn fpga_formula_matches_paper() {
        // The paper: BRAM = 4*(2V + 2E + 2V + V) = 4*(5V + 2E).
        assert_eq!(fpga_bram_bytes(10, 20), 4 * (5 * 10 + 2 * 20));
        // Scales linearly in both arguments.
        assert_eq!(fpga_bram_bytes(20, 20) - fpga_bram_bytes(10, 20), 4 * 50);
    }

    #[test]
    fn global_table_bytes() {
        assert_eq!(fpga_global_table_bytes(10, 200), 16_000);
    }

    #[test]
    fn meloppr_peaks_compose() {
        let task = cpu_task_memory(50, 100);
        let total = meloppr_cpu_peak(task, 2000, 10);
        assert_eq!(total, task.total() + 2000 * 16 + 10 * 16);

        let fpga = meloppr_fpga_peak(50, 100, 10, 200);
        assert_eq!(fpga, fpga_bram_bytes(50, 100) + 16_000);
    }

    #[test]
    fn width_variant_halves_score_bytes_only() {
        let wide = cpu_task_memory(25, 60);
        let narrow = cpu_task_memory_width(25, 60, 4);
        assert_eq!(narrow.graph_bytes, wide.graph_bytes);
        assert_eq!(narrow.bfs_bytes, wide.bfs_bytes);
        assert_eq!(narrow.score_bytes, wide.score_bytes / 2);
    }

    #[test]
    fn parse_byte_size_suffixes() {
        assert_eq!(parse_byte_size("512").unwrap(), 512);
        assert_eq!(parse_byte_size("512B").unwrap(), 512);
        assert_eq!(parse_byte_size("4KiB").unwrap(), 4096);
        assert_eq!(parse_byte_size("4k").unwrap(), 4096);
        assert_eq!(parse_byte_size("64MiB").unwrap(), 64 << 20);
        assert_eq!(parse_byte_size("64 MiB").unwrap(), 64 << 20);
        assert_eq!(parse_byte_size("2GiB").unwrap(), 2 << 30);
        assert_eq!(parse_byte_size("1kb").unwrap(), 1000);
        assert_eq!(parse_byte_size("3MB").unwrap(), 3_000_000);
        assert_eq!(parse_byte_size("1GB").unwrap(), 1_000_000_000);
        assert_eq!(parse_byte_size("  8m  ").unwrap(), 8 << 20);
    }

    #[test]
    fn parse_byte_size_fractional_and_case() {
        assert_eq!(parse_byte_size("1.5KiB").unwrap(), 1536);
        assert_eq!(parse_byte_size("0.5MiB").unwrap(), 512 << 10);
        assert_eq!(parse_byte_size("64mib").unwrap(), 64 << 20);
        assert_eq!(parse_byte_size("64MIB").unwrap(), 64 << 20);
    }

    #[test]
    fn parse_byte_size_rejects_garbage() {
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("   ").is_err());
        assert!(parse_byte_size("MiB").is_err());
        assert!(parse_byte_size("12XB").is_err());
        assert!(parse_byte_size("1.2.3K").is_err());
        assert!(parse_byte_size("0").is_err());
        assert!(parse_byte_size("0.0001").is_err()); // rounds to zero
        assert!(parse_byte_size("1e300GiB").is_err());
        assert!(parse_byte_size("-5K").is_err());
    }

    #[test]
    fn format_bytes_picks_binary_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(64 << 20), "64.0 MiB");
        assert_eq!(format_bytes(3 << 30), "3.0 GiB");
        assert_eq!(format_bytes(1536), "1.5 KiB");
    }

    #[test]
    fn fpga_much_smaller_than_cpu_for_same_ball() {
        // The FPGA's packed 4-byte words beat the CPU's 8-byte model by
        // roughly the word-width ratio; the real Table II gap also includes
        // Python overhead, which our CPU model intentionally understates.
        let (nodes, edges) = (1000, 3000);
        assert!(fpga_bram_bytes(nodes, edges) < cpu_task_memory(nodes, edges).total());
    }
}
