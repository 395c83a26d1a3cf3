//! The 32-bit integer score domain of §V-A.
//!
//! Floating-point arithmetic is expensive on FPGA fabric, so MeLoPPR's PEs
//! work on integers: the seed node starts with a large integer
//! `Max = d·|G_L(s)|` instead of probability 1.0, the decay factor is
//! approximated as `α ≈ αp / 2^q` (a 16-bit multiply plus a `q`-bit shift —
//! no DSP-hungry division), and per-degree splits are plain integer
//! divisions implemented in logic. The paper reports the resulting top-`k`
//! precision loss: `< 4 %` when `d` equals the average degree and
//! `< 0.001 %` at the maximum degree; it evaluates with `d = max_degree/2`
//! and `q = 10`. The `study_fixed_point` experiment regenerates that sweep.

use crate::error::{FpgaError, Result};
use meloppr_core::quantized::{fixed_coeff, mul_shift};

/// How the scale constant `d` of `Max = d·|G_L(s)|` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeScale {
    /// `d = max_degree / 2` — the paper's final choice.
    #[default]
    HalfMax,
    /// `d = avg_degree` (rounded up) — the paper's "< 4 % loss" setting.
    Average,
    /// `d = max_degree` — the paper's "< 0.001 % loss" setting.
    Max,
    /// An explicit constant.
    Fixed(u32),
}

impl DegreeScale {
    /// Resolves the policy into a concrete `d ≥ 1` for a graph with the
    /// given degree statistics.
    pub fn resolve(&self, max_degree: u32, avg_degree: f64) -> u32 {
        let d = match *self {
            DegreeScale::HalfMax => max_degree / 2,
            DegreeScale::Average => avg_degree.ceil() as u32,
            DegreeScale::Max => max_degree,
            DegreeScale::Fixed(d) => d,
        };
        d.max(1)
    }
}

/// The fixed-point format used by every score table of one query.
///
/// # Examples
///
/// ```
/// use meloppr_fpga::FixedPointFormat;
///
/// # fn main() -> Result<(), meloppr_fpga::FpgaError> {
/// // d = 8, ball size |V| + |E| = 1000, α = 0.85, q = 10.
/// let fmt = FixedPointFormat::new(8, 1000, 0.85, 10)?;
/// assert_eq!(fmt.max_value(), 8000);
/// // α is approximated as 870/1024 ≈ 0.8496.
/// assert!((fmt.effective_alpha() - 0.85).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointFormat {
    max_value: u32,
    alpha_p: u16,
    q: u32,
}

impl FixedPointFormat {
    /// Creates a format with `Max = d·graph_size` and `α ≈ αp/2^q`.
    ///
    /// `graph_size` is the paper's `|G_L(s)| = |V| + |E|` of the query's
    /// depth-`L` ball (an upper bound works too — a bigger `Max` only
    /// increases precision).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::FixedPointOverflow`] if `d == 0`,
    /// `graph_size == 0`, `Max` exceeds `u32::MAX`, `q` is not in `1..=15`,
    /// or `α ∉ (0, 1)`.
    pub fn new(d: u32, graph_size: usize, alpha: f64, q: u32) -> Result<Self> {
        if d == 0 || graph_size == 0 {
            return Err(FpgaError::FixedPointOverflow {
                reason: format!("d = {d} and graph size = {graph_size} must be positive"),
            });
        }
        if !(1..=15).contains(&q) {
            return Err(FpgaError::FixedPointOverflow {
                reason: format!("q = {q} outside 1..=15 (αp must fit 16 bits)"),
            });
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(FpgaError::FixedPointOverflow {
                reason: format!("alpha = {alpha} outside (0, 1)"),
            });
        }
        let max = (d as u64).checked_mul(graph_size as u64).ok_or_else(|| {
            FpgaError::FixedPointOverflow {
                reason: "Max = d * |G| overflows u64".into(),
            }
        })?;
        if max > u32::MAX as u64 {
            return Err(FpgaError::FixedPointOverflow {
                reason: format!("Max = {max} exceeds the 32-bit score range"),
            });
        }
        // Shared with the host-side Q-format rungs
        // (`meloppr_core::quantized`), so the simulated accelerator and
        // the quantized host path realize the same α by construction.
        let alpha_p = fixed_coeff(alpha, q) as u16;
        Ok(FixedPointFormat {
            max_value: max as u32,
            alpha_p,
            q,
        })
    }

    /// Builds the format a query on graph `g` would use: resolves `d` from
    /// the graph's degree statistics per `scale`, bounds `|G_L(s)|` by the
    /// whole graph's size `|V| + |E|` (a ball can never exceed it, and a
    /// larger `Max` only adds precision), and clamps `d` so `Max` stays in
    /// 32 bits.
    ///
    /// # Errors
    ///
    /// As [`FixedPointFormat::new`].
    pub fn for_graph<G: meloppr_graph::GraphView + ?Sized>(
        g: &G,
        alpha: f64,
        q: u32,
        scale: DegreeScale,
    ) -> Result<Self> {
        let stats = meloppr_graph::degree::degree_stats(g);
        let d = scale.resolve(stats.max, stats.mean);
        let size = g.size().max(1);
        let d_clamped = d.min((u32::MAX as usize / size).max(1) as u32).max(1);
        FixedPointFormat::new(d_clamped, size, alpha, q)
    }

    /// The seed node's initial integer score (`Max = d·|G_L(s)|`).
    pub fn max_value(&self) -> u32 {
        self.max_value
    }

    /// The numerator `αp` of the decay approximation.
    pub fn alpha_p(&self) -> u16 {
        self.alpha_p
    }

    /// The shift amount `q` (denominator `2^q`).
    pub fn q(&self) -> u32 {
        self.q
    }

    /// The decay factor actually realized by the integer datapath,
    /// `αp / 2^q`.
    pub fn effective_alpha(&self) -> f64 {
        self.alpha_p as f64 / (1u64 << self.q) as f64
    }

    /// Hardware multiply-by-α: `(x·αp) >> q`, computed in 64 bits exactly
    /// as a DSP-free multiplier + shifter would (the shared
    /// [`mul_shift`] primitive of `meloppr_core::quantized`).
    pub fn mul_alpha(&self, x: u32) -> u32 {
        mul_shift(x as u64, self.alpha_p as u64, self.q) as u32
    }

    /// Hardware multiply-by-(1-α): `(x·(2^q − αp)) >> q`.
    pub fn mul_one_minus_alpha(&self, x: u32) -> u32 {
        let comp = (1u64 << self.q) - self.alpha_p as u64;
        mul_shift(x as u64, comp, self.q) as u32
    }

    /// Quantizes a probability (`0 ≤ p ≤ 1`) into the integer domain.
    pub fn quantize(&self, p: f64) -> u32 {
        debug_assert!((0.0..=1.0).contains(&p));
        (p * self.max_value as f64).round() as u32
    }

    /// Dequantizes an integer score back into a probability estimate.
    pub fn dequantize(&self, x: u32) -> f64 {
        x as f64 / self.max_value as f64
    }

    /// Rescales a product of two Max-scaled integers back to the Max
    /// scale — the multiply-accumulate used when weighting a stage's
    /// output by its task weight (64-bit intermediate, like the DSP-free
    /// MAC in the accumulator). Rounds to nearest — in hardware a single
    /// adder ahead of the divider — which halves the per-entry error of
    /// plain truncation; small-`Max` formats (`d = avg_degree`) are the
    /// main beneficiary.
    pub fn weighted(&self, weight: u32, score: u32) -> u32 {
        let half = self.max_value as u64 / 2;
        ((weight as u64 * score as u64 + half) / self.max_value as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setting_alpha_approximation() {
        let fmt = FixedPointFormat::new(10, 100, 0.85, 10).unwrap();
        assert_eq!(fmt.alpha_p(), 870); // 0.85 * 1024 = 870.4 -> 870
        assert!((fmt.effective_alpha() - 870.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn mul_alpha_matches_float_within_one_ulp() {
        let fmt = FixedPointFormat::new(10, 1000, 0.85, 10).unwrap();
        for x in [0u32, 1, 99, 1234, 100_000] {
            let hw = fmt.mul_alpha(x);
            let expect = (x as f64 * fmt.effective_alpha()).floor() as u32;
            assert!(hw.abs_diff(expect) <= 1, "x = {x}: {hw} vs {expect}");
        }
    }

    #[test]
    fn alpha_and_complement_partition_value() {
        let fmt = FixedPointFormat::new(10, 1000, 0.85, 10).unwrap();
        for x in [1024u32, 4096, 999_999] {
            let sum = fmt.mul_alpha(x) as u64 + fmt.mul_one_minus_alpha(x) as u64;
            // Truncation may lose at most 2 units total.
            assert!(x as u64 - sum <= 2, "x = {x}, sum = {sum}");
        }
    }

    #[test]
    fn quantize_roundtrip() {
        let fmt = FixedPointFormat::new(16, 5000, 0.85, 10).unwrap();
        for p in [0.0, 0.25, 0.5, 1.0] {
            let back = fmt.dequantize(fmt.quantize(p));
            assert!((back - p).abs() < 1e-4);
        }
    }

    #[test]
    fn weighted_rescales_products() {
        let fmt = FixedPointFormat::new(10, 100, 0.85, 10).unwrap();
        let max = fmt.max_value();
        // weight = Max (1.0) leaves scores unchanged.
        assert_eq!(fmt.weighted(max, 123), 123);
        // weight = Max/2 halves them.
        assert_eq!(fmt.weighted(max / 2, 100), 50);
    }

    #[test]
    fn rejects_degenerate_formats() {
        assert!(FixedPointFormat::new(0, 100, 0.85, 10).is_err());
        assert!(FixedPointFormat::new(10, 0, 0.85, 10).is_err());
        assert!(FixedPointFormat::new(10, 100, 0.85, 0).is_err());
        assert!(FixedPointFormat::new(10, 100, 0.85, 16).is_err());
        assert!(FixedPointFormat::new(10, 100, 1.5, 10).is_err());
        // Max overflow: d * size > u32::MAX.
        assert!(FixedPointFormat::new(u32::MAX, 1 << 20, 0.85, 10).is_err());
    }

    #[test]
    fn datapath_agrees_with_host_quantized_primitives() {
        // The host precision ladder's Fixed(q) rung and the simulated
        // accelerator must realize the *same* α quantization — both
        // delegate to `meloppr_core::quantized`, so this can only break
        // if one side stops doing so.
        for q in [4u32, 10, 15] {
            let fmt = FixedPointFormat::new(10, 1000, 0.85, q).unwrap();
            assert_eq!(fmt.alpha_p() as u64, fixed_coeff(0.85, q));
            for x in [0u32, 1, 870, 54_321] {
                assert_eq!(
                    fmt.mul_alpha(x) as u64,
                    mul_shift(x as u64, fmt.alpha_p() as u64, q)
                );
            }
        }
    }

    #[test]
    fn degree_scale_policies() {
        assert_eq!(DegreeScale::HalfMax.resolve(10, 3.0), 5);
        assert_eq!(DegreeScale::Average.resolve(10, 3.2), 4);
        assert_eq!(DegreeScale::Max.resolve(10, 3.0), 10);
        assert_eq!(DegreeScale::Fixed(7).resolve(10, 3.0), 7);
        // Never returns zero.
        assert_eq!(DegreeScale::HalfMax.resolve(1, 0.5), 1);
        assert_eq!(DegreeScale::default(), DegreeScale::HalfMax);
    }
}
