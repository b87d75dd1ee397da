use crate::config::{MultiplierConfig, MultiplierKind, OperandMode};
use daism_num::bits;
use std::fmt;

/// What one wordline of a multiplicand's group stores.
///
/// A *plain* line holds the multiplicand shifted by one position (one
/// partial product); a *pre-computed* line holds the **exact** sum of
/// several shifted copies (PC2/PC3's accuracy-recovery lines).
///
/// # Examples
///
/// ```
/// use daism_core::LineSpec;
///
/// let ab = LineSpec::pre_sum(&[7, 6]); // A+B for an 8-bit mantissa
/// assert_eq!(ab.full_pattern(0b1000_0001), (0b1000_0001 << 7) + (0b1000_0001 << 6));
/// assert_eq!(ab.letter_name(8), "AB");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LineSpec {
    /// Shift amounts whose partial products this line sums, descending.
    shifts: Vec<u32>,
}

impl LineSpec {
    /// A plain partial-product line: multiplicand `<< shift`.
    pub fn plain(shift: u32) -> Self {
        LineSpec { shifts: vec![shift] }
    }

    /// A pre-computed line: exact sum of the partial products at the given
    /// shifts.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` is empty or contains duplicates.
    pub fn pre_sum(shifts: &[u32]) -> Self {
        assert!(!shifts.is_empty(), "a pre-computed line needs at least one shift");
        let mut s = shifts.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.windows(2).for_each(|w| assert!(w[0] != w[1], "duplicate shift {}", w[0]));
        LineSpec { shifts: s }
    }

    /// The shifts this line covers (descending).
    pub fn shifts(&self) -> &[u32] {
        &self.shifts
    }

    /// `true` if this is a single plain partial product.
    pub fn is_plain(&self) -> bool {
        self.shifts.len() == 1
    }

    /// The exact value this line stores for multiplicand `a`
    /// (`Σ a << s`), before any truncation.
    pub fn full_pattern(&self, a: u64) -> u64 {
        self.shifts.iter().map(|&s| a << s).sum()
    }

    /// Paper-style letter name: `A` is the PP of the multiplier's MSB
    /// (shift `n-1`), `B` the next, etc.; pre-computed lines concatenate
    /// (`AB`, `ABC`).
    pub fn letter_name(&self, n: u32) -> String {
        self.shifts.iter().map(|&s| char::from(b'A' + (n - 1 - s) as u8)).collect()
    }
}

impl fmt::Display for LineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_plain() {
            write!(f, "PP<<{}", self.shifts[0])
        } else {
            write!(
                f,
                "presum({})",
                self.shifts.iter().map(|s| format!("<<{s}")).collect::<Vec<_>>().join("+")
            )
        }
    }
}

/// The wordline layout of one multiplicand's group for a given
/// configuration, and the address decoding from a multiplier to a
/// wordline mask.
///
/// This is the heart of the paper: [`LineLayout::decode`] is the "slightly
/// more complex address decoder" of §III-B, and
/// [`LineLayout::stored_pattern`] is what gets written into the SRAM rows.
///
/// Line counts (floating-point mode, mantissa width `n`):
///
/// | config | lines | layout |
/// |--------|-------|--------|
/// | FLA    | `n`   | `A, B, C, …` (plain PPs) |
/// | PC2    | `n`   | `A, AB, C, …` (`B` never fires alone — §III-C) |
/// | PC3    | `n+1` | `A, AB, AC, ABC, D, …` |
///
/// # Examples
///
/// ```
/// use daism_core::{LineLayout, MultiplierConfig, OperandMode};
///
/// let layout = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
/// assert_eq!(layout.len(), 9);
/// // Multiplier 0b1100_0000 (bits A,B set) activates only the AB line:
/// let mask = layout.decode(0b1100_0000);
/// assert_eq!(mask, 0b10); // line index 1 = AB
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineLayout {
    specs: Vec<LineSpec>,
    config: MultiplierConfig,
    mode: OperandMode,
    n: u32,
}

impl LineLayout {
    /// Builds the layout for `config` in `mode` at mantissa width `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the PC3 decode needs at least 4 bits) or
    /// `n > 24` (nothing in the paper goes beyond `float32`).
    pub fn new(config: MultiplierConfig, mode: OperandMode, n: u32) -> Self {
        assert!((4..=24).contains(&n), "mantissa width {n} outside supported range 4..=24");
        let specs = match (config.kind, mode) {
            (MultiplierKind::Fla, _) => (0..n).rev().map(LineSpec::plain).collect(),
            (MultiplierKind::Pc2, OperandMode::Fp) => {
                // A, AB, C.. (B dropped: with the implicit one, B never
                // fires without A).
                let mut v = vec![LineSpec::plain(n - 1), LineSpec::pre_sum(&[n - 1, n - 2])];
                v.extend((0..=n - 3).rev().map(LineSpec::plain));
                v
            }
            (MultiplierKind::Pc3, OperandMode::Fp) => {
                // A, AB, AC, ABC, D.. — every combination contains A.
                let mut v = vec![
                    LineSpec::plain(n - 1),
                    LineSpec::pre_sum(&[n - 1, n - 2]),
                    LineSpec::pre_sum(&[n - 1, n - 3]),
                    LineSpec::pre_sum(&[n - 1, n - 2, n - 3]),
                ];
                v.extend((0..=n - 4).rev().map(LineSpec::plain));
                v
            }
            (MultiplierKind::Pc2, OperandMode::Int) => {
                // Paper Fig. 2: A..G plain, then AB stored *in place of*
                // the LSB partial product H (whose contribution is lost).
                let mut v: Vec<LineSpec> = (1..n).rev().map(LineSpec::plain).collect();
                v.push(LineSpec::pre_sum(&[n - 1, n - 2]));
                v
            }
            (MultiplierKind::Pc3, OperandMode::Int) => {
                // Reproduction extension (the paper defines PC3 only for
                // fp mode): all seven {A,B,C} subsets get lines, the rest
                // stay plain. Nothing is sacrificed; costs 4 extra lines.
                let mut v = vec![
                    LineSpec::plain(n - 1),
                    LineSpec::plain(n - 2),
                    LineSpec::plain(n - 3),
                    LineSpec::pre_sum(&[n - 1, n - 2]),
                    LineSpec::pre_sum(&[n - 1, n - 3]),
                    LineSpec::pre_sum(&[n - 2, n - 3]),
                    LineSpec::pre_sum(&[n - 1, n - 2, n - 3]),
                ];
                v.extend((0..=n - 4).rev().map(LineSpec::plain));
                v
            }
        };
        LineLayout { specs, config, mode, n }
    }

    /// Number of wordlines per group.
    #[inline]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the layout is empty (never the case for valid configs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The line specifications in wordline order.
    #[inline]
    pub fn specs(&self) -> &[LineSpec] {
        &self.specs
    }

    /// The configuration this layout implements.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.config
    }

    /// The operand mode.
    #[inline]
    pub fn mode(&self) -> OperandMode {
        self.mode
    }

    /// Mantissa width `n`.
    #[inline]
    pub fn mantissa_width(&self) -> u32 {
        self.n
    }

    /// Width of the stored patterns (`2n`, or `n` when truncated).
    #[inline]
    pub fn stored_width(&self) -> u32 {
        self.config.stored_width(self.n)
    }

    /// The pattern to program on line `index` for multiplicand `a`:
    /// the exact line value, with the low `n` columns dropped when the
    /// configuration truncates (the columns physically don't exist).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `a` is wider than `n` bits.
    pub fn stored_pattern(&self, index: usize, a: u64) -> u64 {
        assert!(bits::width_of(a) <= self.n, "multiplicand {a:#x} wider than {} bits", self.n);
        let full = self.specs[index].full_pattern(a);
        if self.config.truncate {
            full >> self.n
        } else {
            full
        }
    }

    /// Address decode: turns multiplier `b` into the wordline-activation
    /// mask (bit *i* set activates line *i*), implementing the paper's
    /// modified decoder.
    ///
    /// # Panics
    ///
    /// Panics if `b` is wider than `n` bits, or (in fp mode) if `b` is
    /// non-zero without its leading one set.
    pub fn decode(&self, b: u64) -> u64 {
        assert!(bits::width_of(b) <= self.n, "multiplier {b:#x} wider than {} bits", self.n);
        if self.mode == OperandMode::Fp {
            assert!(
                b == 0 || bits::bit(b, self.n - 1),
                "fp-mode multiplier {b:#x} lacks its leading one"
            );
        }
        if b == 0 {
            return 0;
        }
        // Closed forms over `r`, the multiplier's n bits reversed: bit i
        // of `r` is the bit whose plain partial product is line i of the
        // FLA layout (bit 0 = A, the MSB). The other layouts move the
        // plain lines by a constant and pick one combination line from
        // the top bits of `r`.
        let n = self.n;
        let r = ((b as u32).reverse_bits() >> (32 - n)) as u64;
        match (self.config.kind, self.mode) {
            // Line i is the plain PP of bit n-1-i.
            (MultiplierKind::Fla, _) => r,
            (MultiplierKind::Pc2, OperandMode::Fp) => {
                // Line 0 = A, line 1 = AB (picked by B; A is always set),
                // lines 2.. = C.. in place.
                (r & !0b11) | 1 << ((r >> 1) & 1)
            }
            (MultiplierKind::Pc3, OperandMode::Fp) => {
                // Lines 0..=3 = A, AB, AC, ABC, indexed by B + 2C; the
                // plain lines D.. sit one position further down.
                ((r << 1) & !0xF) | 1 << ((r >> 1) & 0b11)
            }
            (MultiplierKind::Pc2, OperandMode::Int) => {
                // Lines 0..n-2 = A..G in place, line n-1 = AB replacing
                // both A and B. Bit 0 (H) has no line: its contribution
                // is lost, as in the paper's Fig. 2.
                let plain = r & bits::mask(n - 1);
                if r & 0b11 == 0b11 {
                    (plain & !0b11) | 1 << (n - 1)
                } else {
                    plain
                }
            }
            (MultiplierKind::Pc3, OperandMode::Int) => {
                // Lines 0..=6 = A, B, C, AB, AC, BC, ABC for the {A,B,C}
                // subset `r & 7` (A = 1, B = 2, C = 4); lines 7.. = D..
                // three positions further down.
                const COMBO: [u64; 8] = [0, 1 << 0, 1 << 1, 1 << 3, 1 << 2, 1 << 4, 1 << 5, 1 << 6];
                ((r << 4) & !0x7F) | COMBO[(r & 7) as usize]
            }
        }
    }

    /// Number of wordlines `decode(b)` activates.
    pub fn active_lines(&self, b: u64) -> u32 {
        self.decode(b).count_ones()
    }

    /// Number of lines that can ever hold a non-zero pattern — the count
    /// that determines physical group height.
    ///
    /// Under truncation, a line whose smallest shift is 0 stores
    /// `(a << 0) >> n = 0` for every `n`-bit multiplicand: the plain `H`
    /// line is identically zero and can be dropped from the array. This
    /// is how the paper's `PC3_tr` groups fit in 8 wordlines for
    /// `bfloat16` (Fig. 3's 512 kB bank stores 128×256 kernel elements =
    /// 2048 rows / 8 lines).
    pub fn effective_lines(&self) -> usize {
        if !self.config.truncate {
            return self.specs.len();
        }
        self.specs
            .iter()
            .filter(|spec| {
                // A line is non-trivial if any multiplicand produces a
                // non-zero truncated pattern; the max multiplicand
                // (all-ones) witnesses it.
                let max_a = (1u64 << self.n) - 1;
                spec.full_pattern(max_a) >> self.n != 0
            })
            .count()
    }

    /// Expected number of active wordlines over uniformly random
    /// multipliers (fp mode: uniform over mantissas with the leading one
    /// set) — the quantity the energy model charges wordline drive for.
    ///
    /// PC3 fires fewer lines than PC2, which fires fewer than FLA: the
    /// paper's §V-D reason #2 for preferring PC3.
    pub fn expected_active_lines(&self) -> f64 {
        let n = self.n as f64;
        match (self.config.kind, self.mode) {
            // Leading one always fires + half of the remaining n-1 bits.
            (MultiplierKind::Fla, OperandMode::Fp) => 1.0 + (n - 1.0) / 2.0,
            // Exactly one of {A, AB} + half of the n-2 low bits.
            (MultiplierKind::Pc2, OperandMode::Fp) => 1.0 + (n - 2.0) / 2.0,
            // Exactly one of {A, AB, AC, ABC} + half of the n-3 low bits.
            (MultiplierKind::Pc3, OperandMode::Fp) => 1.0 + (n - 3.0) / 2.0,
            // Uniform b: every bit fires with p=1/2.
            (MultiplierKind::Fla, OperandMode::Int) => n / 2.0,
            // A,B merge when both set: E = (n-2)/2 plains + E[top] where
            // E[top] = P(ab)·1 + P(a xor b)·1 = 1/4 + 1/2 = 3/4.
            (MultiplierKind::Pc2, OperandMode::Int) => 0.75 + (n - 2.0) / 2.0,
            // One combo line iff any of the top 3 bits set (p = 7/8).
            (MultiplierKind::Pc3, OperandMode::Int) => 7.0 / 8.0 + (n - 3.0) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fla_layout_is_plain_descending() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        assert_eq!(l.len(), 8);
        for (i, spec) in l.specs().iter().enumerate() {
            assert!(spec.is_plain());
            assert_eq!(spec.shifts()[0], 7 - i as u32);
        }
        assert_eq!(l.specs()[0].letter_name(8), "A");
        assert_eq!(l.specs()[7].letter_name(8), "H");
    }

    #[test]
    fn pc2_fp_has_no_b_line_and_same_count_as_fla() {
        // §III-C: "The line for PP B will hence never be active and can be
        // left out, reducing memory consumption."
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        assert_eq!(l.len(), 8);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "AB", "C", "D", "E", "F", "G", "H"]);
    }

    #[test]
    fn pc3_fp_layout() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        assert_eq!(l.len(), 9);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "AB", "AC", "ABC", "D", "E", "F", "G", "H"]);
    }

    #[test]
    fn pc2_int_replaces_h_with_ab() {
        // Paper Fig. 2: AB is stored in place of the LSB partial product.
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        assert_eq!(l.len(), 8);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "B", "C", "D", "E", "F", "G", "AB"]);
    }

    #[test]
    fn fla_decode_reverses_bits() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        // b = 1000_0001: A (line 0) and H (line 7).
        assert_eq!(l.decode(0b1000_0001), 0b1000_0001);
        // b = 1010_0000: A and C -> lines 0 and 2.
        assert_eq!(l.decode(0b1010_0000), 0b0000_0101);
    }

    #[test]
    fn pc2_fp_decode_merges_ab() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        // Only A.
        assert_eq!(l.decode(0b1000_0000), 0b01);
        // A and B -> only the AB line.
        assert_eq!(l.decode(0b1100_0000), 0b10);
        // A, B and H -> AB + H (line 7).
        assert_eq!(l.decode(0b1100_0001), 0b1000_0010);
    }

    #[test]
    fn pc3_fp_decode_selects_combination() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        assert_eq!(l.decode(0b1000_0000), 1 << 0); // A
        assert_eq!(l.decode(0b1100_0000), 1 << 1); // AB
        assert_eq!(l.decode(0b1010_0000), 1 << 2); // AC
        assert_eq!(l.decode(0b1110_0000), 1 << 3); // ABC
                                                   // ABC plus D (bit 4 = shift 4 -> line 4 + (4-4) = 4).
        assert_eq!(l.decode(0b1111_0000), (1 << 3) | (1 << 4));
        // A plus H (shift 0 -> line 4 + 4 = 8).
        assert_eq!(l.decode(0b1000_0001), (1 << 0) | (1 << 8));
    }

    #[test]
    fn pc2_int_decode() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        // A and B both -> AB line only (index 7).
        assert_eq!(l.decode(0b1100_0000), 1 << 7);
        // Only B (no leading one needed in int mode).
        assert_eq!(l.decode(0b0100_0000), 1 << 1);
        // H alone: lost (mask 0) — the Fig. 2 trade-off.
        assert_eq!(l.decode(0b0000_0001), 0);
    }

    #[test]
    fn pc3_int_decode_exhaustive_subsets() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Int, 8);
        assert_eq!(l.len(), 12);
        assert_eq!(l.decode(0b1000_0000), 1 << 0); // A
        assert_eq!(l.decode(0b0110_0000), 1 << 5); // BC
        assert_eq!(l.decode(0b1110_0000), 1 << 6); // ABC
        assert_eq!(l.decode(0b0000_1000), 1 << 8); // E? shift 3 -> 7+(4-3)=8
    }

    /// The per-bit decode the closed forms replaced, kept as their
    /// reference.
    fn decode_per_bit(l: &LineLayout, b: u64) -> u64 {
        let n = l.mantissa_width();
        if b == 0 {
            return 0;
        }
        let bit = |s: u32| bits::bit(b, s);
        let mut mask = 0u64;
        match (l.config().kind, l.mode()) {
            (MultiplierKind::Fla, _) => {
                for i in 0..n {
                    if bit(n - 1 - i) {
                        mask |= 1 << i;
                    }
                }
            }
            (MultiplierKind::Pc2, OperandMode::Fp) => {
                mask = if bit(n - 2) { 0b10 } else { 0b01 };
                for i in 2..n {
                    if bit(n - 1 - i) {
                        mask |= 1 << i;
                    }
                }
            }
            (MultiplierKind::Pc3, OperandMode::Fp) => {
                mask = 1 << (bit(n - 2) as u32 + 2 * bit(n - 3) as u32);
                for s in 0..=n - 4 {
                    if bit(s) {
                        mask |= 1 << (4 + (n - 4 - s));
                    }
                }
            }
            (MultiplierKind::Pc2, OperandMode::Int) => {
                match (bit(n - 1), bit(n - 2)) {
                    (true, true) => mask |= 1 << (n - 1),
                    (true, false) => mask |= 1,
                    (false, true) => mask |= 0b10,
                    (false, false) => {}
                }
                for i in 2..(n - 1) {
                    if bit(n - 1 - i) {
                        mask |= 1 << i;
                    }
                }
            }
            (MultiplierKind::Pc3, OperandMode::Int) => {
                mask = match (bit(n - 1), bit(n - 2), bit(n - 3)) {
                    (false, false, false) => 0,
                    (true, false, false) => 1 << 0,
                    (false, true, false) => 1 << 1,
                    (false, false, true) => 1 << 2,
                    (true, true, false) => 1 << 3,
                    (true, false, true) => 1 << 4,
                    (false, true, true) => 1 << 5,
                    (true, true, true) => 1 << 6,
                };
                for s in 0..=n - 4 {
                    if bit(s) {
                        mask |= 1 << (7 + (n - 4 - s));
                    }
                }
            }
        }
        mask
    }

    fn every_layout(n: u32) -> Vec<LineLayout> {
        let mut v = Vec::new();
        for kind in MultiplierKind::ALL {
            for mode in [OperandMode::Fp, OperandMode::Int] {
                v.push(LineLayout::new(MultiplierConfig { kind, truncate: false }, mode, n));
            }
        }
        v
    }

    /// The operands `decode` accepts: every `n`-bit value in integer
    /// mode, zero or a value with its leading one in fp mode.
    fn decodable(l: &LineLayout, b: u64) -> bool {
        let n = l.mantissa_width();
        l.mode() == OperandMode::Int || b == 0 || bits::bit(b, n - 1)
    }

    #[test]
    fn closed_form_decode_matches_per_bit_exhaustively_up_to_12_bits() {
        for n in 4..=12 {
            for l in every_layout(n) {
                for b in (0..1u64 << n).filter(|&b| decodable(&l, b)) {
                    assert_eq!(
                        l.decode(b),
                        decode_per_bit(&l, b),
                        "{} {:?} n={n} b={b:#x}",
                        l.config(),
                        l.mode()
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_decode_matches_per_bit_sampled_at_24_bits() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for l in every_layout(24) {
            for _ in 0..20_000 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let mut b = (state >> 40) & bits::mask(24);
                if l.mode() == OperandMode::Fp {
                    b |= 1 << 23;
                }
                assert_eq!(
                    l.decode(b),
                    decode_per_bit(&l, b),
                    "{} {:?} b={b:#x}",
                    l.config(),
                    l.mode()
                );
            }
            let all_ones = bits::mask(24);
            assert_eq!(l.decode(all_ones), decode_per_bit(&l, all_ones));
        }
    }

    #[test]
    fn decode_zero_is_zero() {
        for kind in MultiplierKind::ALL {
            for mode in [OperandMode::Fp, OperandMode::Int] {
                let l = LineLayout::new(MultiplierConfig { kind, truncate: false }, mode, 8);
                assert_eq!(l.decode(0), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "leading one")]
    fn fp_decode_requires_leading_one() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let _ = l.decode(0b0100_0000);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn decode_rejects_wide_operand() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let _ = l.decode(0x1FF);
    }

    #[test]
    fn stored_pattern_truncation_drops_low_columns() {
        let full = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let a = 0b1011_0101;
        for i in 0..full.len() {
            assert_eq!(tr.stored_pattern(i, a), full.stored_pattern(i, a) >> 8, "line {i}");
        }
    }

    #[test]
    fn presum_pattern_is_exact_sum() {
        let spec = LineSpec::pre_sum(&[7, 6]);
        let a = 0xB5u64;
        assert_eq!(spec.full_pattern(a), (a << 7) + (a << 6));
    }

    #[test]
    fn expected_active_lines_ordering() {
        // §V-D reason #2: PC3 requires fewer simultaneously active
        // wordlines than PC2, which needs fewer than FLA.
        for n in [8, 24] {
            let fla = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, n);
            let pc2 = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, n);
            let pc3 = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, n);
            assert!(pc3.expected_active_lines() < pc2.expected_active_lines());
            assert!(pc2.expected_active_lines() < fla.expected_active_lines());
        }
    }

    #[test]
    fn expected_active_lines_matches_exhaustive_average() {
        for config in MultiplierConfig::ALL {
            let l = LineLayout::new(config, OperandMode::Fp, 8);
            let mut total = 0u32;
            let mut count = 0u32;
            for b in 0x80u64..=0xFF {
                total += l.active_lines(b);
                count += 1;
            }
            let measured = total as f64 / count as f64;
            let predicted = l.expected_active_lines();
            assert!(
                (measured - predicted).abs() < 1e-9,
                "{config}: measured {measured}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn fp32_width_layouts() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 24);
        assert_eq!(l.len(), 25);
        assert_eq!(l.stored_width(), 48);
        let tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        assert_eq!(tr.stored_width(), 24);
    }

    #[test]
    fn effective_lines_drop_zero_h_under_truncation() {
        // PC3_tr at bf16: 9 layout lines, but H is identically zero ->
        // 8 physical wordlines (the paper's group height).
        let pc3tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        assert_eq!(pc3tr.len(), 9);
        assert_eq!(pc3tr.effective_lines(), 8);
        // PC2_tr: 8 -> 7. FLA untruncated: all lines physical.
        let pc2tr = LineLayout::new(MultiplierConfig::PC2_TR, OperandMode::Fp, 8);
        assert_eq!(pc2tr.effective_lines(), 7);
        let fla = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        assert_eq!(fla.effective_lines(), 8);
    }

    #[test]
    fn letter_names_fp32() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 24);
        assert_eq!(l.specs()[0].letter_name(24), "A");
        assert_eq!(l.specs()[1].letter_name(24), "AB");
        assert_eq!(l.specs()[23].letter_name(24), "X");
    }
}
