use crate::config::{MultiplierConfig, OperandMode};
use crate::lines::LineLayout;
use daism_num::bits;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Widest mantissa for which the full product table is materialised
/// (`2^(2n)` entries of `u16`; at 8 bits that is 128 KiB — `bfloat16`,
/// the paper's preferred format, is covered).
const LUT_MAX_WIDTH: u32 = 8;

/// Most wordlines any layout has (PC3 in integer mode at `n = 24` has
/// 28), so a wordline mask fits a `u32` and a multiplicand's patterns a
/// fixed array.
pub(crate) const MAX_LINES: usize = 32;

/// Wordlines per subset-OR table: a group's active-line subset is one
/// byte of the wordline mask.
const GROUP_LINES: usize = 8;

/// Subset-OR tables per multiplicand (`MAX_LINES / GROUP_LINES`).
const GROUPS: usize = MAX_LINES / GROUP_LINES;

/// Process-wide memo of product tables, keyed by everything that
/// determines the wired-OR semantics. Constructing the same multiplier
/// twice (the benches and the DNN experiments do, per layer and per
/// figure) reuses one table instead of re-deriving the line patterns.
type LutKey = (MultiplierConfig, OperandMode, u32);

fn lut_cache() -> &'static Mutex<HashMap<LutKey, Arc<Vec<u16>>>> {
    static CACHE: OnceLock<Mutex<HashMap<LutKey, Arc<Vec<u16>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn build_or_reuse_lut(layout: &LineLayout) -> Arc<Vec<u16>> {
    let key = (layout.config(), layout.mode(), layout.mantissa_width());
    let mut cache = lut_cache().lock().expect("LUT cache poisoned");
    if let Some(table) = cache.get(&key) {
        return Arc::clone(table);
    }
    let n = layout.mantissa_width();
    let size = 1usize << (2 * n);
    let mut table = vec![0u16; size];
    for a in 0..(1u64 << n) {
        // In fp mode only multipliers with their leading one (or zero)
        // are decodable; other rows stay zero and are unreachable
        // through `multiply` (its operand checks reject them).
        for b in 0..(1u64 << n) {
            if layout.mode() == OperandMode::Fp && b != 0 && !bits::bit(b, n - 1) {
                continue;
            }
            table[((a << n) | b) as usize] = or_read(layout, a, b) as u16;
        }
    }
    let table = Arc::new(table);
    cache.insert(key, Arc::clone(&table));
    table
}

/// The wired-OR read computed directly from the line layout: decode the
/// multiplier into a wordline mask, OR the selected stored patterns.
fn or_read(layout: &LineLayout, a: u64, b: u64) -> u64 {
    let mask = layout.decode(b);
    let mut acc = 0u64;
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        acc |= layout.stored_pattern(i, a);
        m &= m - 1;
    }
    acc
}

thread_local! {
    /// Each thread's reused [`OrTables`] buffer (8 KiB): built once per
    /// multiplicand by [`MantissaMultiplier::with_or_tables`].
    static OR_TABLES: std::cell::RefCell<OrTables> =
        const { std::cell::RefCell::new(OrTables([[0; 256]; GROUPS])) };
}

/// Exact product of two mantissas (reference for error analysis).
///
/// # Examples
///
/// ```
/// assert_eq!(daism_core::exact_mul(0b1011, 0b0101), 0b1011 * 0b0101);
/// ```
#[inline]
pub fn exact_mul(a: u64, b: u64) -> u64 {
    debug_assert!(bits::width_of(a) <= 24 && bits::width_of(b) <= 24);
    a * b
}

/// Bit-exact software model of one DAISM mantissa multiplier.
///
/// `multiply` produces exactly the value the SRAM wired-OR would read:
/// the OR of the stored line patterns selected by the address decoder.
/// This is the fast path used by the DNN experiments; the
/// [`SramMultiplier`](crate::SramMultiplier) executes the same semantics
/// through the bit-level SRAM and is differentially tested against this.
///
/// # Examples
///
/// ```
/// use daism_core::{MantissaMultiplier, MultiplierConfig, OperandMode};
///
/// let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
/// // Multiplier with only bits A,B set is exact under PC2/PC3:
/// assert_eq!(m.multiply(0b1000_0001, 0b1100_0000), 0b1000_0001 * 0b1100_0000);
/// // Generic operands under-approximate:
/// let approx = m.multiply(0b1011_0101, 0b1101_1011);
/// assert!(approx <= 0b1011_0101u64 * 0b1101_1011);
/// ```
#[derive(Debug, Clone)]
pub struct MantissaMultiplier {
    layout: LineLayout,
    /// Memoized full product table (`lut[(a << n) | b] = multiply(a, b)`)
    /// for narrow mantissas; shared process-wide per configuration.
    lut: Option<Arc<Vec<u16>>>,
}

impl PartialEq for MantissaMultiplier {
    fn eq(&self, other: &Self) -> bool {
        // The LUT is a pure function of the layout; comparing it would be
        // redundant (and it intentionally shares storage across clones).
        self.layout == other.layout
    }
}

impl Eq for MantissaMultiplier {}

impl MantissaMultiplier {
    /// Creates the multiplier model for `config`/`mode` at mantissa width
    /// `n`.
    ///
    /// For `n ≤ 8` the full wired-OR product table is precomputed at
    /// construction (memoized process-wide per `config`/`mode`/`n`), so
    /// [`multiply`](Self::multiply) in the GEMM hot loop is one table
    /// read instead of an address decode plus a line-pattern OR chain.
    ///
    /// # Panics
    ///
    /// Panics for unsupported widths (see [`LineLayout::new`]).
    pub fn new(config: MultiplierConfig, mode: OperandMode, n: u32) -> Self {
        let layout = LineLayout::new(config, mode, n);
        assert!(layout.len() <= MAX_LINES, "{} wordlines exceed a u32 mask", layout.len());
        let lut = (n <= LUT_MAX_WIDTH).then(|| build_or_reuse_lut(&layout));
        MantissaMultiplier { layout, lut }
    }

    /// The line layout backing this multiplier.
    #[inline]
    pub fn layout(&self) -> &LineLayout {
        &self.layout
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.layout.config()
    }

    /// Mantissa width `n`.
    #[inline]
    pub fn mantissa_width(&self) -> u32 {
        self.layout.mantissa_width()
    }

    /// Result width: `2n` full, `n` truncated.
    #[inline]
    pub fn result_width(&self) -> u32 {
        self.layout.stored_width()
    }

    /// The approximate product: OR of the activated stored patterns.
    ///
    /// For truncated configurations the result approximates
    /// `(a·b) >> n`; otherwise it approximates `a·b`. Served from the
    /// memoized product table for narrow mantissas, bit-identical to
    /// [`multiply_bitwise`](Self::multiply_bitwise) in all cases.
    ///
    /// # Panics
    ///
    /// Panics if operands exceed `n` bits or (fp mode) `b != 0` lacks its
    /// leading one.
    #[inline]
    pub fn multiply(&self, a: u64, b: u64) -> u64 {
        if let Some(lut) = &self.lut {
            let n = self.layout.mantissa_width();
            assert!(bits::width_of(a) <= n, "multiplicand {a:#x} wider than {n} bits");
            assert!(bits::width_of(b) <= n, "multiplier {b:#x} wider than {n} bits");
            if self.layout.mode() == OperandMode::Fp {
                assert!(
                    b == 0 || bits::bit(b, n - 1),
                    "fp-mode multiplier {b:#x} lacks its leading one"
                );
            }
            return lut[((a << n) | b) as usize] as u64;
        }
        self.multiply_bitwise(a, b)
    }

    /// The wired-OR read computed directly from the line layout (decode,
    /// then OR the selected stored patterns), bypassing the memoized
    /// table. This is the semantic reference the table is built from;
    /// exposed so equivalence can be asserted in tests and audits.
    ///
    /// # Panics
    ///
    /// As [`multiply`](Self::multiply).
    pub fn multiply_bitwise(&self, a: u64, b: u64) -> u64 {
        or_read(&self.layout, a, b)
    }

    /// Pre-binds the multiplicand (stored-operand) side of the multiply,
    /// so a GEMM inner loop that reuses one `A` element against a whole
    /// row panel of `B` pays the line-pattern derivation once.
    ///
    /// # Panics
    ///
    /// Panics if `a` exceeds `n` bits.
    #[inline]
    pub fn prepare(&self, a: u64) -> PreparedMultiplicand {
        let n = self.layout.mantissa_width();
        assert!(bits::width_of(a) <= n, "multiplicand {a:#x} wider than {n} bits");
        // The table path never consults per-line patterns, so it builds
        // (and zero-fills) none.
        let lines = self.lut.is_none().then(|| {
            let mut patterns = [0u64; MAX_LINES];
            for (i, p) in patterns.iter_mut().enumerate().take(self.layout.len()) {
                *p = self.layout.stored_pattern(i, a);
            }
            LinePatterns { patterns, len: self.layout.len() }
        });
        PreparedMultiplicand { a, lines }
    }

    /// [`multiply`](Self::multiply) with a pre-bound multiplicand:
    /// bit-identical results, but the per-line stored patterns (or the
    /// table row) are reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `b` exceeds `n` bits or (fp mode) `b != 0` lacks its
    /// leading one.
    #[inline]
    pub fn multiply_prepared(&self, prep: &PreparedMultiplicand, b: u64) -> u64 {
        if let Some(lut) = &self.lut {
            let n = self.layout.mantissa_width();
            assert!(bits::width_of(b) <= n, "multiplier {b:#x} wider than {n} bits");
            if self.layout.mode() == OperandMode::Fp {
                assert!(
                    b == 0 || bits::bit(b, n - 1),
                    "fp-mode multiplier {b:#x} lacks its leading one"
                );
            }
            return lut[((prep.a << n) | b) as usize] as u64;
        }
        self.or_prepared(prep, b)
    }

    /// [`multiply_prepared`](Self::multiply_prepared) without operand
    /// re-validation, for crate-internal hot loops whose `b` is the
    /// mantissa of an already-decoded `Normal` scalar (in range and
    /// carrying its leading one by construction).
    #[inline]
    pub(crate) fn multiply_prepared_trusted(&self, prep: &PreparedMultiplicand, b: u64) -> u64 {
        debug_assert!(bits::width_of(b) <= self.layout.mantissa_width());
        debug_assert!(
            self.layout.mode() != OperandMode::Fp
                || b == 0
                || bits::bit(b, self.layout.mantissa_width() - 1)
        );
        if let Some(lut) = &self.lut {
            return lut[((prep.a << self.layout.mantissa_width()) | b) as usize] as u64;
        }
        self.or_prepared(prep, b)
    }

    /// Lane-batched [`multiply_prepared`](Self::multiply_prepared): one
    /// call multiplies the prepared multiplicand against `L` multiplier
    /// lanes at once, returning the per-lane wired-OR read-outs.
    ///
    /// For narrow mantissas the memoized product table row bound to
    /// `prep` is gathered per lane (a 2ⁿ-entry, cache-resident slice),
    /// and operand validation is amortised over the whole lane group
    /// instead of paid per scalar. Wider mantissas fall back to the
    /// per-lane prepared-pattern OR — same results, no table.
    ///
    /// Bit-identical to `L` scalar [`multiply`](Self::multiply) calls for
    /// every configuration, mode and width (enforced by the lane
    /// differential suite in `tests/gemm_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any lane exceeds `n` bits or (fp mode) a non-zero lane
    /// lacks its leading one.
    #[inline]
    pub fn mul_lanes<const L: usize>(&self, prep: &PreparedMultiplicand, b: &[u64; L]) -> [u64; L] {
        let n = self.layout.mantissa_width();
        // Amortised validation: OR-fold the lanes so the width check is
        // one compare per group, and fp-mode leading ones are checked
        // with one boolean fold.
        let folded = b.iter().fold(0u64, |acc, &v| acc | v);
        assert!(bits::width_of(folded) <= n, "a multiplier lane is wider than {n} bits");
        if self.layout.mode() == OperandMode::Fp {
            assert!(
                b.iter().all(|&v| v == 0 || bits::bit(v, n - 1)),
                "an fp-mode multiplier lane lacks its leading one"
            );
        }
        let mut out = [0u64; L];
        if let Some(row) = self.lut_row(prep) {
            // `row` is exactly 2^n entries, so masking the index both
            // elides the bounds check and cannot alias distinct operands
            // (every lane is already proven < 2^n above).
            let mask = row.len() - 1;
            for (o, &v) in out.iter_mut().zip(b) {
                *o = row[v as usize & mask] as u64;
            }
        } else {
            for (o, &v) in out.iter_mut().zip(b) {
                *o = self.or_prepared(prep, v);
            }
        }
        out
    }

    /// `true` if products are served from the memoized table, so a
    /// multiplier's [`key`](Self::key) is the multiplier itself.
    #[inline]
    pub(crate) fn has_table(&self) -> bool {
        self.lut.is_some()
    }

    /// The per-multiplier key a decoded tile caches for `b`: `b`
    /// itself (the product-table column) when this multiplier has a
    /// table, otherwise its wordline mask — so the per-MAC product
    /// skips the decode.
    pub(crate) fn key(&self, b: u64) -> u32 {
        if self.lut.is_some() {
            b as u32
        } else {
            self.layout.decode(b) as u32
        }
    }

    /// The memoized product table, `table[(a << n) | b] = multiply(a, b)`,
    /// or `None` for widths served by the prepared-pattern OR path.
    #[inline]
    pub(crate) fn table(&self) -> Option<&[u16]> {
        self.lut.as_deref().map(Vec::as_slice)
    }

    /// The memoized product-table row bound to `prep` (all 2ⁿ products
    /// of the prepared multiplicand), or `None` for widths served by the
    /// prepared-pattern OR path. Crate-internal seam for lane kernels
    /// that gather the row directly.
    #[inline]
    pub(crate) fn lut_row(&self, prep: &PreparedMultiplicand) -> Option<&[u16]> {
        self.lut.as_ref().map(|lut| {
            let n = self.layout.mantissa_width();
            let base = (prep.a << n) as usize;
            &lut[base..base + (1usize << n)]
        })
    }

    #[inline]
    fn or_prepared(&self, prep: &PreparedMultiplicand, b: u64) -> u64 {
        prep.line_patterns().or_mask(self.layout.decode(b) as u32)
    }

    /// Runs `f` with the subset-OR tables of `prep` built into this
    /// thread's reused buffer, so products against many wordline masks
    /// cost [`OrTables::product`]'s four lookups each instead of an OR
    /// chain over the active lines. Building costs about one OR per
    /// table entry (`⌈L/8⌉ · 256`), so it pays only for long panels.
    pub(crate) fn with_or_tables<R>(
        &self,
        prep: &PreparedMultiplicand,
        f: impl FnOnce(&OrTables) -> R,
    ) -> R {
        OR_TABLES.with(|cell| {
            let mut tables = cell.borrow_mut();
            let lines = prep.line_patterns();
            tables.build(&lines.patterns[..lines.len]);
            f(&tables)
        })
    }

    /// The *exact* value at the same scale as
    /// [`multiply`](MantissaMultiplier::multiply)'s result
    /// (`a·b`, shifted right by `n` for truncated configurations, floor).
    pub fn exact_reference(&self, a: u64, b: u64) -> u64 {
        let p = exact_mul(a, b);
        if self.config().truncate {
            p >> self.layout.mantissa_width()
        } else {
            p
        }
    }

    /// Scales an approximate result back to full product magnitude
    /// (`<< n` for truncated configurations) for error comparisons.
    pub fn to_product_scale(&self, result: u64) -> u64 {
        if self.config().truncate {
            result << self.layout.mantissa_width()
        } else {
            result
        }
    }
}

/// A multiplicand with its per-line stored patterns derived once, for
/// batched multiplies against many multipliers — see
/// [`MantissaMultiplier::prepare`].
#[derive(Debug, Clone)]
pub struct PreparedMultiplicand {
    a: u64,
    /// The stored patterns, `None` when the multiplier serves products
    /// from its memoized table instead.
    lines: Option<LinePatterns>,
}

/// One stored pattern per wordline, the first `len` entries.
#[derive(Debug, Clone)]
pub(crate) struct LinePatterns {
    patterns: [u64; MAX_LINES],
    len: usize,
}

impl PreparedMultiplicand {
    /// The bound multiplicand value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.a
    }

    /// The per-line patterns the OR path reads.
    ///
    /// # Panics
    ///
    /// Panics if the multiplier serves products from its table (it
    /// prepares no patterns).
    #[inline]
    pub(crate) fn line_patterns(&self) -> &LinePatterns {
        self.lines.as_ref().expect("a table-served multiplicand has no line patterns")
    }
}

impl LinePatterns {
    /// The wired-OR read for a decoded wordline mask: the OR chain over
    /// its active lines' patterns.
    #[inline]
    pub(crate) fn or_mask(&self, mask: u32) -> u64 {
        let mut acc = 0u64;
        let mut m = mask;
        while m != 0 {
            acc |= self.patterns[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        acc
    }
}

/// One multiplicand's subset-OR tables: table `g` holds, at index `s`,
/// the OR of the patterns of lines `8g + i` for every bit `i` set in
/// `s`. OR is associative, so a product is the OR of one entry per
/// group — the subset-table evaluation of approximate multipliers,
/// applied to groups of eight wordlines.
pub(crate) struct OrTables([[u64; 256]; GROUPS]);

impl OrTables {
    /// Fills the tables for `patterns` (one per line). Entry `0` of every
    /// table is the empty OR and stays `0`, so groups past the layout
    /// read `0`; the entries of a partial last group past its own lines
    /// are never indexed, since a mask has no bits past the layout.
    fn build(&mut self, patterns: &[u64]) {
        for (table, group) in self.0.iter_mut().zip(patterns.chunks(GROUP_LINES)) {
            // Doubling: the subsets whose highest line is `i` are the
            // subsets below it, each ORed with line `i`'s pattern.
            for (i, &p) in group.iter().enumerate() {
                let (lo, hi) = table.split_at_mut(1 << i);
                for (h, &l) in hi.iter_mut().zip(lo.iter()) {
                    *h = l | p;
                }
            }
        }
    }

    /// The wired-OR read for a decoded wordline mask: one lookup per
    /// eight-line group.
    #[inline]
    pub(crate) fn product(&self, mask: u32) -> u64 {
        let t = &self.0;
        t[0][mask as u8 as usize]
            | t[1][(mask >> 8) as u8 as usize]
            | t[2][(mask >> 16) as u8 as usize]
            | t[3][(mask >> 24) as u8 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiplierKind;

    fn all_multipliers(n: u32) -> Vec<MantissaMultiplier> {
        MultiplierConfig::ALL
            .iter()
            .map(|&c| MantissaMultiplier::new(c, OperandMode::Fp, n))
            .collect()
    }

    /// All 8-bit fp mantissas (leading one set).
    fn fp_mantissas_8() -> impl Iterator<Item = u64> {
        0x80u64..=0xFF
    }

    #[test]
    fn approx_never_exceeds_exact() {
        // OR(x, y) = x + y - (x & y) <= x + y, inductively for any count;
        // pre-computed lines replace ORs with exact sums, still <= exact.
        for m in all_multipliers(8) {
            for a in fp_mantissas_8().step_by(7) {
                for b in fp_mantissas_8().step_by(5) {
                    let approx = m.to_product_scale(m.multiply(a, b));
                    let exact = exact_mul(a, b);
                    assert!(
                        approx <= exact,
                        "{}: {a:#x}*{b:#x}: approx {approx:#x} > exact {exact:#x}",
                        m.config()
                    );
                }
            }
        }
    }

    #[test]
    fn approx_dominates_largest_partial_product() {
        // The OR contains every activated line, so the result is at least
        // the largest partial product (A is always active in fp mode).
        for m in all_multipliers(8) {
            for a in fp_mantissas_8().step_by(11) {
                for b in fp_mantissas_8().step_by(13) {
                    let approx = m.to_product_scale(m.multiply(a, b));
                    let floor = (a << 7) >> if m.config().truncate { 8 } else { 0 }
                        << if m.config().truncate { 8 } else { 0 };
                    assert!(
                        approx >= floor,
                        "{}: {a:#x}*{b:#x}: approx {approx:#x} < A-line floor",
                        m.config()
                    );
                }
            }
        }
    }

    #[test]
    fn single_bit_multiplier_is_exact() {
        // popcount(b) == 1 means a single PP: no OR collision possible.
        let m = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Int, 8);
        for a in 0u64..=0xFF {
            for s in 0..8 {
                let b = 1u64 << s;
                assert_eq!(m.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn power_of_two_multiplier_exact_in_fp_mode() {
        // b = 1000_0000 (only the implicit one): a single active line, so
        // the result is exact *at the retained precision* (truncated
        // configs still floor away the low n columns — that is the
        // truncation cost, not an OR collision).
        for m in all_multipliers(8) {
            for a in fp_mantissas_8() {
                let b = 0x80u64;
                assert_eq!(m.multiply(a, b), m.exact_reference(a, b), "{}", m.config());
            }
        }
    }

    #[test]
    fn pc2_exact_when_only_top_two_bits() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        for a in fp_mantissas_8() {
            assert_eq!(m.multiply(a, 0b1100_0000), a * 0b1100_0000);
        }
    }

    #[test]
    fn pc3_exact_when_only_top_three_bits() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        for a in fp_mantissas_8() {
            for b in [0b1000_0000u64, 0b1100_0000, 0b1010_0000, 0b1110_0000] {
                assert_eq!(m.multiply(a, b), a * b, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn fla_is_not_exact_for_top_two_bits() {
        // The collision PC2 repairs: FLA ORs A and B, losing carries for
        // almost every multiplicand.
        let m = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let a = 0b1111_1111u64;
        let b = 0b1100_0000u64;
        assert!(m.multiply(a, b) < a * b);
    }

    #[test]
    fn truncated_equals_full_shifted_patterns_or() {
        // Truncation drops columns *before* the OR (they physically don't
        // exist); verify against an explicitly-computed reference.
        let full = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let tr = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        for a in fp_mantissas_8().step_by(3) {
            for b in fp_mantissas_8().step_by(3) {
                let mask = full.layout().decode(b);
                let mut expect = 0u64;
                for i in 0..full.layout().len() {
                    if (mask >> i) & 1 == 1 {
                        expect |= full.layout().stored_pattern(i, a) >> 8;
                    }
                }
                assert_eq!(tr.multiply(a, b), expect, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn truncate_before_or_differs_from_after() {
        // Shifting the full OR right is NOT the same as ORing the shifted
        // patterns when a pre-computed sum carries into the kept columns…
        // actually pre-sums are computed exactly *then* truncated, so the
        // stored pattern keeps those carries. Verify at least one operand
        // pair where (full OR) >> n == truncated OR fails or holds —
        // the semantics we implement is "truncate each stored line".
        let full = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let tr = MantissaMultiplier::new(
            MultiplierConfig { kind: MultiplierKind::Fla, truncate: true },
            OperandMode::Fp,
            8,
        );
        // For FLA (no pre-sums) per-line truncation loses exactly the low
        // columns, so both orders agree.
        for a in fp_mantissas_8().step_by(17) {
            for b in fp_mantissas_8().step_by(19) {
                assert_eq!(tr.multiply(a, b), full.multiply(a, b) >> 8);
            }
        }
    }

    #[test]
    fn pc3_beats_pc2_beats_fla_on_average() {
        // Mean relative error must strictly improve with deeper
        // pre-computation (the reason PC3 exists).
        let mut errs = Vec::new();
        for kind in MultiplierKind::ALL {
            let m = MantissaMultiplier::new(
                MultiplierConfig { kind, truncate: false },
                OperandMode::Fp,
                8,
            );
            let mut total = 0.0;
            let mut count = 0u32;
            for a in fp_mantissas_8() {
                for b in fp_mantissas_8() {
                    let approx = m.multiply(a, b) as f64;
                    let exact = (a * b) as f64;
                    total += (exact - approx) / exact;
                    count += 1;
                }
            }
            errs.push(total / count as f64);
        }
        assert!(errs[2] < errs[1], "PC3 {} !< PC2 {}", errs[2], errs[1]);
        assert!(errs[1] < errs[0], "PC2 {} !< FLA {}", errs[1], errs[0]);
    }

    #[test]
    fn int_pc2_loses_lsb_pp() {
        // Fig. 2 trade-off: with only bit 0 set, the integer-mode PC2
        // multiplier returns 0.
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        assert_eq!(m.multiply(0xAB, 0b0000_0001), 0);
        // …but repairs the A+B collision exactly.
        assert_eq!(m.multiply(0xAB, 0b1100_0000), 0xAB * 0b1100_0000);
    }

    #[test]
    fn int_pc3_extension_is_exact_on_top_three() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Int, 8);
        for b in [0b1110_0000u64, 0b0110_0000, 0b1010_0000, 0b0100_0000] {
            assert_eq!(m.multiply(0xF7, b), 0xF7 * b, "b={b:#x}");
        }
    }

    #[test]
    fn zero_multiplier_gives_zero() {
        for m in all_multipliers(8) {
            assert_eq!(m.multiply(0xFF, 0), 0);
        }
    }

    #[test]
    fn fp32_width_works() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        let a = 0xB5_A3_7Fu64 | (1 << 23);
        let b = 0x9C_11_55u64 | (1 << 23);
        let approx = m.to_product_scale(m.multiply(a, b));
        let exact = a * b;
        assert!(approx <= exact);
        // PC3's worst case is just under 20% (exhaustive analysis); any
        // single pair must stay within that envelope.
        let rel = (exact - approx) as f64 / exact as f64;
        assert!(rel < 0.20, "rel error {rel}");
    }

    #[test]
    fn lut_matches_bitwise_exhaustively_fp_mode() {
        // The memoized table must be indistinguishable from the direct
        // wired-OR computation for every decodable operand pair.
        for m in all_multipliers(8) {
            assert!(m.lut.is_some(), "{}: 8-bit multiplier should carry a LUT", m.config());
            for a in fp_mantissas_8() {
                for b in fp_mantissas_8() {
                    assert_eq!(
                        m.multiply(a, b),
                        m.multiply_bitwise(a, b),
                        "{}: a={a:#x} b={b:#x}",
                        m.config()
                    );
                }
                assert_eq!(m.multiply(a, 0), 0);
            }
        }
    }

    #[test]
    fn lut_matches_bitwise_exhaustively_int_mode() {
        for kind in MultiplierKind::ALL {
            for truncate in [false, true] {
                let m = MantissaMultiplier::new(
                    MultiplierConfig { kind, truncate },
                    OperandMode::Int,
                    8,
                );
                for a in (0u64..256).step_by(3) {
                    for b in 0u64..256 {
                        assert_eq!(
                            m.multiply(a, b),
                            m.multiply_bitwise(a, b),
                            "{}: a={a:#x} b={b:#x}",
                            m.config()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_path_matches_plain_multiply() {
        // Narrow (LUT) and wide (pattern-reuse) widths both go through
        // `prepare`; results must be bit-identical to `multiply`.
        for n in [8u32, 24] {
            for m in all_multipliers_n(n) {
                let top = 1u64 << (n - 1);
                for a in [top, top | 1, top | (top >> 1), (1 << n) - 1] {
                    let prep = m.prepare(a);
                    assert_eq!(prep.value(), a);
                    for b in [top, top | 3, top | ((top - 1) / 3), (1 << n) - 1] {
                        assert_eq!(
                            m.multiply_prepared(&prep, b),
                            m.multiply(a, b),
                            "{} n={n}: a={a:#x} b={b:#x}",
                            m.config()
                        );
                    }
                }
            }
        }
    }

    /// Multipliers for the wide-width kernel tests: zero, the leading
    /// one alone, all ones (every line active — for PC3 at `n = 24` that
    /// includes line 24, the one-line last table group) and a
    /// pseudo-random spread, each given its leading one in fp mode.
    fn wide_multipliers(n: u32, mode: OperandMode) -> Vec<u64> {
        let top = 1u64 << (n - 1);
        let mut v = vec![0, top, bits::mask(n), top | 1, top | (top >> 1) | (top >> 2)];
        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ n as u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            v.push((state >> 20) & bits::mask(n));
        }
        if mode == OperandMode::Fp {
            v.iter_mut().filter(|b| **b != 0).for_each(|b| *b |= top);
        }
        v
    }

    #[test]
    fn or_tables_and_mask_chain_match_bitwise() {
        // Widths interleaved so each table build follows one of a
        // different group count on the same thread: stale entries of
        // the reused buffer must never be read.
        for n in [24u32, 9, 16, 11] {
            for config in MultiplierConfig::ALL {
                for mode in [OperandMode::Fp, OperandMode::Int] {
                    let m = MantissaMultiplier::new(config, mode, n);
                    assert!(m.lut.is_none());
                    if (config.kind, mode, n) == (MultiplierKind::Pc3, OperandMode::Fp, 24) {
                        assert_eq!(m.layout().len(), 25, "one line in the last table group");
                    }
                    let bs = wide_multipliers(n, mode);
                    for &a in &[bits::mask(n), 1u64 << (n - 1), 0x005A_5A5A & bits::mask(n), 1] {
                        let prep = m.prepare(a);
                        let lines = prep.line_patterns();
                        m.with_or_tables(&prep, |t| {
                            for &b in &bs {
                                let (mask, want) = (m.key(b), m.multiply_bitwise(a, b));
                                let what = format!("{config} {mode:?} n={n}: a={a:#x} b={b:#x}");
                                assert_eq!(t.product(mask), want, "tables, {what}");
                                assert_eq!(lines.or_mask(mask), want, "mask chain, {what}");
                            }
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn wide_multiplier_skips_lut() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        assert!(m.lut.is_none(), "24-bit table would need 2^48 entries");
    }

    #[test]
    fn lut_storage_is_shared_between_instances() {
        let a = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let b = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let (la, lb) = (a.lut.as_ref().unwrap(), b.lut.as_ref().unwrap());
        assert!(std::sync::Arc::ptr_eq(la, lb), "memo cache must deduplicate tables");
    }

    fn all_multipliers_n(n: u32) -> Vec<MantissaMultiplier> {
        MultiplierConfig::ALL
            .iter()
            .map(|&c| MantissaMultiplier::new(c, OperandMode::Fp, n))
            .collect()
    }

    #[test]
    fn result_width_reporting() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        assert_eq!(m.result_width(), 16);
        let t = MantissaMultiplier::new(MultiplierConfig::PC2_TR, OperandMode::Fp, 8);
        assert_eq!(t.result_width(), 8);
    }
}
