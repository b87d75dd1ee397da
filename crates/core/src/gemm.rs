//! The batched GEMM engine: one tiled, cache-blocked, multi-threaded
//! kernel shared by the DNN layers (`daism-dnn`), the functional
//! datapath reference (`daism-arch`) and the figure runners
//! (`daism-bench`).
//!
//! # Design
//!
//! `C[m×n] += A[m×k] · B[k×n]` (row-major) with every scalar product
//! routed through a [`ScalarMul`] backend and accumulation at `f32`.
//! It mirrors the accelerator's dataflow (paper §III–IV): the stored
//! operand (B) is programmed into the array once per tile, then the
//! streaming operand (A) is passed over it.
//!
//! One private tile walk drives every float entry point: `KC × NC` tiles
//! of B, `j0` outer and `l0` inner, each tile run over the whole C
//! matrix or over `chunk_rows`-row C slabs spread across the persistent
//! worker pool (rayon). Each tile reaches its kernel in one of three
//! operand forms:
//!
//! * **fused** — the raw B row segments, one [`ScalarMul::mul_rows`]
//!   per (A-element, B-row) pair. Native-`f32` problems too small to
//!   amortise packing, `m == 1`, and backends without a tile cache;
//! * **decoded** — one [`DecodedTile`] per tile, decoded once by
//!   [`ScalarMul::decode_tile`] and consumed row by row by
//!   [`ScalarMul::mul_decoded`] for every C row. For approximate
//!   backends the tile is flat structure-of-arrays lanes (multiplier
//!   keys, exponents, signs, accumulate masks, per-group exotic flags),
//!   filled by a branch-free bit decode and padded to whole lane groups
//!   so every row runs in the lane kernel; no per-MAC operand decode is
//!   left ([`QuantizedExactMul`](crate::QuantizedExactMul) caches its
//!   quantized operands the same way);
//! * **packed** — `NR`-major panels for the register-tile `f32`
//!   microkernel (`microkernel.rs`).
//!
//! The walk takes B from one of two sources. [`gemm`] converts each tile
//! of the raw matrix just before that tile's MACs, into one tile buffer
//! allocated per call, so it never holds more than one converted tile.
//! A [`GemmPlan`] converts every tile once at build time and
//! [`GemmPlan::run`] borrows them on every call — the weight-stationary
//! form a compiled inference session serves from.
//! Either way a converted tile is shared read-only across the C slabs,
//! so B is decoded (or packed) once per tile per GEMM, not per thread.
//!
//! # Bit-exactness
//!
//! The engine is a *speed* refactor, not a semantics change: for every
//! output element the products are accumulated in ascending-`k` order,
//! exactly as the scalar reference loop does, so results are
//! **bit-identical** to [`gemm_reference`] for every backend, source,
//! form and chunking (enforced by the differential property suite in
//! `tests/gemm_differential.rs`).
//!
//! Zero operands are skipped rather than multiplied — mirroring the
//! hardware's zero gating (paper §III-C), where a zero operand never
//! activates the SRAM array. Skipping is bit-identical to accumulating
//! the `±0.0` product because a `+0.0` accumulator absorbs signed
//! zeros.

use crate::blockfp_quant::quantize_block;
use crate::config::{MultiplierConfig, OperandMode};
use crate::fp::DecodedTile;
use crate::mantissa::{MantissaMultiplier, MAX_LINES};
use crate::microkernel;
use crate::{ExactMul, ScalarMul};
use daism_num::BlockFp;
use rayon::prelude::*;
use std::cell::Cell;

/// Rows of C per parallel panel (upper bound; small problems split
/// finer so every worker gets rows).
const MC: usize = 32;
/// Depth (k) block: B rows resident per pass.
const KC: usize = 256;
/// Column block: B row-segment / C row-segment width per pass.
const NC: usize = 1024;
/// Minimum MAC count before worker threads are engaged. With the
/// persistent pool (vendor/rayon) dispatch costs a queue push + condvar
/// wake rather than a thread spawn, so the gate sits far lower than the
/// old per-call-spawn polyfill allowed — small conv layers and error
/// sweeps parallelise too.
const PAR_MIN_MACS: usize = 1 << 14;
/// Minimum MAC count before the packed `f32` microkernel beats the
/// fused row loop (packing a tiny problem costs more than it saves) —
/// measured, not guessed: below this the fused loop *is* the naive
/// reference, so no shape can regress against it.
const MICRO_MIN_MACS: usize = 1 << 12;
/// Minimum C rows for the microkernel: fewer than one register tile of
/// rows leaves only the fringe kernel, which matches the fused loop.
const MICRO_MIN_M: usize = 4;

fn check_shapes(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
}

/// The one parallel gate every engine entry point shares — [`gemm`],
/// [`GemmPlan::run`] and the BlockFp engine must dispatch identically or
/// their bit-identity contracts stop being testable one path at a time.
/// `Some(chunk_rows)` when the problem clears the MAC/thread/row gates
/// (C row chunks sized so every worker gets a share, capped at `MC` rows
/// for cache residency); `None` for the serial path.
fn par_chunk_rows(m: usize, k: usize, n: usize) -> Option<usize> {
    let macs = m.saturating_mul(k).saturating_mul(n);
    let threads = rayon::current_num_threads();
    if m > 1 && threads > 1 && macs >= PAR_MIN_MACS {
        Some(MC.min(m.div_ceil(threads)).max(1))
    } else {
        None
    }
}

/// Runs `slab(i0, c_slab)` over the whole `c` (`i0 == 0`), or over its
/// `chunk_rows`-row chunks across the pool, each starting at global row
/// `i0`. Chunks write disjoint C regions, so results never depend on
/// scheduling.
fn for_each_slab<F>(c: &mut [f32], n: usize, chunk_rows: Option<usize>, slab: F)
where
    F: Fn(usize, &mut [f32]) + Sync + Send,
{
    match chunk_rows {
        None => slab(0, c),
        Some(cr) => c.par_chunks_mut(cr * n).enumerate().for_each(|(ci, cs)| slab(ci * cr, cs)),
    }
}

/// The scalar reference: `C += A·B` with one [`ScalarMul::mul_rows`] per
/// (A-element, B-row) pair, rows processed in order, no tiling and no
/// threads.
///
/// This is the semantic anchor the tiled engine is differentially tested
/// against, and the baseline the criterion benches measure speedups
/// from. Zero A-elements are skipped (hardware zero gating, §III-C);
/// `mul_rows` applies the same gating to B.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
pub fn gemm_reference(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_shapes(a, b, c, m, k, n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue; // zero bypass, as the hardware does
            }
            mul.mul_rows(av, &b[l * n..(l + 1) * n], crow);
        }
    }
}

/// `C[m×n] += A[m×k] · B[k×n]` (row-major) through the tiled,
/// cache-blocked, pre-decoded, parallel engine — bit-identical to
/// [`gemm_reference`], much faster.
///
/// Each `KC×NC` tile of B is converted just before its MACs: packed for
/// the register-tile microkernel (native-`f32` problems big enough to
/// amortise packing), decoded (tile-decoding backends with `m > 1`), or
/// left raw for the fused loop (everything else — `m == 1` has no
/// cross-row reuse to amortise a decode). Small problems (under
/// ~16k MACs) run serially; larger ones split C row panels across the
/// persistent worker pool. Either way the per-element accumulation order
/// is ascending-`k`, so the result does not depend on problem size or
/// thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
///
/// # Examples
///
/// ```
/// use daism_core::{gemm, ExactMul};
///
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = [0.0f32; 4];
/// gemm(&ExactMul, &a, &b, &mut c, 2, 2, 2);
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_shapes(a, b, c, m, k, n);
    if m == 0 || n == 0 || k == 0 {
        return; // nothing to accumulate
    }
    let macs = m.saturating_mul(k).saturating_mul(n);
    let form = if mul.is_native_f32() {
        // Native f32: the packed register-tile microkernel wins once
        // there is enough work to amortise packing; tiny or row-vector
        // problems keep the fused loop (which is then exactly the
        // reference loop, so neither regime regresses below naive).
        if m >= MICRO_MIN_M && macs >= MICRO_MIN_MACS {
            Form::Packed { portable: false }
        } else {
            Form::Fused
        }
    } else if m > 1 && mul.decodes_tiles() {
        Form::Decoded
    } else {
        // A single C row consumes each decoded element exactly once, and
        // a backend without a tile cache gains nothing from a decode:
        // both stay fused.
        Form::Fused
    };
    walk(mul, a, BSource::Raw(b, form), c, k, n, par_chunk_rows(m, k, n));
}

/// [`gemm`] with [`ExactMul`] forced onto the packed microkernel's
/// **portable** lane kernel, ignoring runtime AVX2 detection. Exported
/// so the differential suites (and CI's no-`simd` build) can assert the
/// detected and portable register kernels are byte-identical; prefer
/// [`gemm`] everywhere else.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
pub fn gemm_f32_microkernel_portable(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_shapes(a, b, c, m, k, n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    walk(&ExactMul, a, BSource::Raw(b, Form::Packed { portable: true }), c, k, n, None);
}

/// One `KC × NC` block of the B matrix: depth rows `[l0, l1)` crossed
/// with columns `[j0, j1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    pub(crate) l0: usize,
    pub(crate) l1: usize,
    pub(crate) j0: usize,
    pub(crate) j1: usize,
}

/// The `tk × tn` tiles of a `k × n` B matrix in the walk order every
/// engine shares: `j0` outer, `l0` inner — so each C element folds its
/// tiles in ascending `k`.
fn tiles(k: usize, n: usize, tk: usize, tn: usize) -> impl Iterator<Item = Tile> {
    (0..n).step_by(tn).flat_map(move |j0| {
        let j1 = (j0 + tn).min(n);
        (0..k).step_by(tk).map(move |l0| Tile { l0, l1: (l0 + tk).min(k), j0, j1 })
    })
}

/// The operand form a tile of B is converted to — one per slab kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// Raw row segments through [`ScalarMul::mul_rows`].
    Fused,
    /// A [`DecodedTile`] through [`ScalarMul::mul_decoded`].
    Decoded,
    /// `NR`-major packed panels through the register-tile microkernel;
    /// `portable` forces the portable register kernel over the
    /// runtime-detected one.
    Packed { portable: bool },
}

/// One tile of B in its [`Form`]. The fused form carries no data: its
/// kernel reads the raw matrix directly.
#[derive(Debug, Clone)]
enum TileB {
    Fused,
    Decoded(DecodedTile),
    Packed { data: Vec<f32>, portable: bool },
}

impl TileB {
    /// An empty tile of `form`, ready for [`convert`](Self::convert).
    fn new(form: Form) -> Self {
        match form {
            Form::Fused => TileB::Fused,
            Form::Decoded => TileB::Decoded(DecodedTile::default()),
            Form::Packed { portable } => TileB::Packed { data: Vec::new(), portable },
        }
    }

    /// Converts `tile` of the row-major `b` into this tile's form,
    /// reusing its buffers where the form has any to reuse.
    fn convert(&mut self, mul: &dyn ScalarMul, b: &[f32], n: usize, tile: Tile) {
        match self {
            TileB::Fused => {}
            TileB::Decoded(dt) => mul.decode_tile(b, n, tile.l0..tile.l1, tile.j0..tile.j1, dt),
            TileB::Packed { data, .. } => *data = microkernel::pack_b(b, n, tile),
        }
    }

    /// Runs this tile's MACs over the C rows in `c` (row count inferred)
    /// with the matching kernel. `a` is the A slab for the same rows;
    /// `raw` is the whole raw B, read by the fused and decoded forms.
    #[allow(clippy::too_many_arguments)] // internal kernel seam: operands + shape + tile
    fn mac_slab(
        &self,
        mul: &dyn ScalarMul,
        a: &[f32],
        raw: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        tile: Tile,
    ) {
        let rows = c.len() / n;
        // Row `r`'s C columns and A depth segment in this tile.
        let row =
            |r: usize| (r * n + tile.j0..r * n + tile.j1, &a[r * k + tile.l0..r * k + tile.l1]);
        match self {
            TileB::Fused => {
                for r in 0..rows {
                    let (cols, arow) = row(r);
                    let crow = &mut c[cols];
                    for (l, &av) in (tile.l0..).zip(arow) {
                        if av != 0.0 {
                            // zero bypass, as the hardware does
                            mul.mul_rows(av, &raw[l * n + tile.j0..l * n + tile.j1], crow);
                        }
                    }
                }
            }
            TileB::Decoded(dt) => {
                let block = &raw[tile.l0 * n + tile.j0..];
                for r in 0..rows {
                    let (cols, arow) = row(r);
                    mul.mul_decoded(arow, dt, block, n, &mut c[cols]);
                }
            }
            TileB::Packed { data, portable } => {
                microkernel::mac_slab(a, data, c, k, n, tile, *portable)
            }
        }
    }
}

/// Where the walk takes each tile of B from.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// The raw row-major matrix, each tile converted to the form just
    /// before its MACs (eager [`gemm`]: one converted tile alive at a
    /// time, in one buffer per call).
    Raw(&'a [f32], Form),
    /// A plan's tiles, converted once at build time.
    Plan(&'a GemmPlan),
}

/// The one float tile walk behind [`gemm`] and [`GemmPlan`]: per tile,
/// get B's operand (convert it now or borrow it from the plan), then run
/// the matching slab kernel serially or over `chunk_rows`-row C chunks.
fn walk(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: BSource<'_>,
    c: &mut [f32],
    k: usize,
    n: usize,
    chunk_rows: Option<usize>,
) {
    let (raw, mut eager) = match b {
        BSource::Raw(raw, form) => (raw, TileB::new(form)),
        BSource::Plan(plan) => (&plan.raw[..], TileB::Fused),
    };
    for (ti, tile) in tiles(k, n, KC, NC).enumerate() {
        let tb = match b {
            BSource::Raw(..) => {
                eager.convert(mul, raw, n, tile);
                &eager
            }
            BSource::Plan(plan) => &plan.tiles[ti],
        };
        for_each_slab(c, n, chunk_rows, |i0, cs| {
            tb.mac_slab(mul, &a[i0 * k..], raw, cs, k, n, tile);
        });
    }
}

/// One B matrix converted once, tile by tile, for one backend — the
/// per-tile operand conversion [`gemm`] redoes on **every** call,
/// hoisted out so a weight-stationary caller (a compiled inference
/// session serving many requests against fixed weights) pays it once
/// per weight matrix instead of once per request.
///
/// What a plan holds depends on the backend that builds it:
///
/// * native-`f32` backends — `NR`-major packed panels for the
///   register-tile microkernel (B is packed zero times per GEMM);
/// * tile-decoding backends ([`ApproxFpMul`] on the fast formats,
///   [`QuantizedExactMul`]) — the [`DecodedTile`] of every `KC × NC`
///   tile, plus the raw values for the rows' zero tests and exotic
///   elements;
/// * everything else — the raw values (the fused loop re-derives
///   operands per call, exactly as [`gemm`] does for those backends).
///
/// [`run`](Self::run) is **bit-identical** to [`gemm`] on the same
/// operands — *including* `m == 1`, which `gemm` itself keeps on the
/// fused path but which a plan serves from its decoded tiles: single-sample
/// inference requests are exactly where the per-request B re-decode
/// hurts most.
///
/// [`ApproxFpMul`]: crate::ApproxFpMul
/// [`QuantizedExactMul`]: crate::QuantizedExactMul
///
/// # Examples
///
/// ```
/// use daism_core::{gemm, ApproxFpMul, GemmPlan, MultiplierConfig};
/// use daism_num::FpFormat;
///
/// let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// let b = [0.5f32, 1.5, -2.0, 0.75]; // 2x2 weights, planned once…
/// let plan = GemmPlan::new(&mul, &b, 2, 2);
/// let a = [1.0f32, -0.5]; // …served against many requests
/// let mut fast = [0.0f32; 2];
/// plan.run(&mul, &a, &mut fast, 1);
/// let mut eager = [0.0f32; 2];
/// gemm(&mul, &a, &b, &mut eager, 1, 2, 2);
/// assert_eq!(fast, eager); // bit-identical
/// ```
#[derive(Debug, Clone)]
pub struct GemmPlan {
    k: usize,
    n: usize,
    /// The raw matrix, kept for the fused and decoded forms (empty for
    /// the packed form).
    raw: Vec<f32>,
    /// Every tile in walk order.
    tiles: Vec<TileB>,
}

impl GemmPlan {
    /// Converts the `k × n` row-major matrix `b` for repeated
    /// [`run`](Self::run) calls through `mul`. Running the plan through
    /// a *different* backend stays correct (decoded tiles fall back to
    /// the raw values) — except that a plan packed for a native-`f32`
    /// backend is only accepted by native-`f32` backends.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn new(mul: &dyn ScalarMul, b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B has wrong length");
        let form = if mul.is_native_f32() {
            Form::Packed { portable: false }
        } else if mul.decodes_tiles() {
            Form::Decoded
        } else {
            Form::Fused
        };
        let raw = if matches!(form, Form::Packed { .. }) { Vec::new() } else { b.to_vec() };
        let tiles = tiles(k, n, KC, NC)
            .map(|t| {
                let mut tb = TileB::new(form);
                tb.convert(mul, b, n, t);
                tb
            })
            .collect();
        GemmPlan { k, n, raw, tiles }
    }

    /// Depth (rows of B / columns of A).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (columns of B and C).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `C[m×n] += A[m×k] · B[k×n]` against this plan — the serving-path
    /// twin of [`gemm`]: same thread gate and row chunking, same kernels,
    /// **bit-identical** results for every backend and shape including
    /// `m == 1`, with every per-call B conversion (tile decode,
    /// microkernel packing, quantization) already paid at
    /// [`new`](Self::new) time.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if a plan
    /// packed for a native-`f32` backend is run through a non-native
    /// backend (the packed form drops the raw values, so there is no
    /// correct fallback).
    pub fn run(&self, mul: &dyn ScalarMul, a: &[f32], c: &mut [f32], m: usize) {
        self.run_with(mul, a, c, m, par_chunk_rows(m, self.k, self.n));
    }

    /// [`run`](Self::run) with an explicit C row-chunk size, bypassing
    /// the MAC/thread gate — `chunk_rows >= m` is the serial kernel the
    /// benches time without pool noise, and smaller chunks let the
    /// determinism tests exercise the chunk indexing on a single-core
    /// host. Prefer `run` everywhere else.
    ///
    /// # Panics
    ///
    /// Same contract as [`run`](Self::run), and panics if `chunk_rows`
    /// is zero.
    pub fn run_chunked(
        &self,
        mul: &dyn ScalarMul,
        a: &[f32],
        c: &mut [f32],
        m: usize,
        chunk_rows: usize,
    ) {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        self.run_with(mul, a, c, m, Some(chunk_rows));
    }

    fn run_with(
        &self,
        mul: &dyn ScalarMul,
        a: &[f32],
        c: &mut [f32],
        m: usize,
        chunk_rows: Option<usize>,
    ) {
        let (k, n) = (self.k, self.n);
        assert_eq!(a.len(), m * k, "A has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        assert!(
            mul.is_native_f32() || !matches!(self.tiles[0], TileB::Packed { .. }),
            "plan was packed for a native-f32 backend; {} cannot consume it",
            mul.name()
        );
        walk(mul, a, BSource::Plan(self), c, k, n, chunk_rows);
    }
}

// -------------------------------------------------------------------
// Block-floating-point GEMM engine
// -------------------------------------------------------------------

/// C rows one pass of the BlockFp MAC kernel carries. The kernel's lanes
/// run along a slab's rows, the stored A operands: every nonzero B
/// mantissa streamed in is multiplied against up to this many of them,
/// as one input element drives the wordlines of every multiplicand in a
/// group (`SramMultiplier::multiply_group`).
const ROW_LANES: usize = 4;

/// Columns per strip: the MAC kernel runs each tile in strips of this
/// many columns, so its accumulators stay in L1 cache (`ROW_LANES` `i64`
/// per column, 8 KiB), and the B index stores one-byte column offsets.
const STRIP: usize = 256;

/// Quantized B tiles with their nonzero index, built once per tile: each
/// tile's multiplier keys, and for each tile row the column offsets of
/// its nonzero mantissas, compacted branch-free. The MAC kernel streams
/// only those, so a zero B mantissa never reaches it (the
/// streamed-operand zero bypass, paper §III-C). Tiles follow each other
/// in walk order, and so do the [`STRIP`]-column strips of each tile
/// row. `starts` holds where every tile row strip's offsets begin in
/// `cols`, plus one past the last, so tile row strip `g` (counted over
/// all tiles) is `cols[starts[g]..starts[g + 1]]`.
#[derive(Debug, Clone, Default)]
struct SparseTiles {
    /// Each tile's keys, row-major `[l1-l0, j1-j0]`: the signed mantissa
    /// itself when products come from the product table, otherwise its
    /// sign times its wordline mask.
    keys: Vec<i32>,
    /// Column offsets of the nonzero keys within their strip.
    cols: Vec<u8>,
    starts: Vec<usize>,
    /// One shared exponent per tile.
    exp: Vec<i32>,
}

impl SparseTiles {
    fn clear(&mut self) {
        self.keys.clear();
        self.cols.clear();
        self.starts.clear();
        self.exp.clear();
    }

    /// Tile `ti` spanning `tile`, whose keys start at `offset` and whose
    /// first tile row strip is tile row strip `g` of the index.
    fn tile(&self, ti: usize, tile: Tile, offset: usize, g: usize) -> SparseTile<'_> {
        let (h, tw) = (tile.l1 - tile.l0, tile.j1 - tile.j0);
        SparseTile {
            keys: &self.keys[offset..offset + h * tw],
            cols: &self.cols,
            starts: &self.starts[g..=g + h * tw.div_ceil(STRIP)],
            exp: self.exp[ti],
        }
    }
}

/// One tile of a [`SparseTiles`]: its keys, and its tile row strips'
/// spans (`starts`, row-major) in the index's `cols`.
#[derive(Clone, Copy)]
struct SparseTile<'a> {
    keys: &'a [i32],
    cols: &'a [u8],
    starts: &'a [usize],
    exp: i32,
}

/// Writes the column offsets of `strip`'s nonzero entries (at most
/// [`STRIP`] of them) to the front of `cols` (at least `strip.len()`
/// long) and returns their count. Branch-free: every offset is written at
/// the running count, which only a nonzero advances; eight at a time, so
/// each group of writes needs one bounds check.
fn compact_nonzeros(strip: &[i32], cols: &mut [u8]) -> usize {
    let mut count = 0;
    let mut chunks = strip.chunks_exact(8);
    for (ci, chunk) in (&mut chunks).enumerate() {
        // `count <= 8 * ci`, so the window fits, and `c` never passes the
        // chunk index it is written at, so the mask only proves the bound.
        let window: &mut [u8; 8] = (&mut cols[count..count + 8]).try_into().expect("8 slots");
        let mut c = 0;
        for (i, &y) in chunk.iter().enumerate() {
            window[c & 7] = (8 * ci + i) as u8;
            c += (y != 0) as usize;
        }
        count += c;
    }
    let tail = chunks.remainder();
    for (j, &y) in tail.iter().enumerate() {
        cols[count] = (strip.len() - tail.len() + j) as u8;
        count += (y != 0) as usize;
    }
    count
}

/// The MAC loop of the BlockFp kernel over one tile row strip: for each
/// nonzero key in `keys`, listed by its column offset in `cols`,
/// `product` gives its magnitude products with the `L` bound A
/// mantissas, and each is added into the key's column of `accs` with the
/// sign `sx ^ sy`, branch-free (`s == -1` negates, `s == 0` passes
/// through). Integer sums are exact, so the order of the adds is free.
#[inline(always)]
fn stream<const L: usize>(
    keys: &[i32],
    cols: &[u8],
    sx: [i64; L],
    accs: &mut [[i64; L]],
    product: impl Fn(u32) -> [i64; L],
) {
    // One length for both, so one bounds check covers both reads.
    let accs = &mut accs[..keys.len()];
    for &j in cols {
        let key = keys[j as usize];
        let sy = (key >> 31) as i64;
        let raws = product(key.unsigned_abs());
        for ((acc, raw), sx) in accs[j as usize].iter_mut().zip(raws).zip(sx) {
            let s = sx ^ sy;
            *acc += (raw ^ s) - s;
        }
    }
}

/// The tiled block-floating-point GEMM engine: the accelerator's *actual*
/// execution mode (paper §IV-B), at per-tile exponent granularity.
///
/// # Dataflow
///
/// `C[m×n] += Â[m×k] · B̂[k×n]` where the hats denote BlockFp
/// quantization. A is the stored operand, the multiplicands programmed
/// into the array; B is streamed, its elements driving the wordlines
/// (paper §III–IV):
///
/// * **A** is quantized per `(row, k-tile)` segment — one shared
///   exponent per `tile_k`-wide row slice
///   ([`BlockFp::quantize_rows`]);
/// * **B** is quantized per `tile_k × tile_n` tile — one shared
///   exponent per tile — and each tile row's nonzero mantissas are
///   indexed by their column offsets, in 256-column strips,
///   **once per GEMM** (once for good with
///   [`prepare_b`](Self::prepare_b)), then shared read-only by every C
///   row and worker thread. A zero B mantissa never reaches the
///   multiplier: the streamed-operand zero bypass of §III-C, where a
///   zero input activates no wordline;
/// * the MAC kernel's lanes run along C's rows. Per tile row it binds
///   each row's A mantissa once (its product-table row, or its stored
///   line patterns for widths without a table), then multiplies every
///   indexed B mantissa of that row against all of them, as one input
///   drives every multiplicand of a group
///   (`SramMultiplier::multiply_group`). Mantissa *magnitudes* multiply
///   through the integer-mode OR-approximate [`MantissaMultiplier`],
///   signs are XORed exactly, and a tile row whose A mantissas are all
///   zero is skipped as well;
/// * each tile accumulates in an **exact `i64`** per C element — no
///   per-product exponent datapath, no rounding inside the tile — and
///   is folded into `C` with a single per-tile scale
///   `2^(expA + expB - 2(man_width - 2))` at the C-update, k-tiles in
///   ascending order.
///
/// # Error model
///
/// Whole-matrix BlockFp (the paper's literal "one exponent per matrix",
/// kept as [`execute_whole_matrix`](Self::execute_whole_matrix)) zeroes
/// every element more than `man_width - 2` octaves below the matrix
/// maximum. Per-tile quantization shrinks the sharing scope from `m·k`
/// elements to `tile_k` (A) / `tile_k·tile_n` (B), so wide-dynamic-range
/// operands keep far more mantissa bits — the differential suite asserts
/// the accuracy win. Within a tile the usual BFP model applies: half a
/// quantization step per operand (one step at the symmetric-clamp
/// extreme), then the OR-approximation's underestimate on top.
///
/// # Determinism
///
/// Per output element, k-tiles fold into `C` in ascending-`k` order and
/// each tile's integer accumulation is exact, so the result is
/// **byte-identical** across thread counts, chunk sizes and repeated
/// runs — the same guarantee the float decoded-tile path has
/// (asserted by `tests/blockfp_differential.rs`).
///
/// # Examples
///
/// ```
/// use daism_core::{BlockFpGemm, MultiplierConfig};
///
/// let engine = BlockFpGemm::new(MultiplierConfig::PC3, 12);
/// let a = [1.0f32, -0.5, 0.25, 0.75];
/// let b = [0.5f32, 1.0, -1.0, 0.5];
/// let mut c = [0.0f32; 4];
/// engine.execute(&a, &b, &mut c, 2, 2, 2);
/// // Exact result: [1.0, 0.75, -0.625, -0.125]; BFP+OR stays close.
/// assert!((c[0] - 1.0).abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct BlockFpGemm {
    mult: MantissaMultiplier,
    man_width: u32,
    tile_k: usize,
    tile_n: usize,
}

/// BlockFp blocks stored flat: every block's mantissas back to back in
/// one buffer, one shared exponent per block. The engine's quantized A
/// lives in this form, one block per `(row, k-tile)`, so `man` keeps A's
/// row-major layout.
#[derive(Debug, Clone, Default)]
struct Blocks {
    man: Vec<i32>,
    exp: Vec<i32>,
}

/// Where [`BlockFpGemm::run`] gets each tile's nonzero index from: the
/// raw matrix (quantized and indexed on the fly into reused buffers) or
/// a prepared index in the same walk order.
#[derive(Clone, Copy)]
enum BTiles<'a> {
    Raw(&'a [f32]),
    Prepared(&'a SparseTiles),
}

/// One thread's reusable BlockFp operand buffers, kept across tiles and
/// calls: the quantized A of an unprepared call and the index of one raw
/// B tile.
#[derive(Debug, Default)]
struct Scratch {
    a: Blocks,
    tile: SparseTiles,
}

thread_local! {
    /// The walk's operand buffers.
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
    /// The MAC kernel's exact tile accumulators.
    static ACCS: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's reusable `T`, moved out of its slot for the
/// duration and put back after, so buffers outlive the call without a
/// `RefCell` borrow held across it.
fn with_scratch<T: Default, R>(
    slot: &'static std::thread::LocalKey<Cell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let mut value = slot.take();
    let out = f(&mut value);
    slot.set(value);
    out
}

/// An A matrix quantized per `(row, k-tile)` block by
/// [`BlockFpGemm::prepare_a`], for repeated
/// [`BlockFpGemm::execute_with_prepared_a`] calls against changing B
/// operands (the Conv2d serving pattern: the kernel matrix is the
/// stationary left operand).
#[derive(Debug, Clone)]
pub struct BlockFpPreparedA {
    blocks: Blocks,
    m: usize,
    k: usize,
    man_width: u32,
    tile_k: usize,
}

impl BlockFpPreparedA {
    /// Rows of the prepared matrix.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Depth (columns of the prepared matrix).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A B matrix quantized per `tile_k × tile_n` tile and indexed by its
/// nonzero mantissas by [`BlockFpGemm::prepare_b`], for repeated
/// [`BlockFpGemm::execute_with_prepared_b`] calls against changing A
/// operands (the Dense serving pattern: `Wᵀ` is the stationary right
/// operand).
#[derive(Debug, Clone)]
pub struct BlockFpPreparedB {
    tiles: SparseTiles,
    k: usize,
    n: usize,
    man_width: u32,
    tile_k: usize,
    tile_n: usize,
}

impl BlockFpPreparedB {
    /// Depth (rows of the prepared matrix).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (columns of the prepared matrix).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
}

impl BlockFpGemm {
    /// Builds the engine for `config` with `man_width`-bit signed
    /// mantissas at the default tile geometry (`KC × NC`, shared with
    /// the float engine's cache blocking).
    ///
    /// # Panics
    ///
    /// Panics if `man_width` is outside `5..=25` (the integer multiplier
    /// needs `man_width - 1` in `4..=24`).
    pub fn new(config: MultiplierConfig, man_width: u32) -> Self {
        Self::with_tiles(config, man_width, KC, NC)
    }

    /// Builds the engine with explicit tile geometry. `tile_k` is the
    /// exponent-sharing depth (and the exact-`i64` accumulation span);
    /// `tile_n` the tile width. `tile_k >= k` and `tile_n >= n`
    /// degenerate to one block per A row and one per B matrix.
    ///
    /// # Panics
    ///
    /// Panics if `man_width` is outside `5..=25`, if either tile
    /// dimension is zero, or if `tile_k` is deep enough that a tile's
    /// worst-case integer accumulation could overflow `i64`
    /// (`tile_k > 2^(65 - 2·man_width)`; 32768 at the widest mantissa).
    pub fn with_tiles(
        config: MultiplierConfig,
        man_width: u32,
        tile_k: usize,
        tile_n: usize,
    ) -> Self {
        assert!((5..=25).contains(&man_width), "man_width {man_width} outside 5..=25");
        assert!(tile_k > 0 && tile_n > 0, "tile dimensions must be positive");
        // Each product magnitude is < 2^(2·man_width - 2) at full-product
        // scale, so tile_k of them stay within i64 iff tile_k ≤ 2^(65-2w).
        assert!(
            tile_k <= 1usize << (65 - 2 * man_width).min(63),
            "tile_k {tile_k} too deep for exact i64 accumulation at man_width {man_width}"
        );
        let mult = MantissaMultiplier::new(config, OperandMode::Int, man_width - 1);
        BlockFpGemm { mult, man_width, tile_k, tile_n }
    }

    /// The multiplier configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.mult.config()
    }

    /// Signed mantissa width in bits (including the sign's magnitude
    /// bit).
    #[inline]
    pub fn man_width(&self) -> u32 {
        self.man_width
    }

    /// Exponent-sharing depth along `k`.
    #[inline]
    pub fn tile_k(&self) -> usize {
        self.tile_k
    }

    /// Tile width along `n`.
    #[inline]
    pub fn tile_n(&self) -> usize {
        self.tile_n
    }

    /// Backend name for reports, e.g. `"blockfp12/PC3_tr"`.
    pub fn name(&self) -> String {
        format!("blockfp{}/{}", self.man_width, self.mult.config())
    }

    /// Truncated configurations sense only the top `man_width - 1`
    /// product columns; shifting the read-out back left keeps every
    /// product at full 2·(man_width-1)-column scale so one tile scale
    /// serves both modes.
    #[inline]
    fn shift_back(&self) -> u32 {
        if self.mult.config().truncate {
            self.man_width - 1
        } else {
            0
        }
    }

    /// Per-tile result scale: mantissa `q` represents `q · 2^(exp - (w-2))`,
    /// so a product of two mantissas carries `2^(expA + expB - 2(w-2))`.
    #[inline]
    fn tile_scale(&self, exp_a: i32, exp_b: i32) -> f64 {
        2f64.powi(exp_a + exp_b - 2 * (self.man_width as i32 - 2))
    }

    /// Quantizes the `m × k` matrix `a` into `out`, one block per
    /// `(row, k-tile)` segment — the flat form of
    /// [`BlockFp::quantize_rows`].
    fn quantize_a(&self, a: &[f32], m: usize, k: usize, out: &mut Blocks) {
        out.man.clear();
        out.man.resize(m * k, 0);
        out.exp.clear();
        for (row, qrow) in a.chunks_exact(k).zip(out.man.chunks_exact_mut(k)) {
            for (seg, qseg) in row.chunks(self.tile_k).zip(qrow.chunks_mut(self.tile_k)) {
                out.exp.push(quantize_block(seg, seg.len(), seg.len(), self.man_width, qseg));
            }
        }
    }

    /// Quantizes `tile` of the row-major matrix `b` (`n` columns) as one
    /// block, read in place, into `out`'s keys and appends the tile's
    /// nonzero index.
    fn index_tile(&self, b: &[f32], n: usize, tile: Tile, out: &mut SparseTiles) {
        let tw = tile.j1 - tile.j0;
        let start = out.keys.len();
        out.keys.resize(start + (tile.l1 - tile.l0) * tw, 0);
        let keys = &mut out.keys[start..];
        out.exp.push(quantize_block(&b[tile.l0 * n + tile.j0..], n, tw, self.man_width, keys));
        if out.starts.is_empty() {
            out.starts.push(0);
        }
        for strip in keys.chunks_exact(tw).flat_map(|row| row.chunks(STRIP)) {
            let nnz = out.cols.len();
            out.cols.resize(nnz + strip.len(), 0);
            let count = compact_nonzeros(strip, &mut out.cols[nnz..]);
            out.cols.truncate(nnz + count);
            out.starts.push(nnz + count);
        }
        if !self.mult.has_table() {
            let layout = self.mult.layout();
            for y in keys {
                let s = *y >> 31;
                *y = ((layout.decode(y.unsigned_abs() as u64) as i32) ^ s) - s;
            }
        }
    }

    /// The one BlockFp MAC kernel: folds B tile `bt` (spanning `tile`)
    /// into the C rows in `c`, a `rows × n` slab starting at global row
    /// `i0`. `a` is the whole `m × k` matrix's per-(row, k-tile)
    /// quantization and `nkb` its number of k-tiles per row. The slab
    /// runs in groups of up to [`ROW_LANES`] rows, each group with its
    /// own lane count so a single-row slab binds one A row, not four.
    #[allow(clippy::too_many_arguments)] // internal kernel seam: operands + shape + tile
    fn mac_tile(
        &self,
        a: &Blocks,
        k: usize,
        nkb: usize,
        i0: usize,
        bt: SparseTile<'_>,
        c: &mut [f32],
        n: usize,
        tile: Tile,
    ) {
        let rows = c.len() / n;
        with_scratch(&ACCS, |accs| {
            let mut r0 = 0;
            while r0 < rows {
                let lanes = (rows - r0).min(ROW_LANES);
                let group = (a, k, nkb, i0 + r0, lanes);
                let cg = &mut c[r0 * n..(r0 + lanes) * n];
                match lanes {
                    1 => self.mac_group::<1>(group, bt, cg, n, tile, accs),
                    2 => self.mac_group::<2>(group, bt, cg, n, tile, accs),
                    _ => self.mac_group::<ROW_LANES>(group, bt, cg, n, tile, accs),
                }
                r0 += lanes;
            }
        });
    }

    /// [`mac_tile`](Self::mac_tile) on the `lanes <= L` C rows in `c`,
    /// global rows `row0..row0 + lanes`; lanes past `lanes` bind a zero A
    /// mantissa, whose products are zero.
    ///
    /// The tile runs strip by strip ([`STRIP`] columns). Per tile row,
    /// each lane's A mantissa is bound once: its product-table row, or,
    /// for widths without a table, its stored line patterns, laid out
    /// line-major so one OR chain over a key's active wordlines serves
    /// every lane. A tile row strip whose B mantissas or A mantissas are
    /// all zero is skipped whole. Each strip's sums stay exact `i64`
    /// integers in `accs`, `[column][row]`, and fold into C once per tile
    /// with the row's per-(row, k-tile) scale.
    fn mac_group<const L: usize>(
        &self,
        (a, k, nkb, row0, lanes): (&Blocks, usize, usize, usize, usize),
        bt: SparseTile<'_>,
        c: &mut [f32],
        n: usize,
        tile: Tile,
        accs: &mut Vec<i64>,
    ) {
        let tw = tile.j1 - tile.j0;
        let strips = tw.div_ceil(STRIP);
        let table = self.mult.table();
        let layout = self.mult.layout();
        let mut lines = [[0u64; L]; MAX_LINES];
        // Products were summed at read-out scale; shifting the exact sum
        // back equals summing the shifted products.
        let shift = self.shift_back();
        let lb = tile.l0 / self.tile_k;
        for (strip, j0) in (0..tw).step_by(STRIP).enumerate() {
            let sw = STRIP.min(tw - j0);
            accs.clear();
            accs.resize(sw * L, 0);
            let (accs, _) = accs.as_chunks_mut::<L>();
            for (dl, keys) in bt.keys.chunks_exact(tw).enumerate() {
                let g = dl * strips + strip;
                let cols = &bt.cols[bt.starts[g]..bt.starts[g + 1]];
                let mut xs = [0i32; L];
                for (r, x) in xs.iter_mut().enumerate().take(lanes) {
                    *x = a.man[(row0 + r) * k + tile.l0 + dl];
                }
                if cols.is_empty() || xs == [0; L] {
                    continue;
                }
                let keys = &keys[j0..j0 + sw];
                let sx = xs.map(|x| (x >> 31) as i64);
                let xs = xs.map(|x| x.unsigned_abs() as usize);
                if let Some(table) = table {
                    let bases = xs.map(|x| x << layout.mantissa_width());
                    // The table holds every (n-bit, n-bit) pair, so the
                    // mask only elides the bounds check.
                    let mask = table.len() - 1;
                    stream(keys, cols, sx, accs, |y| {
                        bases.map(|base| table[(base | y as usize) & mask] as i64)
                    });
                } else {
                    for (i, line) in lines.iter_mut().enumerate().take(layout.len()) {
                        *line = xs.map(|x| layout.stored_pattern(i, x as u64));
                    }
                    stream(keys, cols, sx, accs, |mask| {
                        let mut raws = [0u64; L];
                        let mut m = mask;
                        while m != 0 {
                            let line = &lines[m.trailing_zeros() as usize];
                            for (raw, &pattern) in raws.iter_mut().zip(line) {
                                *raw |= pattern;
                            }
                            m &= m - 1;
                        }
                        raws.map(|raw| raw as i64)
                    });
                }
            }
            for r in 0..lanes {
                let scale = self.tile_scale(a.exp[(row0 + r) * nkb + lb], bt.exp);
                let crow = &mut c[r * n + tile.j0 + j0..][..sw];
                for (cv, acc) in crow.iter_mut().zip(accs.iter()) {
                    if acc[r] != 0 {
                        *cv += ((acc[r] << shift) as f64 * scale) as f32;
                    }
                }
            }
        }
    }

    /// The one tile walk behind every per-tile entry point: `j0` outer,
    /// `l0` inner, each tile's nonzero index either built on the fly into
    /// `tile_buf` ([`BTiles::Raw`]) or read from a prepared index
    /// ([`BTiles::Prepared`], same walk order), then shared read-only by
    /// every C slab, MAC'd serially or over `chunk_rows`-row C chunks.
    /// Byte-identical either way — each element's tile contributions are
    /// exact integers folded in ascending-`k` order.
    #[allow(clippy::too_many_arguments)] // internal walk seam: operands, buffers, shape
    fn run(
        &self,
        a: &Blocks,
        b: BTiles<'_>,
        tile_buf: &mut SparseTiles,
        c: &mut [f32],
        k: usize,
        n: usize,
        chunk_rows: Option<usize>,
    ) {
        let nkb = k.div_ceil(self.tile_k);
        let (mut offset, mut g) = (0, 0);
        for (ti, tile) in tiles(k, n, self.tile_k, self.tile_n).enumerate() {
            let bt = match b {
                BTiles::Raw(raw) => {
                    tile_buf.clear();
                    self.index_tile(raw, n, tile, tile_buf);
                    tile_buf.tile(0, tile, 0, 0)
                }
                BTiles::Prepared(tiles) => tiles.tile(ti, tile, offset, g),
            };
            offset += bt.keys.len();
            g += bt.starts.len() - 1;
            for_each_slab(c, n, chunk_rows, |i0, cs| {
                self.mac_tile(a, k, nkb, i0, bt, cs, n, tile);
            });
        }
    }

    /// [`run`](Self::run) on an unprepared A, quantized into this
    /// thread's scratch along with the B tiles.
    #[allow(clippy::too_many_arguments)] // shape + chunk seam, mirrors the float kernels
    fn run_raw_a(
        &self,
        a: &[f32],
        b: BTiles<'_>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        chunk_rows: Option<usize>,
    ) {
        with_scratch(&SCRATCH, |s| {
            self.quantize_a(a, m, k, &mut s.a);
            self.run(&s.a, b, &mut s.tile, c, k, n, chunk_rows);
        });
    }

    /// `C += Â·B̂` through the tiled engine. Small problems (under ~16k
    /// MACs) or single-row problems run serially; larger ones split C
    /// row chunks across the persistent worker pool — with
    /// byte-identical results either way (each element's tile
    /// contributions are exact integers folded in ascending-`k` order).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape.
    pub fn execute(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        self.run_raw_a(a, BTiles::Raw(b), c, m, k, n, par_chunk_rows(m, k, n));
    }

    /// The parallel kernel with an explicit C row-chunk size, bypassing
    /// [`execute`](Self::execute)'s MAC/thread gate — the seam the
    /// determinism tests drive so single-core CI still exercises the
    /// chunk indexing (on a 1-core host the pool degrades to an inline
    /// loop, but the same slab slicing runs). B tiles are quantized and
    /// indexed once and shared read-only across chunks. Prefer `execute`
    /// everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape or `chunk_rows`
    /// is zero.
    #[allow(clippy::too_many_arguments)] // shape + chunk seam, mirrors the float kernels
    pub fn execute_chunked(
        &self,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        chunk_rows: usize,
    ) {
        check_shapes(a, b, c, m, k, n);
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        self.run_raw_a(a, BTiles::Raw(b), c, m, k, n, Some(chunk_rows));
    }

    /// Quantizes the `m × k` matrix `a` per `(row, k-tile)` block for
    /// this engine's geometry — the A-side conversion
    /// [`execute`](Self::execute) pays per call, made persistent for
    /// weight-stationary callers whose *A* operand is the fixed one
    /// (`Conv2d`'s lowered forward multiplies the kernel matrix from
    /// the left).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn prepare_a(&self, a: &[f32], m: usize, k: usize) -> BlockFpPreparedA {
        assert_eq!(a.len(), m * k, "A has wrong length");
        let mut blocks = Blocks::default();
        if k > 0 {
            self.quantize_a(a, m, k, &mut blocks);
        }
        BlockFpPreparedA { blocks, m, k, man_width: self.man_width, tile_k: self.tile_k }
    }

    /// Quantizes the `k × n` matrix `b` per `tile_k × tile_n` tile for
    /// this engine's geometry and indexes each tile's nonzero mantissas,
    /// in the engine's walk order — the B-side conversion
    /// [`execute`](Self::execute) pays per call, made persistent for
    /// weight-stationary callers (`Dense` multiplies `Wᵀ` from the
    /// right).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn prepare_b(&self, b: &[f32], k: usize, n: usize) -> BlockFpPreparedB {
        assert_eq!(b.len(), k * n, "B has wrong length");
        let mut tiles = SparseTiles::default();
        for tile in self::tiles(k, n, self.tile_k, self.tile_n) {
            self.index_tile(b, n, tile, &mut tiles);
        }
        BlockFpPreparedB {
            tiles,
            k,
            n,
            man_width: self.man_width,
            tile_k: self.tile_k,
            tile_n: self.tile_n,
        }
    }

    /// [`execute`](Self::execute) with the A-side quantization already
    /// done (`m` and `k` come from the prepared operand) —
    /// byte-identical to `execute` on the same values, same thread
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `ap` was
    /// prepared by an engine with a different mantissa width or
    /// exponent-sharing depth.
    pub fn execute_with_prepared_a(
        &self,
        ap: &BlockFpPreparedA,
        b: &[f32],
        c: &mut [f32],
        n: usize,
    ) {
        assert_eq!(
            (ap.man_width, ap.tile_k),
            (self.man_width, self.tile_k),
            "prepared A geometry does not match this engine"
        );
        let (m, k) = (ap.m, ap.k);
        assert_eq!(b.len(), k * n, "B has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let chunk_rows = par_chunk_rows(m, k, n);
        with_scratch(&SCRATCH, |s| {
            self.run(&ap.blocks, BTiles::Raw(b), &mut s.tile, c, k, n, chunk_rows);
        });
    }

    /// [`execute`](Self::execute) with the B-side quantization already
    /// done (`k` and `n` come from the prepared operand) —
    /// byte-identical to `execute` on the same values, same thread
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `bp` was
    /// prepared by an engine with different tile geometry or mantissa
    /// width.
    pub fn execute_with_prepared_b(
        &self,
        a: &[f32],
        bp: &BlockFpPreparedB,
        c: &mut [f32],
        m: usize,
    ) {
        assert_eq!(
            (bp.man_width, bp.tile_k, bp.tile_n),
            (self.man_width, self.tile_k, self.tile_n),
            "prepared B geometry does not match this engine"
        );
        let (k, n) = (bp.k, bp.n);
        assert_eq!(a.len(), m * k, "A has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        self.run_raw_a(a, BTiles::Prepared(&bp.tiles), c, m, k, n, par_chunk_rows(m, k, n));
    }

    /// The scalar semantic anchor: same per-`(row, k-tile)` /
    /// per-`tile_k × tile_n` quantization, same integer products, same
    /// per-tile scales — computed with plain nested loops, no tiling
    /// machinery, no prepared multiplicands, no threads. The engine must
    /// be bit-identical to this for every configuration, width and shape
    /// (enforced by `tests/blockfp_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape.
    pub fn reference(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let nkb = k.div_ceil(self.tile_k);
        let njb = n.div_ceil(self.tile_n);
        let a_blocks = BlockFp::quantize_rows(a, k, self.tile_k, self.man_width);
        let mut b_tiles = Vec::with_capacity(nkb * njb);
        for l0 in (0..k).step_by(self.tile_k) {
            for j0 in (0..n).step_by(self.tile_n) {
                let tile: Vec<f32> = (l0..(l0 + self.tile_k).min(k))
                    .flat_map(|l| &b[l * n + j0..l * n + (j0 + self.tile_n).min(n)])
                    .copied()
                    .collect();
                b_tiles.push(BlockFp::quantize(&tile, self.man_width));
            }
        }
        let shift = self.shift_back();
        for i in 0..m {
            for j in 0..n {
                let jb = j / self.tile_n;
                let dj = j - jb * self.tile_n;
                let tw = self.tile_n.min(n - jb * self.tile_n);
                for lb in 0..nkb {
                    let ablock = &a_blocks[i * nkb + lb];
                    let btile = &b_tiles[lb * njb + jb];
                    let mut acc = 0i64;
                    for (dl, &x) in ablock.mantissas().iter().enumerate() {
                        if x == 0 {
                            continue;
                        }
                        let y = btile.mantissas()[dl * tw + dj];
                        if y == 0 {
                            continue;
                        }
                        let mag =
                            self.mult.multiply(x.unsigned_abs() as u64, y.unsigned_abs() as u64)
                                << shift;
                        acc += if (x < 0) ^ (y < 0) { -(mag as i64) } else { mag as i64 };
                    }
                    if acc != 0 {
                        let scale = self.tile_scale(ablock.shared_exp(), btile.shared_exp());
                        c[i * n + j] += (acc as f64 * scale) as f32;
                    }
                }
            }
        }
    }

    /// The paper's literal §IV-B mode: **one shared exponent per whole
    /// matrix** for A and for B (tile geometry ignored), serial. Kept as
    /// the accuracy baseline the per-tile engine is measured against —
    /// wide-dynamic-range operands lose most of their small elements
    /// here — and as the bit-compatibility anchor for `m == 1` problems
    /// with matrix-spanning tiles, where the two granularities coincide.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `k` is deep
    /// enough that the whole-row integer accumulation could overflow
    /// `i64` (`k > 2^(65 - 2·man_width)`).
    pub fn execute_whole_matrix(
        &self,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        assert!(
            k <= 1usize << (65 - 2 * self.man_width).min(63),
            "k {k} too deep for exact i64 accumulation at man_width {}",
            self.man_width
        );
        // One block per matrix: A's rows all carry its one exponent, and
        // B is one tile spanning the whole matrix.
        let mut block_a = Blocks { man: vec![0; m * k], exp: Vec::new() };
        let exp_a = quantize_block(a, k, k, self.man_width, &mut block_a.man);
        block_a.exp.resize(m, exp_a);
        let whole = Tile { l0: 0, l1: k, j0: 0, j1: n };
        let mut index = SparseTiles::default();
        self.index_tile(b, n, whole, &mut index);
        self.mac_tile(&block_a, k, 1, 0, index.tile(0, whole, 0, 0), c, n, whole);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxFpMul, ExactMul, MultiplierConfig, QuantizedExactMul};
    use daism_num::FpFormat;

    fn test_matrix(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                if h.is_multiple_of(9) {
                    0.0 // exercise the zero-bypass path
                } else {
                    ((h % 2000) as f32 - 1000.0) / 250.0
                }
            })
            .collect()
    }

    /// Every operand form `mul` can consume: packed tiles drop the raw
    /// values, so only native-`f32` backends take them.
    fn forms(mul: &dyn ScalarMul) -> Vec<Form> {
        let mut forms = vec![Form::Fused, Form::Decoded];
        if mul.is_native_f32() {
            forms.extend([Form::Packed { portable: false }, Form::Packed { portable: true }]);
        }
        forms
    }

    fn assert_bits_eq(reference: &[f32], got: &[f32], what: &str) {
        for (i, (r, g)) in reference.iter().zip(got).enumerate() {
            assert_eq!(r.to_bits(), g.to_bits(), "{what} element {i}: {r} vs {g}");
        }
    }

    /// `gemm` and the eager walk in every form, serial, against the
    /// scalar reference.
    fn assert_bit_identical(mul: &dyn ScalarMul, m: usize, k: usize, n: usize) {
        let a = test_matrix(m * k, 1);
        let b = test_matrix(k * n, 2);
        let mut reference = vec![0.0f32; m * n];
        gemm_reference(mul, &a, &b, &mut reference, m, k, n);
        let mut engine = vec![0.0f32; m * n];
        gemm(mul, &a, &b, &mut engine, m, k, n);
        assert_bits_eq(&reference, &engine, &format!("{}: gemm {m}x{k}x{n}", mul.name()));
        for form in forms(mul) {
            let mut serial = vec![0.0f32; m * n];
            walk(mul, &a, BSource::Raw(&b, form), &mut serial, k, n, None);
            assert_bits_eq(&reference, &serial, &format!("{}: {form:?} {m}x{k}x{n}", mul.name()));
        }
    }

    #[test]
    fn engine_matches_reference_small_and_parallel_sizes() {
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (33, 17, 9), (70, 40, 48)] {
            assert_bit_identical(&ExactMul, m, k, n);
            assert_bit_identical(&QuantizedExactMul::new(FpFormat::BF16), m, k, n);
            assert_bit_identical(&pc3, m, k, n);
        }
    }

    #[test]
    fn exact_gemm_matches_manual() {
        let a = [1.0, 0.0, 2.0, -1.0, 3.0, 1.0]; // 2x3
        let b = [2.0, 1.0, 0.0, -1.0, 1.0, 2.0]; // 3x2
        let mut c = [0.0f32; 4];
        gemm(&ExactMul, &a, &b, &mut c, 2, 3, 2);
        // Row 0: [1,0,2]·cols -> (2+0+2, 1+0+4); row 1: [-1,3,1] ->
        // (-2+0+1, -1-3+2).
        assert_eq!(c, [4.0, 5.0, -1.0, -2.0]);
    }

    #[test]
    fn fast_path_equals_slow_path_for_exact() {
        // The native-f32 fast path must produce bit-identical results to
        // routing ExactMul through the dispatched loop. QuantizedExactMul
        // at FP32 is semantically f32-exact but takes the slow path.
        let a: Vec<f32> = (0..12).map(|i| (i as f32 - 5.0) / 3.0).collect();
        let b: Vec<f32> = (0..20).map(|i| (i as f32 + 1.0) / 7.0).collect();
        let mut fast = vec![0.0f32; 15];
        let mut slow = vec![0.0f32; 15];
        gemm(&ExactMul, &a, &b, &mut fast, 3, 4, 5);
        gemm(&QuantizedExactMul::new(FpFormat::FP32), &a, &b, &mut slow, 3, 4, 5);
        assert_bits_eq(&fast, &slow, "ExactMul vs QuantizedExactMul(FP32)");
    }

    #[test]
    fn approx_gemm_underestimates() {
        let mul = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16);
        let a = vec![1.3f32; 16];
        let b = vec![1.7f32; 16];
        let mut approx = vec![0.0f32; 16];
        let mut exact = vec![0.0f32; 16];
        gemm(&mul, &a, &b, &mut approx, 4, 4, 4);
        gemm(&ExactMul, &a, &b, &mut exact, 4, 4, 4);
        for (ap, ex) in approx.iter().zip(&exact) {
            assert!(ap <= ex);
            assert!(*ap > 0.5 * ex);
        }
    }

    #[test]
    fn degenerate_shapes_are_noops() {
        let mut c = [7.0f32];
        gemm(&ExactMul, &[], &[], &mut c, 1, 0, 1);
        assert_eq!(c[0], 7.0);
        let mut empty: [f32; 0] = [];
        gemm(&ExactMul, &[], &[], &mut empty, 0, 2, 0);
        gemm(&ExactMul, &[], &[], &mut empty, 0, 0, 0);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let mut c = [10.0f32];
        gemm(&ExactMul, &[2.0], &[3.0], &mut c, 1, 1, 1);
        assert_eq!(c[0], 16.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn shape_mismatch_panics() {
        let mut c = [0.0f32; 1];
        gemm(&ExactMul, &[1.0, 2.0], &[1.0], &mut c, 1, 1, 1);
    }

    #[test]
    fn blocking_crosses_kc_and_nc_boundaries() {
        // Shapes straddling the KC/NC block edges must still accumulate
        // in ascending-k order per element.
        let mul = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        assert_bit_identical(&mul, 2, KC + 3, 5);
        assert_bit_identical(&ExactMul, 2, 3, NC + 9);
        assert_bit_identical(&mul, 2, 3, NC + 9);
    }

    #[test]
    fn parallel_path_engages_above_gate() {
        // 64x32x32 = 65536 MACs clears PAR_MIN_MACS with m > 1: the
        // chunked walk runs with decoded tiles (approx) and packed tiles
        // (exact) — when `current_num_threads() > 1`; on a 1-core host
        // `gemm` stays serial, and the direct chunked test below keeps
        // the chunk indexing covered regardless.
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        assert_bit_identical(&mul, 64, 32, 32);
        assert_bit_identical(&ExactMul, 64, 32, 32);
        // And a shape whose rows don't divide evenly by the chunk size.
        assert_bit_identical(&mul, 37, 24, 40);
    }

    #[test]
    fn parallel_kernels_bit_match_reference_even_single_core() {
        // Drive the chunked walk directly, below `gemm`'s thread gate,
        // from both B sources: on a 1-core host `run_batch` degrades to
        // an inline loop, but the chunk indexing under test still
        // executes, so a slab slicing bug cannot hide behind the gate.
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let muls: [&dyn ScalarMul; 2] = [&pc3, &ExactMul];
        for &(m, k, n) in &[(5, 9, 11), (64, 32, 32), (37, 24, 40), (3, KC + 5, 7)] {
            let a = test_matrix(m * k, 1);
            let b = test_matrix(k * n, 2);
            for mul in muls {
                let mut reference = vec![0.0f32; m * n];
                gemm_reference(mul, &a, &b, &mut reference, m, k, n);
                let plan = GemmPlan::new(mul, &b, k, n);
                // Chunk sizes that divide m, don't divide m, and exceed it.
                for chunk_rows in [1, 3, MC, m + 1] {
                    let what = format!("{}: {m}x{k}x{n} chunk {chunk_rows}", mul.name());
                    for form in forms(mul) {
                        let mut eager = vec![0.0f32; m * n];
                        walk(mul, &a, BSource::Raw(&b, form), &mut eager, k, n, Some(chunk_rows));
                        assert_bits_eq(&reference, &eager, &format!("{what} eager {form:?}"));
                    }
                    let mut planned = vec![0.0f32; m * n];
                    plan.run_chunked(mul, &a, &mut planned, m, chunk_rows);
                    assert_bits_eq(&reference, &planned, &format!("{what} plan"));
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // GemmPlan
    // ---------------------------------------------------------------

    fn assert_prepared_b_matches_gemm(mul: &dyn ScalarMul, m: usize, k: usize, n: usize) {
        let a = test_matrix(m * k, 5);
        let b = test_matrix(k * n, 6);
        let plan = GemmPlan::new(mul, &b, k, n);
        assert_eq!((plan.k(), plan.n()), (k, n));
        let mut eager = vec![0.0f32; m * n];
        gemm(mul, &a, &b, &mut eager, m, k, n);
        let mut served = vec![0.0f32; m * n];
        plan.run(mul, &a, &mut served, m);
        let mut serial = vec![0.0f32; m * n];
        plan.run_chunked(mul, &a, &mut serial, m, m.max(1));
        let what = format!("{}: {m}x{k}x{n}", mul.name());
        assert_bits_eq(&eager, &served, &format!("{what} plan"));
        assert_bits_eq(&eager, &serial, &format!("{what} plan-serial"));
    }

    #[test]
    fn prepared_b_bit_matches_gemm_for_every_backend_class() {
        // One backend per plan form: packed (native f32), decoded (tile
        // cache), fused (raw fallback — an exotic format ApproxFpMul
        // keeps on the FpScalar path).
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let quant = QuantizedExactMul::new(FpFormat::BF16);
        // e11m9: exponent range beyond f32's, so the fast-f32 tile
        // cache is off and the plan keeps the raw fused fallback.
        let exotic = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::new(11, 9).unwrap());
        let muls: [&dyn ScalarMul; 4] = [&ExactMul, &pc3, &quant, &exotic];
        for mul in muls {
            for &(m, k, n) in &[(1, 7, 9), (3, 5, 7), (33, 17, 9), (64, 32, 32)] {
                assert_prepared_b_matches_gemm(mul, m, k, n);
            }
        }
    }

    #[test]
    fn prepared_b_serves_the_m_equals_1_case() {
        // Regression for the m > 1 decode gate in `gemm`: a plan must
        // serve single-sample requests bit-identically to the eager
        // engine (which routes m == 1 to the fused path).
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let quant = QuantizedExactMul::new(FpFormat::BF16);
        let muls: [&dyn ScalarMul; 3] = [&ExactMul, &pc3, &quant];
        for mul in muls {
            for &(k, n) in &[(1, 1), (5, 9), (KC + 3, 5), (3, NC + 9), (64, 64)] {
                assert_prepared_b_matches_gemm(mul, 1, k, n);
            }
        }
    }

    #[test]
    fn prepared_b_crosses_tile_boundaries() {
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        assert_prepared_b_matches_gemm(&pc3, 2, KC + 3, 5);
        assert_prepared_b_matches_gemm(&pc3, 2, 3, NC + 9);
        assert_prepared_b_matches_gemm(&ExactMul, 2, KC + 3, NC + 9);
    }

    #[test]
    fn prepared_b_degenerate_shapes_are_noops() {
        let mut c = [7.0f32];
        let empty = GemmPlan::new(&ExactMul, &[], 0, 1);
        empty.run(&ExactMul, &[], &mut c, 1);
        empty.run_chunked(&ExactMul, &[], &mut c, 1, 1);
        assert_eq!(c[0], 7.0);
    }

    #[test]
    fn prepared_b_panels_are_reusable_across_calls() {
        // The whole point: one plan, many requests — later requests
        // must not observe state left by earlier ones.
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let (k, n) = (24usize, 40usize);
        let b = test_matrix(k * n, 8);
        let plan = GemmPlan::new(&mul, &b, k, n);
        for seed in 0..4 {
            let a = test_matrix(k, 100 + seed);
            let mut eager = vec![0.0f32; n];
            gemm(&mul, &a, &b, &mut eager, 1, k, n);
            let mut served = vec![0.0f32; n];
            plan.run(&mul, &a, &mut served, 1);
            assert_bits_eq(&eager, &served, &format!("request {seed}"));
        }
    }

    #[test]
    fn foreign_panel_prepared_b_falls_back_correctly() {
        // Tiles planned by one tile-decoding backend and run through
        // another must match the consumer's own eager semantics.
        let preparer = QuantizedExactMul::new(FpFormat::BF16);
        let consumer = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let (m, k, n) = (3usize, 5, 7);
        let a = test_matrix(m * k, 1);
        let b = test_matrix(k * n, 2);
        let plan = GemmPlan::new(&preparer, &b, k, n);
        let mut eager = vec![0.0f32; m * n];
        gemm(&consumer, &a, &b, &mut eager, m, k, n);
        let mut served = vec![0.0f32; m * n];
        plan.run(&consumer, &a, &mut served, m);
        assert_bits_eq(&eager, &served, "foreign tile");
    }

    #[test]
    #[should_panic(expected = "native-f32")]
    fn packed_prepared_b_rejects_non_native_consumer() {
        let b = test_matrix(4, 2);
        let plan = GemmPlan::new(&ExactMul, &b, 2, 2);
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let mut c = [0.0f32; 2];
        plan.run(&mul, &[1.0, 2.0], &mut c, 1);
    }

    // ---------------------------------------------------------------
    // BlockFpGemm
    // ---------------------------------------------------------------

    #[test]
    fn blockfp_engine_matches_scalar_reference() {
        let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, 12, 3, 4);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 3, 4), (6, 8, 9)] {
            let a = test_matrix(m * k, 11);
            let b = test_matrix(k * n, 12);
            let mut reference = vec![0.0f32; m * n];
            let mut tiled = vec![0.0f32; m * n];
            engine.reference(&a, &b, &mut reference, m, k, n);
            engine.execute(&a, &b, &mut tiled, m, k, n);
            for (i, (r, t)) in reference.iter().zip(&tiled).enumerate() {
                assert_eq!(r.to_bits(), t.to_bits(), "{m}x{k}x{n} element {i}: {r} vs {t}");
            }
        }
    }

    #[test]
    fn blockfp_close_to_exact_at_high_width() {
        let (m, k, n) = (4usize, 6, 5);
        let a = test_matrix(m * k, 3);
        let b = test_matrix(k * n, 4);
        let mut exact = vec![0.0f32; m * n];
        gemm(&ExactMul, &a, &b, &mut exact, m, k, n);
        let scale: f32 = exact.iter().map(|v| v.abs()).fold(0.0, f32::max);
        let run = |config, width| {
            let mut bfp = vec![0.0f32; m * n];
            BlockFpGemm::new(config, width).execute(&a, &b, &mut bfp, m, k, n);
            bfp
        };
        // Truncated configs rescale their top-column read-out back to
        // full-product scale, so they stay as close.
        for (config, tol) in [(MultiplierConfig::PC3, 0.12), (MultiplierConfig::PC3_TR, 0.15)] {
            for (e, c) in exact.iter().zip(&run(config, 16)) {
                assert!((e - c).abs() < tol * scale + 0.02, "{config}: {e} vs {c}");
            }
        }
        // Table I's error ladder survives block quantization: PC3's
        // pre-summed lines beat plain FLA.
        let err = |config| -> f64 {
            exact.iter().zip(&run(config, 12)).map(|(e, v)| (e - v).abs() as f64).sum()
        };
        let (fla, pc3) = (err(MultiplierConfig::FLA), err(MultiplierConfig::PC3));
        assert!(pc3 < fla, "PC3 {pc3} !< FLA {fla}");
    }

    #[test]
    fn blockfp_accumulates_into_existing_c() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 16);
        let mut c = [10.0f32];
        engine.execute(&[2.0], &[3.0], &mut c, 1, 1, 1);
        assert!((c[0] - 16.0).abs() < 0.05, "{}", c[0]);
    }

    #[test]
    fn blockfp_degenerate_shapes_are_noops() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC2, 8);
        let mut c = [7.0f32];
        engine.execute(&[], &[], &mut c, 1, 0, 1);
        engine.reference(&[], &[], &mut c, 1, 0, 1);
        engine.execute_whole_matrix(&[], &[], &mut c, 1, 0, 1);
        assert_eq!(c[0], 7.0);
        let mut empty: [f32; 0] = [];
        engine.execute(&[], &[], &mut empty, 0, 3, 0);
        engine.execute_chunked(&[], &[], &mut empty, 0, 0, 0, 4);
    }

    #[test]
    fn blockfp_zero_matrices_give_zero() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC2, 12);
        let a = vec![0f32; 6];
        let b = vec![0f32; 6];
        let mut c = vec![0f32; 4];
        engine.execute(&a, &b, &mut c, 2, 3, 2);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn blockfp_whole_matrix_matches_engine_for_single_row_spanning_tiles() {
        // m == 1 with matrix-spanning tiles: per-row A quantization is
        // whole-matrix A quantization, and the single B tile is the
        // whole B matrix — so the two modes must agree bit for bit.
        let (k, n) = (9usize, 7);
        let a = test_matrix(k, 21);
        let b = test_matrix(k * n, 22);
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, 11, k, n);
            let mut tiled = vec![0.0f32; n];
            let mut whole = vec![0.0f32; n];
            engine.execute(&a, &b, &mut tiled, 1, k, n);
            engine.execute_whole_matrix(&a, &b, &mut whole, 1, k, n);
            for (t, w) in tiled.iter().zip(&whole) {
                assert_eq!(t.to_bits(), w.to_bits(), "{config}: {t} vs {w}");
            }
        }
    }

    #[test]
    fn blockfp_tiles_wider_than_a_strip_match_reference() {
        // The kernel runs a tile in `STRIP`-column strips, each indexed
        // with its own one-byte column offsets: a tile three strips wide
        // (the last one partial), B mostly zero, and B's second row zero
        // in the first strip only.
        let (m, k, n) = (5usize, 5usize, 2 * STRIP + 37);
        let a = test_matrix(m * k, 41);
        let mut b = test_matrix(k * n, 42);
        for (i, v) in b.iter_mut().enumerate() {
            if i % 4 != 0 {
                *v = 0.0;
            }
        }
        b[n..n + STRIP].fill(0.0);
        for width in [9u32, 12] {
            let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, width, 3, NC);
            let mut reference = vec![0.0f32; m * n];
            engine.reference(&a, &b, &mut reference, m, k, n);
            let mut out = vec![0.0f32; m * n];
            engine.execute_chunked(&a, &b, &mut out, m, k, n, 3);
            assert_bits_eq(&reference, &out, "strips, chunked");
            let bp = engine.prepare_b(&b, k, n);
            let mut out = vec![0.0f32; m * n];
            engine.execute_with_prepared_b(&a, &bp, &mut out, m);
            assert_bits_eq(&reference, &out, "strips, prepared B");
            // Whole-matrix mode runs all of B as one tile.
            let spanning = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, width, k, n);
            let (mut tiled, mut whole) = (vec![0.0f32; n], vec![0.0f32; n]);
            spanning.execute(&a[..k], &b, &mut tiled, 1, k, n);
            spanning.execute_whole_matrix(&a[..k], &b, &mut whole, 1, k, n);
            assert_bits_eq(&tiled, &whole, "strips, whole matrix");
        }
    }

    #[test]
    fn blockfp_prepared_operands_bit_match_execute() {
        // Both prepared entry points must equal the eager engine bit for
        // bit — across shapes that straddle tile boundaries, including
        // the single-row serving case.
        let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, 12, 3, 4);
        for &(m, k, n) in &[(1, 1, 1), (1, 7, 9), (3, 5, 7), (6, 8, 9), (33, 17, 9)] {
            let a = test_matrix(m * k, 31);
            let b = test_matrix(k * n, 32);
            let mut eager = vec![0.0f32; m * n];
            engine.execute(&a, &b, &mut eager, m, k, n);
            let bp = engine.prepare_b(&b, k, n);
            assert_eq!((bp.k(), bp.n()), (k, n));
            let mut served_b = vec![0.0f32; m * n];
            engine.execute_with_prepared_b(&a, &bp, &mut served_b, m);
            let ap = engine.prepare_a(&a, m, k);
            assert_eq!((ap.m(), ap.k()), (m, k));
            let mut served_a = vec![0.0f32; m * n];
            engine.execute_with_prepared_a(&ap, &b, &mut served_a, n);
            for (i, r) in eager.iter().enumerate() {
                assert_eq!(r.to_bits(), served_b[i].to_bits(), "{m}x{k}x{n} prepared-B elem {i}");
                assert_eq!(r.to_bits(), served_a[i].to_bits(), "{m}x{k}x{n} prepared-A elem {i}");
            }
        }
    }

    #[test]
    fn blockfp_prepared_b_reusable_across_requests() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
        let (k, n) = (16usize, 12);
        let b = test_matrix(k * n, 41);
        let bp = engine.prepare_b(&b, k, n);
        for seed in 0..3 {
            let a = test_matrix(k, 50 + seed);
            let mut eager = vec![0.0f32; n];
            engine.execute(&a, &b, &mut eager, 1, k, n);
            let mut served = vec![0.0f32; n];
            engine.execute_with_prepared_b(&a, &bp, &mut served, 1);
            for (r, s) in eager.iter().zip(&served) {
                assert_eq!(r.to_bits(), s.to_bits(), "request {seed} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn blockfp_prepared_b_rejects_mismatched_engine() {
        let coarse = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 9, 4, 4);
        let fine = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 9, 2, 4);
        let b = test_matrix(8, 1);
        let bp = coarse.prepare_b(&b, 4, 2);
        let mut c = [0.0f32; 2];
        fine.execute_with_prepared_b(&[1.0; 4], &bp, &mut c, 1);
    }

    #[test]
    fn blockfp_name_and_accessors() {
        let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, 12, 16, 32);
        assert_eq!(engine.name(), "blockfp12/PC3_tr");
        assert_eq!(engine.man_width(), 12);
        assert_eq!(engine.config(), MultiplierConfig::PC3_TR);
        assert_eq!(engine.tile_k(), 16);
        assert_eq!(engine.tile_n(), 32);
        let default = BlockFpGemm::new(MultiplierConfig::FLA, 8);
        assert_eq!(default.tile_k(), KC);
        assert_eq!(default.tile_n(), NC);
    }

    #[test]
    #[should_panic(expected = "outside 5..=25")]
    fn blockfp_rejects_tiny_width() {
        let _ = BlockFpGemm::new(MultiplierConfig::FLA, 4);
    }

    #[test]
    #[should_panic(expected = "too deep for exact i64 accumulation")]
    fn blockfp_rejects_overflowing_tile_depth() {
        let _ = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 25, 1 << 16, NC);
    }
}
