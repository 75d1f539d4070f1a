//! LDPC decoders: normalized min-sum (the channel-level ECC engine of the
//! paper) and Gallager-B bit flipping (a cheap hard-decision cross-check).
//!
//! The decoding-failure probability and iteration count of
//! [`MinSumDecoder`] as functions of RBER are exactly the curves of
//! Fig. 3; the iteration count maps onto the 1–20 µs tECC range of Table I.
//!
//! Both decoders run a word-packed fast path: the per-iteration syndrome
//! check exploits the quasi-cyclic structure (each circulant `Q(s)` applied
//! to a 64-bit-packed segment is a rotate-XOR, the same trick as
//! [`QcLdpcCode::syndrome`]) instead of touching the `m × row_weight` edges
//! one bit at a time, and the min-sum check-node update buffers each `v2c`
//! message so it is computed once per iteration rather than twice. The
//! straightforward per-edge implementations are kept as
//! [`MinSumDecoder::decode_llr_reference`] and
//! [`BitFlipDecoder::decode_reference`]; the fast paths are bit-identical
//! to them (see the golden-equivalence suite in `tests/`).

use std::cell::Cell;

use crate::bits::BitVec;
use crate::code::QcLdpcCode;

/// Result of a decoding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// True when the decoder converged to a valid codeword.
    pub success: bool,
    /// Number of message-passing (or bit-flipping) rounds executed.
    /// Zero when the input was already a codeword.
    pub iterations: u32,
    /// The decoder's final word (a codeword when `success`).
    pub decoded: BitVec,
}

/// Tanner-graph adjacency in CSR form, shared by both decoders, plus the
/// quasi-cyclic block structure used by the word-packed syndrome check
/// and the block-major min-sum kernel.
#[derive(Debug, Clone)]
struct Graph {
    /// For each check, the index range into `chk_vars`.
    chk_ptr: Vec<u32>,
    /// Variable index of each edge, grouped by check.
    chk_vars: Vec<u32>,
    /// For each variable, the index range into `var_edges`.
    var_ptr: Vec<u32>,
    /// Edge indices (positions in `chk_vars`) grouped by variable.
    var_edges: Vec<u32>,
    /// `(col, shift)` of each block, grouped by block row — the circulant
    /// structure backing the rotate-XOR syndrome.
    block_rows: Vec<Vec<(usize, usize)>>,
    /// `(col, shift, msg_offset)` per block, grouped by block row:
    /// `msg_offset` is the block's `t`-float slab in the edge-major
    /// message array of the fast min-sum path.
    plan_rows: Vec<Vec<(usize, usize, usize)>>,
    /// `(msg_offset, shift)` per block, grouped by column block in
    /// ascending block-row order — the transpose of `plan_rows`, driving
    /// the variable-node pass.
    plan_cols: Vec<Vec<(usize, usize)>>,
    /// Widest block row (blocks), sizing the per-row scratch buffer.
    max_row_blocks: usize,
    /// Total message floats (`block count × t`).
    edge_floats: usize,
    /// Circulant size (a multiple of 64).
    t: usize,
    n: usize,
    m: usize,
}

impl Graph {
    fn build(code: &QcLdpcCode) -> Graph {
        let h = code.matrix();
        let t = h.t();
        let m = h.m();
        let n = h.n();

        let mut chk_ptr = Vec::with_capacity(m + 1);
        let mut chk_vars: Vec<u32> = Vec::with_capacity(h.edge_count());
        let row_blocks: Vec<Vec<_>> = (0..h.rows_b()).map(|i| h.row_blocks(i).collect()).collect();
        chk_ptr.push(0);
        for i in 0..h.rows_b() {
            for k in 0..t {
                for b in &row_blocks[i] {
                    chk_vars.push(h.var_of(*b, k) as u32);
                }
                chk_ptr.push(chk_vars.len() as u32);
            }
        }

        // Invert to per-variable edge lists.
        let mut var_deg = vec![0u32; n];
        for &v in &chk_vars {
            var_deg[v as usize] += 1;
        }
        let mut var_ptr = vec![0u32; n + 1];
        for v in 0..n {
            var_ptr[v + 1] = var_ptr[v] + var_deg[v];
        }
        let mut cursor = var_ptr.clone();
        let mut var_edges = vec![0u32; chk_vars.len()];
        for (e, &v) in chk_vars.iter().enumerate() {
            var_edges[cursor[v as usize] as usize] = e as u32;
            cursor[v as usize] += 1;
        }

        let block_rows: Vec<Vec<(usize, usize)>> = row_blocks
            .iter()
            .map(|row| row.iter().map(|b| (b.col, b.shift % t)).collect())
            .collect();

        // Edge-major plan: one t-float message slab per block, row-major,
        // plus the per-column transpose in ascending block-row order (the
        // order the reference variable pass accumulates in).
        let mut plan_rows = Vec::with_capacity(block_rows.len());
        let mut plan_cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); h.cols_b()];
        let mut offset = 0usize;
        for row in &block_rows {
            let mut planned = Vec::with_capacity(row.len());
            for &(col, shift) in row {
                planned.push((col, shift, offset));
                plan_cols[col].push((offset, shift));
                offset += t;
            }
            plan_rows.push(planned);
        }
        let max_row_blocks = block_rows.iter().map(|r| r.len()).max().unwrap_or(0);

        Graph {
            chk_ptr,
            chk_vars,
            var_ptr,
            var_edges,
            block_rows,
            plan_rows,
            plan_cols,
            max_row_blocks,
            edge_floats: offset,
            t,
            n,
            m,
        }
    }

    /// True when `hard` (bit n set ⇒ bit value 1) satisfies every check.
    /// Reference implementation: one `BitVec::get` per edge.
    fn syndrome_clear(&self, hard: &BitVec) -> bool {
        for c in 0..self.m {
            let mut parity = false;
            for e in self.chk_ptr[c]..self.chk_ptr[c + 1] {
                parity ^= hard.get(self.chk_vars[e as usize] as usize);
            }
            if parity {
                return false;
            }
        }
        true
    }

    /// Word-packed equivalent of [`Graph::syndrome_clear`]: per block row,
    /// XOR the rotated word-packed segments (circulant `Q(s)` ≡ rotate
    /// left by `s`) into `acc` (`t/64` words of scratch) and bail out on
    /// the first nonzero syndrome word.
    #[inline(always)]
    fn syndrome_clear_words(&self, hard: &[u64], acc: &mut [u64]) -> bool {
        debug_assert_eq!(hard.len() * 64, self.n);
        let tw = self.t / 64;
        for row in &self.block_rows {
            acc.fill(0);
            for &(col, shift) in row {
                let seg = &hard[col * tw..(col + 1) * tw];
                xor_rotated(acc, seg, shift);
            }
            if acc.iter().any(|&w| w != 0) {
                return false;
            }
        }
        true
    }

    /// Block-row syndromes of `hard` into `out` (`rows_b × t/64` words),
    /// returning true when any check is unsatisfied.
    fn block_syndromes(&self, hard: &[u64], out: &mut [u64]) -> bool {
        let tw = self.t / 64;
        out.fill(0);
        let mut any = 0u64;
        for (i, row) in self.block_rows.iter().enumerate() {
            let acc = &mut out[i * tw..(i + 1) * tw];
            for &(col, shift) in row {
                let seg = &hard[col * tw..(col + 1) * tw];
                xor_rotated(acc, seg, shift);
            }
            any |= acc.iter().fold(0, |a, &w| a | w);
        }
        any != 0
    }
}

/// XORs `seg` rotated left by `shift` bits into `acc` (both `t/64` words).
/// Output bit `k` of the rotation is input bit `(k + shift) mod t`.
#[inline(always)]
fn xor_rotated(acc: &mut [u64], seg: &[u64], shift: usize) {
    // Output word w reads words (w + ws) mod nw and its successor: two
    // sequential runs each, split at the wrap, so no per-word modulo.
    let ws = shift / 64;
    let bs = shift % 64;
    let lo = seg[ws..].iter().chain(&seg[..ws]);
    if bs == 0 {
        for (a, &l) in acc.iter_mut().zip(lo) {
            *a ^= l;
        }
    } else {
        let hi = seg[ws + 1..].iter().chain(&seg[..ws + 1]);
        for ((a, &l), &h) in acc.iter_mut().zip(lo).zip(hi) {
            *a ^= (l >> bs) | (h << (64 - bs));
        }
    }
}

/// Per-thread decode buffers. They are sized on a thread's first decode
/// and reused by every later one, so a decode allocates only the word it
/// returns.
#[derive(Default)]
struct Scratch {
    /// Channel LLRs of the hard-decision word [`MinSumDecoder::decode`]
    /// was given.
    llr: Vec<f32>,
    kernel: KernelScratch,
}

/// The min-sum kernel's working set (see [`MinSumDecoder::decode_llr`]).
#[derive(Default)]
struct KernelScratch {
    /// Edge-major check-to-variable messages, one `t`-float slab per
    /// block. Never cleared: the first iteration does not read it.
    c2v: Vec<f32>,
    /// Variable totals (channel LLR plus every incoming message).
    total: Vec<f32>,
    /// Buffered v2c messages of one block row.
    v2c: Vec<f32>,
    /// Per-check sign product, two minima and argmin slot, `t` lanes each.
    sign: Vec<f32>,
    min1: Vec<f32>,
    min2: Vec<f32>,
    slot: Vec<u32>,
    /// One block row's syndrome words.
    acc: Vec<u64>,
}

impl KernelScratch {
    /// Sets every buffer to `g`'s length; contents are left unspecified.
    fn fit(&mut self, g: &Graph) {
        let t = g.t;
        self.c2v.resize(g.edge_floats, 0.0);
        self.total.resize(g.n, 0.0);
        self.v2c.resize(g.max_row_blocks * t, 0.0);
        self.sign.resize(t, 0.0);
        self.min1.resize(t, 0.0);
        self.min2.resize(t, 0.0);
        self.slot.resize(t, 0);
        self.acc.resize(t / 64, 0);
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Runs `f` on this thread's decode buffers. They are moved out of the
/// thread-local for the call, so a nested call simply starts empty.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let out = f(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// Normalized min-sum decoder.
///
/// Messages are initialized from hard-channel LLRs (the magnitude is
/// irrelevant to min-sum up to scaling, so ±1 is used) and check updates are
/// damped by a normalization factor α = 0.75, the standard choice for
/// near-sum-product performance at hardware cost.
///
/// # Example
///
/// ```
/// use rif_ldpc::{QcLdpcCode, decoder::MinSumDecoder, channel::Bsc, bits::BitVec};
/// use rif_events::SimRng;
///
/// let code = QcLdpcCode::small_test();
/// let mut rng = SimRng::seed_from(4);
/// let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
/// let noisy = Bsc::new(0.003).corrupt(&cw, &mut rng);
/// let out = MinSumDecoder::new(&code).decode(&noisy);
/// assert!(out.success);
/// assert_eq!(out.decoded, cw);
/// ```
#[derive(Debug, Clone)]
pub struct MinSumDecoder {
    graph: Graph,
    max_iterations: u32,
    alpha: f32,
}

/// The paper's decoder iteration cap (§II-B1: "a preset maximum number of
/// iterations (e.g., 20)").
pub const PAPER_MAX_ITERATIONS: u32 = 20;

impl MinSumDecoder {
    /// Builds a decoder for `code` with the paper's 20-iteration cap.
    pub fn new(code: &QcLdpcCode) -> Self {
        Self::with_max_iterations(code, PAPER_MAX_ITERATIONS)
    }

    /// Builds a decoder with a custom iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn with_max_iterations(code: &QcLdpcCode, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        MinSumDecoder {
            graph: Graph::build(code),
            max_iterations,
            alpha: 0.75,
        }
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> u32 {
        self.max_iterations
    }

    /// Decodes a received hard-decision word.
    pub fn decode(&self, received: &BitVec) -> DecodeOutcome {
        with_scratch(|s| {
            self.hard_llr_into(received, &mut s.llr);
            self.decode_llr_dispatch(&s.llr, &mut s.kernel)
        })
    }

    /// Reference-path twin of [`MinSumDecoder::decode`]: builds the
    /// channel LLRs one `BitVec::get` per bit.
    pub fn decode_reference(&self, received: &BitVec) -> DecodeOutcome {
        self.check_received(received);
        let llr: Vec<f32> = (0..self.graph.n)
            .map(|v| if received.get(v) { -1.0 } else { 1.0 })
            .collect();
        self.decode_llr_reference(&llr)
    }

    /// Panics unless `received` is codeword-length.
    fn check_received(&self, received: &BitVec) {
        assert_eq!(
            received.len(),
            self.graph.n,
            "received word length mismatch"
        );
    }

    /// Channel LLRs for a hard-decision word into `out`, a packed word at
    /// a time: +1 for received 0, -1 for 1.
    fn hard_llr_into(&self, received: &BitVec, out: &mut Vec<f32>) {
        self.check_received(received);
        out.resize(self.graph.n, 0.0);
        for (chunk, &word) in out.chunks_exact_mut(64).zip(received.as_words()) {
            for (b, o) in chunk.iter_mut().enumerate() {
                *o = if (word >> b) & 1 == 1 { -1.0 } else { 1.0 };
            }
        }
    }

    /// Decodes from per-bit channel log-likelihood ratios (positive =
    /// leaning 0). This is the soft-decision entry point used when the
    /// flash senses a page at several reference offsets to refine each
    /// bit's reliability; soft inputs decode well beyond the
    /// hard-decision capability.
    ///
    /// Fast path. The kernel works block-major on the quasi-cyclic
    /// structure instead of walking CSR edge lists:
    ///
    /// * messages live in one `t`-float slab per circulant, so every
    ///   access below is a sequential slice walk (split in two at the
    ///   rotation point) rather than a per-edge gather;
    /// * each `v2c` message is computed once per iteration and buffered —
    ///   the sign/two-min scan and the output scan share it;
    /// * the two-min/sign tracking is select-based (no branches), over
    ///   `t` independent lanes at a time;
    /// * hard decisions are packed 64 lanes to a word and the
    ///   convergence test is the word-packed rotate-XOR syndrome;
    /// * all working buffers are per-thread and reused, so a decode
    ///   allocates only the word it returns.
    ///
    /// Every float is produced by the same operands in the same order as
    /// [`MinSumDecoder::decode_llr_reference`], so outcomes are
    /// bit-identical (golden suite in `tests/`).
    ///
    /// # Panics
    ///
    /// Panics if `llr` is not codeword-length.
    pub fn decode_llr(&self, llr: &[f32]) -> DecodeOutcome {
        with_scratch(|s| self.decode_llr_dispatch(llr, &mut s.kernel))
    }

    /// Runs the widest instantiation of [`MinSumDecoder::decode_llr_impl`]
    /// this CPU supports: AVX-512, then AVX2, then the portable body.
    fn decode_llr_dispatch(&self, llr: &[f32], s: &mut KernelScratch) -> DecodeOutcome {
        // The kernel is all independent-lane selects, abs, min and adds —
        // exactly the shape LLVM vectorizes — but the baseline x86-64
        // target only has SSE2. The same body is compiled again with
        // wider vector ISAs and picked at runtime. Per-lane float ops are
        // exact at any vector width and Rust never contracts them into
        // FMA, so every instantiation produces bit-identical outcomes.
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                // SAFETY: `has_avx512` just checked the avx512f, avx512bw,
                // avx512vl and avx512dq cpuid bits this body is built for.
                return unsafe { self.decode_llr_avx512(llr, s) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 cpuid bit was just checked.
                return unsafe { self.decode_llr_avx2(llr, s) };
            }
        }
        self.decode_llr_impl(llr, s)
    }

    /// AVX-512 instantiation of [`MinSumDecoder::decode_llr_impl`].
    ///
    /// # Safety
    ///
    /// The CPU must support avx512f, avx512bw, avx512vl and avx512dq
    /// (see `has_avx512`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
    unsafe fn decode_llr_avx512(&self, llr: &[f32], s: &mut KernelScratch) -> DecodeOutcome {
        self.decode_llr_impl(llr, s)
    }

    /// AVX2 instantiation of [`MinSumDecoder::decode_llr_impl`].
    ///
    /// # Safety
    ///
    /// The CPU must support avx2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn decode_llr_avx2(&self, llr: &[f32], s: &mut KernelScratch) -> DecodeOutcome {
        self.decode_llr_impl(llr, s)
    }

    #[inline(always)]
    fn decode_llr_impl(&self, llr: &[f32], s: &mut KernelScratch) -> DecodeOutcome {
        let g = &self.graph;
        assert_eq!(llr.len(), g.n, "LLR vector length mismatch");
        let t = g.t;
        s.fit(g);
        let KernelScratch {
            c2v,
            total,
            v2c,
            sign,
            min1,
            min2,
            slot,
            acc,
        } = s;

        let mut hard = vec![0u64; g.n / 64];
        pack_hard(llr, &mut hard);
        if g.syndrome_clear_words(&hard, acc) {
            return DecodeOutcome {
                success: true,
                iterations: 0,
                decoded: BitVec::from_words(hard, g.n),
            };
        }

        for iter in 1..=self.max_iterations {
            // Before the first variable pass every stored message is zero
            // and every total is the channel LLR, so the first iteration
            // reads `llr` and skips the subtraction (x - 0.0 == x for
            // every float); `c2v` and `total` need no initialisation.
            let first = iter == 1;
            let totals: &[f32] = if first { llr } else { total };
            for row in &g.plan_rows {
                // v2c = rotated total segment minus the stored message;
                // the rotation makes both reads sequential (two runs).
                for (b, &(col, shift, off)) in row.iter().enumerate() {
                    let tot = &totals[col * t..(col + 1) * t];
                    let buf = &mut v2c[b * t..(b + 1) * t];
                    let split = t - shift;
                    let (buf_lo, buf_hi) = buf.split_at_mut(split);
                    if first {
                        buf_lo.copy_from_slice(&tot[shift..]);
                        buf_hi.copy_from_slice(&tot[..shift]);
                        continue;
                    }
                    let (msg_lo, msg_hi) = c2v[off..off + t].split_at(split);
                    for ((o, &m), &tv) in buf_lo.iter_mut().zip(msg_lo).zip(&tot[shift..]) {
                        *o = tv - m;
                    }
                    for ((o, &m), &tv) in buf_hi.iter_mut().zip(msg_hi).zip(&tot[..shift]) {
                        *o = tv - m;
                    }
                }
                // Fused sign/two-min scan across the row's blocks, t
                // checks per lane-sweep, all selects.
                sign.fill(1.0);
                min1.fill(f32::INFINITY);
                min2.fill(f32::INFINITY);
                slot.fill(0);
                for (b, buf) in v2c.chunks_exact(t).take(row.len()).enumerate() {
                    let lanes = buf
                        .iter()
                        .zip(sign.iter_mut())
                        .zip(min1.iter_mut().zip(min2.iter_mut()))
                        .zip(slot.iter_mut());
                    for (((&m, sg), (m1, m2)), sl) in lanes {
                        let mag = m.abs();
                        *sg = if m < 0.0 { -*sg } else { *sg };
                        let better = mag < *m1;
                        *m2 = if better { *m1 } else { m2.min(mag) };
                        *m1 = if better { mag } else { *m1 };
                        *sl = if better { b as u32 } else { *sl };
                    }
                }
                // Output scan reuses the buffered v2c for its sign.
                for (b, &(_, _, off)) in row.iter().enumerate() {
                    let buf = &v2c[b * t..(b + 1) * t];
                    let msg = &mut c2v[off..off + t];
                    let lanes = buf
                        .iter()
                        .zip(msg.iter_mut())
                        .zip(sign.iter().zip(slot.iter()))
                        .zip(min1.iter().zip(min2.iter()));
                    for (((&v, out), (&sg, &sl)), (&m1, &m2)) in lanes {
                        let base = self.alpha * sg;
                        let sign_self = if v < 0.0 { -1.0 } else { 1.0 };
                        let mag = if sl == b as u32 { m2 } else { m1 };
                        *out = base * sign_self * mag;
                    }
                }
            }

            // Variable-node totals: per column block, the channel LLR plus
            // each incident message slab rotated back into variable order
            // (ascending block row — the reference accumulation order).
            for (j, col_blocks) in g.plan_cols.iter().enumerate() {
                let lo = j * t;
                let seg = &mut total[lo..lo + t];
                seg.copy_from_slice(&llr[lo..lo + t]);
                for &(off, shift) in col_blocks {
                    let msg = &c2v[off..off + t];
                    let back = (t - shift) % t;
                    let (seg_lo, seg_hi) = seg.split_at_mut(t - back);
                    for (o, &m) in seg_lo.iter_mut().zip(&msg[back..]) {
                        *o += m;
                    }
                    for (o, &m) in seg_hi.iter_mut().zip(&msg[..back]) {
                        *o += m;
                    }
                }
            }

            // Word-packed hard decision and syndrome check.
            pack_hard(total, &mut hard);
            if g.syndrome_clear_words(&hard, acc) {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: BitVec::from_words(hard, g.n),
                };
            }
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: BitVec::from_words(hard, g.n),
        }
    }

    /// Straightforward per-edge implementation kept as the correctness
    /// reference for [`MinSumDecoder::decode_llr`]: each `v2c` message is
    /// recomputed in the output scan and the convergence test walks the
    /// edges one `BitVec::get` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `llr` is not codeword-length.
    pub fn decode_llr_reference(&self, llr: &[f32]) -> DecodeOutcome {
        let g = &self.graph;
        assert_eq!(llr.len(), g.n, "LLR vector length mismatch");

        let mut hard = BitVec::zeros(g.n);
        for (v, &l) in llr.iter().enumerate() {
            hard.set(v, l < 0.0);
        }
        if g.syndrome_clear(&hard) {
            return DecodeOutcome {
                success: true,
                iterations: 0,
                decoded: hard,
            };
        }

        let edges = g.chk_vars.len();
        let mut c2v = vec![0.0f32; edges];
        let mut total = llr.to_vec();

        for iter in 1..=self.max_iterations {
            // Check-node update using the two-minimum trick.
            for c in 0..g.m {
                let lo = g.chk_ptr[c] as usize;
                let hi = g.chk_ptr[c + 1] as usize;
                let mut sign_prod = 1.0f32;
                let mut min1 = f32::INFINITY;
                let mut min2 = f32::INFINITY;
                let mut min1_edge = lo;
                for e in lo..hi {
                    let v2c = total[g.chk_vars[e] as usize] - c2v[e];
                    let mag = v2c.abs();
                    if v2c < 0.0 {
                        sign_prod = -sign_prod;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min1_edge = e;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for e in lo..hi {
                    let v2c = total[g.chk_vars[e] as usize] - c2v[e];
                    let sign_self = if v2c < 0.0 { -1.0 } else { 1.0 };
                    let mag = if e == min1_edge { min2 } else { min1 };
                    c2v[e] = self.alpha * sign_prod * sign_self * mag;
                }
            }

            // Variable-node totals and hard decision.
            for v in 0..g.n {
                let mut sum = llr[v];
                for idx in g.var_ptr[v]..g.var_ptr[v + 1] {
                    sum += c2v[g.var_edges[idx as usize] as usize];
                }
                total[v] = sum;
                hard.set(v, sum < 0.0);
            }

            if g.syndrome_clear(&hard) {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: hard,
                };
            }
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: hard,
        }
    }
}

/// Packs the hard decisions of `llr` into `hard` (bit set ⇔ LLR < 0 ⇔
/// bit 1), 64 lanes to a word — a shape LLVM turns into vector compares.
#[inline(always)]
fn pack_hard(llr: &[f32], hard: &mut [u64]) {
    for (h, lanes) in hard.iter_mut().zip(llr.chunks_exact(64)) {
        *h = lanes
            .iter()
            .enumerate()
            .fold(0, |word, (b, &l)| word | (u64::from(l < 0.0) << b));
    }
}

/// True when the CPU has every AVX-512 subset the wide kernel is built
/// with.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// Gallager-B hard-decision bit-flipping decoder.
///
/// Flips every bit whose unsatisfied-check count reaches a majority of its
/// degree. Much weaker than min-sum (it corrects roughly an order of
/// magnitude fewer errors) but useful as an independent correctness check
/// of the code construction.
#[derive(Debug, Clone)]
pub struct BitFlipDecoder {
    graph: Graph,
    max_iterations: u32,
}

impl BitFlipDecoder {
    /// Builds a bit-flipping decoder with the paper's 20-iteration cap.
    pub fn new(code: &QcLdpcCode) -> Self {
        Self::with_max_iterations(code, PAPER_MAX_ITERATIONS)
    }

    /// Builds a bit-flipping decoder with a custom iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn with_max_iterations(code: &QcLdpcCode, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        BitFlipDecoder {
            graph: Graph::build(code),
            max_iterations,
        }
    }

    /// Decodes a received hard-decision word.
    ///
    /// Fast path: parities come from the word-packed rotate-XOR block-row
    /// syndrome, and only the set syndrome bits (unsatisfied checks) fan
    /// out to per-variable counters — satisfied checks cost nothing.
    pub fn decode(&self, received: &BitVec) -> DecodeOutcome {
        let g = &self.graph;
        assert_eq!(received.len(), g.n, "received word length mismatch");
        let tw = g.t / 64;
        let mut word = received.clone();
        let mut unsat = vec![0u8; g.n];
        let mut syn = vec![0u64; g.block_rows.len() * tw];

        for iter in 0..=self.max_iterations {
            let any = g.block_syndromes(word.as_words(), &mut syn);
            if !any {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: word,
                };
            }
            if iter == self.max_iterations {
                break;
            }
            // Fan unsatisfied checks out to their variables. Syndrome bit
            // k of block row i is check i·t + k, whose variables are
            // col·t + (k + shift) mod t for each block in the row.
            unsat.fill(0);
            for (i, row) in g.block_rows.iter().enumerate() {
                for w in 0..tw {
                    let mut bits = syn[i * tw + w];
                    while bits != 0 {
                        let k = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        for &(col, shift) in row {
                            unsat[col * g.t + (k + shift) % g.t] += 1;
                        }
                    }
                }
            }
            // Flip strict majorities.
            let mut flipped = false;
            for v in 0..g.n {
                let deg = (g.var_ptr[v + 1] - g.var_ptr[v]) as u8;
                if unsat[v] * 2 > deg {
                    word.flip(v);
                    flipped = true;
                }
            }
            if !flipped {
                // Stuck: no strict majority anywhere.
                break;
            }
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: word,
        }
    }

    /// Straightforward per-edge implementation kept as the correctness
    /// reference for [`BitFlipDecoder::decode`].
    pub fn decode_reference(&self, received: &BitVec) -> DecodeOutcome {
        let g = &self.graph;
        assert_eq!(received.len(), g.n, "received word length mismatch");
        let mut word = received.clone();
        let mut unsat = vec![0u8; g.n];

        for iter in 0..=self.max_iterations {
            // Count unsatisfied checks per variable.
            unsat.fill(0);
            let mut any = false;
            for c in 0..g.m {
                let lo = g.chk_ptr[c] as usize;
                let hi = g.chk_ptr[c + 1] as usize;
                let mut parity = false;
                for e in lo..hi {
                    parity ^= word.get(g.chk_vars[e] as usize);
                }
                if parity {
                    any = true;
                    for e in lo..hi {
                        unsat[g.chk_vars[e] as usize] += 1;
                    }
                }
            }
            if !any {
                return DecodeOutcome {
                    success: true,
                    iterations: iter,
                    decoded: word,
                };
            }
            if iter == self.max_iterations {
                break;
            }
            // Flip strict majorities.
            let mut flipped = false;
            for v in 0..g.n {
                let deg = (g.var_ptr[v + 1] - g.var_ptr[v]) as u8;
                if unsat[v] * 2 > deg {
                    word.flip(v);
                    flipped = true;
                }
            }
            if !flipped {
                // Stuck: no strict majority anywhere.
                break;
            }
        }

        DecodeOutcome {
            success: false,
            iterations: self.max_iterations,
            decoded: word,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Bsc;
    use rif_events::SimRng;

    fn setup() -> (QcLdpcCode, BitVec, SimRng) {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(21);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        (code, cw, rng)
    }

    #[test]
    fn clean_input_decodes_in_zero_iterations() {
        let (code, cw, _) = setup();
        let out = MinSumDecoder::new(&code).decode(&cw);
        assert!(out.success);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.decoded, cw);
    }

    #[test]
    fn minsum_corrects_scattered_errors() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        // small_test has n = 2304; 0.3% RBER ≈ 7 errors.
        for _ in 0..10 {
            let noisy = Bsc::new(0.003).corrupt(&cw, &mut rng);
            let out = dec.decode(&noisy);
            assert!(
                out.success,
                "failed to decode {} errors",
                cw.hamming_distance(&noisy)
            );
            assert_eq!(out.decoded, cw);
            assert!(out.iterations >= 1);
        }
    }

    #[test]
    fn minsum_fails_on_hopeless_input() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let noisy = Bsc::new(0.08).corrupt(&cw, &mut rng);
        let out = dec.decode(&noisy);
        assert!(!out.success);
        assert_eq!(out.iterations, dec.max_iterations());
    }

    #[test]
    fn iterations_grow_with_error_count() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let avg_iters = |p: f64, rng: &mut SimRng| -> f64 {
            let mut total = 0u32;
            let trials = 20;
            for _ in 0..trials {
                let noisy = Bsc::new(p).corrupt(&cw, rng);
                total += dec.decode(&noisy).iterations;
            }
            total as f64 / trials as f64
        };
        let low = avg_iters(0.001, &mut rng);
        let high = avg_iters(0.006, &mut rng);
        assert!(high > low, "iterations did not grow: {low} vs {high}");
    }

    #[test]
    fn fast_path_matches_reference_across_rbers() {
        let (code, cw, mut rng) = setup();
        let ms = MinSumDecoder::new(&code);
        let bf = BitFlipDecoder::new(&code);
        for &p in &[0.001, 0.004, 0.008, 0.02] {
            for _ in 0..5 {
                let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
                assert_eq!(
                    ms.decode(&noisy),
                    ms.decode_reference(&noisy),
                    "min-sum at p={p}"
                );
                assert_eq!(
                    bf.decode(&noisy),
                    bf.decode_reference(&noisy),
                    "bit-flip at p={p}"
                );
            }
        }
    }

    #[test]
    fn every_compiled_instantiation_matches_reference() {
        // Call each body directly so the CPU's widest path cannot hide a
        // broken narrower one; the SIMD bodies run only where the CPU has
        // their features.
        for code in [QcLdpcCode::small_test(), QcLdpcCode::medium()] {
            let dec = MinSumDecoder::new(&code);
            let mut rng = SimRng::seed_from(0x1A5E);
            let mut scratch = KernelScratch::default();
            for &p in &[0.002, 0.006, 0.009, 0.02] {
                for _ in 0..3 {
                    let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
                    let noisy = Bsc::new(p).corrupt(&cw, &mut rng);
                    let mut llr = Vec::new();
                    dec.hard_llr_into(&noisy, &mut llr);
                    let reference = dec.decode_llr_reference(&llr);
                    let n = code.n();
                    assert_eq!(
                        dec.decode_llr_impl(&llr, &mut scratch),
                        reference,
                        "portable body, n={n} p={p}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    {
                        if std::arch::is_x86_feature_detected!("avx2") {
                            // SAFETY: guarded by the avx2 cpuid check above.
                            let avx2 = unsafe { dec.decode_llr_avx2(&llr, &mut scratch) };
                            assert_eq!(avx2, reference, "AVX2 body, n={n} p={p}");
                        }
                        if has_avx512() {
                            // SAFETY: guarded by `has_avx512`, which checks
                            // avx512f, avx512bw, avx512vl and avx512dq.
                            let avx512 = unsafe { dec.decode_llr_avx512(&llr, &mut scratch) };
                            assert_eq!(avx512, reference, "AVX-512 body, n={n} p={p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bitflip_corrects_few_errors() {
        let (code, cw, mut rng) = setup();
        let dec = BitFlipDecoder::new(&code);
        for _ in 0..10 {
            let noisy = Bsc::corrupt_exact(&cw, 2, &mut rng);
            let out = dec.decode(&noisy);
            assert!(out.success, "bit flip failed on 2 errors");
            assert_eq!(out.decoded, cw);
        }
    }

    #[test]
    fn bitflip_clean_input() {
        let (code, cw, _) = setup();
        let out = BitFlipDecoder::new(&code).decode(&cw);
        assert!(out.success);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn minsum_outperforms_bitflip() {
        let (code, cw, mut rng) = setup();
        let ms = MinSumDecoder::new(&code);
        let bf = BitFlipDecoder::new(&code);
        let k = 12; // beyond Gallager-B comfort, fine for min-sum
        let mut ms_wins = 0;
        let mut bf_wins = 0;
        for _ in 0..20 {
            let noisy = Bsc::corrupt_exact(&cw, k, &mut rng);
            if ms.decode(&noisy).success {
                ms_wins += 1;
            }
            if bf.decode(&noisy).success {
                bf_wins += 1;
            }
        }
        assert!(ms_wins >= bf_wins, "min-sum {ms_wins} < bit-flip {bf_wins}");
        assert!(ms_wins >= 15, "min-sum too weak: {ms_wins}/20");
    }

    #[test]
    fn decode_is_deterministic() {
        let (code, cw, mut rng) = setup();
        let dec = MinSumDecoder::new(&code);
        let noisy = Bsc::new(0.005).corrupt(&cw, &mut rng);
        let a = dec.decode(&noisy);
        let b = dec.decode(&noisy);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_cap_rejected() {
        let code = QcLdpcCode::small_test();
        let _ = MinSumDecoder::with_max_iterations(&code, 0);
    }
}
