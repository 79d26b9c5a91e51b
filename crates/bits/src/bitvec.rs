//! Fixed-width bitvector with word-parallel bulk operations.

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// Number of `u64` words processed per unrolled chunk by the fused
/// popcount kernels. Four independent accumulator lanes keep the loop
/// free of a single serial dependency chain, which lets the
/// autovectorizer emit 256-bit loads and parallel `popcnt`s.
const LANES: usize = 4;

/// The word-wise combining operation of a fused popcount. A closed enum
/// (rather than a closure parameter) gives the optional SIMD backend one
/// concrete kernel per operation and keeps dispatch branch-free inside
/// the chunk loop after hoisting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FusedOp {
    /// `a & b` — overlap weight.
    And,
    /// `a & !b` — RBV / destroyed-lines weight.
    AndNot,
    /// `a ^ b` — symbiosis metric.
    Xor,
}

impl FusedOp {
    #[inline(always)]
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            FusedOp::And => a & b,
            FusedOp::AndNot => a & !b,
            FusedOp::Xor => a ^ b,
        }
    }
}

/// Portable chunked kernel: fold `op` over paired words in [`LANES`]
/// independent accumulator lanes, then sum lanes and the tail. This is
/// the single scalar reference the SIMD path is differentially tested
/// against; both slices must have equal length.
#[inline(always)]
fn fused_popcount_scalar(a: &[u64], b: &[u64], op: FusedOp) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0u64; LANES];
    let split = a.len() - a.len() % LANES;
    for (qa, qb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for i in 0..LANES {
            lanes[i] += u64::from(op.apply(qa[i], qb[i]).count_ones());
        }
    }
    let mut tail = 0u64;
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        tail += u64::from(op.apply(x, y).count_ones());
    }
    lanes.into_iter().sum::<u64>() + tail
}

/// Widened single-operand popcount with the same lane layout.
#[inline(always)]
fn popcount_words(words: &[u64]) -> u64 {
    let mut lanes = [0u64; LANES];
    let split = words.len() - words.len() % LANES;
    for q in words[..split].chunks_exact(LANES) {
        for i in 0..LANES {
            lanes[i] += u64::from(q[i].count_ones());
        }
    }
    let tail: u64 = words[split..]
        .iter()
        .map(|w| u64::from(w.count_ones()))
        .sum();
    lanes.into_iter().sum::<u64>() + tail
}

/// Fused popcount entry point: runtime-dispatch to the AVX2 kernel when
/// the `simd` feature is enabled and the CPU supports it, otherwise the
/// portable chunked kernel (which `target-cpu=native` autovectorizes).
#[inline]
fn fused_popcount(a: &[u64], b: &[u64], op: FusedOp) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability checked at runtime immediately above.
            return unsafe { simd::fused_popcount_avx2(a, b, op) };
        }
    }
    fused_popcount_scalar(a, b, op)
}

/// Explicit AVX2 backend (feature `simd`): 256-bit `AND`/`ANDNOT`/`XOR`
/// plus the nibble-LUT popcount (Muła's algorithm) accumulated with
/// `vpsadbw`. Falls back to [`fused_popcount_scalar`] for the < 4-word
/// tail, so any vector width is handled.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::FusedOp;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fused_popcount_avx2(a: &[u64], b: &[u64], op: FusedOp) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let split = a.len() - a.len() % 4;
        // Nibble popcount lookup table, replicated across both 128-bit halves.
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let mut acc = _mm256_setzero_si256();
        for i in (0..split).step_by(4) {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let v = match op {
                FusedOp::And => _mm256_and_si256(va, vb),
                // `vpandn` computes `!x & y`, so pass the mask first.
                FusedOp::AndNot => _mm256_andnot_si256(vb, va),
                FusedOp::Xor => _mm256_xor_si256(va, vb),
            };
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
            let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.into_iter().sum::<u64>() + super::fused_popcount_scalar(&a[split..], &b[split..], op)
    }
}

/// A fixed-width bitvector backed by `u64` words.
///
/// This models the hardware bit arrays of the signature unit (Core Filter,
/// Last Filter, Running Bit Vector). The width is fixed at construction; all
/// binary operations require both operands to have the same width and panic
/// otherwise — mismatched filter widths would be a wiring bug in hardware,
/// so we treat them as a programming error rather than an `Err`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ones={}]", self.len, self.count_ones())
    }
}

impl BitVec {
    /// Create an all-zero bitvector of `len` bits.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(WORD_BITS);
        BitVec {
            len,
            words: vec![0; n_words],
        }
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero width.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mask for the partially-used last word (all ones when the width is a
    /// multiple of 64).
    #[inline]
    fn tail_mask(&self) -> u64 {
        let rem = self.len % WORD_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Set bit `idx` to one. Panics if out of range.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Clear bit `idx` to zero. Panics if out of range.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
    }

    /// Read bit `idx`. Panics if out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Set every bit to zero.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Set every bit to one.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        let mask = self.tail_mask();
        if let Some(last) = self.words.last_mut() {
            *last &= mask;
        }
    }

    /// Number of one bits (the paper's *occupancy weight* when applied to an
    /// RBV). The sum is accumulated in `u64` and saturates on return, so
    /// vectors wider than `u32::MAX` bits cannot wrap.
    pub fn count_ones(&self) -> u32 {
        u32::try_from(popcount_words(&self.words)).unwrap_or(u32::MAX)
    }

    /// Fraction of bits set, in `[0, 1]`. Zero-width vectors report 0.
    pub fn fill_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            popcount_words(&self.words) as f64 / self.len as f64
        }
    }

    /// True if every bit is set — a *saturated* filter conveys no footprint
    /// information (the paper's argument against presence bits and multiple
    /// hash functions).
    pub fn is_saturated(&self) -> bool {
        popcount_words(&self.words) == self.len as u64
    }

    fn assert_same_width(&self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "bitvector width mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// `self & other`, producing a new vector.
    pub fn and(&self, other: &BitVec) -> BitVec {
        self.assert_same_width(other);
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// `self | other`, producing a new vector.
    pub fn or(&self, other: &BitVec) -> BitVec {
        self.assert_same_width(other);
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// `self ^ other`, producing a new vector.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        self.assert_same_width(other);
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
        }
    }

    /// `self & !other` — the paper's Running Bit Vector construction:
    /// `RBV = ¬(CF → LF) = CF ∧ ¬LF` selects the bits set since the last
    /// snapshot.
    pub fn and_not(&self, other: &BitVec) -> BitVec {
        self.assert_same_width(other);
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// `self & !other` written into `out` (same widths required) — the
    /// allocation-free RBV construction for hot paths that reuse a scratch
    /// vector across context switches.
    pub fn and_not_into(&self, other: &BitVec, out: &mut BitVec) {
        self.assert_same_width(other);
        self.assert_same_width(out);
        for ((o, a), b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & !b;
        }
    }

    /// `popcount(self & !other)` without materialising the intermediate
    /// vector (e.g. destroyed-predecessor-lines weight `|LF & !CF|`).
    #[inline]
    pub fn and_not_popcount(&self, other: &BitVec) -> u32 {
        self.assert_same_width(other);
        fused_popcount(&self.words, &other.words, FusedOp::AndNot) as u32
    }

    /// Logical implication `self → other` (i.e. `!self | other`), masked to
    /// the vector width. Provided because the paper phrases the RBV as the
    /// inverse of this operation.
    pub fn implies(&self, other: &BitVec) -> BitVec {
        self.assert_same_width(other);
        let mask = self.tail_mask();
        let n = self.words.len();
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .enumerate()
            .map(|(i, (a, b))| {
                let w = !a | b;
                if i + 1 == n {
                    w & mask
                } else {
                    w
                }
            })
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// Bitwise NOT, masked to the vector width.
    pub fn not(&self) -> BitVec {
        let mask = self.tail_mask();
        let n = self.words.len();
        let words = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let v = !w;
                if i + 1 == n {
                    v & mask
                } else {
                    v
                }
            })
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// `popcount(self ^ other)` without materialising the intermediate
    /// vector — this is the paper's *symbiosis* metric between an RBV and a
    /// Core Filter (hardware: a tree of XOR gates feeding an adder).
    #[inline]
    pub fn xor_popcount(&self, other: &BitVec) -> u32 {
        self.assert_same_width(other);
        fused_popcount(&self.words, &other.words, FusedOp::Xor) as u32
    }

    /// `popcount(self & other)` without materialising the intermediate
    /// vector (overlap weight between two footprints).
    #[inline]
    pub fn and_popcount(&self, other: &BitVec) -> u32 {
        self.assert_same_width(other);
        fused_popcount(&self.words, &other.words, FusedOp::And) as u32
    }

    /// Copy `other` into `self` (same width required). This is the hardware
    /// snapshot `LF ← CF` performed at a context switch.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.assert_same_width(other);
        self.words.copy_from_slice(&other.words);
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_all_zero() {
        let v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.get(0));
        assert!(!v.get(129));
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::new(200);
        for idx in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            v.set(idx);
            assert!(v.get(idx), "bit {idx} should be set");
        }
        assert_eq!(v.count_ones(), 8);
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = BitVec::new(10);
        v.set(10);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let a = BitVec::new(10);
        let b = BitVec::new(11);
        let _ = a.and(&b);
    }

    #[test]
    fn set_all_respects_tail() {
        let mut v = BitVec::new(70);
        v.set_all();
        assert_eq!(v.count_ones(), 70);
        assert!(v.is_saturated());
        // NOT of all-ones must be all zero (tail masked correctly).
        assert_eq!(v.not().count_ones(), 0);
    }

    #[test]
    fn and_not_is_rbv_semantics() {
        // CF has bits {1,2,3}; LF (snapshot) has {1}; RBV must be {2,3}.
        let mut cf = BitVec::new(8);
        let mut lf = BitVec::new(8);
        cf.set(1);
        cf.set(2);
        cf.set(3);
        lf.set(1);
        let rbv = cf.and_not(&lf);
        assert!(!rbv.get(1));
        assert!(rbv.get(2));
        assert!(rbv.get(3));
        assert_eq!(rbv.count_ones(), 2);
    }

    #[test]
    fn rbv_equals_not_implies() {
        // The paper defines RBV = ¬(CF → LF); verify equivalence with and_not.
        let mut cf = BitVec::new(67);
        let mut lf = BitVec::new(67);
        for i in (0..67).step_by(3) {
            cf.set(i);
        }
        for i in (0..67).step_by(6) {
            lf.set(i);
        }
        assert_eq!(cf.and_not(&lf), cf.implies(&lf).not());
    }

    #[test]
    fn xor_popcount_matches_xor_then_count() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(5) {
            b.set(i);
        }
        assert_eq!(a.xor_popcount(&b), a.xor(&b).count_ones());
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::new(150);
        let idxs = [3usize, 64, 65, 100, 149];
        for &i in &idxs {
            v.set(i);
        }
        let got: Vec<usize> = v.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn copy_from_snapshots() {
        let mut cf = BitVec::new(32);
        cf.set(5);
        let mut lf = BitVec::new(32);
        lf.copy_from(&cf);
        assert!(lf.get(5));
        cf.set(6);
        assert!(!lf.get(6), "snapshot must not alias the source");
    }

    #[test]
    fn fill_ratio_bounds() {
        let mut v = BitVec::new(10);
        assert_eq!(v.fill_ratio(), 0.0);
        v.set_all();
        assert!((v.fill_ratio() - 1.0).abs() < 1e-12);
        let e = BitVec::new(0);
        assert_eq!(e.fill_ratio(), 0.0);
        assert!(e.is_empty());
    }

    /// Naive un-chunked reference the kernels are differentially tested
    /// against.
    fn naive_fused(a: &[u64], b: &[u64], op: FusedOp) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from(op.apply(x, y).count_ones()))
            .sum()
    }

    /// Differential pin: the dispatching kernel (AVX2 when the `simd`
    /// feature is on and the CPU has it, scalar otherwise) and the scalar
    /// reference must agree on boundary word counts — empty, sub-chunk,
    /// exact multiples of the 4-word chunk, and off-by-one around them.
    #[test]
    fn fused_kernels_match_scalar_reference_on_boundaries() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129] {
            let a: Vec<u64> = (0..words).map(|_| next()).collect();
            let b: Vec<u64> = (0..words).map(|_| next()).collect();
            for op in [FusedOp::And, FusedOp::AndNot, FusedOp::Xor] {
                let want = naive_fused(&a, &b, op);
                assert_eq!(
                    fused_popcount_scalar(&a, &b, op),
                    want,
                    "scalar kernel, {op:?} over {words} words"
                );
                assert_eq!(
                    fused_popcount(&a, &b, op),
                    want,
                    "dispatched kernel, {op:?} over {words} words"
                );
            }
            let want: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount_words(&a), want, "popcount over {words} words");
        }
    }

    /// With the `simd` feature on, pin the AVX2 backend against the scalar
    /// kernel directly (not just through the dispatcher).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn avx2_backend_matches_scalar_kernel() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // scalar fallback host: nothing to differentiate
        }
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            state = state
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            state
        };
        for words in [1usize, 3, 4, 6, 8, 31, 32, 33, 100, 257] {
            let a: Vec<u64> = (0..words).map(|_| next()).collect();
            let b: Vec<u64> = (0..words).map(|_| next()).collect();
            for op in [FusedOp::And, FusedOp::AndNot, FusedOp::Xor] {
                // SAFETY: AVX2 presence checked above.
                let got = unsafe { simd::fused_popcount_avx2(&a, &b, op) };
                assert_eq!(got, fused_popcount_scalar(&a, &b, op), "{op:?}/{words}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_fused_kernels_match_naive(a in proptest::collection::vec(any::<u64>(), 0..40),
                                          b in proptest::collection::vec(any::<u64>(), 0..40)) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            for op in [FusedOp::And, FusedOp::AndNot, FusedOp::Xor] {
                prop_assert_eq!(fused_popcount(a, b, op), naive_fused(a, b, op));
            }
        }

        #[test]
        fn prop_demorgan(idxs in proptest::collection::vec(0usize..256, 0..64),
                         jdxs in proptest::collection::vec(0usize..256, 0..64)) {
            let mut a = BitVec::new(256);
            let mut b = BitVec::new(256);
            for i in idxs { a.set(i); }
            for j in jdxs { b.set(j); }
            // !(a | b) == !a & !b
            prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
            // !(a & b) == !a | !b
            prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        }

        #[test]
        fn prop_popcount_identities(idxs in proptest::collection::vec(0usize..300, 0..128),
                                    jdxs in proptest::collection::vec(0usize..300, 0..128)) {
            let mut a = BitVec::new(300);
            let mut b = BitVec::new(300);
            for i in idxs { a.set(i); }
            for j in jdxs { b.set(j); }
            // |a ^ b| = |a| + |b| - 2|a & b|
            let lhs = i64::from(a.xor_popcount(&b));
            let rhs = i64::from(a.count_ones()) + i64::from(b.count_ones())
                - 2 * i64::from(a.and_popcount(&b));
            prop_assert_eq!(lhs, rhs);
            // |a & !b| + |a & b| = |a|
            prop_assert_eq!(a.and_not(&b).count_ones() + a.and_popcount(&b), a.count_ones());
            // fused variants agree with their allocating counterparts
            prop_assert_eq!(a.and_not_popcount(&b), a.and_not(&b).count_ones());
            let mut out = BitVec::new(300);
            out.set_all(); // stale scratch contents must be overwritten
            a.and_not_into(&b, &mut out);
            prop_assert_eq!(out, a.and_not(&b));
        }

        #[test]
        fn prop_iter_ones_roundtrip(idxs in proptest::collection::vec(0usize..512, 0..100)) {
            let mut v = BitVec::new(512);
            let mut expect: Vec<usize> = idxs.clone();
            for i in idxs { v.set(i); }
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<usize> = v.iter_ones().collect();
            prop_assert_eq!(got, expect);
        }
    }
}
