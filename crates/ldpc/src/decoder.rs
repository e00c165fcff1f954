//! Iterative message-passing decoders: normalized min-sum and sum-product.
//!
//! Both use a flooding schedule — all variable-to-check messages, then all
//! check-to-variable messages per iteration — matching the two
//! communication phases the NoC application model simulates per iteration.
//!
//! # Storage layout
//!
//! The hot state lives in a reusable [`DecoderWorkspace`]: the parity-check
//! matrix is cached as a CSR edge array (`row_ptr`/`col_idx`, row-major)
//! plus a CSC permutation (`var_ptr`/`var_edge`) listing each variable's
//! edges in ascending check-row order. Check-to-variable messages are a
//! single contiguous `f64` array indexed by edge. Each iteration makes two
//! sweeps over that array:
//!
//! 1. **check pass** (CSR order): the variable-to-check message for edge
//!    `e` is gathered on the fly as `posterior[col_idx[e]] - chk_to_var[e]`
//!    and the check update writes the new `chk_to_var[e]` in place — the
//!    seed's separate variable-to-check sweep is fused away;
//! 2. **variable pass** (CSC order): posterior accumulation, the hard
//!    decision, and the next iteration's implicit extrinsics in one sweep.
//!
//! Because the CSC permutation is built by walking rows in order, each
//! variable accumulates its check messages in exactly the ascending-row
//! order the seed's row-major accumulation used, so results are
//! bit-identical to the original `Vec<Vec<f64>>` implementation (pinned by
//! `tests/decoder_equivalence.rs`). Steady-state decoding performs zero
//! heap allocations per block.

use crate::code::LdpcCode;
use crate::error::LdpcError;

/// Result of a decoding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Hard-decision bits after the final iteration.
    pub bits: Vec<bool>,
    /// `true` if the syndrome reached zero.
    pub converged: bool,
    /// Iterations actually executed (1-based; early exit on convergence).
    pub iterations: usize,
}

/// Result of a decode into a [`DecoderWorkspace`]: the hard-decision bits
/// stay in the workspace ([`DecoderWorkspace::bits`]), so steady-state
/// decoding moves no heap memory at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStatus {
    /// `true` if the syndrome reached zero.
    pub converged: bool,
    /// Iterations actually executed (1-based; early exit on convergence).
    pub iterations: usize,
}

/// Reusable decoder state: cached CSR/CSC topology of the parity-check
/// matrix plus every per-edge and per-variable buffer the decoders touch.
///
/// Create one per decoding thread and pass it to the `*_with` decode
/// methods; after the first block (which sizes the buffers for the code),
/// subsequent decodes of the same code allocate nothing. The workspace
/// re-checks the cached topology against the code on every decode (a cheap
/// linear walk) and rebuilds automatically when handed a different code.
#[derive(Debug, Clone, Default)]
pub struct DecoderWorkspace {
    pub(crate) n: usize,
    pub(crate) m: usize,
    /// CSR row starts into `col_idx`/`chk_to_var` (`m + 1` entries).
    pub(crate) row_ptr: Vec<u32>,
    /// Variable (column) index of each edge, row-major.
    pub(crate) col_idx: Vec<u32>,
    /// CSC column starts into `var_edge` (`n + 1` entries).
    pub(crate) var_ptr: Vec<u32>,
    /// Edge indices of each variable's edges, in ascending check-row order.
    pub(crate) var_edge: Vec<u32>,
    /// Check-to-variable message per edge.
    pub(crate) chk_to_var: Vec<f64>,
    /// Per-variable a-posteriori LLR.
    pub(crate) posterior: Vec<f64>,
    /// Per-variable hard decision.
    pub(crate) bits: Vec<bool>,
    /// Row-degree-sized gather buffer for variable-to-check messages.
    pub(crate) scratch_q: Vec<f64>,
    /// Row-degree-sized scratch for the sum-product tanh terms.
    pub(crate) scratch_t: Vec<f64>,
    /// `Some(d)` when every check row has degree `d` (regular codes): the
    /// sweeps then run const-degree specializations the compiler unrolls.
    pub(crate) uniform_row_deg: Option<usize>,
    /// `Some(d)` when every variable has degree `d`.
    pub(crate) uniform_var_deg: Option<usize>,
}

impl DecoderWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        DecoderWorkspace::default()
    }

    /// A workspace pre-sized for `code`, so even the first decode is
    /// allocation-free.
    pub fn for_code(code: &LdpcCode) -> Self {
        let mut ws = DecoderWorkspace::default();
        ws.rebuild(code);
        ws
    }

    /// Hard-decision bits of the most recent decode.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Per-variable a-posteriori LLRs of the most recent decode.
    pub fn posterior(&self) -> &[f64] {
        &self.posterior
    }

    /// Ensures the cached topology matches `code`, rebuilding if not.
    pub(crate) fn prepare(&mut self, code: &LdpcCode) {
        if !self.topology_matches(code) {
            self.rebuild(code);
        }
    }

    /// Edge-exact comparison of the cached CSR arrays against `code` — a
    /// linear walk, cheap next to an iteration's two edge sweeps.
    fn topology_matches(&self, code: &LdpcCode) -> bool {
        if self.n != code.n() || self.m != code.m() || self.col_idx.len() != code.edges() {
            return false;
        }
        let h = code.h();
        let mut e = 0usize;
        for r in 0..self.m {
            let row = h.row(r);
            if (self.row_ptr[r + 1] - self.row_ptr[r]) as usize != row.len() {
                return false;
            }
            for &v in row {
                if self.col_idx[e] != v as u32 {
                    return false;
                }
                e += 1;
            }
        }
        true
    }

    fn rebuild(&mut self, code: &LdpcCode) {
        let (n, m, edges) = (code.n(), code.m(), code.edges());
        let h = code.h();
        self.n = n;
        self.m = m;
        self.row_ptr.clear();
        self.row_ptr.reserve(m + 1);
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.col_idx.reserve(edges);
        let mut max_deg = 0usize;
        for r in 0..m {
            let row = h.row(r);
            max_deg = max_deg.max(row.len());
            for &v in row {
                self.col_idx.push(v as u32);
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }
        // CSC permutation by counting sort over columns. Walking the edges
        // in row-major order fills each column's bucket in ascending row
        // order, which is what keeps posterior accumulation bit-identical
        // to the seed's row-major sweep.
        self.var_ptr.clear();
        self.var_ptr.resize(n + 1, 0);
        for &c in &self.col_idx {
            self.var_ptr[c as usize + 1] += 1;
        }
        for v in 0..n {
            self.var_ptr[v + 1] += self.var_ptr[v];
        }
        self.var_edge.clear();
        self.var_edge.resize(edges, 0);
        let mut cursor: Vec<u32> = self.var_ptr[..n].to_vec();
        for (e, &c) in self.col_idx.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            self.var_edge[*slot as usize] = e as u32;
            *slot += 1;
        }
        self.chk_to_var.resize(edges, 0.0);
        self.posterior.resize(n, 0.0);
        self.bits.resize(n, false);
        self.scratch_q.resize(max_deg, 0.0);
        self.scratch_t.resize(max_deg, 0.0);
        self.uniform_row_deg = uniform_degree(&self.row_ptr);
        self.uniform_var_deg = uniform_degree(&self.var_ptr);
    }

    /// Non-allocating `H * bits == 0` check over the CSR arrays.
    pub(crate) fn syndrome_is_zero(&self) -> bool {
        for r in 0..self.m {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut parity = false;
            for &c in &self.col_idx[lo..hi] {
                parity ^= self.bits[c as usize];
            }
            if parity {
                return false;
            }
        }
        true
    }

    /// Moves the decode result out, for the allocating convenience API.
    fn into_outcome(self, status: DecodeStatus) -> DecodeOutcome {
        DecodeOutcome {
            bits: self.bits,
            converged: status.converged,
            iterations: status.iterations,
        }
    }
}

/// Normalized min-sum decoder (the hardware-friendly choice used by
/// NoC LDPC implementations such as the paper's reference design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinSumDecoder {
    /// Maximum iterations per block.
    pub max_iters: usize,
    /// Normalization factor applied to check messages (typically 0.75-0.9).
    pub alpha: f64,
}

impl Default for MinSumDecoder {
    fn default() -> Self {
        MinSumDecoder {
            max_iters: 20,
            alpha: 0.8,
        }
    }
}

impl MinSumDecoder {
    /// Decodes one block of channel LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`; use [`MinSumDecoder::try_decode`]
    /// for a fallible variant.
    pub fn decode(&self, code: &LdpcCode, llrs: &[f64]) -> DecodeOutcome {
        self.try_decode(code, llrs).expect("llr length mismatch")
    }

    /// Fallible decode.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::LlrLengthMismatch`] on a wrong-sized input.
    pub fn try_decode(&self, code: &LdpcCode, llrs: &[f64]) -> Result<DecodeOutcome, LdpcError> {
        let mut ws = DecoderWorkspace::new();
        let status = self.try_decode_with(code, llrs, &mut ws)?;
        Ok(ws.into_outcome(status))
    }

    /// Decodes into `ws`, reusing its buffers (zero allocations once `ws`
    /// has seen the code). Bits land in [`DecoderWorkspace::bits`].
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`.
    pub fn decode_with(
        &self,
        code: &LdpcCode,
        llrs: &[f64],
        ws: &mut DecoderWorkspace,
    ) -> DecodeStatus {
        self.try_decode_with(code, llrs, ws)
            .expect("llr length mismatch")
    }

    /// Fallible [`MinSumDecoder::decode_with`].
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::LlrLengthMismatch`] on a wrong-sized input.
    pub fn try_decode_with(
        &self,
        code: &LdpcCode,
        llrs: &[f64],
        ws: &mut DecoderWorkspace,
    ) -> Result<DecodeStatus, LdpcError> {
        let _t = hotnoc_obs::prof::scope("ldpc/decode");
        let alpha = self.alpha;
        decode_flat(code, llrs, self.max_iters, ws, |q, out, _tanhs| {
            min_sum_check(q, out, alpha)
        })
    }
}

/// Sum-product (belief propagation) decoder: slightly better waterfall
/// performance at higher per-edge cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumProductDecoder {
    /// Maximum iterations per block.
    pub max_iters: usize,
}

impl Default for SumProductDecoder {
    fn default() -> Self {
        SumProductDecoder { max_iters: 20 }
    }
}

impl SumProductDecoder {
    /// Decodes one block of channel LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`.
    pub fn decode(&self, code: &LdpcCode, llrs: &[f64]) -> DecodeOutcome {
        self.try_decode(code, llrs).expect("llr length mismatch")
    }

    /// Fallible decode.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::LlrLengthMismatch`] on a wrong-sized input.
    pub fn try_decode(&self, code: &LdpcCode, llrs: &[f64]) -> Result<DecodeOutcome, LdpcError> {
        let mut ws = DecoderWorkspace::new();
        let status = self.try_decode_with(code, llrs, &mut ws)?;
        Ok(ws.into_outcome(status))
    }

    /// Decodes into `ws`, reusing its buffers (zero allocations once `ws`
    /// has seen the code). Bits land in [`DecoderWorkspace::bits`].
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`.
    pub fn decode_with(
        &self,
        code: &LdpcCode,
        llrs: &[f64],
        ws: &mut DecoderWorkspace,
    ) -> DecodeStatus {
        self.try_decode_with(code, llrs, ws)
            .expect("llr length mismatch")
    }

    /// Fallible [`SumProductDecoder::decode_with`].
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::LlrLengthMismatch`] on a wrong-sized input.
    pub fn try_decode_with(
        &self,
        code: &LdpcCode,
        llrs: &[f64],
        ws: &mut DecoderWorkspace,
    ) -> Result<DecodeStatus, LdpcError> {
        let _t = hotnoc_obs::prof::scope("ldpc/decode");
        decode_flat(code, llrs, self.max_iters, ws, sum_product_check)
    }
}

/// Saturation magnitude for check messages whose extrinsic minimum is not
/// finite: a degree-1 check row has no "other inputs", so `min2` survives
/// the scan as `+inf` and would launch an infinity into the posterior (and
/// `inf - inf = NaN` into the next iteration's extrinsics). Large enough to
/// dominate any practical LLR, small enough that accumulated posteriors
/// stay finite.
const CHECK_MAG_SAT: f64 = 1e12;

/// Check-node update, min-sum with normalization: for each output edge, the
/// magnitude is `alpha * min` of the other inputs and the sign is the product
/// of the other signs.
///
/// Written branch-free: message signs are essentially random, so a branchy
/// sign/min tracker mispredicts on roughly every other edge and the penalty
/// dominates the arithmetic. Sign products become XOR parity and the sign is
/// applied by flipping the IEEE sign bit — exact negation, so the results
/// stay bit-identical to the branchy form (`±1.0` multiplies are exact).
pub(crate) fn min_sum_check(inputs: &[f64], out: &mut [f64], alpha: f64) {
    if inputs.is_empty() {
        return;
    }
    let mut neg_total = false;
    let (mut min1, mut min2) = (f64::INFINITY, f64::INFINITY);
    let mut min_idx = 0usize;
    for (i, &v) in inputs.iter().enumerate() {
        neg_total ^= v < 0.0;
        let mag = v.abs();
        let new_min = mag < min1;
        min2 = if new_min { min1 } else { min2.min(mag) };
        min1 = min1.min(mag);
        min_idx = if new_min { i } else { min_idx };
    }
    // Degree-1 rows (and all-infinite inputs) leave the minima at +inf;
    // saturate so the outputs stay finite.
    let base1 = alpha * min1.min(CHECK_MAG_SAT);
    let base2 = alpha * min2.min(CHECK_MAG_SAT);
    // Write every edge with the global minimum, then patch the one edge
    // that supplied it — keeps the store loop free of per-edge selects.
    for (o, &v) in out.iter_mut().zip(inputs) {
        let neg = neg_total ^ (v < 0.0);
        *o = f64::from_bits(base1.to_bits() ^ ((neg as u64) << 63));
    }
    let neg = neg_total ^ (inputs[min_idx] < 0.0);
    out[min_idx] = f64::from_bits(base2.to_bits() ^ ((neg as u64) << 63));
}

/// Exact sum-product check update via the tanh rule. `tanhs` is caller
/// scratch of at least `inputs.len()` entries.
fn sum_product_check(inputs: &[f64], out: &mut [f64], tanhs: &mut [f64]) {
    // Guard tanh against saturation.
    let clamp = |x: f64| x.clamp(-30.0, 30.0);
    let tanhs = &mut tanhs[..inputs.len()];
    for (t, &v) in tanhs.iter_mut().zip(inputs) {
        *t = (clamp(v) / 2.0).tanh();
    }
    for (i, o) in out.iter_mut().enumerate() {
        let mut prod = 1.0;
        for (j, &t) in tanhs.iter().enumerate() {
            if j != i {
                prod *= t;
            }
        }
        let prod = prod.clamp(-0.999_999_999, 0.999_999_999);
        *o = 2.0 * prod.atanh();
    }
}

/// The flooding-schedule decode loop over the flattened edge arrays.
/// `check_update(q, out, scratch)` consumes the gathered variable-to-check
/// messages of one row and writes the new check-to-variable messages.
fn decode_flat<F>(
    code: &LdpcCode,
    llrs: &[f64],
    max_iters: usize,
    ws: &mut DecoderWorkspace,
    mut check_update: F,
) -> Result<DecodeStatus, LdpcError>
where
    F: FnMut(&[f64], &mut [f64], &mut [f64]),
{
    if llrs.len() != code.n() {
        return Err(LdpcError::LlrLengthMismatch {
            expected: code.n(),
            got: llrs.len(),
        });
    }
    ws.prepare(code);
    ws.chk_to_var.fill(0.0);
    ws.posterior.copy_from_slice(llrs);
    for (b, &l) in ws.bits.iter_mut().zip(llrs) {
        *b = l < 0.0;
    }

    let mut iterations = 0;
    let mut converged = ws.syndrome_is_zero();
    while !converged && iterations < max_iters {
        iterations += 1;
        // Check pass (CSR): gather each row's variable-to-check messages
        // (posterior minus the edge's previous check message — with all-zero
        // initial messages the first iteration sees the raw LLRs) and write
        // the check update back into the same edge slots. Regular codes run
        // a const-degree specialization so the per-row loops fully unroll.
        match ws.uniform_row_deg {
            Some(3) => check_pass_uniform::<3, F>(ws, &mut check_update),
            Some(4) => check_pass_uniform::<4, F>(ws, &mut check_update),
            Some(5) => check_pass_uniform::<5, F>(ws, &mut check_update),
            Some(6) => check_pass_uniform::<6, F>(ws, &mut check_update),
            Some(7) => check_pass_uniform::<7, F>(ws, &mut check_update),
            Some(8) => check_pass_uniform::<8, F>(ws, &mut check_update),
            _ => check_pass_dyn(ws, &mut check_update),
        }
        // Variable pass (CSC): posterior accumulation and hard decision in
        // one sweep; each variable's edges come in ascending check-row
        // order, so the floating-point sum matches the seed's row-major
        // accumulation bit for bit.
        match ws.uniform_var_deg {
            Some(2) => var_pass_uniform::<2>(ws, llrs),
            Some(3) => var_pass_uniform::<3>(ws, llrs),
            Some(4) => var_pass_uniform::<4>(ws, llrs),
            Some(5) => var_pass_uniform::<5>(ws, llrs),
            Some(6) => var_pass_uniform::<6>(ws, llrs),
            _ => var_pass_dyn(ws, llrs),
        }
        converged = ws.syndrome_is_zero();
    }

    Ok(DecodeStatus {
        converged,
        iterations: iterations.max(1),
    })
}

/// `Some(d)` iff every consecutive gap in the CSR/CSC pointer array is `d`.
fn uniform_degree(ptr: &[u32]) -> Option<usize> {
    let mut degs = ptr.windows(2).map(|w| w[1] - w[0]);
    let first = degs.next()?;
    degs.all(|d| d == first).then_some(first as usize)
}

/// Check pass over rows of arbitrary degree.
fn check_pass_dyn<F>(ws: &mut DecoderWorkspace, check_update: &mut F)
where
    F: FnMut(&[f64], &mut [f64], &mut [f64]),
{
    let DecoderWorkspace {
        row_ptr,
        col_idx,
        chk_to_var,
        posterior,
        scratch_q,
        scratch_t,
        ..
    } = ws;
    for w in row_ptr.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let cols = &col_idx[lo..hi];
        let c2v = &mut chk_to_var[lo..hi];
        let q = &mut scratch_q[..cols.len()];
        for ((qk, &c), msg) in q.iter_mut().zip(cols).zip(c2v.iter()) {
            *qk = posterior[c as usize] - *msg;
        }
        check_update(q, c2v, &mut scratch_t[..cols.len()]);
    }
}

/// Check pass specialized for uniform row degree `D`: the gather and the
/// check update see fixed-size rows, so their loops unroll and the gather
/// buffer lives in registers.
fn check_pass_uniform<const D: usize, F>(ws: &mut DecoderWorkspace, check_update: &mut F)
where
    F: FnMut(&[f64], &mut [f64], &mut [f64]),
{
    let DecoderWorkspace {
        col_idx,
        chk_to_var,
        posterior,
        scratch_t,
        ..
    } = ws;
    let mut q = [0.0f64; D];
    for (cols, c2v) in col_idx.chunks_exact(D).zip(chk_to_var.chunks_exact_mut(D)) {
        for k in 0..D {
            q[k] = posterior[cols[k] as usize] - c2v[k];
        }
        check_update(&q, c2v, &mut scratch_t[..D]);
    }
}

/// Variable pass over variables of arbitrary degree.
fn var_pass_dyn(ws: &mut DecoderWorkspace, llrs: &[f64]) {
    let DecoderWorkspace {
        var_ptr,
        var_edge,
        chk_to_var,
        posterior,
        bits,
        ..
    } = ws;
    for (((p_out, b), &l), w) in posterior
        .iter_mut()
        .zip(bits.iter_mut())
        .zip(llrs)
        .zip(var_ptr.windows(2))
    {
        let mut p = l;
        for &e in &var_edge[w[0] as usize..w[1] as usize] {
            p += chk_to_var[e as usize];
        }
        *p_out = p;
        *b = p < 0.0;
    }
}

/// Variable pass specialized for uniform variable degree `D`.
fn var_pass_uniform<const D: usize>(ws: &mut DecoderWorkspace, llrs: &[f64]) {
    let DecoderWorkspace {
        var_edge,
        chk_to_var,
        posterior,
        bits,
        ..
    } = ws;
    for (((p_out, b), &l), edges) in posterior
        .iter_mut()
        .zip(bits.iter_mut())
        .zip(llrs)
        .zip(var_edge.chunks_exact(D))
    {
        let mut p = l;
        for k in 0..D {
            p += chk_to_var[edges[k] as usize];
        }
        *p_out = p;
        *b = p < 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AwgnChannel;
    use crate::encoder::Encoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn code() -> LdpcCode {
        LdpcCode::gallager(240, 3, 6, 5).unwrap()
    }

    #[test]
    fn clean_codeword_converges_immediately() {
        let c = code();
        let llrs: Vec<f64> = vec![8.0; c.n()]; // strong "all zeros"
        let out = MinSumDecoder::default().decode(&c, &llrs);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.bits.iter().all(|&b| !b));
    }

    #[test]
    fn min_sum_corrects_awgn_noise_at_moderate_snr() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut chan = AwgnChannel::new(3.5, c.rate(), 77);
        let dec = MinSumDecoder::default();
        let mut successes = 0;
        let trials = 20;
        for _ in 0..trials {
            let msg: Vec<bool> = (0..enc.k()).map(|_| rng.gen()).collect();
            let word = enc.encode(&msg).unwrap();
            let llrs = chan.transmit(&word);
            let out = dec.decode(&c, &llrs);
            if out.converged && out.bits == word {
                successes += 1;
            }
        }
        assert!(
            successes >= trials * 8 / 10,
            "only {successes}/{trials} decoded"
        );
    }

    #[test]
    fn sum_product_at_least_as_good_as_min_sum() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut chan_a = AwgnChannel::new(3.0, c.rate(), 5);
        let mut chan_b = AwgnChannel::new(3.0, c.rate(), 5);
        let (mut ms_ok, mut sp_ok) = (0, 0);
        for _ in 0..15 {
            let msg: Vec<bool> = (0..enc.k()).map(|_| rng.gen()).collect();
            let word = enc.encode(&msg).unwrap();
            let la = chan_a.transmit(&word);
            let lb = chan_b.transmit(&word);
            assert_eq!(la, lb);
            if MinSumDecoder::default().decode(&c, &la).converged {
                ms_ok += 1;
            }
            if SumProductDecoder::default().decode(&c, &lb).converged {
                sp_ok += 1;
            }
        }
        assert!(
            sp_ok + 2 >= ms_ok,
            "sum-product unexpectedly weak: {sp_ok} vs {ms_ok}"
        );
    }

    #[test]
    fn hopeless_noise_fails_gracefully() {
        let c = code();
        let mut rng = StdRng::seed_from_u64(6);
        let llrs: Vec<f64> = (0..c.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let dec = MinSumDecoder {
            max_iters: 5,
            alpha: 0.8,
        };
        let out = dec.decode(&c, &llrs);
        assert_eq!(out.iterations, 5);
        assert!(!out.converged || c.is_codeword(&out.bits));
    }

    #[test]
    fn iteration_count_increases_with_noise() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let msg = vec![true; enc.k()];
        let word = enc.encode(&msg).unwrap();
        let clean = AwgnChannel::new(8.0, c.rate(), 9).transmit(&word);
        let noisy = AwgnChannel::new(2.5, c.rate(), 9).transmit(&word);
        let dec = MinSumDecoder::default();
        let fast = dec.decode(&c, &clean);
        let slow = dec.decode(&c, &noisy);
        assert!(fast.converged);
        assert!(
            slow.iterations >= fast.iterations,
            "noisy {} < clean {}",
            slow.iterations,
            fast.iterations
        );
    }

    #[test]
    fn wrong_llr_length_rejected() {
        let c = code();
        assert!(matches!(
            MinSumDecoder::default().try_decode(&c, &[1.0]),
            Err(LdpcError::LlrLengthMismatch { .. })
        ));
        let mut ws = DecoderWorkspace::new();
        assert!(matches!(
            MinSumDecoder::default().try_decode_with(&c, &[1.0], &mut ws),
            Err(LdpcError::LlrLengthMismatch { .. })
        ));
    }

    #[test]
    fn min_sum_check_magnitudes() {
        let inputs = [3.0, -1.0, 2.0];
        let mut out = [0.0; 3];
        min_sum_check(&inputs, &mut out, 1.0);
        // Output magnitude = min of other inputs; sign = product of others.
        assert_eq!(out[0], -1.0); // min(1,2)=1, signs: -*+ = -
        assert_eq!(out[1], 2.0); // min(3,2)=2, signs: +*+ = +
        assert_eq!(out[2], -1.0);
    }

    #[test]
    fn min_sum_check_degree_one_row_stays_finite() {
        // A degree-1 check has no "other inputs": before the guard, min2
        // survived as +inf and the sole output edge went infinite, turning
        // the next iteration's extrinsics into `inf - inf = NaN`.
        let mut out = [0.0; 1];
        min_sum_check(&[-2.5], &mut out, 0.8);
        assert!(out[0].is_finite(), "degree-1 output must be finite");
        // Sign: the product of the other signs is empty (+1); the input's
        // own sign cancels against sign_product * self_sign.
        assert_eq!(out[0], 0.8 * CHECK_MAG_SAT);

        // All-infinite inputs saturate rather than poisoning the posterior.
        let mut out = [0.0; 2];
        min_sum_check(&[f64::INFINITY, f64::NEG_INFINITY], &mut out, 1.0);
        assert!(out.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn workspace_decode_matches_convenience_api() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut chan = AwgnChannel::new(3.0, c.rate(), 13);
        let dec = MinSumDecoder::default();
        let mut ws = DecoderWorkspace::for_code(&c);
        for _ in 0..5 {
            let msg: Vec<bool> = (0..enc.k()).map(|_| rng.gen()).collect();
            let word = enc.encode(&msg).unwrap();
            let llrs = chan.transmit(&word);
            let outcome = dec.decode(&c, &llrs);
            let status = dec.decode_with(&c, &llrs, &mut ws);
            assert_eq!(status.converged, outcome.converged);
            assert_eq!(status.iterations, outcome.iterations);
            assert_eq!(ws.bits(), &outcome.bits[..]);
        }
    }

    #[test]
    fn workspace_rebuilds_when_code_changes() {
        let big = code();
        let small = LdpcCode::gallager(120, 3, 6, 1).unwrap();
        let dec = SumProductDecoder::default();
        let mut ws = DecoderWorkspace::new();
        let llrs_big: Vec<f64> = vec![4.0; big.n()];
        let llrs_small: Vec<f64> = vec![-4.0; small.n()];
        // Alternate codes through one workspace; each decode must match a
        // fresh-workspace decode of the same block.
        for _ in 0..2 {
            let a = dec.decode_with(&big, &llrs_big, &mut ws);
            assert_eq!(ws.bits().len(), big.n());
            assert_eq!(a, dec.decode(&big, &llrs_big).into_status());
            let b = dec.decode_with(&small, &llrs_small, &mut ws);
            assert_eq!(ws.bits().len(), small.n());
            assert_eq!(b, dec.decode(&small, &llrs_small).into_status());
        }
    }

    impl DecodeOutcome {
        fn into_status(self) -> DecodeStatus {
            DecodeStatus {
                converged: self.converged,
                iterations: self.iterations,
            }
        }
    }
}
