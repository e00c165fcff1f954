//! Layered (serial-C) min-sum decoding.
//!
//! The flooding schedule of [`crate::decoder`] matches the paper's
//! NoC-parallel hardware; layered decoding processes check nodes
//! sequentially against a live posterior and typically converges in roughly
//! half the iterations — the standard algorithmic upgrade for
//! throughput-constrained decoders, included here as an extension.

use crate::code::LdpcCode;
use crate::decoder::{min_sum_check, DecodeOutcome, DecodeStatus, DecoderWorkspace};
use crate::error::LdpcError;

/// Layered normalized-min-sum decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayeredMinSumDecoder {
    /// Maximum full sweeps over the check nodes.
    pub max_iters: usize,
    /// Normalization factor for check messages.
    pub alpha: f64,
}

impl Default for LayeredMinSumDecoder {
    fn default() -> Self {
        LayeredMinSumDecoder {
            max_iters: 20,
            alpha: 0.8,
        }
    }
}

impl LayeredMinSumDecoder {
    /// Decodes one block of channel LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`; use
    /// [`LayeredMinSumDecoder::try_decode`] for the fallible variant.
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
        let DecodeStatus {
            converged,
            iterations,
        } = status;
        Ok(DecodeOutcome {
            bits: ws.bits().to_vec(),
            converged,
            iterations,
        })
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

    /// Fallible [`LayeredMinSumDecoder::decode_with`]: the serial-C sweep
    /// over the workspace's flattened CSR edge arrays. Each check row peels
    /// its previous contribution off the live posterior, runs the min-sum
    /// update in place, and refreshes the posterior immediately (the
    /// "layered" part).
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
        if llrs.len() != code.n() {
            return Err(LdpcError::LlrLengthMismatch {
                expected: code.n(),
                got: llrs.len(),
            });
        }
        ws.prepare(code);
        let m = code.m();
        ws.chk_to_var.fill(0.0);
        ws.posterior.copy_from_slice(llrs);
        for (b, &l) in ws.bits.iter_mut().zip(llrs) {
            *b = l < 0.0;
        }
        let mut converged = ws.syndrome_is_zero();
        let mut iterations = 0;

        while !converged && iterations < self.max_iters {
            iterations += 1;
            for r in 0..m {
                let (lo, hi) = (ws.row_ptr[r] as usize, ws.row_ptr[r + 1] as usize);
                let deg = hi - lo;
                // Peel off this check's previous contribution.
                for k in 0..deg {
                    ws.scratch_q[k] =
                        ws.posterior[ws.col_idx[lo + k] as usize] - ws.chk_to_var[lo + k];
                }
                min_sum_check(&ws.scratch_q[..deg], &mut ws.chk_to_var[lo..hi], self.alpha);
                for k in 0..deg {
                    ws.posterior[ws.col_idx[lo + k] as usize] =
                        ws.scratch_q[k] + ws.chk_to_var[lo + k];
                }
            }
            for (b, &p) in ws.bits.iter_mut().zip(&ws.posterior) {
                *b = p < 0.0;
            }
            converged = ws.syndrome_is_zero();
        }

        Ok(DecodeStatus {
            converged,
            iterations: iterations.max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AwgnChannel;
    use crate::decoder::MinSumDecoder;
    use crate::encoder::Encoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn code() -> LdpcCode {
        LdpcCode::gallager(240, 3, 6, 5).unwrap()
    }

    #[test]
    fn decodes_clean_codeword_immediately() {
        let c = code();
        let out = LayeredMinSumDecoder::default().decode(&c, &vec![7.0; c.n()]);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn corrects_noise_like_flooding() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut chan = AwgnChannel::new(3.5, c.rate(), 21);
        let dec = LayeredMinSumDecoder::default();
        let mut ok = 0;
        let trials = 20;
        for _ in 0..trials {
            let msg: Vec<bool> = (0..enc.k()).map(|_| rng.gen()).collect();
            let word = enc.encode(&msg).unwrap();
            let out = dec.decode(&c, &chan.transmit(&word));
            if out.converged && out.bits == word {
                ok += 1;
            }
        }
        assert!(ok >= trials * 8 / 10, "layered decoded only {ok}/{trials}");
    }

    #[test]
    fn converges_in_fewer_sweeps_than_flooding() {
        let c = code();
        let enc = Encoder::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut layered_iters, mut flooding_iters, mut counted) = (0usize, 0usize, 0usize);
        for trial in 0..15 {
            let msg: Vec<bool> = (0..enc.k()).map(|_| rng.gen()).collect();
            let word = enc.encode(&msg).unwrap();
            let mut chan = AwgnChannel::new(3.0, c.rate(), 100 + trial);
            let llrs = chan.transmit(&word);
            let lay = LayeredMinSumDecoder::default().decode(&c, &llrs);
            let flo = MinSumDecoder::default().decode(&c, &llrs);
            if lay.converged && flo.converged {
                layered_iters += lay.iterations;
                flooding_iters += flo.iterations;
                counted += 1;
            }
        }
        assert!(counted >= 5, "not enough convergent trials");
        assert!(
            layered_iters * 10 <= flooding_iters * 9,
            "layered ({layered_iters}) not faster than flooding ({flooding_iters}) over {counted} trials"
        );
    }

    #[test]
    fn wrong_length_rejected() {
        let c = code();
        assert!(LayeredMinSumDecoder::default()
            .try_decode(&c, &[0.0])
            .is_err());
    }
}
