//! Bit/frame error-rate measurement harness.
//!
//! Not a paper exhibit — the paper measures temperature, not coding gain —
//! but the workload is only credible if the decoder actually corrects
//! errors; this harness produces the standard waterfall curves used by the
//! `ldpc_decode` example and by regression tests.

use crate::channel::AwgnChannel;
use crate::code::LdpcCode;
use crate::decoder::{DecodeStatus, DecoderWorkspace};
use crate::encoder::Encoder;
use crate::error::LdpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operating point of a waterfall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Eb/N0 in dB.
    pub snr_db: f64,
    /// Frame error rate.
    pub fer: f64,
    /// Bit error rate (over message bits of failed frames too).
    pub ber: f64,
    /// Mean decoder iterations.
    pub mean_iterations: f64,
    /// Frames simulated.
    pub frames: usize,
}

/// Measures FER/BER of `decode` over an SNR sweep with `trials` frames per
/// point. The decoder is any closure from LLRs and a shared
/// [`DecoderWorkspace`] to a [`DecodeStatus`] (min-sum, sum-product,
/// layered, ...) — the harness owns one workspace and threads it through
/// every frame, so the whole sweep decodes without per-block allocations;
/// hard decisions are read back from [`DecoderWorkspace::bits`].
///
/// # Errors
///
/// Propagates code/encoder construction failures.
pub fn waterfall<F>(
    code: &LdpcCode,
    snrs_db: &[f64],
    trials: usize,
    seed: u64,
    mut decode: F,
) -> Result<Vec<BerPoint>, LdpcError>
where
    F: FnMut(&LdpcCode, &[f64], &mut DecoderWorkspace) -> DecodeStatus,
{
    let encoder = Encoder::new(code)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = DecoderWorkspace::for_code(code);
    let mut points = Vec::with_capacity(snrs_db.len());
    for (si, &snr) in snrs_db.iter().enumerate() {
        let mut chan = AwgnChannel::new(snr, code.rate(), seed ^ (si as u64) << 32);
        let mut frame_errors = 0usize;
        let mut bit_errors = 0usize;
        let mut iterations = 0usize;
        for _ in 0..trials {
            let msg: Vec<bool> = (0..encoder.k()).map(|_| rng.gen()).collect();
            let word = encoder.encode(&msg)?;
            let llrs = chan.transmit(&word);
            let out = decode(code, &llrs, &mut ws);
            iterations += out.iterations;
            let errs = ws.bits().iter().zip(&word).filter(|(a, b)| a != b).count();
            if errs > 0 || !out.converged {
                frame_errors += 1;
                bit_errors += errs;
            }
        }
        points.push(BerPoint {
            snr_db: snr,
            fer: frame_errors as f64 / trials as f64,
            ber: bit_errors as f64 / (trials * code.n()) as f64,
            mean_iterations: iterations as f64 / trials as f64,
            frames: trials,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::MinSumDecoder;
    use crate::layered::LayeredMinSumDecoder;

    #[test]
    fn waterfall_improves_with_snr() {
        let code = LdpcCode::gallager(240, 3, 6, 3).unwrap();
        let dec = MinSumDecoder::default();
        let points = waterfall(&code, &[1.0, 4.5], 30, 7, |c, l, ws| {
            dec.decode_with(c, l, ws)
        })
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].fer < points[0].fer,
            "FER did not improve: {} -> {}",
            points[0].fer,
            points[1].fer
        );
        assert!(
            points[1].fer < 0.2,
            "high-SNR FER too high: {}",
            points[1].fer
        );
        assert!(points[1].mean_iterations <= points[0].mean_iterations);
    }

    #[test]
    fn ber_bounded_by_fer() {
        let code = LdpcCode::gallager(120, 3, 6, 1).unwrap();
        let dec = LayeredMinSumDecoder::default();
        let points = waterfall(&code, &[2.0], 25, 3, |c, l, ws| dec.decode_with(c, l, ws)).unwrap();
        for p in points {
            assert!(p.ber <= p.fer + 1e-12, "BER {} above FER {}", p.ber, p.fer);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let code = LdpcCode::gallager(120, 3, 6, 1).unwrap();
        let dec = MinSumDecoder::default();
        let a = waterfall(&code, &[2.5], 10, 9, |c, l, ws| dec.decode_with(c, l, ws)).unwrap();
        let b = waterfall(&code, &[2.5], 10, 9, |c, l, ws| dec.decode_with(c, l, ws)).unwrap();
        assert_eq!(a, b);
    }
}
