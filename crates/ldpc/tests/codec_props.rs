//! Property tests for the LDPC parity-check code: syndrome linearity.

use hotnoc_ldpc::LdpcCode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn syndrome_is_linear(seed in 0u64..1_000, a_seed in 0u64..1_000, b_seed in 0u64..1_000) {
        let code = LdpcCode::gallager(60, 3, 6, seed).unwrap();
        let mut rng_a = StdRng::seed_from_u64(a_seed);
        let mut rng_b = StdRng::seed_from_u64(b_seed);
        let a: Vec<bool> = (0..60).map(|_| rng_a.gen()).collect();
        let b: Vec<bool> = (0..60).map(|_| rng_b.gen()).collect();
        let ab: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let sa = code.h().syndrome(&a);
        let sb = code.h().syndrome(&b);
        let sab = code.h().syndrome(&ab);
        for i in 0..sa.len() {
            prop_assert_eq!(sab[i], sa[i] ^ sb[i]);
        }
    }
}
