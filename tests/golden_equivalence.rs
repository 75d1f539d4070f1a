//! Golden equivalence suite: the optimized kernels must be *bit-identical*
//! to their scalar references, and the parallel Monte-Carlo harness must be
//! thread-count invariant.
//!
//! The fast min-sum path buffers each `v2c` message and works block-major
//! on the quasi-cyclic structure (with AVX-512 and AVX2 instantiations
//! picked at runtime); the bit-flip decoder counts parity word-packed.
//! Both are pure reorderings of exact float/integer operations, so
//! `DecodeOutcome`s — success flag, iteration count and decoded word —
//! must match the references on every input, not just statistically.
//! The min-sum checks cover hard and soft inputs on the 64-bit-circulant
//! test code and on the paper's 1024-bit-circulant code, whose rotations
//! split every message slab at a different point.

use rif_events::SimRng;
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::{Bsc, SoftChannel};
use rif_ldpc::decoder::{BitFlipDecoder, MinSumDecoder};
use rif_ldpc::QcLdpcCode;
use rif_odear::rp::ReadRetryPredictor;

/// RBERs spanning clean, waterfall-edge and mostly-uncorrectable inputs.
const RBERS: [f64; 4] = [0.002, 0.006, 0.0085, 0.015];

fn corpus(code: &QcLdpcCode, seed: u64) -> Vec<BitVec> {
    // 4 RBERs x 14 trials = 56 noisy codewords (>= 50 per the golden bar).
    let mut rng = SimRng::seed_from(seed);
    let mut words = Vec::new();
    for &rber in &RBERS {
        let channel = Bsc::new(rber);
        for _ in 0..14 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            words.push(channel.corrupt(&cw, &mut rng));
        }
    }
    words
}

#[test]
fn min_sum_fast_path_is_bit_identical_to_reference() {
    let code = QcLdpcCode::small_test();
    let dec = MinSumDecoder::new(&code);
    for (i, noisy) in corpus(&code, 0xC0DE).iter().enumerate() {
        let fast = dec.decode(noisy);
        let reference = dec.decode_reference(noisy);
        assert_eq!(fast, reference, "min-sum outcome diverged on word {i}");
    }
}

#[test]
fn min_sum_fast_path_is_bit_identical_on_the_paper_code() {
    // Below, at and above the paper code's capability: a 7-iteration
    // decode, a 16-iteration decode and a 20-iteration failure.
    let code = QcLdpcCode::paper();
    let dec = MinSumDecoder::new(&code);
    let mut rng = SimRng::seed_from(0xB16C0DE);
    for &rber in &[0.004, 0.0085, 0.012] {
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let noisy = Bsc::new(rber).corrupt(&cw, &mut rng);
        let fast = dec.decode(&noisy);
        let reference = dec.decode_reference(&noisy);
        assert_eq!(fast, reference, "min-sum outcome diverged at rber {rber}");
    }
}

#[test]
fn min_sum_soft_inputs_are_bit_identical_to_reference() {
    // Gaussian LLRs exercise every magnitude path of the two-min scan,
    // which ±1 hard inputs never reach.
    let mut rng = SimRng::seed_from(0x50F7);
    let small = QcLdpcCode::small_test();
    let paper = QcLdpcCode::paper();
    // Quick, long and failing (20-iteration) decodes on both codes.
    let cases = [
        (&small, 0.01),
        (&small, 0.02),
        (&small, 0.025),
        (&small, 0.06),
        (&paper, 0.02),
        (&paper, 0.06),
    ];
    for (code, rber) in cases {
        let dec = MinSumDecoder::new(code);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let llr = SoftChannel::new(rber).transmit(&cw, &mut rng);
        let fast = dec.decode_llr(&llr);
        let reference = dec.decode_llr_reference(&llr);
        assert_eq!(
            fast,
            reference,
            "soft min-sum diverged at n={} rber {rber}",
            code.n()
        );
    }
}

#[test]
fn bit_flip_fast_path_is_bit_identical_to_reference() {
    let code = QcLdpcCode::small_test();
    let dec = BitFlipDecoder::new(&code);
    for (i, noisy) in corpus(&code, 0xF11B).iter().enumerate() {
        let fast = dec.decode(noisy);
        let reference = dec.decode_reference(noisy);
        assert_eq!(fast, reference, "bit-flip outcome diverged on word {i}");
    }
}

#[test]
fn rp_rearranged_prediction_matches_original_layout() {
    // The RP hardware sees the rearranged layout; prediction must agree
    // with the original-layout path once the chunk is restored.
    let code = QcLdpcCode::small_test();
    let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
    let mut rng = SimRng::seed_from(0x5EED);
    for &rber in &RBERS {
        let channel = Bsc::new(rber);
        for _ in 0..8 {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            let noisy = channel.corrupt(&cw, &mut rng);
            let sensed = code.rearrange(&noisy);
            let on_die = rp.predict(&sensed);
            let restored = code.restore(&sensed);
            assert_eq!(restored, noisy, "restore must invert rearrange");
            let off_die = rp.predict_original_layout(&restored);
            assert_eq!(on_die.syndrome_weight, off_die.syndrome_weight);
            assert_eq!(on_die.retry_needed, off_die.retry_needed);
        }
    }
}

#[test]
fn monte_carlo_sweeps_are_thread_count_invariant() {
    // Trial k of point i always draws from SimRng::stream(seed, i*trials+k)
    // regardless of which worker runs it, so --threads must not change a
    // single number.
    let code = QcLdpcCode::small_test();
    let rbers = [0.004, 0.0085, 0.012];
    let one = rif_ldpc::analysis::capability_sweep(&code, &rbers, 8, 99, 1);
    let eight = rif_ldpc::analysis::capability_sweep(&code, &rbers, 8, 99, 8);
    assert_eq!(one, eight);

    let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
    let one = rif_odear::accuracy::measure_accuracy(&code, &rp, &rbers, 10, 7, 1);
    let eight = rif_odear::accuracy::measure_accuracy(&code, &rp, &rbers, 10, 7, 8);
    assert_eq!(one, eight);
}
