//! Decode-kernel performance smoke test.
//!
//! Times the word-packed min-sum fast path against its scalar reference
//! (`decode_llr_reference`) at three RBER points spanning the waterfall,
//! plus the rotate-XOR syndrome-weight throughput, on two codes:
//! `QcLdpcCode::small_test` (64-bit circulants) and `QcLdpcCode::paper`
//! (the 36,864-bit codeword the paper and the `ldpc-mc` benchmark
//! workload decode). Writes the numbers to `BENCH_ldpc.json` at the repo
//! root for trend tracking, or to the file named by `--out`.
//!
//! `--quick` shrinks the corpus and the timing window; `--seed` reseeds
//! the corpus.
//!
//! ```sh
//! cargo run --release -p rif-bench --bin perf_smoke               # full, updates the ledger
//! cargo run --release -p rif-bench --bin perf_smoke -- --quick --out /tmp/ldpc.json
//! ```

use std::time::Instant;

use rif_bench::{HarnessOpts, TableWriter};
use rif_events::SimRng;
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;
use rif_ldpc::decoder::MinSumDecoder;
use rif_ldpc::QcLdpcCode;

const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ldpc.json");

const USAGE: &str = "usage: perf_smoke [--quick] [--csv] [--seed N] [--out PATH]";

/// RBER points: comfortably correctable, at the capability, mostly failing.
const RBERS: [f64; 3] = [0.004, 0.0085, 0.012];

fn corpus(code: &QcLdpcCode, rber: f64, count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = SimRng::seed_from(seed);
    let channel = Bsc::new(rber);
    (0..count)
        .map(|_| {
            let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
            channel.corrupt(&cw, &mut rng)
        })
        .collect()
}

/// Decodes the corpus repeatedly for at least `window_ms`, returning
/// codewords per second.
fn throughput<F: Fn(&BitVec)>(words: &[BitVec], window_ms: u64, decode: F) -> f64 {
    // One untimed pass to settle caches.
    for w in words {
        decode(w);
    }
    let start = Instant::now();
    let mut decoded = 0usize;
    loop {
        for w in words {
            decode(w);
        }
        decoded += words.len();
        if start.elapsed().as_millis() as u64 >= window_ms {
            break;
        }
    }
    decoded as f64 / start.elapsed().as_secs_f64()
}

/// Times one code and returns its JSON object.
fn bench_code(
    name: &str,
    code: &QcLdpcCode,
    count: usize,
    window_ms: u64,
    opts: &HarnessOpts,
) -> String {
    let decoder = MinSumDecoder::new(code);
    let t = TableWriter::new(opts.csv, &[10, 10, 14, 14, 10]);
    t.heading(&format!(
        "perf_smoke: min-sum fast path vs scalar reference ({name}, n = {}, {count} codewords/point)",
        code.n()
    ));
    t.row(&[
        "code".into(),
        "rber".into(),
        "fast_cw_s".into(),
        "ref_cw_s".into(),
        "speedup".into(),
    ]);

    let mut points = Vec::new();
    for (i, &rber) in RBERS.iter().enumerate() {
        let words = corpus(code, rber, count, opts.seed + i as u64);
        let fast = throughput(&words, window_ms, |w| {
            std::hint::black_box(decoder.decode(w));
        });
        let reference = throughput(&words, window_ms, |w| {
            std::hint::black_box(decoder.decode_reference(w));
        });
        let speedup = fast / reference;
        t.row(&[
            name.into(),
            format!("{rber:.4}"),
            format!("{fast:.1}"),
            format!("{reference:.1}"),
            format!("{speedup:.2}x"),
        ]);
        points.push((rber, fast, reference, speedup));
    }

    // Word-packed syndrome-weight throughput (the RP module's primitive).
    let words = corpus(code, 0.0085, count, opts.seed + 100);
    let syn_per_s = throughput(&words, window_ms, |w| {
        std::hint::black_box(code.syndrome_weight(w));
    });

    let speedup_geomean = rif_bench::geomean(&points.iter().map(|p| p.3).collect::<Vec<_>>());
    if !opts.csv {
        println!("syndrome_weight: {syn_per_s:.0} codewords/s");
        println!("decode speedup geomean: {speedup_geomean:.2}x");
    }

    let json_points: Vec<String> = points
        .iter()
        .map(|(rber, fast, reference, speedup)| {
            format!(
                "        {{\"rber\": {rber}, \"fast_cw_per_s\": {fast:.1}, \
                 \"reference_cw_per_s\": {reference:.1}, \"speedup\": {speedup:.3}}}"
            )
        })
        .collect();
    format!(
        "    {{\n      \"code\": \"{name}\",\n      \"n\": {},\n      \
         \"codewords_per_point\": {count},\n      \"decode\": [\n{}\n      ],\n      \
         \"decode_speedup_geomean\": {speedup_geomean:.3},\n      \
         \"syndrome_weight_cw_per_s\": {syn_per_s:.1}\n    }}",
        code.n(),
        json_points.join(",\n")
    )
}

fn main() {
    // Split off `--out`, hand the rest to the shared harness parser.
    let mut out_path = DEFAULT_OUT.to_string();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next().filter(|p| !p.is_empty()) {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            _ => rest.push(a),
        }
    }
    let opts = match HarnessOpts::parse_from(rest) {
        Ok(o) => o,
        Err(rif_bench::ParseError::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(rif_bench::ParseError::Invalid(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let window_ms = opts.pick(400, 80);

    // The paper code decodes ~16x more bits per word (and its reference
    // is that much slower), so it gets a quarter of the corpus.
    let codes = [
        ("small_test", QcLdpcCode::small_test(), opts.pick(60, 15)),
        ("paper", QcLdpcCode::paper(), opts.pick(16, 4)),
    ];
    let rows: Vec<String> = codes
        .iter()
        .map(|(name, code, count)| bench_code(name, code, *count, window_ms, &opts))
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"ldpc_decode_smoke\",\n  \"codes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => {
            if !opts.csv {
                println!("\nwrote {out_path}");
            }
        }
        Err(e) => eprintln!("warning: could not write {out_path}: {e}"),
    }
}
