//! The hot-path decode perf gate (DESIGN.md §12).
//!
//! Times the decoder that serves, on the lists it decodes:
//!
//! - **Pruned vs exhaustive top-k** (DESIGN.md §13) on the baseline
//!   engine over the 60k-doc corpus, at k ∈ {10, 100, 1000} for
//!   single/AND/OR queries, asserting bit-identical hits first. The k = 10
//!   timings are gated: exhaustive as `e2e_{shape}`, pruned as
//!   `e2e_pruned_{shape}_k10`. `--check` also fails unless pruning
//!   delivers ≥1.5× single-term QPS at k = 10 with a nonzero
//!   skipped-block tally, and unless pruned AND and pruned OR at k = 10
//!   each beat this same process's exhaustive wall time.
//! - **Codec shootout** (DESIGN.md §18): the served pair kernel,
//!   `try_decode_pairs_into`, decodes bit-packed blocks at every gated
//!   width. Each width's time is gated, and `--check` also requires the
//!   blocks' bits/posting to stay within the committed
//!   `max_bits_per_posting`.
//!
//! Writes `BENCH_decode.json` at the workspace root; `--out`, `--check`
//! and `--write-thresholds` are [`iiu_bench::gate`]'s, with a
//! `fail_above_ratio` of 1.25 on `min_ns`. `--smoke` runs only a
//! one-block-per-width decode check against an independent reference (no
//! timing). `verify.sh` runs the gate in `--release`; `--quick` verify
//! runs just the smoke.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the iiu-bench lib crate).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use iiu_baseline::CpuEngine;
use iiu_bench::gate::{self, qps, Args, Queries, Run, Shape};
use iiu_bench::micro::bench_with;
use iiu_index::codec::{
    encode_block, tf_at, try_decode_docs_into, try_decode_pairs_into, BlockColumns,
};
use iiu_index::{InvertedIndex, Posting};
use iiu_workloads::{CorpusConfig, QuerySampler};
use serde_json::{json, Map, Value};

/// Queries sampled per shape.
const N_QUERIES: usize = 32;
/// Documents in the corpus (small enough for the verify gate, large
/// enough that lists span many blocks and block-max pruning has real skip
/// opportunities).
const E2E_DOCS: u32 = 60_000;
/// Gap widths of the codec shootout (the §5-relevant 4–20 range).
const GATED_WIDTHS: [u8; 5] = [4, 8, 12, 16, 20];
/// Document frequencies of the light-list sample: lists that span a few
/// short blocks, where a walk's fixed cost per block and per interval
/// shows (the repository benchmark's light query pool draws from the
/// same range).
const LIGHT_DF: std::ops::Range<u64> = 16..1024;
/// Result-set sizes for the pruned-vs-exhaustive top-k comparison.
const PRUNED_KS: [usize; 3] = [10, 100, 1000];
/// Minimum single-term QPS gain pruning must deliver at k = 10 for
/// `--check` to pass.
const PRUNED_SINGLE_K10_MIN_GAIN: f64 = 1.5;
/// Postings per codec-shootout block (a realistic full block).
const SHOOTOUT_BLOCK: usize = 256;
/// Blocks decoded per timed codec-shootout iteration.
const SHOOTOUT_BLOCKS: usize = 16;
/// tf field width used throughout the codec shootout.
const SHOOTOUT_TF_BITS: u8 = 4;

/// Pruned-vs-exhaustive top-k on the same engine and queries: the only
/// difference is block-max pruning (DESIGN.md §13). Asserts bit-identical
/// hits before timing anything, tallies the skip counters, and gates both
/// latencies of every shape at k = 10. Sampling is biased toward high-df
/// terms (weight ∝ df, df ≥ 64): short tail lists spend their time in
/// scoring and top-k rather than in decode.
fn bench_pruned(index: &InvertedIndex, metrics: &mut Map) -> Value {
    let queries = Queries::sample(index, 64, N_QUERIES);
    let mut shapes = Map::new();
    for shape in Shape::ALL {
        let name = shape.name();
        let mut rows = Map::new();
        for k in PRUNED_KS {
            let mut exh = CpuEngine::new(index);
            let mut pru = CpuEngine::new(index).with_pruning(true);

            // Correctness first: the timed runs below only count hits, so
            // prove bit-identity over the whole query set up front, and
            // collect the logical skip tallies while at it.
            let (mut blocks_skipped, mut postings_skipped) = (0u64, 0u64);
            for i in 0..N_QUERIES {
                let a = queries.run(&mut exh, shape, i, k);
                let b = queries.run(&mut pru, shape, i, k);
                assert_eq!(a.hits, b.hits, "pruned {name} diverged at query {i} k={k}");
                blocks_skipped += b.counts.blocks_skipped;
                postings_skipped += b.counts.postings_skipped;
            }

            let e =
                queries.time(&format!("pruned/{name}/k{k}/exhaustive"), &mut exh, shape, k);
            let p = queries.time(&format!("pruned/{name}/k{k}/pruned"), &mut pru, shape, k);
            if k == 10 {
                metrics.insert(format!("e2e_{name}"), json!(e.min_ns));
                metrics.insert(format!("e2e_pruned_{name}_k10"), json!(p.min_ns));
            }
            rows.insert(
                format!("k{k}"),
                json!({
                    "k": k,
                    "exhaustive_min_ns": e.min_ns,
                    "pruned_min_ns": p.min_ns,
                    "exhaustive_qps": qps(e.min_ns),
                    "pruned_qps": qps(p.min_ns),
                    "qps_gain": e.min_ns / p.min_ns,
                    "blocks_skipped": blocks_skipped,
                    "postings_skipped": postings_skipped,
                }),
            );
        }
        shapes.insert(name.to_string(), Value::Object(rows));
    }
    Value::Object(shapes)
}

/// Pruned AND and OR at k = 10 over two-term queries on light lists
/// ([`LIGHT_DF`]), beside their exhaustive runs and after the same
/// bit-identity check: the engine-level number for light-path changes,
/// which the serving layer's own overhead hides end to end. Reported, not
/// gated.
fn bench_pruned_light(index: &InvertedIndex) -> Value {
    let mut sampler =
        QuerySampler::with_df_range(index, 42, QuerySampler::DEFAULT_ALPHA, LIGHT_DF);
    let queries = Queries { singles: Vec::new(), pairs: sampler.pair_queries(N_QUERIES) };
    let mut rows = Map::new();
    for shape in [Shape::And, Shape::Or] {
        let name = shape.name();
        let mut exh = CpuEngine::new(index);
        let mut pru = CpuEngine::new(index).with_pruning(true);
        for i in 0..N_QUERIES {
            let a = queries.run(&mut exh, shape, i, 10);
            let b = queries.run(&mut pru, shape, i, 10);
            assert_eq!(a.hits, b.hits, "pruned light {name} diverged at query {i}");
        }
        let e =
            queries.time(&format!("pruned_light/{name}/k10/exhaustive"), &mut exh, shape, 10);
        let p = queries.time(&format!("pruned_light/{name}/k10/pruned"), &mut pru, shape, 10);
        rows.insert(
            name.to_string(),
            json!({ "k10": json!({
                "exhaustive_min_ns": e.min_ns,
                "pruned_min_ns": p.min_ns,
                "exhaustive_median_ns": e.median_ns,
                "pruned_median_ns": p.median_ns,
                "pruned_qps": qps(p.min_ns),
                "qps_gain": e.min_ns / p.min_ns,
            })}),
        );
    }
    json!({
        "df_min": LIGHT_DF.start,
        "df_below": LIGHT_DF.end,
        "queries": N_QUERIES,
        "shapes": Value::Object(rows),
    })
}

/// Deterministic shootout values (LCG) masked to `width` bits, seeded per
/// block so every block carries different data.
fn shootout_values(seed: u64, n: usize, width: u8) -> Vec<u32> {
    let mask = if width >= 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as u32) & mask
        })
        .collect()
}

/// The gap and tf columns of shootout block `b` at `gap_bits`, seeded per
/// block so every block carries different data. The first gap is 0: the
/// first docID travels in the block's skip value.
fn shootout_columns(b: usize, gap_bits: u8) -> (Vec<u32>, Vec<u32>) {
    let mut gaps =
        shootout_values((b as u64) << 8 | u64::from(gap_bits), SHOOTOUT_BLOCK, gap_bits);
    gaps[0] = 0;
    let tfs = shootout_values((b as u64) << 16 | 0x7F, SHOOTOUT_BLOCK, SHOOTOUT_TF_BITS);
    (gaps, tfs)
}

/// The skip value (first docID) of shootout block `b`.
fn shootout_skip(b: usize) -> u32 {
    b as u32 * 8 + 1
}

/// The bit-packed payloads of shootout blocks `0..blocks` at `gap_bits`.
fn encode_shootout(gap_bits: u8, blocks: usize) -> Vec<Vec<u8>> {
    (0..blocks)
        .map(|b| {
            let (gaps, tfs) = shootout_columns(b, gap_bits);
            let mut payload = Vec::new();
            encode_block(&gaps, &tfs, gap_bits, SHOOTOUT_TF_BITS, &mut payload);
            payload
        })
        .collect()
}

/// The postings of shootout blocks `0..blocks`, summed from their columns
/// without the codec: the independent reference the kernel must match.
fn shootout_reference(gap_bits: u8, blocks: usize) -> Vec<Posting> {
    let mut out = Vec::with_capacity(blocks * SHOOTOUT_BLOCK);
    for b in 0..blocks {
        let (gaps, tfs) = shootout_columns(b, gap_bits);
        let mut doc = shootout_skip(b);
        for (&g, &t) in gaps.iter().zip(&tfs) {
            doc += g;
            out.push(Posting::new(doc, t));
        }
    }
    out
}

/// Decodes every block of `payloads` into `out` (cleared first). Panics on
/// a decode error — these are self-produced blocks.
fn decode_shootout(payloads: &[Vec<u8>], gap_bits: u8, out: &mut Vec<Posting>) {
    out.clear();
    for (b, payload) in payloads.iter().enumerate() {
        let skip = shootout_skip(b);
        try_decode_pairs_into(payload, SHOOTOUT_BLOCK, gap_bits, SHOOTOUT_TF_BITS, skip, out)
            .expect("self-produced shootout block");
    }
}

/// The codec shootout (DESIGN.md §18): the bit-packed kernel decodes the
/// shootout blocks at every gated width. Each width's decode time goes
/// into the gate map; the aggregate (throughput, bits/posting) feeds the
/// `--check` compression bound.
fn bench_codec_shootout(gate: &mut Map) -> Value {
    let postings_per_iter = (SHOOTOUT_BLOCK * SHOOTOUT_BLOCKS) as f64;
    let mut per_width = Vec::new();
    let (mut total_ns, mut total_bytes) = (0.0, 0usize);
    for width in GATED_WIDTHS {
        let payloads = encode_shootout(width, SHOOTOUT_BLOCKS);
        let bytes: usize = payloads.iter().map(Vec::len).sum();
        let mut out: Vec<Posting> = Vec::with_capacity(SHOOTOUT_BLOCK * SHOOTOUT_BLOCKS);
        let timing = bench_with(&format!("codec/bitpack/w{width:02}"), 6, 24, &mut || {
            decode_shootout(&payloads, width, &mut out);
            out.len()
        });
        assert_eq!(out, shootout_reference(width, SHOOTOUT_BLOCKS), "decode at w{width}");
        gate.insert(format!("codec_bitpack_w{width:02}"), json!(timing.min_ns));
        total_ns += timing.min_ns;
        total_bytes += bytes;
        per_width.push(json!({
            "width": width,
            "bitpack": json!({
                "min_ns": timing.min_ns,
                "median_ns": timing.median_ns,
                "mpostings_per_s": postings_per_iter / timing.min_ns * 1e3,
                "payload_bytes": bytes,
                "payload_bits_per_posting": bytes as f64 * 8.0 / postings_per_iter,
            }),
        }));
    }
    let total_postings = postings_per_iter * GATED_WIDTHS.len() as f64;
    json!({
        "block_postings": SHOOTOUT_BLOCK,
        "blocks": SHOOTOUT_BLOCKS,
        "tf_bits": SHOOTOUT_TF_BITS,
        "widths": Value::Array(per_width),
        "aggregate": json!({
            "bitpack": json!({
                "total_min_ns": total_ns,
                "mpostings_per_s": total_postings / total_ns * 1e3,
                "payload_bytes": total_bytes,
                "payload_bits_per_posting": total_bytes as f64 * 8.0 / total_postings,
            }),
        }),
    })
}

/// `--smoke`: one block per width, encoded and decoded, checked against
/// [`shootout_reference`], no timing. The cheap decode sanity check
/// `verify.sh --quick` runs.
fn run_smoke() -> ExitCode {
    for width in GATED_WIDTHS {
        let payloads = encode_shootout(width, 1);
        let want = shootout_reference(width, 1);
        let mut got = Vec::new();
        decode_shootout(&payloads, width, &mut got);
        assert_eq!(got, want, "smoke decode diverged at w{width}");
        let mut cols = BlockColumns::default();
        let skip = shootout_skip(0);
        try_decode_docs_into(
            &payloads[0],
            SHOOTOUT_BLOCK,
            width,
            SHOOTOUT_TF_BITS,
            skip,
            &mut cols,
        )
        .expect("self-produced shootout block");
        assert!(
            want.iter().map(|p| p.doc_id).eq(cols.docs().iter().copied()),
            "smoke docIDs-only decode diverged at w{width}"
        );
        let tfs = (0..SHOOTOUT_BLOCK).map(|i| tf_at(&payloads[0], i, width, SHOOTOUT_TF_BITS));
        assert!(want.iter().map(|p| p.tf).eq(tfs), "smoke tf reads diverged at w{width}");
    }
    println!(
        "codec smoke: OK ({} widths, one {}-posting block each, pair and docIDs-only \
         decodes and tf reads equal to the reference)",
        GATED_WIDTHS.len(),
        SHOOTOUT_BLOCK
    );
    ExitCode::SUCCESS
}

/// The relational rules `--check` adds to the committed thresholds.
fn rules(pruned: &Value, bits: f64, committed: &Value) -> Vec<String> {
    let mut broken = Vec::new();
    // Latency thresholds alone can't prove pruning pays off; also require
    // the k=10 single-term win and that blocks were skipped.
    let k10 = &pruned["single"]["k10"];
    let gain = k10["qps_gain"].as_f64().unwrap_or(0.0);
    if gain < PRUNED_SINGLE_K10_MIN_GAIN {
        broken.push(format!(
            "pruned single k=10 qps_gain {gain:.2} below required {PRUNED_SINGLE_K10_MIN_GAIN}"
        ));
    }
    if k10["blocks_skipped"].as_u64().unwrap_or(0) == 0 {
        broken.push("pruned single k=10 skipped no blocks".to_string());
    }
    // Two-term pruning has to pay for its bookkeeping on the wall, not only
    // in the tallies: against the exhaustive engine of this same process,
    // so the rule needs no committed number.
    for shape in ["and", "or"] {
        let k10 = &pruned[shape]["k10"];
        let exhaustive = k10["exhaustive_min_ns"].as_f64().unwrap_or(0.0);
        let with_pruning = k10["pruned_min_ns"].as_f64().unwrap_or(f64::INFINITY);
        if with_pruning.partial_cmp(&exhaustive) != Some(std::cmp::Ordering::Less) {
            broken.push(format!(
                "pruned {shape} k=10 ({with_pruning:.0} ns) does not beat exhaustive \
                 {shape} ({exhaustive:.0} ns)"
            ));
        }
    }
    match gate::number(committed, &["max_bits_per_posting", "bitpack"]) {
        None => {
            broken.push("thresholds file has no numeric max_bits_per_posting.bitpack".into())
        }
        Some(bound) if bits > bound => {
            broken
                .push(format!("bitpack: {bits:.3} bits/posting exceeds committed {bound:.3}"));
        }
        Some(_) => {}
    }
    broken
}

fn main() -> ExitCode {
    let args = Args::parse("decode_bench", "BENCH_decode.json", &["--smoke"]);
    if args.switch.is_some() {
        return run_smoke();
    }
    let mut run = Run::new("decode", "min_ns");

    println!(
        "== pruned vs exhaustive top-k, {E2E_DOCS} docs, {N_QUERIES} queries/shape, \
         k in {PRUNED_KS:?} =="
    );
    let index = CorpusConfig::ccnews_like(E2E_DOCS).generate().into_default_index();
    let pruned = bench_pruned(&index, &mut run.metrics);
    println!(
        "== pruned AND/OR k=10 on light lists ({} <= df < {}), reported only ==",
        LIGHT_DF.start, LIGHT_DF.end
    );
    let pruned_light = bench_pruned_light(&index);

    println!(
        "== codec shootout: bitpack x widths {GATED_WIDTHS:?}, \
         {SHOOTOUT_BLOCKS} x {SHOOTOUT_BLOCK}-posting blocks =="
    );
    let shootout = bench_codec_shootout(&mut run.metrics);
    let bits = shootout["aggregate"]["bitpack"]["payload_bits_per_posting"]
        .as_f64()
        .expect("shootout reports its bits/posting");

    let report = json!({
        "schema": "decode-bench-v2",
        "e2e_docs": E2E_DOCS,
        "pruned": pruned.clone(),
        "pruned_light": pruned_light,
        "codec_shootout": shootout,
    });
    // Compression is deterministic, so its bound is exact: a codec change
    // that costs even one payload byte per shootout posting set trips the
    // gate until the threshold is regenerated deliberately.
    let template = json!({
        "schema": "decode-gate-thresholds-v2",
        "comment": "min_ns baselines for the decode perf gate; a run fails when measured > baseline * fail_above_ratio or when a codec's shootout payload exceeds max_bits_per_posting. Regenerate with: cargo run --release -p iiu-bench --bin decode_bench -- --write-thresholds BENCH_decode_thresholds.json",
        "fail_above_ratio": 1.25,
        "max_bits_per_posting": json!({ "bitpack": bits }),
    });
    run.finish(&args, report, template, |committed| rules(&pruned, bits, committed))
}
