//! The hot-path decode perf gate (DESIGN.md §11).
//!
//! Times the bit-unpack kernels across widths 1..=32 — the retained
//! scalar reference (`unpack_all_scalar`, the pre-kernel "before") against
//! the word-aligned batch kernel (`unpack_into`, the "after") — plus
//! end-to-end single/AND/OR query throughput in the baseline engine,
//! where the "before" is a faithful replica of the old per-byte,
//! alloc-per-block query path kept in this binary as `mod legacy`.
//!
//! Also times block-max pruned top-k (DESIGN.md §13) against exhaustive
//! scoring on the same engine at k ∈ {10, 100, 1000} for single/AND/OR
//! queries, asserting bit-identical hits first. `--check` fails unless
//! pruning delivers ≥1.5× single-term QPS at k = 10 with a nonzero
//! skipped-block tally, and unless pruned AND and pruned OR at k = 10 each
//! beat this same process's exhaustive wall time.
//!
//! Also runs the codec shootout (DESIGN.md §18): the bit-packed block
//! kernel decodes uniform blocks at every gated width. Its decode times
//! join the gated metrics, and `--check` additionally requires its
//! bits/posting to stay within the committed `max_bits_per_posting` bound.
//!
//! Writes `BENCH_decode.json` at the workspace root. With
//! `--check <thresholds.json>` it additionally compares the gated
//! `min_ns` metrics against the committed thresholds and exits nonzero on
//! a >25% regression (`fail_above_ratio` in the thresholds file). With
//! `--write-thresholds <path>` it emits a fresh thresholds file from this
//! run's measurements. `--smoke` runs only a one-block-per-width decode
//! check against an independent reference (no timing). `verify.sh` runs
//! the gate in `--release`; `--quick` verify runs just the smoke.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the iiu-bench lib crate).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use iiu_baseline::CpuEngine;
use iiu_bench::micro::bench_with;
use iiu_index::bitpack::{pack_all, unpack_all_scalar, unpack_into};
use iiu_index::codec::{encode_block, try_decode_pairs_into};
use iiu_index::{InvertedIndex, Posting};
use iiu_workloads::{CorpusConfig, QuerySampler};
use serde_json::{json, Map, Value};

/// Values per kernel timing buffer.
const KERNEL_N: usize = 4096;
/// Queries sampled per end-to-end query type.
const N_QUERIES: usize = 32;
/// Documents in the end-to-end corpus (small enough for the verify gate,
/// large enough that lists span many blocks and block-max pruning has
/// real skip opportunities).
const E2E_DOCS: u32 = 60_000;
/// Widths whose batch kernel time is gated (the §5-relevant 4–20 range).
const GATED_WIDTHS: [u8; 5] = [4, 8, 12, 16, 20];
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

/// The old query path, kept verbatim as the perf gate's "before"
/// reference: per-byte bit extraction, a fresh `Vec` per decoded block,
/// and a one-block memo instead of the decoded-block cache.
mod legacy {
    use iiu_baseline::{top_k, Hit};
    use iiu_index::block::EncodedList;
    use iiu_index::score::term_score_fixed;
    use iiu_index::{DocId, InvertedIndex, Posting};

    fn read(bytes: &[u8], cursor: &mut usize, width: u8) -> u32 {
        let mut out: u32 = 0;
        let mut got: u8 = 0;
        while got < width {
            let byte_idx = *cursor / 8;
            let bit_idx = (*cursor % 8) as u8;
            let avail = 8 - bit_idx;
            let take = avail.min(width - got);
            let mask = ((1u16 << take) - 1) as u8;
            let chunk = (bytes[byte_idx] >> bit_idx) & mask;
            out |= u32::from(chunk) << got;
            got += take;
            *cursor += take as usize;
        }
        out
    }

    pub fn decode_block(list: &EncodedList, idx: usize) -> Vec<Posting> {
        let meta = list.metas()[idx];
        let skip = list.skips()[idx];
        let payload = list.payload();
        let mut cursor = meta.offset as usize * 8;
        let mut out = Vec::with_capacity(meta.count as usize);
        let mut prev = skip;
        for i in 0..meta.count {
            let gap = read(payload, &mut cursor, meta.dn_bits);
            let tf = read(payload, &mut cursor, meta.tf_bits);
            let doc = if i == 0 { skip } else { prev + gap };
            out.push(Posting::new(doc, tf));
            prev = doc;
        }
        out
    }

    fn decode_full(list: &EncodedList) -> Vec<Posting> {
        let mut out = Vec::new();
        for b in 0..list.num_blocks() {
            out.extend(decode_block(list, b));
        }
        out
    }

    fn intersect(short: &EncodedList, long: &EncodedList) -> Vec<(DocId, u32, u32)> {
        let short_postings = decode_full(short);
        let skips = long.skips();
        let mut out = Vec::new();
        let mut cached_block: Option<(usize, Vec<Posting>)> = None;
        for p in &short_postings {
            let mut lo = 0usize;
            let mut hi = skips.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                if skips[mid] <= p.doc_id {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let Some(block_idx) = lo.checked_sub(1) else {
                continue;
            };
            let hit = matches!(&cached_block, Some((idx, _)) if *idx == block_idx);
            if !hit {
                cached_block = Some((block_idx, decode_block(long, block_idx)));
            }
            let block = &cached_block.as_ref().expect("decoded above").1;
            let mut lo = 0usize;
            let mut hi = block.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                if block[mid].doc_id < p.doc_id {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo < block.len() && block[lo].doc_id == p.doc_id {
                out.push((p.doc_id, p.tf, block[lo].tf));
            }
        }
        out
    }

    fn union(a: &EncodedList, b: &EncodedList) -> Vec<(DocId, u32, u32)> {
        let (pa, pb) = (decode_full(a), decode_full(b));
        let mut out = Vec::with_capacity(pa.len() + pb.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < pa.len() && j < pb.len() {
            match pa[i].doc_id.cmp(&pb[j].doc_id) {
                std::cmp::Ordering::Less => {
                    out.push((pa[i].doc_id, pa[i].tf, 0));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((pb[j].doc_id, 0, pb[j].tf));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((pa[i].doc_id, pa[i].tf, pb[j].tf));
                    i += 1;
                    j += 1;
                }
            }
        }
        for p in &pa[i..] {
            out.push((p.doc_id, p.tf, 0));
        }
        for p in &pb[j..] {
            out.push((p.doc_id, 0, p.tf));
        }
        out
    }

    pub fn search_single(index: &InvertedIndex, term: &str, k: usize) -> Vec<Hit> {
        let id = index.term_id(term).expect("sampled term");
        let idf = index.term_info(id).idf_bar;
        let hits: Vec<Hit> = decode_full(index.encoded_list(id))
            .iter()
            .map(|p| Hit {
                doc_id: p.doc_id,
                score: term_score_fixed(idf, index.dl_bar(p.doc_id), p.tf).to_f64(),
            })
            .collect();
        top_k(hits, k)
    }

    pub fn search_intersection(
        index: &InvertedIndex,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Vec<Hit> {
        let ia = index.term_id(term_a).expect("sampled term");
        let ib = index.term_id(term_b).expect("sampled term");
        let (si, li) =
            if index.term_info(ia).df <= index.term_info(ib).df { (ia, ib) } else { (ib, ia) };
        let idf_s = index.term_info(si).idf_bar;
        let idf_l = index.term_info(li).idf_bar;
        let hits: Vec<Hit> = intersect(index.encoded_list(si), index.encoded_list(li))
            .iter()
            .map(|&(doc_id, tf_s, tf_l)| {
                let dl = index.dl_bar(doc_id);
                let s = term_score_fixed(idf_s, dl, tf_s)
                    .saturating_add(term_score_fixed(idf_l, dl, tf_l));
                Hit { doc_id, score: s.to_f64() }
            })
            .collect();
        top_k(hits, k)
    }

    pub fn search_union(
        index: &InvertedIndex,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Vec<Hit> {
        let ia = index.term_id(term_a).expect("sampled term");
        let ib = index.term_id(term_b).expect("sampled term");
        let idf_a = index.term_info(ia).idf_bar;
        let idf_b = index.term_info(ib).idf_bar;
        let hits: Vec<Hit> = union(index.encoded_list(ia), index.encoded_list(ib))
            .iter()
            .map(|&(doc_id, tf_a, tf_b)| {
                let dl = index.dl_bar(doc_id);
                let mut s = iiu_index::Fixed::ZERO;
                if tf_a > 0 {
                    s = s.saturating_add(term_score_fixed(idf_a, dl, tf_a));
                }
                if tf_b > 0 {
                    s = s.saturating_add(term_score_fixed(idf_b, dl, tf_b));
                }
                Hit { doc_id, score: s.to_f64() }
            })
            .collect();
        top_k(hits, k)
    }
}

/// Deterministic test values (LCG) masked to `width` bits.
fn kernel_values(width: u8) -> Vec<u32> {
    let mask = if width >= 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..KERNEL_N)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as u32) & mask
        })
        .collect()
}

fn bench_kernels(gate: &mut Map) -> Vec<Value> {
    let mut rows = Vec::new();
    for width in 1..=32u8 {
        let values = kernel_values(width);
        let bytes = pack_all(&values, width);
        let scalar = bench_with(&format!("unpack/scalar/w{width:02}"), 6, 12, &mut || {
            unpack_all_scalar(&bytes, KERNEL_N, width)
        });
        let mut out: Vec<u32> = Vec::with_capacity(KERNEL_N);
        // The gated metric is a min over samples; extra samples keep a
        // noisy-neighbor spike from inflating it past the threshold.
        let batch = bench_with(&format!("unpack/batch/w{width:02}"), 6, 24, &mut || {
            out.clear();
            unpack_into(&bytes, 0, KERNEL_N, width, &mut out);
            out.len()
        });
        assert_eq!(out, values, "batch kernel must decode the packed values");
        let speedup = scalar.min_ns / batch.min_ns;
        if GATED_WIDTHS.contains(&width) {
            gate.insert(format!("unpack_batch_w{width:02}"), json!(batch.min_ns));
        }
        rows.push(json!({
            "width": width,
            "values": KERNEL_N,
            "scalar_min_ns": scalar.min_ns,
            "scalar_median_ns": scalar.median_ns,
            "batch_min_ns": batch.min_ns,
            "batch_median_ns": batch.median_ns,
            "speedup_min": speedup,
        }));
    }
    rows
}

fn qps(min_ns: f64) -> f64 {
    if min_ns > 0.0 {
        1e9 / min_ns
    } else {
        f64::INFINITY
    }
}

fn bench_e2e(index: &InvertedIndex, gate: &mut Map) -> Value {
    // Bias sampling toward high-df terms (weight ∝ df, df >= 64): the gate
    // measures decode-bound throughput, and short tail lists spend their
    // time in scoring/top-k rather than in the kernels under test.
    let mut sampler = QuerySampler::with_bias(index, 42, 1.0, 64);
    let singles = sampler.single_queries(N_QUERIES);
    let pairs = sampler.pair_queries(N_QUERIES);
    let mut engine = CpuEngine::new(index);

    let mut e2e = Map::new();
    let run = |name: &str,
               gate: &mut Map,
               before: &mut dyn FnMut(usize) -> usize,
               after: &mut dyn FnMut(usize) -> usize| {
        let mut i = 0usize;
        let b = bench_with(&format!("e2e/{name}/before"), 8, 30, &mut || {
            i += 1;
            before(i - 1)
        });
        let mut j = 0usize;
        let a = bench_with(&format!("e2e/{name}/after"), 8, 30, &mut || {
            j += 1;
            after(j - 1)
        });
        gate.insert(format!("e2e_{name}"), json!(a.min_ns));
        json!({
            "before_min_ns": b.min_ns,
            "after_min_ns": a.min_ns,
            "before_qps": qps(b.min_ns),
            "after_qps": qps(a.min_ns),
            "qps_gain": b.min_ns / a.min_ns,
        })
    };

    let single = run(
        "single",
        gate,
        &mut |i| legacy::search_single(index, &singles[i % N_QUERIES], 10).len(),
        &mut |i| {
            engine.search_single(&singles[i % N_QUERIES], 10).expect("sampled term").hits.len()
        },
    );
    e2e.insert("single".to_string(), single);

    let mut engine = CpuEngine::new(index);
    let and = run(
        "and",
        gate,
        &mut |i| {
            let (a, b) = &pairs[i % N_QUERIES];
            legacy::search_intersection(index, a, b, 10).len()
        },
        &mut |i| {
            let (a, b) = &pairs[i % N_QUERIES];
            engine.search_intersection(a, b, 10).expect("sampled terms").hits.len()
        },
    );
    e2e.insert("and".to_string(), and);

    let mut engine = CpuEngine::new(index);
    let or = run(
        "or",
        gate,
        &mut |i| {
            let (a, b) = &pairs[i % N_QUERIES];
            legacy::search_union(index, a, b, 10).len()
        },
        &mut |i| {
            let (a, b) = &pairs[i % N_QUERIES];
            engine.search_union(a, b, 10).expect("sampled terms").hits.len()
        },
    );
    e2e.insert("or".to_string(), or);

    Value::Object(e2e)
}

/// Pruned-vs-exhaustive top-k on the same engine and queries: the only
/// difference is block-max pruning (DESIGN.md §13). Asserts bit-identical
/// hits before timing anything, tallies the skip counters, and gates the
/// pruned latency of every shape at k = 10.
fn bench_pruned(index: &InvertedIndex, gate: &mut Map) -> Value {
    let mut sampler = QuerySampler::with_bias(index, 42, 1.0, 64);
    let singles = sampler.single_queries(N_QUERIES);
    let pairs = sampler.pair_queries(N_QUERIES);

    let mut shapes = Map::new();
    for shape in ["single", "and", "or"] {
        let mut rows = Map::new();
        for k in PRUNED_KS {
            let mut exh = CpuEngine::new(index);
            let mut pru = CpuEngine::new(index).with_pruning(true);

            // Correctness first: the timed runs below only count hits, so
            // prove bit-identity over the whole query set up front, and
            // collect the logical skip tallies while at it.
            let (mut blocks_skipped, mut postings_skipped) = (0u64, 0u64);
            let query = |exh: &mut CpuEngine, pru: &mut CpuEngine, i: usize| {
                let (a, b) = match shape {
                    "single" => {
                        let t = &singles[i % N_QUERIES];
                        (
                            exh.search_single(t, k).expect("sampled term"),
                            pru.search_single(t, k).expect("sampled term"),
                        )
                    }
                    "and" => {
                        let (ta, tb) = &pairs[i % N_QUERIES];
                        (
                            exh.search_intersection(ta, tb, k).expect("sampled terms"),
                            pru.search_intersection(ta, tb, k).expect("sampled terms"),
                        )
                    }
                    _ => {
                        let (ta, tb) = &pairs[i % N_QUERIES];
                        (
                            exh.search_union(ta, tb, k).expect("sampled terms"),
                            pru.search_union(ta, tb, k).expect("sampled terms"),
                        )
                    }
                };
                assert_eq!(a.hits, b.hits, "pruned {shape} diverged at query {i} k={k}");
                (b.counts.blocks_skipped, b.counts.postings_skipped)
            };
            for i in 0..N_QUERIES {
                let (bs, ps) = query(&mut exh, &mut pru, i);
                blocks_skipped += bs;
                postings_skipped += ps;
            }

            let mut i = 0usize;
            let e = bench_with(&format!("pruned/{shape}/k{k}/exhaustive"), 8, 30, &mut || {
                i += 1;
                let idx = i - 1;
                match shape {
                    "single" => exh
                        .search_single(&singles[idx % N_QUERIES], k)
                        .expect("term")
                        .hits
                        .len(),
                    "and" => {
                        let (a, b) = &pairs[idx % N_QUERIES];
                        exh.search_intersection(a, b, k).expect("terms").hits.len()
                    }
                    _ => {
                        let (a, b) = &pairs[idx % N_QUERIES];
                        exh.search_union(a, b, k).expect("terms").hits.len()
                    }
                }
            });
            let mut j = 0usize;
            let p = bench_with(&format!("pruned/{shape}/k{k}/pruned"), 8, 30, &mut || {
                j += 1;
                let idx = j - 1;
                match shape {
                    "single" => pru
                        .search_single(&singles[idx % N_QUERIES], k)
                        .expect("term")
                        .hits
                        .len(),
                    "and" => {
                        let (a, b) = &pairs[idx % N_QUERIES];
                        pru.search_intersection(a, b, k).expect("terms").hits.len()
                    }
                    _ => {
                        let (a, b) = &pairs[idx % N_QUERIES];
                        pru.search_union(a, b, k).expect("terms").hits.len()
                    }
                }
            });

            if k == 10 {
                gate.insert(format!("e2e_pruned_{shape}_k10"), json!(p.min_ns));
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
        shapes.insert(shape.to_string(), Value::Object(rows));
    }
    Value::Object(shapes)
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
        let mut got = Vec::new();
        decode_shootout(&encode_shootout(width, 1), width, &mut got);
        assert_eq!(got, shootout_reference(width, 1), "smoke decode diverged at w{width}");
    }
    println!(
        "codec smoke: OK ({} widths, one {}-posting block each, equal to the reference)",
        GATED_WIDTHS.len(),
        SHOOTOUT_BLOCK
    );
    ExitCode::SUCCESS
}

/// Checks this run's gated metrics against committed thresholds. Returns
/// the list of violations (empty = pass).
fn check_thresholds(gate: &Map, thresholds: &Value) -> Vec<String> {
    let ratio = thresholds["fail_above_ratio"].as_f64().unwrap_or(1.25);
    let mut violations = Vec::new();
    let Some(baseline) = thresholds["min_ns"].as_object() else {
        return vec!["thresholds file has no \"min_ns\" object".to_string()];
    };
    for (name, base) in baseline {
        let Some(base_ns) = base.as_f64() else {
            violations.push(format!("threshold {name} is not a number"));
            continue;
        };
        match gate.get(name).and_then(Value::as_f64) {
            None => violations.push(format!("gated metric {name} missing from this run")),
            Some(measured) if measured > base_ns * ratio => violations.push(format!(
                "{name}: {measured:.1} ns exceeds {base_ns:.1} ns x {ratio} = {:.1} ns",
                base_ns * ratio
            )),
            Some(_) => {}
        }
    }
    violations
}

fn thresholds_from(gate: &Map, shootout: &Value, ratio: f64) -> Value {
    // Compression is deterministic, so its bound is exact: a codec change
    // that costs even one payload byte per shootout posting set trips the
    // gate until the threshold is regenerated deliberately.
    let bits = shootout["aggregate"]["bitpack"]["payload_bits_per_posting"].clone();
    json!({
        "schema": "decode-gate-thresholds-v2",
        "comment": "min_ns baselines for the decode perf gate; a run fails when measured > baseline * fail_above_ratio or when a codec's shootout payload exceeds max_bits_per_posting. Regenerate with: cargo run --release -p iiu-bench --bin decode_bench -- --write-thresholds BENCH_decode_thresholds.json",
        "fail_above_ratio": ratio,
        "min_ns": Value::Object(gate.clone()),
        "max_bits_per_posting": json!({ "bitpack": bits }),
    })
}

fn main() -> ExitCode {
    let mut out_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut write_thresholds: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| {
            args.next().map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("decode_bench: {arg} needs a path argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = Some(path_arg(&mut args)),
            "--check" => check_path = Some(path_arg(&mut args)),
            "--write-thresholds" => write_thresholds = Some(path_arg(&mut args)),
            "--smoke" => return run_smoke(),
            other => {
                eprintln!(
                    "decode_bench: unknown argument {other} \
                     (expected --smoke or --out/--check/--write-thresholds <path>)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let root = iiu_bench::workspace_root().unwrap_or_else(|| PathBuf::from("."));
    let out_path = out_path.unwrap_or_else(|| root.join("BENCH_decode.json"));

    println!("== decode kernels: scalar (before) vs batch (after), {KERNEL_N} values ==");
    let mut gate = Map::new();
    let kernels = bench_kernels(&mut gate);

    println!("== end-to-end baseline engine, {E2E_DOCS} docs, {N_QUERIES} queries/type ==");
    let index = CorpusConfig::ccnews_like(E2E_DOCS).generate().into_default_index();
    let e2e = bench_e2e(&index, &mut gate);

    println!("== pruned vs exhaustive top-k, k in {PRUNED_KS:?} ==");
    let pruned = bench_pruned(&index, &mut gate);

    println!(
        "== codec shootout: bitpack x widths {GATED_WIDTHS:?}, \
         {SHOOTOUT_BLOCKS} x {SHOOTOUT_BLOCK}-posting blocks =="
    );
    let shootout = bench_codec_shootout(&mut gate);

    let widths_4_20: Vec<f64> = kernels
        .iter()
        .filter(|r| (4..=20).contains(&r["width"].as_u64().unwrap_or(0)))
        .map(|r| r["speedup_min"].as_f64().unwrap_or(0.0))
        .collect();
    let min_speedup_4_20 = widths_4_20.iter().copied().fold(f64::INFINITY, f64::min);

    let report = json!({
        "schema": "decode-bench-v1",
        "kernel_values": KERNEL_N,
        "e2e_docs": E2E_DOCS,
        "kernels": Value::Array(kernels),
        "min_kernel_speedup_widths_4_20": min_speedup_4_20,
        "e2e": e2e,
        "pruned": pruned.clone(),
        "codec_shootout": shootout.clone(),
        "gate_min_ns": Value::Object(gate.clone()),
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    if let Err(e) = std::fs::write(&out_path, text + "\n") {
        eprintln!("decode_bench: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("[wrote {}]", out_path.display());

    if let Some(path) = write_thresholds {
        let t = serde_json::to_string_pretty(&thresholds_from(&gate, &shootout, 1.25))
            .expect("serializable");
        if let Err(e) = std::fs::write(&path, t + "\n") {
            eprintln!("decode_bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("[wrote {}]", path.display());
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("decode_bench: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let thresholds = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("decode_bench: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut violations = check_thresholds(&gate, &thresholds);
        // Latency thresholds alone can't prove pruning pays off; also
        // require the k=10 single-term win and that blocks were skipped.
        let k10 = &pruned["single"]["k10"];
        let gain = k10["qps_gain"].as_f64().unwrap_or(0.0);
        if gain < PRUNED_SINGLE_K10_MIN_GAIN {
            violations.push(format!(
                "pruned single k=10 qps_gain {gain:.2} below required {PRUNED_SINGLE_K10_MIN_GAIN}"
            ));
        }
        if k10["blocks_skipped"].as_u64().unwrap_or(0) == 0 {
            violations.push("pruned single k=10 skipped no blocks".to_string());
        }
        // Two-term pruning has to pay for its bookkeeping on the wall, not
        // only in the tallies: against the exhaustive engine of this same
        // process, so the rule needs no committed number.
        for shape in ["and", "or"] {
            let k10 = &pruned[shape]["k10"];
            let exhaustive = k10["exhaustive_min_ns"].as_f64().unwrap_or(0.0);
            let with_pruning = k10["pruned_min_ns"].as_f64().unwrap_or(f64::INFINITY);
            if with_pruning.partial_cmp(&exhaustive) != Some(std::cmp::Ordering::Less) {
                violations.push(format!(
                    "pruned {shape} k=10 ({with_pruning:.0} ns) does not beat exhaustive \
                     {shape} ({exhaustive:.0} ns)"
                ));
            }
        }
        // The exact compression bound of `thresholds_from`.
        let bits = shootout["aggregate"]["bitpack"]["payload_bits_per_posting"].as_f64();
        let bound = thresholds["max_bits_per_posting"]["bitpack"].as_f64();
        if let (Some(bits), Some(bound)) = (bits, bound) {
            if bits > bound {
                violations.push(format!(
                    "bitpack: {bits:.3} bits/posting exceeds committed {bound:.3}"
                ));
            }
        }
        if violations.is_empty() {
            println!("decode gate: OK ({} metrics within threshold)", gate.len());
        } else {
            for v in &violations {
                eprintln!("decode gate: REGRESSION: {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
