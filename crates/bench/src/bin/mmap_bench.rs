//! The mmap storage perf gate (DESIGN.md §19).
//!
//! Serializes a medium synthetic corpus to a temp file, loads it twice —
//! materialized on the heap (`deserialize`) and zero-copy through the
//! mapped loader (`storage::map_index`) — and proves the two sources are
//! interchangeable before timing anything: the indexes compare equal and
//! block-max pruned top-k returns bit-identical hits for single/AND/OR
//! queries across both.
//!
//! Timed sections:
//!
//! - **Block decode**: every block of the highest-df lists decoded
//!   straight out of the warm mapping vs out of owned heap bytes. This is
//!   the zero-copy hot path — after the lazy first touch is paid once, a
//!   warm mapped decode must stay within a small factor of in-RAM
//!   (`max_warm_ratio` in the thresholds file, checked within-run so
//!   machine speed cancels out).
//! - **End-to-end**: pruned top-k per query shape on both sources, same
//!   within-run warm-ratio rule plus committed `min_ns` baselines.
//! - **Cold page cache**: the file's pages are evicted
//!   (`posix_fadvise(DONTNEED)`) and one query sweep is timed against a
//!   fresh mapping. Advisory only — containers may ignore the advice —
//!   so the report records whether eviction worked but `--check` does not
//!   gate on cold numbers.
//!
//! - **Checksum and open**: the CRC32 kernel's throughput over an 8 MiB
//!   buffer, the heap open (read the file and `deserialize`, every
//!   checksum and every list's first touch verified; median and minimum)
//!   and mapped open (`map_index`: header, section table, doc table,
//!   block columns and term directory checked, no payload byte read) of
//!   the timed corpus, and the first touch a mapped index defers
//!   (`verify_term` on every list of a fresh mapping: list CRC, structure
//!   and content oracle) in ns per posting. Report-only: none of them is
//!   a gated `min_ns` metric.
//!
//! The **RSS gate** re-execs this binary (`--rss-child`): the child
//! streams a ≥1M-doc corpus to disk with `generate_streamed` (peak memory
//! independent of the posting count), serves pruned top-k through a fresh
//! mapping of it, and reports its own `VmHWM`. `--check` fails if the
//! child's peak RSS exceeds the committed `rss_max_kb` — the bound that
//! proves gen → mmap-serve never materializes the corpus. The row also
//! reports what the mapped open keeps on the heap
//! (`mapped_heap_bytes`, [`InvertedIndex::heap_bytes`]) and its ratio to
//! the file (`mapped_heap_to_file`); neither is gated.
//!
//! Writes `BENCH_mmap.json` at the workspace root; `--out`, `--check`
//! and `--write-thresholds` are [`iiu_bench::gate`]'s, with a
//! `fail_above_ratio` of 1.25 on `min_ns`. `--smoke` runs only the
//! source-equivalence checks on a small corpus (no timing, no RSS child)
//! — the `verify.sh --quick` variant.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the iiu-bench lib crate).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use iiu_baseline::CpuEngine;
use iiu_bench::gate::{self, Args, Queries, Run, Shape};
use iiu_bench::micro::bench_with;
use iiu_index::{storage, Bm25Params, InvertedIndex, Partitioner, Posting, TermId};
use iiu_workloads::CorpusConfig;
use serde_json::{json, Map, Value};

/// Documents in the timed corpus (matches the decode gate's e2e corpus).
const E2E_DOCS: u32 = 60_000;
/// Queries sampled per shape.
const N_QUERIES: usize = 32;
/// High-df lists in the block-decode micro.
const DECODE_LISTS: usize = 4;
/// Bytes the CRC32 throughput row hashes per iteration.
const CRC_BYTES: usize = 8 << 20;
/// Timed opens per loader in the checksum-and-open row.
const OPEN_SAMPLES: usize = 15;
/// Documents in the RSS-gate corpus (the ≥1M-doc acceptance bound).
const RSS_DOCS: u32 = 1_000_000;
/// Vocabulary of the RSS-gate corpus — lighter than the presets'
/// `n_docs / 2` so the gate finishes in bench time while still writing
/// millions of postings.
const RSS_TERMS: u32 = 100_000;
/// Queries the RSS child serves through the mapping per shape.
const RSS_QUERIES: usize = 32;

/// The RSS-gate corpus: ≥1M docs with a vocabulary light enough for the
/// verify gate (~8M postings, tens of MiB on disk).
fn rss_corpus() -> CorpusConfig {
    CorpusConfig {
        n_docs: RSS_DOCS,
        n_terms: RSS_TERMS,
        zipf_s: 0.65,
        max_df_fraction: 0.05,
        avg_doc_len: 400,
        mean_tf: 1.6,
        clustering: 0.9,
        seed: 0x11A9,
    }
}

/// Scratch temp-file path unique to this process.
fn temp_index_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iiu-mmap-bench-{tag}-{}.iiu", std::process::id()))
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Term ids of the `n` highest-df lists.
fn top_df_terms(index: &InvertedIndex, n: usize) -> Vec<TermId> {
    let mut ids: Vec<TermId> = (0..index.num_terms() as TermId).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(index.term_info(id).df));
    ids.truncate(n);
    ids
}

/// Decodes every block of every list in `ids`, panicking on any decode
/// error (these are self-produced indexes). Returns total postings.
fn decode_lists(index: &InvertedIndex, ids: &[TermId], out: &mut Vec<Posting>) -> usize {
    let mut total = 0usize;
    for &id in ids {
        let list = index.encoded_list(id);
        for b in 0..list.num_blocks() {
            out.clear();
            list.try_decode_block_into(b, out).expect("self-produced block");
            total += out.len();
        }
    }
    total
}

/// Proves the two sources interchangeable: index equality plus
/// bit-identical pruned hits for every shape. Panics on divergence.
fn assert_source_equivalence(heap: &InvertedIndex, mapped: &InvertedIndex, queries: &Queries) {
    assert!(mapped.source().is_mapped() && !heap.source().is_mapped());
    assert_eq!(mapped, heap, "mapped load must equal heap load");
    let mut eh = CpuEngine::new(heap).with_pruning(true);
    let mut em = CpuEngine::new(mapped).with_pruning(true);
    for shape in Shape::ALL {
        for i in 0..N_QUERIES {
            let h = queries.run(&mut eh, shape, i, 10).hits;
            let m = queries.run(&mut em, shape, i, 10).hits;
            assert_eq!(h, m, "mmap {} hits diverged from heap at query {i}", shape.name());
        }
    }
}

/// The checksum-and-open row, printed and returned: CRC32 MB/s over
/// [`CRC_BYTES`], the median and fastest heap open and the median mapped
/// open of the index at `path` in ms, and the median first touch of every
/// list of a fresh mapping of it (its own mapping per sample, untimed) in
/// ns per posting.
fn checksum_and_open(path: &std::path::Path, heap: &InvertedIndex) -> Value {
    let buf: Vec<u8> =
        (0..CRC_BYTES).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) as u8).collect();
    let crc = bench_with("crc32/8MiB", 8, 40, &mut || {
        iiu_index::checksum::crc32(std::hint::black_box(&buf))
    });
    let heap_open = bench_with("open/heap", OPEN_SAMPLES, 1, &mut || {
        let bytes = std::fs::read(path).expect("read temp index");
        iiu_index::io::deserialize(&bytes).expect("heap load")
    });
    let mapped = bench_with("open/mmap", OPEN_SAMPLES, 1, &mut || {
        storage::map_index(path).expect("mapped load")
    });
    let mut touch_ns: Vec<f64> = (0..OPEN_SAMPLES)
        .map(|_| {
            let fresh = storage::map_index(path).expect("mapped load");
            let start = Instant::now();
            for id in 0..fresh.num_terms() as TermId {
                fresh.verify_term(id).expect("a self-produced list passes its first touch");
            }
            start.elapsed().as_nanos() as f64
        })
        .collect();
    touch_ns.sort_by(f64::total_cmp);
    let postings = heap.size_stats().postings as f64;
    let (mb_per_s, heap_ms, heap_min_ms, mapped_ms, touch_ns) = (
        CRC_BYTES as f64 * 1e3 / crc.median_ns,
        heap_open.median_ns / 1e6,
        heap_open.min_ns / 1e6,
        mapped.median_ns / 1e6,
        touch_ns[touch_ns.len() / 2] / postings,
    );
    println!(
        "checksum: crc32 {mb_per_s:.0} MB/s, heap open {heap_ms:.1} ms (min {heap_min_ms:.1}), \
         mapped open {mapped_ms:.1} ms, first touch {touch_ns:.1} ns/posting"
    );
    json!({
        "crc32_mb_per_s": mb_per_s,
        "heap_open_ms": heap_ms,
        "heap_open_min_ms": heap_min_ms,
        "mapped_open_ms": mapped_ms,
        "first_touch_ns_per_posting": touch_ns,
    })
}

/// `--rss-child`: stream the ≥1M-doc corpus to disk, serve pruned top-k
/// through a fresh mapping, and report this process's peak RSS as JSON on
/// stdout. Run in a child process so the parent's own allocations don't
/// pollute `VmHWM`.
fn run_rss_child() -> ExitCode {
    let path = temp_index_path("rss");
    let cfg = rss_corpus();
    let file = std::fs::File::create(&path).expect("create RSS temp file");
    let (_, stats) = cfg
        .generate_streamed(
            std::io::BufWriter::new(file),
            Partitioner::default(),
            Bm25Params::default(),
        )
        .expect("streamed generation");
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let index = storage::map_index(&path).expect("map streamed index");
    // What the open keeps on the heap beside the mapping (report only).
    let mapped_heap_bytes = index.heap_bytes().total();
    let queries = Queries::sample(&index, 64, RSS_QUERIES);
    let mut engine = CpuEngine::new(&index).with_pruning(true);
    let mut hits = 0usize;
    for shape in Shape::ALL {
        for i in 0..RSS_QUERIES {
            hits += queries.run(&mut engine, shape, i, 10).hits.len();
        }
    }
    assert!(hits > 0, "RSS-gate queries returned no hits");

    let resident_kb = index.source().resident_bytes().map(|b| b / 1024);
    drop(index);
    let _ = std::fs::remove_file(&path);
    let report = json!({
            "docs": stats.docs,
            "terms": stats.terms,
            "postings": stats.postings,
            "file_bytes": file_bytes,
            "mapped_heap_bytes": mapped_heap_bytes,
            "mapped_heap_to_file": mapped_heap_bytes as f64 / file_bytes.max(1) as f64,
            "mapped_resident_kb": resident_kb,
            "vm_hwm_kb": vm_hwm_kb(),
            "hits": hits,
    });
    println!("{}", serde_json::to_string(&report).expect("serializable"));
    ExitCode::SUCCESS
}

/// Spawns the RSS child and parses its JSON report.
fn run_rss_gate() -> Value {
    let exe = std::env::current_exe().expect("own path");
    let out =
        std::process::Command::new(exe).arg("--rss-child").output().expect("spawn RSS child");
    assert!(
        out.status.success(),
        "RSS child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child stdout is UTF-8");
    let line = text.lines().last().expect("child printed a report");
    serde_json::from_str(line).expect("child report parses")
}

/// `--smoke`: source equivalence only, on a small corpus. No timing, no
/// RSS child.
fn run_smoke() -> ExitCode {
    let path = temp_index_path("smoke");
    let index = CorpusConfig::tiny(0x5EED).generate().into_default_index();
    let bytes = iiu_index::io::serialize(&index).expect("serialize");
    std::fs::write(&path, &bytes).expect("write temp index");
    let heap = iiu_index::io::deserialize(&bytes).expect("heap load");
    let mapped = storage::map_index(&path).expect("mapped load");
    assert_source_equivalence(&heap, &mapped, &Queries::sample(&heap, 8, N_QUERIES));
    let _ = std::fs::remove_file(&path);
    println!(
        "mmap smoke: OK (heap and mapped loads equal, {} queries x 3 shapes bit-identical)",
        N_QUERIES
    );
    ExitCode::SUCCESS
}

/// The relational rules `--check` adds to the committed thresholds.
fn rules(decode: &Value, e2e: &Map, rss: &Value, committed: &Value) -> Vec<String> {
    let mut broken = Vec::new();
    // Warm mapped access must stay within a small factor of in-RAM —
    // compared within this run, so absolute machine speed cancels.
    match gate::number(committed, &["max_warm_ratio"]) {
        None => broken.push("thresholds file has no numeric max_warm_ratio".to_string()),
        Some(max_warm) => {
            let dec_ratio = decode["warm_ratio"].as_f64().unwrap_or(f64::INFINITY);
            if dec_ratio > max_warm {
                broken.push(format!(
                    "warm mapped block decode is {dec_ratio:.2}x heap (allowed {max_warm}x)"
                ));
            }
            for (shape, row) in e2e {
                let r = row["warm_ratio"].as_f64().unwrap_or(f64::INFINITY);
                if r > max_warm {
                    broken.push(format!(
                        "warm mapped {shape} query is {r:.2}x heap (allowed {max_warm}x)"
                    ));
                }
            }
        }
    }
    // The ≥1M-doc bounded-RSS acceptance bound.
    match (gate::number(committed, &["rss_max_kb"]), rss["vm_hwm_kb"].as_f64()) {
        (None, _) => broken.push("thresholds file has no numeric rss_max_kb".to_string()),
        (_, None) => broken.push("RSS child reported no VmHWM".to_string()),
        (Some(rss_max), Some(kb)) if kb > rss_max => broken
            .push(format!("RSS child peaked at {kb} KiB, exceeds committed {rss_max} KiB")),
        _ => {}
    }
    if rss["docs"].as_u64().unwrap_or(0) < u64::from(RSS_DOCS) {
        broken.push("RSS child corpus is under the 1M-doc bound".to_string());
    }
    broken
}

fn main() -> ExitCode {
    let args = Args::parse("mmap_bench", "BENCH_mmap.json", &["--smoke", "--rss-child"]);
    match args.switch {
        Some("--smoke") => return run_smoke(),
        Some(_) => return run_rss_child(),
        None => {}
    }

    println!("== mmap vs heap: {E2E_DOCS}-doc corpus, {N_QUERIES} queries/shape ==");
    let path = temp_index_path("e2e");
    let bytes = {
        let index = CorpusConfig::ccnews_like(E2E_DOCS).generate().into_default_index();
        iiu_index::io::serialize(&index).expect("serialize")
    };
    std::fs::write(&path, &bytes).expect("write temp index");
    let heap = iiu_index::io::deserialize(&bytes).expect("heap load");
    drop(bytes);
    let mapped = storage::map_index(&path).expect("mapped load");

    let queries = Queries::sample(&heap, 64, N_QUERIES);

    // Correctness before timing — this sweep also warms every mapped page
    // and pays each record's lazy CRC exactly once.
    assert_source_equivalence(&heap, &mapped, &queries);
    println!("source equivalence: OK (equal indexes, bit-identical pruned hits)");

    let checksum = checksum_and_open(&path, &heap);

    let mut run = Run::new("mmap", "min_ns");

    // Block decode straight out of the warm mapping vs owned heap bytes.
    let ids = top_df_terms(&heap, DECODE_LISTS);
    let mut scratch: Vec<Posting> = Vec::new();
    let decoded = decode_lists(&heap, &ids, &mut scratch);
    let heap_dec =
        bench_with("decode/heap", 6, 24, &mut || decode_lists(&heap, &ids, &mut scratch));
    let mmap_dec =
        bench_with("decode/mmap", 6, 24, &mut || decode_lists(&mapped, &ids, &mut scratch));
    run.metrics.insert("block_decode_heap".into(), json!(heap_dec.min_ns));
    run.metrics.insert("block_decode_mmap".into(), json!(mmap_dec.min_ns));
    let decode = json!({
        "lists": DECODE_LISTS,
        "postings_per_iter": decoded,
        "heap_min_ns": heap_dec.min_ns,
        "mmap_min_ns": mmap_dec.min_ns,
        "warm_ratio": mmap_dec.min_ns / heap_dec.min_ns,
    });

    // End-to-end pruned top-k per shape on both sources.
    let mut eh = CpuEngine::new(&heap).with_pruning(true);
    let mut em = CpuEngine::new(&mapped).with_pruning(true);
    let mut e2e = Map::new();
    for shape in Shape::ALL {
        let name = shape.name();
        let h = queries.time(&format!("e2e/{name}/heap"), &mut eh, shape, 10);
        let m = queries.time(&format!("e2e/{name}/mmap"), &mut em, shape, 10);
        run.metrics.insert(format!("e2e_{name}_mmap"), json!(m.min_ns));
        e2e.insert(
            name.to_string(),
            json!({
                "heap_min_ns": h.min_ns,
                "mmap_min_ns": m.min_ns,
                "warm_ratio": m.min_ns / h.min_ns,
            }),
        );
    }

    // Cold page cache: advisory — fadvise may be a no-op in containers.
    drop(mapped);
    let evicted = iiu_index::mmap::evict_from_page_cache(&path);
    let cold_map = storage::map_index(&path).expect("cold mapped load");
    let mut ec = CpuEngine::new(&cold_map).with_pruning(true);
    let t0 = Instant::now();
    let mut cold_hits = 0usize;
    for i in 0..N_QUERIES {
        cold_hits += queries.run(&mut ec, Shape::Single, i, 10).hits.len();
    }
    let cold_sweep_ns = t0.elapsed().as_nanos() as u64;
    let cold = json!({
        "evicted": evicted,
        "sweep_queries": N_QUERIES,
        "sweep_ns": cold_sweep_ns,
        "hits": cold_hits,
    });
    drop(cold_map);
    let _ = std::fs::remove_file(&path);

    println!("== RSS gate: streamed {RSS_DOCS}-doc corpus served through mmap (child) ==");
    let rss = run_rss_gate();
    println!(
        "rss child: {} docs, {} postings, {} KiB file, {} KiB mapped-open heap, VmHWM {} KiB",
        rss["docs"].as_u64().unwrap_or(0),
        rss["postings"].as_u64().unwrap_or(0),
        rss["file_bytes"].as_u64().unwrap_or(0) / 1024,
        rss["mapped_heap_bytes"].as_u64().unwrap_or(0) / 1024,
        rss["vm_hwm_kb"].as_u64().unwrap_or(0)
    );

    let report = json!({
        "schema": "mmap-bench-v1",
        "e2e_docs": E2E_DOCS,
        "block_decode": decode.clone(),
        "e2e": Value::Object(e2e.clone()),
        "cold": cold,
        "checksum": checksum,
        "rss_gate": rss.clone(),
    });
    let template = json!({
        "schema": "mmap-gate-thresholds-v1",
        "comment": "min_ns baselines for the mmap storage gate; a run fails when measured > baseline * fail_above_ratio, when a warm mapped decode/query exceeds its same-run heap time by more than max_warm_ratio, or when the streamed-gen + mmap-serve child's peak RSS exceeds rss_max_kb. Regenerate with: cargo run --release -p iiu-bench --bin mmap_bench -- --write-thresholds BENCH_mmap_thresholds.json",
        "fail_above_ratio": 1.25,
        "max_warm_ratio": 1.5,
        "rss_max_kb": 262_144,
    });
    run.finish(&args, report, template, |committed| rules(&decode, &e2e, &rss, committed))
}
