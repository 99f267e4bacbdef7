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
//!   the zero-copy hot path — after the lazy record CRC is paid once, a
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
//! The **RSS gate** re-execs this binary (`--rss-child`): the child
//! streams a ≥1M-doc corpus to disk with `generate_streamed` (peak memory
//! independent of the posting count), serves pruned top-k through a fresh
//! mapping of it, and reports its own `VmHWM`. `--check` fails if the
//! child's peak RSS exceeds the committed `rss_max_kb` — the bound that
//! proves gen → mmap-serve never materializes the corpus.
//!
//! Writes `BENCH_mmap.json` at the workspace root. `--check
//! <thresholds.json>` compares against committed thresholds and exits
//! nonzero on regression; `--write-thresholds <path>` emits a fresh
//! thresholds file; `--smoke` runs only the source-equivalence checks on
//! a small corpus (no timing, no RSS child) — the `verify.sh --quick`
//! variant.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the iiu-bench lib crate).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use iiu_baseline::CpuEngine;
use iiu_bench::micro::bench_with;
use iiu_index::{storage, Bm25Params, InvertedIndex, Partitioner, Posting, TermId};
use iiu_workloads::{CorpusConfig, QuerySampler};
use serde_json::{json, Map, Value};

/// Documents in the timed corpus (matches the decode gate's e2e corpus).
const E2E_DOCS: u32 = 60_000;
/// Queries sampled per shape.
const N_QUERIES: usize = 32;
/// High-df lists in the block-decode micro.
const DECODE_LISTS: usize = 4;
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

/// Runs the pruned query of `shape` number `i` on `engine`.
fn run_query(
    engine: &mut CpuEngine,
    shape: &str,
    singles: &[String],
    pairs: &[(String, String)],
    i: usize,
    k: usize,
) -> Vec<iiu_baseline::Hit> {
    match shape {
        "single" => engine.search_single(&singles[i % singles.len()], k),
        "and" => {
            let (a, b) = &pairs[i % pairs.len()];
            engine.search_intersection(a, b, k)
        }
        _ => {
            let (a, b) = &pairs[i % pairs.len()];
            engine.search_union(a, b, k)
        }
    }
    .expect("sampled terms resolve")
    .hits
}

/// Proves the two sources interchangeable: index equality plus
/// bit-identical pruned hits for every shape. Panics on divergence.
fn assert_source_equivalence(
    heap: &InvertedIndex,
    mapped: &InvertedIndex,
    singles: &[String],
    pairs: &[(String, String)],
) {
    assert!(mapped.source().is_mapped() && !heap.source().is_mapped());
    assert_eq!(mapped, heap, "mapped load must equal heap load");
    let mut eh = CpuEngine::new(heap).with_pruning(true);
    let mut em = CpuEngine::new(mapped).with_pruning(true);
    for shape in ["single", "and", "or"] {
        for i in 0..N_QUERIES {
            let h = run_query(&mut eh, shape, singles, pairs, i, 10);
            let m = run_query(&mut em, shape, singles, pairs, i, 10);
            assert_eq!(h, m, "mmap {shape} hits diverged from heap at query {i}");
        }
    }
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
    let mut sampler = QuerySampler::with_bias(&index, 42, 1.0, 64);
    let singles = sampler.single_queries(RSS_QUERIES);
    let pairs = sampler.pair_queries(RSS_QUERIES);
    let mut engine = CpuEngine::new(&index).with_pruning(true);
    let mut hits = 0usize;
    for shape in ["single", "and", "or"] {
        for i in 0..RSS_QUERIES {
            hits += run_query(&mut engine, shape, &singles, &pairs, i, 10).len();
        }
    }
    assert!(hits > 0, "RSS-gate queries returned no hits");

    let resident_kb = index.source().resident_bytes().map(|b| b / 1024);
    drop(engine);
    drop(index);
    let _ = std::fs::remove_file(&path);
    let report = json!({
            "docs": stats.docs,
            "terms": stats.terms,
            "postings": stats.postings,
            "file_bytes": file_bytes,
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
    let mut sampler = QuerySampler::with_bias(&heap, 42, 1.0, 8);
    let singles = sampler.single_queries(N_QUERIES);
    let pairs = sampler.pair_queries(N_QUERIES);
    assert_source_equivalence(&heap, &mapped, &singles, &pairs);
    let _ = std::fs::remove_file(&path);
    println!(
        "mmap smoke: OK (heap and mapped loads equal, {} queries x 3 shapes bit-identical)",
        N_QUERIES
    );
    ExitCode::SUCCESS
}

/// Checks this run's gated metrics against committed thresholds (same
/// `min_ns`/`fail_above_ratio` schema as the decode gate).
fn check_min_ns(gate: &Map, thresholds: &Value) -> Vec<String> {
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

fn main() -> ExitCode {
    let mut out_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut write_thresholds: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| {
            args.next().map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("mmap_bench: {arg} needs a path argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = Some(path_arg(&mut args)),
            "--check" => check_path = Some(path_arg(&mut args)),
            "--write-thresholds" => write_thresholds = Some(path_arg(&mut args)),
            "--smoke" => return run_smoke(),
            "--rss-child" => return run_rss_child(),
            other => {
                eprintln!(
                    "mmap_bench: unknown argument {other} \
                     (expected --smoke or --out/--check/--write-thresholds <path>)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let root = iiu_bench::workspace_root().unwrap_or_else(|| PathBuf::from("."));
    let out_path = out_path.unwrap_or_else(|| root.join("BENCH_mmap.json"));

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

    let mut sampler = QuerySampler::with_bias(&heap, 42, 1.0, 64);
    let singles = sampler.single_queries(N_QUERIES);
    let pairs = sampler.pair_queries(N_QUERIES);

    // Correctness before timing — this sweep also warms every mapped page
    // and pays each record's lazy CRC exactly once.
    assert_source_equivalence(&heap, &mapped, &singles, &pairs);
    println!("source equivalence: OK (equal indexes, bit-identical pruned hits)");

    let mut gate = Map::new();

    // Block decode straight out of the warm mapping vs owned heap bytes.
    let ids = top_df_terms(&heap, DECODE_LISTS);
    let mut scratch: Vec<Posting> = Vec::new();
    let decoded = decode_lists(&heap, &ids, &mut scratch);
    let heap_dec =
        bench_with("decode/heap", 6, 24, &mut || decode_lists(&heap, &ids, &mut scratch));
    let mmap_dec =
        bench_with("decode/mmap", 6, 24, &mut || decode_lists(&mapped, &ids, &mut scratch));
    gate.insert("block_decode_heap".into(), json!(heap_dec.min_ns));
    gate.insert("block_decode_mmap".into(), json!(mmap_dec.min_ns));
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
    for shape in ["single", "and", "or"] {
        let mut i = 0usize;
        let h = bench_with(&format!("e2e/{shape}/heap"), 8, 30, &mut || {
            i += 1;
            run_query(&mut eh, shape, &singles, &pairs, i - 1, 10).len()
        });
        let mut j = 0usize;
        let m = bench_with(&format!("e2e/{shape}/mmap"), 8, 30, &mut || {
            j += 1;
            run_query(&mut em, shape, &singles, &pairs, j - 1, 10).len()
        });
        gate.insert(format!("e2e_{shape}_mmap"), json!(m.min_ns));
        e2e.insert(
            shape.to_string(),
            json!({
                "heap_min_ns": h.min_ns,
                "mmap_min_ns": m.min_ns,
                "warm_ratio": m.min_ns / h.min_ns,
            }),
        );
    }

    // Cold page cache: advisory — fadvise may be a no-op in containers.
    drop(em);
    drop(mapped);
    let evicted = iiu_index::mmap::evict_from_page_cache(&path);
    let cold_map = storage::map_index(&path).expect("cold mapped load");
    let mut ec = CpuEngine::new(&cold_map).with_pruning(true);
    let t0 = Instant::now();
    let mut cold_hits = 0usize;
    for i in 0..N_QUERIES {
        cold_hits += run_query(&mut ec, "single", &singles, &pairs, i, 10).len();
    }
    let cold_sweep_ns = t0.elapsed().as_nanos() as u64;
    let cold = json!({
        "evicted": evicted,
        "sweep_queries": N_QUERIES,
        "sweep_ns": cold_sweep_ns,
        "hits": cold_hits,
    });
    drop(ec);
    drop(cold_map);
    let _ = std::fs::remove_file(&path);

    println!("== RSS gate: streamed {RSS_DOCS}-doc corpus served through mmap (child) ==");
    let rss = run_rss_gate();
    println!(
        "rss child: {} docs, {} postings, {} KiB file, VmHWM {} KiB",
        rss["docs"].as_u64().unwrap_or(0),
        rss["postings"].as_u64().unwrap_or(0),
        rss["file_bytes"].as_u64().unwrap_or(0) / 1024,
        rss["vm_hwm_kb"].as_u64().unwrap_or(0)
    );

    let report = json!({
        "schema": "mmap-bench-v1",
        "e2e_docs": E2E_DOCS,
        "block_decode": decode.clone(),
        "e2e": Value::Object(e2e.clone()),
        "cold": cold,
        "rss_gate": rss.clone(),
        "gate_min_ns": Value::Object(gate.clone()),
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    if let Err(e) = std::fs::write(&out_path, text + "\n") {
        eprintln!("mmap_bench: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("[wrote {}]", out_path.display());

    if let Some(path) = write_thresholds {
        let t = json!({
            "schema": "mmap-gate-thresholds-v1",
            "comment": "min_ns baselines for the mmap storage gate; a run fails when measured > baseline * fail_above_ratio, when a warm mapped decode/query exceeds its same-run heap time by more than max_warm_ratio, or when the streamed-gen + mmap-serve child's peak RSS exceeds rss_max_kb. Regenerate with: cargo run --release -p iiu-bench --bin mmap_bench -- --write-thresholds BENCH_mmap_thresholds.json",
            "fail_above_ratio": 1.25,
            "max_warm_ratio": 1.5,
            "rss_max_kb": 262_144,
            "min_ns": Value::Object(gate.clone()),
        });
        let t = serde_json::to_string_pretty(&t).expect("serializable");
        if let Err(e) = std::fs::write(&path, t + "\n") {
            eprintln!("mmap_bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("[wrote {}]", path.display());
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mmap_bench: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let thresholds: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("mmap_bench: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut violations = check_min_ns(&gate, &thresholds);
        // Warm mapped access must stay within a small factor of in-RAM —
        // compared within this run, so absolute machine speed cancels.
        let max_warm = thresholds["max_warm_ratio"].as_f64().unwrap_or(1.5);
        let dec_ratio = decode["warm_ratio"].as_f64().unwrap_or(f64::INFINITY);
        if dec_ratio > max_warm {
            violations.push(format!(
                "warm mapped block decode is {dec_ratio:.2}x heap (allowed {max_warm}x)"
            ));
        }
        for (shape, row) in &e2e {
            let r = row["warm_ratio"].as_f64().unwrap_or(f64::INFINITY);
            if r > max_warm {
                violations.push(format!(
                    "warm mapped {shape} query is {r:.2}x heap (allowed {max_warm}x)"
                ));
            }
        }
        // The ≥1M-doc bounded-RSS acceptance bound.
        let rss_max = thresholds["rss_max_kb"].as_u64().unwrap_or(u64::MAX);
        let hwm = rss["vm_hwm_kb"].as_u64();
        match hwm {
            None => violations.push("RSS child reported no VmHWM".to_string()),
            Some(kb) if kb > rss_max => violations.push(format!(
                "RSS child peaked at {kb} KiB, exceeds committed {rss_max} KiB"
            )),
            Some(_) => {}
        }
        if rss["docs"].as_u64().unwrap_or(0) < u64::from(RSS_DOCS) {
            violations.push("RSS child corpus is under the 1M-doc bound".to_string());
        }
        if violations.is_empty() {
            println!("mmap gate: OK ({} metrics within threshold)", gate.len() + 5);
        } else {
            for v in &violations {
                eprintln!("mmap gate: REGRESSION: {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
