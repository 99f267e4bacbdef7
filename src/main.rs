//! `iiu` — command-line front end of the reproduction.
//!
//! ```text
//! iiu gen     <index-file> [--docs N] [--preset ccnews|clueweb] [--seed S]
//! iiu build   <corpus.txt> <index-file> [--max-size N] [--positions yes]
//! iiu ingest  <index-dir> [--docs N] [--batch B] [--preset ccnews|clueweb] [--seed S]
//!             [--seal-every N] [--merge-every N] [--file corpus.txt] [--seal yes]
//! iiu stats   <index-file|index-dir>
//! iiu inspect <index-file|index-dir> [--fault-rate R] [--trials N] [--seed S]
//! iiu search  <index-file> "<query>" [--k N] [--engine cpu|iiu|both] [--cores N]
//!             [--shards N]
//! iiu serve-bench <index-file> [--workers N] [--rate QPS] [--queries N]
//!                 [--deadline-ms MS] [--fault-rate R] [--seed S] [--shards N]
//!                 [--shard-fault-rate R] [--shard-stall-rate R]
//!                 [--shard-stall-ms MS] [--fail-closed yes]
//! ```
//!
//! `gen` writes an index over a synthetic Zipfian corpus; `build` indexes a
//! text file (one document per line), optionally with a positional sidecar
//! (`<index-file>.pos`) that enables quoted phrase queries; `ingest` streams
//! documents into a crash-safe incremental index *directory* (WAL + sealed
//! segments) that every other command accepts wherever it accepts an index
//! file; `inspect`
//! verifies checksums and structural invariants, optionally fuzzing the
//! file with deterministic corruptions; `search` runs a boolean query on
//! the baseline engine, the simulated accelerator, or both, auto-loading
//! the sidecar when present; `serve-bench` drives the resilient serving
//! layer with a Poisson open-loop query stream and reports tail latency,
//! shed rate and circuit-breaker activity.

use std::process::ExitCode;
use std::sync::Arc;

use iiu_core::{
    CpuSearchEngine, IiuSearchEngine, PartSource, Query, SearchEngine, SearchResponse,
    ShardedSearchEngine,
};
use iiu_index::io::{deserialize, serialize};
use iiu_index::{
    corrupt, Bm25Params, BuildOptions, IncrementalIndex, IncrementalOptions, IndexBuilder,
    IndexError, IngestDoc, InvertedIndex, Partitioner, PositionIndex,
};
use iiu_serve::{FaultPlan, QueryService, ServeConfig};
use iiu_workloads::{CorpusConfig, TrafficConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("serve-bench") => cmd_serve_bench(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "iiu — reproduction of 'IIU: Specialized Architecture for Inverted Index Search'\n\
         \n\
         USAGE:\n\
         \x20 iiu gen     <index-file> [--docs N] [--preset ccnews|clueweb] [--seed S]\n\
         \x20             [--stream yes] [--terms N] [--max-df F]\n\
         \x20 iiu build   <corpus.txt> <index-file> [--max-size N] [--positions yes]\n\
         \x20 iiu ingest  <index-dir> [--docs N] [--batch B] [--preset ccnews|clueweb]\n\
         \x20             [--seed S] [--seal-every N] [--merge-every N] [--file corpus.txt]\n\
         \x20             [--seal yes]\n\
         \x20 iiu stats   <index-file|index-dir> [--mmap yes]\n\
         \x20 iiu inspect <index-file|index-dir> [--fault-rate R] [--trials N] [--seed S]\n\
         \x20             [--mmap yes]\n\
         \x20 iiu search  <index-file> \"<query>\" [--k N] [--engine cpu|iiu|both] [--cores N]\n\
         \x20             [--pruned yes] [--shards N] [--mmap yes]\n\
         \x20 iiu serve-bench <index-file> [--workers N] [--rate QPS] [--queries N]\n\
         \x20                 [--deadline-ms MS] [--fault-rate R] [--seed S] [--unknown-rate R]\n\
         \x20                 [--pruned yes] [--shards N] [--shard-fault-rate R]\n\
         \x20                 [--shard-stall-rate R] [--shard-stall-ms MS] [--fail-closed yes]\n\
         \x20                 [--no-device yes] [--hybrid yes] [--zipf S]\n\
         \n\
         gen --stream yes streams the file to disk term by term (peak\n\
         memory independent of corpus size — the ≥1M-doc path), with\n\
         byte-identical output to the in-memory writer; --terms/--max-df\n\
         override the preset's vocabulary size and head document\n\
         frequency.\n\
         \n\
         --mmap yes memory-maps the index file instead of copying it onto\n\
         the heap: the open checks the header, section table, doc table,\n\
         block columns and term directory and reads no posting byte; the\n\
         directory, columns and payload are read in place out of the OS page\n\
         cache, and each list's first touch checks its CRC, structure, docID\n\
         order and stored bounds once - the checks a heap load runs for\n\
         every list before it returns - so both loads refuse the same files\n\
         and hits are bit-identical to the heap load. stats/inspect report the\n\
         source (heap vs mmap), mapped bytes and a residency estimate;\n\
         inspect additionally cross-checks that the mapped load equals the\n\
         heap load. serve-bench accepts it too. It maps index files only:\n\
         given an incremental index directory it is an error.\n\
         \n\
         --pruned yes runs the CPU engine with block-max pruned top-k:\n\
         whole blocks whose score upper bound cannot reach the current\n\
         top-k threshold are skipped. Results are bit-identical to\n\
         exhaustive scoring; only the work done changes.\n\
         \n\
         --shards N cuts the loaded index into N docID windows, copying\n\
         nothing, and fans each query out across a shard worker pool\n\
         (intra-query parallelism); pruned windows exchange a shared top-k\n\
         threshold. Hits stay bit-identical to the unsharded engine.\n\
         \n\
         serve-bench submits a Poisson open-loop query stream to the\n\
         resilient serving layer (deadlines, load shedding, retry, CPU\n\
         fallback) and reports p50/p99 latency, shed rate, and circuit-\n\
         breaker activity. --fault-rate injects that fraction of device\n\
         stalls to exercise the recovery paths. With --shards N, \n\
         --shard-fault-rate panics that fraction of shard executions and\n\
         --shard-stall-rate stalls that fraction for --shard-stall-ms,\n\
         exercising shard supervision: partial answers are labeled, sick\n\
         shards are quarantined and probed half-open, and per-shard health\n\
         is reported. --fail-closed yes errors on partial coverage instead\n\
         (rescued by an unsharded retry); --no-device yes sabotages every\n\
         device attempt so the whole stream exercises the CPU path.\n\
         --hybrid yes enables per-query parallelism routing: queries whose\n\
         longest postings list is below the heavy-df threshold answer\n\
         inline (inter-query), the rest fan out (intra-query); hits are\n\
         bit-identical either way. --zipf S skews query popularity with a\n\
         Zipf(S) draw over a fixed pool, modeling head-heavy traffic.\n\
         \n\
         ingest streams documents into a crash-safe incremental index\n\
         DIRECTORY: every batch is appended to a CRC-framed write-ahead log\n\
         and fsynced before it is acknowledged, and the in-memory buffer is\n\
         sealed into immutable segment files (atomic tmp+fsync+rename) every\n\
         --seal-every docs. A crash at any byte loses nothing acknowledged:\n\
         the next open replays the WAL and truncates any torn tail. Every\n\
         command that takes an index file also accepts such a directory\n\
         (search, stats, serve-bench load it onto the heap as the\n\
         equivalent one-shot index; inspect prints the recovery report,\n\
         segment layout and WAL state instead of the fault campaign).\n\
         \n\
         inspect verifies the file's section checksums and the decoded\n\
         index's structural invariants. With --fault-rate R (fraction of\n\
         bytes corrupted per trial, e.g. 0.0001) it additionally runs a\n\
         deterministic fault-injection campaign over the file and prints a\n\
         survival report; any panic or silently accepted corruption fails\n\
         the command.\n\
         \n\
         Query syntax: terms, AND, OR, parentheses, and quoted phrases — e.g.\n\
         \x20 \"business AND (cameo OR news)\" or '\"new york\" AND times' (phrases need\n\
         \x20 an index built with --positions yes)."
    );
}

/// Parsed `--flag value` options plus positionals.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Splits `args` into positionals and `--flag value` pairs, rejecting a
/// flag not named in `accepted` (space-separated names: a typo, or a flag
/// another command takes, is an error rather than silently ignored) or
/// one missing its value.
fn split_args<'a>(args: &'a [String], accepted: &str) -> Result<Args<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.as_str());
            continue;
        };
        if !accepted.split_whitespace().any(|a| a == name) {
            let known: Vec<String> =
                accepted.split_whitespace().map(|a| format!("--{a}")).collect();
            return Err(format!("unknown flag --{name} (accepted: {})", known.join(", ")));
        }
        let value = rest.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.push((name, value.as_str()));
    }
    Ok(Args { positional, flags })
}

/// The flags `gen`, `build` and `ingest` accept.
const GEN_FLAGS: &str = "docs preset seed stream terms max-df";
const BUILD_FLAGS: &str = "max-size positions";
const INGEST_FLAGS: &str = "docs batch preset seed seal-every merge-every file seal";

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what}: {v:?}"))
}

/// Why `--mmap` is refused on an incremental index directory.
const MMAP_ON_DIR: &str = "--mmap maps index files; an incremental index directory's \
     segments load onto the heap";

/// Loads an index file, or an incremental index directory as its
/// equivalent one-shot index. With `mmap`, a file is memory-mapped
/// (directory, columns and payload read in place, lazy list checks); a
/// directory refuses it.
fn load_index_mode(path: &str, mmap: bool) -> Result<InvertedIndex, String> {
    if std::path::Path::new(path).is_dir() {
        // An incremental index directory: run crash recovery (WAL replay,
        // torn-tail truncation) and materialize the equivalent one-shot
        // index, so every command transparently accepts either form.
        if mmap {
            return Err(MMAP_ON_DIR.into());
        }
        let inc = IncrementalIndex::open(path.as_ref(), IncrementalOptions::default())
            .map_err(|e| format!("cannot recover incremental index {path}: {e}"))?;
        return inc
            .to_one_shot()
            .map_err(|e| format!("cannot materialize incremental index {path}: {e}"));
    }
    let loaded = if mmap {
        iiu_index::storage::map_index(path.as_ref())
    } else {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        deserialize(&bytes)
    };
    loaded.map_err(|e| format!("cannot load {path}: {}", load_error(e)))
}

/// Why an index file failed to load. A retired round-robin shard manifest
/// (magic "IIUS" + version) or index format (magic "IIUX" + 1..=3) gets a
/// pointer to what replaced it.
fn load_error(e: IndexError) -> String {
    match e {
        IndexError::UnsupportedFormat { found } if found >> 32 == 0x4949_5553 => {
            "the file is a round-robin shard manifest, a retired format: regenerate it \
             with `iiu gen` (no --shards) and pass --shards N to search or serve-bench \
             to fan queries out over docID windows of the one index"
                .into()
        }
        IndexError::UnsupportedFormat { found }
            if found >> 32 == 0x4949_5558 && (1..=4).contains(&(found & 0xffff_ffff)) =>
        {
            format!(
                "the file is in index format v{}, a retired format: rebuild it in format \
                 v5 with `iiu build` or `iiu gen`",
                found & 0xffff_ffff
            )
        }
        e => e.to_string(),
    }
}

/// One `source:` report line: heap vs mmap, and for mapped indexes the
/// file's size plus a `mincore(2)` residency estimate.
fn source_line(index: &InvertedIndex) -> String {
    let src = index.source();
    if !src.is_mapped() {
        return "heap (owned allocations)".into();
    }
    let mapped = src.mapped_bytes();
    match src.resident_bytes() {
        Some(resident) => {
            format!("mmap ({} KiB mapped, ~{} KiB resident)", mapped / 1024, resident / 1024)
        }
        None => format!("mmap ({} KiB mapped, residency unavailable)", mapped / 1024),
    }
}

/// One `heap:` report line: the bytes the opened index keeps on the heap,
/// by table.
fn heap_line(index: &InvertedIndex) -> String {
    let h = index.heap_bytes();
    format!(
        "{} KiB (terms {} + dictionary {} + docs {} + file {})",
        h.total() / 1024,
        h.terms / 1024,
        h.dictionary / 1024,
        h.doc_tables / 1024,
        h.file / 1024
    )
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, GEN_FLAGS)?;
    let flag = |n: &str| parsed.flag(n);
    let [out] = parsed.positional[..] else {
        return Err("usage: iiu gen <index-file> [--docs N] [--preset ccnews|clueweb]".into());
    };
    let docs: u32 = parse_num(flag("docs").unwrap_or("50000"), "--docs")?;
    let seed: u64 = parse_num(flag("seed").unwrap_or("42"), "--seed")?;
    let mut cfg = match flag("preset").unwrap_or("ccnews") {
        "ccnews" => CorpusConfig::ccnews_like(docs),
        "clueweb" => CorpusConfig::clueweb_like(docs),
        other => return Err(format!("unknown preset {other:?}")),
    };
    cfg.seed = seed;
    if let Some(n) = flag("terms") {
        cfg.n_terms = parse_num(n, "--terms")?;
    }
    if let Some(f) = flag("max-df") {
        cfg.max_df_fraction =
            f.parse::<f64>().map_err(|e| format!("--max-df must be a fraction: {e}"))?;
    }
    if flag("stream").is_some() {
        // Streamed generation writes the v5 file term by term with peak
        // memory independent of the posting count — the ≥1M-doc path.
        let file =
            std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
        let sink = std::io::BufWriter::new(file);
        let (_, stats) = cfg
            .generate_streamed(sink, Partitioner::default(), Bm25Params::default())
            .map_err(|e| format!("cannot stream index: {e}"))?;
        let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
        println!(
            "streamed {} docs, {} terms, {} postings",
            stats.docs, stats.terms, stats.postings
        );
        println!("wrote {out}: {} KiB", bytes / 1024);
        return Ok(());
    }
    let corpus = cfg.generate();
    println!(
        "generated {} docs, {} terms, {} postings",
        docs,
        corpus.lists.len(),
        corpus.total_postings()
    );
    let index = corpus.into_index(Partitioner::default(), Bm25Params::default());
    let bytes = serialize(&index).map_err(|e| format!("cannot serialize index: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    let s = index.size_stats();
    println!(
        "wrote {out}: {} KiB, {:.2} bits/posting, compression {:.2}x",
        bytes.len() / 1024,
        s.bits_per_posting(),
        s.compression_ratio()
    );
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, BUILD_FLAGS)?;
    let flag = |n: &str| parsed.flag(n);
    let [input, out] = parsed.positional[..] else {
        return Err("usage: iiu build <corpus.txt> <index-file> [--max-size N]".into());
    };
    let max_size: usize = parse_num(flag("max-size").unwrap_or("256"), "--max-size")?;
    let track_positions = flag("positions").is_some();
    let text =
        std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let mut builder = IndexBuilder::new(BuildOptions {
        partitioner: Partitioner::dynamic(max_size),
        track_positions,
        ..Default::default()
    });
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        builder.add_document(line);
    }
    println!("indexed {} documents, {} terms", builder.num_docs(), builder.num_terms());
    let index = if track_positions {
        let (index, positions) = builder.build_with_positions();
        let sidecar = format!("{out}.pos");
        std::fs::write(&sidecar, positions.to_bytes())
            .map_err(|e| format!("cannot write {sidecar}: {e}"))?;
        println!("wrote {sidecar} ({} terms with positions)", positions.num_terms());
        index
    } else {
        builder.build()
    };
    let bytes = serialize(&index).map_err(|e| format!("cannot serialize index: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    let s = index.size_stats();
    println!(
        "wrote {out}: {} KiB, {:.2} bits/posting, compression {:.2}x",
        bytes.len() / 1024,
        s.bits_per_posting(),
        s.compression_ratio()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, "mmap")?;
    let [path] = parsed.positional[..] else {
        return Err("usage: iiu stats <index-file> [--mmap yes]".into());
    };
    let mmap = parsed.flag("mmap").is_some();
    let index = load_index_mode(path, mmap)?;
    let s = index.size_stats();
    println!("documents:        {}", index.num_docs());
    println!("terms:            {}", index.num_terms());
    println!("postings:         {}", s.postings);
    println!("blocks:           {} (avg {:.1} postings)", s.num_blocks, s.avg_block_len());
    println!("uncompressed:     {} KiB", s.uncompressed_bytes / 1024);
    println!(
        "compressed:       {} KiB (payload {} + metadata {} + skips {})",
        s.compressed_bytes() / 1024,
        s.payload_bytes / 1024,
        s.metadata_bytes / 1024,
        s.skip_bytes / 1024
    );
    println!("compression:      {:.2}x", s.compression_ratio());
    println!("bits/posting:     {:.2}", s.bits_per_posting());
    println!("avgdl:            {:.1}", index.avgdl());
    println!("source:           {}", source_line(&index));
    println!("heap:             {}", heap_line(&index));
    let sections = iiu_index::io::section_sizes(&index);
    let file: u64 = sections.iter().map(|(_, bytes)| bytes).sum();
    println!("file:             {file} bytes in {} sections", sections.len());
    for (name, bytes) in sections {
        let share = 100.0 * bytes as f64 / file.max(1) as f64;
        println!("  {name:<14}  {bytes:>12} B  {share:>6.2} %");
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, "fault-rate trials seed mmap")?;
    let flag = |n: &str| parsed.flag(n);
    let [path] = parsed.positional[..] else {
        return Err(
            "usage: iiu inspect <index-file|index-dir> [--fault-rate R] [--trials N] \
                    [--seed S] [--mmap yes]"
                .into(),
        );
    };
    if std::path::Path::new(path).is_dir() {
        return inspect_incremental(path, &parsed);
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    println!("file:     {path} ({} bytes)", bytes.len());

    let index = deserialize(&bytes).map_err(|e| format!("load failed: {}", load_error(e)))?;
    println!("format:   v5");
    println!(
        "load:     ok (header, doc table, section table, column, name, directory, per-list \
         and footer checksums verified)"
    );
    index.validate().map_err(|e| format!("validation failed: {e}"))?;
    println!("validate: ok (structural invariants hold)");
    if parsed.flag("mmap").is_some() {
        // Cross-check the zero-copy loader: map the same file, deep-validate
        // the mapped assembly (which runs every list's first touch), and
        // require bit-identity with the heap load.
        let mapped = iiu_index::storage::map_index(path.as_ref())
            .map_err(|e| format!("mmap load failed: {}", load_error(e)))?;
        mapped.validate().map_err(|e| format!("mmap validation failed: {e}"))?;
        if mapped != index {
            return Err("mmap load differs from heap load".into());
        }
        println!("mmap:     ok (bit-identical to heap load; {})", source_line(&mapped));
    }
    let s = index.size_stats();
    println!(
        "size:     {:.2} bits/posting, compression {:.2}x",
        s.bits_per_posting(),
        s.compression_ratio()
    );
    println!(
        "contents: {} documents, {} terms, {} postings",
        index.num_docs(),
        index.num_terms(),
        s.postings
    );

    let Some(rate) = flag("fault-rate") else {
        return Ok(());
    };
    let rate: f64 = parse_num(rate, "--fault-rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate must be in 0..=1, got {rate}"));
    }
    let trials: u64 = parse_num(flag("trials").unwrap_or("1000"), "--trials")?;
    let seed: u64 = parse_num(flag("seed").unwrap_or("7"), "--seed")?;
    // Each trial stacks enough single corruptions to hit `rate` of the file.
    let per_trial = ((rate * bytes.len() as f64).ceil() as u64).max(1);

    let (mut typed, mut checksums, mut equal, mut divergent, mut panics) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for t in 0..trials {
        let mut mutated = bytes.clone();
        for i in 0..per_trial {
            let trial_seed = seed
                .wrapping_add(t.wrapping_mul(per_trial).wrapping_add(i))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            mutated = corrupt(&mutated, trial_seed).0;
        }
        // A panic anywhere in the load path is itself a reportable failure.
        match std::panic::catch_unwind(|| deserialize(&mutated)) {
            Err(_) => panics += 1,
            Ok(Err(e)) => {
                typed += 1;
                if matches!(e, IndexError::ChecksumMismatch { .. }) {
                    checksums += 1;
                }
            }
            Ok(Ok(loaded)) => {
                if loaded == index {
                    equal += 1;
                } else {
                    divergent += 1;
                }
            }
        }
    }

    println!();
    println!("fault injection: {trials} trials x {per_trial} corruption(s), seed {seed}");
    println!("  rejected with typed error:    {typed}  ({checksums} by checksum)");
    println!("  accepted, semantically equal: {equal}");
    println!("  accepted, DIVERGENT:          {divergent}");
    println!("  panics:                       {panics}");
    if divergent > 0 || panics > 0 {
        return Err(format!(
            "survival: FAIL ({divergent} silent corruption(s), {panics} panic(s))"
        ));
    }
    println!("survival: PASS");
    Ok(())
}

fn inspect_incremental(path: &str, parsed: &Args<'_>) -> Result<(), String> {
    if parsed.flag("fault-rate").is_some() {
        return Err("--fault-rate applies to index files; the incremental directory's \
             torn-write recovery is exercised by the recovery_chaos test campaign"
            .into());
    }
    if parsed.flag("mmap").is_some() {
        return Err(MMAP_ON_DIR.into());
    }
    println!("file:     {path} (incremental index directory)");
    println!("format:   WAL + sealed segments");
    let inc = IncrementalIndex::open(path.as_ref(), IncrementalOptions::default())
        .map_err(|e| format!("recovery failed: {e}"))?;
    println!("recovery: {}", inc.recovery_report());
    let metas = inc.segment_metas();
    println!("segments: {} sealed, {} document(s)", metas.len(), inc.sealed_docs());
    for m in &metas {
        println!("          {} (docs {}..{})", m.file_name, m.start, m.end());
    }
    println!(
        "wal:      {} buffered document(s) (docs {}..{}, durable in the WAL only)",
        inc.buffered_docs(),
        inc.sealed_docs(),
        inc.num_docs()
    );
    let index = inc.to_one_shot().map_err(|e| format!("materialization failed: {e}"))?;
    index.validate().map_err(|e| format!("validation failed: {e}"))?;
    println!("validate: ok (one-shot equivalent passes structural invariants)");
    println!(
        "contents: {} documents, {} terms, {} postings, avgdl {:.1}",
        index.num_docs(),
        index.num_terms(),
        index.size_stats().postings,
        index.avgdl()
    );
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, INGEST_FLAGS)?;
    let flag = |n: &str| parsed.flag(n);
    let [dir] = parsed.positional[..] else {
        return Err("usage: iiu ingest <index-dir> [--docs N] [--batch B] \
             [--preset ccnews|clueweb] [--seed S] [--seal-every N] [--merge-every N] \
             [--file corpus.txt] [--seal yes]"
            .into());
    };
    let docs: u32 = parse_num(flag("docs").unwrap_or("50000"), "--docs")?;
    let batch: usize = parse_num(flag("batch").unwrap_or("1024"), "--batch")?;
    let seed: u64 = parse_num(flag("seed").unwrap_or("42"), "--seed")?;
    let seal_every: usize = parse_num(flag("seal-every").unwrap_or("4096"), "--seal-every")?;
    let merge_every: usize = parse_num(flag("merge-every").unwrap_or("8"), "--merge-every")?;
    let seal_final = flag("seal").is_some();
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }

    let ingest_docs: Vec<IngestDoc> = if let Some(file) = flag("file") {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| IngestDoc::from_tokens(l.split_whitespace()))
            .collect()
    } else {
        let mut cfg = match flag("preset").unwrap_or("ccnews") {
            "ccnews" => CorpusConfig::ccnews_like(docs),
            "clueweb" => CorpusConfig::clueweb_like(docs),
            other => return Err(format!("unknown preset {other:?}")),
        };
        cfg.seed = seed;
        cfg.generate().to_docs()
    };
    println!("ingesting {} documents in batches of {batch}", ingest_docs.len());

    let opts = IncrementalOptions {
        seal_threshold: seal_every,
        merge_threshold: merge_every,
        ..IncrementalOptions::default()
    };
    let mut inc = IncrementalIndex::open(dir.as_ref(), opts)
        .map_err(|e| format!("cannot open {dir}: {e}"))?;
    let report = inc.recovery_report();
    if inc.num_docs() > 0 || report.wal_torn_bytes_truncated > 0 || report.wal_header_rebuilt {
        println!("recovery: {report}");
    }
    for chunk in ingest_docs.chunks(batch) {
        // Acknowledged (returned) ⇒ the whole batch is fsynced in the WAL.
        inc.ingest_batch(chunk).map_err(|e| format!("ingest failed: {e}"))?;
    }
    if seal_final {
        inc.seal().map_err(|e| format!("final seal failed: {e}"))?;
    }
    println!(
        "wrote {dir}: {} documents ({} sealed into {} segment(s), {} WAL-buffered)",
        inc.num_docs(),
        inc.sealed_docs(),
        inc.segment_metas().len(),
        inc.buffered_docs()
    );
    println!("every acknowledged batch is WAL-durable; crash recovery replays the rest");
    Ok(())
}

fn cmd_serve_bench(args: &[String]) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let parsed = split_args(
        args,
        "workers shards rate queries deadline-ms fault-rate seed unknown-rate k pruned mmap \
         shard-fault-rate shard-stall-rate shard-stall-ms fail-closed no-device hybrid zipf",
    )?;
    let flag = |n: &str| parsed.flag(n);
    let [path] = parsed.positional[..] else {
        return Err("usage: iiu serve-bench <index-file> [--workers N] [--rate QPS] \
             [--queries N] [--deadline-ms MS] [--fault-rate R] [--seed S] \
             [--unknown-rate R] [--pruned yes] [--shards N] \
             [--shard-fault-rate R] [--shard-stall-rate R] [--shard-stall-ms MS] \
             [--fail-closed yes] [--no-device yes] [--hybrid yes] [--zipf S]"
            .into());
    };
    let workers: usize = parse_num(flag("workers").unwrap_or("4"), "--workers")?;
    let shards: usize = parse_num(flag("shards").unwrap_or("1"), "--shards")?;
    let rate: f64 = parse_num(flag("rate").unwrap_or("200"), "--rate")?;
    let queries: usize = parse_num(flag("queries").unwrap_or("2000"), "--queries")?;
    let deadline_ms: u64 = parse_num(flag("deadline-ms").unwrap_or("250"), "--deadline-ms")?;
    let fault_rate: f64 = parse_num(flag("fault-rate").unwrap_or("0"), "--fault-rate")?;
    let seed: u64 = parse_num(flag("seed").unwrap_or("7"), "--seed")?;
    let unknown_rate: f64 = parse_num(flag("unknown-rate").unwrap_or("0"), "--unknown-rate")?;
    let k: usize = parse_num(flag("k").unwrap_or("10"), "--k")?;
    let pruned = flag("pruned").is_some();
    let shard_fault_rate: f64 =
        parse_num(flag("shard-fault-rate").unwrap_or("0"), "--shard-fault-rate")?;
    let shard_stall_rate: f64 =
        parse_num(flag("shard-stall-rate").unwrap_or("0"), "--shard-stall-rate")?;
    let shard_stall_ms: u64 =
        parse_num(flag("shard-stall-ms").unwrap_or("100"), "--shard-stall-ms")?;
    let fail_closed = flag("fail-closed").is_some();
    let no_device = flag("no-device").is_some();
    let hybrid = flag("hybrid").is_some();
    let zipf: f64 = parse_num(flag("zipf").unwrap_or("0"), "--zipf")?;
    if !(zipf.is_finite() && zipf >= 0.0) {
        return Err("--zipf must be a non-negative skew exponent".into());
    }
    if !(0.0..=1.0).contains(&fault_rate) || !(0.0..=1.0).contains(&unknown_rate) {
        return Err("--fault-rate and --unknown-rate must be in 0..=1".into());
    }
    if !(0.0..=1.0).contains(&shard_fault_rate) || !(0.0..=1.0).contains(&shard_stall_rate) {
        return Err("--shard-fault-rate and --shard-stall-rate must be in 0..=1".into());
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err("--rate must be positive".into());
    }

    // --mmap serves posting bytes from the page cache.
    let index = Arc::new(load_index_mode(path, flag("mmap").is_some())?);
    let stream = iiu_workloads::traffic::open_loop(
        &index,
        &TrafficConfig {
            rate_qps: rate,
            n_queries: queries,
            unknown_term_rate: unknown_rate,
            seed,
            zipf_skew: zipf,
            ..TrafficConfig::default()
        },
    );
    let shard_chaos = iiu_serve::ShardChaosPlan {
        panic_rate: shard_fault_rate,
        stall_rate: shard_stall_rate,
        stall: Duration::from_millis(shard_stall_ms),
        seed: seed ^ 0x5AD,
        ..iiu_serve::ShardChaosPlan::NONE
    };
    let cfg = ServeConfig {
        workers,
        shards: shards.max(1),
        default_deadline: Duration::from_millis(deadline_ms),
        fault: FaultPlan {
            stall_rate: fault_rate,
            // --no-device yes sabotages every device attempt: the breaker
            // opens and the whole stream lands on the CPU fallback, which
            // is where the shard-chaos knobs live.
            burst: no_device.then_some((0, u64::MAX)),
            seed,
            ..FaultPlan::NONE
        },
        pruned_cpu_fallback: pruned,
        shard_chaos,
        fail_closed_shards: fail_closed,
        scheduler: iiu_serve::SchedulerConfig {
            hybrid,
            ..iiu_serve::SchedulerConfig::default()
        },
        ..ServeConfig::default()
    };
    println!(
        "serve-bench: {queries} queries at {rate} qps, {workers} workers, \
         deadline {deadline_ms} ms, fault rate {fault_rate}{}{}{}{}{}",
        if hybrid { ", hybrid scheduler" } else { "" },
        if zipf > 0.0 { format!(", zipf skew {zipf}") } else { String::new() },
        if pruned { ", pruned CPU fallback" } else { "" },
        if shards > 1 { format!(", {shards}-shard CPU fallback") } else { String::new() },
        if shards > 1 && (shard_fault_rate > 0.0 || shard_stall_rate > 0.0) {
            format!(
                ", shard chaos (panic {shard_fault_rate}, stall {shard_stall_rate} \
                 x {shard_stall_ms} ms, {})",
                if fail_closed { "fail-closed" } else { "fail-soft" }
            )
        } else {
            String::new()
        }
    );

    let mut svc = QueryService::start(Arc::clone(&index), cfg);
    let start = Instant::now();
    let mut pending = Vec::with_capacity(queries);
    let (mut shed_at_admission, mut parse_failures) = (0u64, 0u64);
    for tq in &stream {
        // Open loop: submit on schedule no matter how far behind the
        // service is; lateness shows up as queueing delay and shedding.
        if let Some(wait) = tq.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let Ok(query) = Query::parse(&tq.text) else {
            parse_failures += 1;
            continue;
        };
        match svc.submit(query, k) {
            Ok(p) => pending.push(p),
            Err(_) => shed_at_admission += 1,
        }
    }
    let offered_secs = start.elapsed().as_secs_f64();
    let mut answered = 0u64;
    let mut rejected = 0u64;
    for p in pending {
        match p.wait() {
            Ok(_) => answered += 1,
            Err(_) => rejected += 1,
        }
    }
    svc.shutdown();

    let h = svc.health();
    if parse_failures > 0 {
        return Err(format!("{parse_failures} generated queries failed to parse"));
    }
    println!();
    println!("offered:       {queries} queries in {offered_secs:.2} s");
    println!("answered:      {answered} ({} clean, {} degraded)", h.completed, h.degraded_ok);
    println!(
        "rejected:      {} ({} shed on overload, {} on deadline, {} failed)",
        rejected + shed_at_admission,
        h.shed_overload,
        h.shed_deadline,
        h.failed
    );
    println!(
        "resilience:    {} retries, {} cpu fallbacks, {} isolated panics",
        h.retries, h.cpu_fallbacks, h.panicked
    );
    println!(
        "executed by:   {} by their waiting caller, the rest by the threads",
        h.caller_runs
    );
    if h.cpu_fallbacks > 0 {
        println!(
            "fallback work: {} candidates scanned, {:.2} ms modeled CPU time",
            h.fallback_candidates,
            h.fallback_modeled_ns as f64 / 1e6
        );
    }
    if h.shards > 1 {
        println!(
            "shards:        {} workers, {} partial answers, {} unsharded rescues, \
             sched {} inline / {} fanout, docs scored per shard {:?}",
            h.shards,
            h.shard_partials,
            h.shard_rescues,
            h.sched_inline,
            h.sched_fanout,
            h.shard_docs_scored
        );
        for sh in &h.shard_health {
            println!(
                "  shard {}: {} — {} failures ({} panics, {} timeouts), \
                 quarantine {} trips / {} recoveries",
                sh.shard,
                sh.health,
                sh.failures,
                sh.panics,
                sh.timeouts,
                sh.quarantine_trips,
                sh.quarantine_recoveries,
            );
        }
    }
    for w in &h.pool_workers {
        println!(
            "thread {}:      {} — {} tasks, {} respawns",
            w.worker,
            if w.alive { "alive" } else { "dead" },
            w.tasks_completed,
            w.respawns,
        );
    }
    println!(
        "breaker:       {} ({} trips, {} recoveries)",
        h.breaker, h.breaker_trips, h.breaker_recoveries
    );
    println!("shed rate:     {:.2}%", h.shed_rate() * 100.0);
    match (h.p50, h.p99, h.p999) {
        (Some(p50), Some(p99), Some(p999)) => {
            println!("latency:       p50 {p50}, p99 {p99}, p999 {p999}");
        }
        _ => println!("latency:       no queries answered"),
    }
    if h.submitted != h.answered() + h.rejected_total() {
        return Err(format!(
            "accounting violated: {} submitted vs {} answered + {} rejected",
            h.submitted,
            h.answered(),
            h.rejected_total()
        ));
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let parsed = split_args(args, "k engine cores pruned shards mmap")?;
    let flag = |n: &str| parsed.flag(n);
    let [path, query_text] = parsed.positional[..] else {
        return Err(
            "usage: iiu search <index-file> \"<query>\" [--k N] [--engine cpu|iiu|both] \
             [--pruned yes] [--shards N]"
                .into(),
        );
    };
    let k: usize = parse_num(flag("k").unwrap_or("10"), "--k")?;
    let cores: usize = parse_num(flag("cores").unwrap_or("8"), "--cores")?;
    let engine = flag("engine").unwrap_or("both");
    let pruned = flag("pruned").is_some();
    let mmap = flag("mmap").is_some();
    let shards: usize = parse_num(flag("shards").unwrap_or("1"), "--shards")?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let index = load_index_mode(path, mmap)?;
    let index = Arc::new(index);
    if mmap {
        println!("[source: {}]", source_line(&index));
    }
    let positions =
        std::fs::read(format!("{path}.pos")).ok().and_then(|b| PositionIndex::from_bytes(&b));
    if positions.is_some() {
        println!("[loaded positional sidecar {path}.pos]");
    }
    let query = Query::parse(query_text).map_err(|e| e.to_string())?;

    let show = |label: &str, r: &SearchResponse| {
        println!(
            "{label}: {} candidates, {:.2} us (device {:.2} us, top-k {:.2} us)",
            r.candidates,
            r.latency_ns() / 1e3,
            r.breakdown.device_ns / 1e3,
            r.breakdown.topk_ns / 1e3
        );
        for d in &r.degraded {
            println!("  [degraded: {d}]");
        }
        for hit in &r.hits {
            println!("  doc {:>8}  score {:.4}", hit.doc_id, hit.score);
        }
    };

    let cpu_result = if engine != "iiu" {
        let mut cpu = CpuSearchEngine::new(&index).with_pruning(pruned);
        if let Some(p) = &positions {
            cpu = cpu.with_position_index(p);
        }
        let r = cpu.search(&query, k).map_err(|e| e.to_string())?;
        show(if pruned { "baseline (pruned)" } else { "baseline" }, &r);
        Some(r)
    } else {
        None
    };
    if shards > 1 && engine != "iiu" {
        // Same baseline fanned across docID windows: bit-identical hits,
        // critical-path (not summed) modeled latency.
        let windows = PartSource::windows(Arc::clone(&index), shards);
        let eng = ShardedSearchEngine::new(windows).with_pruning(pruned);
        let r = eng.search_ref(&query, k).map_err(|e| e.to_string())?;
        show(
            &format!("baseline ({shards} shards{})", if pruned { ", pruned" } else { "" }),
            &r,
        );
        if let Some(c) = &cpu_result {
            println!("shard speedup: {:.1}x", c.latency_ns() / r.latency_ns());
            assert_eq!(c.hits, r.hits, "sharded baseline must agree with unsharded");
        }
    }
    if engine != "cpu" {
        let mut iiu = IiuSearchEngine::with_config(&index, Default::default(), cores);
        if let Some(p) = &positions {
            iiu = iiu.with_position_index(p);
        }
        let r = iiu.search(&query, k).map_err(|e| e.to_string())?;
        show("IIU", &r);
        if let Some(c) = cpu_result {
            println!("speedup: {:.1}x", c.latency_ns() / r.latency_ns());
            assert_eq!(c.hits, r.hits, "engines must agree");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_args_rejects_flags_the_command_does_not_take() {
        let ok = args(&["idx.iiu", "t1 AND t2", "--k", "5", "--pruned", "yes"]);
        let parsed = split_args(&ok, "k engine cores pruned shards mmap").unwrap();
        assert_eq!(parsed.positional, ["idx.iiu", "t1 AND t2"]);
        assert_eq!((parsed.flag("k"), parsed.flag("pruned")), (Some("5"), Some("yes")));
        assert_eq!(parsed.flag("shards"), None);

        // A typo, `gen --shards` now that gen writes only plain files, and
        // `--codec` now that bit-packing is the one block codec.
        for (argv, accepted, flag) in [
            (&["idx.iiu", "q", "--prunned", "yes"][..], "k pruned", "--prunned"),
            (&["out.iiu", "--shards", "4"][..], GEN_FLAGS, "--shards"),
            (&["out.iiu", "--codec", "bitpack"][..], GEN_FLAGS, "--codec"),
            (&["in.txt", "out.iiu", "--codec", "bitpack"][..], BUILD_FLAGS, "--codec"),
            (&["dir", "--codec", "stream-vbyte"][..], INGEST_FLAGS, "--codec"),
        ] {
            let err = split_args(&args(argv), accepted).map(|_| ()).unwrap_err();
            assert!(err.starts_with(&format!("unknown flag {flag} ")), "{err}");
        }
        let err = split_args(&args(&["idx.iiu", "--k"]), "k").map(|_| ()).unwrap_err();
        assert_eq!(err, "flag --k needs a value");
    }

    #[test]
    fn mmap_on_an_incremental_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("iiu-cli-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.to_str().unwrap();
        // stats, search and serve-bench load through `load_index_mode`.
        assert_eq!(load_index_mode(path, true).map(|_| ()).unwrap_err(), MMAP_ON_DIR);
        assert_eq!(cmd_stats(&args(&[path, "--mmap", "yes"])).unwrap_err(), MMAP_ON_DIR);
        assert_eq!(cmd_inspect(&args(&[path, "--mmap", "yes"])).unwrap_err(), MMAP_ON_DIR);
        // Refused before recovery runs: the directory is left untouched.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert!(
            MMAP_ON_DIR.starts_with("--mmap maps index files") && !MMAP_ON_DIR.contains('\n')
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_retired_manifest_magic_points_to_windows() {
        for found in [0x4949_5553_0000_0001, 0x4949_5553_0000_0002, 0x4949_5553_0000_0003] {
            let msg = load_error(IndexError::UnsupportedFormat { found });
            assert!(msg.contains("retired") && msg.contains("--shards N"), "{msg}");
        }
        let other = load_error(IndexError::UnsupportedFormat { found: u64::MAX });
        assert!(!other.contains("retired"), "{other}");
    }

    #[test]
    fn a_retired_index_format_magic_points_to_a_rebuild() {
        for v in 1..=4u64 {
            let msg =
                load_error(IndexError::UnsupportedFormat { found: 0x4949_5558_0000_0000 | v });
            assert!(msg.contains(&format!("format v{v}, a retired format")), "{msg}");
            assert!(msg.contains("`iiu build`") && msg.contains("`iiu gen`"), "{msg}");
        }
        // The current version never reaches here; an unknown later one is
        // not a retired format.
        for found in [0x4949_5558_0000_0006, 0x4949_5558_0001_0002] {
            let msg = load_error(IndexError::UnsupportedFormat { found });
            assert!(!msg.contains("retired"), "{msg}");
        }
    }
}
