//! Workspace-level robustness: the hardened load path survives a large
//! deterministic corruption campaign, the simulator watchdog reports
//! stalls instead of spinning, and unknown query terms degrade responses
//! instead of erroring.

use iiu_core::{CpuSearchEngine, Degradation, IiuSearchEngine, Query, SearchEngine};
use iiu_index::io::{deserialize, serialize};
use iiu_index::IndexError;
use iiu_index::{
    mapped_survival_report, survival_report, BuildOptions, IndexBuilder, PositionIndex,
};
use iiu_sim::{IiuMachine, SimConfig, SimError, SimQuery};
use iiu_workloads::{CorpusConfig, QuerySampler};
use proptest::prelude::*;

fn index() -> iiu_index::InvertedIndex {
    CorpusConfig::tiny(0xDEAD_BEEF).generate().into_default_index()
}

#[test]
fn a_thousand_corruptions_never_panic_or_silently_load() {
    // The acceptance bar of the hardened format: 1,000+ deterministic
    // corruptions, zero panics (a panic fails this test), zero loads that
    // silently accept corrupt data.
    let idx = index();
    let bytes = serialize(&idx).expect("serialize");
    let report = survival_report(&idx, &bytes, 1_200, 0x5eed_0001);
    assert!(report.survived(), "campaign not survived: {report:?}");
    assert_eq!(report.trials, 1_200);
    assert!(report.typed_errors > 1_000, "{report:?}");
    assert!(report.checksum_rejections > 0, "checksums never fired: {report:?}");
    assert_eq!(report.accepted_divergent, 0, "{report:?}");
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("iiu-robustness-{}-{tag}", std::process::id()))
}

#[test]
fn a_thousand_corruptions_never_panic_the_mapped_loader() {
    // The same campaign as above, driven through the zero-copy mapped
    // load path. Rejection may come eagerly at open or lazily on first
    // payload touch; silent divergence and panics are the failures. The
    // only corruption a v4 mapped load may legitimately accept is one
    // confined to the unhashed whole-file footer — and then only as a
    // deep-equal no-op.
    let idx = index();
    let bytes = serialize(&idx).expect("serialize");
    let scratch = scratch_path("mapped-plain");
    let report = mapped_survival_report(&idx, &bytes, 1_200, 0x5eed_0002, &scratch)
        .expect("scratch file writable");
    assert!(report.survived(), "campaign not survived: {report:?}");
    assert_eq!(report.trials, 1_200);
    assert!(report.open_rejections > 900, "{report:?}");
    assert!(
        report.touch_checksum_rejections > 0,
        "no corruption ever reached the lazy-CRC path: {report:?}"
    );
    assert_eq!(report.accepted_divergent, 0, "{report:?}");
}

#[test]
fn footer_flip_loads_mapped_but_fails_heap() {
    // The documented asymmetry of the zero-copy trade: the mapped loader
    // never hashes the whole-file footer (it would fault in every page),
    // so a corruption confined to the final 4 bytes loads clean and
    // deep-equal; the heap loader's full-file CRC still rejects it.
    let idx = index();
    let mut bytes = serialize(&idx).expect("serialize");
    let n = bytes.len();
    bytes[n - 1] ^= 0x01;
    assert!(deserialize(&bytes).is_err(), "heap load must reject a footer flip");
    let scratch = scratch_path("footer-flip");
    std::fs::write(&scratch, &bytes).expect("scratch file writable");
    let mapped =
        iiu_index::storage::map_index(&scratch).expect("mapped load skips the footer");
    for id in 0..mapped.num_terms() as u32 {
        mapped.verify_term(id).expect("content sections are intact");
    }
    assert_eq!(mapped, idx);
    std::fs::remove_file(&scratch).ok();
}

#[test]
fn a_mapped_list_reaching_past_the_corpus_is_a_typed_error_not_a_panic() {
    // Drop the last document of a v4 file — lower `num_docs` in the
    // header, cut the last doc-table entry — and reseal header, doc table
    // and footer. The last block of "common" still starts inside the
    // corpus, so only its last posting lies beyond it.
    let mut builder = IndexBuilder::new(BuildOptions::default());
    for i in 0..300 {
        builder.add_document(&format!("common w{}", i % 7));
    }
    let idx = builder.build();
    let bytes = serialize(&idx).expect("serialize");
    let crc = |b: &[u8]| iiu_index::crc32(b).to_le_bytes();
    // magic 8 · header 38 · crc 4 · doc table 4 per doc · crc 4.
    let (header, docs) = (8..46, 50..50 + 4 * 299);
    let mut file = bytes[..50].to_vec();
    file[30..38].copy_from_slice(&299u64.to_le_bytes());
    let header_crc = crc(&file[header.clone()]);
    file[46..50].copy_from_slice(&header_crc);
    file.extend_from_slice(&bytes[docs.clone()]);
    file.extend_from_slice(&crc(&bytes[docs]));
    file.extend_from_slice(&bytes[50 + 4 * 300 + 4..bytes.len() - 4]);
    let footer = crc(&file);
    file.extend_from_slice(&footer);

    let beyond = "posting list references docID beyond corpus";
    assert!(matches!(
        deserialize(&file),
        Err(iiu_index::IndexError::CorruptIndex { context }) if context == beyond
    ));
    let scratch = scratch_path("beyond-corpus");
    std::fs::write(&scratch, &file).expect("scratch file writable");
    let mapped = iiu_index::storage::map_index(&scratch).expect("the open checks skips only");
    std::fs::remove_file(&scratch).ok();
    let common = mapped.term_id("common").expect("indexed");
    assert!(mapped.encoded_list(common).skips().last().is_some_and(|s| s < 299));
    for err in [
        mapped.validate().expect_err("validate decodes everything"),
        iiu_baseline::CpuEngine::new(&mapped)
            .with_pruning(true)
            .search_single("common", 10)
            .expect_err("the engine resolves through the first touch"),
        mapped.verify_term(common).expect_err("the verdict is kept"),
    ] {
        assert!(
            matches!(err, iiu_index::IndexError::CorruptIndex { context } if context == beyond),
            "{err:?}"
        );
    }
}

#[test]
fn crc_consistent_files_written_wrong_fail_on_both_backings() {
    // Three files written wrong with every checksum resealed: the first
    // block of "quick" zeroed (every gap and tf 0, so it decodes to its
    // skip value repeated), the last document cut from the header and
    // doc table (the lists holding it reach past the corpus), and a
    // stored bound of "quick" one raw unit high. The heap load runs every
    // list's first touch and refuses each file; the mapped open defers it
    // to the list's first use, where every query shape refuses the list
    // with the same error — pruned and exhaustive, over 1 and 2 windows,
    // on a fresh mapping and on the kept verdict.
    let mut builder = IndexBuilder::new(BuildOptions {
        partitioner: iiu_index::Partitioner::fixed(4),
        ..BuildOptions::default()
    });
    builder.add_document("the quick brown fox jumps over the lazy dog");
    builder.add_document("pack my box with five dozen liquor jugs");
    builder.add_document("the five boxing wizards jump quickly");
    builder.add_document("quick wizards pack the box");
    for i in 0..60 {
        builder.add_document(&format!("fox pack filler{} quick dog", i % 7));
    }
    let idx = builder.build();
    let good = serialize(&idx).expect("serialize");
    let crc = |b: &[u8]| iiu_index::crc32(b).to_le_bytes();

    let list = idx.encoded_list(idx.term_id("quick").expect("indexed"));
    let first_block = list.metas().at(1).offset as usize;
    let mut repeated = good.clone();
    let (_, payload, _) = record_of(&idx, &repeated, "quick");
    repeated[payload..payload + first_block].fill(0);
    reseal(&idx, &mut repeated, "quick");

    // magic 8 · header 38 · crc 4 · doc table 4 per doc · crc 4.
    let n_docs = idx.num_docs() as usize;
    let docs = 50..50 + 4 * (n_docs - 1);
    let mut beyond = good[..50].to_vec();
    beyond[30..38].copy_from_slice(&(n_docs as u64 - 1).to_le_bytes());
    let header_crc = crc(&beyond[8..46]);
    beyond[46..50].copy_from_slice(&header_crc);
    beyond.extend_from_slice(&good[docs.clone()]);
    beyond.extend_from_slice(&crc(&good[docs]));
    beyond.extend_from_slice(&good[50 + 4 * n_docs + 4..]);

    let mut nudged = good;
    nudge_first_bound(&idx, &mut nudged, "quick");

    let scratch = scratch_path("written-wrong");
    for (mut bytes, context, intact) in [
        (repeated, "docIDs not increasing", Some("dog")),
        // The cut document moves every list's idf̄ and dl̄, so no list's
        // stored bounds hold any more.
        (beyond, "posting list references docID beyond corpus", None),
        (nudged, "score bounds mismatch", Some("dog")),
    ] {
        let n = bytes.len();
        let footer = crc(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer);
        let is_fault = |r: Result<(), iiu_index::IndexError>| matches!(r, Err(iiu_index::IndexError::CorruptIndex { context: c }) if c == context);
        assert!(is_fault(deserialize(&bytes).map(|_| ())), "{context}: the heap load");
        std::fs::write(&scratch, &bytes).expect("scratch file writable");
        for (windows, pruned) in [(1, false), (1, true), (2, false), (2, true)] {
            let mapped =
                iiu_index::storage::map_index(&scratch).expect("the open decodes nothing");
            let mapped = std::sync::Arc::new(mapped);
            for pass in ["first touch", "kept verdict"] {
                let answers = if windows == 1 {
                    let engine = iiu_baseline::CpuEngine::new(&mapped).with_pruning(pruned);
                    [
                        ("single", engine.search_single("quick", 10).map(|_| ())),
                        ("and", engine.search_intersection("quick", "dog", 10).map(|_| ())),
                        ("or", engine.search_union("quick", "dog", 10).map(|_| ())),
                    ]
                } else {
                    let parts = iiu_baseline::PartSource::windows(mapped.clone(), windows);
                    let engine = iiu_baseline::ShardedEngine::new(parts).with_pruning(pruned);
                    [
                        ("single", engine.search_single("quick", 10).map(|_| ())),
                        ("and", engine.search_intersection("quick", "dog", 10).map(|_| ())),
                        ("or", engine.search_union("quick", "dog", 10).map(|_| ())),
                    ]
                };
                for (shape, answer) in answers {
                    let at = format!("{context}: windows={windows} pruned={pruned} {shape}");
                    assert!(is_fault(answer), "{at}, {pass}");
                }
            }
            let quick = mapped.term_id("quick").expect("indexed");
            assert!(is_fault(mapped.verify_term(quick)), "{context}: verify_term");
            assert!(is_fault(mapped.validate()), "{context}: validate()");
            if let Some(intact) = intact {
                mapped.verify_term(mapped.term_id(intact).expect("indexed")).expect("intact");
            }
        }
    }
    std::fs::remove_file(&scratch).ok();
}

/// The byte ranges of a v5 file's sections after the doc table, read
/// from the section table before the footer: payload, metas, skips,
/// bounds, names, directory.
fn sections(bytes: &[u8]) -> [std::ops::Range<usize>; 6] {
    let table = bytes.len() - 4 - TABLE_LEN;
    let len = |i: usize| {
        u64::from_le_bytes(
            bytes[table + 8 * i..table + 8 * i + 8].try_into().expect("8 bytes"),
        ) as usize
    };
    let mut at = table - (0..6).map(len).sum::<usize>();
    std::array::from_fn(|i| {
        at += len(i);
        at - len(i)..at
    })
}

/// Bytes of a v5 section table: six lengths, five CRCs and its own.
const TABLE_LEN: usize = 6 * 8 + 5 * 4 + 4;

/// Where the list of `term` lies in `bytes`, the v5 file of `idx`: `(its
/// directory entry's offset, payload start, payload end)`. An entry is
/// df u64 · payload_end u64 · name_end u64 · block_end u32 · crc u32, each
/// window starting where the previous entry's ends.
fn record_of(
    idx: &iiu_index::InvertedIndex,
    bytes: &[u8],
    term: &str,
) -> (usize, usize, usize) {
    let id = idx.term_id(term).expect("indexed") as usize;
    let [payload, _, _, _, _, directory] = sections(bytes);
    let entry = directory.start + 32 * id;
    let end_of = |at: usize| {
        u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes")) as usize
    };
    let start = if id == 0 { 0 } else { end_of(entry - 32) };
    (entry, payload.start + start, payload.start + end_of(entry))
}

/// Recomputes the list CRC of `term` in `bytes`, the v5 file of `idx`
/// (over its metas, skips, ubs and max_tfs slices and its payload), then
/// every section CRC, the section table's and the footer, so a tamper of
/// the list passes every checksum.
fn reseal(idx: &iiu_index::InvertedIndex, bytes: &mut [u8], term: &str) {
    let (entry, payload_start, payload_end) = record_of(idx, bytes, term);
    let [_, metas, skips, bounds, names, directory] = sections(bytes);
    let n_blocks = metas.len() / 8;
    let id = idx.term_id(term).expect("indexed");
    let first = (0..id).map(|t| idx.encoded_list(t).num_blocks()).sum::<usize>();
    let blocks = first..first + idx.encoded_list(id).num_blocks();
    let (ubs, max_tfs) = (bounds.start, bounds.start + 4 * n_blocks);
    let mut crc = iiu_index::Crc32::new();
    crc.update(&bytes[metas.start + 8 * blocks.start..metas.start + 8 * blocks.end]);
    for column in [skips.start, ubs, max_tfs] {
        crc.update(&bytes[column + 4 * blocks.start..column + 4 * blocks.end]);
    }
    crc.update(&bytes[payload_start..payload_end]);
    bytes[entry + 28..entry + 32].copy_from_slice(&crc.finish().to_le_bytes());
    let table = bytes.len() - 4 - TABLE_LEN;
    for (i, section) in [metas, skips, bounds, names, directory].into_iter().enumerate() {
        let crc = iiu_index::crc32(&bytes[section]);
        bytes[table + 48 + 4 * i..table + 52 + 4 * i].copy_from_slice(&crc.to_le_bytes());
    }
    let n = bytes.len();
    let crc = iiu_index::crc32(&bytes[table..n - 8]);
    bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
    let footer = iiu_index::crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
}

/// Adds one raw unit to the stored `ub` of the first block of `term` in
/// `bytes`, the v5 file of `idx`, and reseals every checksum. The bounds
/// section holds one ub per block, then one max_tf per block.
fn nudge_first_bound(idx: &iiu_index::InvertedIndex, bytes: &mut [u8], term: &str) {
    let [_, _, _, bounds, _, _] = sections(bytes);
    let id = idx.term_id(term).expect("indexed");
    let first = (0..id).map(|t| idx.encoded_list(t).num_blocks()).sum::<usize>();
    let at = bounds.start + 4 * first;
    let ub = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    bytes[at..at + 4].copy_from_slice(&(ub + 1).to_le_bytes());
    reseal(idx, bytes, term);
}

#[test]
fn a_flipped_record_byte_fails_pruned_and_and_or_on_both_engines() {
    // The pruned two-term walk checks each list once, when its cursor is
    // built, not at every block decode: this pins that the check still
    // happens on every path that reaches the walk. A byte flipped inside
    // a mapped list's payload breaks its record CRC, and a stored bound
    // one raw unit off (all checksums resealed) breaks the content
    // oracle; pruned AND and OR, unsharded and over two windows, must
    // answer the list's fault — on a fresh mapping, where the query makes
    // the first touch, and again on the kept verdict.
    let mut builder = IndexBuilder::new(BuildOptions {
        partitioner: iiu_index::Partitioner::fixed(4),
        ..BuildOptions::default()
    });
    for i in 0..200 {
        let fox = if i % 3 == 0 { "fox" } else { "" };
        builder.add_document(&format!("quick dog w{} {fox}", i % 5));
    }
    let idx = builder.build();
    let good = serialize(&idx).expect("serialize");
    let mut flipped = good.clone();
    let (_, payload, end) = record_of(&idx, &flipped, "quick");
    flipped[(payload + end) / 2] ^= 0x10;
    let mut nudged = good;
    nudge_first_bound(&idx, &mut nudged, "quick");
    use iiu_index::IndexError::{ChecksumMismatch, CorruptIndex};
    let is_flip = |e: &iiu_index::IndexError| {
        matches!(e, ChecksumMismatch { section: "term record", .. })
    };
    let is_nudge = |e: &iiu_index::IndexError| {
        matches!(e, CorruptIndex { context: "score bounds mismatch" })
    };
    let scratch = scratch_path("flipped-record");
    for (name, bytes, is_fault) in [
        ("flipped record byte", flipped, &is_flip as &dyn Fn(&_) -> bool),
        ("nudged bound", nudged, &is_nudge),
    ] {
        std::fs::write(&scratch, &bytes).expect("scratch file writable");
        for windows in [1, 2] {
            for (x, y) in [("quick", "dog"), ("dog", "quick")] {
                let mapped =
                    iiu_index::storage::map_index(&scratch).expect("the open defers CRCs");
                let mapped = std::sync::Arc::new(mapped);
                let mut answers = Vec::new();
                for _ in 0..2 {
                    if windows == 1 {
                        let engine = iiu_baseline::CpuEngine::new(&mapped).with_pruning(true);
                        answers.push(engine.search_intersection(x, y, 10).map(|_| ()));
                        answers.push(engine.search_union(x, y, 10).map(|_| ()));
                    } else {
                        let parts = iiu_baseline::PartSource::windows(mapped.clone(), windows);
                        let engine =
                            iiu_baseline::ShardedEngine::new(parts).with_pruning(true);
                        answers.push(engine.search_intersection(x, y, 10).map(|_| ()));
                        answers.push(engine.search_union(x, y, 10).map(|_| ()));
                    }
                }
                for answer in answers {
                    let err = answer.expect_err("a corrupt list must not answer");
                    assert!(is_fault(&err), "{name}, windows={windows} {x}/{y}: {err:?}");
                }
                // The uncorrupted list alone still serves.
                mapped.verify_term(mapped.term_id("fox").expect("indexed")).expect("intact");
            }
        }
    }
    std::fs::remove_file(&scratch).ok();
}

/// What `index` answers: every list's first touch, one pruned query per
/// shape, then `validate()` — the first typed error on the way, if any.
fn answers(
    index: &iiu_index::InvertedIndex,
) -> Result<Vec<Vec<iiu_baseline::Hit>>, IndexError> {
    for id in 0..index.num_terms() as u32 {
        index.verify_term(id)?;
    }
    let engine = iiu_baseline::CpuEngine::new(index).with_pruning(true);
    let hits = vec![
        engine.search_single("quick", 10)?.hits,
        engine.search_intersection("quick", "fox", 10)?.hits,
        engine.search_union("dog", "fox", 10)?.hits,
    ];
    index.validate()?;
    Ok(hits)
}

#[test]
fn every_flip_and_cut_of_a_small_file_is_a_typed_error_or_the_same_answer() {
    // The one parser on both backings: every one-bit flip (one per byte)
    // and every truncation of a small v5 file, opened on the heap and
    // mapped, then every list touched, one query per shape and
    // `validate()`. Each case answers a typed error or exactly what the
    // intact file answers; a panic fails the test.
    let mut builder = IndexBuilder::new(BuildOptions {
        partitioner: iiu_index::Partitioner::fixed(4),
        ..BuildOptions::default()
    });
    for i in 0..24 {
        let fox = if i % 2 == 0 { "fox" } else { "" };
        builder.add_document(&format!("quick dog w{} {fox}", i % 3));
    }
    let idx = builder.build();
    let good = serialize(&idx).expect("serialize");
    let want = answers(&idx).expect("the intact file answers");
    let flips = (0..good.len()).map(|i| {
        let mut bytes = good.clone();
        bytes[i] ^= 1 << (i % 8);
        bytes
    });
    let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
    let scratch = scratch_path("sweep");
    let (mut refused, mut served) = (0, 0);
    for (case, bytes) in flips.chain(cuts).enumerate() {
        std::fs::write(&scratch, &bytes).expect("scratch file writable");
        let heap = deserialize(&bytes).and_then(|index| answers(&index));
        let mapped = iiu_index::storage::map_index(&scratch).and_then(|index| answers(&index));
        for (backing, got) in [("heap", heap), ("mapped", mapped)] {
            match got {
                Err(_) => refused += 1,
                Ok(got) => {
                    assert_eq!(got, want, "case {case} ({backing}) answered differently");
                    served += 1;
                }
            }
        }
    }
    std::fs::remove_file(&scratch).ok();
    // Only the mapped opens of the four footer flips serve.
    assert_eq!((served, refused), (4, 4 * good.len() - 4));

    // Files written wrong, every checksum resealed: the heap load refuses
    // each with the error the mapped list's first touch gives, and the
    // lists left alone still serve.
    let quick = idx.term_id("quick").expect("indexed");
    for (context, bytes) in written_wrong(&idx, &good, "quick") {
        let fault = |r: Result<(), IndexError>| matches!(r, Err(IndexError::CorruptIndex { context: c }) if c == context);
        assert!(fault(deserialize(&bytes).map(|_| ())), "{context}: the heap load");
        std::fs::write(&scratch, &bytes).expect("scratch file writable");
        let mapped =
            iiu_index::storage::map_index(&scratch).expect("the open decodes nothing");
        std::fs::remove_file(&scratch).ok();
        assert!(fault(mapped.verify_term(quick)), "{context}: the first touch");
        assert!(fault(mapped.verify_term(quick)), "{context}: the kept verdict");
        if context != "posting list references docID beyond corpus" {
            for id in (0..mapped.num_terms() as u32).filter(|&id| id != quick) {
                mapped.verify_term(id).expect("an untouched list serves");
            }
        }
    }
}

/// Four copies of `good`, the v5 file of `idx`, written wrong with every
/// checksum resealed, each with the fault the first touch of `term`'s
/// list names: its first block's payload zeroed (every gap and tf 0, so it
/// decodes to its skip value repeated), the last document cut from the
/// header and doc table (the lists holding it reach past the corpus), its
/// first stored bound one raw unit high, and its last metadata word's
/// offset at the end of its payload.
fn written_wrong(
    idx: &iiu_index::InvertedIndex,
    good: &[u8],
    term: &str,
) -> Vec<(&'static str, Vec<u8>)> {
    let crc = |b: &[u8]| iiu_index::crc32(b).to_le_bytes();
    let list = idx.encoded_list(idx.term_id(term).expect("indexed"));
    let (_, payload, payload_end) = record_of(idx, good, term);

    let mut repeated = good.to_vec();
    repeated[payload..payload + list.metas().at(1).offset as usize].fill(0);
    reseal(idx, &mut repeated, term);

    // magic 8 · header 38 · crc 4 · doc table 4 per doc · crc 4.
    let n_docs = idx.num_docs() as usize;
    let docs = 50..50 + 4 * (n_docs - 1);
    let mut beyond = good[..50].to_vec();
    beyond[30..38].copy_from_slice(&(n_docs as u64 - 1).to_le_bytes());
    let header_crc = crc(&beyond[8..46]);
    beyond[46..50].copy_from_slice(&header_crc);
    beyond.extend_from_slice(&good[docs.clone()]);
    beyond.extend_from_slice(&crc(&good[docs]));
    beyond.extend_from_slice(&good[50 + 4 * n_docs + 4..good.len() - 4]);
    let footer = crc(&beyond);
    beyond.extend_from_slice(&footer);

    let mut nudged = good.to_vec();
    nudge_first_bound(idx, &mut nudged, term);

    let mut past = good.to_vec();
    let [_, metas, _, _, _, _] = sections(good);
    let id = idx.term_id(term).expect("indexed");
    let blocks = (0..=id).map(|t| idx.encoded_list(t).num_blocks()).sum::<usize>();
    let at = metas.start + 8 * (blocks - 1);
    let mut meta = iiu_index::BlockMeta::unpack(u64::from_le_bytes(
        past[at..at + 8].try_into().expect("8 bytes"),
    ));
    meta.offset = (payload_end - payload) as u64;
    past[at..at + 8].copy_from_slice(&meta.pack().to_le_bytes());
    reseal(idx, &mut past, term);

    vec![
        ("docIDs not increasing", repeated),
        ("posting list references docID beyond corpus", beyond),
        ("score bounds mismatch", nudged),
        ("payload bounds", past),
    ]
}

#[test]
fn stalled_simulation_reports_snapshot_instead_of_spinning() {
    // queue_cap = 0 means no unit can ever hand data downstream: the
    // machine wedges immediately. The watchdog must convert that into a
    // typed error carrying a per-unit progress snapshot, bounded by
    // max_cycles so the test is fast.
    let idx = index();
    let cfg = SimConfig { queue_cap: 0, max_cycles: Some(10_000), ..SimConfig::default() };
    let machine = IiuMachine::new(&idx, cfg);
    let t = (0..idx.num_terms() as u32)
        .max_by_key(|&t| idx.term_info(t).df)
        .expect("non-empty index");
    let err = machine
        .run_query(SimQuery::Single(t), 1)
        .expect_err("a zero-capacity pipeline cannot finish");
    match err {
        SimError::Stalled { snapshot } => {
            assert!(snapshot.cycle <= 10_000 + 1);
            assert!(!snapshot.execs.is_empty(), "snapshot must name the stuck execution");
            let exec = &snapshot.execs[0];
            assert!(!exec.cores.is_empty());
            assert!(!exec.streams.is_empty());
            // Diagnostics must render without panicking.
            let rendered = SimError::Stalled { snapshot }.to_string();
            assert!(rendered.contains("stalled at cycle"), "{rendered}");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }

    // The same machine config with sane queues completes fine.
    let ok = IiuMachine::new(&idx, SimConfig::default()).run_query(SimQuery::Single(t), 1);
    assert!(ok.is_ok());
}

#[test]
fn or_with_unknown_term_degrades_on_both_engines() {
    let idx = index();
    let mut sampler = QuerySampler::new(&idx, 11);
    let known = sampler.single_queries(1).remove(0);
    let q = Query::or(Query::term(known), Query::term("zzz_not_a_term"));

    let mut cpu = CpuSearchEngine::new(&idx);
    let mut iiu = IiuSearchEngine::new(&idx);
    let rc = cpu.search(&q, 10).expect("degrades, not errors");
    let ri = iiu.search(&q, 10).expect("degrades, not errors");
    assert!(!rc.hits.is_empty(), "the known side must still serve");
    assert_eq!(rc.hits, ri.hits);
    for r in [&rc, &ri] {
        assert!(r.is_degraded());
        assert_eq!(
            r.degraded,
            vec![Degradation::UnknownTermDropped { term: "zzz_not_a_term".into() }]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// v4 round-trip is lossless — deep equality of the index, and the
    /// positional sidecar (its own little format) round-trips alongside.
    #[test]
    fn prop_v2_roundtrip_with_positions(
        docs in proptest::collection::vec(
            proptest::collection::vec("[a-e]{1,6}", 1..12),
            1..20,
        )
    ) {
        let mut b = IndexBuilder::new(BuildOptions {
            track_positions: true,
            ..BuildOptions::default()
        });
        for words in &docs {
            b.add_document(&words.join(" "));
        }
        let (index, positions) = b.build_with_positions();

        let bytes = serialize(&index).expect("serialize");
        let reloaded = deserialize(&bytes).expect("own output must load");
        prop_assert_eq!(&reloaded, &index);
        reloaded.validate().expect("round-tripped index validates");

        let pos_bytes = positions.to_bytes();
        let pos_reloaded =
            PositionIndex::from_bytes(&pos_bytes).expect("sidecar round-trips");
        prop_assert_eq!(&pos_reloaded, &positions);
    }
}
