//! Torn-write recovery campaign for the crash-safe incremental index
//! (DESIGN.md §16).
//!
//! Each trial ingests a random prefix of a transposed corpus through a
//! randomized batch/seal/compact schedule, simulates a crash by dropping
//! the handle and damaging the on-disk state (torn WAL tails, garbage
//! appends, stale temp files, a deleted WAL, a stale WAL left behind by a
//! crash between segment rename and WAL reset), reopens, and asserts:
//!
//! * recovery never panics and never hangs,
//! * the recovered document count is a prefix — at least everything
//!   sealed, at most everything acknowledged,
//! * the recovered index is **bit-identical** (full `InvertedIndex`
//!   equality, plus hit-for-hit search agreement on single-term, AND and
//!   OR queries) to a one-shot build over exactly that prefix,
//! * re-ingesting the lost suffix converges back to the full corpus.
//!
//! Unrecoverable damage — CRC-corrupt *interior* WAL records, corrupt or
//! truncated sealed segments — must surface as typed [`IndexError`]s,
//! never as panics or silently wrong indexes.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use std::sync::Arc;

use iiu_core::{CpuSearchEngine, Query, SearchEngine};
use iiu_index::{
    IncrementalIndex, IncrementalOptions, IndexError, IngestDoc, InvertedIndex, PostingList,
};
use iiu_serve::{LiveIndex, QueryService, ServeConfig};
use iiu_workloads::CorpusConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WAL: &str = "wal.log";

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iiu-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Small transposed corpus shared by every trial.
fn chaos_docs() -> Vec<IngestDoc> {
    CorpusConfig { n_docs: 300, n_terms: 80, ..CorpusConfig::tiny(0xC4A05) }
        .generate()
        .to_docs()
}

/// One-shot reference over `docs`, built without touching any of the
/// incremental machinery: transpose back into posting lists and feed
/// [`InvertedIndex::from_lists`] directly.
fn reference_index(docs: &[IngestDoc], opts: &IncrementalOptions) -> InvertedIndex {
    let mut lists: BTreeMap<String, PostingList> = BTreeMap::new();
    let mut doc_lens = Vec::with_capacity(docs.len());
    for (id, d) in docs.iter().enumerate() {
        doc_lens.push(d.len());
        for (term, tf) in d.terms() {
            lists.entry(term.clone()).or_default().push(id as u32, *tf);
        }
    }
    InvertedIndex::from_lists(
        lists.into_iter().collect(),
        doc_lens,
        opts.partitioner,
        opts.bm25,
    )
    .expect("reference build")
}

/// Asserts hit-for-hit agreement between `got` and `want` on the three
/// gated query shapes: single term, two-term AND, two-term OR.
fn assert_search_identical(rng: &mut StdRng, got: &InvertedIndex, want: &InvertedIndex) {
    if want.num_terms() < 2 {
        return;
    }
    let a = &want.term_info(rng.gen_range(0..want.num_terms() as u32)).term;
    let b = &want.term_info(rng.gen_range(0..want.num_terms() as u32)).term;
    for text in [a.to_string(), format!("{a} AND {b}"), format!("{a} OR {b}")] {
        let q = Query::parse(&text).expect("generated query parses");
        let rg = CpuSearchEngine::new(got).search(&q, 10).expect("search recovered");
        let rw = CpuSearchEngine::new(want).search(&q, 10).expect("search reference");
        assert_eq!(rg.hits, rw.hits, "hits diverge on {text:?}");
        assert_eq!(rg.candidates, rw.candidates, "candidates diverge on {text:?}");
    }
}

/// Randomized ingest schedule: batches of 1..=24 docs, occasional manual
/// seals and compactions. Returns the sealed count at "crash" time.
fn run_schedule(
    idx: &mut IncrementalIndex,
    docs: &[IngestDoc],
    upto: usize,
    rng: &mut StdRng,
) {
    let mut i = idx.num_docs() as usize;
    while i < upto {
        let b = rng.gen_range(1..=24usize).min(upto - i);
        idx.ingest_batch(&docs[i..i + b]).expect("acknowledged ingest");
        i += b;
        if idx.options().seal_threshold == 0 && rng.gen_bool(0.2) {
            idx.seal().expect("manual seal");
        }
        if rng.gen_bool(0.05) {
            idx.compact().expect("compact");
        }
    }
}

#[test]
fn recovery_campaign_survives_randomized_torn_writes() {
    // ≥1k randomized trials in release (verify.sh runs this test in
    // release mode); a slimmer but same-shaped pass under `cargo test`.
    const TRIALS: u64 = if cfg!(debug_assertions) { 150 } else { 1_200 };
    let all = chaos_docs();
    let dir = tmp_dir("campaign");

    for trial in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(0x0C4A_0500 + trial);
        std::fs::remove_dir_all(&dir).ok();
        let opts = IncrementalOptions {
            seal_threshold: [0usize, 16, 32, 64][rng.gen_range(0..4usize)],
            merge_threshold: [0usize, 2, 4][rng.gen_range(0..3usize)],
            ..IncrementalOptions::default()
        };
        let n_ingest = rng.gen_range(10..all.len());
        let mut idx = IncrementalIndex::open(&dir, opts).expect("fresh open");
        run_schedule(&mut idx, &all, n_ingest, &mut rng);

        // Pick the crash mode, then "crash": drop the handle and damage
        // the directory the way a torn write would.
        let fault = rng.gen_range(0..6u32);
        let stale_wal = (fault == 5).then(|| {
            // Crash between segment rename and WAL reset: the segment is
            // durable but the old WAL (now pure duplicates) is still on
            // disk. Capture it, seal, then put it back.
            let bytes = std::fs::read(dir.join(WAL)).expect("read wal");
            idx.seal().expect("seal before stale-wal crash");
            bytes
        });
        let sealed_at_crash = idx.sealed_docs();
        drop(idx);
        let wal_path = dir.join(WAL);
        match fault {
            0 => {} // clean shutdown (control)
            1 => {
                // Torn tail: the final append hit the disk partially.
                let len = std::fs::metadata(&wal_path).expect("wal meta").len();
                let cut = len.saturating_sub(rng.gen_range(1..=40u64));
                let f =
                    std::fs::OpenOptions::new().write(true).open(&wal_path).expect("open wal");
                f.set_len(cut).expect("truncate wal");
            }
            2 => {
                // Torn append: garbage bytes past the last full record.
                let mut bytes = std::fs::read(&wal_path).expect("read wal");
                for _ in 0..rng.gen_range(1..=24usize) {
                    bytes.push(rng.gen_range(0..=u8::MAX));
                }
                std::fs::write(&wal_path, bytes).expect("write garbage tail");
            }
            3 => {
                // In-flight seal: a temp segment that never got renamed.
                std::fs::write(
                    dir.join("seg-000000000099-000000000001.iiu.tmp"),
                    b"half-written segment",
                )
                .expect("write stale tmp");
            }
            4 => {
                // WAL lost wholesale; only sealed segments survive.
                std::fs::remove_file(&wal_path).expect("remove wal");
            }
            5 => {
                std::fs::write(&wal_path, stale_wal.as_deref().unwrap_or_default())
                    .expect("restore stale wal");
            }
            _ => unreachable!(),
        }

        // Reopen. Recovery must neither panic nor error on these modes.
        let recovered = catch_unwind(AssertUnwindSafe(|| IncrementalIndex::open(&dir, opts)))
            .unwrap_or_else(|_| panic!("recovery panicked (trial {trial}, fault {fault})"))
            .unwrap_or_else(|e| panic!("recovery failed (trial {trial}, fault {fault}): {e}"));
        let n_rec = recovered.num_docs() as usize;
        assert!(
            n_rec as u64 >= sealed_at_crash,
            "sealed docs lost: {n_rec} < {sealed_at_crash} (trial {trial}, fault {fault})"
        );
        assert!(n_rec <= n_ingest, "phantom docs after recovery (trial {trial})");
        match fault {
            0 | 2 | 3 | 5 => assert_eq!(n_rec, n_ingest, "trial {trial} fault {fault}"),
            4 => assert_eq!(n_rec as u64, sealed_at_crash, "trial {trial}"),
            _ => {}
        }
        if fault == 5 && stale_wal.as_deref().map_or(0, <[u8]>::len) > 8 {
            // The stale WAL held at least one full record and everything
            // in it is sealed, so replay must skip it as a duplicate.
            assert!(
                recovered.recovery_report().wal_duplicates_skipped > 0,
                "stale WAL records must be skipped as duplicates (trial {trial})"
            );
        }

        // The surviving prefix must be bit-identical to a one-shot build.
        let reference = reference_index(&all[..n_rec], &opts);
        let got = recovered.to_one_shot().expect("materialize recovered");
        assert_eq!(got, reference, "recovered index diverges (trial {trial}, fault {fault})");
        assert_search_identical(&mut rng, &got, &reference);

        // Losing unacknowledged docs is recoverable in the larger system:
        // re-ingesting the suffix converges to the full corpus.
        let mut recovered = recovered;
        run_schedule(&mut recovered, &all, n_ingest, &mut rng);
        let full = recovered.to_one_shot().expect("materialize converged");
        assert_eq!(
            full,
            reference_index(&all[..n_ingest], &opts),
            "re-ingest did not converge (trial {trial}, fault {fault})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interior_wal_corruption_is_a_typed_error_not_a_panic() {
    let all = chaos_docs();
    let dir = tmp_dir("interior");
    let opts = IncrementalOptions { seal_threshold: 0, ..IncrementalOptions::default() };
    let mut idx = IncrementalIndex::open(&dir, opts).expect("fresh open");
    // Three unsealed records so byte 12 (the first record's CRC field)
    // is strictly interior.
    idx.ingest_batch(&all[..3]).expect("ingest");
    drop(idx);
    let wal_path = dir.join(WAL);
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    bytes[12] ^= 0x40;
    std::fs::write(&wal_path, &bytes).expect("write corrupt wal");

    let result = catch_unwind(AssertUnwindSafe(|| IncrementalIndex::open(&dir, opts)))
        .expect("interior corruption must not panic");
    match result {
        Err(IndexError::CorruptWal { offset, .. }) => {
            assert_eq!(offset, 8, "first record starts right after the header");
        }
        other => panic!("expected CorruptWal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_sealed_segments_are_typed_errors_never_panics() {
    const TRIALS: u64 = if cfg!(debug_assertions) { 40 } else { 200 };
    let all = chaos_docs();
    let dir = tmp_dir("segfault");
    let opts = IncrementalOptions { seal_threshold: 0, ..IncrementalOptions::default() };

    // Pristine baseline: one sealed segment plus a few buffered docs.
    let mut idx = IncrementalIndex::open(&dir, opts).expect("fresh open");
    idx.ingest_batch(&all[..60]).expect("ingest");
    idx.seal().expect("seal");
    idx.ingest_batch(&all[60..70]).expect("ingest buffered");
    drop(idx);
    let seg_path = dir.join(
        std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .find_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.starts_with("seg-").then_some(name)
            })
            .expect("one sealed segment"),
    );
    let pristine_seg = std::fs::read(&seg_path).expect("read segment");
    let pristine_wal = std::fs::read(dir.join(WAL)).expect("read wal");
    let reference = IncrementalIndex::open(&dir, opts)
        .expect("clean reopen")
        .to_one_shot()
        .expect("materialize");

    for trial in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(0x5E6F_A017 + trial);
        // Restore, then damage the segment: random single-byte flip,
        // truncation (including inside the header), or total emptying.
        std::fs::write(&seg_path, &pristine_seg).expect("restore segment");
        std::fs::write(dir.join(WAL), &pristine_wal).expect("restore wal");
        let mut mutated = pristine_seg.clone();
        match trial % 3 {
            0 => {
                let at = rng.gen_range(0..mutated.len());
                let bit = 1u8 << rng.gen_range(0..8);
                mutated[at] ^= bit;
            }
            1 => mutated.truncate(rng.gen_range(0..mutated.len())),
            _ => mutated.clear(),
        }
        if mutated == pristine_seg {
            continue;
        }
        std::fs::write(&seg_path, &mutated).expect("write damaged segment");

        let result = catch_unwind(AssertUnwindSafe(|| IncrementalIndex::open(&dir, opts)))
            .unwrap_or_else(|_| panic!("segment damage panicked recovery (trial {trial})"));
        match result {
            Err(e) => {
                // Typed rejection: render the diagnostic to prove the
                // error path itself is panic-free.
                assert!(!e.to_string().is_empty());
            }
            Ok(recovered) => {
                // The flip landed somewhere semantically inert; the
                // recovered index must still be exactly right.
                let got = recovered.to_one_shot().expect("materialize survivor");
                assert_eq!(got, reference, "silent segment corruption (trial {trial})");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_service_answers_while_ingesting() {
    // Write-while-serving soak: a live QueryService answers queries from
    // the segment+buffer union while the same service ingests batches
    // concurrently (worker threads search while this thread writes).
    // Every submitted query must resolve, every acknowledged batch must
    // be WAL-durable, and the final directory must recover to exactly
    // the one-shot index over everything ingested.
    let all = chaos_docs();
    let dir = tmp_dir("livesoak");
    let opts = IncrementalOptions {
        seal_threshold: 64,
        merge_threshold: 4,
        ..IncrementalOptions::default()
    };
    let live = Arc::new(LiveIndex::open(&dir, opts).expect("open live index"));
    live.ingest_batch(&all[..50]).expect("warm-up ingest");

    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    // Unanswered submissions bound the admission queue's depth, so waiting
    // for the oldest reply at half the capacity keeps every submission
    // admissible however the workers are scheduled.
    let max_pending = cfg.queue_capacity / 2;
    let mut svc = QueryService::start_live(Arc::clone(&live), cfg);
    let mut rng = StdRng::seed_from_u64(0x11FE_50A4);
    let mut pending = VecDeque::new();
    let mut i = 50usize;
    while i < all.len() {
        let b = rng.gen_range(1..=16usize).min(all.len() - i);
        let acked = svc.ingest(&all[i..i + b]).expect("live ingest");
        assert_eq!(acked, i as u64..(i + b) as u64, "docIDs are the ingest order");
        i += b;
        for _ in 0..3 {
            let a = format!("t{:07}", rng.gen_range(0..80u32));
            let b = format!("t{:07}", rng.gen_range(0..80u32));
            let text = match rng.gen_range(0..3u32) {
                0 => a,
                1 => format!("{a} AND {b}"),
                _ => format!("{a} OR {b}"),
            };
            let q = Query::parse(&text).expect("query parses");
            pending.push_back(svc.submit(q, 10).expect("admission"));
            if pending.len() >= max_pending {
                let oldest = pending.pop_front().expect("pending is non-empty");
                oldest.wait().expect("live query answered");
            }
        }
    }
    for p in pending {
        p.wait().expect("live query answered");
    }
    let h = svc.health();
    assert_eq!(h.submitted, h.answered() + h.rejected_total(), "accounting");
    assert_eq!(h.panicked, 0, "no isolated panics in the live path");
    svc.shutdown();
    drop(svc);

    let (sealed, buffered) = live.doc_counts();
    assert_eq!(sealed + buffered, all.len() as u64);
    drop(live);

    // Durability: everything acknowledged above survives a reopen.
    let reopened = IncrementalIndex::open(&dir, opts).expect("reopen after soak");
    assert_eq!(reopened.num_docs(), all.len() as u64);
    assert_eq!(
        reopened.to_one_shot().expect("materialize"),
        reference_index(&all, &opts),
        "post-soak index diverges from one-shot build"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_length_and_header_truncated_wal_recover_empty() {
    // A crash can leave the WAL at any length below its 8-byte header;
    // all of them mean "no unsealed docs" and must recover cleanly.
    for len in 0..8usize {
        let dir = tmp_dir(&format!("shortwal{len}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(WAL), vec![0xAB; len]).expect("write short wal");
        let idx = IncrementalIndex::open(&dir, IncrementalOptions::default())
            .expect("short WAL recovers");
        assert_eq!(idx.num_docs(), 0);
        assert!(len == 0 || idx.recovery_report().wal_header_rebuilt);
        std::fs::remove_dir_all(&dir).ok();
    }
}
