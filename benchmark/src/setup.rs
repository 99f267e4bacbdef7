//! Set-up of the static workloads: generate the corpus, build the index
//! with product defaults, serialize it, write it, and open it from the
//! file the way a deployment does. The whole path runs several times in a
//! run and `setup_s` is the median, so that work a later change moves
//! into build or open shows, steadily.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use iiu_index::{io, storage, InvertedIndex};
use iiu_serve::{
    BreakerConfig, FaultPlan, QueryService, RetryPolicy, SchedulerConfig, ServeConfig,
    ShardPoolConfig,
};
use iiu_workloads::CorpusConfig;

use crate::inputs::{corpus_fingerprint, corpus_seed, postings};

/// Serve workers, document shards and shard-pool threads: the reference
/// box has two cores, and the load generators add two mostly-blocked
/// client threads.
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_SHARDS: usize = 2;
pub const POOL_THREADS: usize = 2;
/// Far above the two ops the closed-loop clients keep outstanding, so
/// admission never sheds.
pub const QUEUE_CAPACITY: usize = 4096;
pub const DEADLINE: Duration = Duration::from_secs(60);

/// The service configuration of the serve workloads: CPU path only (the
/// simulator's time is not wall time), hybrid routing and pruning on.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        default_deadline: DEADLINE,
        // The first device attempt is sabotaged, nothing retries, and the
        // breaker then stays open for the run: every answer is computed
        // by the software engine, as in `serve_bench`.
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3_600),
            probe_successes: 2,
        },
        fault: FaultPlan { burst: Some((0, u64::MAX)), seed: 0x5E12, ..FaultPlan::NONE },
        pruned_cpu_fallback: true,
        shards: SERVE_SHARDS,
        shard_pool: ShardPoolConfig {
            pool_threads: POOL_THREADS,
            ..ShardPoolConfig::default()
        },
        scheduler: SchedulerConfig { hybrid: true, ..SchedulerConfig::default() },
        ..ServeConfig::default()
    }
}

/// How the workload opens the index file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loader {
    /// `fs::read` + `io::deserialize`, once per set-up and
    /// [`EXTRA_HEAP_OPENS`] more times after the last.
    Heap,
    /// `storage::map_index`, [`MAP_OPENS`] times per set-up.
    Mapped,
}

/// `open_s` is the median of every open of the run, and needs at least
/// five spread over a few seconds to shrug off the box's speed steps: a
/// map takes ~40 ms, so several per set-up cost little; a heap load takes
/// over a second, so only two beyond the set-ups' own.
pub const MAP_OPENS: usize = 7;
pub const EXTRA_HEAP_OPENS: usize = 2;

/// Seconds each step of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steps {
    pub generate_s: f64,
    pub build_s: f64,
    pub serialize_s: f64,
    pub write_s: f64,
    /// The product's open call: read + deserialize, or the median map of
    /// this set-up.
    pub open_s: f64,
    /// Deserialize alone (heap loader).
    pub load_s: f64,
    /// `QueryService::start`, which splits the index into shards.
    pub start_s: f64,
}

impl Steps {
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.build_s
            + self.serialize_s
            + self.write_s
            + self.open_s
            + self.start_s
    }
}

/// What the last set-up left standing, and the timings of all of them.
pub struct StaticSetup {
    /// The index as the workload opened it.
    pub index: Arc<InvertedIndex>,
    pub service: Option<QueryService>,
    /// The index as built, for the oracle. The caller takes it and drops
    /// it once the reference answers exist.
    pub built: Option<InvertedIndex>,
    pub path: PathBuf,
    pub file_bytes: u64,
    pub postings: u64,
    pub corpus_fingerprint: String,
    pub steps: Vec<Steps>,
    /// Seconds of every open call of the run.
    pub opens: Vec<f64>,
}

/// [`crate::harness::timed`] in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, took) = crate::harness::timed(f);
    (out, took.as_secs_f64())
}

fn open(
    loader: Loader,
    path: &Path,
    steps: &mut Steps,
    opens: &mut Vec<f64>,
) -> InvertedIndex {
    match loader {
        Loader::Heap => {
            let (bytes, read_s) =
                timed(|| std::fs::read(path).expect("reading the index file"));
            let (index, load_s) =
                timed(|| io::deserialize(&bytes).expect("deserializing the index"));
            steps.load_s = load_s;
            steps.open_s = read_s + load_s;
            opens.push(steps.open_s);
            index
        }
        Loader::Mapped => {
            let mut maps: Vec<(InvertedIndex, f64)> = (0..MAP_OPENS)
                .map(|_| timed(|| storage::map_index(path).expect("mapping the index")))
                .collect();
            let times: Vec<f64> = maps.iter().map(|o| o.1).collect();
            steps.open_s = crate::stats::median(&times);
            opens.extend(times);
            maps.pop().expect("MAP_OPENS > 0").0
        }
    }
}

/// Runs the set-up path `repeats` times and keeps the last result.
///
/// # Panics
///
/// Panics when the product fails to build, write or open its own index:
/// nothing can be measured then.
pub fn static_setup(
    docs: u32,
    seed: u64,
    loader: Loader,
    serve: Option<&ServeConfig>,
    scratch: &Path,
    repeats: usize,
) -> StaticSetup {
    let cfg = CorpusConfig { seed: corpus_seed(seed), ..CorpusConfig::ccnews_like(docs) };
    let path = scratch.join("index.iiu");
    let mut all_steps = Vec::with_capacity(repeats);
    let mut opens = Vec::new();
    let mut kept = None;
    for rep in 0..repeats {
        // The previous repeat's index and service are gone before the
        // next starts, as on a fresh deployment.
        drop(kept.take());
        let mut steps = Steps::default();
        let (corpus, generate_s) = timed(|| cfg.generate());
        steps.generate_s = generate_s;
        let fingerprint =
            if rep + 1 == repeats { corpus_fingerprint(&corpus) } else { String::new() };
        let (built, build_s) = timed(|| corpus.into_default_index());
        steps.build_s = build_s;
        let (bytes, serialize_s) =
            timed(|| io::serialize(&built).expect("serializing the index"));
        steps.serialize_s = serialize_s;
        let ((), write_s) =
            timed(|| std::fs::write(&path, &bytes).expect("writing the index file"));
        steps.write_s = write_s;
        let file_bytes = bytes.len() as u64;
        drop(bytes);
        let index = Arc::new(open(loader, &path, &mut steps, &mut opens));
        let (service, start_s) =
            timed(|| serve.map(|c| QueryService::start(Arc::clone(&index), c.clone())));
        if service.is_some() {
            steps.start_s = start_s;
        }
        all_steps.push(steps);
        kept = Some((index, service, built, file_bytes, fingerprint));
    }
    let (index, service, built, file_bytes, corpus_fingerprint) = kept.expect("repeats > 0");
    if loader == Loader::Heap {
        for _ in 0..EXTRA_HEAP_OPENS {
            drop(open(loader, &path, &mut Steps::default(), &mut opens));
        }
    }
    StaticSetup {
        postings: postings(&index),
        index,
        service,
        built: Some(built),
        path,
        file_bytes,
        corpus_fingerprint,
        steps: all_steps,
        opens,
    }
}

/// A directory of the benchmark's own under the build directory (so
/// inside the checkout, and ignored by git), removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        // <build dir>/release/benchmark -> <build dir>/benchmark-run/...
        let exe = std::env::current_exe()?;
        let build_dir = exe.parent().and_then(Path::parent).unwrap_or(Path::new("."));
        let dir =
            build_dir.join("benchmark-run").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Where trace files go: beside the scratch directories, kept after
    /// the run.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.dir.parent().unwrap_or(Path::new(".")).join(format!("trace-{workload}.json"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
