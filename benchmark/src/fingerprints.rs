//! Input pinning: for the recorded seed and size, the fingerprints of the
//! corpus, pool and stream must equal the ones in `fingerprints.json`, so
//! that a later change to `iiu-workloads` (or to the benchmark's own
//! samplers) cannot silently change the traffic. To re-record after an
//! intended change, copy the `fingerprints` object each workload prints
//! into that file.

use serde_json::{json, Map, Value};

use crate::inputs::{PoolEntry, Stream};
use crate::Options;

const RECORDED: &str = include_str!("../fingerprints.json");

/// Notes a run's input fingerprints in `info` and compares them with the
/// recorded ones of `workload`. Returns false only on a mismatch.
pub fn record(
    workload: &str,
    opts: &Options,
    corpus: &str,
    pool_texts: &str,
    stream: &Stream,
    pool: &[PoolEntry],
    info: &mut Map,
) -> bool {
    let mut got = Map::new();
    got.insert("corpus".into(), json!(corpus));
    got.insert("pool".into(), json!(pool_texts));
    got.insert("stream".into(), json!(stream.fingerprint()));
    got.insert("heavy_share".into(), json!(stream.heavy_share(pool)));
    let matches = check(workload, opts, &got, info);
    info.insert("fingerprints".into(), got.into());
    matches
}

/// Compares `got` with the recorded fingerprints of `workload` when the
/// run's seed, size and length are the recorded ones; notes the verdict
/// in `info`.
fn check(workload: &str, opts: &Options, got: &Map, info: &mut Map) -> bool {
    let recorded: Value = serde_json::from_str(RECORDED).unwrap_or(Value::Null);
    let same_inputs = recorded["seed"].as_u64() == Some(opts.seed)
        && recorded["docs"].as_u64() == Some(u64::from(opts.docs))
        && recorded["seconds"].as_f64() == Some(opts.seconds);
    let Some(want) = recorded["workloads"][workload].as_object().filter(|_| same_inputs)
    else {
        info.insert(
            "fingerprint_check".into(),
            json!("not recorded for this seed, size and length"),
        );
        return true;
    };
    let differing: Vec<&String> =
        want.iter().filter(|(k, v)| got.get(*k) != Some(v)).map(|(k, _)| k).collect();
    if differing.is_empty() {
        info.insert("fingerprint_check".into(), json!("matches fingerprints.json"));
        true
    } else {
        info.insert(
            "fingerprint_check".into(),
            json!(format!("MISMATCH with fingerprints.json in {differing:?}")),
        );
        false
    }
}
