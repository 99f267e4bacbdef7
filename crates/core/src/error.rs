//! Typed search errors and graceful-degradation records.
//!
//! The engines distinguish two failure planes: the *index* plane
//! ([`IndexError`] — a corrupt or incomplete index) and the *simulation*
//! plane ([`SimError`] — the accelerator model wedged or was misconfigured).
//! Unknown query terms are no longer errors at all: the engines prune them
//! and report what was pruned through [`Degradation`] entries on the
//! response, so a serving layer can return partial results instead of a
//! 5xx.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use iiu_index::IndexError;
use iiu_sim::SimError;

/// An error from either engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum SearchError {
    /// The index rejected the request (missing positional sidecar,
    /// corruption detected mid-read, ...).
    Index(IndexError),
    /// The accelerator simulation failed (stall watchdog, bad allocation).
    Sim(SimError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Index(e) => write!(f, "index error: {e}"),
            SearchError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl SearchError {
    /// Whether a retry of the same query could succeed. Only simulator
    /// stalls qualify; index errors and bad requests are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            SearchError::Sim(e) => e.is_transient(),
            SearchError::Index(_) => false,
        }
    }
}

impl Error for SearchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SearchError::Index(e) => Some(e),
            SearchError::Sim(e) => Some(e),
        }
    }
}

impl From<IndexError> for SearchError {
    fn from(e: IndexError) -> Self {
        SearchError::Index(e)
    }
}

impl From<SimError> for SearchError {
    fn from(e: SimError) -> Self {
        SearchError::Sim(e)
    }
}

/// How a response was weakened to keep serving despite a problem term.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Degradation {
    /// An unknown term under `OR` contributed nothing and was dropped;
    /// the rest of the query ran normally.
    UnknownTermDropped {
        /// The term that is not in the dictionary.
        term: String,
    },
    /// An unknown term under `AND` (or inside a phrase) forced that whole
    /// conjunction to an empty result.
    UnknownTermEmptyAnd {
        /// The term that is not in the dictionary.
        term: String,
    },
    /// The query was answered by the CPU baseline instead of the device
    /// path. Hits are bit-identical, so this only degrades latency, but a
    /// serving layer must surface it.
    CpuFallback {
        /// Why the device path was bypassed (breaker open, retries
        /// exhausted, device panic, ...). A fixed reason is borrowed, so
        /// the breaker-open path formats and allocates nothing.
        reason: Cow<'static, str>,
    },
    /// The device path succeeded only after transient failures.
    Retried {
        /// Device attempts consumed, including the successful one (≥ 2).
        attempts: u32,
    },
    /// One or more shards did not contribute to a sharded answer; the
    /// hits cover only the surviving shards' documents. A missing docID
    /// window drops its contiguous docID range (about `1/total` of the
    /// corpus); a missing shard of a round-robin split drops every
    /// `total`-th document.
    ShardsUnavailable {
        /// Shard indices that did not answer, in ascending order.
        missing: Vec<usize>,
        /// Total number of shards the query fanned out across.
        total: usize,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::UnknownTermDropped { term } => {
                write!(f, "unknown term {term:?} dropped from OR")
            }
            Degradation::UnknownTermEmptyAnd { term } => {
                write!(f, "unknown term {term:?} empties its AND/phrase")
            }
            Degradation::CpuFallback { reason } => {
                write!(f, "served by CPU fallback: {reason}")
            }
            Degradation::Retried { attempts } => {
                write!(f, "device path needed {attempts} attempts")
            }
            Degradation::ShardsUnavailable { missing, total } => {
                write!(
                    f,
                    "{}/{total} shards unavailable (missing {missing:?}); \
                     hits cover surviving shards only",
                    missing.len()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        // The full bound callers need to box and send across threads.
        fn assert_error<T: Error + Send + Sync + 'static>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_error::<SearchError>();
        assert_send_sync::<Degradation>();

        let e = SearchError::Index(IndexError::PositionsUnavailable);
        assert!(e.to_string().starts_with("index error:"));
        assert!(e.source().is_some());
        let _boxed: Box<dyn Error + Send + Sync + 'static> = Box::new(e);

        let d = Degradation::UnknownTermDropped { term: "zyzzy".into() };
        assert!(d.to_string().contains("zyzzy"));

        let d = Degradation::ShardsUnavailable { missing: vec![1, 3], total: 4 };
        let s = d.to_string();
        assert!(s.contains("2/4"), "{s}");
        assert!(s.contains("[1, 3]"), "{s}");
    }
}
