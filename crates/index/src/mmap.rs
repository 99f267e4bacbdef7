//! Read-only memory mapping with no external dependencies.
//!
//! The storage layer (DESIGN.md §19) serves index payloads straight out
//! of the page cache instead of materializing them on the heap. This
//! module owns the one `unsafe` boundary that makes that possible: a
//! thin RAII wrapper over raw `mmap(2)`/`munmap(2)` (declared directly
//! against the platform libc — the workspace builds offline, with no
//! `libc` crate), plus `mincore(2)` for residency estimates and
//! `posix_fadvise(2)` so the bench harness can evict a file from the
//! page cache to measure cold-cache decode.
//!
//! # Safety argument
//!
//! A [`Mmap`] hands out `&[u8]` views of a file mapping, which is only
//! sound while the bytes behind the pointer cannot change or disappear:
//!
//! * The mapping is `PROT_READ` + `MAP_PRIVATE`: writes by other
//!   processes to the same file after we map it are not guaranteed to be
//!   visible (and index files are written via tmp+rename, never in
//!   place — see `segment::write_atomic` and the CLI build
//!   path), so the bytes we parse are the bytes we validated.
//! * The pointer/length pair is immutable for the life of the `Mmap`
//!   and `munmap` happens exactly once, in `Drop`. Every borrowed slice
//!   is tied to the `Mmap`'s lifetime (or to an `Arc<Mmap>` keeping it
//!   alive), so no view can outlive the mapping.
//! * Truncating a mapped file out from under a live mapping raises
//!   `SIGBUS` on access. That failure mode is outside the threat model:
//!   index files are immutable once published (tmp+rename), and the
//!   documented operational contract is "do not truncate an index a
//!   server currently maps". The window is as long as the mapping lives,
//!   not just the open: a v5 open reads only the header, tables and
//!   directory, and every list's payload is first read at its first
//!   query, possibly long after, so a truncation at any point of a
//!   server's life can raise the signal on a later read. Corruption
//!   *within* a stable file is fully handled — eagerly for the sections
//!   the open checks, lazily (each list's CRC on first touch) for
//!   payloads — with typed errors, never UB.
//! * A zero-length file maps to an empty slice without calling `mmap`
//!   (`mmap` with length 0 is EINVAL).
//!
//! On non-Unix platforms the type falls back to reading the file into an
//! owned buffer: same API, no zero-copy benefit.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::File;
use std::path::Path;

use crate::error::IndexError;

fn io_err(context: &'static str, e: std::io::Error) -> IndexError {
    IndexError::Io { context, message: e.to_string() }
}

#[cfg(unix)]
mod sys {
    //! Raw declarations against the platform libc. Linux/x86-64 and the
    //! other 64-bit unixes we target agree on these signatures; the
    //! constants below are the Linux values (macOS differs only in
    //! `MAP_FAILED` spelling, which is `-1` there too).
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const POSIX_FADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        pub fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
    }
}

/// Size the residency bitmap is computed at. Linux reports residency per
/// page; 4 KiB is the ubiquitous base page size (huge-page backed
/// mappings simply report runs of resident entries).
pub const PAGE_SIZE: usize = 4096;

enum Backing {
    /// A live `mmap` region (unix only). `ptr` is non-null and
    /// page-aligned; `len` > 0.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// Owned bytes: the non-unix fallback, every empty file, and the
    /// payload buffer of an index built or loaded onto the heap.
    Owned(Vec<u8>),
}

/// A read-only file mapping (see the module docs for the safety
/// argument). Dereferences to `&[u8]`.
pub struct Mmap {
    backing: Backing,
}

// SAFETY: the mapping is PROT_READ and the pointer/length never change
// after construction, so shared references from multiple threads only
// ever perform concurrent reads of immutable memory.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => "mapped",
            Backing::Owned(_) => "owned",
        };
        f.debug_struct("Mmap").field("kind", &kind).field("len", &self.len()).finish()
    }
}

impl Mmap {
    /// Maps `path` read-only. Empty files yield an empty (heap-backed)
    /// mapping. On non-unix targets this reads the file into memory.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Io`] if the file cannot be opened, sized,
    /// or mapped.
    pub fn open(path: &Path) -> Result<Self, IndexError> {
        let file = File::open(path).map_err(|e| io_err("opening an index file to map", e))?;
        Self::from_file(&file)
    }

    /// Maps an already-open file read-only.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Io`] if the file cannot be sized or mapped.
    #[cfg(unix)]
    pub fn from_file(file: &File) -> Result<Self, IndexError> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata().map_err(|e| io_err("sizing an index file to map", e))?.len();
        let len = usize::try_from(len)
            .map_err(|_| IndexError::CorruptIndex { context: "index file exceeds usize" })?;
        if len == 0 {
            return Ok(Mmap { backing: Backing::Owned(Vec::new()) });
        }
        // SAFETY: fd is a valid open file descriptor, len > 0, and we
        // request a fresh private read-only mapping at a kernel-chosen
        // address. The result is checked against MAP_FAILED (-1).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            let e = std::io::Error::last_os_error();
            return Err(io_err("mmapping an index file", e));
        }
        Ok(Mmap { backing: Backing::Mapped { ptr: ptr.cast(), len } })
    }

    /// Non-unix fallback: reads the file into an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Io`] if the file cannot be read.
    #[cfg(not(unix))]
    pub fn from_file(file: &File) -> Result<Self, IndexError> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut f = file;
        f.read_to_end(&mut buf).map_err(|e| io_err("reading an index file", e))?;
        Ok(Mmap { backing: Backing::Owned(buf) })
    }

    /// Owned bytes behind the same API: how an index built or loaded onto
    /// the heap holds its payload, so every index reads one backing type.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> Self {
        Mmap { backing: Backing::Owned(bytes) }
    }

    /// Heap bytes held: the owned buffer's capacity, 0 for a real mapping.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => 0,
            Backing::Owned(v) => v.capacity() as u64,
        }
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the borrow is tied to &self so it cannot outlive the
            // munmap in Drop.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Owned(v) => v.as_slice(),
        }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { len, .. } => *len,
            Backing::Owned(v) => v.len(),
        }
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the bytes are served by a real file mapping (as opposed
    /// to the owned-buffer fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// Estimates how many bytes of the mapping are resident in the page
    /// cache right now, via `mincore(2)`. Returns `None` when the
    /// estimate is unavailable (owned backing, or the syscall failing),
    /// never an error — residency is advisory, used only for reporting.
    pub fn resident_bytes(&self) -> Option<u64> {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                let mut vec = vec![0u8; len.div_ceil(PAGE_SIZE)];
                // SAFETY: ptr is the page-aligned start of our own live
                // mapping of len bytes, and vec holds one byte per page of
                // it, as mincore requires.
                let rc = unsafe { sys::mincore(ptr.cast(), *len, vec.as_mut_ptr()) };
                if rc != 0 {
                    return None;
                }
                let resident_pages = vec.iter().filter(|&&b| b & 1 == 1).count();
                Some(((resident_pages * PAGE_SIZE) as u64).min(*len as u64))
            }
            Backing::Owned(_) => None,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: ptr/len came from a successful mmap and are
            // unmapped exactly once (Drop runs once; the struct is
            // neither Copy nor Clone).
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Asks the kernel to drop `path`'s pages from the page cache
/// (`posix_fadvise(POSIX_FADV_DONTNEED)`), so a subsequent mapping
/// starts cold. Best-effort: returns whether the advice call succeeded —
/// containers and some filesystems silently ignore it, so callers (the
/// bench harness) must treat "cold" measurements as advisory.
pub fn evict_from_page_cache(path: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        let Ok(file) = File::open(path) else {
            return false;
        };
        let Ok(meta) = file.metadata() else {
            return false;
        };
        // Flush first so DONTNEED can actually drop clean pages.
        let _ = file.sync_all();
        let rc = unsafe {
            sys::posix_fadvise(
                file.as_raw_fd(),
                0,
                meta.len() as i64,
                sys::POSIX_FADV_DONTNEED,
            )
        };
        rc == 0
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("iiu-mmap-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp_file("contents", b"hello index");
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_slice(), b"hello index");
        assert_eq!(map.len(), 11);
        assert!(!map.is_empty());
        assert_eq!(&map[..5], b"hello");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp_file("empty", b"");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        assert!(!map.is_mapped(), "empty files use the owned backing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = Mmap::open(Path::new("/nonexistent/iiu-definitely-missing")).unwrap_err();
        assert!(matches!(err, IndexError::Io { .. }), "{err:?}");
    }

    #[cfg(unix)]
    #[test]
    fn real_mapping_reports_mapped_and_some_residency() {
        let bytes: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = tmp_file("resident", &bytes);
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_mapped());
        // Touch every page, then the residency estimate must be > 0 and
        // <= the mapping length.
        let sum: u64 = map.as_slice().iter().map(|&b| u64::from(b)).sum();
        assert!(sum > 0);
        let resident = map.resident_bytes().unwrap();
        assert!(resident > 0 && resident <= map.len() as u64, "resident = {resident}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mmap>();
    }

    #[test]
    fn evict_is_best_effort_and_does_not_panic() {
        let path = tmp_file("evict", &[0u8; 8192]);
        // Either outcome is fine; the call must simply not panic.
        let _ = evict_from_page_cache(&path);
        let _ = evict_from_page_cache(Path::new("/nonexistent/iiu-missing"));
        std::fs::remove_file(&path).ok();
    }
}
