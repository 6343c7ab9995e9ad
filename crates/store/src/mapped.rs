//! Read-only views of [`crate::FileStore`] segment files.
//!
//! On unix a segment is mapped once, read-only and shared (`MAP_SHARED`),
//! for a length that may reach past its end of file: appends through the
//! file become readable through the same mapping, so the growing active
//! segment is not remapped on every commit. A page read is then a window
//! onto the mapping, handed out as [`Bytes`] whose owner holds the mapping
//! alive — no system call and no copy. Elsewhere a view is a file handle,
//! and a page read is one positioned read into a fresh buffer.
//!
//! A view may only be asked for bytes that were fully written before the
//! ask and are never rewritten or cut while the file lives: the frames the
//! store's index names. That is the contract of [`SegmentView::page`].

use std::io;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

#[cfg(unix)]
pub(crate) use unix::SegmentView;

#[cfg(not(unix))]
pub(crate) use portable::SegmentView;

/// The whole file at `path`, for a one-pass read such as the open-time
/// scan. On unix it is mapped for exactly its length (and unmapped when the
/// returned buffer drops); elsewhere it is read.
///
/// The file must not be shortened while the buffer lives.
pub(crate) fn read_whole(path: &Path) -> io::Result<Bytes> {
    let len = std::fs::metadata(path)?.len();
    if len == 0 {
        return Ok(Bytes::new());
    }
    let view = Arc::new(SegmentView::open(path, len)?);
    // SAFETY: `0..len` is the file's length as it stands, within the view,
    // and the caller does not shorten the file while the buffer lives.
    unsafe { view.page(0, len) }
}

#[cfg(unix)]
mod unix {
    use std::ffi::{c_int, c_long, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;
    use std::ptr::NonNull;
    use std::sync::Arc;

    use bytes::Bytes;

    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// One read-only shared mapping of a segment file, `len` bytes long
    /// from offset 0. Bytes past the file's end are reserved address space:
    /// they become readable once appends reach them.
    pub(crate) struct SegmentView {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only and stays at `ptr` until `Drop`;
    // a `SegmentView` hands out bytes only through `page`, under that
    // function's contract, so any thread may hold or share one.
    unsafe impl Send for SegmentView {}
    // SAFETY: as for `Send`; `&SegmentView` allows no mutation.
    unsafe impl Sync for SegmentView {}

    impl SegmentView {
        /// Map the segment at `path` for `reserve` bytes (at least one).
        pub(crate) fn open(path: &Path, reserve: u64) -> io::Result<Self> {
            let file = File::open(path)?;
            let len = usize::try_from(reserve.max(1)).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "segment reservation exceeds memory")
            })?;
            // SAFETY: a null hint lets the kernel place a fresh read-only
            // mapping where it aliases no Rust object; `file` is open for
            // the call, and the mapping holds its own reference to the
            // file afterwards, so `file` may close on return.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0)
            };
            // `MAP_FAILED` is `(void *) -1`.
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            let ptr = NonNull::new(ptr.cast())
                .ok_or_else(|| io::Error::other("mmap returned a null mapping"))?;
            Ok(SegmentView { ptr, len })
        }

        /// Whether the view reaches offset `end`.
        pub(crate) fn covers(&self, end: u64) -> bool {
            end <= self.len as u64
        }

        /// The `len` bytes at `off`, as a window onto the mapping that
        /// keeps it alive. Never fails on unix; panics if the view does
        /// not cover the range.
        ///
        /// # Safety
        /// `off..off + len` must be covered by the view, lie within the
        /// file, and never be rewritten or cut while the file lives.
        pub(crate) unsafe fn page(self: &Arc<Self>, off: u64, len: u64) -> io::Result<Bytes> {
            // Callers check coverage already; this one keeps a broken
            // caller from reading past the mapping.
            assert!(off.checked_add(len).is_some_and(|end| self.covers(end)), "page past view");
            if len == 0 {
                return Ok(Bytes::new());
            }
            let page = MappedPage { view: Arc::clone(self), off: off as usize, len: len as usize };
            Ok(Bytes::from_owner(page))
        }
    }

    impl Drop for SegmentView {
        fn drop(&mut self) {
            // SAFETY: `ptr..ptr + len` is exactly the mapping made in
            // `from_file`, and nothing reads it any more: every page served
            // from it holds an `Arc` of this view.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }

    /// The owner of one served page: the page's window and the mapping it
    /// lies in.
    struct MappedPage {
        view: Arc<SegmentView>,
        off: usize,
        len: usize,
    }

    impl AsRef<[u8]> for MappedPage {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: built only by `SegmentView::page`, whose caller
            // vouched that the range is covered, written and immutable;
            // `view` keeps the mapping alive as long as `self`.
            unsafe { std::slice::from_raw_parts(self.view.ptr.as_ptr().add(self.off), self.len) }
        }
    }
}

#[cfg(not(unix))]
mod portable {
    use std::fs::File;
    use std::io::{self, Read, Seek, SeekFrom};
    use std::path::Path;
    use std::sync::Arc;

    use bytes::Bytes;

    /// A read handle on a segment file; it covers every offset.
    pub(crate) struct SegmentView {
        file: File,
    }

    impl SegmentView {
        pub(crate) fn open(path: &Path, _reserve: u64) -> io::Result<Self> {
            Ok(SegmentView { file: File::open(path)? })
        }

        pub(crate) fn covers(&self, _end: u64) -> bool {
            true
        }

        /// The `len` bytes at `off`, by one positioned read.
        ///
        /// # Safety
        /// None beyond the unix build's contract, which callers keep.
        pub(crate) unsafe fn page(self: &Arc<Self>, off: u64, len: u64) -> io::Result<Bytes> {
            // Clone the handle and seek the clone: slower, but keeps the
            // shared handle's cursor untouched.
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(off))?;
            let mut buf = vec![0u8; len as usize];
            f.read_exact(&mut buf)?;
            Ok(Bytes::from(buf))
        }
    }
}
