//! Per-thread spare buffers for the collectors' run-length storage.
//!
//! An observed run appends to buffers that grow with its length: the wave
//! change log, the critical-path record stream and the critical path's hop
//! list. Allocated fresh on every run, each one faults its pages in again
//! and, while it doubles, keeps the old and the new allocation live
//! together. Instead each such buffer has one spare per thread:
//!
//! - **take** — a run whose collector is on takes the spare, cleared, in
//!   place of a fresh buffer;
//! - **give** — the buffer's owner hands it back when it drops. The spare
//!   keeps the larger of the buffer it holds and the one given back; a
//!   buffer over [`KEEP_MAX_BYTES`] is freed instead, so one huge run does
//!   not pin its memory for the thread's lifetime.
//!
//! A zero-capacity buffer is never given back, so a run with its
//! collectors off (and the bare executor) never touches a spare.

use std::cell::Cell;
use std::thread::LocalKey;

/// The largest buffer a spare keeps.
pub(crate) const KEEP_MAX_BYTES: usize = 64 << 20;

/// A per-thread spare, declared with
/// `thread_local! { static NAME: Cell<Vec<T>> = const { Cell::new(Vec::new()) }; }`.
pub(crate) type Spare<T> = LocalKey<Cell<Vec<T>>>;

/// The spare buffer, emptied (an empty `Vec` if there is none, or if the
/// thread is shutting down).
pub(crate) fn take<T>(spare: &'static Spare<T>) -> Vec<T> {
    let mut buf = spare.try_with(Cell::take).unwrap_or_default();
    buf.clear();
    buf
}

/// Offers `buf` back to the spare, which keeps the larger of the two.
pub(crate) fn give<T>(spare: &'static Spare<T>, buf: Vec<T>) {
    let bytes = buf.capacity() * std::mem::size_of::<T>();
    if bytes == 0 || bytes > KEEP_MAX_BYTES {
        return;
    }
    let _ = spare.try_with(|s| {
        let kept = s.take();
        s.set(if buf.capacity() > kept.capacity() { buf } else { kept });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static TEST: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    }

    #[test]
    fn take_is_cleared_and_keeps_the_larger_buffer() {
        assert_eq!(take(&TEST).capacity(), 0, "a fresh thread has no spare");
        let mut big = Vec::with_capacity(64);
        big.extend([1, 2, 3]);
        give(&TEST, big);
        give(&TEST, Vec::with_capacity(8));
        let back = take(&TEST);
        assert!(back.is_empty(), "take clears the buffer");
        assert!(back.capacity() >= 64, "the smaller offer did not replace the larger spare");
        assert_eq!(take(&TEST).capacity(), 0, "the spare is handed out once");
    }

    #[test]
    fn oversized_buffers_are_freed() {
        give(&TEST, Vec::with_capacity(KEEP_MAX_BYTES / 4 + 1));
        assert_eq!(take(&TEST).capacity(), 0);
        give(&TEST, Vec::with_capacity(KEEP_MAX_BYTES / 4));
        assert_eq!(take(&TEST).capacity(), KEEP_MAX_BYTES / 4);
    }
}
