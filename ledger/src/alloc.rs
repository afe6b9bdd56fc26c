//! Counting global allocator: live bytes, and the number and size of
//! allocations, so the ledger can report resident
//! bytes per session / per home and allocations per frame as exact
//! counts instead of sampling RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The accounting behind the allocator, separate from the global so the
/// unit tests can drive a private instance (test threads share the
/// process-wide one).
///
/// All counters are statistics that publish no other data, so `Relaxed`
/// is sufficient; the ledger reads them on the thread that allocates.
pub struct Counters {
    live: AtomicUsize,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

/// A point-in-time reading of the cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            live: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, size: usize) {
        self.live.fetch_add(size, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Cumulative allocation count and bytes (a realloc counts as one
    /// allocation of the new size).
    pub fn reading(&self) -> Reading {
        Reading {
            allocs: self.allocs.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide counters the `#[global_allocator]` feeds.
pub static HEAP: Counters = Counters::new();

/// `System` plus accounting into [`HEAP`].
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the accounting only reads
// `layout.size()` / `new_size` and touches atomics, so `System`'s
// contract is passed through intact.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            HEAP.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            HEAP.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            HEAP.on_dealloc(layout.size());
            HEAP.on_alloc(new_size);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_follows_alloc_and_dealloc_and_totals_only_grow() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        assert_eq!(c.live(), 150);
        c.on_dealloc(100);
        assert_eq!(c.live(), 50);
        c.on_alloc(20);
        assert_eq!(c.live(), 70);
        assert_eq!(
            c.reading(),
            Reading {
                allocs: 3,
                alloc_bytes: 170
            },
            "a free leaves the cumulative counters alone"
        );
    }

    #[test]
    fn dropping_a_value_returns_exactly_what_it_held() {
        // The trick `resident_bytes_per_home` rests on. Other test
        // threads allocate too, so retry until a quiet window.
        let exact = (0..100).any(|_| {
            let held = vec![vec![7u8; 4096]; 16];
            let with = HEAP.live();
            drop(held);
            with.saturating_sub(HEAP.live()) == 16 * 4096 + 16 * std::mem::size_of::<Vec<u8>>()
        });
        assert!(exact);
    }

    #[test]
    fn global_allocator_sees_a_vec() {
        // Other test threads allocate concurrently, so only this
        // thread's monotone counter can be asserted exactly-ish.
        let before = HEAP.reading();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let after = HEAP.reading();
        assert!(after.allocs > before.allocs);
        assert!(after.alloc_bytes - before.alloc_bytes >= 1 << 20);
        drop(v);
    }
}
