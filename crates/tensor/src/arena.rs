//! Buffer arenas: pooled backing storage for the serve path's steady
//! state.
//!
//! Steady-state serving should not touch the system allocator (ROADMAP
//! item 3): every warm request re-uses pages recycled from earlier
//! requests. This module provides the three pooling primitives the
//! workspace builds that on:
//!
//! * A global, size-bucketed pool of `Vec<f32>` pages ([`take_f32`] /
//!   [`put_f32`]). [`crate::Tensor`] is integrated with it — every
//!   tensor takes its backing storage from the pool and returns it on
//!   drop — so *all* tensor traffic (HLOP input/output pages, quantize
//!   scratch, kernel locals) recycles without any call-site changes.
//! * [`VecPool`], a typed pool of `Vec<T>` spines for the runtime's
//!   per-run bookkeeping vectors (HLOP records, compute tasks, …).
//! * [`ObjPool`], a pool of whole reusable objects (queue pairs, slot
//!   arrays) whose internal capacity should survive across runs.
//!
//! # Ownership and lifetime rules
//!
//! Pages are plain `Vec`s: taking one transfers ownership to the caller
//! and putting one back transfers it to the pool. Returned `f32` pages
//! are always *empty* (`len == 0`) with at least the requested capacity;
//! callers fill them. The pool never hands out aliased storage and never
//! holds borrows — everything is by-value, so the usual Rust ownership
//! rules are the whole safety story.
//!
//! Page capacities are rounded up to powers of two so a page recycles
//! into the same bucket it was served from regardless of the exact
//! length requested. The pool's cached bytes are capped (default
//! 256 MiB, `SHMT_ARENA_BYTES` overrides); beyond the cap, returned
//! pages are simply freed. `SHMT_ARENA=0` disables pooling entirely —
//! every take is a fresh allocation and every put a free — which is the
//! bit-identical fallback (pooling never changes values, only where the
//! bytes live).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of power-of-two capacity classes (`2^0 ..= 2^32` elements).
const BUCKETS: usize = 33;

/// Default cap on bytes cached across all buckets.
const DEFAULT_BYTE_CAP: usize = 256 << 20;

/// Counters describing the global `f32` page pool's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pages served from the pool (warm hits).
    pub hits: u64,
    /// Pages that had to be freshly allocated (cold misses).
    pub misses: u64,
    /// Pages returned and cached for re-use.
    pub recycled: u64,
    /// Pages returned but freed because the byte cap was reached (or
    /// pooling is disabled).
    pub dropped: u64,
    /// Bytes currently cached in the pool.
    pub cached_bytes: u64,
}

struct PagePool {
    stacks: [Vec<Vec<f32>>; BUCKETS],
    cached_bytes: usize,
}

const EMPTY_STACK: Vec<Vec<f32>> = Vec::new();

static PAGE_POOL: Mutex<PagePool> = Mutex::new(PagePool {
    stacks: [EMPTY_STACK; BUCKETS],
    cached_bytes: 0,
});

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// `SHMT_ARENA=0` turns pooling off (resolved once, at first use).
fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| !matches!(std::env::var("SHMT_ARENA").as_deref(), Ok("0")))
}

/// Byte cap on cached pages (`SHMT_ARENA_BYTES` overrides the 256 MiB
/// default; resolved once, at first use).
fn byte_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("SHMT_ARENA_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_BYTE_CAP)
    })
}

/// The bucket a request for `len` elements is served from: the smallest
/// power-of-two capacity holding `len`.
fn take_bucket(len: usize) -> usize {
    (usize::BITS - len.saturating_sub(1).leading_zeros()) as usize
}

/// The bucket a page of `capacity` elements recycles into: the largest
/// power of two not exceeding its capacity (so a re-take from that
/// bucket is always large enough).
fn put_bucket(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Takes an empty `f32` page with capacity for at least `len` elements,
/// recycled from the pool when one is available.
pub fn take_f32(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    if enabled() {
        let b = take_bucket(len).min(BUCKETS - 1);
        if let Ok(mut pool) = PAGE_POOL.lock() {
            if let Some(page) = pool.stacks[b].pop() {
                pool.cached_bytes -= page.capacity() * std::mem::size_of::<f32>();
                drop(pool);
                HITS.fetch_add(1, Ordering::Relaxed);
                return page;
            }
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        // Allocate the bucket's full power-of-two capacity so this page
        // recycles into the same class it was requested from.
        return Vec::with_capacity(1usize << b);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(len)
}

/// Returns a page to the pool (or frees it when the byte cap is reached
/// or pooling is disabled). The page is cleared; its capacity is kept.
pub fn put_f32(mut page: Vec<f32>) {
    let cap = page.capacity();
    if cap == 0 {
        return;
    }
    if enabled() {
        page.clear();
        let bytes = cap * std::mem::size_of::<f32>();
        if let Ok(mut pool) = PAGE_POOL.lock() {
            if pool.cached_bytes + bytes <= byte_cap() {
                let b = put_bucket(cap).min(BUCKETS - 1);
                pool.stacks[b].push(page);
                pool.cached_bytes += bytes;
                drop(pool);
                RECYCLED.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    DROPPED.fetch_add(1, Ordering::Relaxed);
}

/// Pre-sizes the pool for a parallel phase whose page demand depends on
/// how its workers interleave.
///
/// Afterwards every size class caches at least one page for each length
/// in `held` (pages the phase keeps until it ends) plus `scratch_pages`
/// pages if any length in `scratch` falls in that class (pages each of a
/// bounded number of workers takes and returns while it runs). A phase
/// that stays within that demand takes every page from cache whatever
/// the interleaving, so whether it allocates depends only on its inputs.
/// Only the shortfall is allocated; a warm pool is left as it is.
pub fn reserve_f32(
    held: impl IntoIterator<Item = usize>,
    scratch: impl IntoIterator<Item = usize>,
    scratch_pages: usize,
) {
    if !enabled() {
        return;
    }
    let class = |len: usize| take_bucket(len).min(BUCKETS - 1);
    let mut need = [0usize; BUCKETS];
    for len in scratch.into_iter().filter(|&len| len > 0) {
        need[class(len)] = scratch_pages;
    }
    for len in held.into_iter().filter(|&len| len > 0) {
        need[class(len)] += 1;
    }
    let Ok(pool) = PAGE_POOL.lock() else { return };
    for (n, stack) in need.iter_mut().zip(&pool.stacks) {
        *n = n.saturating_sub(stack.len());
    }
    drop(pool);
    for (b, &short) in need.iter().enumerate() {
        for _ in 0..short {
            MISSES.fetch_add(1, Ordering::Relaxed);
            put_f32(Vec::with_capacity(1usize << b));
        }
    }
}

/// A snapshot of the page pool's counters.
pub fn stats() -> ArenaStats {
    let cached_bytes = PAGE_POOL.lock().map(|p| p.cached_bytes as u64).unwrap_or(0);
    ArenaStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        cached_bytes,
    }
}

/// Frees every cached page (used by tests to reset the pool).
pub fn clear() {
    if let Ok(mut pool) = PAGE_POOL.lock() {
        for stack in pool.stacks.iter_mut() {
            stack.clear();
        }
        pool.cached_bytes = 0;
    }
}

/// A pool of `Vec<T>` spines: vectors come back empty with their
/// capacity intact, so per-run bookkeeping (HLOP records, compute
/// tasks, plan queues) stops allocating once warm.
///
/// Const-constructible so it can live in a `static`:
///
/// ```
/// use shmt_tensor::arena::VecPool;
///
/// static POOL: VecPool<u32> = VecPool::new();
/// let mut v = POOL.take();
/// v.extend([1, 2, 3]);
/// POOL.put(v);
/// assert_eq!(POOL.take().capacity() >= 3, true);
/// ```
#[derive(Debug)]
pub struct VecPool<T> {
    stack: Mutex<Vec<Vec<T>>>,
}

impl<T> VecPool<T> {
    /// Upper bound on pooled spines per pool (beyond it, puts free).
    const MAX_POOLED: usize = 64;

    /// Creates an empty pool.
    pub const fn new() -> Self {
        VecPool {
            stack: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled vector (empty, capacity preserved) or a fresh one.
    pub fn take(&self) -> Vec<T> {
        self.stack
            .lock()
            .ok()
            .and_then(|mut s| s.pop())
            .unwrap_or_default()
    }

    /// Clears `v` and returns its spine to the pool.
    pub fn put(&self, mut v: Vec<T>) {
        v.clear();
        if v.capacity() == 0 {
            return;
        }
        if let Ok(mut s) = self.stack.lock() {
            if s.len() < Self::MAX_POOLED {
                s.push(v);
            }
        }
    }
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool of whole reusable objects whose internal capacity should
/// survive across uses (queue pairs, slot arrays). The caller is
/// responsible for resetting an object's *state* before or after
/// pooling; the pool only stores and hands back values.
#[derive(Debug)]
pub struct ObjPool<T> {
    stack: Mutex<Vec<T>>,
}

impl<T> ObjPool<T> {
    /// Upper bound on pooled objects per pool (beyond it, puts free).
    const MAX_POOLED: usize = 64;

    /// Creates an empty pool.
    pub const fn new() -> Self {
        ObjPool {
            stack: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled object, or builds one with `make` on a miss.
    pub fn take_or(&self, make: impl FnOnce() -> T) -> T {
        self.stack
            .lock()
            .ok()
            .and_then(|mut s| s.pop())
            .unwrap_or_else(make)
    }

    /// Returns an object to the pool.
    pub fn put(&self, item: T) {
        if let Ok(mut s) = self.stack.lock() {
            if s.len() < Self::MAX_POOLED {
                s.push(item);
            }
        }
    }
}

impl<T> Default for ObjPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_to_powers_of_two() {
        assert_eq!(take_bucket(1), 0);
        assert_eq!(take_bucket(2), 1);
        assert_eq!(take_bucket(3), 2);
        assert_eq!(take_bucket(1024), 10);
        assert_eq!(take_bucket(1025), 11);
        assert_eq!(put_bucket(1024), 10);
        assert_eq!(put_bucket(1536), 10);
        assert_eq!(put_bucket(2048), 11);
    }

    #[test]
    fn put_then_take_recycles_the_page() {
        let mut page = take_f32(100);
        page.resize(100, 1.0);
        let cap = page.capacity();
        assert!(cap >= 100);
        put_f32(page);
        let again = take_f32(cap);
        // Same bucket: the recycled page satisfies a same-class request.
        assert!(again.capacity() >= 100);
        assert!(again.is_empty());
    }

    #[test]
    fn take_serves_requests_up_to_the_bucket_capacity() {
        let page = take_f32(700);
        let cap = page.capacity();
        assert!(cap >= 1024, "power-of-two rounding, got {cap}");
        put_f32(page);
        // A 1024-element request maps to the same bucket and must be
        // satisfiable by the recycled 700-element-request page.
        let again = take_f32(1024);
        assert!(again.capacity() >= 1024);
    }

    #[test]
    fn zero_len_take_is_free() {
        let v = take_f32(0);
        assert_eq!(v.capacity(), 0);
        put_f32(v); // no-op, must not panic
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let page = take_f32(64);
        put_f32(page);
        let after = stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
        assert!(after.recycled + after.dropped > before.recycled + before.dropped);
    }

    fn cached_pages(len: usize) -> usize {
        PAGE_POOL.lock().unwrap().stacks[take_bucket(len)].len()
    }

    #[test]
    fn reserve_tops_up_held_plus_scratch_per_class() {
        // A size class (2^19 elements) no other test here uses. Two held
        // pages, plus three scratch pages for the class: two scratch
        // lengths in one class count once.
        let len = 300_000;
        reserve_f32([len, len + 1], [len + 2, len + 3], 3);
        let cached = cached_pages(len);
        assert!(cached >= 5, "reserved {cached} pages");
        reserve_f32([len], [len], 3);
        assert_eq!(cached_pages(len), cached, "a warm pool is left as it is");
        for _ in 0..cached {
            drop(take_f32(len));
        }
    }

    #[test]
    fn vec_pool_preserves_capacity() {
        static POOL: VecPool<usize> = VecPool::new();
        let mut v = POOL.take();
        v.extend(0..100);
        POOL.put(v);
        let v2 = POOL.take();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 100);
    }

    #[test]
    fn obj_pool_round_trips() {
        static POOL: ObjPool<String> = ObjPool::new();
        POOL.put(String::with_capacity(32));
        let s = POOL.take_or(String::new);
        assert!(s.capacity() >= 32);
        let fresh = POOL.take_or(|| String::from("made"));
        assert_eq!(fresh, "made");
    }
}
