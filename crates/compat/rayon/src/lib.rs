//! Offline stand-in for `rayon` (API subset).
//!
//! The build environment is hermetic, so this crate supplies the
//! parallel-iterator surface `qdb-core` uses: `into_par_iter()` /
//! `par_iter()` over ranges and slices, `map`, `for_each`, and
//! `collect` into `Vec<T>` or `Result<Vec<T>, E>`, plus [`join`] and
//! the chunk dispatch [`dispatch_chunks`] the amplitude-parallel
//! kernels use.
//!
//! Every entry point splits its `len` indices into at most
//! [`current_num_threads`] contiguous chunks of `len.div_ceil(threads)`
//! indices, in ascending order. There is no work stealing, which is
//! fine for the uniform-cost loops this workspace has. The chunk
//! boundaries depend only on `len` and the thread count, and results
//! are always assembled in input order, so any `collect` is
//! deterministic regardless of thread count.
//!
//! # Runtime
//!
//! The chunks run on one process-wide pool of persistent worker
//! threads:
//!
//! - **Assignment.** Chunk 0 runs on the calling thread and chunk `c`
//!   on worker `c − 1`. The pool spawns workers on first need, up to
//!   `current_num_threads() − 1` of them, and keeps them for the life
//!   of the process, so a dispatch spawns no thread: an empty dispatch
//!   costs about a microsecond on a 2-core host.
//! - **Idle workers.** After each chunk a worker spins for about 50 µs
//!   waiting for the next one, then parks. Back-to-back dispatches,
//!   such as the kernels' (one per block run or per op), find their
//!   workers awake, and an idle pool costs no CPU.
//! - **Thread count.** The CPU count is read once per process.
//!   `RAYON_NUM_THREADS` is re-read on every call (about 0.1 µs), so
//!   tests can toggle it at runtime.
//! - **Nested and concurrent calls.** A call made from inside a chunk,
//!   or while another thread is dispatching on the pool, runs its
//!   chunks inline on the calling thread in ascending order. Nested
//!   fan-outs and concurrent callers therefore never deadlock, and
//!   never add threads beyond the pool's.
//! - **Panics.** A panicking chunk is caught on the thread that ran
//!   it. Once every chunk has finished, the caller resumes the panic
//!   of the lowest-numbered panicking chunk with its original payload;
//!   inline, the first panicking chunk propagates directly.

#![warn(missing_docs)]

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Number of worker threads: `RAYON_NUM_THREADS` if set and positive,
/// else the number of available CPUs.
///
/// A dispatch splits its work into at most this many chunks, runs the
/// first on the calling thread and the rest on the pool, which grows
/// to this many threads minus one (see the [crate docs](crate)). The
/// variable is re-read on every call, so it can be changed at runtime;
/// the CPU count is read once per process.
#[must_use]
pub fn current_num_threads() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// How long an idle worker, or a caller waiting for its workers, spins
/// before it parks: long enough to span the gap between the kernels'
/// back-to-back dispatches, short enough that an idle pool costs no
/// CPU.
const SPIN: Duration = Duration::from_micros(50);

/// One dispatch, shared by its caller with the workers running its
/// chunks.
struct Job {
    /// The caller's chunk body, with its lifetime erased: [`run`] does
    /// not return until every worker it handed this job has counted
    /// itself in `done`, and no worker touches the job after that.
    body: *const (dyn Fn(usize) + Sync),
    /// Workers that have finished their chunk.
    done: AtomicUsize,
    /// The lowest-numbered panicking chunk and its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// The calling thread, unparked by each worker as it finishes.
    caller: Thread,
}

impl Job {
    fn record_panic(&self, chunk: usize, payload: Box<dyn Any + Send>) {
        let mut first = lock(&self.panic);
        if first.as_ref().is_none_or(|&(c, _)| chunk < c) {
            *first = Some((chunk, payload));
        }
    }
}

/// A pool worker: the mailbox through which it receives a job, and
/// its thread, to unpark.
struct Worker {
    mailbox: Arc<AtomicPtr<Job>>,
    thread: Thread,
}

/// The pool's workers. Whoever holds this lock owns the pool for one
/// dispatch; worker `w` always runs chunk `w + 1`.
static POOL: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

/// Lock `m`, ignoring poison: every mutex in this crate is only held to
/// move a value in or out, so its data is valid even after a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `SPIN` has passed since `since`, then park.
fn idle(since: Instant) {
    if since.elapsed() < SPIN {
        std::hint::spin_loop();
    } else {
        thread::park();
    }
}

/// Run `body(c)` for every chunk `c` in `0..chunks` and return once all
/// have finished: chunk 0 on the caller and chunk `c` on pool worker
/// `c − 1`, or every chunk inline, in ascending order, when the pool is
/// already in use (by another thread, or by a chunk this call is nested
/// in). A panicking chunk is resumed on the caller after every chunk
/// has finished.
fn run(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let mut workers = match POOL.try_lock() {
        Ok(workers) => workers,
        // Workers are only ever appended, so the list stays valid.
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return (0..chunks).for_each(body),
    };
    let helpers = chunks.saturating_sub(1);
    while workers.len() < helpers {
        let chunk = workers.len() + 1;
        workers.push(spawn_worker(chunk));
    }
    let erased: *const (dyn Fn(usize) + Sync + '_) = body;
    let job = Job {
        // SAFETY: only the lifetime changes. Workers dereference the
        // pointer only before counting themselves in `job.done`, and
        // this function neither returns nor unwinds until all
        // `helpers` of them have (chunk 0's panic is caught below).
        body: unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(erased)
        },
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    };
    let shared = ptr::from_ref(&job).cast_mut();
    for worker in &workers[..helpers] {
        worker.mailbox.store(shared, Ordering::Release);
        worker.thread.unpark();
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(0))) {
        job.record_panic(0, payload);
    }
    let since = Instant::now();
    // Acquire pairs with each worker's Release increment, so the
    // chunks' writes are visible to the caller once this loop exits.
    while job.done.load(Ordering::Acquire) < helpers {
        idle(since);
    }
    drop(workers);
    let panic = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }
}

/// Spawn the pool worker that runs chunk `chunk` of every job.
fn spawn_worker(chunk: usize) -> Worker {
    let mailbox = Arc::new(AtomicPtr::new(ptr::null_mut()));
    let inbox = Arc::clone(&mailbox);
    // Workers run for the life of the process and never unwind (chunk
    // panics are caught), so the join handle is not kept.
    let handle = thread::Builder::new()
        .name(format!("rayon-shim-{chunk}"))
        .spawn(move || serve(chunk, &inbox))
        .expect("spawn a rayon shim pool worker");
    Worker {
        mailbox,
        thread: handle.thread().clone(),
    }
}

/// A worker's loop: wait for a job in `mailbox`, run its chunk
/// `chunk`, report back, repeat.
fn serve(chunk: usize, mailbox: &AtomicPtr<Job>) -> ! {
    loop {
        let since = Instant::now();
        let mut job = mailbox.load(Ordering::Acquire);
        while job.is_null() {
            idle(since);
            job = mailbox.load(Ordering::Acquire);
        }
        mailbox.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: the caller published `job` (Acquire above pairs with
        // its Release store) and stays in `run`, with the job and the
        // body it borrows alive, until this worker increments `done`.
        let job = unsafe { &*job };
        // SAFETY: as above; the body outlives the job.
        let body = unsafe { &*job.body };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(chunk))) {
            job.record_panic(chunk, payload);
        }
        let caller = job.caller.clone();
        // Release publishes this chunk's writes to the caller; the job
        // may be gone as soon as the increment lands.
        job.done.fetch_add(1, Ordering::Release);
        caller.unpark();
    }
}

/// A random-access description of a parallel computation: `len` items,
/// item `i` computed independently by `item(i)`.
pub trait IndexedTask: Sync {
    /// The per-item output type.
    type Output: Send;

    /// Total number of items.
    fn len(&self) -> usize;

    /// `true` when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compute item `i`. May be called concurrently from many threads.
    fn item(&self, i: usize) -> Self::Output;
}

/// Evaluate every item of `task`, in parallel, preserving input order.
fn drive<T: IndexedTask>(task: &T) -> Vec<T::Output> {
    let parts = Mutex::new(Vec::new());
    dispatch_chunks(task.len(), |range| {
        let start = range.start;
        let items: Vec<T::Output> = range.map(|i| task.item(i)).collect();
        lock(&parts).push((start, items));
    });
    let mut parts = parts.into_inner().unwrap_or_else(PoisonError::into_inner);
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(task.len());
    for (_, items) in parts {
        out.extend(items);
    }
    out
}

/// Run two closures, potentially on two threads, and return both
/// results — rayon's `join`, minus work stealing.
///
/// With one worker (or `RAYON_NUM_THREADS=1`), or when the call is
/// nested in another dispatch, both closures run on the calling
/// thread, `a` first; otherwise `b` runs on a pool worker while the
/// caller runs `a`. Results are returned in argument order either way,
/// and a panic in either closure propagates to the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let results = Mutex::new((None, None));
    dispatch_chunks(2, |sides| {
        for side in sides {
            if side == 0 {
                let a = lock(&a).take().expect("`a` runs once");
                let ra = a();
                lock(&results).0 = Some(ra);
            } else {
                let b = lock(&b).take().expect("`b` runs once");
                let rb = b();
                lock(&results).1 = Some(rb);
            }
        }
    });
    let (ra, rb) = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    (ra.expect("`a` ran"), rb.expect("`b` ran"))
}

/// Partition `0..len` into at most [`current_num_threads`] contiguous
/// chunks and run `body` once per chunk (concurrently when more than
/// one worker is available), returning the number of chunks dispatched.
///
/// This is the disjoint-slice dispatch surface the amplitude-parallel
/// kernels chunk their run space over: every index appears in exactly
/// one chunk, chunks are maximal contiguous ranges of
/// `len.div_ceil(threads)` indices in ascending order, and the chunk
/// *boundaries* are the only thing that varies with the worker count —
/// callers whose per-index work is self-contained are therefore
/// bit-identical across thread counts by construction. An empty `len`
/// dispatches nothing and returns 0. The first chunk runs on the
/// calling thread and the rest on the pool, or all inline when the
/// call is nested or the pool is busy (see the [crate docs](crate)); a
/// panicking chunk propagates to the caller once every chunk has
/// finished.
pub fn dispatch_chunks<F: Fn(Range<usize>) + Sync>(len: usize, body: F) -> usize {
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        if len > 0 {
            body(0..len);
        }
        return usize::from(len > 0);
    }
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    run(chunks, &|c| {
        let start = c * chunk;
        body(start..(start + chunk).min(len));
    });
    chunks
}

/// The subset of rayon's `ParallelIterator` used by this workspace.
pub trait ParallelIterator: IndexedTask + Sized {
    /// Apply `f` to every item in parallel.
    fn map<U: Send, F: Fn(Self::Output) -> U + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Run `f` on every item in parallel (for side effects).
    fn for_each<F: Fn(Self::Output) + Sync>(self, f: F) {
        drive(&self.map(f));
    }

    /// Evaluate everything and collect, preserving input order.
    fn collect<C: FromParallelIterator<Self::Output>>(self) -> C {
        C::from_ordered(drive(&self))
    }

    /// Sum the items.
    fn sum<S: std::iter::Sum<Self::Output>>(self) -> S {
        drive(&self).into_iter().sum()
    }
}

impl<T: IndexedTask + Sized> ParallelIterator for T {}

/// `map` adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B: IndexedTask, U: Send, F: Fn(B::Output) -> U + Sync> IndexedTask for Map<B, F> {
    type Output = U;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn item(&self, i: usize) -> U {
        (self.f)(self.base.item(i))
    }
}

/// Parallel iterator over a `usize` range.
pub struct RangeIter {
    range: Range<usize>,
}

impl IndexedTask for RangeIter {
    type Output = usize;

    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    fn item(&self, i: usize) -> usize {
        self.range.start + i
    }
}

/// Parallel iterator over shared slice elements.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedTask for SliceIter<'a, T> {
    type Output = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn item(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Conversion into a parallel iterator (rayon's entry point).
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Output = Self::Item>;
    /// The element type.
    type Item: Send;

    /// Convert `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;

    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

/// `par_iter()` on references, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Output = Self::Item>;
    /// The element type.
    type Item: Send;

    /// Parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    type Item = <&'a C as IntoParallelIterator>::Item;

    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    /// Build the collection from items already in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Commonly imported items, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::lock;
    use super::prelude::*;
    use std::collections::HashSet;
    use std::ops::Range;
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    /// Serializes the tests in this module: several set
    /// `RAYON_NUM_THREADS`, and the ones that check which thread ran
    /// each chunk need the pool to themselves (a dispatch that finds
    /// the pool busy runs inline).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Dispatch `len` indices; return the chunk count and, in chunk
    /// order, each chunk's range and the thread that ran it.
    fn chunk_threads(len: usize) -> (usize, Vec<(Range<usize>, ThreadId)>) {
        let seen = Mutex::new(Vec::new());
        let chunks = super::dispatch_chunks(len, |range| {
            seen.lock().unwrap().push((range, thread::current().id()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(range, _)| range.start);
        (chunks, seen)
    }

    /// Chunk 0 ran on the calling thread and every chunk on a thread
    /// of its own.
    fn assert_one_thread_per_chunk(seen: &[(Range<usize>, ThreadId)]) {
        assert_eq!(
            seen[0].1,
            thread::current().id(),
            "chunk 0 runs on the caller"
        );
        let threads: HashSet<ThreadId> = seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(threads.len(), seen.len(), "one thread per chunk");
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _guard = lock(&ENV_LOCK);
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn slice_par_iter_reads_all_elements() {
        let _guard = lock(&ENV_LOCK);
        let data: Vec<u64> = (0..257).collect();
        let doubled: Vec<u64> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_value() {
        let _guard = lock(&ENV_LOCK);
        let ok: Result<Vec<usize>, String> = (0..10).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<usize>, String> = (0..10)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn empty_range_is_fine() {
        let _guard = lock(&ENV_LOCK);
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i + 1).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let _guard = lock(&ENV_LOCK);
        let xs: Vec<u32> = (0..64).collect();
        let (evens, odds) = super::join(
            || xs.iter().filter(|x| *x % 2 == 0).sum::<u32>(),
            || xs.iter().filter(|x| *x % 2 == 1).sum::<u32>(),
        );
        assert_eq!(evens + odds, xs.iter().sum::<u32>());
        assert_eq!(evens, (0..64).step_by(2).sum::<u32>());
        // Serial path (threads == 1) must agree with the threaded path.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = super::join(|| 2 + 2, || "b");
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(serial, (4, "b"));
    }

    #[test]
    fn dispatch_chunks_follows_the_div_ceil_plan() {
        let _guard = lock(&ENV_LOCK);
        for threads in [1usize, 2, 4, 7] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            for len in [1usize, 2, 5, 7, 64, 1000, 1001] {
                let chunk = len.div_ceil(threads.min(len));
                let plan: Vec<Range<usize>> = (0..len)
                    .step_by(chunk)
                    .map(|start| start..(start + chunk).min(len))
                    .collect();
                let (chunks, seen) = chunk_threads(len);
                let ranges: Vec<Range<usize>> = seen.iter().map(|(r, _)| r.clone()).collect();
                assert_eq!(ranges, plan, "threads={threads} len={len}");
                assert_eq!(chunks, plan.len(), "threads={threads} len={len}");
                assert_one_thread_per_chunk(&seen);
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    #[test]
    fn dispatch_chunks_handles_empty_and_tiny_lengths() {
        let _guard = lock(&ENV_LOCK);
        let chunks = super::dispatch_chunks(0, |_| panic!("no chunks expected"));
        assert_eq!(chunks, 0);
        let chunks = super::dispatch_chunks(1, |range| assert_eq!(range, 0..1));
        assert_eq!(chunks, 1);
    }

    #[test]
    fn thread_count_env_var_is_honored_between_calls() {
        let _guard = lock(&ENV_LOCK);
        for threads in [1usize, 4, 2] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            assert_eq!(super::current_num_threads(), threads);
            let (chunks, seen) = chunk_threads(100);
            assert_eq!(chunks, threads);
            assert_one_thread_per_chunk(&seen);
            let out: Vec<usize> = (0..100).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(out, (1..=100).collect::<Vec<_>>());
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn panicking_chunk_reaches_caller_and_pool_survives() {
        let _guard = lock(&ENV_LOCK);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let finished = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(|| {
            super::dispatch_chunks(4, |range| {
                if range.start == 2 {
                    panic!("chunk 2 failed");
                }
                finished.lock().unwrap().push(range.start);
            })
        });
        let payload = caught.expect_err("the chunk's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 2 failed"));
        // Every other chunk ran to completion before the panic resumed.
        let mut finished = finished.into_inner().unwrap();
        finished.sort_unstable();
        assert_eq!(finished, [0, 1, 3]);
        // The next dispatch still runs one chunk on each worker.
        let (chunks, seen) = chunk_threads(4);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(chunks, 4);
        assert_one_thread_per_chunk(&seen);
    }

    #[test]
    fn nested_and_concurrent_dispatches_complete_in_order() {
        let _guard = lock(&ENV_LOCK);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let nested: Vec<Vec<usize>> = (0..8)
            .into_par_iter()
            .map(|i| (0..50).into_par_iter().map(|j| i * 50 + j).collect())
            .collect();
        assert_eq!(nested.concat(), (0..400).collect::<Vec<_>>());

        let start = Barrier::new(8);
        thread::scope(|scope| {
            let callers: Vec<_> = (0..8)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        (0..1000).into_par_iter().map(|i| i * t).collect::<Vec<_>>()
                    })
                })
                .collect();
            for (t, caller) in callers.into_iter().enumerate() {
                let expected: Vec<usize> = (0..1000).map(|i| i * t).collect();
                assert_eq!(caller.join().unwrap(), expected, "caller {t}");
            }
        });
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
