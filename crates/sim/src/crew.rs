//! A persistent worker crew for the sharded executor's parallel windows.
//!
//! The sharded executor runs one short parallel batch per `QUANTUM`
//! window — thousands per simulation, each only tens of microseconds of
//! lane work — so handing a batch over and collecting it must cost far
//! less than the batch itself. A [`Crew`] keeps `workers` threads alive
//! between batches; [`Crew::run`] hands every item of a slice to a
//! closure, the calling thread working alongside the workers, and
//! returns once every item has been processed.
//!
//! * **Block map.** With `P = workers + 1` participants (the caller is
//!   participant 0), participant `p` owns the contiguous block
//!   `[p·n/P, (p+1)·n/P)` of an `n`-item batch and claims it front to
//!   back through an atomic cursor. The executor passes one item per
//!   lane, in lane order, every window, so a lane's cache-resident state
//!   stays on one host core from window to window.
//! * **Steal.** A participant whose own block is exhausted claims the
//!   remaining items of the other blocks from their back ends, so a
//!   descheduled worker holds up the batch by at most the one item it is
//!   running, and a steady imbalance keeps moving the same lanes.
//! * **Hand-off.** A batch is published by storing a new generation
//!   (Release) and finished by a done count (Release/Acquire). A
//!   participant waiting for either spins for at most `SPIN` (100 µs) of
//!   wall clock and then parks; the other side wakes it only if it
//!   actually parked. The spin covers the serial gap between two windows
//!   (phase B and the next window's set-up: microseconds), where parking
//!   would cost a futex call on each side and, on a virtual machine, the
//!   wake-up of an idle vCPU — as much as the window's work. The bound
//!   keeps an idle crew (between phases, after the run, or while phase B
//!   runs long) from holding a host core for longer than that at a time.
//!
//! Items borrow caller state (lane slices of the machine, lane event
//! queues), so they are not `'static`: the crew erases the batch's
//! lifetime into raw pointers that are only dereferenced while
//! [`Crew::run`] is blocked, and only by the participant holding the
//! claim on that item. A panicking item is caught, the rest of the batch
//! completes, and the first panic is re-raised on the calling thread.
//!
//! Items of one batch run concurrently in an unspecified order and on
//! unspecified threads, so they must touch disjoint state; any cross-item
//! ordering belongs in serial code between batches. Determinism
//! therefore never depends on the crew: with the work partitioned by
//! lane, the same batch produces the same per-lane results whichever
//! participant runs each item. A crew of zero workers runs every batch
//! on the caller, so the executor keeps one path at any shard count.
//!
//! A traced crew ([`Crew::traced`]) has each worker record its park and
//! run spans into its own bounded [`crate::timeline::Timeline`], on its
//! crew track ([`CrewSpanLog`]), which the machine's recorder absorbs at
//! the end of the run.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::timeline::CrewSpanLog;

/// How long a participant waiting for a batch, or for a batch to finish,
/// spins before it parks.
const SPIN: Duration = Duration::from_micros(100);

/// Items one batch may hold (a claim cursor keeps indices in 16 bits).
const MAX_BATCH: usize = u16::MAX as usize;

/// Keeps a hot atomic on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct Padded<T>(T);

/// The batch being run, lifetime-erased: `len` items of one type at
/// `items`, each handed by `call` to the closure at `f`.
#[derive(Clone, Copy)]
struct Batch {
    items: *mut (),
    f: *const (),
    call: unsafe fn(*const (), *mut (), usize),
    len: usize,
}

/// Runs the closure at `f` on item `i` of the slice at `items`.
///
/// # Safety
///
/// `f` points to a live `F` and `items` to a live slice of more than
/// `i` `T`s, and no other thread accesses item `i` during the call.
unsafe fn call_item<T, F: Fn(&mut T)>(f: *const (), items: *mut (), i: usize) {
    // SAFETY: guaranteed by the caller (see `# Safety`).
    let (f, item) = unsafe { (&*f.cast::<F>(), &mut *items.cast::<T>().add(i)) };
    f(item);
}

/// `call` of the empty batch a crew starts with; never invoked, since an
/// empty batch has nothing to claim.
unsafe fn no_item(_: *const (), _: *mut (), _: usize) {}

/// A claim cursor: the generation of the batch it belongs to and the
/// unclaimed range `[lo, hi)` of one block.
fn pack(generation: u32, lo: usize, hi: usize) -> u64 {
    u64::from(generation) << 32 | (lo as u64) << 16 | hi as u64
}

fn unpack(cursor: u64) -> (u32, usize, usize) {
    ((cursor >> 32) as u32, (cursor >> 16) as u16 as usize, cursor as u16 as usize)
}

/// Spins until `ready()` holds, for at most `SPIN`; whether it held.
fn spin(ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            std::hint::spin_loop();
            if ready() {
                return true;
            }
        }
        if start.elapsed() >= SPIN {
            return false;
        }
    }
}

struct Shared {
    /// Generation of the latest batch. Storing a new value publishes
    /// `batch`, `done` and `cursors`, written before it.
    generation: Padded<AtomicU32>,
    /// Items of the current batch processed (completed or panicked).
    done: Padded<AtomicUsize>,
    /// One claim cursor per participant ([`pack`]).
    cursors: Box<[Padded<AtomicU64>]>,
    /// Per worker: set while it parks waiting for a new generation.
    parked: Box<[Padded<AtomicBool>]>,
    /// Set while the caller parks waiting for `done`.
    caller_parked: AtomicBool,
    /// The thread that last set `caller_parked`.
    caller: Mutex<Option<Thread>>,
    /// The current batch; read only by a participant holding a claim.
    batch: UnsafeCell<Batch>,
    /// The first panic payload of the current batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

// SAFETY: every field but `batch` is Send and Sync. `batch` is written
// only by `Crew::run` (exclusive through `&mut self`) while no
// participant holds a claim, and read only by a participant holding a
// claim on one of its items (see `Shared::process`). Its pointers are
// dereferenced only under such a claim, and `Crew::run` bounds the items
// by `T: Send` and the closure by `F: Sync`.
unsafe impl Sync for Shared {}
// SAFETY: as for `Sync`; `batch` owns nothing, so moving `Shared` to
// another thread moves no borrowed data.
unsafe impl Send for Shared {}

impl Shared {
    /// Claims one unclaimed item of block `q` in batch `generation`: its
    /// first (the block's owner) or its last (a thief). `None` once the
    /// block is exhausted or a newer batch has replaced it.
    fn claim(&self, q: usize, generation: u32, front: bool) -> Option<usize> {
        let cursor = &self.cursors[q].0;
        let mut c = cursor.load(Ordering::Relaxed);
        loop {
            let (g, lo, hi) = unpack(c);
            if g != generation || lo >= hi {
                return None;
            }
            let (next, item) = if front {
                (pack(g, lo + 1, hi), lo)
            } else {
                (pack(g, lo, hi - 1), hi - 1)
            };
            // Acquire, with the claimer's earlier load of `generation`
            // (SeqCst), orders its read of `batch` after `Crew::run`
            // wrote it.
            match cursor.compare_exchange_weak(c, next, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return Some(item),
                Err(now) => c = now,
            }
        }
    }

    /// Participant `p`'s share of batch `generation`: its own block front
    /// to back, then what is left of the other blocks, back to front.
    fn drain(&self, p: usize, generation: u32) {
        let parts = self.cursors.len();
        for q in (0..parts).map(|k| (p + k) % parts) {
            while let Some(i) = self.claim(q, generation, q == p) {
                self.process(i);
            }
        }
    }

    /// Runs claimed item `i` and counts it done.
    fn process(&self, i: usize) {
        // SAFETY: this thread holds the claim on item `i` of the current
        // batch. `Crew::run` wrote `batch` before publishing the
        // generation the claim matched, and does not rewrite it before
        // `done` counts every item, this one included.
        let b = unsafe { *self.batch.get() };
        // SAFETY: `b.call` was instantiated for this batch's item and
        // closure types; the claim makes this thread the only one holding
        // item `i`; `Crew::run` keeps the items and the closure borrowed
        // until `done` reaches `b.len`, which needs this item counted.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (b.call)(b.f, b.items, i) }));
        if let Err(payload) = outcome {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        // SeqCst: the Release half publishes the item's effects to the
        // caller's load of `done`; the total order with `caller_parked`
        // (stored, then `done` loaded, in `wait_done`) means the last item
        // either is seen by the caller's check or sees the caller parked.
        if self.done.0.fetch_add(1, Ordering::SeqCst) + 1 == b.len
            && self.caller_parked.load(Ordering::SeqCst)
        {
            if let Some(caller) = self.caller.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
                caller.unpark();
            }
        }
    }

    /// Waits, spinning and then parked, until `done` reaches `n`.
    fn wait_done(&self, n: usize) {
        let finished = || self.done.0.load(Ordering::SeqCst) == n;
        if spin(finished) {
            return;
        }
        *self.caller.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        loop {
            self.caller_parked.store(true, Ordering::SeqCst);
            if finished() {
                break;
            }
            std::thread::park();
        }
        self.caller_parked.store(false, Ordering::Relaxed);
    }

    /// Waits, spinning and then parked, until a batch newer than `seen`
    /// is published; returns its generation, or `None` on shutdown.
    /// `p` is the waiting worker's participant index.
    fn next_batch(&self, p: usize, seen: u32) -> Option<u32> {
        let ready = || {
            self.shutdown.load(Ordering::SeqCst) || self.generation.0.load(Ordering::SeqCst) != seen
        };
        if !spin(ready) {
            let parked = &self.parked[p - 1].0;
            loop {
                // SeqCst, paired with `Crew::run`'s `generation` store and
                // `parked` load: either the new generation is seen here or
                // the publisher sees this flag and unparks this thread.
                parked.store(true, Ordering::SeqCst);
                if ready() {
                    break;
                }
                std::thread::park();
            }
            parked.store(false, Ordering::Relaxed);
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        Some(self.generation.0.load(Ordering::SeqCst))
    }

    /// Worker `p`'s life: wait for a batch, drain it, repeat.
    fn work(&self, p: usize, trace: Option<&CrewSpanLog>) {
        let mut seen = 0;
        loop {
            let wait_t0 = trace.map(CrewSpanLog::now_us);
            let Some(generation) = self.next_batch(p, seen) else {
                return;
            };
            seen = generation;
            let run_t0 = trace.map(CrewSpanLog::now_us);
            if let (Some(tr), Some(t0), Some(t1)) = (trace, wait_t0, run_t0) {
                tr.record(p - 1, "crew_park", t0, t1.saturating_sub(t0));
            }
            self.drain(p, generation);
            if let (Some(tr), Some(t0)) = (trace, run_t0) {
                tr.record(p - 1, "crew_run", t0, tr.now_us().saturating_sub(t0));
            }
        }
    }
}

/// A fixed-size set of worker threads that process batches of borrowed
/// items alongside the caller, with a barrier per batch. See the module
/// docs.
pub struct Crew {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Generation of the last batch published.
    generation: u32,
}

impl Crew {
    /// Spawns `workers` threads. The thread calling [`Crew::run`] also
    /// processes items, so a crew sized `n - 1` occupies `n` cores.
    /// `workers == 0` is valid: every batch then runs on the caller.
    pub fn new(workers: usize) -> Self {
        Self::build(workers, None)
    }

    /// Like [`Crew::new`], but every worker records a park span (time
    /// waiting for a batch, spinning or parked) and a run span (time
    /// draining it) into `trace` — the timeline flight recorder's crew
    /// section. Tracing costs two clock reads per worker per batch and
    /// nothing else; it never affects which items run where, so
    /// determinism is untouched.
    pub fn traced(workers: usize, trace: Arc<CrewSpanLog>) -> Self {
        Self::build(workers, Some(trace))
    }

    fn build(workers: usize, trace: Option<Arc<CrewSpanLog>>) -> Self {
        let shared = Arc::new(Shared {
            generation: Padded::default(),
            done: Padded::default(),
            cursors: (0..=workers).map(|_| Padded::default()).collect(),
            parked: (0..workers).map(|_| Padded::default()).collect(),
            caller_parked: AtomicBool::new(false),
            caller: Mutex::new(None),
            batch: UnsafeCell::new(Batch {
                items: std::ptr::null_mut(),
                f: std::ptr::null(),
                call: no_item,
                len: 0,
            }),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..=workers)
            .map(|p| {
                let shared = Arc::clone(&shared);
                let trace = trace.clone();
                std::thread::Builder::new()
                    .name(format!("cohesion-crew-{}", p - 1))
                    .spawn(move || shared.work(p, trace.as_deref()))
                    .expect("spawn crew worker")
            })
            .collect();
        Crew {
            shared,
            workers,
            generation: 0,
        }
    }

    /// Number of worker threads (not counting the caller).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Calls `f` once on every item of `items`, the caller participating
    /// alongside the workers, and returns when all calls have finished.
    ///
    /// # Panics
    ///
    /// Panics if `items` holds more than 65 535 items. Re-raises the
    /// first panic of any call on this thread, after the whole batch has
    /// drained (so no item is still borrowed).
    pub fn run<T: Send, F: Fn(&mut T) + Sync>(&mut self, items: &mut [T], f: F) {
        let n = items.len();
        assert!(n <= MAX_BATCH, "a crew batch holds at most {MAX_BATCH} items, got {n}");
        if n == 0 {
            return;
        }
        let shared = &*self.shared;
        let parts = shared.cursors.len();
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        // SAFETY: every item of the previous batch was counted done before
        // its `run` returned, so no participant holds a claim and none
        // reads `batch`; `&mut self` excludes a concurrent `run`.
        unsafe {
            *shared.batch.get() = Batch {
                items: items.as_mut_ptr().cast(),
                f: (&f as *const F).cast(),
                call: call_item::<T, F>,
                len: n,
            };
        }
        shared.done.0.store(0, Ordering::Relaxed);
        for (p, cursor) in shared.cursors.iter().enumerate() {
            cursor.0.store(pack(generation, p * n / parts, (p + 1) * n / parts), Ordering::Relaxed);
        }
        // SeqCst: the Release half publishes `batch`, `done` and the
        // cursors to every participant that loads this generation; the
        // total order with each worker's `parked` store and generation
        // load (`next_batch`) means a parked worker is seen below.
        shared.generation.0.store(generation, Ordering::SeqCst);
        for (worker, parked) in self.workers.iter().zip(shared.parked.iter()) {
            if parked.0.load(Ordering::SeqCst) {
                worker.thread().unpark();
            }
        }
        shared.drain(0, generation);
        shared.wait_done(n);
        let payload = shared.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            w.thread().unpark();
            // A worker catches every item's panic, so it cannot have
            // panicked; don't double-panic in drop regardless.
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;

    #[test]
    fn runs_every_item_exactly_once() {
        let mut crew = Crew::new(3);
        for batch in 0..50u64 {
            let hits = AtomicUsize::new(0);
            let mut sum = vec![0u64; 8];
            crew.run(&mut sum, |slot| {
                *slot += batch + 1;
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 8);
            assert!(sum.iter().all(|&s| s == batch + 1));
        }
    }

    #[test]
    fn back_to_back_tiny_batches_publish_and_finish_exactly() {
        let mut crew = Crew::new(1);
        let mut items = [0u64; 5];
        let mut want = 0u64;
        for batch in 0..100_000u64 {
            crew.run(&mut items, |x| *x = x.wrapping_mul(31).wrapping_add(batch));
            want = want.wrapping_mul(31).wrapping_add(batch);
            assert_eq!(items, [want; 5], "batch {batch}");
        }
    }

    #[test]
    fn blocks_cover_every_batch_size() {
        let mut crew = Crew::new(2);
        for n in 0..40 {
            let mut items = vec![0u8; n];
            crew.run(&mut items, |x| *x += 1);
            assert!(items.iter().all(|&x| x == 1), "n = {n}");
        }
    }

    #[test]
    fn zero_worker_crew_runs_inline() {
        let mut crew = Crew::new(0);
        let caller = std::thread::current().id();
        let mut items = [None; 3];
        crew.run(&mut items, |x| *x = Some(std::thread::current().id()));
        assert_eq!(items, [Some(caller); 3]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut crew = Crew::new(2);
        crew.run(&mut [] as &mut [u8], |_| unreachable!());
    }

    #[test]
    fn traced_crew_records_park_and_run_spans() {
        let mut tl = Timeline::armed(1, None);
        let log = Arc::new(CrewSpanLog::new(2, &tl, 1024));
        let mut crew = Crew::traced(2, Arc::clone(&log));
        let mut seen_park = false;
        let mut seen_run = false;
        // Workers record spans when they take part in a batch; a fast
        // caller can drain a batch alone (the steal), so pump batches of
        // slow-enough items until both span kinds show up.
        for _ in 0..200 {
            crew.run(&mut [(); 4], |_| std::thread::sleep(Duration::from_millis(1)));
            tl.absorb_crew(&log);
            let spans = tl.snapshot().expect("armed").crew_spans;
            seen_park |= spans.iter().any(|s| s.name == "crew_park");
            seen_run |= spans.iter().any(|s| s.name == "crew_run");
            if seen_park && seen_run {
                break;
            }
        }
        assert!(seen_park, "workers record waiting intervals");
        assert!(seen_run, "workers record run intervals");
    }

    /// Runs a 4-item batch on a 1-worker crew (blocks: the caller's
    /// `[0, 2)`, the worker's `[2, 4)`) whose item `bad` panics, and checks
    /// that the panic is re-raised with its payload after every other
    /// item ran, and that the crew still works afterwards.
    fn panic_in_item(bad: usize) {
        let mut crew = Crew::new(1);
        let mut items = [0usize, 1, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            crew.run(&mut items, |x| {
                if *x == bad {
                    panic!("boom");
                }
                *x = 100;
            });
        }));
        let payload = result.expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, if i == bad { bad } else { 100 }, "item {i}");
        }
        crew.run(&mut items, |x| *x = 5);
        assert_eq!(items, [5; 4], "the crew survives a panicked batch");
    }

    #[test]
    fn panic_in_the_callers_block_is_rethrown_after_the_batch_drains() {
        panic_in_item(0);
    }

    #[test]
    fn panic_in_a_workers_block_is_rethrown_after_the_batch_drains() {
        panic_in_item(3);
    }

    /// More participants than host threads: three 2-worker crews at once.
    /// Blocks of descheduled workers are stolen; only correctness is
    /// asserted, never timing.
    #[test]
    fn concurrent_crews_oversubscribing_the_host_stay_correct() {
        std::thread::scope(|s| {
            for c in 0..3u64 {
                s.spawn(move || {
                    let mut crew = Crew::new(2);
                    let mut items = vec![0u64; 8];
                    for batch in 0..2_000u64 {
                        crew.run(&mut items, |x| *x += batch ^ c);
                    }
                    let want: u64 = (0..2_000u64).map(|b| b ^ c).sum();
                    assert!(items.iter().all(|&x| x == want), "crew {c}");
                });
            }
        });
    }

    #[test]
    fn dropping_an_idle_crew_joins_its_workers() {
        let mut crew = Crew::new(2);
        crew.run(&mut [0u8; 3], |x| *x = 1);
        // Let both workers give up spinning and park.
        while !crew.shared.parked.iter().all(|f| f.0.load(Ordering::SeqCst)) {
            std::thread::yield_now();
        }
        let shared = Arc::downgrade(&crew.shared);
        drop(crew);
        assert!(shared.upgrade().is_none(), "every worker exited and released the crew");
    }
}
