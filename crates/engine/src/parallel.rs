//! Bounded-parallelism execution: a persistent scoped worker pool.
//!
//! §4.1: *"SeeDB executes multiple view queries in parallel … however, the
//! precise number of parallel queries needs to be tuned."* Fig 7b sweeps
//! the degree of parallelism and finds ≈ #cores optimal. [`with_pool`]
//! spawns its workers once; they live for the whole scope (e.g. an entire
//! phased execution) and run every round the scope issues.
//!
//! A round ([`Pool::run`]) owns its task, the task's item count and the
//! cursor its items are claimed from. It goes to every worker it needs on
//! that worker's own channel, and each worker reports on one shared channel
//! once it has drained the round, ok or panicked. A task owns what it reads
//! or borrows it from outside `with_pool` (the pool's `'env`), so the
//! compiler checks that nothing a worker reads dies before it. Dropping the
//! pool hangs up every worker, which ends the scope even when the closure
//! passed to `with_pool` unwinds.

use seedb_obs::TraceCtx;
use seedb_util::PLock;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// A cooperative deadline token threaded from the serving layer down into
/// the morsel loop.
///
/// Cancellation is *cooperative*: nothing is preempted. The executor
/// checks the token at phase boundaries and the morsel scheduler checks it
/// before aggregating each claimed morsel, so a run overshoots its
/// deadline by at most one in-flight morsel per worker. A token with no
/// deadline ([`CancelToken::none`]) never expires and costs one branch per
/// check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires.
    pub fn none() -> Self {
        CancelToken { deadline: None }
    }

    /// A token expiring `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        CancelToken {
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// A token expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
        }
    }

    /// Whether the deadline has passed.
    #[inline]
    pub fn is_expired(&self) -> bool {
        match self.deadline {
            None => false,
            Some(d) => Instant::now() >= d,
        }
    }

    /// Time left before expiry: `None` for a deadline-free token, zero
    /// once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// A task's outcome on one worker: the payload of the first item that
/// panicked, if any.
type Outcome = Result<(), Box<dyn Any + Send>>;

/// One [`Pool::run`] call: the task, its item count and the cursor its
/// items are claimed from.
struct Round<'env> {
    task: Box<dyn Fn(usize, usize) + Send + Sync + 'env>,
    items: usize,
    next: AtomicUsize,
}

impl Round<'_> {
    /// Claims and runs items as `worker` until none is left. A panicking
    /// item does not stop the others: every item runs once either way.
    fn drain(&self, worker: usize) -> Outcome {
        let mut outcome = Ok(());
        loop {
            // The cursor publishes nothing: the round reached this worker
            // through a channel, and a task orders its own writes.
            let item = self.next.fetch_add(1, Ordering::Relaxed);
            if item >= self.items {
                return outcome;
            }
            let ran = catch_unwind(AssertUnwindSafe(|| (self.task)(worker, item)));
            outcome = outcome.and(ran);
        }
    }
}

/// A spawned worker: drains every round it is sent, drops it and reports,
/// until the pool hangs up.
fn worker_loop(worker: usize, rounds: Receiver<Arc<Round<'_>>>, done: Sender<Outcome>) {
    for round in rounds {
        let outcome = round.drain(worker);
        drop(round);
        if done.send(outcome).is_err() {
            return;
        }
    }
}

/// Handle to a live worker pool (see [`with_pool`]): one round channel per
/// spawned worker and the channel they all report on. A pool without
/// spawned workers runs everything inline.
pub struct Pool<'env> {
    workers: Vec<Sender<Arc<Round<'env>>>>,
    done: Receiver<Outcome>,
}

impl<'env> Pool<'env> {
    /// Number of workers, including the calling thread (≥ 1).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `num_tasks` work items of `task(worker, item)` across the pool,
    /// returning once all have finished. The calling thread participates as
    /// worker 0; spawned workers are `1..threads()`, and no more of them
    /// are woken than there are items besides the caller's first. Item
    /// indices are claimed in ascending order.
    ///
    /// `task` owns what it reads or borrows it from outside [`with_pool`];
    /// it cannot reach the pool itself, so rounds never nest.
    ///
    /// # Panics
    /// Propagates the first panic of any item after the round has fully
    /// drained (no item is silently lost).
    pub fn run(&self, num_tasks: usize, task: impl Fn(usize, usize) + Send + Sync + 'env) {
        if num_tasks == 0 {
            return;
        }
        let round = Arc::new(Round {
            task: Box::new(task),
            items: num_tasks,
            next: AtomicUsize::new(0),
        });
        let helpers = self
            .workers
            .iter()
            .take(num_tasks - 1)
            .filter(|worker| worker.send(Arc::clone(&round)).is_ok())
            .count();
        let mut outcome = round.drain(0);
        for _ in 0..helpers {
            let reported = self
                .done
                .recv()
                .expect("a live worker reports every round it is sent");
            outcome = outcome.and(reported);
        }
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }
}

/// Spawns a scoped worker pool of `threads` workers (1 = fully inline, no
/// threads spawned) and runs `f` with a handle to it. Workers persist for
/// the whole call, executing every [`Pool::run`] round `f` issues — this is
/// what lets a phased execution reuse one set of OS threads across all of
/// its phases.
pub fn with_pool<'env, R>(threads: usize, f: impl FnOnce(&Pool<'env>) -> R) -> R {
    std::thread::scope(|scope| {
        let (report, done) = channel();
        let workers = (1..threads.max(1))
            .map(|worker| {
                let (send, rounds) = channel();
                let report = report.clone();
                scope.spawn(move || worker_loop(worker, rounds, report));
                send
            })
            .collect();
        drop(report);
        // `f`'s pool drops before the scope joins its workers, unwinding or
        // not, and that hangs every worker up.
        f(&Pool { workers, done })
    })
}

/// One worker's aggregated probe state.
#[derive(Default)]
struct ProbeSlot {
    first: Option<Instant>,
    busy: Duration,
    items: u64,
    updates: u64,
    lane_updates: u64,
}

/// Per-worker busy-time probes for tracing a [`Pool::run`] fan-out as one
/// aggregated span per worker (start = the worker's first claim, duration
/// = its summed busy time) instead of one span per morsel. Disabled probes
/// ([`WorkerProbes::new`] with `enabled = false`) allocate nothing and
/// cost one branch per item, keeping the untraced hot path untouched.
/// Each worker only locks its own slot, so the mutexes are uncontended —
/// the same safe-code pattern as the morsel scheduler's partials.
pub(crate) struct WorkerProbes {
    slots: Vec<PLock<ProbeSlot>>,
}

impl WorkerProbes {
    /// Probes for `workers` lanes; `enabled = false` records nothing.
    pub fn new(workers: usize, enabled: bool) -> WorkerProbes {
        WorkerProbes {
            slots: if enabled {
                (0..workers)
                    .map(|_| PLock::new("engine.worker.probe", ProbeSlot::default()))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Whether these probes record anything.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Stamps one work item's start; `None` when disabled (so the hot
    /// path pays no clock read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }

    /// Folds one finished work item into `worker`'s slot, with the
    /// accumulator updates it made and how many of them were lane adds
    /// (see [`crate::ExecStats::fixed_lane_updates`]).
    pub fn record(&self, worker: usize, start: Option<Instant>, updates: u64, lane_updates: u64) {
        let Some(start) = start else { return };
        let Some(slot) = self.slots.get(worker) else {
            return;
        };
        let mut slot = slot.lock();
        slot.first.get_or_insert(start);
        slot.busy += start.elapsed();
        slot.items += 1;
        slot.updates += updates;
        slot.lane_updates += lane_updates;
    }

    /// Emits one span per worker that claimed work: lane `1 + worker`,
    /// start = first claim, duration = summed busy time, with the item and
    /// update counts as arguments.
    pub fn emit(&self, trace: &TraceCtx, name: &'static str) {
        for (worker, slot) in self.slots.iter().enumerate() {
            let slot = slot.lock();
            let Some(first) = slot.first else { continue };
            trace.record(
                name,
                (worker + 1) as u32,
                first,
                slot.busy,
                vec![
                    ("worker", worker.to_string()),
                    ("items", slot.items.to_string()),
                    ("accumulator_updates", slot.updates.to_string()),
                    ("fixed_lane_updates", slot.lane_updates.to_string()),
                ],
            );
        }
    }
}

/// The default degree of parallelism: the number of available cores
/// (the paper's empirically optimal setting, Fig 7b).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A counting semaphore over morsel-worker slots, for sharing the
/// machine's worker budget across concurrent recommendation runs.
///
/// One run's pool ([`with_pool`]) sizes itself to ≈ #cores; N concurrent
/// server requests each doing that would oversubscribe the machine N×.
/// A `WorkerBudget` of `total` permits fixes the global degree: each
/// request leases as many worker slots as are available (at least one —
/// a request never deadlocks waiting for full parallelism) and sizes its
/// pool to the lease. Dropping the [`BudgetLease`] returns the permits.
pub struct WorkerBudget {
    permits: PLock<usize>,
    cv: Condvar,
    total: usize,
}

impl WorkerBudget {
    /// A budget of `total` worker slots (clamped to ≥ 1).
    pub fn new(total: usize) -> Self {
        let total = total.max(1);
        WorkerBudget {
            permits: PLock::new("engine.worker.budget", total),
            cv: Condvar::new(),
            total,
        }
    }

    /// The configured total number of slots.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Slots currently unleased (for observability; racy by nature).
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }

    /// Leases between 1 and `desired` slots, blocking only while *no*
    /// slot is free: as soon as at least one permit is available the
    /// lease takes `min(desired, available)` and returns. `desired` is
    /// clamped to ≥ 1.
    pub fn lease(&self, desired: usize) -> BudgetLease<'_> {
        let desired = desired.max(1);
        let mut permits = self.permits.lock();
        while *permits == 0 {
            permits = permits.wait(&self.cv);
        }
        let granted = desired.min(*permits);
        *permits -= granted;
        BudgetLease {
            budget: self,
            granted,
        }
    }

    /// Non-blocking [`WorkerBudget::lease`]: takes `min(desired,
    /// available)` slots if at least one is free, `None` otherwise. The
    /// serving layer's first rung on the degradation ladder — never parks
    /// the request thread.
    pub fn try_lease(&self, desired: usize) -> Option<BudgetLease<'_>> {
        let desired = desired.max(1);
        let mut permits = self.permits.lock();
        if *permits == 0 {
            return None;
        }
        let granted = desired.min(*permits);
        *permits -= granted;
        Some(BudgetLease {
            budget: self,
            granted,
        })
    }

    /// [`WorkerBudget::lease`] with a bounded wait: blocks at most
    /// `timeout` for a slot to free up, then gives up with `None`. A
    /// starved request degrades or sheds — it never blocks forever.
    pub fn lease_timeout(&self, desired: usize, timeout: Duration) -> Option<BudgetLease<'_>> {
        let desired = desired.max(1);
        let deadline = Instant::now() + timeout;
        let mut permits = self.permits.lock();
        while *permits == 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, result) = permits.wait_timeout(&self.cv, left);
            permits = guard;
            if result.timed_out() && *permits == 0 {
                return None;
            }
        }
        let granted = desired.min(*permits);
        *permits -= granted;
        Some(BudgetLease {
            budget: self,
            granted,
        })
    }
}

/// RAII lease of worker slots from a [`WorkerBudget`]; returns them on
/// drop.
pub struct BudgetLease<'a> {
    budget: &'a WorkerBudget,
    granted: usize,
}

impl BudgetLease<'_> {
    /// Number of worker slots this lease holds — the parallelism the
    /// holder should run with.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        let mut permits = self.budget.permits.lock();
        *permits += self.granted;
        self.budget.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// [`Pool::run`] collecting each item's result, in item order.
    fn map<'env, T: Send + 'env>(
        pool: &Pool<'env>,
        num_tasks: usize,
        task: impl Fn(usize, usize) -> T + Send + Sync + 'env,
    ) -> Vec<T> {
        let slots: Arc<Vec<PLock<Option<T>>>> = Arc::new(
            (0..num_tasks)
                .map(|_| PLock::new("test.pool.slot", None))
                .collect(),
        );
        let out = Arc::clone(&slots);
        pool.run(num_tasks, move |worker, i| {
            *out[i].lock() = Some(task(worker, i));
        });
        slots
            .iter()
            .map(|slot| slot.lock().take().expect("every item runs exactly once"))
            .collect()
    }

    /// One round of `num_tasks` tasks on a pool of at most `threads`
    /// workers (never more than there are tasks); results in task order.
    fn run_parallel<T: Send>(
        num_tasks: usize,
        threads: usize,
        task: impl Fn(usize) -> T + Send + Sync,
    ) -> Vec<T> {
        let threads = threads.max(1).min(num_tasks.max(1));
        with_pool(threads, |pool| map(pool, num_tasks, move |_, i| task(i)))
    }

    #[test]
    fn results_preserve_task_order() {
        for threads in [1, 2, 4, 16] {
            let out = run_parallel(20, threads, |i| i * i);
            let expect: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = run_parallel(100, 8, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = run_parallel(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn one_task_is_fine() {
        let out = run_parallel(1, 16, |i| i + 7);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn tasks_can_borrow_environment() {
        let data = [10, 20, 30];
        let out = run_parallel(3, 3, |i| data[i] * 2);
        assert_eq!(out, vec![20, 40, 60]);
    }

    #[test]
    fn oversubscribed_threads_clamp_to_tasks() {
        // More threads than tasks must not deadlock or lose results.
        let out = run_parallel(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn pool_reuses_workers_across_rounds() {
        use std::collections::HashSet;
        let seen: PLock<HashSet<std::thread::ThreadId>> =
            PLock::new("test.pool.seen", HashSet::new());
        let seen = &seen;
        with_pool(4, |pool| {
            for round in 0..50 {
                let sums: Vec<usize> = map(pool, 8, move |_, i| {
                    seen.lock().insert(std::thread::current().id());
                    round * 8 + i
                });
                let expect: Vec<usize> = (0..8).map(|i| round * 8 + i).collect();
                assert_eq!(sums, expect, "round {round}");
            }
        });
        // 50 rounds on a 4-thread pool touch at most 4 distinct threads —
        // workers persisted instead of being respawned per round.
        assert!(seen.lock().len() <= 4);
    }

    #[test]
    fn pool_worker_ids_are_in_range() {
        with_pool(3, |pool| {
            let ids = map(pool, 64, |worker, _| worker);
            assert!(ids.iter().all(|&w| w < 3));
        });
    }

    #[test]
    fn pool_tasks_can_borrow_and_mutate_disjoint_state() {
        let data: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        with_pool(4, |pool| {
            pool.run(32, |_, i| {
                data[i].fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        for (i, slot) in data.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), i as u64);
        }
    }

    #[test]
    fn pool_propagates_task_panics() {
        let result = std::panic::catch_unwind(|| {
            with_pool(4, |pool| {
                pool.run(16, |_, i| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                });
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_budget_grants_up_to_available() {
        let budget = WorkerBudget::new(4);
        assert_eq!(budget.total(), 4);
        let a = budget.lease(3);
        assert_eq!(a.granted(), 3);
        // Only one slot left: a desired-4 lease gets 1 without blocking.
        let b = budget.lease(4);
        assert_eq!(b.granted(), 1);
        assert_eq!(budget.available(), 0);
        drop(a);
        assert_eq!(budget.available(), 3);
        drop(b);
        assert_eq!(budget.available(), 4);
    }

    #[test]
    fn worker_budget_clamps_degenerate_inputs() {
        let budget = WorkerBudget::new(0);
        assert_eq!(budget.total(), 1);
        let lease = budget.lease(0);
        assert_eq!(lease.granted(), 1);
    }

    #[test]
    fn worker_budget_never_oversubscribes_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let budget = WorkerBudget::new(3);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let lease = budget.lease(2);
                        let now = in_flight.fetch_add(lease.granted(), Ordering::SeqCst)
                            + lease.granted();
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        in_flight.fetch_sub(lease.granted(), Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "budget exceeded");
        assert_eq!(budget.available(), 3);
    }

    #[test]
    fn try_lease_never_blocks() {
        let budget = WorkerBudget::new(2);
        let a = budget.try_lease(2).expect("slots free");
        assert_eq!(a.granted(), 2);
        assert!(
            budget.try_lease(1).is_none(),
            "exhausted budget must refuse"
        );
        drop(a);
        let b = budget.try_lease(5).expect("slots returned");
        assert_eq!(b.granted(), 2);
    }

    #[test]
    fn lease_timeout_gives_up_when_starved() {
        let budget = WorkerBudget::new(1);
        let held = budget.lease(1);
        let t0 = std::time::Instant::now();
        let got = budget.lease_timeout(1, Duration::from_millis(30));
        assert!(got.is_none(), "starved lease must time out");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        drop(held);
        let got = budget.lease_timeout(1, Duration::from_millis(30));
        assert_eq!(got.expect("slot free").granted(), 1);
    }

    #[test]
    fn lease_timeout_wakes_when_a_slot_frees() {
        let budget = WorkerBudget::new(1);
        std::thread::scope(|scope| {
            let held = budget.lease(1);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(held);
            });
            let got = budget.lease_timeout(1, Duration::from_secs(5));
            assert_eq!(got.expect("freed before timeout").granted(), 1);
        });
    }

    #[test]
    fn cancel_token_none_never_expires() {
        let t = CancelToken::none();
        assert!(!t.is_expired());
        assert_eq!(t.remaining(), None);
        assert!(!CancelToken::default().is_expired());
    }

    #[test]
    fn cancel_token_expires_after_timeout() {
        let t = CancelToken::after(Duration::from_millis(0));
        assert!(t.is_expired());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let t = CancelToken::after(Duration::from_secs(3600));
        assert!(!t.is_expired());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
        let t = CancelToken::with_deadline(std::time::Instant::now());
        assert!(t.is_expired());
    }

    #[test]
    fn inline_pool_is_deterministic_and_ordered() {
        let order = PLock::new("test.pool.order", Vec::new());
        with_pool(1, |pool| {
            pool.run(5, |worker, i| {
                assert_eq!(worker, 0);
                order.lock().push(i);
            });
            assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn a_panic_outside_any_task_ends_the_scope() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                with_pool(threads, |pool| {
                    pool.run(8, |_, _| {});
                    panic!("the scope's own code panicked");
                })
            });
            let payload = result.expect_err("the panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the scope's own code panicked"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn a_fresh_pool_runs_after_a_worker_task_panicked() {
        // Item 0 holds the caller until a spawned worker has claimed item 1
        // and is about to panic on it.
        let claimed = std::sync::atomic::AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            with_pool(2, |pool| {
                pool.run(2, |worker, _| {
                    if worker == 0 {
                        let t0 = Instant::now();
                        while !claimed.load(Ordering::SeqCst)
                            && t0.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                    } else {
                        claimed.store(true, Ordering::SeqCst);
                        panic!("a spawned worker's task exploded");
                    }
                });
            })
        });
        assert!(
            claimed.load(Ordering::SeqCst),
            "a spawned worker claimed an item"
        );
        let payload = result.expect_err("the worker's panic propagates");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"a spawned worker's task exploded")
        );
        assert_eq!(
            run_parallel(16, 2, |i| i * 3),
            (0..16).map(|i| i * 3).collect::<Vec<_>>()
        );
    }
}
