// Deterministic parallel execution engine for the repository's sweeps.
//
// Every sweep in this codebase — Monte Carlo conformance trials, the fault
// battery, adversarial-search restarts, per-output exact minimization —
// is a bag of independent work items that are each reproducible from their
// index alone (trial r of base seed s depends only on run_seed(s, r); see
// util/rng.hpp).  This module exploits that: a work-stealing thread pool
// executes the items in whatever order the hardware likes, while the
// combinators below collect results BY INDEX, so the merged output is
// byte-identical to a serial run regardless of the worker count.
//
// Contract every caller relies on:
//  * parallel_for(n, body) calls body(i) exactly once for every i in
//    [0, n); the calling thread participates, so progress never depends on
//    pool workers being available (nested parallel sections cannot
//    deadlock — an inner section simply degrades toward serial when the
//    pool is saturated).
//  * parallel_map / parallel_reduce return results ordered (folded) by
//    index — determinism lives here, not in execution order.
//  * jobs <= 1 (or n <= 1) short-circuits to a plain serial loop on the
//    calling thread: no pool is created, no synchronization runs, and the
//    result is the reference output the parallel paths are tested against.
//  * If bodies throw, every item still runs; the exception for the LOWEST
//    index is rethrown after the loop (matching which failure a serial
//    sweep surfaces first).
//  * EXCEPTION to the above: when the thread-current exec::CancelToken
//    fires (deadline or explicit cancel — see exec/cancel.hpp), remaining
//    items are skipped and Error(kDeadlineExceeded) is rethrown; partial
//    results written by completed items remain valid, matching the serial
//    path where checkpoint() throws out of the loop.
#pragma once

#include <cstdlib>
#include <exception>
#include <functional>
#include <vector>

namespace nshot::exec {

/// Number of hardware threads, at least 1.
int hardware_jobs();

/// Process-wide default worker count used when a `jobs` option is 0:
/// the last set_default_jobs() value, else the NSHOT_JOBS environment
/// variable, else 1 (serial — the library never goes parallel unless a
/// caller opts in, so seed-era entry points keep their exact behaviour).
int default_jobs();
void set_default_jobs(int jobs);

/// Resolve a per-call `jobs` option: values >= 1 are taken as-is, 0 maps
/// to default_jobs().
int resolve_jobs(int jobs);

/// Cost-model admission threshold for parallel_for/parallel_for_chunks, in
/// microseconds of estimated REMAINING work: the calling thread always runs
/// the first chunk inline and times it; when the projected cost of the
/// remaining chunks is below this threshold the loop stays serial — worker
/// wakeups and steal traffic cost more than they save on small circuits
/// (converta once measured 2.5 ms serial vs 11.9 ms at
/// --jobs 8).  Results are byte-identical either way (the by-index merge
/// contract), only the schedule changes.  Default 4000 µs; the
/// NSHOT_PARALLEL_MIN_US environment variable overrides it, and 0 disables
/// admission (always go parallel), which the sanitizer CI uses to keep the
/// pool itself exercised.
double parallel_admission_us();
void set_parallel_admission_us(double us);

/// Work-stealing thread pool.  Each worker owns a deque; submission
/// round-robins across the deques and idle workers steal from the back of
/// their peers', so an uneven bag of trials (one slow oscillating run,
/// many fast ones) still load-balances.  Tasks must not block on other
/// tasks; the parallel_for combinator obeys this by making the caller a
/// full participant.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const;
  void submit(std::function<void()> task);

  /// The process-wide pool backing parallel_for.  Created on first
  /// parallel use; serial call sites never touch it.
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
};

/// Run body(0) ... body(n-1), each exactly once, using up to `jobs`
/// threads (0 = default_jobs()).  Blocks until all items completed.
/// `grain` >= 1 batches that many consecutive indices into one scheduled
/// task — sub-millisecond items (a single conformance trial) amortize the
/// per-task synchronization over `grain` items while the by-index result
/// contract is unchanged.  `grain` <= 0 picks a batch size automatically
/// from n and the worker count.
void parallel_for(int n, const std::function<void(int)>& body, int jobs = 0, int grain = 1);

/// Chunked variant: invoke chunk(begin, end) over disjoint ranges covering
/// [0, n), each range at most `grain` items (`grain` <= 0 = automatic).
/// This is the reuse primitive for expensive per-thread state: a chunk
/// body can construct one scratch object (e.g. a resettable Simulator) and
/// run `end - begin` items through it.  Chunk bodies must still produce
/// per-item results from the item index alone — the serial path (jobs <= 1)
/// runs ONE chunk covering [0, n), so chunk boundaries are not part of the
/// determinism contract.  If chunk bodies throw, every chunk still runs
/// and the exception of the lowest `begin` is rethrown.
void parallel_for_chunks(int n, int grain, const std::function<void(int, int)>& chunk,
                         int jobs = 0);

/// Grain for trial sweeps whose chunks carry heavy per-chunk state (a
/// sim::TrialEngine and its simulator): one chunk per worker, capped at
/// the physical thread count — the automatic grain's 4 chunks/worker
/// rebuilds that state 4x, and chunks beyond the hardware concurrency only
/// fragment it further.  Chunk boundaries stay a scheduling detail
/// (results merge by index).
int batch_grain(int n, int jobs = 0);

/// Map i -> fn(i) into a vector ordered by index.  T must be default
/// constructible and movable.
template <typename T, typename Fn>
std::vector<T> parallel_map(int n, Fn&& fn, int jobs = 0, int grain = 1) {
  std::vector<T> results(static_cast<std::size_t>(n > 0 ? n : 0));
  parallel_for(
      n, [&](int i) { results[static_cast<std::size_t>(i)] = fn(i); }, jobs, grain);
  return results;
}

/// Left fold of fn(0) ... fn(n-1) into `init` IN INDEX ORDER — the
/// reduction a serial loop would compute, whatever order the map ran in.
template <typename T, typename U, typename Fn, typename Combine>
T parallel_reduce(int n, T init, Fn&& fn, Combine&& combine, int jobs = 0, int grain = 1) {
  std::vector<U> mapped = parallel_map<U>(n, std::forward<Fn>(fn), jobs, grain);
  T acc = std::move(init);
  for (U& item : mapped) acc = combine(std::move(acc), std::move(item));
  return acc;
}

}  // namespace nshot::exec
