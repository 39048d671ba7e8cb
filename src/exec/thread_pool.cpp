#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "exec/cancel.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::exec {

namespace {

std::atomic<int> g_default_jobs{0};  // 0 = unset, fall back to env / 1

int env_jobs() {
  if (const char* env = std::getenv("NSHOT_JOBS")) {
    const int value = std::atoi(env);
    if (value >= 1) return value;
  }
  return 1;
}

}  // namespace

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

int default_jobs() {
  const int set = g_default_jobs.load(std::memory_order_relaxed);
  return set >= 1 ? set : env_jobs();
}

// Let RunReport record the effective jobs value without obs linking
// against exec.  Evaluated once before main(); any TU that uses the pool
// pulls this object file in, so the hook is set whenever it matters.
[[maybe_unused]] const bool g_obs_jobs_hook =
    (obs::detail::g_default_jobs_provider = &default_jobs, true);

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs >= 1 ? jobs : 0, std::memory_order_relaxed);
}

int resolve_jobs(int jobs) { return jobs >= 1 ? jobs : default_jobs(); }

namespace {

std::atomic<double> g_admission_us{-1.0};  // < 0 = unset, fall back to env / default

double env_admission_us() {
  if (const char* env = std::getenv("NSHOT_PARALLEL_MIN_US")) {
    char* end = nullptr;
    const double value = std::strtod(env, &end);
    if (end != env && value >= 0) return value;
  }
  return 4000.0;
}

}  // namespace

double parallel_admission_us() {
  const double set = g_admission_us.load(std::memory_order_relaxed);
  return set >= 0 ? set : env_admission_us();
}

void set_parallel_admission_us(double us) {
  g_admission_us.store(us >= 0 ? us : -1.0, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  // One deque per worker; workers pop their own front (LIFO locality) and
  // steal from a victim's back (FIFO — oldest task first keeps the steal
  // cheap and fair).  Each deque has its own mutex; the contention unit is
  // one push/pop, never a task body.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> workers;
  std::atomic<std::size_t> next_queue{0};
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  bool stop = false;

  explicit Impl(int threads) {
    const int n = std::max(threads, 1);
    queues.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      workers.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(sleep_mutex);
      stop = true;
    }
    sleep_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  /// Pop from own queue, then steal round the ring.  Returns false when
  /// every deque is empty at the moment of inspection.
  bool try_pop(std::size_t self, std::function<void()>& task) {
    const std::size_t n = queues.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (self + k) % n;
      WorkerQueue& q = *queues[victim];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (q.tasks.empty()) continue;
      if (victim == self) {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
      } else {
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
      }
      return true;
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    while (true) {
      std::function<void()> task;
      if (try_pop(self, task)) {
        task();
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex);
      if (stop) return;
      // Re-check with the sleep lock held: a submitter publishes the task
      // before notifying under this same lock, so a wakeup cannot be lost.
      if (try_pop(self, task)) {
        lock.unlock();
        task();
        continue;
      }
      sleep_cv.wait(lock);
      if (stop) return;
    }
  }

  void submit(std::function<void()> task) {
    const std::size_t target =
        next_queue.fetch_add(1, std::memory_order_relaxed) % queues.size();
    {
      WorkerQueue& q = *queues[target];
      std::lock_guard<std::mutex> lock(q.mutex);
      q.tasks.push_back(std::move(task));
    }
    {
      std::lock_guard<std::mutex> lock(sleep_mutex);
    }
    sleep_cv.notify_one();
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl(threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

int ThreadPool::num_threads() const { return static_cast<int>(impl_->workers.size()); }

void ThreadPool::submit(std::function<void()> task) {
  // Capture the submitting thread's active span so spans opened inside the
  // task attach to it — parallel per-item spans nest under the caller's
  // pass span exactly as a serial run would nest them.  When observability
  // is disabled the context is 0 and the scope is a no-op.  The submitting
  // thread's CancelToken rides along the same way, so a deadline installed
  // on the caller covers every worker that picks up its chunks.
  const std::int64_t context = obs::detail::current_context();
  std::shared_ptr<void> cancel_state = detail::capture_current();
  if (context == 0 && !cancel_state) {
    impl_->submit(std::move(task));
    return;
  }
  impl_->submit([context, cancel_state = std::move(cancel_state), task = std::move(task)] {
    obs::detail::ContextScope scope(context);
    detail::PropagateScope cancel_scope(cancel_state);
    task();
  });
}

ThreadPool& ThreadPool::shared() {
  // Big enough for the determinism tests' --jobs 8 even on small machines;
  // the caller thread always participates on top of these workers.
  static ThreadPool pool(std::max(hardware_jobs() - 1, 8));
  return pool;
}

namespace {

/// Shared state of one parallel_for_chunks: a self-scheduling bag of
/// chunk indices.  Runner tasks and the calling thread all drain it;
/// runners that the pool only schedules after the loop finished find the
/// bag empty and exit without touching the (already destroyed) caller
/// frame — everything they need is owned by this block via shared_ptr.
struct ForLoop {
  std::function<void(int, int)> chunk;
  int n = 0;
  int grain = 1;
  int num_chunks = 0;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<int, std::exception_ptr>> errors;  // guarded by mutex

  void record(int begin, std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex);
    errors.emplace_back(begin, std::move(error));
  }

  /// Execute one chunk, converting a fired CancelToken into a recorded
  /// deadline-exceeded error instead of running the body — this is how a
  /// deadline drains a half-finished bag promptly: remaining chunks are
  /// claimed, skipped and counted without touching the work.
  void run_chunk(int c) {
    const int begin = c * grain;
    const int end = std::min(begin + grain, n);
    if (cancel_requested()) {
      record(begin, std::make_exception_ptr(Error(ErrorCode::kDeadlineExceeded,
                                                  "work cancelled: " +
                                                      current_token().reason())));
    } else {
      try {
        chunk(begin, end);
      } catch (...) {
        record(begin, std::current_exception());
      }
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
      std::lock_guard<std::mutex> lock(mutex);
      cv.notify_all();
    }
  }

  void run() {
    while (true) {
      const int c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      run_chunk(c);
    }
  }

  /// Rethrow the failure a serial sweep would have hit first.
  void rethrow_lowest() {
    if (errors.empty()) return;
    auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
};

/// `grain` <= 0 aims for a few chunks per worker — enough slack for the
/// work-stealing to balance an uneven bag without paying per-item
/// scheduling.
int resolve_grain(int grain, int n, int workers) {
  if (grain >= 1) return grain;
  return std::max(1, n / (workers * 4));
}

}  // namespace

int batch_grain(int n, int jobs) {
  if (n <= 1) return 1;
  // Chunks beyond the physical thread count cannot add throughput — they
  // only fragment the per-chunk state (a jobs=8 request on a 1-core host
  // must still run one chunk).
  const int workers = std::max(1, std::min({resolve_jobs(jobs), hardware_jobs(), n}));
  return (n + workers - 1) / workers;
}

void parallel_for_chunks(int n, int grain, const std::function<void(int, int)>& chunk,
                         int jobs) {
  if (n <= 0) return;
  checkpoint();  // a fired deadline stops a sweep before it starts
  const int workers = std::min(resolve_jobs(jobs), n);
  if (workers <= 1 || n == 1) {
    chunk(0, n);  // one chunk: maximal scratch reuse, immediate propagation
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->chunk = chunk;
  loop->n = n;
  loop->grain = resolve_grain(grain, n, workers);
  loop->num_chunks = (n + loop->grain - 1) / loop->grain;
  if (loop->num_chunks == 1) {
    chunk(0, n);
    return;
  }

  // Cost-model admission: the caller runs chunk 0 inline and times it.
  // When the projected cost of the REMAINING chunks is below the admission
  // threshold, scheduling them is all overhead (worker wakeups, steal
  // traffic, cache ping-pong) — finish the bag serially on this thread
  // instead.  The by-index result contract makes the two schedules
  // byte-identical, so this is purely a latency decision.
  loop->next.store(1, std::memory_order_relaxed);
  const auto admit_start = std::chrono::steady_clock::now();
  loop->run_chunk(0);
  const double first_chunk_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - admit_start)
          .count();
  const double threshold_us = parallel_admission_us();
  if (threshold_us > 0 &&
      first_chunk_us * static_cast<double>(loop->num_chunks - 1) < threshold_us) {
    loop->run();  // remaining chunks, serial
    loop->rethrow_lowest();
    return;
  }

  ThreadPool& pool = ThreadPool::shared();
  const int runners = std::min(workers - 1, loop->num_chunks - 2);
  for (int r = 0; r < runners; ++r) pool.submit([loop] { loop->run(); });
  loop->run();  // the caller is always a participant

  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->cv.wait(lock,
                [&] { return loop->done.load(std::memory_order_acquire) == loop->num_chunks; });
  loop->rethrow_lowest();
}

void parallel_for(int n, const std::function<void(int)>& body, int jobs, int grain) {
  if (n <= 0) return;
  const int workers = std::min(resolve_jobs(jobs), n);
  if (workers <= 1 || n == 1) {
    for (int i = 0; i < n; ++i) {
      checkpoint();  // serial path: a fired deadline throws out of the loop
      body(i);
    }
    return;
  }

  // Per-item try/catch inside the chunk keeps the parallel_for contract:
  // every item runs even when an earlier item of the same chunk threw, and
  // the rethrown exception is the lowest ITEM index, not chunk index.
  // Cancellation is the exception to "every item runs": a fired token
  // abandons the rest of the chunk with one recorded deadline error.
  std::mutex mutex;
  std::vector<std::pair<int, std::exception_ptr>> errors;
  parallel_for_chunks(
      n, grain,
      [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
          if (cancel_requested()) {
            std::lock_guard<std::mutex> lock(mutex);
            errors.emplace_back(
                i, std::make_exception_ptr(Error(ErrorCode::kDeadlineExceeded,
                                                 "work cancelled: " +
                                                     current_token().reason())));
            return;
          }
          try {
            body(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            errors.emplace_back(i, std::current_exception());
          }
        }
      },
      jobs);
  if (!errors.empty()) {
    auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

}  // namespace nshot::exec
