// The execution engine itself: parallel_for index coverage, exception
// propagation, parallel_reduce determinism, and the memo cache.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/memo_cache.hpp"
#include "exec/thread_pool.hpp"

namespace nshot::exec {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    for (const int n : {0, 1, 7, 100, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); }, jobs);
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " with jobs=" << jobs << " n=" << n;
    }
  }
}

TEST(ParallelForTest, NegativeOrZeroCountIsANoop) {
  int calls = 0;
  parallel_for(0, [&](int) { ++calls; }, 8);
  parallel_for(-5, [&](int) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RethrowsTheLowestIndexException) {
  // Serial execution would hit index 3 first; the parallel engine must
  // surface the same exception no matter which worker ran it.
  for (const int jobs : {1, 4, 8}) {
    try {
      parallel_for(
          100,
          [&](int i) {
            if (i == 3 || i == 57 || i == 99)
              throw std::runtime_error("boom at " + std::to_string(i));
          },
          jobs);
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelForTest, AllItemsStillRunWhenOneThrows) {
  std::atomic<int> ran{0};
  try {
    parallel_for(
        50,
        [&](int i) {
          ran.fetch_add(1);
          if (i == 10) throw std::runtime_error("boom");
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ParallelForTest, NestedParallelSectionsComplete) {
  // The caller always participates, so inner sections can't deadlock even
  // when the pool is saturated by the outer loop.
  std::atomic<int> total{0};
  parallel_for(
      8,
      [&](int) { parallel_for(8, [&](int) { total.fetch_add(1); }, 8); },
      8);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelMapTest, ResultsLandInIndexOrder) {
  for (const int jobs : {1, 8}) {
    const std::vector<int> squares = parallel_map<int>(64, [](int i) { return i * i; }, jobs);
    ASSERT_EQ(squares.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ParallelReduceTest, MatchesSerialLeftFold) {
  // Left-fold in index order: string concatenation is non-commutative, so
  // any reordering would change the result.
  const auto digits = [](int i) { return std::to_string(i) + ","; };
  std::string serial;
  for (int i = 0; i < 40; ++i) serial += digits(i);
  for (const int jobs : {1, 3, 8}) {
    const std::string folded = parallel_reduce<std::string, std::string>(
        40, std::string(), digits, [](std::string acc, const std::string& s) { return acc + s; },
        jobs);
    EXPECT_EQ(folded, serial) << "jobs=" << jobs;
  }
}

TEST(BatchGrainTest, OneChunkPerWorker) {
  // jobs=1 pins workers to 1, so the grain is exactly n.
  EXPECT_EQ(batch_grain(96, 1), 96);
  EXPECT_EQ(batch_grain(1, 8), 1);  // n <= 1 short-circuits
  EXPECT_EQ(batch_grain(0, 8), 1);
  // Never more chunks than hardware threads, whatever jobs asks for.
  for (const int n : {2, 63, 64, 65, 96, 500, 4096}) {
    for (const int jobs : {0, 1, 2, 8}) {
      const int grain = batch_grain(n, jobs);
      EXPECT_GE(grain, 1) << "n=" << n << " jobs=" << jobs;
      EXPECT_LE((n + grain - 1) / grain, hardware_jobs()) << "n=" << n << " jobs=" << jobs;
    }
  }
}

TEST(BatchGrainTest, ChunksCoverTheSweepOnce) {
  // The sweep shape check_conformance relies on: the chunks of a
  // batch_grain sweep tile [0, n) without gaps or overlaps.
  for (const int n : {96, 129, 640}) {
    for (const int jobs : {0, 2, 5}) {
      std::mutex mu;
      std::vector<std::pair<int, int>> chunks;
      parallel_for_chunks(
          n, batch_grain(n, jobs),
          [&](int begin, int end) {
            const std::lock_guard<std::mutex> lock(mu);
            chunks.emplace_back(begin, end);
          },
          jobs);
      std::sort(chunks.begin(), chunks.end());
      int next = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, next) << "n=" << n << " jobs=" << jobs;
        next = end;
      }
      EXPECT_EQ(next, n) << "n=" << n << " jobs=" << jobs;
    }
  }
}

TEST(JobsResolutionTest, ExplicitValueWinsOverDefault) {
  const int saved = default_jobs();
  set_default_jobs(3);
  EXPECT_EQ(resolve_jobs(0), 3);
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_EQ(resolve_jobs(1), 1);
  set_default_jobs(saved);
}

TEST(MemoCacheTest, SecondLookupIsAHit) {
  MemoCache<int> cache;
  int computes = 0;
  const auto compute = [&] { return ++computes * 10; };
  EXPECT_EQ(cache.get_or_compute("a", compute), 10);
  EXPECT_EQ(cache.get_or_compute("a", compute), 10);
  EXPECT_EQ(cache.get_or_compute("b", compute), 20);
  EXPECT_EQ(computes, 2);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(MemoCacheTest, ClearForgetsEntries) {
  MemoCache<std::string> cache;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return std::string("v");
  };
  cache.get_or_compute("k", compute);
  cache.clear();
  cache.get_or_compute("k", compute);
  EXPECT_EQ(computes, 2);
}

TEST(MemoCacheTest, ConcurrentLookupsAgreeOnTheValue) {
  // Many threads race on the same keys; every caller must observe the
  // deterministic computed value regardless of who inserted first.
  MemoCache<int> cache;
  constexpr int kKeys = 16;
  std::vector<int> observed(8 * kKeys, -1);
  parallel_for(
      8 * kKeys,
      [&](int i) {
        const int key = i % kKeys;
        observed[static_cast<std::size_t>(i)] =
            cache.get_or_compute("key" + std::to_string(key), [&] { return key * 7; });
      },
      8);
  for (int i = 0; i < 8 * kKeys; ++i)
    EXPECT_EQ(observed[static_cast<std::size_t>(i)], (i % kKeys) * 7);
}

TEST(MemoCacheTest, CapacityBoundSkipsInsertionButStillComputes) {
  MemoCache<int> cache(/*max_entries=*/2);
  int computes = 0;
  const auto compute = [&] { return ++computes; };
  cache.get_or_compute("a", compute);
  cache.get_or_compute("b", compute);
  cache.get_or_compute("c", compute);  // over capacity: computed, not stored
  cache.get_or_compute("c", compute);  // recomputed
  EXPECT_EQ(computes, 4);
  cache.get_or_compute("a", compute);  // still cached
  EXPECT_EQ(computes, 4);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&] {
      ran.fetch_add(1);
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done.load() == kTasks; });
  EXPECT_EQ(ran.load(), kTasks);
}

}  // namespace
}  // namespace nshot::exec
