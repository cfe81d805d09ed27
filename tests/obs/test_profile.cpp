// Scoped-timer and context-installation semantics: RAII accumulation, scope
// nesting/restoration (a null scope is the runtime off switch), and
// worker-count independence of per-task context aggregation on the real
// ThreadPool.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/thread_pool.hpp"

namespace rdsim::obs {
namespace {

// Referenced only through RDSIM_OBS_* macros, which compile to nothing when
// observability is off.
[[maybe_unused]] MetricId scope_timer() {
  static const MetricId id = register_timer("test.scope_timer", "test");
  return id;
}
[[maybe_unused]] MetricId pool_counter() {
  static const MetricId id = register_counter("test.pool_counter", "test");
  return id;
}

TEST(ObsProfile, ScopedTimerAccumulatesIntoCurrentContext) {
#if RDSIM_OBS
  Context ctx;
  {
    ContextScope scope{&ctx};
    { RDSIM_OBS_TIMER(scope_timer()); }
    { RDSIM_OBS_TIMER(scope_timer()); }
  }
  const TimerCell* cell = ctx.timer(scope_timer());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 2u);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

TEST(ObsProfile, NoContextMeansNoRecording) {
  ASSERT_EQ(Context::current(), nullptr);
  // Must be safe and free-standing with no context installed.
  RDSIM_OBS_COUNT(pool_counter(), 1);
  { RDSIM_OBS_TIMER(scope_timer()); }
}

TEST(ObsProfile, ContextScopesNestAndRestore) {
#if RDSIM_OBS
  Context outer, inner;
  {
    ContextScope outer_scope{&outer};
    EXPECT_EQ(Context::current(), &outer);
    {
      ContextScope inner_scope{&inner};
      EXPECT_EQ(Context::current(), &inner);
      RDSIM_OBS_COUNT(pool_counter(), 5);
    }
    {
      // A null scope switches instruments off until it closes.
      ContextScope off_scope{nullptr};
      EXPECT_EQ(Context::current(), nullptr);
      RDSIM_OBS_COUNT(pool_counter(), 100);
    }
    EXPECT_EQ(Context::current(), &outer);
    RDSIM_OBS_COUNT(pool_counter(), 2);
  }
  EXPECT_EQ(Context::current(), nullptr);
  EXPECT_EQ(inner.counter(pool_counter()), 5u);
  EXPECT_EQ(outer.counter(pool_counter()), 2u);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

TEST(ObsProfile, PoolAggregationIsWorkerCountIndependent) {
#if RDSIM_OBS
  // One context per task (the harness discipline), submitted under a stable
  // task id: the merged rollup must not depend on how many workers executed
  // the tasks or in what order they finished.
  constexpr std::size_t kTasks = 24;
  auto run = [](std::size_t workers) {
    auto collector = std::make_unique<CampaignCollector>();
    std::vector<Context> contexts(kTasks);
    util::ThreadPool pool{workers};
    pool.parallel_for(kTasks, [&](std::size_t i) {
      ContextScope scope{&contexts[i]};
      for (std::size_t k = 0; k <= i; ++k) {
        RDSIM_OBS_COUNT(pool_counter(), k + 1);
        { RDSIM_OBS_TIMER(scope_timer()); }
      }
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      char id[16];
      std::snprintf(id, sizeof id, "task-%02zu", i);
      collector->submit_run(id, std::move(contexts[i]));
    }
    return collector;
  };

  const auto reference = run(1);
  const Context ref_merged = reference->merged();
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto other = run(workers);
    ASSERT_EQ(other->run_count(), kTasks);
    // Per-run deterministic state identical...
    auto ref_it = reference->runs().begin();
    for (const auto& [run_id, ctx] : other->runs()) {
      EXPECT_EQ(run_id, ref_it->first);
      EXPECT_EQ(ctx.counter(pool_counter()), ref_it->second.counter(pool_counter()))
          << run_id;
      ++ref_it;
    }
    // ...and so is the merged rollup (timer counts too — only the measured
    // nanoseconds are nondeterministic, never the structure).
    const Context merged = other->merged();
    EXPECT_EQ(merged.counter(pool_counter()), ref_merged.counter(pool_counter()));
    ASSERT_NE(merged.timer(scope_timer()), nullptr);
    EXPECT_EQ(merged.timer(scope_timer())->count,
              ref_merged.timer(scope_timer())->count);
  }
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

TEST(ObsProfile, WallclockIsMonotone) {
  const std::uint64_t a = wallclock_ns();
  const std::uint64_t b = wallclock_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace rdsim::obs
