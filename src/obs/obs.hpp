// rdsim::obs — zero-cost-when-disabled observability.
//
// Three layers, all deterministic in *structure* (metric identity, iteration
// order, aggregation order) even where the measured *values* are wall-clock
// noise by nature (profiling timers):
//
//   1. a metrics registry (counters, gauges, fixed-bucket log-scale
//      histograms) with a static catalog of metric names (obs/catalog.hpp) —
//      names are registered exactly once, never concatenated in hot paths;
//   2. RAII scoped wall-clock timers (obs/profile.hpp) accumulating into the
//      thread-local context, merged across util::ThreadPool workers in
//      worker-count-independent order;
//   3. a span/event tracer keyed to the *virtual* simulation clock, exported
//      as Chrome trace-event JSON (obs/trace_export.hpp) loadable in
//      Perfetto.
//
// Two switches gate every instrumentation site:
//
//   - compile time: the RDSIM_OBS macro (default 1; `cmake -DRDSIM_OBS_ENABLED=OFF`
//     defines it to 0 globally). At 0 the RDSIM_OBS_* macros expand to
//     nothing and Context::current() is a constant nullptr.
//   - run time: only code that installs a context (a ContextScope, e.g. the
//     harness with a collector attached) is observed; with no context
//     installed, or under ContextScope{nullptr}, every instrumentation site
//     is a single thread-local load plus a predictable branch.
//
// The cardinal rule — enforced by the golden-hash regression suite — is that
// observation NEVER perturbs the simulation: instruments only read sim
// state; they never touch an RNG stream, the virtual clock, or any value
// that feeds check::campaign_hash.
#pragma once

#ifndef RDSIM_OBS
#define RDSIM_OBS 1
#endif

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

// Token pasting for unique RAII timer names.
#define RDSIM_OBS_CONCAT2(a, b) a##b
#define RDSIM_OBS_CONCAT(a, b) RDSIM_OBS_CONCAT2(a, b)

#if RDSIM_OBS

/// Increment a registered counter by `delta` (a no-op without a context).
#define RDSIM_OBS_COUNT(id, delta)                                    \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->count((id), (delta));                           \
    }                                                                 \
  } while (0)

/// Record the current value of a registered gauge.
#define RDSIM_OBS_GAUGE_SET(id, value)                                \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->gauge_set((id), (value));                       \
    }                                                                 \
  } while (0)

/// Record one sample into a registered histogram.
#define RDSIM_OBS_OBSERVE(id, value)                                  \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->observe((id), (value));                         \
    }                                                                 \
  } while (0)

/// RAII wall-clock timer over the rest of the enclosing scope.
#define RDSIM_OBS_TIMER(id) \
  ::rdsim::obs::ScopedTimer RDSIM_OBS_CONCAT(rdsim_obs_timer_, __COUNTER__){(id)}

/// Instant event on the virtual clock (shows as a marker in the trace).
#define RDSIM_OBS_EVENT(id, tp)                                       \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->instant((id), (tp));                            \
    }                                                                 \
  } while (0)

#else  // RDSIM_OBS compiled out: the macros vanish entirely.

#define RDSIM_OBS_COUNT(id, delta) ((void)0)
#define RDSIM_OBS_GAUGE_SET(id, value) ((void)0)
#define RDSIM_OBS_OBSERVE(id, value) ((void)0)
#define RDSIM_OBS_TIMER(id) ((void)0)
#define RDSIM_OBS_EVENT(id, tp) ((void)0)

#endif  // RDSIM_OBS
