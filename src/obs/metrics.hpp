// Metrics registry and per-run collection context.
//
// Metric *identity* is global and static: register_counter() & friends
// append to a process-wide registry (names unique, registration happens in
// obs/catalog.cpp for all first-party instrumentation — enforced by
// `python3 -m tools.rdsim_lint.cli --rules obs`) and hand back a small
// integer MetricId. Metric *values*
// live in Context objects: one per observed unit of work (one teleop run in
// the campaign harness), installed thread-locally via ContextScope so hot
// paths reach it with a single TLS load. This split is what makes
// aggregation worker-count independent: each run accumulates into its own
// context on whatever pool thread executes it, and the campaign collector
// merges the finished contexts in run-id order, never completion order.
//
// Everything here is deterministic given deterministic inputs: histograms
// use fixed log-scale buckets (no adaptive resizing), merges are elementwise
// integer adds (associative and commutative), and exports iterate metrics in
// sorted-name order — see docs/observability.md.
#pragma once

#ifndef RDSIM_OBS
#define RDSIM_OBS 1
#endif

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace rdsim::obs {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kTimer };

std::string_view to_string(MetricKind kind);

/// Log-scale bucket layout: `bucket_count` geometric buckets spanning
/// [min_value, max_value), plus an underflow bucket (index 0, values below
/// min_value — NaN included) and an overflow bucket (last index, values at or
/// above max_value).
struct HistogramSpec {
  double min_value{1e-3};
  double max_value{1e4};
  std::size_t bucket_count{48};
};

struct MetricDef {
  MetricKind kind{MetricKind::kCounter};
  std::string name;
  std::string help;
  std::string unit;
  /// Histogram bucket boundaries (size bucket_count + 1; bounds.front() ==
  /// min_value and bounds.back() == max_value exactly). Empty for other
  /// kinds.
  std::vector<double> bounds;
};

/// Register a metric. Names must be unique process-wide (std::logic_error on
/// a duplicate) and match [a-z0-9_.]+; they are the stable export identity.
/// Registration is cheap but takes a lock — never call from a hot path; all
/// first-party ids live in obs/catalog.hpp.
MetricId register_counter(std::string_view name, std::string_view help,
                          std::string_view unit = "");
MetricId register_gauge(std::string_view name, std::string_view help,
                        std::string_view unit = "");
MetricId register_timer(std::string_view name, std::string_view help);
MetricId register_histogram(std::string_view name, std::string_view help,
                            std::string_view unit, HistogramSpec spec);

/// Number of metrics registered so far.
std::size_t metric_count();

/// Definition for `id`; throws std::out_of_range for unknown ids.
const MetricDef& metric_def(MetricId id);

/// Id registered under `name`, or metric_count() when unknown.
MetricId find_metric(std::string_view name);

/// True when the instrumentation macros are compiled in (RDSIM_OBS != 0).
constexpr bool compiled_in() { return RDSIM_OBS != 0; }

struct GaugeCell {
  double last{0.0};
  double min{0.0};
  double max{0.0};
  double sum{0.0};
  std::uint64_t count{0};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

struct TimerCell {
  std::uint64_t total_ns{0};
  std::uint64_t count{0};
};

struct HistogramCell {
  std::vector<std::uint64_t> counts;  ///< size bucket_count + 2 once touched
  std::uint64_t count{0};
  double sum{0.0};
  /// Cached registry entry (stable storage), so the hot observe() path pays
  /// the registry lock once per (context, histogram), not once per sample.
  const MetricDef* def{nullptr};
};

/// One closed (or still-open) virtual-time span. `lane` disambiguates
/// concurrent spans of the same metric (e.g. per stream id); an open span
/// has end_us < begin_us and is clamped to zero length at export.
struct Span {
  MetricId metric{0};
  std::uint32_t lane{0};
  std::int64_t begin_us{0};
  std::int64_t end_us{-1};
};

/// Instant event on the virtual clock.
struct Instant {
  MetricId metric{0};
  std::uint32_t lane{0};
  std::int64_t ts_us{0};
};

/// Sentinel returned by span_open when no span was recorded.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// Value store for one observed unit of work. Not thread-safe: exactly one
/// thread writes a context at a time (the ContextScope discipline).
class Context {
 public:
  Context() = default;

  // ---- hot-path update API ----
  void count(MetricId id, std::uint64_t delta = 1);
  void gauge_set(MetricId id, double value);
  void observe(MetricId id, double value);
  void timer_add(MetricId id, std::uint64_t ns);
  std::size_t span_open(MetricId id, util::TimePoint begin, std::uint32_t lane = 0);
  void span_close(std::size_t handle, util::TimePoint end);
  void instant(MetricId id, util::TimePoint ts, std::uint32_t lane = 0);

  // ---- read API ----
  std::uint64_t counter(MetricId id) const;
  /// nullptr when the gauge/histogram/timer was never touched in this context.
  const GaugeCell* gauge(MetricId id) const;
  const HistogramCell* histogram(MetricId id) const;
  const TimerCell* timer(MetricId id) const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  bool empty() const;

  /// Fold `other` into this context. Counter/histogram/timer merges are
  /// elementwise integer (or order-fixed double) adds — associative and
  /// commutative — so any merge tree over the same shard set yields the same
  /// totals. Gauge `last` keeps the operand that has samples (preferring
  /// `other`); min/max/sum/count combine commutatively. Spans and instants
  /// append in operand order.
  void merge_from(const Context& other);

  /// The context installed on this thread, or nullptr (always nullptr when
  /// observability is compiled out).
  static Context* current();

 private:
  friend class ContextScope;

  std::vector<std::uint64_t> counters_;
  std::vector<GaugeCell> gauges_;
  std::vector<HistogramCell> histograms_;
  std::vector<TimerCell> timers_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
};

/// RAII thread-local installer. Passing nullptr installs no context, which
/// disables every instrument on this thread for the scope's lifetime.
/// Restores the previous context on destruction, so scopes nest.
class ContextScope {
 public:
  explicit ContextScope(Context* context);
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context* previous_{nullptr};
};

/// Bucket index in [0, bucket_count + 1] for `value` under `def`'s bounds:
/// 0 = underflow (value < min or NaN), bucket_count + 1 = overflow.
std::size_t histogram_bucket(const MetricDef& def, double value);

/// Quantile by bucket upper bound: the smallest boundary b such that at
/// least ceil(q * count) samples fell in buckets with upper bound <= b.
/// Underflow resolves to bounds.front(), overflow clamps to bounds.back().
/// Returns 0 for an empty cell.
double histogram_quantile(const MetricDef& def, const HistogramCell& cell, double q);

}  // namespace rdsim::obs
