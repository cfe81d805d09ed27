#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace rdsim::obs {

namespace {

struct RegistryState {
  util::Mutex mutex;
  /// deque: references stay valid on append
  std::deque<MetricDef> defs RDSIM_GUARDED_BY(mutex);
};

RegistryState& registry() {
  static RegistryState state;
  return state;
}

#if RDSIM_OBS
thread_local Context* t_current = nullptr;
#endif

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Index of `name` in state.defs, or defs.size() when absent.
MetricId find_def(const RegistryState& state, std::string_view name)
    RDSIM_REQUIRES(state.mutex) {
  for (std::size_t i = 0; i < state.defs.size(); ++i) {
    if (state.defs[i].name == name) return static_cast<MetricId>(i);
  }
  return static_cast<MetricId>(state.defs.size());
}

MetricId register_metric(MetricKind kind, std::string_view name,
                         std::string_view help, std::string_view unit,
                         std::vector<double> bounds) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument{"obs: metric name must match [a-z0-9_.]+: '" +
                                std::string{name} + "'"};
  }
  RegistryState& state = registry();
  const util::MutexLock lock{state.mutex};
  if (find_def(state, name) != state.defs.size()) {
    throw std::logic_error{"obs: metric '" + std::string{name} +
                           "' registered twice"};
  }
  MetricDef def;
  def.kind = kind;
  def.name = std::string{name};
  def.help = std::string{help};
  def.unit = std::string{unit};
  def.bounds = std::move(bounds);
  state.defs.push_back(std::move(def));
  return static_cast<MetricId>(state.defs.size() - 1);
}

}  // namespace

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kTimer: return "timer";
  }
  return "unknown";
}

MetricId register_counter(std::string_view name, std::string_view help,
                          std::string_view unit) {
  return register_metric(MetricKind::kCounter, name, help, unit, {});
}

MetricId register_gauge(std::string_view name, std::string_view help,
                        std::string_view unit) {
  return register_metric(MetricKind::kGauge, name, help, unit, {});
}

MetricId register_timer(std::string_view name, std::string_view help) {
  return register_metric(MetricKind::kTimer, name, help, "ns", {});
}

MetricId register_histogram(std::string_view name, std::string_view help,
                            std::string_view unit, HistogramSpec spec) {
  if (!(spec.min_value > 0.0) || !(spec.max_value > spec.min_value) ||
      spec.bucket_count == 0) {
    throw std::invalid_argument{
        "obs: histogram spec needs 0 < min < max and >= 1 bucket"};
  }
  // Geometric boundaries; the first and last are pinned exactly so
  // underflow/overflow classification never depends on std::pow rounding.
  std::vector<double> bounds(spec.bucket_count + 1);
  const double n = static_cast<double>(spec.bucket_count);
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    bounds[i] = spec.min_value * std::pow(spec.max_value / spec.min_value,
                                          static_cast<double>(i) / n);
  }
  bounds.front() = spec.min_value;
  bounds.back() = spec.max_value;
  return register_metric(MetricKind::kHistogram, name, help, unit,
                         std::move(bounds));
}

std::size_t metric_count() {
  RegistryState& state = registry();
  const util::MutexLock lock{state.mutex};
  return state.defs.size();
}

const MetricDef& metric_def(MetricId id) {
  RegistryState& state = registry();
  const util::MutexLock lock{state.mutex};
  // The deque is append-only: the returned reference stays valid after the
  // lock is released, even while other threads keep registering.
  return state.defs.at(id);
}

MetricId find_metric(std::string_view name) {
  RegistryState& state = registry();
  const util::MutexLock lock{state.mutex};
  return find_def(state, name);
}

namespace {

template <typename T>
T& slot(std::vector<T>& cells, MetricId id) {
  if (cells.size() <= id) cells.resize(id + 1);
  return cells[id];
}

template <typename T>
const T* slot_if(const std::vector<T>& cells, MetricId id) {
  return id < cells.size() ? &cells[id] : nullptr;
}

}  // namespace

void Context::count(MetricId id, std::uint64_t delta) {
  slot(counters_, id) += delta;
}

void Context::gauge_set(MetricId id, double value) {
  GaugeCell& cell = slot(gauges_, id);
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  cell.last = value;
  cell.sum += value;
  ++cell.count;
}

void Context::observe(MetricId id, double value) {
  HistogramCell& cell = slot(histograms_, id);
  if (cell.def == nullptr) {
    cell.def = &metric_def(id);
    cell.counts.assign(cell.def->bounds.size() + 1, 0);
  }
  ++cell.counts[histogram_bucket(*cell.def, value)];
  ++cell.count;
  cell.sum += value;
}

void Context::timer_add(MetricId id, std::uint64_t ns) {
  TimerCell& cell = slot(timers_, id);
  cell.total_ns += ns;
  ++cell.count;
}

std::size_t Context::span_open(MetricId id, util::TimePoint begin,
                               std::uint32_t lane) {
  Span span;
  span.metric = id;
  span.lane = lane;
  span.begin_us = begin.count_micros();
  span.end_us = span.begin_us - 1;  // open until span_close
  spans_.push_back(span);
  return spans_.size() - 1;
}

void Context::span_close(std::size_t handle, util::TimePoint end) {
  if (handle >= spans_.size()) return;
  spans_[handle].end_us = end.count_micros();
}

void Context::instant(MetricId id, util::TimePoint ts, std::uint32_t lane) {
  Instant ev;
  ev.metric = id;
  ev.lane = lane;
  ev.ts_us = ts.count_micros();
  instants_.push_back(ev);
}

std::uint64_t Context::counter(MetricId id) const {
  const std::uint64_t* cell = slot_if(counters_, id);
  return cell != nullptr ? *cell : 0;
}

const GaugeCell* Context::gauge(MetricId id) const {
  const GaugeCell* cell = slot_if(gauges_, id);
  return cell != nullptr && cell->count > 0 ? cell : nullptr;
}

const HistogramCell* Context::histogram(MetricId id) const {
  const HistogramCell* cell = slot_if(histograms_, id);
  return cell != nullptr && !cell->counts.empty() ? cell : nullptr;
}

const TimerCell* Context::timer(MetricId id) const {
  const TimerCell* cell = slot_if(timers_, id);
  return cell != nullptr && cell->count > 0 ? cell : nullptr;
}

bool Context::empty() const {
  const auto nonzero = [](std::uint64_t v) { return v != 0; };
  if (std::any_of(counters_.begin(), counters_.end(), nonzero)) return false;
  for (const GaugeCell& g : gauges_) {
    if (g.count > 0) return false;
  }
  for (const HistogramCell& h : histograms_) {
    if (h.count > 0) return false;
  }
  for (const TimerCell& t : timers_) {
    if (t.count > 0) return false;
  }
  return spans_.empty() && instants_.empty();
}

void Context::merge_from(const Context& other) {
  if (counters_.size() < other.counters_.size()) {
    counters_.resize(other.counters_.size());
  }
  for (std::size_t i = 0; i < other.counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }

  if (gauges_.size() < other.gauges_.size()) gauges_.resize(other.gauges_.size());
  for (std::size_t i = 0; i < other.gauges_.size(); ++i) {
    const GaugeCell& b = other.gauges_[i];
    if (b.count == 0) continue;
    GaugeCell& a = gauges_[i];
    if (a.count == 0) {
      a = b;
      continue;
    }
    a.min = std::min(a.min, b.min);
    a.max = std::max(a.max, b.max);
    a.sum += b.sum;
    a.count += b.count;
    a.last = b.last;
  }

  if (histograms_.size() < other.histograms_.size()) {
    histograms_.resize(other.histograms_.size());
  }
  for (std::size_t i = 0; i < other.histograms_.size(); ++i) {
    const HistogramCell& b = other.histograms_[i];
    if (b.counts.empty()) continue;
    HistogramCell& a = histograms_[i];
    if (a.def == nullptr) a.def = b.def;
    if (a.counts.size() < b.counts.size()) a.counts.resize(b.counts.size());
    for (std::size_t k = 0; k < b.counts.size(); ++k) a.counts[k] += b.counts[k];
    a.count += b.count;
    a.sum += b.sum;
  }

  if (timers_.size() < other.timers_.size()) timers_.resize(other.timers_.size());
  for (std::size_t i = 0; i < other.timers_.size(); ++i) {
    timers_[i].total_ns += other.timers_[i].total_ns;
    timers_[i].count += other.timers_[i].count;
  }

  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  instants_.insert(instants_.end(), other.instants_.begin(), other.instants_.end());
}

Context* Context::current() {
#if RDSIM_OBS
  return t_current;
#else
  return nullptr;
#endif
}

ContextScope::ContextScope(Context* context) {
#if RDSIM_OBS
  previous_ = t_current;
  t_current = context;
#else
  (void)context;
#endif
}

ContextScope::~ContextScope() {
#if RDSIM_OBS
  t_current = previous_;
#endif
}

std::size_t histogram_bucket(const MetricDef& def, double value) {
  const std::vector<double>& bounds = def.bounds;
  if (!(value >= bounds.front())) return 0;  // below min, or NaN
  if (value >= bounds.back()) return bounds.size();
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

double histogram_quantile(const MetricDef& def, const HistogramCell& cell,
                          double q) {
  if (cell.count == 0 || cell.counts.empty()) return 0.0;
  const double clamped_q = std::min(std::max(q, 0.0), 1.0);
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(clamped_q * static_cast<double>(cell.count))));
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < cell.counts.size(); ++bucket) {
    cumulative += cell.counts[bucket];
    if (cumulative >= rank) {
      if (bucket == 0) return def.bounds.front();
      const std::size_t bound = std::min(bucket, def.bounds.size() - 1);
      return def.bounds[bound];
    }
  }
  return def.bounds.back();
}

}  // namespace rdsim::obs
