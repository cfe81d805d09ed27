// Shared pieces of the campaign benchmark: the three workloads, the clocks
// it reads, and the per-campaign bookkeeping both run modes need.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "core/experiment.hpp"

namespace campaign_bench {

enum class Workload { kPaper, kDatagram, kMitigated };

/// Parses "paper" | "datagram" | "mitigated"; false on anything else.
bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload w);

/// The campaign a workload runs. All three share the 12-subject roster and
/// the fault plans of `seed`; they differ only in transport and mitigation.
/// `run_cap_s` > 0 caps every run's simulated time (miniature campaigns).
rdsim::core::ExperimentConfig make_config(Workload w, std::uint64_t seed,
                                          double run_cap_s = 0.0);

/// Pooled-runner workers of every workload: 4, or fewer on a smaller machine.
inline std::size_t worker_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Command-line options shared by every mode.
struct Options {
  Workload workload{Workload::kPaper};
  std::uint64_t seed{14};
  double seconds{30.0};
  double run_cap_s{0.0};
  std::string out_dir{"."};
};

int run_timing(const Options& opt);
int run_layers(const Options& opt);

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds (getrusage).
inline double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Σ RunResult::duration over every golden and faulty run.
double simulated_seconds(const rdsim::core::CampaignResult& campaign);

/// Faulty runs that injected no fault: a run-length cap that ends a run
/// before its first point of interest shows up here.
std::size_t faulty_runs_without_faults(const rdsim::core::CampaignResult& campaign);

/// Renders the paper's outputs — Tables II-IV, the collision analysis and
/// the questionnaire — and returns the total text length, so the work
/// cannot be optimised away.
std::size_t render_paper_tables(const rdsim::core::CampaignResult& campaign);

}  // namespace campaign_bench
