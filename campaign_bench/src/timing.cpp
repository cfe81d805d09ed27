// `time` mode: the end-to-end measurement. Obs stays detached, nothing is
// traced; each repetition is one closed-batch campaign on the pooled runner
// followed by the paper tables and the campaign digest.
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/contracts.hpp"
#include "core/campaign_hash.hpp"
#include "core/subjects.hpp"
#include "sim/road.hpp"
#include "sim/scenario.hpp"

namespace campaign_bench {

namespace {

// One repetition past this much measuring time would risk the per-run
// deadline, whatever --seconds asks for.
constexpr double kHardStopSeconds = 140.0;
constexpr int kMinRepetitions = 2;  // the digest gate compares repetitions
// Set-up is timed in batches right after each campaign rather than once at
// process start: a cold start on a shared host read 65 or 100 us depending
// on the processor's clock state, and the campaigns keep that state steady.
constexpr int kSetupRepetitionsPerCampaign = 51;

struct Sample {
  double campaign_s{0.0};
  double cpu_s{0.0};
  double sim_s{0.0};
  std::uint64_t hash{0};
  std::uint64_t violations{0};
  std::size_t runs{0};
  std::size_t faulty_without_faults{0};
  std::string error;  ///< what the campaign threw, if it did
};

/// Everything a campaign consumer builds before its first campaign call:
/// the roster, the road network of the test route and the scenario.
double time_setup(const Options& opt) {
  const double t0 = wall_now();
  const rdsim::core::ExperimentConfig config =
      make_config(opt.workload, opt.seed, opt.run_cap_s);
  const std::vector<rdsim::core::SubjectProfile> roster =
      rdsim::core::make_roster(config.seed);
  const rdsim::sim::RoadNetwork road = rdsim::sim::make_town05_route(config.rds.road_scale);
  const rdsim::sim::Scenario scenario = rdsim::sim::make_test_route_scenario();
  const rdsim::core::ExperimentHarness harness{config};
  const double t1 = wall_now();
  if (roster.empty() || scenario.pois.empty() || harness.config().seed != opt.seed ||
      road.length() <= 0.0) {
    return -1.0;
  }
  return t1 - t0;
}

Sample run_once(const rdsim::core::ExperimentHarness& harness, std::size_t workers) {
  auto& registry = rdsim::check::Registry::instance();
  Sample s;
  const std::uint64_t v0 = registry.total_violations();
  const double c0 = cpu_now();
  const double t0 = wall_now();
  try {
    const rdsim::core::CampaignResult result = harness.run_campaign_parallel(workers);
    if (render_paper_tables(result) == 0) throw std::runtime_error("empty tables");
    s.hash = rdsim::check::campaign_hash(result);
    s.campaign_s = wall_now() - t0;
    s.cpu_s = cpu_now() - c0;
    s.sim_s = simulated_seconds(result);
    s.runs = 2 * result.subjects.size();
    s.faulty_without_faults = faulty_runs_without_faults(result);
  } catch (const std::exception& e) {
    s.campaign_s = wall_now() - t0;
    s.cpu_s = cpu_now() - c0;
    s.runs = 24;
    s.error = e.what();
  }
  s.violations = registry.total_violations() - v0;
  return s;
}

}  // namespace

int run_timing(const Options& opt) {
  const double process_t0 = wall_now();
  const std::size_t workers = worker_count();
  const rdsim::core::ExperimentHarness harness{
      make_config(opt.workload, opt.seed, opt.run_cap_s)};
  std::vector<Sample> samples;
  std::vector<double> setup;
  const double loop_t0 = wall_now();
  for (;;) {
    samples.push_back(run_once(harness, workers));
    for (int i = 0; i < kSetupRepetitionsPerCampaign; ++i) {
      const double s = time_setup(opt);
      if (s < 0.0) {
        std::fprintf(stderr, "campaign_bench: set-up produced an empty campaign\n");
        return 1;
      }
      setup.push_back(s);
    }
    const Sample& last = samples.back();
    std::fprintf(stderr,
                 "[%s seed %llu] campaign %zu: %.3f s wall, %.3f s cpu, %.1f sim-s, "
                 "hash %016llx, %llu violations%s%s\n",
                 workload_name(opt.workload), static_cast<unsigned long long>(opt.seed),
                 samples.size(), last.campaign_s, last.cpu_s, last.sim_s,
                 static_cast<unsigned long long>(last.hash),
                 static_cast<unsigned long long>(last.violations),
                 last.error.empty() ? "" : ", error: ", last.error.c_str());
    const double elapsed = wall_now() - loop_t0;
    if (static_cast<int>(samples.size()) < kMinRepetitions) continue;
    // Stop when another repetition would overrun the measuring window by
    // more than half a repetition.
    if (elapsed + 0.5 * last.campaign_s > opt.seconds || elapsed > kHardStopSeconds) break;
  }

  std::printf("{\"mode\": \"time\", \"workload\": \"%s\", \"seed\": %llu, \"workers\": %zu, "
              "\"run_cap_s\": %.17g, \"process_s\": %.9f, \"peak_rss_mib\": %.6f, "
              "\"setup_s\": [",
              workload_name(opt.workload), static_cast<unsigned long long>(opt.seed),
              workers, opt.run_cap_s, wall_now() - process_t0, peak_rss_mib());
  for (std::size_t i = 0; i < setup.size(); ++i) {
    std::printf("%s%.9e", i ? ", " : "", setup[i]);
  }
  std::printf("], \"samples\": [");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::printf("%s{\"campaign_s\": %.9f, \"cpu_s\": %.6f, \"sim_s\": %.6f, "
                "\"hash\": \"%016llx\", \"violations\": %llu, \"runs\": %zu, "
                "\"faulty_without_faults\": %zu, \"threw\": %s}",
                i ? ", " : "", s.campaign_s, s.cpu_s, s.sim_s,
                static_cast<unsigned long long>(s.hash),
                static_cast<unsigned long long>(s.violations), s.runs,
                s.faulty_without_faults, s.error.empty() ? "false" : "true");
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace campaign_bench
