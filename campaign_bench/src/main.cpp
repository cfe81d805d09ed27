// campaign_bench — times the 12-subject teleop campaign end to end
// (`time` mode) and attributes its cost to the library's layers (`layers`
// mode). run.py in the parent directory builds this binary, runs it and
// turns its JSON output into the benchmark's metrics.
//
//   campaign_bench time   --workload paper --seed 14 --seconds 30
//   campaign_bench layers --workload paper --seed 14 --out .bench_out
//
// Both modes print one JSON object as their last stdout line.
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "core/report.hpp"

namespace campaign_bench {

bool parse_workload(std::string_view name, Workload& out) {
  if (name == "paper") {
    out = Workload::kPaper;
  } else if (name == "datagram") {
    out = Workload::kDatagram;
  } else if (name == "mitigated") {
    out = Workload::kMitigated;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaper: return "paper";
    case Workload::kDatagram: return "datagram";
    case Workload::kMitigated: return "mitigated";
  }
  return "?";
}

rdsim::core::ExperimentConfig make_config(Workload w, std::uint64_t seed,
                                          double run_cap_s) {
  rdsim::core::ExperimentConfig config{};
  config.seed = seed;
  config.run_time_limit = rdsim::units::Seconds{run_cap_s};
  if (w == Workload::kDatagram) {
    config.rds.datagram_video = true;
    config.rds.datagram_commands = true;
  }
  if (w == Workload::kMitigated) config.mitigation.enabled = true;
  return config;
}

double simulated_seconds(const rdsim::core::CampaignResult& campaign) {
  double total = 0.0;
  for (const auto& s : campaign.subjects) {
    total += s.golden.duration.value() + s.faulty.duration.value();
  }
  return total;
}

std::size_t faulty_runs_without_faults(const rdsim::core::CampaignResult& campaign) {
  std::size_t n = 0;
  for (const auto& s : campaign.subjects) {
    if (s.faulty.faults_injected == 0) ++n;
  }
  return n;
}

std::size_t render_paper_tables(const rdsim::core::CampaignResult& campaign) {
  namespace report = rdsim::core::report;
  return report::render_table2(campaign).size() + report::render_table3(campaign).size() +
         report::render_table4(campaign).size() +
         report::render_collision_analysis(campaign).size() +
         report::render_questionnaire(campaign).size();
}

}  // namespace campaign_bench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench time|layers --workload paper|datagram|mitigated\n"
               "         [--seed N] [--seconds S] [--run-cap S] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace campaign_bench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (key == "--workload") {
      if (!parse_workload(value, opt.workload)) return usage();
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--run-cap") {
      opt.run_cap_s = std::atof(value);
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (mode == "time") return run_timing(opt);
  if (mode == "layers") return run_layers(opt);
  return usage();
}
