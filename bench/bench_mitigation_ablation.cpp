// Paired mitigation ablation, measured end-to-end on the full campaign.
//
// The paper's headline result is that crashes concentrate under 50 ms delay
// and 5 % packet loss; its setup deliberately ran without countermeasures.
// This bench runs the SAME campaign twice at the same seed — identical
// subjects, identical fault plans (the plan RNG stream is independent of
// mitigation) — once bare and once with the rdsim::mitigate stack enabled,
// and reports what the governor + MRM buy (collisions) and what they cost
// (steering-reversal rate, completion time, standstill time).
//
// Both campaigns run in process on the thread-pool runner. Each prints its
// contract-violation count. The mitigated campaign fires the known negative
// display-staleness precondition (ROADMAP.md, item 1), so violations do not
// fail this bench yet.
#include <chrono>
#include <cstdio>

#include "check/contracts.hpp"
#include "core/campaign_hash.hpp"
#include "core/report.hpp"
#include "metrics/srr.hpp"

using namespace rdsim;

namespace {

core::CampaignResult run_campaign(const char* name,
                                  const core::ExperimentConfig& config) {
  const check::Registry& contracts = check::Registry::instance();
  const std::uint64_t violations_before = contracts.total_violations();
  const auto t0 = std::chrono::steady_clock::now();
  core::CampaignResult r = core::ExperimentHarness{config}.run_campaign_parallel(0);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("[%s campaign: %.1f s wall, hash %016llx, contract violations %llu]\n",
              name, std::chrono::duration<double>(t1 - t0).count(),
              static_cast<unsigned long long>(check::campaign_hash(r)),
              static_cast<unsigned long long>(contracts.total_violations() -
                                              violations_before));
  return r;
}

double mean_fi_srr(const core::CampaignResult& campaign) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& row : core::report::srr_rows(campaign)) {
    if (row.fi.has_value()) {
      sum += *row.fi;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double total_standstill(const core::CampaignResult& campaign) {
  double sum = 0.0;
  for (const core::SubjectResult* s : campaign.included()) {
    sum += metrics::standstill_time(s->faulty.trace).value();
  }
  return sum;
}

}  // namespace

int main() {
  std::printf(
      "Mitigation ablation: paired campaigns at seed %llu. The mitigated twin\n"
      "runs the identical fault plans behind the LinkQualityEstimator ->\n"
      "DegradationGovernor -> CommandWatchdog/MRM stack. Question: does the\n"
      "stack recover the 50 ms / 5 %% crash cases, and at what cost?\n\n",
      static_cast<unsigned long long>(core::ExperimentConfig{}.seed));

  core::ExperimentConfig config{};
  const core::CampaignResult baseline = run_campaign("baseline", config);
  config.mitigation.enabled = true;
  const core::CampaignResult mitigated = run_campaign("mitigated", config);
  std::printf("\n");

  std::printf("%s\n", core::report::render_mitigation_ablation(baseline, mitigated).c_str());
  std::printf("%s\n", core::report::render_mitigation(mitigated).c_str());

  std::printf("Cost metrics (FI runs, included subjects)\n");
  std::printf("  %-28s%-10.1f%.1f\n", "mean steering SRR [rev/min]",
              mean_fi_srr(baseline), mean_fi_srr(mitigated));
  std::printf("  %-28s%-10.1f%.1f\n", "total standstill time [s]",
              total_standstill(baseline), total_standstill(mitigated));
  return 0;
}
