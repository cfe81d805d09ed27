// Which safety metrics separate disturbed from undisturbed driving?
//
// §II.B surveys candidate metrics and §VII calls for evaluating more of
// them; the paper itself used TTC + SRR + collisions. This bench computes
// the whole catalogue implemented in metrics/ (SRR, TTC, SDLP, steering
// entropy, brake-reaction time, headway distribution) on golden vs faulty
// runs of three subjects, plus the experience-performance correlation
// matrix of research question 2.
#include <cstdio>

#include "core/correlation.hpp"
#include "metrics/extended.hpp"
#include "metrics/srr.hpp"

using namespace rdsim;

namespace {

void compare_metrics(const core::SubjectResult& subject, const sim::RoadNetwork& road) {
  const auto& golden = subject.golden.trace;
  const auto& faulty = subject.faulty.trace;

  metrics::SrrAnalyzer srr;
  metrics::TtcAnalyzer ttc;
  const double alpha = metrics::steering_entropy_alpha(golden);

  const auto row = [&](const char* name, double g, double f) {
    const double delta = g != 0.0 ? (f - g) / std::fabs(g) * 100.0 : 0.0;
    std::printf("  %-22s %9.3f %9.3f  %+7.1f%%\n", name, g, f, delta);
  };

  std::printf("%s (golden vs faulty, %% change)\n", subject.profile.id.c_str());
  row("SRR [rev/min]", srr.analyze(golden).rate_per_min,
      srr.analyze(faulty).rate_per_min);
  const auto tg = ttc.summarize(ttc.series(golden));
  const auto tf = ttc.summarize(ttc.series(faulty));
  row("TTC min [s]", tg.valid() ? tg.min.value() : 0.0, tf.valid() ? tf.min.value() : 0.0);
  row("TTC avg [s]", tg.valid() ? tg.avg.value() : 0.0, tf.valid() ? tf.avg.value() : 0.0);
  row("SDLP [m]", metrics::lane_position_deviation(golden, road).sdlp.value(),
      metrics::lane_position_deviation(faulty, road).sdlp.value());
  row("steering entropy [bit]", metrics::steering_entropy(golden, alpha).entropy,
      metrics::steering_entropy(faulty, alpha).entropy);
  const auto brg = metrics::brake_reactions(golden);
  const auto brf = metrics::brake_reactions(faulty);
  auto mean_reaction = [](const std::vector<metrics::BrakeReaction>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& r : v) sum += r.reaction.value();
    return sum / static_cast<double>(v.size());
  };
  row("brake reaction [s]", mean_reaction(brg), mean_reaction(brf));
  row("headway < 2 s [frac]", metrics::headway_distribution(golden).below_2s,
      metrics::headway_distribution(faulty).below_2s);
  row("collisions", static_cast<double>(golden.collisions.size()),
      static_cast<double>(faulty.collisions.size()));
  std::printf("\n");
}

}  // namespace

int main() {
  const auto road = sim::make_town05_route();
  core::ExperimentHarness harness;
  core::CampaignResult campaign;
  for (std::size_t idx : {1u, 4u, 9u}) {  // T2, T5, T10
    std::printf("[running subject %zu golden+faulty...]\n", idx + 1);
    campaign.subjects.push_back(harness.run_subject(core::make_roster()[idx]));
  }
  std::printf("\n");
  for (const auto& subject : campaign.subjects) compare_metrics(subject, road);

  std::fputs(core::render_correlations(campaign).c_str(), stdout);
  std::printf("\n(The paper could not compute these correlations: 10 of 11\n"
              "subjects had gaming experience. With three subjects here the\n"
              "matrix is illustrative; run the full campaign for n = 11.)\n");
  return 0;
}
