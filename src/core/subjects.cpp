#include "core/subjects.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace rdsim::core {

std::vector<SubjectProfile> make_roster(std::uint64_t campaign_seed) {
  std::vector<SubjectProfile> roster;
  roster.reserve(12);

  for (int i = 1; i <= 12; ++i) {
    SubjectProfile s;
    s.index = i;
    s.id = 'T' + std::to_string(i);
    // SplitMix sub-seeding: each subject's seed is a pure function of
    // (campaign seed, subject index), with no generator state shared between
    // subjects. Subject i's profile and runs are therefore identical no
    // matter which order — or on which thread — the roster is evaluated,
    // which is what makes the parallel campaign runner bit-identical to the
    // serial one (docs/parallel_campaign.md).
    s.seed = util::splitmix64(campaign_seed ^ util::splitmix64(static_cast<std::uint64_t>(i)));
    util::Random srng{s.seed, /*stream=*/0x726f73746572ULL};

    // Experience attributes drawn to match the §VI.F distribution:
    // 10/11 gaming (one without), 1 recent, 9/11 racing games, 6 with no
    // station experience / 3 a few times / 2 once.
    s.gaming_experience = i != 4;           // one subject without
    s.recent_gaming = i == 9;               // exactly one recent gamer
    s.racing_game_experience = s.gaming_experience && i != 11;
    // §VI.F among the 11 analysed subjects: 6 none, 3 a few times, 2 once.
    // T7 is excluded from analysis, so it can sit in any bucket.
    if (i <= 6) {
      s.station_experience = 0;
    } else if (i <= 10) {
      s.station_experience = 2;
    } else {
      s.station_experience = 1;
    }
    s.left_hand_driving = i == 7;           // T7, excluded in §VI.A

    // Skill parameters: experience shifts the distributions.
    DriverParams d;
    const double skill = (s.gaming_experience ? 0.25 : 0.0) +
                         (s.recent_gaming ? 0.25 : 0.0) +
                         0.18 * s.station_experience + srng.uniform(0.0, 0.45);
    d.reaction_time_s = util::clamp(0.45 - 0.18 * skill + srng.normal(0.0, 0.035),
                                    0.2, 0.6);
    d.steer_noise = util::clamp(0.0009 - 0.0004 * skill + srng.normal(0.0, 0.00015),
                                0.0003, 0.0016);
    d.near_gain = util::clamp(0.008 + srng.normal(0.0, 0.0015), 0.004, 0.012);
    d.control_rate_hz = util::clamp(10.0 + 4.0 * skill + srng.normal(0.0, 1.0),
                                    7.0, 16.0);
    d.lookahead_time_s = util::clamp(1.0 + 0.3 * skill + srng.normal(0.0, 0.08),
                                     0.8, 1.6);
    d.idm_time_headway_s = util::clamp(srng.normal(1.05, 0.18), 0.7, 1.5);
    d.speed_compliance = util::clamp(srng.normal(1.0, 0.06), 0.85, 1.15);
    d.caution_gain = util::clamp(srng.normal(0.55, 0.12), 0.25, 0.85);
    d.emergency_ttc_s = util::clamp(srng.normal(1.6, 0.2), 1.1, 2.2);
    d.mirrored_steering = s.left_hand_driving;

    // Two risk-prone subjects (tight headway, slow reaction) so that the
    // golden run is not collision-free for everyone, as in §VI.E where two
    // of eleven subjects collided with no faults injected.
    if (i == 6 || i == 10) {
      d.idm_time_headway_s = 0.5;
      d.idm_min_gap_m = 2.6;
      d.reaction_time_s = std::max(d.reaction_time_s, 0.58);
      d.emergency_ttc_s = 0.8;
      d.speed_compliance = 1.05;
      d.near_gain = 0.015;
      d.position_noise_m = 0.16;
    }

    s.driver = d;
    roster.push_back(std::move(s));
  }
  return roster;
}

QuestionnaireSummary summarize(const std::vector<QuestionnaireResponse>& responses) {
  QuestionnaireSummary sum;
  sum.respondents = responses.size();
  if (responses.empty()) return sum;
  double qoe_total = 0.0;
  sum.min_qoe = responses.front().q4_qoe;
  sum.max_qoe = responses.front().q4_qoe;
  for (const QuestionnaireResponse& r : responses) {
    if (r.q1_gaming) ++sum.gaming;
    if (r.q1_recent) ++sum.recent_gaming;
    if (r.q2_racing) ++sum.racing;
    if (r.q3_station_experience == 0) ++sum.no_station_experience;
    if (r.q3_station_experience == 1) ++sum.station_once;
    if (r.q3_station_experience == 2) ++sum.station_few_times;
    qoe_total += r.q4_qoe;
    sum.min_qoe = std::min(sum.min_qoe, r.q4_qoe);
    sum.max_qoe = std::max(sum.max_qoe, r.q4_qoe);
    if (r.q5_virtual_testing_useful) ++sum.virtual_testing_useful;
    if (r.q6_felt_difference) ++sum.felt_difference;
  }
  sum.mean_qoe = qoe_total / static_cast<double>(responses.size());
  return sum;
}

}  // namespace rdsim::core
