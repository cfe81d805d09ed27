#include <gtest/gtest.h>

#include "core/subjects.hpp"

namespace rdsim::core {
namespace {

TEST(Roster, TwelveSubjectsT7Excluded) {
  const auto roster = make_roster();
  ASSERT_EQ(roster.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(roster[static_cast<std::size_t>(i)].id, 'T' + std::to_string(i + 1));
    EXPECT_EQ(roster[static_cast<std::size_t>(i)].index, i + 1);
  }
  int excluded = 0;
  for (const auto& s : roster) {
    if (s.excluded()) ++excluded;
  }
  EXPECT_EQ(excluded, 1);
  EXPECT_TRUE(roster[6].left_hand_driving);  // T7
  EXPECT_TRUE(roster[6].driver.mirrored_steering);
}

TEST(Roster, DeterministicForSameSeed) {
  const auto a = make_roster(99);
  const auto b = make_roster(99);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].driver.reaction_time_s, b[i].driver.reaction_time_s);
    EXPECT_DOUBLE_EQ(a[i].driver.steer_noise, b[i].driver.steer_noise);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  const auto c = make_roster(100);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].driver.reaction_time_s != c[i].driver.reaction_time_s) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Roster, ExperienceDistributionMatchesQuestionnaire) {
  // §VI.F: 10/11 gaming (1 recent), 9/11 racing, 6 none / 3 few / 2 once.
  const auto roster = make_roster();
  int gaming = 0, recent = 0, racing = 0, none = 0, few = 0, once = 0;
  for (const auto& s : roster) {
    if (s.excluded()) continue;
    if (s.gaming_experience) ++gaming;
    if (s.recent_gaming) ++recent;
    if (s.racing_game_experience) ++racing;
    if (s.station_experience == 0) ++none;
    if (s.station_experience == 2) ++few;
    if (s.station_experience == 1) ++once;
  }
  EXPECT_EQ(gaming, 10);
  EXPECT_EQ(recent, 1);
  EXPECT_EQ(racing, 9);
  EXPECT_EQ(none, 6);
  EXPECT_EQ(few, 3);
  EXPECT_EQ(once, 2);
}

TEST(Roster, ParametersWithinPlausibleHumanRanges) {
  for (const auto& s : make_roster()) {
    EXPECT_GE(s.driver.reaction_time_s, 0.15) << s.id;
    EXPECT_LE(s.driver.reaction_time_s, 0.65) << s.id;
    EXPECT_GE(s.driver.control_rate_hz, 6.0) << s.id;
    EXPECT_LE(s.driver.control_rate_hz, 18.0) << s.id;
    EXPECT_GE(s.driver.idm_time_headway_s, 0.4) << s.id;
    EXPECT_LE(s.driver.idm_time_headway_s, 2.0) << s.id;
    EXPECT_GT(s.driver.steer_noise, 0.0) << s.id;
  }
}

TEST(Roster, RiskProneSubjectsExist) {
  const auto roster = make_roster();
  // T6 and T10 are the §VI.E golden-run collision candidates: markedly
  // tighter headway than everyone else.
  EXPECT_LT(roster[5].driver.idm_time_headway_s, 0.7);
  EXPECT_LT(roster[9].driver.idm_time_headway_s, 0.7);
  int tight = 0;
  for (const auto& s : roster) {
    if (s.driver.idm_time_headway_s < 0.7) ++tight;
  }
  EXPECT_EQ(tight, 2);
}

TEST(Questionnaire, SummaryAggregates) {
  std::vector<QuestionnaireResponse> responses;
  for (int i = 0; i < 4; ++i) {
    QuestionnaireResponse q;
    q.subject = 'T' + std::to_string(i);
    q.q1_gaming = i != 0;
    q.q2_racing = i > 1;
    q.q3_station_experience = i % 3;
    q.q4_qoe = 2.0 + i * 0.5;
    q.q5_virtual_testing_useful = true;
    q.q6_felt_difference = i == 3;
    responses.push_back(q);
  }
  const auto sum = summarize(responses);
  EXPECT_EQ(sum.respondents, 4u);
  EXPECT_EQ(sum.gaming, 3u);
  EXPECT_EQ(sum.racing, 2u);
  EXPECT_EQ(sum.no_station_experience, 2u);
  EXPECT_DOUBLE_EQ(sum.mean_qoe, (2.0 + 2.5 + 3.0 + 3.5) / 4.0);
  EXPECT_DOUBLE_EQ(sum.min_qoe, 2.0);
  EXPECT_DOUBLE_EQ(sum.max_qoe, 3.5);
  EXPECT_EQ(sum.virtual_testing_useful, 4u);
  EXPECT_EQ(sum.felt_difference, 1u);
}

TEST(Questionnaire, EmptySummary) {
  const auto sum = summarize({});
  EXPECT_EQ(sum.respondents, 0u);
  EXPECT_DOUBLE_EQ(sum.mean_qoe, 0.0);
}

}  // namespace
}  // namespace rdsim::core
