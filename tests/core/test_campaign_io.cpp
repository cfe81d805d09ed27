// Campaign serialization: round-trip fidelity (verified by campaign_hash)
// and rejection of corrupt/truncated blobs.
#include <gtest/gtest.h>

#include "core/campaign_hash.hpp"
#include "core/campaign_io.hpp"

namespace rdsim::core {
namespace {

// One miniature campaign shared by every test in this file (runs take ~2 s
// in total; the cap keeps the full route out of the unit-test budget).
const CampaignResult& mini_campaign() {
  static const CampaignResult campaign = [] {
    ExperimentConfig cfg;
    cfg.seed = 42;
    cfg.run_time_limit = units::Seconds{6.0};
    return ExperimentHarness{cfg}.run_campaign();
  }();
  return campaign;
}

TEST(CampaignIo, RoundTripPreservesCampaignHash) {
  const CampaignResult& campaign = mini_campaign();
  const std::uint64_t expected = check::campaign_hash(campaign);

  const std::vector<std::uint8_t> blob = serialize_campaign(campaign);
  const auto loaded = deserialize_campaign(blob);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(check::campaign_hash(*loaded), expected);
  EXPECT_EQ(loaded->subjects.size(), campaign.subjects.size());
  EXPECT_EQ(loaded->config.seed, campaign.config.seed);
  // Serialization itself is deterministic.
  EXPECT_EQ(serialize_campaign(*loaded), blob);
}

TEST(CampaignIo, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> blob = serialize_campaign(mini_campaign());
  ASSERT_GT(blob.size(), 16u);
  // Exhaustive on the header region, sampled beyond it (blobs are ~MBs).
  for (std::size_t cut = 0; cut < blob.size();
       cut = cut < 64 ? cut + 1 : cut + blob.size() / 97 + 1) {
    EXPECT_FALSE(deserialize_campaign(blob.data(), cut).has_value())
        << "cut " << cut << " of " << blob.size();
  }
}

TEST(CampaignIo, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> blob = serialize_campaign(mini_campaign());
  blob.push_back(0x00);
  EXPECT_FALSE(deserialize_campaign(blob).has_value());
}

TEST(CampaignIo, BitFlipsFailTheEmbeddedHashCheck) {
  const std::vector<std::uint8_t> blob = serialize_campaign(mini_campaign());
  // Flip one byte at several positions across the payload; either a field
  // fails to parse or the recomputed hash mismatches the embedded one.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{5}, blob.size() / 3, blob.size() / 2,
        blob.size() - 1}) {
    std::vector<std::uint8_t> corrupt = blob;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(deserialize_campaign(corrupt).has_value()) << "pos " << pos;
  }
}

TEST(CampaignIo, RoundTripPreservesMitigationBlocks) {
  // A mitigated campaign carries the opt_block payloads (config knobs and
  // per-run summaries); they must survive the wire format bit-exactly.
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.run_time_limit = units::Seconds{6.0};
  cfg.mitigation.enabled = true;
  const CampaignResult campaign = ExperimentHarness{cfg}.run_campaign();
  const std::uint64_t expected = check::campaign_hash(campaign);

  const std::vector<std::uint8_t> blob = serialize_campaign(campaign);
  const auto loaded = deserialize_campaign(blob);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(check::campaign_hash(*loaded), expected);
  ASSERT_TRUE(loaded->config.mitigation.enabled);
  EXPECT_EQ(loaded->config.mitigation.governor.min_dwell.value(),
            cfg.mitigation.governor.min_dwell.value());
  for (std::size_t i = 0; i < campaign.subjects.size(); ++i) {
    const mitigate::MitigationSummary& in = campaign.subjects[i].faulty.mitigation;
    const mitigate::MitigationSummary& out = loaded->subjects[i].faulty.mitigation;
    ASSERT_TRUE(out.enabled);
    EXPECT_EQ(out.transitions, in.transitions);
    EXPECT_EQ(out.mrm_activations, in.mrm_activations);
    EXPECT_EQ(out.dwell_degraded.value(), in.dwell_degraded.value());
    EXPECT_EQ(out.final_loss, in.final_loss);
  }
  EXPECT_EQ(serialize_campaign(*loaded), blob);
}

}  // namespace
}  // namespace rdsim::core
