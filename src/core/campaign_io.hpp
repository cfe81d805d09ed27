// Campaign result serialization.
//
// A CampaignResult round-trips through the same little-endian byte format
// the protocol layer uses; the blob embeds its own check::campaign_hash, and
// deserialize_campaign verifies it, so a stale or corrupt blob can never
// masquerade as a fresh campaign. The campaign benchmark times the round trip
// (core.io_s) and gates on it reproducing the campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/experiment.hpp"

namespace rdsim::core {

/// Serialize to the versioned binary blob (magic + version + embedded
/// campaign hash + payload).
std::vector<std::uint8_t> serialize_campaign(const CampaignResult& campaign);

/// Parse a blob produced by serialize_campaign. Returns nullopt on a bad
/// magic/version, truncation, trailing bytes, or when the recomputed
/// campaign hash does not match the embedded one. The deserialized result
/// carries default rds/safety sub-configs: only the campaign-level fields
/// are stored.
std::optional<CampaignResult> deserialize_campaign(const std::uint8_t* data,
                                                   std::size_t size);
std::optional<CampaignResult> deserialize_campaign(const std::vector<std::uint8_t>& blob);

}  // namespace rdsim::core
