#include "core/campaign_hash.hpp"

namespace rdsim::core {

// check::campaign_hash is declared under src/core/, so this file needs no
// src/check/ header.
unsigned long stamp(const Result& result) { return check::campaign_hash(result); }

}  // namespace rdsim::core
