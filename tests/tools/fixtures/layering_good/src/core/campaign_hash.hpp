#pragma once

#include "core/result.hpp"

// Declared in rdsim::check, owned by core: it hashes core types.
namespace rdsim::check {
unsigned long campaign_hash(const core::Result& result);
}  // namespace rdsim::check
