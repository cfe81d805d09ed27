#include "check/hash.hpp"

namespace rdsim::metrics {

// check::hash_run is declared in src/core/campaign_hash.hpp, not by any
// src/check/ header, so including check/hash.hpp does not cover it.
unsigned long digest(const void* data, unsigned long size) {
  return check::fnv1a(data, size) ^ check::hash_run(data);
}

}  // namespace rdsim::metrics
