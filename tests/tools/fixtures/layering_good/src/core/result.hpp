#pragma once

namespace rdsim::core {
struct Result {
  int runs{0};
};
}  // namespace rdsim::core
