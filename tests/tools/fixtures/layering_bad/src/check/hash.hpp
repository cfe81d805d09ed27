#pragma once

namespace rdsim::check {
unsigned long fnv1a(const void* data, unsigned long size);
}  // namespace rdsim::check
