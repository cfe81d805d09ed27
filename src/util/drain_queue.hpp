// Unbounded FIFO for queues that are drained every tick.
//
// std::deque used as a queue allocates a block every few push_backs and
// frees it once pop_front has passed it, so a queue that only ever holds a
// handful of elements still touches the heap in proportion to its traffic.
// DrainQueue keeps its elements in one vector and a read index instead: once
// the consumer has drained it, the vector is cleared with its capacity kept,
// so steady-state traffic costs no allocations at all.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rdsim::util {

template <typename T>
class DrainQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  void push(T&& value) { items_.push_back(std::move(value)); }

  /// Oldest and newest element. Precondition: !empty().
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }

  /// Drop every element; the storage keeps its capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  /// Remove and return the oldest element. Precondition: !empty().
  T pop() {
    T out = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      // A consumer that never fully drains would otherwise grow the vector
      // without bound; drop the consumed prefix once it dominates.
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return out;
  }

 private:
  static constexpr std::size_t kCompactAt = 64;

  std::vector<T> items_;
  std::size_t head_{0};
};

}  // namespace rdsim::util
