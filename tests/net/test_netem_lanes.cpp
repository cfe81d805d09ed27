// Release order of netem's two scheduling lanes (a FIFO lane for packets that
// release no earlier than its tail, a timer heap for the rest), pinned against
// a reference model: every packet leaves in the stable order of (release
// time, scheduling order), whichever lane held it.
//
// Each scenario runs twice from the same seed. The fine pass drains every
// microsecond, the clock's resolution, so the instant a packet leaves *is* its
// release time. The coarse pass drains on a 7 ms grid and must release the
// same packets in the order a stable sort of the fine pass's records by
// (release, seq) gives; on the way it checks backlog(), backlog_bytes() and
// next_event_at() against the packets the model says are pending.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "net/netem.hpp"
#include "net/tc.hpp"
#include "net_test_util.hpp"

namespace rdsim::net {
namespace {

using util::TimePoint;

/// A scheduled copy of a packet: its id, and whether it is netem's clone.
using Key = std::pair<std::uint64_t, bool>;

struct Record {
  Key key;
  std::int64_t at_us;  ///< the drain instant that released it
};

/// Drives one NetemQdisc through a script, draining on a fixed grid, and
/// keeps the model's view of what is pending.
class Driver {
 public:
  /// `releases`, when given, are the fine pass's release instants; the
  /// driver then checks next_event_at() against them.
  Driver(const NetemConfig& cfg, std::uint64_t seed, std::int64_t drain_period_us,
         const std::map<Key, std::int64_t>* releases = nullptr)
      : q_{cfg, seed}, period_us_{drain_period_us}, releases_{releases} {}

  /// Move the clock to `t_us`, draining at every grid point before it. A
  /// grid point's drain runs after the enqueues at that instant, so a
  /// packet sent with zero delay leaves at the instant it was sent.
  void at(std::int64_t t_us) {
    while (next_drain_us_ < t_us) {
      drain_at(next_drain_us_);
      next_drain_us_ += period_us_;
    }
    now_us_ = t_us;
  }

  /// Enqueue `n` packets at the current instant.
  void send(int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = next_id_++;
      Packet p;
      p.id = id;
      p.payload.assign(40 + 10 * (id % 7), static_cast<std::uint8_t>(id));
      p.wire_size = 100 + static_cast<std::uint32_t>(id % 5) * 300;
      const std::uint32_t bytes = p.effective_wire_size();
      const QdiscStats before = q_.stats();
      q_.enqueue(std::move(p), TimePoint::from_micros(now_us_));
      const QdiscStats& after = q_.stats();
      if (after.total_dropped() != before.total_dropped()) continue;
      // netem schedules a duplicate's clone just before the original.
      if (after.duplicated != before.duplicated) schedule({id, true}, bytes);
      schedule({id, false}, bytes);
    }
    check_pending();
  }

  void change(const NetemConfig& cfg) { q_.change(cfg); }

  /// Release what is due now, then drop the rest (a deleted tc rule).
  void clear() {
    drain_at(now_us_);
    q_.clear();
    pending_.clear();
    check_pending();
  }

  /// Drain on the grid until nothing is queued.
  void finish() {
    const std::int64_t deadline = now_us_ + 10'000'000;
    while (!pending_.empty() && next_drain_us_ < deadline) at(next_drain_us_ + 1);
    EXPECT_EQ(q_.backlog(), 0u);
    EXPECT_FALSE(q_.next_event_at().has_value());
  }

  const NetemQdisc& qdisc() const { return q_; }
  const std::vector<Record>& released() const { return released_; }
  const std::map<Key, std::uint64_t>& seqs() const { return seq_; }

 private:
  void schedule(Key key, std::uint32_t bytes) {
    seq_[key] = next_seq_++;
    pending_[key] = bytes;
  }

  void drain_at(std::int64_t t_us) {
    const std::vector<Packet> out = drain(q_, TimePoint::from_micros(t_us));
    if (out.empty()) return;
    for (const Packet& p : out) {
      const Key key{p.id, p.duplicate};
      ASSERT_EQ(pending_.erase(key), 1u) << "released a packet the model never queued";
      released_.push_back({key, t_us});
    }
    check_pending();
  }

  void check_pending() {
    ASSERT_EQ(q_.backlog(), pending_.size());
    ASSERT_LE(q_.backlog(), q_.config().limit);
    std::uint64_t bytes = 0;
    std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
    bool all_known = true;  // false while packets a later clear() drops wait
    for (const auto& [key, size] : pending_) {
      bytes += size;
      if (releases_ == nullptr) continue;
      const auto it = releases_->find(key);
      if (it == releases_->end()) {
        all_known = false;
      } else {
        earliest = std::min(earliest, it->second);
      }
    }
    ASSERT_EQ(q_.backlog_bytes(), bytes);
    if (releases_ == nullptr) return;
    const auto next = q_.next_event_at();
    ASSERT_EQ(next.has_value(), !pending_.empty());
    if (!next) return;
    if (all_known) {
      ASSERT_EQ(next->count_micros(), earliest);
    } else {
      ASSERT_LE(next->count_micros(), earliest);
    }
  }

  NetemQdisc q_;
  std::int64_t period_us_;
  const std::map<Key, std::int64_t>* releases_;
  std::int64_t now_us_{0};
  std::int64_t next_drain_us_{0};
  std::uint64_t next_id_{0};
  std::uint64_t next_seq_{0};
  std::map<Key, std::uint64_t> seq_;
  std::map<Key, std::uint32_t> pending_;  ///< key -> effective wire bytes
  std::vector<Record> released_;
};

std::vector<Key> keys_of(const std::vector<Record>& records) {
  std::vector<Key> keys;
  for (const Record& r : records) keys.push_back(r.key);
  return keys;
}

/// A scenario: the initial rule and a script over a Driver.
struct Scenario {
  const char* name;
  NetemConfig config;
  void (*script)(Driver&);
};

/// One packet per millisecond for `ms` milliseconds from `from_ms`.
void stream(Driver& d, int from_ms, int ms, int per_ms = 1) {
  for (int t = from_ms; t < from_ms + ms; ++t) {
    d.at(std::int64_t{t} * 1000);
    d.send(per_ms);
  }
}

/// Runs `s` fine and coarse and checks both against the reference order.
/// Returns the fine pass's driver statistics for scenario-specific checks.
QdiscStats check_scenario(const Scenario& s, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << s.name << ", seed " << seed);
  Driver fine{s.config, seed, /*drain_period_us=*/1};
  s.script(fine);
  fine.finish();

  std::map<Key, std::int64_t> release;
  for (const Record& r : fine.released()) release[r.key] = r.at_us;
  std::vector<Record> reference = fine.released();
  std::stable_sort(reference.begin(), reference.end(),
                   [&](const Record& a, const Record& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     return fine.seqs().at(a.key) < fine.seqs().at(b.key);
                   });
  EXPECT_EQ(keys_of(fine.released()), keys_of(reference))
      << "packets due at the same instant must leave in scheduling order";

  Driver coarse{s.config, seed, /*drain_period_us=*/7000, &release};
  s.script(coarse);
  coarse.finish();
  EXPECT_EQ(keys_of(coarse.released()), keys_of(reference))
      << "the merged lanes must release in (release, seq) order";
  EXPECT_EQ(coarse.qdisc().stats().dequeued, fine.qdisc().stats().dequeued);
  return fine.qdisc().stats();
}

NetemConfig rule(const char* args) { return parse_netem(args); }

TEST(NetemLanes, ReleaseOrderMatchesStableSortByReleaseAndSeq) {
  const Scenario scenarios[] = {
      {"constant delay", rule("delay 50ms"),
       [](Driver& d) { stream(d, 0, 200, 3); }},
      {"change to a shorter delay mid-window", rule("delay 50ms"),
       [](Driver& d) {
         stream(d, 0, 60, 2);
         d.change(rule("delay 5ms"));  // new packets overtake the queued ones
         stream(d, 60, 60, 2);
         d.change(rule("delay 25ms"));
         stream(d, 120, 40, 2);
       }},
      {"change to a longer delay mid-window", rule("delay 5ms"),
       [](Driver& d) {
         stream(d, 0, 60, 2);
         d.change(rule("delay 50ms"));
         stream(d, 60, 60, 2);
         d.change(rule("delay 5ms"));
         stream(d, 120, 60, 2);
       }},
      {"duplicate", rule("delay 20ms duplicate 30%"),
       [](Driver& d) { stream(d, 0, 150, 2); }},
      {"reorder with gap", rule("delay 20ms reorder 25% gap 3"),
       [](Driver& d) { stream(d, 0, 150, 2); }},
      {"jitter", rule("delay 30ms 10ms"),
       [](Driver& d) { stream(d, 0, 150, 2); }},
      {"jitter, loss and duplicate", rule("delay 10ms 8ms loss 5% duplicate 10%"),
       [](Driver& d) { stream(d, 0, 150, 3); }},
      {"rate", rule("delay 10ms rate 8mbit"),
       [](Driver& d) { stream(d, 0, 150, 1); }},
      {"clear with both lanes populated", rule("delay 40ms"),
       [](Driver& d) {
         stream(d, 0, 30, 2);
         d.change(rule("delay 5ms 3ms"));
         stream(d, 30, 10, 2);
         d.clear();
         stream(d, 40, 60, 2);
       }},
  };
  for (const Scenario& s : scenarios) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const QdiscStats st = check_scenario(s, seed);
      EXPECT_GT(st.dequeued, 100u) << s.name;
    }
  }
}

TEST(NetemLanes, ScenariosExerciseWhatTheyName) {
  // Guards against a scenario that silently stops covering its feature.
  const NetemConfig dup = rule("delay 20ms duplicate 30%");
  Driver d{dup, 7, 1};
  stream(d, 0, 150, 2);
  d.finish();
  EXPECT_GT(d.qdisc().stats().duplicated, 20u);

  Driver r{rule("delay 20ms reorder 25% gap 3"), 7, 1};
  stream(r, 0, 150, 2);
  r.finish();
  EXPECT_GT(r.qdisc().stats().reordered, 10u);
}

TEST(NetemLanes, LimitCountsBothLanes) {
  // A long delay fills the FIFO lane, then a shorter one sends new packets
  // to the heap; the limit must bound the sum, and every over-limit packet
  // is tail-dropped exactly when the model's backlog is full.
  NetemConfig cfg = rule("delay 200ms");
  cfg.limit = 40;
  Driver d{cfg, 3, 1};
  stream(d, 0, 15, 2);  // 30 in the FIFO lane
  NetemConfig shorter = rule("delay 20ms");
  shorter.limit = 40;
  d.change(shorter);
  const std::uint64_t before = d.qdisc().stats().dropped_overlimit;
  stream(d, 15, 10, 4);  // the heap fills the remaining 10, the rest drop
  EXPECT_EQ(d.qdisc().backlog(), 40u);
  EXPECT_GT(d.qdisc().stats().dropped_overlimit, before);
  d.finish();
  const QdiscStats& st = d.qdisc().stats();
  EXPECT_EQ(st.dequeued + st.dropped_overlimit, st.enqueued);
  EXPECT_EQ(d.qdisc().backlog_bytes(), 0u);
}

}  // namespace
}  // namespace rdsim::net
