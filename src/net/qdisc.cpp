#include "net/qdisc.hpp"

#include <sstream>

#include "check/contracts.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"

namespace rdsim::net {

std::string QdiscStats::summary() const {
  std::ostringstream os;
  os << "sent " << dequeued << " pkt (" << bytes_sent << " bytes)"
     << " dropped " << total_dropped() << " (loss " << dropped_loss << ", overlimit "
     << dropped_overlimit << ")"
     << " duplicated " << duplicated << " corrupted " << corrupted << " reordered "
     << reordered;
  return os.str();
}

std::string Qdisc::summary() const {
  std::ostringstream os;
  os << "qdisc " << kind() << ": " << stats().summary() << " backlog "
     << backlog_bytes() << "b " << backlog() << "p";
  return os.str();
}

void FifoQdisc::enqueue(Packet packet, util::TimePoint now) {
  ++stats_.enqueued;
  RDSIM_OBS_COUNT(obs::metric::kFifoEnqueued, 1);
  packet.enqueued_at = now;
  if (queue_.size() >= limit_) {
    ++stats_.dropped_overlimit;
    RDSIM_OBS_COUNT(obs::metric::kFifoDroppedOverlimit, 1);
    return;
  }
  backlog_bytes_ += packet.effective_wire_size();
  queue_.push_back(std::move(packet));
  RDSIM_OBS_GAUGE_SET(obs::metric::kFifoDepth, static_cast<double>(queue_.size()));
  RDSIM_ENSURE(queue_.size() <= limit_, "pfifo backlog must respect its limit");
}

void FifoQdisc::dequeue_ready(util::TimePoint /*now*/, PacketSink& sink) {
  if (queue_.empty()) return;
  [[maybe_unused]] const std::size_t n = queue_.size();
  for (Packet& p : queue_) {
    ++stats_.dequeued;
    stats_.bytes_sent += p.effective_wire_size();
    sink.accept(std::move(p));
  }
  queue_.clear();
  backlog_bytes_ = 0;
  RDSIM_OBS_COUNT(obs::metric::kFifoDequeued, n);
  RDSIM_OBS_GAUGE_SET(obs::metric::kFifoDepth, 0.0);
  RDSIM_INVARIANT(stats_.dequeued + stats_.dropped_overlimit <= stats_.enqueued,
                  "pfifo cannot emit or drop more packets than were enqueued");
}

std::optional<util::TimePoint> FifoQdisc::next_event_at() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.front().enqueued_at;
}

}  // namespace rdsim::net
