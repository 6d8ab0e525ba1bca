#include "runtime/metrics.h"

#include <algorithm>
#include <thread>

#include "common/stats.h"

namespace lumiere::runtime {

namespace {

/// Appends a (time, cumulative total) checkpoint, or overwrites the tail
/// when it is for the same instant: the window queries read only the
/// last checkpoint at an instant, so one per instant answers identically
/// to one per send.
void checkpoint(std::vector<std::pair<TimePoint, std::uint64_t>>& log, TimePoint at,
                std::uint64_t total) {
  if (!log.empty() && log.back().first == at) {
    log.back().second = total;
  } else {
    log.emplace_back(at, total);
  }
}

}  // namespace

void MetricsCollector::charge_send(TimePoint at, std::uint32_t type_id, MsgClass msg_class,
                                   std::uint64_t wire) {
  ++total_msgs_;
  total_bytes_ += wire;
  TypeTotals& of_type = by_type_[type_id];
  ++of_type.msgs;
  of_type.bytes += wire;
  switch (msg_class) {
    case MsgClass::kPacemaker:
      ++pacemaker_msgs_;
      break;
    case MsgClass::kDissem:
      ++dissem_msgs_;
      dissem_bytes_ += wire;
      checkpoint(dissem_send_log_, at, dissem_bytes_);
      break;
    case MsgClass::kConsensus:
      ++consensus_msgs_;
      break;
    case MsgClass::kSync:
      ++sync_msgs_;
      break;
  }
  checkpoint(send_log_, at, total_msgs_);
}

void MetricsCollector::capture(Event event) {
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard =
      shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(std::move(event));
}

const MetricsCollector& MetricsCollector::base() const {
  if (!threaded_) return *this;
  // Every query funnels through here: catching a mid-slice query catches
  // both the data race and the dangling-reference footgun at its source.
  LUMIERE_ASSERT_MSG(!recording_live_.load(std::memory_order_relaxed),
                     "MetricsCollector queried during a live TCP run_for slice; "
                     "query between slices and re-fetch log references after each");
  std::lock_guard<std::mutex> lock(merge_mu_);
  const std::uint64_t upto = seq_.load(std::memory_order_relaxed);
  if (merged_ != nullptr && merged_upto_ == upto) return *merged_;
  // Rebuild from scratch: events from different driver threads interleave
  // with slightly skewed node clocks, so an incremental append could land
  // out of order in the sorted logs the window queries binary-search.
  std::vector<Event> events;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    events.insert(events.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  merged_ = std::make_unique<MetricsCollector>(n_, byzantine_);
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::kSend:
        merged_->charge_send(e.at, e.type_id, e.msg_class, e.wire);
        break;
      case Event::Kind::kQcFormed:
        merged_->record_qc_formed(e.at, e.view, e.node);
        break;
      case Event::Kind::kRegime:
        merged_->mark_regime(e.at, e.label);
        break;
      case Event::Kind::kQueueDepth:
        merged_->record_queue_depth(e.at, e.node, e.depth);
        break;
      case Event::Kind::kBatchCertified:
        merged_->record_batch_certified(e.at, e.latency);
        break;
    }
  }
  merged_upto_ = upto;
  return *merged_;
}

void MetricsCollector::record_send(TimePoint at, ProcessId from, const Message& msg,
                                   std::uint64_t wire) {
  if (from >= n_ || byzantine_[from]) return;  // paper counts correct senders only
  if (threaded_) {
    Event e;
    e.kind = Event::Kind::kSend;
    e.at = at;
    e.type_id = msg.type_id();
    e.msg_class = msg.msg_class();
    e.wire = wire;
    capture(std::move(e));
    return;
  }
  charge_send(at, msg.type_id(), msg.msg_class(), wire);
}

void MetricsCollector::record_qc_formed(TimePoint at, View view, ProcessId leader) {
  if (leader >= n_ || byzantine_[leader]) return;
  if (threaded_) {
    Event e;
    e.kind = Event::Kind::kQcFormed;
    e.at = at;
    e.view = view;
    e.node = leader;
    capture(std::move(e));
    return;
  }
  decisions_.push_back(Decision{at, view, leader, total_msgs_});
}

std::size_t MetricsCollector::first_decision_index_after(TimePoint from) const {
  if (threaded_) return base().first_decision_index_after(from);
  const auto it = std::lower_bound(
      decisions_.begin(), decisions_.end(), from,
      [](const Decision& d, TimePoint t) { return d.at < t; });
  return static_cast<std::size_t>(it - decisions_.begin());
}

std::optional<Duration> MetricsCollector::latency_to_first_decision(TimePoint gst) const {
  if (threaded_) return base().latency_to_first_decision(gst);
  const std::size_t i = first_decision_index_after(gst);
  if (i >= decisions_.size()) return std::nullopt;
  return decisions_[i].at - gst;
}

std::optional<Duration> MetricsCollector::max_decision_gap(TimePoint from,
                                                           std::size_t warmup) const {
  if (threaded_) return base().max_decision_gap(from, warmup);
  const std::size_t start = first_decision_index_after(from) + warmup;
  if (start + 1 >= decisions_.size()) return std::nullopt;
  Duration worst = Duration::zero();
  for (std::size_t i = start + 1; i < decisions_.size(); ++i) {
    worst = std::max(worst, decisions_[i].at - decisions_[i - 1].at);
  }
  return worst;
}

std::optional<std::uint64_t> MetricsCollector::max_msg_gap(TimePoint from,
                                                           std::size_t warmup) const {
  if (threaded_) return base().max_msg_gap(from, warmup);
  const std::size_t start = first_decision_index_after(from) + warmup;
  if (start + 1 >= decisions_.size()) return std::nullopt;
  std::uint64_t worst = 0;
  for (std::size_t i = start + 1; i < decisions_.size(); ++i) {
    worst = std::max(worst, decisions_[i].msgs_before - decisions_[i - 1].msgs_before);
  }
  return worst;
}

void MetricsCollector::mark_regime(TimePoint at, std::string label) {
  if (threaded_) {
    Event e;
    e.kind = Event::Kind::kRegime;
    e.at = at;
    e.label = std::move(label);
    capture(std::move(e));
    return;
  }
  regime_marks_.emplace_back(at, std::move(label));
}

std::uint64_t MetricsCollector::decisions_between(TimePoint from, TimePoint to) const {
  if (threaded_) return base().decisions_between(from, to);
  const std::size_t lo = first_decision_index_after(from);
  const std::size_t hi = first_decision_index_after(to);
  return hi - lo;
}

std::optional<Duration> MetricsCollector::max_decision_gap_between(TimePoint from,
                                                                   TimePoint to) const {
  if (threaded_) return base().max_decision_gap_between(from, to);
  const std::size_t lo = first_decision_index_after(from);
  const std::size_t hi = first_decision_index_after(to);
  if (lo + 1 >= hi) return std::nullopt;
  Duration worst = Duration::zero();
  for (std::size_t i = lo + 1; i < hi; ++i) {
    worst = std::max(worst, decisions_[i].at - decisions_[i - 1].at);
  }
  return worst;
}

void MetricsCollector::record_queue_depth(TimePoint at, ProcessId node, std::size_t depth) {
  if (threaded_) {
    Event e;
    e.kind = Event::Kind::kQueueDepth;
    e.at = at;
    e.node = node;
    e.depth = depth;
    capture(std::move(e));
    return;
  }
  queue_depth_log_.push_back(QueueDepthSample{at, node, depth});
}

void MetricsCollector::record_batch_certified(TimePoint at, Duration latency) {
  if (threaded_) {
    Event e;
    e.kind = Event::Kind::kBatchCertified;
    e.at = at;
    e.latency = latency;
    capture(std::move(e));
    return;
  }
  cert_log_.push_back(latency);
}

std::optional<Duration> MetricsCollector::batch_cert_latency_percentile(double p) const {
  if (threaded_) return base().batch_cert_latency_percentile(p);
  return nearest_rank_percentile(cert_log_, p);
}

std::uint64_t MetricsCollector::dissem_bytes_between(TimePoint from, TimePoint to) const {
  if (threaded_) return base().dissem_bytes_between(from, to);
  const auto count_until = [this](TimePoint t) -> std::uint64_t {
    const auto it = std::lower_bound(
        dissem_send_log_.begin(), dissem_send_log_.end(), t,
        [](const std::pair<TimePoint, std::uint64_t>& e, TimePoint tp) { return e.first < tp; });
    if (it == dissem_send_log_.begin()) return 0;
    return std::prev(it)->second;
  };
  return count_until(to) - count_until(from);
}

std::uint64_t MetricsCollector::msgs_between(TimePoint from, TimePoint to) const {
  if (threaded_) return base().msgs_between(from, to);
  const auto count_until = [this](TimePoint t) -> std::uint64_t {
    // Largest cumulative count with send time < t.
    const auto it = std::lower_bound(
        send_log_.begin(), send_log_.end(), t,
        [](const std::pair<TimePoint, std::uint64_t>& e, TimePoint tp) { return e.first < tp; });
    if (it == send_log_.begin()) return 0;
    return std::prev(it)->second;
  };
  const std::uint64_t upto = count_until(to);
  const std::uint64_t before = count_until(from);
  return upto - before;
}

}  // namespace lumiere::runtime
