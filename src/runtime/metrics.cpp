#include "runtime/metrics.h"

#include <algorithm>
#include <thread>

#include "common/stats.h"

namespace lumiere::runtime {

namespace {

using Decisions = std::vector<MetricsCollector::Decision>;

/// Index of the first decision at or after `from`.
std::size_t index_at(const Decisions& decisions, TimePoint from) {
  const auto it = std::lower_bound(
      decisions.begin(), decisions.end(), from,
      [](const MetricsCollector::Decision& d, TimePoint t) { return d.at < t; });
  return static_cast<std::size_t>(it - decisions.begin());
}

/// Largest step of `field` between consecutive decisions in [lo, hi);
/// nullopt with fewer than two decisions there.
template <typename Field>
auto max_step(const Decisions& decisions, std::size_t lo, std::size_t hi, Field field)
    -> std::optional<decltype(field(decisions[0]) - field(decisions[0]))> {
  if (lo + 1 >= hi) return std::nullopt;
  auto worst = field(decisions[lo + 1]) - field(decisions[lo]);
  for (std::size_t i = lo + 2; i < hi; ++i) {
    worst = std::max(worst, field(decisions[i]) - field(decisions[i - 1]));
  }
  return worst;
}

TimePoint at_of(const MetricsCollector::Decision& d) { return d.at; }
std::uint64_t msgs_of(const MetricsCollector::Decision& d) { return d.msgs_before; }

}  // namespace

void MetricsCollector::Record::apply(const Event& e) {
  switch (e.kind) {
    case Event::Kind::kSend: {
      ++total_msgs;
      total_bytes += e.wire;
      TypeTotals& of_type = by_type[e.type_id];
      ++of_type.msgs;
      of_type.bytes += e.wire;
      switch (e.msg_class) {
        case MsgClass::kPacemaker:
          ++pacemaker_msgs;
          break;
        case MsgClass::kDissem:
          ++dissem_msgs;
          dissem_bytes += e.wire;
          break;
        case MsgClass::kConsensus:
          ++consensus_msgs;
          break;
        case MsgClass::kSync:
          ++sync_msgs;
          break;
      }
      break;
    }
    case Event::Kind::kQcFormed:
      decisions.push_back(Decision{e.at, e.view, e.node, total_msgs});
      break;
    case Event::Kind::kQueueDepth:
      queue_depth_log.push_back(QueueDepthSample{e.at, e.node, e.depth});
      break;
    case Event::Kind::kBatchCertified:
      cert_log.push_back(e.latency);
      break;
  }
}

void MetricsCollector::record(Event event) {
  if (!threaded_) {
    record_.apply(event);
    return;
  }
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard =
      shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(event);
}

const MetricsCollector::Record& MetricsCollector::base() const {
  if (!threaded_) return record_;
  // Every query funnels through here: catching a mid-slice query catches
  // both the data race and the dangling-reference footgun at its source.
  LUMIERE_ASSERT_MSG(!recording_live_.load(std::memory_order_relaxed),
                     "MetricsCollector queried during a live TCP run_for slice; "
                     "query between slices and re-fetch log references after each");
  std::lock_guard<std::mutex> lock(merge_mu_);
  const std::uint64_t upto = seq_.load(std::memory_order_relaxed);
  if (merged_.has_value() && merged_upto_ == upto) return *merged_;
  // Rebuild from scratch: events from different driver threads interleave
  // with slightly skewed node clocks, so an incremental append could land
  // out of time order in the decision log the queries binary-search, and
  // a decision's msgs_before must count exactly the sends before it.
  std::vector<Event> events;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    events.insert(events.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  merged_.emplace();
  for (const Event& e : events) merged_->apply(e);
  merged_upto_ = upto;
  return *merged_;
}

MetricsCollector::TypeTotals MetricsCollector::type_totals(std::uint32_t type_id) const {
  const auto& by_type = base().by_type;
  const auto it = by_type.find(type_id);
  return it == by_type.end() ? TypeTotals{} : it->second;
}

void MetricsCollector::record_send(TimePoint at, ProcessId from, const Message& msg,
                                   std::uint64_t wire) {
  if (from >= n_ || byzantine_[from]) return;  // paper counts correct senders only
  record({.kind = Event::Kind::kSend, .at = at, .type_id = msg.type_id(),
          .msg_class = msg.msg_class(), .wire = wire});
}

void MetricsCollector::record_qc_formed(TimePoint at, View view, ProcessId leader) {
  if (leader >= n_ || byzantine_[leader]) return;
  record({.kind = Event::Kind::kQcFormed, .at = at, .view = view, .node = leader});
}

void MetricsCollector::record_queue_depth(TimePoint at, ProcessId node, std::size_t depth) {
  record({.kind = Event::Kind::kQueueDepth, .at = at, .node = node, .depth = depth});
}

void MetricsCollector::record_batch_certified(TimePoint at, Duration latency) {
  record({.kind = Event::Kind::kBatchCertified, .at = at, .latency = latency});
}

std::size_t MetricsCollector::first_decision_index_after(TimePoint from) const {
  return index_at(base().decisions, from);
}

std::optional<Duration> MetricsCollector::latency_to_first_decision(TimePoint gst) const {
  const Decisions& decisions = base().decisions;
  const std::size_t i = index_at(decisions, gst);
  if (i >= decisions.size()) return std::nullopt;
  return decisions[i].at - gst;
}

std::optional<Duration> MetricsCollector::max_decision_gap(TimePoint from,
                                                           std::size_t warmup) const {
  const Decisions& decisions = base().decisions;
  return max_step(decisions, index_at(decisions, from) + warmup, decisions.size(), at_of);
}

std::optional<std::uint64_t> MetricsCollector::max_msg_gap(TimePoint from,
                                                           std::size_t warmup) const {
  const Decisions& decisions = base().decisions;
  return max_step(decisions, index_at(decisions, from) + warmup, decisions.size(), msgs_of);
}

std::uint64_t MetricsCollector::decisions_between(TimePoint from, TimePoint to) const {
  const Decisions& decisions = base().decisions;
  return index_at(decisions, to) - index_at(decisions, from);
}

std::optional<Duration> MetricsCollector::max_decision_gap_between(TimePoint from,
                                                                   TimePoint to) const {
  const Decisions& decisions = base().decisions;
  return max_step(decisions, index_at(decisions, from), index_at(decisions, to), at_of);
}

std::optional<Duration> MetricsCollector::batch_cert_latency_percentile(double p) const {
  return nearest_rank_percentile(base().cert_log, p);
}

}  // namespace lumiere::runtime
