#include "obs/tracer.h"

namespace lumiere::obs {

SyncTracer::SyncTracer(std::uint32_t n, std::size_t max_spans) : max_spans_(max_spans) {
  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_.push_back(std::make_unique<PerNode>());
}

void SyncTracer::note_sent(ProcessId id, MsgClass msg_class, std::uint64_t bytes) noexcept {
  PerNode& node = *nodes_[id];
  node.msgs.fetch_add(1, std::memory_order_relaxed);
  node.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (msg_class != MsgClass::kPacemaker) return;
  node.pacemaker_msgs.fetch_add(1, std::memory_order_relaxed);
  node.pacemaker_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void SyncTracer::note_riding_share(ProcessId id, std::uint64_t bytes) noexcept {
  PerNode& node = *nodes_[id];
  node.pacemaker_msgs.fetch_add(1, std::memory_order_relaxed);
  node.pacemaker_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::uint64_t SyncTracer::msgs_sent(ProcessId id) const noexcept {
  return nodes_[id]->msgs.load(std::memory_order_relaxed);
}

std::uint64_t SyncTracer::bytes_sent(ProcessId id) const noexcept {
  return nodes_[id]->bytes.load(std::memory_order_relaxed);
}

void SyncTracer::on_sync_started(ProcessId id, TimePoint at, View current, View target) {
  PerNode& node = *nodes_[id];
  std::lock_guard<std::mutex> lock(node.mu);
  // First start wins: a pacemaker escalating its target mid-episode
  // (wish for v, then v+1 on timeout) is one episode — the cost of the
  // whole struggle to leave `current` belongs to one span.
  if (node.open) return;
  node.open = true;
  node.span = SyncSpan{};
  node.span.node = id;
  node.span.from_view = current;
  node.span.target_view = target;
  node.span.start = at;
  node.span.end = at;
  node.base_pacemaker_msgs = node.pacemaker_msgs.load(std::memory_order_relaxed);
  node.base_pacemaker_bytes = node.pacemaker_bytes.load(std::memory_order_relaxed);
  node.base_auth = node.auth.snapshot();
}

std::optional<SyncSpan> SyncTracer::on_view_entered(ProcessId id, TimePoint at, View view) {
  PerNode& node = *nodes_[id];
  node.view.store(view, std::memory_order_relaxed);
  SyncSpan done;
  {
    std::lock_guard<std::mutex> lock(node.mu);
    if (!node.open) return std::nullopt;
    node.open = false;
    done = node.span;
    done.entered_view = view;
    done.end = at;
    done.msgs_sent =
        node.pacemaker_msgs.load(std::memory_order_relaxed) - node.base_pacemaker_msgs;
    done.bytes_sent =
        node.pacemaker_bytes.load(std::memory_order_relaxed) - node.base_pacemaker_bytes;
    done.auth = node.auth.snapshot() - node.base_auth;
    done.completed = true;
    node.last = done;
  }
  {
    std::lock_guard<std::mutex> lock(completed_mu_);
    if (max_spans_ != 0 && completed_.size() == max_spans_) {
      completed_.pop_front();
      ++dropped_;
    }
    completed_.emplace_back(done);
  }
  return done;
}

std::optional<SyncSpan> SyncTracer::open_span(ProcessId id, TimePoint now) const {
  const PerNode& node = *nodes_[id];
  std::lock_guard<std::mutex> lock(node.mu);
  if (!node.open) return std::nullopt;
  SyncSpan span = node.span;
  // A caller with no safe clock (a TCP status thread) may pass origin;
  // clamp so the live span never reads a negative duration.
  span.end = now < span.start ? span.start : now;
  span.msgs_sent =
      node.pacemaker_msgs.load(std::memory_order_relaxed) - node.base_pacemaker_msgs;
  span.bytes_sent =
      node.pacemaker_bytes.load(std::memory_order_relaxed) - node.base_pacemaker_bytes;
  span.auth = node.auth.snapshot() - node.base_auth;
  return span;
}

std::optional<SyncSpan> SyncTracer::last_span(ProcessId id) const {
  const PerNode& node = *nodes_[id];
  std::lock_guard<std::mutex> lock(node.mu);
  return node.last;
}

void SyncTracer::note_commit(ProcessId id, View view) noexcept {
  PerNode& node = *nodes_[id];
  node.commits.fetch_add(1, std::memory_order_relaxed);
  node.last_commit.store(static_cast<std::uint64_t>(view), std::memory_order_relaxed);
}

void SyncTracer::note_byzantine(ProcessId id) noexcept {
  nodes_[id]->ever_byzantine.store(true, std::memory_order_relaxed);
}

void SyncTracer::note_mempool_depth(ProcessId id, std::uint64_t depth) noexcept {
  nodes_[id]->mempool.store(depth, std::memory_order_relaxed);
}

void SyncTracer::note_request_committed(ProcessId id) noexcept {
  nodes_[id]->requests.fetch_add(1, std::memory_order_relaxed);
}

NodeStatus SyncTracer::status(ProcessId id, TimePoint now) const {
  const PerNode& node = *nodes_[id];
  NodeStatus status;
  status.node = id;
  status.view = node.view.load(std::memory_order_relaxed);
  status.height = node.commits.load(std::memory_order_relaxed);
  status.last_commit_height = node.last_commit.load(std::memory_order_relaxed);
  status.ever_byzantine = node.ever_byzantine.load(std::memory_order_relaxed);
  status.mempool_depth = node.mempool.load(std::memory_order_relaxed);
  status.requests_committed = node.requests.load(std::memory_order_relaxed);
  status.msgs_sent = msgs_sent(id);
  status.bytes_sent = bytes_sent(id);
  status.auth_ops = auth_snapshot(id).total();
  status.current_sync = open_span(id, now);
  status.last_sync = last_span(id);
  return status;
}

std::size_t SyncTracer::completed_count() const {
  std::lock_guard<std::mutex> lock(completed_mu_);
  return completed_.size();
}

std::uint64_t SyncTracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(completed_mu_);
  return dropped_;
}

}  // namespace lumiere::obs
