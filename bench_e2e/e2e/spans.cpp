#include "e2e/spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace lumiere::e2e {
namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;  ///< summed durations of direct children
  std::uint64_t id = 0;
  Layer layer = Layer::kConsensus;
};

/// Fixed-capacity ring of finished spans; overwrites the oldest.
struct Ring {
  std::vector<SpanRecord> slots;
  std::size_t next = 0;
  std::uint64_t written = 0;

  void push(const SpanRecord& record) {
    if (slots.empty()) return;
    slots[next] = record;
    next = (next + 1) % slots.size();
    ++written;
  }
  /// Live entries, oldest first.
  [[nodiscard]] std::vector<SpanRecord> drain_ordered() const {
    std::vector<SpanRecord> out;
    const std::size_t live = static_cast<std::size_t>(
        std::min<std::uint64_t>(written, static_cast<std::uint64_t>(slots.size())));
    out.reserve(live);
    const std::size_t first = written > slots.size() ? next : 0;
    for (std::size_t i = 0; i < live; ++i) out.push_back(slots[(first + i) % slots.size()]);
    return out;
  }
};

struct Shared {
  std::mutex mu;
  SpanTotals totals;
  std::vector<SpanRecord> ring;  ///< merged, trimmed to capacity on read
  std::size_t capacity = 0;
  std::atomic<std::uint32_t> next_thread{0};
  std::atomic<std::uint64_t> generation{0};
};

Shared& shared() {
  static Shared* state = new Shared();
  return *state;
}

struct ThreadState {
  std::vector<Frame> stack;
  SpanTotals totals;
  Ring ring;
  std::uint32_t thread = 0;
  std::uint64_t seq = 0;
  std::uint64_t generation = 0;

  ThreadState() : thread(shared().next_thread.fetch_add(1)) {}
  ~ThreadState() { flush(); }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  /// Drops state recorded under an earlier reset_spans().
  void sync_generation() {
    const std::uint64_t current = shared().generation.load(std::memory_order_acquire);
    if (generation == current) return;
    generation = current;
    clear();
  }

  void clear() {
    stack.clear();
    totals = SpanTotals{};
    std::size_t capacity = 0;
    {
      std::lock_guard<std::mutex> lock(shared().mu);
      capacity = shared().capacity;
    }
    ring.slots.assign(capacity, SpanRecord{});
    ring.next = 0;
    ring.written = 0;
  }

  void flush() {
    if (generation != shared().generation.load(std::memory_order_acquire)) return;
    if (totals.spans == 0) return;
    Shared& s = shared();
    std::vector<SpanRecord> mine = ring.drain_ordered();
    std::lock_guard<std::mutex> lock(s.mu);
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      s.totals.layers[i].calls += totals.layers[i].calls;
      s.totals.layers[i].self_ns += totals.layers[i].self_ns;
    }
    s.totals.root_ns += totals.root_ns;
    s.totals.spans += totals.spans;
    s.ring.insert(s.ring.end(), mine.begin(), mine.end());
    totals = SpanTotals{};
    ring.next = 0;
    ring.written = 0;
  }
};

ThreadState& local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kConsensus:
      return "consensus";
    case Layer::kPacemaker:
      return "pacemaker";
    case Layer::kTransport:
      return "transport";
    case Layer::kWorkload:
      return "workload";
    case Layer::kSync:
      return "sync";
  }
  return "unknown";
}

Span::Span(Layer layer) noexcept {
  ThreadState& state = local();
  state.sync_generation();
  const std::uint64_t id = (static_cast<std::uint64_t>(state.thread + 1) << 40) | ++state.seq;
  state.stack.push_back(Frame{now_ns(), 0, id, layer});
}

Span::~Span() {
  const std::int64_t end = now_ns();
  ThreadState& state = local();
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  LayerTotals& layer = state.totals.layers[static_cast<std::size_t>(frame.layer)];
  ++layer.calls;
  layer.self_ns += duration - frame.child_ns;
  ++state.totals.spans;
  std::uint64_t parent = 0;
  if (state.stack.empty()) {
    state.totals.root_ns += duration;
  } else {
    state.stack.back().child_ns += duration;
    parent = state.stack.back().id;
  }
  state.ring.push(SpanRecord{frame.id, parent, frame.start_ns, end, state.thread, frame.layer});
}

void reset_spans(std::size_t ring_capacity) {
  Shared& s = shared();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.totals = SpanTotals{};
    s.ring.clear();
    s.capacity = ring_capacity;
  }
  s.generation.fetch_add(1, std::memory_order_acq_rel);
  local().sync_generation();
}

void flush_thread_spans() {
  ThreadState& state = local();
  state.sync_generation();
  state.flush();
}

SpanTotals span_totals() {
  std::lock_guard<std::mutex> lock(shared().mu);
  return shared().totals;
}

std::vector<SpanRecord> span_ring() {
  Shared& s = shared();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<SpanRecord> out = s.ring;
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns < b.start_ns;
  });
  // Several threads each kept up to `capacity`; keep the newest overall.
  if (out.size() > s.capacity) out.erase(out.begin(), out.end() - static_cast<long>(s.capacity));
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}",
                 i == 0 ? "" : ",", layer_name(span.layer), span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace lumiere::e2e
