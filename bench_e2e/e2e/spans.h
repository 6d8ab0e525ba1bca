// Span timing for the traced run.
//
// The benchmark measures layers from outside the library: every timed
// call into a layer (a consensus-core handler, a pacemaker handler, a
// transport send, a mempool drain or commit delivery) opens a Span. A
// thread-local stack of open spans turns wall durations into self time —
// a span's duration minus the durations of the spans nested directly
// inside it (a core's on_message that triggers the pacemaker's on_qc
// keeps only its own share). Finished spans also land in a bounded ring
// that can be written as Chrome trace JSON.
//
// Threading: each thread records into its own state without locks. The
// TCP transport's driver threads fold their state into the shared totals
// when they exit; the thread that drives the simulator calls
// flush_thread_spans() itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lumiere::e2e {

enum class Layer : std::uint8_t { kConsensus, kPacemaker, kTransport, kWorkload, kSync };
inline constexpr std::size_t kLayerCount = 5;

/// The metric prefix of a layer ("consensus", "pacemaker", ...).
[[nodiscard]] const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// One finished span. Ids are unique per recording; parent 0 = root.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  Layer layer = Layer::kConsensus;
};

/// What one recording measured, merged over every thread that flushed.
struct SpanTotals {
  std::array<LayerTotals, kLayerCount> layers{};
  /// Summed durations of root spans: the time spent inside any timed call.
  std::int64_t root_ns = 0;
  std::uint64_t spans = 0;

  [[nodiscard]] std::int64_t self_ns_sum() const {
    std::int64_t sum = 0;
    for (const LayerTotals& layer : layers) sum += layer.self_ns;
    return sum;
  }
};

/// Times the enclosing scope as one span of `layer`.
class Span {
 public:
  explicit Span(Layer layer) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Starts a new recording: clears the shared totals and ring and the
/// calling thread's state. Call while no other thread records.
void reset_spans(std::size_t ring_capacity);
/// Folds the calling thread's totals and ring into the shared ones.
void flush_thread_spans();
[[nodiscard]] SpanTotals span_totals();
/// The ring's spans, ordered by start time.
[[nodiscard]] std::vector<SpanRecord> span_ring();

/// Writes `spans` in the Chrome trace-event format (one "X" event per
/// span; load it in chrome://tracing or ui.perfetto.dev). False on I/O
/// failure.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<SpanRecord>& spans);

}  // namespace lumiere::e2e
