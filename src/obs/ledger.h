// ComplexityLedger — turns raw SyncSpans into the paper-facing numbers.
//
// Lumiere's headline claim is O(n) expected / O(n^2) worst-case view
// synchronization (Lewis-Pye's lower bound is the quadratic anchor). The
// ledger aggregates per-episode spans into distributions (mean/p50/p95/
// max of messages, bytes, authenticator ops, duration) and fits the
// growth exponent of cost against n with a least-squares log-log fit —
// the slope bench_table1's per-sync section reports next to the 1.0/2.0
// theory lines.
//
// Exports: one-JSON-object-per-span JSONL (jq-friendly) and the Chrome
// trace-event format (open chrome://tracing or https://ui.perfetto.dev
// and load the file; pid = cluster, tid = node, one "X" slice per span).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.h"

namespace lumiere::obs {

/// Distribution of one scalar cost over a set of spans.
struct CostDist {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Per-sync cost distributions over a set of completed spans.
struct LedgerSummary {
  std::uint64_t spans = 0;
  CostDist msgs;
  CostDist bytes;
  CostDist auth_ops;
  CostDist duration_us;
};

/// Each reader takes a plain span list or a tracer's ring view
/// (SyncTracer::completed_spans()); a ring is read in place, never
/// expanded into a list.
class ComplexityLedger {
 public:
  /// Aggregates completed spans (open spans are skipped). Holds one
  /// buffer of one double per span at a time.
  [[nodiscard]] static LedgerSummary summarize(const std::vector<SyncSpan>& spans);
  [[nodiscard]] static LedgerSummary summarize(const CompletedSpans& spans);

  /// Least-squares slope of log(cost) against log(n) over (n, cost)
  /// points — the measured growth exponent (1.0 = linear, 2.0 =
  /// quadratic). Points with n or cost <= 0 are skipped; returns 0 when
  /// fewer than two usable points remain.
  [[nodiscard]] static double fit_exponent(
      const std::vector<std::pair<double, double>>& n_vs_cost);

  /// One JSON object per completed span, `label` echoed into every line
  /// (bench rows stamp pacemaker/n here).
  static void write_jsonl(std::ostream& out, const std::string& label,
                          const std::vector<SyncSpan>& spans);
  static void write_jsonl(std::ostream& out, const std::string& label,
                          const CompletedSpans& spans);

  /// Chrome trace-event JSON (one complete "X" event per span; ts/dur in
  /// microseconds, which is exactly one simulator tick).
  static void write_chrome_trace(std::ostream& out, const std::vector<SyncSpan>& spans);
  static void write_chrome_trace(std::ostream& out, const CompletedSpans& spans);
};

}  // namespace lumiere::obs
