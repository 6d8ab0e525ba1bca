#include "obs/ledger.h"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace lumiere::obs {

namespace {

/// Sorts `values` in place and reads the distribution off it.
CostDist dist_of(std::vector<double>& values) {
  CostDist d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  d.mean = sum / static_cast<double>(values.size());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  };
  d.p50 = quantile(0.50);
  d.p95 = quantile(0.95);
  d.max = values.back();
  return d;
}

/// The distribution of `cost` over the completed spans, built in `buffer`.
template <typename Spans, typename Cost>
CostDist dist_over(const Spans& spans, std::vector<double>& buffer, Cost cost) {
  buffer.clear();
  for (const SyncSpan& span : spans) {
    if (span.completed) buffer.push_back(static_cast<double>(cost(span)));
  }
  return dist_of(buffer);
}

template <typename Spans>
LedgerSummary summarize_spans(const Spans& spans) {
  // One buffer, refilled per cost: the spans are read four times rather
  // than held as four copies at once.
  std::vector<double> buffer;
  buffer.reserve(spans.size());
  LedgerSummary summary;
  summary.msgs = dist_over(spans, buffer, [](const SyncSpan& s) { return s.msgs_sent; });
  summary.spans = summary.msgs.count;
  summary.bytes = dist_over(spans, buffer, [](const SyncSpan& s) { return s.bytes_sent; });
  summary.auth_ops = dist_over(spans, buffer, [](const SyncSpan& s) { return s.auth_ops(); });
  summary.duration_us =
      dist_over(spans, buffer, [](const SyncSpan& s) { return s.duration().ticks(); });
  return summary;
}

template <typename Spans>
void jsonl_of(std::ostream& out, const std::string& label, const Spans& spans) {
  for (const SyncSpan& span : spans) {
    if (!span.completed) continue;
    out << "{\"label\":\"" << label << "\",\"node\":" << span.node
        << ",\"from_view\":" << span.from_view << ",\"target_view\":" << span.target_view
        << ",\"entered_view\":" << span.entered_view << ",\"start_us\":" << span.start.ticks()
        << ",\"end_us\":" << span.end.ticks() << ",\"msgs\":" << span.msgs_sent
        << ",\"bytes\":" << span.bytes_sent << ",\"signs\":" << span.auth.signs
        << ",\"shares\":" << span.auth.shares << ",\"verifies\":" << span.auth.verifies
        << ",\"share_verifies\":" << span.auth.share_verifies
        << ",\"aggregate_verifies\":" << span.auth.aggregate_verifies
        << ",\"aggregates_built\":" << span.auth.aggregates_built
        << ",\"auth_ops\":" << span.auth_ops() << "}\n";
  }
}

template <typename Spans>
void chrome_trace_of(std::ostream& out, const Spans& spans) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SyncSpan& span : spans) {
    if (!span.completed) continue;
    if (!first) out << ",";
    first = false;
    // dur is clamped to >= 1 so zero-length spans stay visible slices.
    const std::int64_t dur = std::max<std::int64_t>(1, span.duration().ticks());
    out << "{\"name\":\"sync v" << span.from_view << "->" << span.entered_view
        << "\",\"cat\":\"view-sync\",\"ph\":\"X\",\"pid\":0,\"tid\":" << span.node
        << ",\"ts\":" << span.start.ticks() << ",\"dur\":" << dur << ",\"args\":{\"msgs\":"
        << span.msgs_sent << ",\"bytes\":" << span.bytes_sent << ",\"auth_ops\":"
        << span.auth_ops() << ",\"target_view\":" << span.target_view << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace

LedgerSummary ComplexityLedger::summarize(const std::vector<SyncSpan>& spans) {
  return summarize_spans(spans);
}

LedgerSummary ComplexityLedger::summarize(const CompletedSpans& spans) {
  return summarize_spans(spans);
}

double ComplexityLedger::fit_exponent(const std::vector<std::pair<double, double>>& n_vs_cost) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t k = 0;
  for (const auto& [n, cost] : n_vs_cost) {
    if (!(n > 0.0) || !(cost > 0.0)) continue;
    const double x = std::log(n);
    const double y = std::log(cost);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++k;
  }
  if (k < 2) return 0.0;
  const double denom = static_cast<double>(k) * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (static_cast<double>(k) * sxy - sx * sy) / denom;
}

void ComplexityLedger::write_jsonl(std::ostream& out, const std::string& label,
                                   const std::vector<SyncSpan>& spans) {
  jsonl_of(out, label, spans);
}

void ComplexityLedger::write_jsonl(std::ostream& out, const std::string& label,
                                   const CompletedSpans& spans) {
  jsonl_of(out, label, spans);
}

void ComplexityLedger::write_chrome_trace(std::ostream& out,
                                          const std::vector<SyncSpan>& spans) {
  chrome_trace_of(out, spans);
}

void ComplexityLedger::write_chrome_trace(std::ostream& out, const CompletedSpans& spans) {
  chrome_trace_of(out, spans);
}

}  // namespace lumiere::obs
