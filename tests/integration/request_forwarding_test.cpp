// Request forwarding end to end: admitted requests ride each replica's
// NewView to the next proposer (consensus/chained_core.h), so latency is
// a few views for every origin, not a wait for its own leader turn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "consensus/chained_core.h"
#include "fuzz/oracles.h"
#include "runtime/cluster.h"
#include "sim/delay_policy.h"
#include "testutil/core_harness.h"
#include "workload/engine.h"
#include "workload/request.h"

namespace lumiere::runtime {
namespace {

workload::WorkloadSpec poisson(double total_rate, std::uint32_t n, TimePoint stop) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kPoisson;
  spec.clients_per_node = 2;
  spec.rate_per_client = total_rate / (2.0 * n);
  spec.stop = stop;
  return spec;
}

Duration median(std::vector<Duration> values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

TEST(RequestForwardingTest, EveryOriginIsServedWithinTwiceTheBestMedian) {
  // FixedDelay delivers same-instant NewViews to lead(v) in sender-id
  // order, so the 2f+1 cut drops the same ~10 origins every view. Without
  // the relay their attachments would miss every proposal and wait for
  // their own leader turn (~n views); with it they ride lead(v)'s NewView
  // into proposal v+1, one view later than the rest.
  constexpr std::uint32_t kN = 31;
  const TimePoint stop(Duration::millis(2500).ticks());
  ScenarioBuilder b;
  b.params(ProtocolParams::for_n(kN, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(16)
      .delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)))
      .workload(poisson(3200.0, kN, stop));
  Cluster cluster(b);
  cluster.run_for(Duration::seconds(3));

  std::vector<Duration> medians;
  for (ProcessId id = 0; id < kN; ++id) {
    const auto& stats = cluster.node_workload(id)->stats();
    ASSERT_GT(stats.latencies.size(), 20U) << "origin " << id << " barely committed";
    std::vector<Duration> latencies;
    for (const auto& [at, latency] : stats.latencies) latencies.push_back(latency);
    medians.push_back(median(std::move(latencies)));
  }
  const Duration best = *std::min_element(medians.begin(), medians.end());
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_LE(medians[id].ticks(), 2 * best.ticks())
        << "origin " << id << " median " << medians[id].ticks() << " us vs best "
        << best.ticks() << " us";
  }
  EXPECT_EQ(fuzz::check_exactly_once(cluster), std::nullopt);
  EXPECT_EQ(cluster.workload_report().commit_misses, 0U);
}

TEST(RequestForwardingTest, HotStuff2CommitsEveryRequestExactlyOnce) {
  // The responsive HotStuff-2 leader proposes before any NewView of its
  // view arrives, so forwarded requests reach proposals through the relay.
  constexpr std::uint32_t kN = 7;
  const TimePoint stop(Duration::millis(1500).ticks());
  ScenarioBuilder b;
  b.params(ProtocolParams::for_n(kN, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("hotstuff-2")
      .seed(17)
      .delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)))
      .workload(poisson(2000.0, kN, stop));
  Cluster cluster(b);
  cluster.run_for(Duration::seconds(3));

  const workload::Report report = cluster.workload_report();
  EXPECT_GT(report.committed, 1000U);
  EXPECT_EQ(report.committed, report.admitted) << "an admitted request never committed";
  EXPECT_EQ(report.outstanding, 0U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(fuzz::check_exactly_once(cluster), std::nullopt);
  const auto p50 = report.latency_percentile(0.5);
  ASSERT_TRUE(p50.has_value());
  // A few views at ~2 ms each, not a wait for the origin's leader turn.
  EXPECT_LT(p50->ticks(), Duration::millis(10).ticks()) << "p50 " << p50->ticks() << " us";
}

TEST(RequestForwardingTest, AForgedNextSeqCannotWedgeTheHonestClient) {
  // Request tags are not authenticated. Byzantine replica 2 attaches
  // forged requests under honest client (node 1, k = 0)'s next seq and
  // one a few seqs further to its NewView, and an honest leader commits
  // them. Every replica refuses the real requests with those tags from
  // then on, so the origin must take each forged commit as its tag's:
  // the real copy's lease ends (the next seq is submitted before its
  // forgery commits) or the client skips the spent seq (the further one
  // commits before the client gets there), and it keeps completing.
  using Harness = testutil::CoreHarness<consensus::ChainedCore>;
  constexpr View kForgeAt = 8;
  constexpr View kViews = 40;
  constexpr std::uint64_t kAhead = 3;
  std::unique_ptr<workload::NodeWorkload> origin;
  consensus::RequestForwarding origin_hooks;
  sim::Simulator* clock = nullptr;
  const std::uint32_t victim = workload::client_id(1, 0);
  std::uint64_t forged_seq = 0;
  std::uint64_t committed_at_forgery = 0;
  const auto wire = [&](ProcessId id, consensus::CoreCallbacks& cb) {
    if (id == 1) {
      cb.forwarding.attach = [&](View v) { return origin_hooks.attach(v); };
      cb.forwarding.proposed = [&](const consensus::Block& b) { origin_hooks.proposed(b); };
      cb.decided = [&, inner = cb.decided](const std::shared_ptr<const consensus::Block>& b) {
        inner(b);
        origin->on_commit(clock->now(), b->view(), b->payload());
      };
      return;
    }
    cb.forwarding.attach = [&, id](View v) {
      if (id != 2 || v != kForgeAt) return std::vector<std::uint8_t>{};
      committed_at_forgery = origin->stats().committed;
      forged_seq = committed_at_forgery + origin->outstanding();  // the next seq
      const std::vector<std::uint8_t> body(16, 0xEE);
      ser::Writer batch;
      batch.bytes(workload::Request::encode(victim, forged_seq, body));
      batch.bytes(workload::Request::encode(victim, forged_seq + kAhead, body));
      return std::move(batch).take();
    };
  };
  Harness h(4, Duration::micros(10), nullptr, consensus::ChainRule::hotstuff(), wire);
  clock = &h.sim();
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kClosedLoop;
  spec.clients_per_node = 1;
  spec.in_flight = 1;
  origin = std::make_unique<workload::NodeWorkload>(&h.sim(), 1, spec, /*seed=*/3);
  origin_hooks = origin->forwarding();
  origin->start();
  for (View v = 0; v < kViews; ++v) h.enter_view_all(v);

  ASSERT_GT(committed_at_forgery, 0U) << "the client must be running when the forgery lands";
  // Both forgeries committed everywhere.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_TRUE(h.core(id).committed_tags().contains({victim, forged_seq})) << "node " << id;
    EXPECT_TRUE(h.core(id).committed_tags().contains({victim, forged_seq + kAhead}))
        << "node " << id;
  }
  // The further one was never submitted here: a commit with no
  // outstanding record.
  const auto& stats = origin->stats();
  EXPECT_EQ(stats.commit_misses, 1U);
  // The client kept completing, about one request per 3-chain, well
  // past both forged seqs.
  EXPECT_GT(stats.committed, committed_at_forgery + kAhead + 3)
      << "the client stalled behind forged seq " << forged_seq;
  // Nothing lingers: the window's one request at most, no re-attached
  // copy of a forged tag.
  EXPECT_LE(origin->outstanding(), 1U);
  EXPECT_LE(origin->mempool().in_flight() + origin->mempool().pending(), 1U);
}

}  // namespace
}  // namespace lumiere::runtime
