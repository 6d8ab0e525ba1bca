#include "e2e/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "adversary/behaviors.h"
#include "dissem/batch.h"
#include "e2e/spans.h"
#include "e2e/timed.h"
#include "fuzz/oracles.h"
#include "obs/ledger.h"
#include "runtime/cluster.h"
#include "sim/delay_policy.h"

namespace lumiere::e2e {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

const Duration kDelta = Duration::millis(10);
const Duration kLinkDelay = Duration::micros(500);
/// Commits before this instant are left out of latency and throughput.
const TimePoint kWarmup{Duration::seconds(1).ticks()};
/// Clients stop this long before the run ends, so the commit tail drains.
const Duration kDrain = Duration::seconds(2);
constexpr std::uint32_t kClientsPerNode = 2;
constexpr std::size_t kRingCapacity = 1 << 16;
/// Decisions skipped before the decision-gap maxima (startup sync).
constexpr std::size_t kDecisionWarmup = 30;

// byzantine: silent leaders hold the first f ids; only honest nodes run
// clients, since a silent node never proposes its own mempool. Requests
// wait seconds for a run of honest leaders, hence the long drain.
constexpr double kByzantineRatePerClient = 5.0;
const Duration kByzantineDrain = Duration::seconds(15);
// tcp-ed25519: offered load, about half the tcp-saturate rate.
constexpr double kTcpRate = 12800.0;
// tcp-saturate: each closed-loop client keeps this many requests open.
constexpr std::uint32_t kSaturateWindow = 64;

/// Lumiere with its leader schedule pinned. The run's seed shapes the
/// client arrivals (and keys), not which replica leads which view: the
/// schedule is protocol randomness rather than input, and with it pinned
/// a metric's spread over seeds is the spread over traffic alone.
constexpr const char* kPacemaker = "pinned:lumiere";
constexpr const char* kCore = "chained-hotstuff";
constexpr std::uint64_t kScheduleSeed = 1;

void register_pinned_pacemaker() {
  runtime::ProtocolRegistry& registry = runtime::ProtocolRegistry::instance();
  if (registry.has_pacemaker(kPacemaker)) return;
  registry.register_pacemaker(kPacemaker, [](runtime::PacemakerContext&& ctx) {
    runtime::ProtocolConfig config = ctx.config;
    config.shared_seed = kScheduleSeed;
    return runtime::ProtocolRegistry::instance().make_pacemaker(
        "lumiere",
        runtime::PacemakerContext{ctx.params, ctx.self, ctx.signer, std::move(ctx.wiring), config});
  });
}

/// The faults workload's script. Every replica's commits slow down while
/// the partition or the crash lasts, so the windows are kept short: the
/// requests they delay stay a minority, the median measures the healthy
/// majority and the 99th percentile the faults, and neither sits on the
/// cliff between the two, where a few requests more or less move it.
struct Faults {
  TimePoint cut{Duration::millis(2000).ticks()};
  TimePoint heal{Duration::millis(3500).ticks()};
  TimePoint crash{Duration::millis(5000).ticks()};
  TimePoint recover{Duration::millis(6500).ticks()};
  ProcessId crashed = 6;
};

struct Plan {
  ScenarioBuilder builder;
  Duration run_for;
  TimePoint clients_stop;
  /// Requests a constant-rate generator owes over the run; 0 = untracked.
  double due = 0;
  std::optional<Faults> faults;
};

/// Run length for `seconds` of budget, at least `floor`: `sim_per_wall`
/// is the workload's simulated seconds per wall second on the reference
/// host (1 on TCP, whose simulated clock is the wall clock).
Duration sim_length(double seconds, double sim_per_wall, Duration floor) {
  const auto ms = static_cast<std::int64_t>(std::llround(seconds * sim_per_wall * 1000.0));
  return std::max(floor, Duration::millis(ms));
}

workload::WorkloadSpec request_spec(workload::Arrival arrival, TimePoint stop) {
  workload::WorkloadSpec spec;
  spec.arrival = arrival;
  spec.clients_per_node = kClientsPerNode;
  spec.request_bytes = 64;
  spec.stop = stop;
  spec.mempool.max_batch_bytes = 4096;
  // Deep enough to hold every request a minority node receives while it
  // is partitioned or crashed: nothing is shed, so nothing fails.
  spec.mempool.max_pending_count = 8192;
  spec.mempool.max_pending_bytes = 8192 * 128;
  return spec;
}

Plan make_plan(const RunConfig& config, std::uint16_t tcp_port) {
  const WorkloadInfo& w = *config.workload;
  const std::string name = w.name;
  Plan plan;
  ScenarioBuilder& b = plan.builder;
  register_pinned_pacemaker();
  b.params(ProtocolParams::for_n(w.n, kDelta, /*x=*/4))
      .pacemaker(config.timed ? timed_name(kPacemaker) : kPacemaker)
      .core(config.timed ? timed_name(kCore) : kCore)
      .auth_scheme(w.scheme)
      .seed(config.seed);
  const double clients = static_cast<double>(w.n * kClientsPerNode);

  if (w.tcp) {
    plan.run_for = sim_length(config.seconds, 1.0, Duration::seconds(4));
    plan.clients_stop = TimePoint(plan.run_for.ticks()) - kDrain;
    b.transport_tcp(tcp_port);
    if (name == "tcp-ed25519") {
      workload::WorkloadSpec spec = request_spec(workload::Arrival::kConstant, plan.clients_stop);
      spec.rate_per_client = kTcpRate / clients;
      plan.due = kTcpRate * plan.clients_stop.to_seconds();
      b.workload(spec);
    } else {
      workload::WorkloadSpec spec = request_spec(workload::Arrival::kClosedLoop, plan.clients_stop);
      spec.in_flight = kSaturateWindow;
      b.workload(spec);
    }
    return plan;
  }

  b.delay(std::make_shared<sim::FixedDelay>(kLinkDelay));
  if (name == "steady") {
    plan.run_for = sim_length(config.seconds, 1.0, Duration::seconds(5));
    plan.clients_stop = TimePoint(plan.run_for.ticks()) - kDrain;
    workload::WorkloadSpec spec = request_spec(workload::Arrival::kPoisson, plan.clients_stop);
    spec.rate_per_client = 3200.0 / clients;
    b.workload(spec);
  } else if (name == "byzantine") {
    plan.run_for = sim_length(config.seconds, 9.0, Duration::seconds(30));
    plan.clients_stop = TimePoint(plan.run_for.ticks()) - kByzantineDrain;
    workload::WorkloadSpec spec = request_spec(workload::Arrival::kPoisson, plan.clients_stop);
    spec.rate_per_client = kByzantineRatePerClient;
    b.workload(spec);
    const std::uint32_t f = (w.n - 1) / 3;
    workload::WorkloadSpec idle = spec;
    idle.clients_per_node = 0;
    std::vector<ProcessId> silent;
    for (ProcessId id = 0; id < f; ++id) {
      silent.push_back(id);
      b.node(id).workload(idle);
    }
    b.behaviors(adversary::byzantine_set(silent, [](ProcessId) {
      return std::make_unique<adversary::SilentLeaderBehavior>();
    }));
  } else {  // faults
    const Faults faults;
    plan.run_for = sim_length(config.seconds, 1.4, Duration::seconds(10));
    plan.clients_stop = TimePoint(plan.run_for.ticks()) - kDrain;
    workload::WorkloadSpec spec = request_spec(workload::Arrival::kPoisson, plan.clients_stop);
    spec.rate_per_client = 5600.0 / clients;
    b.workload(spec);
    b.dissemination();
    b.block_sync();
    // The majority {0..4} keeps its 5-node quorum through the cut.
    b.partition({{0, 1, 2, 3, 4}, {5, 6}}, faults.cut);
    b.heal(faults.heal);
    b.crash(faults.crashed, faults.crash);
    b.recover(faults.crashed, faults.recover);
    plan.faults = faults;
  }
  return plan;
}

/// Builds the cluster; on TCP, retries other port ranges while a bind fails.
std::unique_ptr<Cluster> build_cluster(const RunConfig& config, Plan& plan) {
  constexpr int kAttempts = 32;
  for (int attempt = 0;; ++attempt) {
    // Below the Linux ephemeral range, so outgoing connections never hold them.
    const auto slot = static_cast<std::uint16_t>((getpid() * 13 + attempt * 101) % 1500);
    plan = make_plan(config, static_cast<std::uint16_t>(20000 + slot * 8));
    if (!config.workload->tcp) return std::make_unique<Cluster>(plan.builder);
    try {
      return std::make_unique<Cluster>(plan.builder);
    } catch (const std::runtime_error&) {
      if (attempt + 1 == kAttempts) throw;
    }
  }
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
};

Usage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Usage{static_cast<double>(usage.ru_utime.tv_sec) + usage.ru_utime.tv_usec / 1e6,
               static_cast<double>(usage.ru_stime.tv_sec) + usage.ru_stime.tv_usec / 1e6};
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms(Duration d) { return static_cast<double>(d.ticks()) / 1000.0; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank percentile of `values` (p in (0, 1]); 0 when empty.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

bool any_honest_commit(const Cluster& cluster) {
  for (const ProcessId id : cluster.honest_ids()) {
    if (!cluster.node(id).ledger().empty()) return true;
  }
  return false;
}

std::size_t best_height(const Cluster& cluster, std::optional<ProcessId> except = std::nullopt) {
  std::size_t best = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    if (id != except) best = std::max(best, cluster.node(id).ledger().size());
  }
  return best;
}

void add_check(std::vector<Check>& checks, std::string name,
               const std::optional<std::string>& violation) {
  checks.push_back(Check{std::move(name), !violation.has_value(), violation.value_or("")});
}

/// First commit (on node 0) at or after `from` that orders a batch from
/// one of `origins`; nullopt when none.
std::optional<TimePoint> first_commit_from(const Cluster& cluster, TimePoint from,
                                           const std::vector<ProcessId>& origins) {
  for (const consensus::CommittedEntry& entry : cluster.node(0).ledger().entries()) {
    if (entry.committed_at < from) continue;
    const auto refs = dissem::decode_refs(
        std::span<const std::uint8_t>(entry.payload.data(), entry.payload.size()),
        cluster.auth().wire_spec());
    if (!refs) continue;
    for (const dissem::BatchCert& cert : *refs) {
      if (std::find(origins.begin(), origins.end(), cert.id().origin) != origins.end()) {
        return entry.committed_at;
      }
    }
  }
  return std::nullopt;
}

/// recovery_ms, catchup_ms and the checks that the faults' victims
/// recovered: the minority's batches commit after the heal, and the
/// crashed replica ends holding every block the honest ledgers settled.
void measure_faults(const Cluster& cluster, const Faults& faults, std::size_t height_at_recover,
                    TimePoint end, RunResult& result) {
  const std::optional<TimePoint> first = first_commit_from(cluster, faults.heal, {5, 6});
  result.metrics.set("recovery_ms", first ? ms(*first - faults.heal) : 0.0, "ms");
  add_check(result.checks, "minority_batches_commit_after_heal",
            first ? std::nullopt
                  : std::optional<std::string>("no batch from node 5 or 6 committed after heal"));
  const auto& entries = cluster.node(faults.crashed).ledger().entries();
  const bool caught_up = height_at_recover > 0 && entries.size() >= height_at_recover;
  result.metrics.set(
      "catchup_ms", caught_up ? ms(entries[height_at_recover - 1].committed_at - faults.recover) : 0.0,
      "ms");
  // Blocks committed in the last 100 ms may still be in flight to it.
  const TimePoint settled = end - Duration::millis(100);
  std::size_t settled_height = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    std::size_t h = 0;
    for (const auto& entry : cluster.node(id).ledger().entries()) {
      if (entry.committed_at <= settled) ++h;
    }
    settled_height = std::max(settled_height, h);
  }
  add_check(result.checks, "crashed_replica_caught_up",
            caught_up && entries.size() >= settled_height
                ? std::nullopt
                : std::optional<std::string>(
                      "replica " + std::to_string(faults.crashed) + " ended at height " +
                      std::to_string(entries.size()) + ", best settled honest height " +
                      std::to_string(settled_height)));
}

/// Per-layer calls and self times of a timed run. Sim: everything runs
/// on this thread, so wall time is the total; TCP: four driver threads,
/// so process CPU time is.
void measure_spans(double total_s, std::uint64_t events, RunResult& result) {
  const SpanTotals spans = span_totals();
  Metrics& out = result.spans;
  const double handlers_s = static_cast<double>(spans.root_ns) / 1e9;
  out.set("runtime.self_s", total_s - handlers_s, "s");
  out.set("sim.ns_per_event", ratio((total_s - handlers_s) * 1e9, static_cast<double>(events)),
          "ns");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string layer = layer_name(static_cast<Layer>(i));
    const LayerTotals& totals = spans.layers[i];
    const double self_s = static_cast<double>(totals.self_ns) / 1e9;
    out.set(layer + ".calls", static_cast<double>(totals.calls), "count");
    out.set(layer + ".self_s", self_s, "s");
    out.set(layer + ".us_per_call", ratio(self_s * 1e6, static_cast<double>(totals.calls)), "us");
  }
  // Self times partition the time inside timed calls: their sum equals
  // the root spans' summed duration unless the span stack is broken.
  const double error = std::abs(static_cast<double>(spans.self_ns_sum() - spans.root_ns));
  const double error_frac = ratio(error / 1e9, total_s);
  out.set("obs.self_time_error_frac", error_frac, "frac");
  add_check(result.checks, "span_self_times_sum",
            error_frac <= 0.01 && handlers_s <= total_s
                ? std::nullopt
                : std::optional<std::string>("layer self times do not partition the run"));
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"steady", 31, "hmac", false},
      {"byzantine", 64, "hmac", false},
      {"tcp-ed25519", 4, "ed25519", true},
      {"tcp-saturate", 4, "ed25519", true},
      {"faults", 7, "hmac", false},
  };
  return list;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::optional<double> time_setup(const RunConfig& config) {
  const bool tcp = config.workload->tcp;
  const Duration slice = tcp ? Duration::millis(2) : Duration::millis(1);
  const Duration bound = tcp ? Duration::seconds(10) : Duration::seconds(30);
  const double start = wall_now();
  Plan plan;
  const std::unique_ptr<Cluster> cluster = build_cluster(config, plan);
  for (Duration ran = Duration::zero(); ran < bound; ran += slice) {
    cluster->run_for(slice);
    if (any_honest_commit(*cluster)) return wall_now() - start;
  }
  return std::nullopt;
}

struct Run::State {
  RunConfig config;
  Plan plan;
  std::unique_ptr<Cluster> cluster;
  /// Simulated instants at which the slices end; the last is the run's end.
  std::vector<TimePoint> slice_ends;
  std::size_t next_slice = 0;
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  std::size_t height_at_recover = 0;

  /// Runs to `stop`, adding the time it took to the run's clocks.
  void run_until(TimePoint stop) {
    const Usage before = process_usage();
    const double wall_start = wall_now();
    cluster->run_until(stop);
    wall_s += wall_now() - wall_start;
    const Usage after = process_usage();
    user_s += after.user_s - before.user_s;
    sys_s += after.sys_s - before.sys_s;
  }
};

Run::Run(const RunConfig& config, int slices) : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = config;
  if (config.timed) {
    register_timed(kCore, kPacemaker);
    reset_spans(kRingCapacity);
  }
  s.cluster = build_cluster(config, s.plan);
  const std::int64_t end = s.plan.run_for.ticks();
  const std::int64_t count = config.workload->tcp ? 1 : std::max(1, slices);
  for (std::int64_t k = 1; k <= count; ++k) s.slice_ends.emplace_back(end * k / count);
}

Run::~Run() = default;

int Run::slices() const { return static_cast<int>(state_->slice_ends.size()); }

bool Run::done() const { return state_->next_slice == state_->slice_ends.size(); }

void Run::advance() {
  State& s = *state_;
  const TimePoint target = s.slice_ends.at(s.next_slice++);
  if (s.plan.faults && s.cluster->sim().now() < s.plan.faults->recover &&
      s.plan.faults->recover <= target) {
    s.run_until(s.plan.faults->recover);
    s.height_at_recover = best_height(*s.cluster, s.plan.faults->crashed);
  }
  s.run_until(target);
  if (done() && s.config.timed) flush_thread_spans();
}

RunResult Run::result() const {
  const State& s = *state_;
  const WorkloadInfo& w = *s.config.workload;
  const Plan& plan = s.plan;
  Cluster& cluster = *s.cluster;
  const TimePoint end(plan.run_for.ticks());

  RunResult result;
  result.wall_s = s.wall_s;
  result.cpu_s = s.user_s + s.sys_s;

  const workload::Report report = cluster.workload_report();
  const runtime::MetricsCollector& collector = cluster.metrics();
  const double committed = static_cast<double>(report.committed);
  const double submitted = static_cast<double>(report.submitted);
  result.attempted = report.submitted;
  result.failed = report.submitted > report.committed ? report.submitted - report.committed : 0;
  Metrics& out = result.metrics;

  // ---- end to end ----
  std::vector<double> latencies_ms;
  const Duration slo = w.tcp ? Duration::millis(50) : Duration::millis(250);
  std::uint64_t over_slo = 0;
  for (const auto& [at, latency] : report.latencies) {
    if (latency > slo) ++over_slo;
    if (at >= kWarmup && at < end) latencies_ms.push_back(ms(latency));
  }
  out.set("latency_p50_ms", percentile(latencies_ms, 0.50), "ms");
  out.set("latency_p99_ms", percentile(latencies_ms, 0.99), "ms");
  out.set("latency_samples", static_cast<double>(latencies_ms.size()), "count");
  out.set("committed_rps", report.committed_per_sec(kWarmup, plan.clients_stop), "req/s");
  out.set("cpu_us_per_req", ratio(result.cpu_s * 1e6, committed), "us");
  out.set("msgs_per_req", ratio(static_cast<double>(collector.total_honest_msgs()), committed),
          "msgs");
  out.set("bytes_per_req", ratio(static_cast<double>(collector.total_honest_bytes()), committed),
          "B");
  out.set("fail_frac", ratio(static_cast<double>(result.failed), submitted), "frac");
  out.set("slo_miss_frac", ratio(static_cast<double>(result.failed + over_slo), submitted), "frac");
  out.set("sim_speed", w.tcp ? 0.0 : ratio(end.to_seconds(), s.wall_s), "sim_s/s");
  const auto gap = collector.max_decision_gap(TimePoint::origin(), kDecisionWarmup);
  const auto msg_gap = collector.max_msg_gap(TimePoint::origin(), kDecisionWarmup);
  out.set("decision_gap_max_ms", gap ? ms(*gap) : 0.0, "ms");
  out.set("msgs_per_decision_max", msg_gap ? static_cast<double>(*msg_gap) : 0.0, "msgs");
  out.set("recovery_ms", 0.0, "ms");
  out.set("catchup_ms", 0.0, "ms");
  if (plan.faults) measure_faults(cluster, *plan.faults, s.height_at_recover, end, result);

  // ---- layers: counts from the library's own accounting ----
  // A TCP node's private simulator is out of reach, so TCP reports 0.
  const std::uint64_t events = w.tcp ? 0 : cluster.sim().events_executed();
  out.set("sim.events", static_cast<double>(events), "count");
  const double decisions = static_cast<double>(collector.decisions().size());
  out.set("consensus.msgs_per_req",
          ratio(static_cast<double>(collector.consensus_msgs()), committed), "msgs");
  out.set("pacemaker.msgs_per_decision",
          ratio(static_cast<double>(collector.pacemaker_msgs()), decisions), "msgs");
  obs::LedgerSummary sync;
  std::uint64_t episodes = 0;
  crypto::AuthOpSnapshot auth;
  if (const obs::SyncTracer* tracer = cluster.sync_tracer()) {
    // The ring keeps the newest spans; the counts include the dropped ones.
    sync = obs::ComplexityLedger::summarize(tracer->completed_spans());
    episodes = tracer->completed_count() + tracer->dropped_spans();
    for (ProcessId id = 0; id < cluster.n(); ++id) auth = auth + tracer->auth_snapshot(id);
  }
  out.set("pacemaker.sync_episodes", static_cast<double>(episodes), "count");
  out.set("pacemaker.sync_msgs_p95", sync.msgs.p95, "msgs");
  out.set("pacemaker.sync_ms_p95", sync.duration_us.p95 / 1000.0, "ms");
  out.set("crypto.signs_per_req", ratio(static_cast<double>(auth.signs + auth.shares), committed),
          "ops");
  out.set("crypto.share_verifies_per_req",
          ratio(static_cast<double>(auth.share_verifies + auth.verifies), committed), "ops");
  out.set("crypto.aggregate_verifies_per_req",
          ratio(static_cast<double>(auth.aggregate_verifies), committed), "ops");
  out.set("transport.sys_s", s.sys_s, "s");

  const double due = plan.due > 0 ? plan.due : submitted;
  out.set("workload.gen_deficit_frac", 1.0 - ratio(submitted, due), "frac");
  out.set("workload.shed_frac", ratio(static_cast<double>(report.shed), submitted), "frac");
  out.set("workload.requeued", static_cast<double>(report.requeued), "count");
  std::vector<double> depths;
  for (const auto& sample : collector.queue_depth_log()) {
    depths.push_back(static_cast<double>(sample.depth));
  }
  out.set("mempool.depth_max", static_cast<double>(report.max_queue_depth), "count");
  out.set("mempool.depth_p99", percentile(depths, 0.99), "count");

  const double certified = static_cast<double>(collector.batches_certified());
  std::uint64_t reinserted = 0;
  std::uint64_t fetches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    const runtime::Node& node = cluster.node(id);
    if (const dissem::Disseminator* d = node.disseminator()) reinserted += d->refs_reinserted();
    if (const sync::BlockSynchronizer* s = node.synchronizer()) {
      fetches += s->fetches_sent();
      accepted += s->blocks_accepted();
      rejected += s->responses_rejected();
    }
  }
  out.set("dissem.msgs_per_req", ratio(static_cast<double>(collector.dissem_msgs()), committed),
          "msgs");
  out.set("dissem.bytes_per_req", ratio(static_cast<double>(collector.dissem_bytes()), committed),
          "B");
  out.set("dissem.batches_certified", certified, "count");
  out.set("dissem.reqs_per_batch", ratio(committed, certified), "reqs");
  const auto cert_p50 = collector.batch_cert_latency_percentile(0.50);
  out.set("dissem.cert_p50_ms", cert_p50 ? ms(*cert_p50) : 0.0, "ms");
  out.set("dissem.refs_reinserted", static_cast<double>(reinserted), "count");
  out.set("sync.fetches_sent", static_cast<double>(fetches), "count");
  out.set("sync.blocks_accepted", static_cast<double>(accepted), "count");
  out.set("sync.responses_rejected", static_cast<double>(rejected), "count");
  out.set("sync.msgs", static_cast<double>(collector.sync_msgs()), "msgs");

  if (s.config.timed) measure_spans(w.tcp ? result.cpu_s : s.wall_s, events, result);

  // ---- correctness ----
  add_check(result.checks, "safety", fuzz::check_safety(cluster));
  add_check(result.checks, "exactly_once", fuzz::check_exactly_once(cluster));
  add_check(result.checks, "no_commit_misses",
            report.commit_misses == 0
                ? std::nullopt
                : std::optional<std::string>(std::to_string(report.commit_misses) +
                                             " commits matched no submission"));
  add_check(result.checks, "requests_committed",
            report.committed > 0 ? std::nullopt
                                 : std::optional<std::string>("no request committed"));
  if (std::string(w.name) == "byzantine") {
    const std::size_t after_warmup = collector.decisions().size() > kDecisionWarmup
                                         ? collector.decisions().size() - kDecisionWarmup
                                         : 0;
    add_check(result.checks, "decisions_after_warmup",
              after_warmup >= 30 ? std::nullopt
                                 : std::optional<std::string>(std::to_string(after_warmup) +
                                                              " decisions after warmup, need 30"));
  }

  if (!w.tcp) {
    result.fingerprint = {
        {"sim.events", static_cast<double>(events)},
        {"committed", committed},
        {"decisions", decisions},
        {"msgs", static_cast<double>(collector.total_honest_msgs())},
        {"bytes", static_cast<double>(collector.total_honest_bytes())},
        {"latency_p50_ms", out.find("latency_p50_ms")->value},
        {"latency_p99_ms", out.find("latency_p99_ms")->value},
        {"decision_gap_max_ms", out.find("decision_gap_max_ms")->value},
        {"recovery_ms", out.find("recovery_ms")->value},
        {"catchup_ms", out.find("catchup_ms")->value},
    };
  }
  return result;
}

}  // namespace lumiere::e2e
