#include "fuzz/fuzz_case.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/rng.h"

namespace lumiere::fuzz {
namespace {

// Every instant in a case scales with Delta so WAN cases (Delta up to
// 200ms) get proportionally longer windows than LAN cases: `scaled(ms)`
// is `ms` milliseconds at the baseline Delta of 10ms.
constexpr std::int64_t kBaselineDeltaUs = 10'000;

/// The non-honest behaviors the sampler assigns (adversary::make_behavior
/// names).
const char* const kByzFlavors[] = {"mute", "silent-leader", "qc-withholder", "equivocator"};

struct Sampler {
  Rng rng;
  FuzzCase& c;
  runtime::ScenarioSpec& spec;  ///< c.spec
  std::int64_t scale = 1;       ///< delta_cap / baseline (>= 1)

  [[nodiscard]] std::int64_t scaled_ms(std::int64_t ms) const { return ms * 1000 * scale; }

  [[nodiscard]] std::int64_t in_range(std::int64_t lo, std::int64_t hi) {
    return rng.next_in(lo, hi);
  }

  template <typename T, std::size_t N>
  [[nodiscard]] const T& pick(const T (&options)[N]) {
    return options[rng.next_below(N)];
  }
};

void sample_protocol(Sampler& s) {
  const char* const pacemakers[] = {"lumiere",  "basic-lumiere", "lp22",
                                    "fever",    "raresync",      "cogsworth",
                                    "nk20",     "round-robin"};
  s.spec.protocol.pacemaker = s.pick(pacemakers);
  const std::uint64_t core_die = s.rng.next_below(10);
  s.spec.protocol.core =
      core_die < 5 ? "chained-hotstuff" : (core_die < 8 ? "hotstuff-2" : "simple-view");

  const std::uint64_t n_die = s.rng.next_below(10);
  const std::uint32_t n = n_die < 6 ? 4 : (n_die < 9 ? 7 : 10);
  s.spec.params = ProtocolParams::for_n(n, Duration(kBaselineDeltaUs));
}

void sample_network(Sampler& s) {
  FuzzCase& c = s.c;
  runtime::ScenarioSpec& spec = s.spec;
  // Dice 0..6 keep no preset (a sampled policy below) and the baseline
  // Delta sample_protocol set.
  const std::uint64_t topo_die = s.rng.next_below(10);
  if (topo_die == 7) {
    spec.topology = "lan";
  } else if (topo_die == 8) {
    spec.topology = "wan3";
    spec.params.delta_cap = Duration::millis(100);  // preset worst one-way 65ms < Delta
  } else if (topo_die == 9) {
    spec.topology = "wan5";
    spec.params.delta_cap = Duration::millis(200);  // preset worst one-way 155ms < Delta
  }
  s.scale = spec.params.delta_cap.ticks() / kBaselineDeltaUs;

  spec.gst = TimePoint(s.rng.next_bool(0.5) ? 0 : s.in_range(0, s.scaled_ms(600)));
  spec.join_stagger = Duration((spec.protocol.pacemaker == "fever" || s.rng.next_bool(0.5))
                                   ? 0
                                   : s.in_range(0, s.scaled_ms(300)));
  spec.drift_ppm_max = s.rng.next_bool(0.5) ? 0 : s.in_range(10, 200);

  if (!spec.topology.empty()) {
    c.delay_desc = "topology:" + spec.topology;  // the preset is the policy
    return;
  }
  const Duration delta = spec.params.delta_cap;
  const std::uint64_t die = s.rng.next_below(10);
  std::ostringstream desc;
  if (die < 2 && !c.committing_core()) {
    // Worst permitted: every message at exactly max(GST, t) + Delta.
    // Simple-view only: when every hop sits on the bound forever, the
    // chained cores' consecutive-view commit rule starves (QCs form in
    // every view but never in adjacent ones), so commit liveness is not a
    // theorem there — decision liveness (what simple-view is checked on)
    // is.
    desc << "worst";
  } else if (die < 5) {
    const Duration d(s.in_range(delta.ticks() / 20, delta.ticks() / 2));
    spec.delay = std::make_shared<sim::FixedDelay>(d);
    desc << "fixed(" << d.ticks() << "us)";
  } else if (die < 8 || spec.gst == TimePoint::origin()) {
    const Duration lo(s.in_range(0, delta.ticks() / 10));
    const Duration hi(s.in_range(lo.ticks() + 1, delta.ticks() / 2));
    spec.delay = std::make_shared<sim::UniformDelay>(lo, hi);
    desc << "uniform(" << lo.ticks() << "us," << hi.ticks() << "us)";
  } else {
    const Duration lo(s.in_range(0, delta.ticks() / 20));
    const Duration hi(s.in_range(lo.ticks() + 1, delta.ticks() / 2));
    const Duration chaos(delta.ticks() * 10);
    spec.delay = std::make_shared<sim::PreGstChaosDelay>(spec.gst, lo, hi, chaos);
    desc << "pre-gst-chaos(" << lo.ticks() << "us," << hi.ticks() << "us)";
  }
  c.delay_desc = desc.str();
}

/// Splits a random subset of the cluster into `groups` non-empty groups
/// (nodes outside the subset stay ungrouped = fully connected).
std::vector<std::vector<ProcessId>> sample_groups(Sampler& s, std::uint32_t groups) {
  const std::uint32_t n = s.spec.params.n;
  std::vector<std::uint32_t> perm = s.rng.permutation(n);
  // Grouping everyone 70% of the time; otherwise leave a random tail out.
  std::uint32_t m = n;
  if (s.rng.next_bool(0.3) && n > groups) {
    m = static_cast<std::uint32_t>(s.in_range(groups, n));
  }
  std::vector<std::vector<ProcessId>> out(groups);
  // First one member each (non-empty), then the rest uniformly.
  for (std::uint32_t g = 0; g < groups; ++g) out[g].push_back(perm[g]);
  for (std::uint32_t i = groups; i < m; ++i) {
    out[s.rng.next_below(groups)].push_back(perm[i]);
  }
  for (auto& group : out) std::sort(group.begin(), group.end());
  return out;
}

/// A delay policy for scripted delay_change / link_delay episodes. For
/// committing cores the ceiling stays at Delta/2 — a permanent regime at
/// the exact Delta bound starves the consecutive-view commit rule (see
/// sample_network); simple-view runs get the full adversarial range.
std::shared_ptr<sim::DelayPolicy> sample_episode_policy(Sampler& s) {
  const Duration delta = s.spec.params.delta_cap;
  const std::int64_t cap = s.c.committing_core() ? delta.ticks() / 2 : delta.ticks();
  switch (s.rng.next_below(3)) {
    case 0:
      if (!s.c.committing_core()) return nullptr;  // worst permitted
      return std::make_shared<sim::FixedDelay>(Duration(cap));
    case 1:
      return std::make_shared<sim::FixedDelay>(
          Duration(s.in_range(delta.ticks() / 10, cap)));
    default: {
      const Duration lo(s.in_range(0, delta.ticks() / 4));
      return std::make_shared<sim::UniformDelay>(
          lo, Duration(s.in_range(lo.ticks() + 1, std::max<std::int64_t>(cap, lo.ticks() + 2))));
    }
  }
}

sim::FaultEvent make_event(sim::FaultKind kind, std::int64_t at_us) {
  sim::FaultEvent event;
  event.at = TimePoint(at_us);
  event.kind = kind;
  return event;
}

void sample_faults_and_behaviors(Sampler& s) {
  FuzzCase& c = s.c;
  runtime::ScenarioSpec& spec = s.spec;
  const std::uint32_t n = spec.params.n;
  const std::uint32_t f = spec.params.f;

  // Fault budget: the ever-faulty set — Byzantine assignments, scheduled
  // flip-ins AND crash/churn victims (a down processor LOSES inbound
  // messages, which breaks the reliable-channel assumption exactly like a
  // fault) — never exceeds f, so at least 2f+1 processors stay correct
  // for the whole run and post-disruption liveness is a theorem. A random
  // prefix of a node permutation keeps assignments distinct.
  const std::vector<std::uint32_t> byz_perm = s.rng.permutation(n);
  const auto initial = static_cast<std::uint32_t>(s.in_range(0, f));
  const auto reserve = static_cast<std::uint32_t>(s.in_range(0, f - initial));
  std::set<ProcessId> faulted;
  for (std::uint32_t i = 0; i < initial; ++i) {
    spec.byzantine.push_back(BehaviorAssignment{byz_perm[i], s.pick(kByzFlavors)});
    faulted.insert(byz_perm[i]);
  }
  std::vector<ProcessId> flip_candidates;  // honest now, may turn Byzantine
  for (std::uint32_t i = initial; i < initial + reserve; ++i) {
    flip_candidates.push_back(byz_perm[i]);
    faulted.insert(byz_perm[i]);
  }
  // Crash/churn victims come from here: a fresh node while the budget
  // lasts, an already-faulty one afterwards (re-crashing a Byzantine or
  // previously crashed node costs nothing extra).
  const auto pick_faultable = [&s, &faulted, n, f]() -> ProcessId {
    if (faulted.size() < f) {
      const auto node = static_cast<ProcessId>(s.rng.next_below(n));
      faulted.insert(node);
      return node;
    }
    const std::vector<ProcessId> pool(faulted.begin(), faulted.end());
    return pool[s.rng.next_below(pool.size())];
  };

  // Episodes occupy disjoint slots so a behavior change never lands on a
  // node that is down at that instant and every window closes before the
  // next opens. All times scale with Delta.
  const std::int64_t lead = s.scaled_ms(500);
  const std::int64_t slot = s.scaled_ms(1'500);
  const auto episodes = static_cast<std::int64_t>(s.rng.next_below(4));  // 0..3
  for (std::int64_t e = 0; e < episodes; ++e) {
    const std::int64_t start = lead + e * slot;
    const std::int64_t end = start + s.in_range(s.scaled_ms(900), s.scaled_ms(1'200));
    std::uint64_t die = s.rng.next_below(20);
    // Behavior-change episodes need a target; fall back to a crash window.
    const bool can_flip = !flip_candidates.empty() || !spec.byzantine.empty();
    if (die >= 17 && !can_flip) die = 9;
    if (die < 4) {  // symmetric partition window
      auto cut = make_event(sim::FaultKind::kPartition, start);
      cut.groups = sample_groups(s, n >= 6 && s.rng.next_bool(0.3) ? 3 : 2);
      spec.schedule.events.push_back(std::move(cut));
      spec.schedule.events.push_back(make_event(sim::FaultKind::kHeal, end));
    } else if (die < 8) {  // asymmetric one-way cut window
      auto groups = sample_groups(s, 2);
      auto cut = make_event(sim::FaultKind::kAsymPartition, start);
      cut.groups = std::move(groups);
      spec.schedule.events.push_back(std::move(cut));
      spec.schedule.events.push_back(make_event(sim::FaultKind::kHeal, end));
    } else if (die < 11) {  // crash window
      auto crash = make_event(sim::FaultKind::kCrash, start);
      crash.node = pick_faultable();
      auto recover = make_event(sim::FaultKind::kRecover, end);
      recover.node = crash.node;
      spec.schedule.events.push_back(std::move(crash));
      spec.schedule.events.push_back(std::move(recover));
    } else if (die < 13) {  // churn window
      auto leave = make_event(sim::FaultKind::kLeave, start);
      leave.node = pick_faultable();
      auto rejoin = make_event(sim::FaultKind::kRejoin, end);
      rejoin.node = leave.node;
      spec.schedule.events.push_back(std::move(leave));
      spec.schedule.events.push_back(std::move(rejoin));
    } else if (die < 15) {  // global delay-policy change (permanent)
      auto change = make_event(sim::FaultKind::kDelayChange, start);
      change.delay = sample_episode_policy(s);
      spec.schedule.events.push_back(std::move(change));
    } else if (die < 17) {  // one directed link degraded, then restored
      auto slow = make_event(sim::FaultKind::kLinkDelay, start);
      slow.node = static_cast<ProcessId>(s.rng.next_below(n));
      do {
        slow.peer = static_cast<ProcessId>(s.rng.next_below(n));
      } while (slow.peer == slow.node);
      auto restore = make_event(sim::FaultKind::kLinkDelay, end);
      restore.node = slow.node;
      restore.peer = slow.peer;
      restore.delay = nullptr;  // back to the global policy
      slow.delay = sample_episode_policy(s);
      if (slow.delay == nullptr) {
        // For kLinkDelay a null policy means "restore", not "worst" —
        // spell the worst case out so the degradation actually happens.
        slow.delay = std::make_shared<sim::FixedDelay>(spec.params.delta_cap);
      }
      spec.schedule.events.push_back(std::move(slow));
      spec.schedule.events.push_back(std::move(restore));
    } else {  // scheduled behavior change
      auto change = make_event(sim::FaultKind::kBehaviorChange, start);
      const bool flip_new = !flip_candidates.empty() &&
                            (spec.byzantine.empty() || s.rng.next_bool(0.5));
      if (flip_new) {
        change.node = flip_candidates.back();
        flip_candidates.pop_back();
        change.behavior = s.pick(kByzFlavors);
      } else {
        // Re-script an already-Byzantine node: new flavor or repentance.
        const auto& victim = spec.byzantine[s.rng.next_below(spec.byzantine.size())];
        change.node = victim.node;
        change.behavior = s.rng.next_bool(0.3) ? "honest" : s.pick(kByzFlavors);
      }
      spec.schedule.events.push_back(std::move(change));
    }
  }

  c.disruption_end_us = std::max(lead + episodes * slot, spec.gst.ticks());
  c.liveness_bound_us = s.scaled_ms(30'000);
}

void sample_workload(Sampler& s) {
  FuzzCase& c = s.c;
  if (!c.committing_core() || s.rng.next_bool(0.5)) return;  // no workload
  workload::WorkloadSpec spec;
  spec.clients_per_node = static_cast<std::uint32_t>(s.in_range(1, 2));
  spec.request_bytes = static_cast<std::size_t>(s.in_range(32, 96));
  const std::uint64_t die = s.rng.next_below(10);
  if (die < 6) {
    spec.arrival = workload::Arrival::kClosedLoop;
    spec.in_flight = static_cast<std::uint32_t>(s.in_range(1, 4));
  } else {
    spec.arrival = die < 8 ? workload::Arrival::kConstant : workload::Arrival::kPoisson;
    spec.rate_per_client = static_cast<double>(s.in_range(20, 80)) / s.scale;
  }
  spec.stop = TimePoint(c.disruption_end_us);
  s.spec.workload = spec;
}

}  // namespace

FuzzCase sample_case(std::uint64_t seed) {
  FuzzCase c;
  c.spec.seed = seed;
  Sampler s{Rng(seed ^ 0x46555a5aULL), c, c.spec};  // "FUZZ"
  sample_protocol(s);
  sample_network(s);
  sample_faults_and_behaviors(s);
  sample_workload(s);
  // Sampled last so earlier seeds' draw sequences (and thus their
  // replayed cases) are unchanged by the dissemination dimension.
  if (c.spec.workload && s.rng.next_bool(0.5)) c.spec.dissem = true;
  return c;
}

std::string describe(const FuzzCase& c) {
  const runtime::ScenarioSpec& spec = c.spec;
  std::ostringstream out;
  out << "seed=" << spec.seed << " n=" << spec.params.n << " " << c.protocol_combo()
      << " delay=" << c.delay_desc << " delta=" << spec.params.delta_cap.ticks()
      << "us gst=" << spec.gst.ticks() << "us stagger=" << spec.join_stagger.ticks()
      << "us drift=" << spec.drift_ppm_max << "ppm";
  if (spec.workload) {
    out << " workload=" << workload::to_string(spec.workload->arrival) << "x"
        << spec.workload->clients_per_node;
  }
  out << " dissem=" << (spec.dissem ? "on" : "off");
  out << " behaviors=[";
  for (std::size_t i = 0; i < spec.byzantine.size(); ++i) {
    if (i > 0) out << ", ";
    out << "p" << spec.byzantine[i].node << ":" << spec.byzantine[i].behavior;
  }
  out << "] events=[";
  for (std::size_t i = 0; i < spec.schedule.events.size(); ++i) {
    if (i > 0) out << ", ";
    out << sim::FaultSchedule::describe(spec.schedule.events[i]);
  }
  out << "]";
  return out.str();
}

}  // namespace lumiere::fuzz
