#include "fuzz/fuzz_case.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "adversary/behaviors.h"
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
  std::int64_t scale = 1;  ///< delta_cap / baseline (>= 1)

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
  s.c.pacemaker = s.pick(pacemakers);
  const std::uint64_t core_die = s.rng.next_below(10);
  s.c.core = core_die < 5 ? "chained-hotstuff" : (core_die < 8 ? "hotstuff-2" : "simple-view");

  const std::uint64_t n_die = s.rng.next_below(10);
  s.c.n = n_die < 6 ? 4 : (n_die < 9 ? 7 : 10);
}

void sample_network(Sampler& s) {
  FuzzCase& c = s.c;
  const std::uint64_t topo_die = s.rng.next_below(10);
  if (topo_die < 7) {
    c.topology.clear();
    c.delta_cap_us = kBaselineDeltaUs;
  } else if (topo_die == 7) {
    c.topology = "lan";
    c.delta_cap_us = kBaselineDeltaUs;
  } else if (topo_die == 8) {
    c.topology = "wan3";
    c.delta_cap_us = 100'000;  // preset worst one-way 65ms < Delta
  } else {
    c.topology = "wan5";
    c.delta_cap_us = 200'000;  // preset worst one-way 155ms < Delta
  }
  s.scale = c.delta_cap_us / kBaselineDeltaUs;

  c.gst_us = s.rng.next_bool(0.5) ? 0 : s.in_range(0, s.scaled_ms(600));
  c.join_stagger_us =
      (c.pacemaker == "fever" || s.rng.next_bool(0.5)) ? 0 : s.in_range(0, s.scaled_ms(300));
  c.drift_ppm_max = s.rng.next_bool(0.5) ? 0 : s.in_range(10, 200);

  if (!c.topology.empty()) {
    c.delay = nullptr;  // the preset is the policy (resolved by the builder)
    c.delay_desc = "topology:" + c.topology;
    return;
  }
  const Duration delta(c.delta_cap_us);
  const std::uint64_t die = s.rng.next_below(10);
  std::ostringstream desc;
  if (die < 2 && !c.committing_core()) {
    // Worst permitted: every message at exactly max(GST, t) + Delta.
    // Simple-view only: when every hop sits on the bound forever, the
    // chained cores' consecutive-view commit rule starves (QCs form in
    // every view but never in adjacent ones), so commit liveness is not a
    // theorem there — decision liveness (what simple-view is checked on)
    // is.
    c.delay = nullptr;
    desc << "worst";
  } else if (die < 5) {
    const Duration d(s.in_range(delta.ticks() / 20, delta.ticks() / 2));
    c.delay = std::make_shared<sim::FixedDelay>(d);
    desc << "fixed(" << d.ticks() << "us)";
  } else if (die < 8 || c.gst_us == 0) {
    const Duration lo(s.in_range(0, delta.ticks() / 10));
    const Duration hi(s.in_range(lo.ticks() + 1, delta.ticks() / 2));
    c.delay = std::make_shared<sim::UniformDelay>(lo, hi);
    desc << "uniform(" << lo.ticks() << "us," << hi.ticks() << "us)";
  } else {
    const Duration lo(s.in_range(0, delta.ticks() / 20));
    const Duration hi(s.in_range(lo.ticks() + 1, delta.ticks() / 2));
    const Duration chaos(delta.ticks() * 10);
    c.delay = std::make_shared<sim::PreGstChaosDelay>(TimePoint(c.gst_us), lo, hi, chaos);
    desc << "pre-gst-chaos(" << lo.ticks() << "us," << hi.ticks() << "us)";
  }
  c.delay_desc = desc.str();
}

/// Splits a random subset of the cluster into `groups` non-empty groups
/// (nodes outside the subset stay ungrouped = fully connected).
std::vector<std::vector<ProcessId>> sample_groups(Sampler& s, std::uint32_t groups) {
  const std::uint32_t n = s.c.n;
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
  const Duration delta(s.c.delta_cap_us);
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
  const std::uint32_t f = (c.n - 1) / 3;

  // Fault budget: the ever-faulty set — Byzantine assignments, scheduled
  // flip-ins AND crash/churn victims (a down processor LOSES inbound
  // messages, which breaks the reliable-channel assumption exactly like a
  // fault) — never exceeds f, so at least 2f+1 processors stay correct
  // for the whole run and post-disruption liveness is a theorem. A random
  // prefix of a node permutation keeps assignments distinct.
  const std::vector<std::uint32_t> byz_perm = s.rng.permutation(c.n);
  const auto initial = static_cast<std::uint32_t>(s.in_range(0, f));
  const auto reserve = static_cast<std::uint32_t>(s.in_range(0, f - initial));
  std::set<ProcessId> faulted;
  for (std::uint32_t i = 0; i < initial; ++i) {
    c.behaviors.push_back(BehaviorAssignment{byz_perm[i], s.pick(kByzFlavors)});
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
  const auto pick_faultable = [&s, &faulted, f]() -> ProcessId {
    if (faulted.size() < f) {
      const auto node = static_cast<ProcessId>(s.rng.next_below(s.c.n));
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
    const bool can_flip = !flip_candidates.empty() || !c.behaviors.empty();
    if (die >= 17 && !can_flip) die = 9;
    if (die < 4) {  // symmetric partition window
      auto cut = make_event(sim::FaultKind::kPartition, start);
      cut.groups = sample_groups(s, c.n >= 6 && s.rng.next_bool(0.3) ? 3 : 2);
      c.schedule.events.push_back(std::move(cut));
      c.schedule.events.push_back(make_event(sim::FaultKind::kHeal, end));
    } else if (die < 8) {  // asymmetric one-way cut window
      auto groups = sample_groups(s, 2);
      auto cut = make_event(sim::FaultKind::kAsymPartition, start);
      cut.groups = std::move(groups);
      c.schedule.events.push_back(std::move(cut));
      c.schedule.events.push_back(make_event(sim::FaultKind::kHeal, end));
    } else if (die < 11) {  // crash window
      auto crash = make_event(sim::FaultKind::kCrash, start);
      crash.node = pick_faultable();
      auto recover = make_event(sim::FaultKind::kRecover, end);
      recover.node = crash.node;
      c.schedule.events.push_back(std::move(crash));
      c.schedule.events.push_back(std::move(recover));
    } else if (die < 13) {  // churn window
      auto leave = make_event(sim::FaultKind::kLeave, start);
      leave.node = pick_faultable();
      auto rejoin = make_event(sim::FaultKind::kRejoin, end);
      rejoin.node = leave.node;
      c.schedule.events.push_back(std::move(leave));
      c.schedule.events.push_back(std::move(rejoin));
    } else if (die < 15) {  // global delay-policy change (permanent)
      auto change = make_event(sim::FaultKind::kDelayChange, start);
      change.delay = sample_episode_policy(s);
      c.schedule.events.push_back(std::move(change));
    } else if (die < 17) {  // one directed link degraded, then restored
      auto slow = make_event(sim::FaultKind::kLinkDelay, start);
      slow.node = static_cast<ProcessId>(s.rng.next_below(c.n));
      do {
        slow.peer = static_cast<ProcessId>(s.rng.next_below(c.n));
      } while (slow.peer == slow.node);
      auto restore = make_event(sim::FaultKind::kLinkDelay, end);
      restore.node = slow.node;
      restore.peer = slow.peer;
      restore.delay = nullptr;  // back to the global policy
      slow.delay = sample_episode_policy(s);
      if (slow.delay == nullptr) {
        // For kLinkDelay a null policy means "restore", not "worst" —
        // spell the worst case out so the degradation actually happens.
        slow.delay = std::make_shared<sim::FixedDelay>(Duration(c.delta_cap_us));
      }
      c.schedule.events.push_back(std::move(slow));
      c.schedule.events.push_back(std::move(restore));
    } else {  // scheduled behavior change
      auto change = make_event(sim::FaultKind::kBehaviorChange, start);
      const bool flip_new = !flip_candidates.empty() &&
                            (c.behaviors.empty() || s.rng.next_bool(0.5));
      if (flip_new) {
        change.node = flip_candidates.back();
        flip_candidates.pop_back();
        change.behavior = s.pick(kByzFlavors);
      } else {
        // Re-script an already-Byzantine node: new flavor or repentance.
        const auto& victim = c.behaviors[s.rng.next_below(c.behaviors.size())];
        change.node = victim.node;
        change.behavior = s.rng.next_bool(0.3) ? "honest" : s.pick(kByzFlavors);
      }
      c.schedule.events.push_back(std::move(change));
    }
  }

  c.disruption_end_us = std::max(lead + episodes * slot, c.gst_us);
  c.liveness_bound_us = s.scaled_ms(30'000);
}

void sample_workload(Sampler& s) {
  FuzzCase& c = s.c;
  if (!c.committing_core() || s.rng.next_bool(0.5)) return;  // no workload
  c.workload.clients = static_cast<std::uint32_t>(s.in_range(1, 2));
  c.workload.request_bytes = static_cast<std::size_t>(s.in_range(32, 96));
  const std::uint64_t die = s.rng.next_below(10);
  if (die < 6) {
    c.workload.arrival = workload::Arrival::kClosedLoop;
    c.workload.in_flight = static_cast<std::uint32_t>(s.in_range(1, 4));
  } else {
    c.workload.arrival =
        die < 8 ? workload::Arrival::kConstant : workload::Arrival::kPoisson;
    c.workload.rate_per_client = static_cast<double>(s.in_range(20, 80)) / s.scale;
  }
}

}  // namespace

FuzzCase sample_case(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  Sampler s{Rng(seed ^ 0x46555a5aULL), c};  // "FUZZ"
  sample_protocol(s);
  sample_network(s);
  sample_faults_and_behaviors(s);
  sample_workload(s);
  // Sampled last so earlier seeds' draw sequences (and thus their
  // replayed cases) are unchanged by the dissemination dimension.
  if (c.workload.clients > 0) c.dissem = s.rng.next_bool(0.5);
  return c;
}

runtime::ScenarioBuilder to_builder(const FuzzCase& c) {
  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(c.n, Duration(c.delta_cap_us)));
  builder.pacemaker(c.pacemaker);
  builder.core(c.core);
  builder.seed(c.seed);
  builder.gst(TimePoint(c.gst_us));
  if (!c.topology.empty()) {
    builder.topology(c.topology);
  } else {
    builder.delay(c.delay);
  }
  if (c.join_stagger_us > 0) builder.join_stagger(Duration(c.join_stagger_us));
  if (c.drift_ppm_max > 0) builder.drift_ppm_max(c.drift_ppm_max);

  if (!c.behaviors.empty()) {
    std::vector<ProcessId> chosen;
    std::map<ProcessId, std::string> flavor;
    for (const BehaviorAssignment& assignment : c.behaviors) {
      chosen.push_back(assignment.node);
      flavor[assignment.node] = assignment.behavior;
    }
    builder.behaviors(adversary::byzantine_set(
        std::move(chosen), [flavor](ProcessId id) { return adversary::make_behavior(flavor.at(id)); }));
  }

  if (c.workload.clients > 0) {
    workload::WorkloadSpec spec;
    spec.arrival = c.workload.arrival;
    spec.clients_per_node = c.workload.clients;
    spec.rate_per_client = c.workload.rate_per_client;
    spec.in_flight = c.workload.in_flight;
    spec.request_bytes = c.workload.request_bytes;
    spec.stop = TimePoint(c.disruption_end_us);
    builder.workload(spec);
    if (c.dissem) builder.dissemination();
  }

  // Replay the schedule through the builder API. Leave/rejoin pairs are
  // re-expressed as churn() (the builder's one churn declaration emits
  // both events); a rejoin consumed this way is skipped when reached.
  std::vector<bool> consumed(c.schedule.events.size(), false);
  for (std::size_t i = 0; i < c.schedule.events.size(); ++i) {
    if (consumed[i]) continue;
    const sim::FaultEvent& event = c.schedule.events[i];
    switch (event.kind) {
      case sim::FaultKind::kPartition:
        builder.partition(event.groups, event.at);
        break;
      case sim::FaultKind::kAsymPartition:
        builder.asym_partition(event.groups[0], event.groups[1], event.at);
        break;
      case sim::FaultKind::kHeal:
        builder.heal(event.at);
        break;
      case sim::FaultKind::kCrash:
        builder.crash(event.node, event.at);
        break;
      case sim::FaultKind::kRecover:
        builder.recover(event.node, event.at);
        break;
      case sim::FaultKind::kLeave: {
        std::size_t rejoin = i;
        for (std::size_t j = i + 1; j < c.schedule.events.size(); ++j) {
          if (c.schedule.events[j].kind == sim::FaultKind::kRejoin &&
              c.schedule.events[j].node == event.node && !consumed[j]) {
            rejoin = j;
            break;
          }
        }
        if (rejoin != i) {
          consumed[rejoin] = true;
          builder.churn(event.node, event.at, c.schedule.events[rejoin].at);
        } else {
          builder.crash(event.node, event.at);  // shrunk away its rejoin
        }
        break;
      }
      case sim::FaultKind::kRejoin:
        builder.recover(event.node, event.at);  // lone rejoin (shrunk leave)
        break;
      case sim::FaultKind::kDelayChange:
        builder.delay_change(event.delay, event.at);
        break;
      case sim::FaultKind::kLinkDelay:
        builder.link_delay(event.node, event.peer, event.delay, event.at);
        break;
      case sim::FaultKind::kBehaviorChange:
        builder.behavior_change(event.node, event.behavior, event.at);
        break;
    }
  }
  return builder;
}

std::string describe(const FuzzCase& c) {
  std::ostringstream out;
  out << "seed=" << c.seed << " n=" << c.n << " " << c.protocol_combo()
      << " delay=" << c.delay_desc << " delta=" << c.delta_cap_us << "us gst=" << c.gst_us
      << "us stagger=" << c.join_stagger_us << "us drift=" << c.drift_ppm_max << "ppm";
  if (c.workload.clients > 0) {
    out << " workload=" << workload::to_string(c.workload.arrival) << "x" << c.workload.clients;
  }
  out << " dissem=" << (c.dissem ? "on" : "off");
  out << " behaviors=[";
  for (std::size_t i = 0; i < c.behaviors.size(); ++i) {
    if (i > 0) out << ", ";
    out << "p" << c.behaviors[i].node << ":" << c.behaviors[i].behavior;
  }
  out << "] events=[";
  for (std::size_t i = 0; i < c.schedule.events.size(); ++i) {
    if (i > 0) out << ", ";
    out << sim::FaultSchedule::describe(c.schedule.events[i]);
  }
  out << "]";
  return out.str();
}

}  // namespace lumiere::fuzz
