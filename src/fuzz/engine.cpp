#include "fuzz/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "fuzz/oracles.h"
#include "runtime/cluster.h"

namespace lumiere::fuzz {
namespace {

crypto::Digest run_digest(const runtime::Cluster& cluster) {
  crypto::Sha256 hasher;
  const auto fold = [&hasher](std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    hasher.update(std::span<const std::uint8_t>(bytes, 8));
  };
  for (const sim::TraceEvent& event : cluster.trace().events()) {
    fold(static_cast<std::uint64_t>(event.at.ticks()));
    fold(static_cast<std::uint64_t>(event.kind));
    fold(event.node);
    fold(static_cast<std::uint64_t>(event.view));
  }
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    const consensus::Ledger& ledger = cluster.node(id).ledger();
    fold(ledger.size());
    for (const auto& entry : ledger.entries()) {
      fold(static_cast<std::uint64_t>(entry.view()));
      hasher.update(entry.hash().as_span());
    }
  }
  fold(cluster.metrics().total_honest_msgs());
  return hasher.finish();
}

}  // namespace

RunResult run_case(const FuzzCase& c) {
  runtime::Cluster cluster(runtime::ScenarioBuilder(c.spec).scenario());
  const TimePoint disruption_end(c.disruption_end_us);
  const Duration bound(c.liveness_bound_us);
  const TimePoint deadline = disruption_end + bound;
  // The applicable liveness form: committed blocks for committing cores,
  // decisions (honest-leader QCs) for simple-view.
  const auto liveness = [&]() {
    return c.committing_core()
               ? check_commit_liveness(cluster, disruption_end, bound, 1)
               : check_decision_liveness(cluster, disruption_end, bound, 2);
  };

  cluster.run_until(disruption_end);
  // Each honest node's commit height when the last disruption ended: the
  // no-stall oracle's baseline.
  std::map<ProcessId, View> baseline;
  for (const ProcessId id : cluster.honest_ids()) {
    const consensus::Ledger& ledger = cluster.node(id).ledger();
    baseline[id] = ledger.empty() ? View{-1} : ledger.entries().back().view();
  }
  // Probe in slices and stop as soon as progress resumed — a passing case
  // costs ~one slice past the last disruption, a failing one the full
  // bound. Slice boundaries are a pure function of the case, so the
  // execution (and its digest) replays byte-identically.
  const Duration slice(std::max<std::int64_t>(c.liveness_bound_us / 60, 1));
  while (cluster.sim().now() < deadline && liveness().has_value()) {
    cluster.run_until(std::min(deadline, cluster.sim().now() + slice));
  }

  RunResult result;
  const auto add = [&result](std::optional<std::string> violation) {
    if (violation) result.violations.push_back(std::move(*violation));
  };
  add(check_safety(cluster));
  add(check_view_monotonicity(cluster));
  add(liveness());
  add(check_no_stall_data(ledger_data(cluster), baseline, kStallGraceViews));
  if (c.spec.workload) add(check_exactly_once(cluster));
  result.digest = run_digest(cluster);
  return result;
}

RunResult run_case_tcp(const FuzzCase& c, std::uint16_t tcp_base_port) {
  // Strip what real sockets cannot express; everything else (fault
  // schedule, behaviors, workload, dissemination, protocol combo) rides
  // through the same builder path as the sim run.
  FuzzCase t = c;
  t.spec.topology.clear();
  t.spec.delay = nullptr;
  t.delay_desc = "tcp";
  t.spec.gst = TimePoint::origin();
  std::erase_if(t.spec.schedule.events, [](const sim::FaultEvent& event) {
    return event.kind == sim::FaultKind::kDelayChange ||
           event.kind == sim::FaultKind::kLinkDelay;
  });
  t.spec.transport = runtime::TransportKind::kTcp;
  t.spec.tcp_base_port = tcp_base_port;
  runtime::Cluster cluster(runtime::ScenarioBuilder(t.spec).scenario());

  const TimePoint disruption_end(t.disruption_end_us);
  const Duration bound(t.liveness_bound_us);
  const TimePoint deadline = disruption_end + bound;
  const auto liveness = [&]() {
    return t.committing_core()
               ? check_commit_liveness(cluster, disruption_end, bound, 1)
               : check_decision_liveness(cluster, disruption_end, bound, 2);
  };

  cluster.run_until(disruption_end);
  // Probe in wall-clock slices (the shared sim clock does not exist on
  // TCP; ledgers and metrics may only be read between run_for calls).
  // Coarser slices than the sim run: each one costs real milliseconds.
  const Duration slice(std::max<std::int64_t>(t.liveness_bound_us / 20, 1000));
  TimePoint now = disruption_end;
  while (now < deadline && liveness().has_value()) {
    const Duration step = std::min(slice, deadline - now);
    cluster.run_for(step);
    now = now + step;
  }

  RunResult result;
  const auto add = [&result](std::optional<std::string> violation) {
    if (violation) result.violations.push_back(std::move(*violation));
  };
  add(check_safety(cluster));
  add(check_view_monotonicity(cluster));  // vacuous on TCP (empty trace)
  add(liveness());
  if (t.spec.workload) add(check_exactly_once(cluster));
  result.digest = run_digest(cluster);
  return result;
}

std::vector<std::vector<std::size_t>> event_episodes(const FuzzCase& c) {
  const auto& events = c.spec.schedule.events;
  std::vector<bool> grouped(events.size(), false);
  std::vector<std::vector<std::size_t>> episodes;
  const auto pair_with = [&](std::size_t i, auto&& matches) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (!grouped[j] && matches(events[j])) return j;
    }
    return i;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (grouped[i]) continue;
    const sim::FaultEvent& event = events[i];
    std::size_t partner = i;
    switch (event.kind) {
      case sim::FaultKind::kPartition:
      case sim::FaultKind::kAsymPartition:
        partner = pair_with(
            i, [](const sim::FaultEvent& e) { return e.kind == sim::FaultKind::kHeal; });
        break;
      case sim::FaultKind::kCrash:
        partner = pair_with(i, [&event](const sim::FaultEvent& e) {
          return e.kind == sim::FaultKind::kRecover && e.node == event.node;
        });
        break;
      case sim::FaultKind::kLeave:
        partner = pair_with(i, [&event](const sim::FaultEvent& e) {
          return e.kind == sim::FaultKind::kRejoin && e.node == event.node;
        });
        break;
      case sim::FaultKind::kLinkDelay:
        if (event.delay != nullptr) {
          partner = pair_with(i, [&event](const sim::FaultEvent& e) {
            return e.kind == sim::FaultKind::kLinkDelay && e.node == event.node &&
                   e.peer == event.peer && e.delay == nullptr;
          });
        }
        break;
      default:
        break;
    }
    grouped[i] = true;
    std::vector<std::size_t> episode{i};
    if (partner != i) {
      grouped[partner] = true;
      episode.push_back(partner);
    }
    episodes.push_back(std::move(episode));
  }
  return episodes;
}

FuzzCase apply_deltas(const FuzzCase& base, const CaseDeltas& deltas) {
  FuzzCase c = base;
  runtime::ScenarioSpec& spec = c.spec;
  if (deltas.drop_workload) spec.workload.reset();
  // Dissemination rides on the workload: dropping either switches it off.
  if (deltas.drop_dissem || deltas.drop_workload) spec.dissem = false;

  std::vector<bool> drop_event(spec.schedule.events.size(), false);
  for (const std::size_t index : deltas.drop_events) {
    if (index < drop_event.size()) drop_event[index] = true;
  }
  std::vector<bool> drop_behavior(spec.byzantine.size(), false);
  for (const std::size_t index : deltas.drop_behaviors) {
    if (index < drop_behavior.size()) drop_behavior[index] = true;
  }

  if (deltas.n != 0 && deltas.n < spec.params.n) {
    spec.params = ProtocolParams::for_n(deltas.n, spec.params.delta_cap, spec.params.x);
    const std::uint32_t n = spec.params.n;
    const std::uint32_t f = spec.params.f;
    // Behaviors and events referencing dropped nodes go; the surviving
    // ever-FAULTY set — Byzantine assignments, scheduled flip-ins AND
    // crash/churn victims, exactly the budget the sampler enforces — is
    // re-capped at the smaller f in first-seen order, so a shrunken case
    // never leaves the guaranteed-recovery envelope and fails for a
    // reason the original never exhibited.
    std::set<ProcessId> faulty;
    for (std::size_t i = 0; i < spec.byzantine.size(); ++i) {
      if (drop_behavior[i]) continue;
      const ProcessId node = spec.byzantine[i].node;
      if (node >= n || (!faulty.count(node) && faulty.size() >= f)) {
        drop_behavior[i] = true;
      } else {
        faulty.insert(node);
      }
    }
    // A budget-dropped crash/leave takes its recover/rejoin with it.
    const auto drop_partner = [&](std::size_t i, sim::FaultKind partner_kind) {
      for (std::size_t j = i + 1; j < spec.schedule.events.size(); ++j) {
        if (!drop_event[j] && spec.schedule.events[j].kind == partner_kind &&
            spec.schedule.events[j].node == spec.schedule.events[i].node) {
          drop_event[j] = true;
          return;
        }
      }
    };
    for (std::size_t i = 0; i < spec.schedule.events.size(); ++i) {
      if (drop_event[i]) continue;
      sim::FaultEvent& event = spec.schedule.events[i];
      switch (event.kind) {
        case sim::FaultKind::kPartition:
        case sim::FaultKind::kAsymPartition: {
          for (auto& group : event.groups) {
            std::erase_if(group, [n](ProcessId id) { return id >= n; });
          }
          if (event.kind == sim::FaultKind::kAsymPartition) {
            if (event.groups[0].empty() || event.groups[1].empty()) drop_event[i] = true;
          } else {
            std::erase_if(event.groups, [](const auto& group) { return group.empty(); });
            if (event.groups.size() < 2) drop_event[i] = true;
          }
          break;
        }
        case sim::FaultKind::kCrash:
        case sim::FaultKind::kLeave:
          if (event.node >= n ||
              (!faulty.count(event.node) && faulty.size() >= f)) {
            drop_event[i] = true;
            drop_partner(i, event.kind == sim::FaultKind::kCrash
                                ? sim::FaultKind::kRecover
                                : sim::FaultKind::kRejoin);
          } else {
            faulty.insert(event.node);
          }
          break;
        case sim::FaultKind::kRecover:
        case sim::FaultKind::kRejoin:
          if (event.node >= n) drop_event[i] = true;
          break;
        case sim::FaultKind::kLinkDelay:
          if (event.node >= n || event.peer >= n) drop_event[i] = true;
          break;
        case sim::FaultKind::kBehaviorChange:
          if (event.node >= n) {
            drop_event[i] = true;
          } else if (event.behavior != "honest" && !faulty.count(event.node)) {
            if (faulty.size() >= f) {
              drop_event[i] = true;  // over the shrunken fault budget
            } else {
              faulty.insert(event.node);
            }
          }
          break;
        case sim::FaultKind::kHeal:
        case sim::FaultKind::kDelayChange:
          break;
      }
    }
  }

  sim::FaultSchedule kept;
  for (std::size_t i = 0; i < spec.schedule.events.size(); ++i) {
    if (!drop_event[i]) kept.events.push_back(std::move(spec.schedule.events[i]));
  }
  spec.schedule = std::move(kept);
  std::vector<BehaviorAssignment> kept_behaviors;
  for (std::size_t i = 0; i < spec.byzantine.size(); ++i) {
    if (!drop_behavior[i]) kept_behaviors.push_back(std::move(spec.byzantine[i]));
  }
  spec.byzantine = std::move(kept_behaviors);
  return c;
}

ShrinkResult shrink(std::uint64_t seed,
                    const std::function<bool(const FuzzCase&)>& still_fails,
                    std::size_t max_attempts) {
  const FuzzCase base = sample_case(seed);
  ShrinkResult result;
  result.attempts = 1;
  if (!still_fails(base)) {
    // Nothing to shrink: the caller's failure did not reproduce.
    result.minimal = base;
    return result;
  }

  CaseDeltas deltas;
  const auto fails_with = [&](const CaseDeltas& candidate) {
    if (result.attempts >= max_attempts) return false;
    ++result.attempts;
    return still_fails(apply_deltas(base, candidate));
  };
  const auto dropped = [&](std::size_t index) {
    return std::find(deltas.drop_events.begin(), deltas.drop_events.end(), index) !=
           deltas.drop_events.end();
  };

  const std::vector<std::vector<std::size_t>> episodes = event_episodes(base);
  bool changed = true;
  while (changed && result.attempts < max_attempts) {
    changed = false;
    // Dissemination first: a failure that survives without the dissem
    // layer is a plain consensus/workload bug, and the smaller repro
    // should say so before the workload itself is attacked.
    if (base.spec.dissem && !deltas.drop_dissem && !deltas.drop_workload) {
      CaseDeltas candidate = deltas;
      candidate.drop_dissem = true;
      if (fails_with(candidate)) {
        deltas = candidate;
        changed = true;
      }
    }
    if (base.spec.workload && !deltas.drop_workload) {
      CaseDeltas candidate = deltas;
      candidate.drop_workload = true;
      if (fails_with(candidate)) {
        deltas = candidate;
        changed = true;
      }
    }
    // Whole episodes only: a partition without its heal (or a crash
    // without its recover) would leave the end state disrupted and fail
    // the liveness oracle for a reason the original case never exhibited.
    for (const auto& episode : episodes) {
      if (dropped(episode.front())) continue;
      CaseDeltas candidate = deltas;
      candidate.drop_events.insert(candidate.drop_events.end(), episode.begin(), episode.end());
      if (fails_with(candidate)) {
        deltas = candidate;
        changed = true;
      }
    }
    for (std::size_t i = 0; i < base.spec.byzantine.size(); ++i) {
      if (std::find(deltas.drop_behaviors.begin(), deltas.drop_behaviors.end(), i) !=
          deltas.drop_behaviors.end()) {
        continue;
      }
      CaseDeltas candidate = deltas;
      candidate.drop_behaviors.push_back(i);
      if (fails_with(candidate)) {
        deltas = candidate;
        changed = true;
      }
    }
    const std::uint32_t current_n = deltas.n != 0 ? deltas.n : base.spec.params.n;
    if (current_n > 4) {
      CaseDeltas candidate = deltas;
      candidate.n = 3 * ((current_n - 1) / 3 - 1) + 1;  // 10 -> 7 -> 4
      if (fails_with(candidate)) {
        deltas = candidate;
        changed = true;
      }
    }
  }

  std::sort(deltas.drop_events.begin(), deltas.drop_events.end());
  std::sort(deltas.drop_behaviors.begin(), deltas.drop_behaviors.end());
  result.deltas = deltas;
  result.minimal = apply_deltas(base, deltas);
  return result;
}

std::string repro_line(std::uint64_t seed, const CaseDeltas& deltas) {
  std::ostringstream out;
  out << "fuzz_repro --seed " << seed;
  const auto list = [&out](const char* flag, const std::vector<std::size_t>& indices) {
    if (indices.empty()) return;
    out << " " << flag << " ";
    for (std::size_t i = 0; i < indices.size(); ++i) {
      if (i > 0) out << ",";
      out << indices[i];
    }
  };
  list("--drop-events", deltas.drop_events);
  list("--drop-behaviors", deltas.drop_behaviors);
  if (deltas.n != 0) out << " --n " << deltas.n;
  if (deltas.drop_workload) out << " --no-workload";
  if (deltas.drop_dissem) out << " --no-dissem";
  return out.str();
}

}  // namespace lumiere::fuzz
