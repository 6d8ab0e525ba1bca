// The scenario-fuzz engine: a bounded seed sweep (every oracle must pass
// inside the generator's guaranteed-recovery envelope), byte-identical
// determinism, and the greedy shrinker.
#include "fuzz/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "fuzz/oracles.h"
#include "runtime/cluster.h"

namespace lumiere::fuzz {
namespace {

// The sweep's seed range. Deliberately plain 1..N: the same range the CI
// fuzz job and the documentation reference, so a failure here is
// reproducible with `fuzz_repro --seed <k>` verbatim.
constexpr std::uint64_t kSweepFirstSeed = 1;
constexpr std::size_t kSweepCount = 224;

TEST(FuzzSweepTest, TwoHundredSeededScenariosSatisfyEveryOracle) {
  std::set<std::string> combos;
  std::size_t failures = 0;
  for (std::uint64_t seed = kSweepFirstSeed; seed < kSweepFirstSeed + kSweepCount; ++seed) {
    const FuzzCase c = sample_case(seed);
    combos.insert(c.protocol_combo());
    const RunResult result = run_case(c);
    if (!result.ok()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " violated an oracle\n  case: " << describe(c)
                    << "\n  " << result.violations.front()
                    << "\n  replay: fuzz_repro --seed " << seed << " --shrink";
      if (failures >= 3) break;  // enough signal; keep the log readable
    }
  }
  EXPECT_GE(combos.size(), 6U)
      << "the sweep must exercise at least 6 distinct pacemaker x core combinations";
}

TEST(FuzzDeterminismTest, SameSeedReplaysByteIdentically) {
  for (const std::uint64_t seed : {3ULL, 17ULL, 59ULL}) {
    const RunResult first = run_case(sample_case(seed));
    const RunResult second = run_case(sample_case(seed));
    EXPECT_EQ(first.digest, second.digest)
        << "seed " << seed << " produced two different executions";
    EXPECT_EQ(first.violations, second.violations);
  }
}

TEST(FuzzDeterminismTest, PinnedSeedsKeepTheirDigests) {
  // Run digests pinned from fuzz_repro. Together the cases cover churn
  // (leave/rejoin), asymmetric partitions, scheduled behavior changes,
  // dissemination, topology presets and one n-shrink through
  // apply_deltas; a refactor of how a case becomes a Scenario must leave
  // every one byte-identical. Seeds 3, 22 (lumiere) and 16 (fever) were
  // re-pinned when leaders stopped sending VCs to processes already in
  // the VC's view: fewer VcMsg copies draw fewer delays from the Rng, and
  // the rest leave at the end of the instant the VC formed. All six (every
  // one a chained core) were re-pinned when a leader's second view
  // started from its own QC: QC(v-1) rides proposal v, requests ride the
  // votes, and fewer QcMsg and NewView copies draw delays from the Rng.
  struct Pinned {
    std::uint64_t seed;
    std::uint32_t shrink_to_n;  ///< 0 = the case as sampled
    const char* digest;
  };
  const Pinned pinned[] = {
      // nk20/hotstuff-2, wan3 preset, partitions, behavior change.
      {1, 0, "7c30a1db1bbad86dfc1584fd4e8e8028718fe3ee02de11942b631e64f11ca233"},
      // lumiere/hotstuff-2, lan preset, two churn windows, workload.
      {3, 0, "4917ff7a608843b4d049d5ec5687ab792ef0d4125686b9451ad27a26ab4e9537"},
      // n=7: churn, asymmetric and 3-way partitions, two Byzantine nodes.
      {5, 0, "7ca5c6e9d8155b1cedbf90c83a8ecd7f6026dcca7a03986f8630a9b886c3df2b"},
      // Dissemination on, churn of a silent leader, delay change. (Its
      // ledgers embed encoded batch certs, so the certificate wire format
      // is part of this digest.)
      {21, 0, "0792aff577bdf6d2e39d2fda2d8efeb2bec551df4733103b4f016387cb61f5a4"},
      // Asymmetric partition then a behavior change, workload.
      {22, 0, "65fe81d4e727253bfb13cd4ee86ec2e673cb1b6154e0aa66878cef87e64502ad"},
      // n=10 shrunk to 4: groups trimmed, behaviors recapped at f=1.
      {16, 4, "bf1933d93b6184a90db55abaadaf815b3454d5d3188f9f992472c9d39840b51d"},
  };
  for (const Pinned& p : pinned) {
    CaseDeltas deltas;
    deltas.n = p.shrink_to_n;
    const FuzzCase c = apply_deltas(sample_case(p.seed), deltas);
    const RunResult result = run_case(c);
    EXPECT_TRUE(result.ok()) << "seed " << p.seed << ": " << describe(c);
    EXPECT_EQ(result.digest.hex(), p.digest) << "seed " << p.seed << " n " << p.shrink_to_n;
  }
}

TEST(FuzzDeterminismTest, DifferentSeedsDiverge) {
  // Sanity on the digest itself: distinct seeds must not collide, or the
  // replay comparison above would be vacuous.
  EXPECT_NE(run_case(sample_case(5)).digest, run_case(sample_case(6)).digest);
}

TEST(FuzzGeneratorTest, SamplingIsPure) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 1000ULL}) {
    EXPECT_EQ(describe(sample_case(seed)), describe(sample_case(seed)));
  }
  EXPECT_NE(describe(sample_case(1)), describe(sample_case(2)));
}

TEST(FuzzGeneratorTest, EverySampledCaseStaysInTheGuaranteedEnvelope) {
  // 400 sampled cases (no runs — this is cheap): the builder validates,
  // events are time-ordered, and the ever-faulty set (Byzantine
  // assignments, scheduled flip-ins, crash/churn victims) never exceeds
  // f — the envelope where post-disruption liveness is a theorem.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const FuzzCase c = sample_case(seed);
    const std::uint32_t f = (c.spec.params.n - 1) / 3;

    const auto errors = runtime::ScenarioBuilder(c.spec).validate();
    ASSERT_TRUE(errors.empty()) << "seed " << seed << ": " << errors.front();

    std::set<ProcessId> faulty;
    for (const auto& assignment : c.spec.byzantine) faulty.insert(assignment.node);
    for (std::size_t i = 0; i < c.spec.schedule.events.size(); ++i) {
      const sim::FaultEvent& event = c.spec.schedule.events[i];
      if (i > 0) {
        ASSERT_GE(event.at.ticks(), c.spec.schedule.events[i - 1].at.ticks())
            << "seed " << seed << ": events out of timeline order";
      }
      ASSERT_LE(event.at.ticks(), c.disruption_end_us)
          << "seed " << seed << ": a scripted event postdates disruption_end";
      if (event.kind == sim::FaultKind::kCrash || event.kind == sim::FaultKind::kLeave) {
        faulty.insert(event.node);
      }
      if (event.kind == sim::FaultKind::kBehaviorChange && event.behavior != "honest") {
        faulty.insert(event.node);
      }
    }
    ASSERT_LE(faulty.size(), f) << "seed " << seed << ": over the fault budget";
  }
}

// ---- shrinking -----------------------------------------------------------

/// First seed >= `from` whose sampled case satisfies `want`.
template <typename Pred>
std::uint64_t find_seed(std::uint64_t from, Pred want) {
  for (std::uint64_t seed = from; seed < from + 4'000; ++seed) {
    if (want(sample_case(seed))) return seed;
  }
  ADD_FAILURE() << "no seed matching the sampler predicate — generator drifted?";
  return from;
}

bool has_event(const FuzzCase& c, sim::FaultKind kind) {
  for (const auto& event : c.spec.schedule.events) {
    if (event.kind == kind) return true;
  }
  return false;
}

TEST(FuzzShrinkTest, AlwaysFailingPredicateShrinksToTheEmptyScenario) {
  // With a predicate that "fails" on everything, greedy shrinking must
  // strip the case to its skeleton: no events, no behaviors, no workload,
  // the smallest cluster.
  const std::uint64_t seed = find_seed(1, [](const FuzzCase& c) {
    return c.spec.params.n > 4 && !c.spec.schedule.events.empty() &&
           !c.spec.byzantine.empty() && c.spec.workload.has_value();
  });
  const ShrinkResult result = shrink(seed, [](const FuzzCase&) { return true; });
  EXPECT_TRUE(result.minimal.spec.schedule.events.empty());
  EXPECT_TRUE(result.minimal.spec.byzantine.empty());
  EXPECT_FALSE(result.minimal.spec.workload.has_value());
  EXPECT_EQ(result.minimal.spec.params.n, 4U);
  EXPECT_GT(result.attempts, 1U);
}

TEST(FuzzShrinkTest, KeepsExactlyWhatTheFailureNeeds) {
  // Synthetic failure cause: "the schedule contains a crash window". The
  // minimal case must keep one crash episode (crash + its recover, which
  // travel together) and drop every other event and behavior.
  const std::uint64_t seed = find_seed(1, [](const FuzzCase& c) {
    return has_event(c, sim::FaultKind::kCrash) && c.spec.schedule.events.size() > 2;
  });
  const ShrinkResult result = shrink(
      seed, [](const FuzzCase& c) { return has_event(c, sim::FaultKind::kCrash); });
  ASSERT_EQ(result.minimal.spec.schedule.events.size(), 2U)
      << describe(result.minimal) << "\nrepro: " << repro_line(seed, result.deltas);
  EXPECT_EQ(result.minimal.spec.schedule.events[0].kind, sim::FaultKind::kCrash);
  EXPECT_EQ(result.minimal.spec.schedule.events[1].kind, sim::FaultKind::kRecover);
  EXPECT_TRUE(result.minimal.spec.byzantine.empty());
  // The recorded deltas replay to the same minimal case (what fuzz_repro
  // does with the printed line).
  const FuzzCase replayed = apply_deltas(sample_case(seed), result.deltas);
  EXPECT_EQ(describe(replayed), describe(result.minimal));
}

TEST(FuzzShrinkTest, NonReproducingFailureShrinksToNothing) {
  const ShrinkResult result = shrink(9, [](const FuzzCase&) { return false; });
  EXPECT_TRUE(result.deltas.empty());
  EXPECT_EQ(result.attempts, 1U);
}

TEST(FuzzShrinkTest, EpisodesPairWindowEvents) {
  FuzzCase c;
  c.spec.schedule.events.resize(7);
  c.spec.schedule.events[0].kind = sim::FaultKind::kPartition;
  c.spec.schedule.events[1].kind = sim::FaultKind::kHeal;
  c.spec.schedule.events[2].kind = sim::FaultKind::kCrash;
  c.spec.schedule.events[2].node = 2;
  c.spec.schedule.events[3].kind = sim::FaultKind::kDelayChange;
  c.spec.schedule.events[4].kind = sim::FaultKind::kRecover;
  c.spec.schedule.events[4].node = 2;
  c.spec.schedule.events[5].kind = sim::FaultKind::kLeave;
  c.spec.schedule.events[5].node = 0;
  c.spec.schedule.events[6].kind = sim::FaultKind::kRejoin;
  c.spec.schedule.events[6].node = 0;
  const auto episodes = event_episodes(c);
  ASSERT_EQ(episodes.size(), 4U);
  EXPECT_EQ(episodes[0], (std::vector<std::size_t>{0, 1}));  // partition + heal
  EXPECT_EQ(episodes[1], (std::vector<std::size_t>{2, 4}));  // crash + its recover
  EXPECT_EQ(episodes[2], (std::vector<std::size_t>{3}));     // delay change alone
  EXPECT_EQ(episodes[3], (std::vector<std::size_t>{5, 6}));  // churn pair
}

TEST(FuzzShrinkTest, NodeShrinkDropsOutOfRangeReferencesAndRecapsBudget) {
  FuzzCase c;
  c.spec.params.n = 7;
  c.spec.byzantine.push_back(BehaviorAssignment{1, "mute"});
  c.spec.byzantine.push_back(BehaviorAssignment{5, "equivocator"});  // out of range at n=4
  c.spec.byzantine.push_back(BehaviorAssignment{2, "silent-leader"});  // over f=1 at n=4
  sim::FaultEvent cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.groups = {{0, 1, 5}, {2, 6}};
  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 6;
  c.spec.schedule.events = {cut, crash};

  CaseDeltas deltas;
  deltas.n = 4;
  const FuzzCase shrunk = apply_deltas(c, deltas);
  EXPECT_EQ(shrunk.spec.params.n, 4U);
  ASSERT_EQ(shrunk.spec.byzantine.size(), 1U);  // f = 1 at n = 4
  EXPECT_EQ(shrunk.spec.byzantine[0].node, 1U);
  ASSERT_EQ(shrunk.spec.schedule.events.size(), 1U);  // the crash referenced node 6
  EXPECT_EQ(shrunk.spec.schedule.events[0].kind, sim::FaultKind::kPartition);
  EXPECT_EQ(shrunk.spec.schedule.events[0].groups,
            (std::vector<std::vector<ProcessId>>{{0, 1}, {2}}));
}

TEST(FuzzShrinkTest, NodeShrinkRecapsCrashVictimsAgainstTheFaultBudget) {
  // Crash/churn victims count against the same ever-faulty budget as
  // Byzantine assignments: at n=7 (f=2) one mute node plus a crash window
  // on another node fits; at n=4 (f=1) the crash episode must go (with
  // its recover), or the shrunken case would leave the
  // guaranteed-recovery envelope and fail for a reason the original
  // never exhibited.
  FuzzCase c;
  c.spec.params.n = 7;
  c.spec.byzantine.push_back(BehaviorAssignment{0, "mute"});
  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 2;
  sim::FaultEvent recover;
  recover.kind = sim::FaultKind::kRecover;
  recover.node = 2;
  c.spec.schedule.events = {crash, recover};

  CaseDeltas deltas;
  deltas.n = 4;
  const FuzzCase shrunk = apply_deltas(c, deltas);
  ASSERT_EQ(shrunk.spec.byzantine.size(), 1U);
  EXPECT_TRUE(shrunk.spec.schedule.events.empty())
      << "crash window on a second node exceeds f=1; it must drop with its recover";

  // Without the Byzantine assignment the crash victim is THE fault and
  // survives the shrink.
  FuzzCase honest = c;
  honest.spec.byzantine.clear();
  const FuzzCase kept = apply_deltas(honest, deltas);
  EXPECT_EQ(kept.spec.schedule.events.size(), 2U);
}

TEST(FuzzShrinkTest, ReproLineNamesEveryDelta) {
  CaseDeltas deltas;
  deltas.drop_events = {1, 3};
  deltas.drop_behaviors = {0};
  deltas.n = 4;
  deltas.drop_workload = true;
  EXPECT_EQ(repro_line(77, deltas),
            "fuzz_repro --seed 77 --drop-events 1,3 --drop-behaviors 0 --n 4 --no-workload");
  EXPECT_EQ(repro_line(5, CaseDeltas{}), "fuzz_repro --seed 5");
}

}  // namespace
}  // namespace lumiere::fuzz
