// Byzantine process behaviors.
//
// A Behavior wraps a node's *outbound* channel (every protocol message
// passes through filter_outbound) and may inject arbitrary traffic via
// the active hooks. Byzantine nodes run the normal protocol stack
// underneath — the standard "Byzantine = arbitrary deviation" is
// approximated by composable deviations that target the view-sync layer:
// crashing, going silent as leader, withholding QCs, equivocating,
// storming epoch changes. Message *delays* are the network adversary's
// job (sim/delay_policy.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/time.h"
#include "common/types.h"
#include "consensus/quorum_cert.h"
#include "crypto/authenticator.h"
#include "ser/message.h"

namespace lumiere::adversary {

/// Capabilities handed to active behaviors (crafting custom traffic).
struct Toolkit {
  ProcessId self = kNoProcess;
  const ProtocolParams* params = nullptr;
  crypto::AuthView auth;
  const crypto::Signer* signer = nullptr;
  std::function<ProcessId(View)> leader_of;
  std::function<const consensus::QuorumCert&()> high_qc;
  /// Sends bypassing the filter (the behavior *is* the adversary).
  std::function<void(ProcessId to, MessagePtr msg)> raw_send;
};

class Behavior {
 public:
  virtual ~Behavior() = default;

  /// Called for every outbound message; return false to drop it.
  [[nodiscard]] virtual bool allow_send(TimePoint now, ProcessId to, const Message& msg) {
    (void)now;
    (void)to;
    (void)msg;
    return true;
  }

  /// Called when the node's pacemaker enters a view.
  virtual void on_view_entered(TimePoint now, View v, const Toolkit& toolkit) {
    (void)now;
    (void)v;
    (void)toolkit;
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// The identity behavior (honest node).
class HonestBehavior final : public Behavior {
 public:
  [[nodiscard]] const char* name() const override { return "honest"; }
};

/// Crash-stop at a given time: nothing is sent from `at` onward.
class CrashBehavior final : public Behavior {
 public:
  explicit CrashBehavior(TimePoint at) : at_(at) {}
  [[nodiscard]] bool allow_send(TimePoint now, ProcessId, const Message&) override {
    return now < at_;
  }
  [[nodiscard]] const char* name() const override { return "crash"; }

 private:
  TimePoint at_;
};

/// Never sends anything (crashed from the start; the classic f_a fault
/// for latency experiments).
class MuteBehavior final : public Behavior {
 public:
  [[nodiscard]] bool allow_send(TimePoint, ProcessId, const Message&) override { return false; }
  [[nodiscard]] const char* name() const override { return "mute"; }
};

/// Performs replica duties (votes, view/epoch messages, wishes) but
/// shirks all *leader* duties: proposals, QC broadcasts, VCs and
/// certificates are dropped. Views this process leads fail while quorums
/// stay intact — the canonical faulty-leader adversary for BVS (the
/// Figure 1 scenario).
class SilentLeaderBehavior final : public Behavior {
 public:
  [[nodiscard]] bool allow_send(TimePoint now, ProcessId to, const Message& msg) override;
  [[nodiscard]] const char* name() const override { return "silent-leader"; }
};

/// Collects votes and forms QCs as leader but never announces them —
/// honest processors see the view hang even though it "completed".
class QcWithholderBehavior final : public Behavior {
 public:
  [[nodiscard]] bool allow_send(TimePoint now, ProcessId to, const Message& msg) override;
  [[nodiscard]] const char* name() const override { return "qc-withholder"; }
};

/// Suppresses the node's own proposals and instead sends two conflicting
/// blocks to the two halves of the cluster whenever it leads a view
/// (safety stress for the underlying protocol).
class EquivocatorBehavior final : public Behavior {
 public:
  [[nodiscard]] bool allow_send(TimePoint now, ProcessId to, const Message& msg) override;
  void on_view_entered(TimePoint now, View v, const Toolkit& toolkit) override;
  [[nodiscard]] const char* name() const override { return "equivocator"; }
};

/// The Section 3.5 gap-widening attack: performs all leader duties
/// (proposes to everyone, collects votes, forms QCs — feeding the success
/// criterion) but announces QCs and VCs only to a favored subset of
/// processors. Favored processors bump their clocks; the rest stall,
/// widening the honest gap while epochs still "look successful". Lumiere
/// counters with the 2f+1-leaders success criterion plus the honest
/// QC-production deadline (Lemma 5.12's gap shrinking).
class SelectiveQcBehavior final : public Behavior {
 public:
  /// QCs/VCs are delivered only to ids < `favored_count` (and to other
  /// Byzantine processes via the caller's set choice).
  explicit SelectiveQcBehavior(std::uint32_t favored_count) : favored_count_(favored_count) {}
  [[nodiscard]] bool allow_send(TimePoint now, ProcessId to, const Message& msg) override;
  [[nodiscard]] const char* name() const override { return "selective-qc"; }

 private:
  std::uint32_t favored_count_;
};

/// Broadcasts epoch-view messages for the *next* epoch boundary the
/// moment it enters any view — trying to force spurious heavy
/// synchronizations. Since TC formation needs f+1 distinct signers, f
/// such processes must fail alone (tested).
class EpochStormBehavior final : public Behavior {
 public:
  /// `views_per_epoch` of the target protocol (storm target boundaries).
  explicit EpochStormBehavior(std::int64_t views_per_epoch)
      : views_per_epoch_(views_per_epoch) {}
  void on_view_entered(TimePoint now, View v, const Toolkit& toolkit) override;
  [[nodiscard]] const char* name() const override { return "epoch-storm"; }

 private:
  std::int64_t views_per_epoch_;
  View last_stormed_ = -1;
};

/// Builds a behavior from its registry name — the serializable form used
/// by scripted behavior-change events and the scenario fuzzer. Covers the
/// parameterless behaviors: "honest", "mute", "silent-leader",
/// "qc-withholder", "equivocator". Returns nullptr for unknown names
/// (ScenarioBuilder::validate() reports them with the event).
[[nodiscard]] std::unique_ptr<Behavior> make_behavior(const std::string& name);

/// True when `name` resolves through make_behavior.
[[nodiscard]] bool has_behavior(const std::string& name);

/// The make_behavior names, sorted — for error messages and fuzz sampling.
[[nodiscard]] std::vector<std::string> behavior_names();

/// Convenience factory type used by the cluster builder.
using BehaviorFactory = std::function<std::unique_ptr<Behavior>(ProcessId)>;

/// All-honest factory.
[[nodiscard]] BehaviorFactory honest_cluster();

/// The first `count` processors of `chosen` get `make(id)`; everyone else
/// is honest.
[[nodiscard]] BehaviorFactory byzantine_set(std::vector<ProcessId> chosen,
                                            std::function<std::unique_ptr<Behavior>(ProcessId)> make);

}  // namespace lumiere::adversary
