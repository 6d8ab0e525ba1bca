#include "adversary/behaviors.h"

#include <algorithm>

#include "consensus/messages.h"
#include "pacemaker/messages.h"

namespace lumiere::adversary {

namespace {

/// Leader-role message types: what a leader owes the cluster.
bool is_leader_duty(std::uint32_t type_id) {
  return type_id == consensus::kProposal || type_id == consensus::kQcAnnounce ||
         type_id == pacemaker::kVcMsg || type_id == pacemaker::kEcMsg ||
         type_id == pacemaker::kWishCertMsg;
}

}  // namespace

bool SilentLeaderBehavior::allow_send(TimePoint /*now*/, ProcessId /*to*/, const Message& msg) {
  return !is_leader_duty(msg.type_id());
}

bool QcWithholderBehavior::allow_send(TimePoint /*now*/, ProcessId /*to*/, const Message& msg) {
  return msg.type_id() != consensus::kQcAnnounce;
}

bool SelectiveQcBehavior::allow_send(TimePoint /*now*/, ProcessId to, const Message& msg) {
  const bool bump_carrier =
      msg.type_id() == consensus::kQcAnnounce || msg.type_id() == pacemaker::kVcMsg;
  if (!bump_carrier) return true;
  return to < favored_count_;
}

bool EquivocatorBehavior::allow_send(TimePoint /*now*/, ProcessId /*to*/, const Message& msg) {
  // Suppress the node's own honest proposal; on_view_entered substitutes
  // the two conflicting ones.
  return msg.type_id() != consensus::kProposal;
}

void EquivocatorBehavior::on_view_entered(TimePoint /*now*/, View v, const Toolkit& toolkit) {
  if (toolkit.leader_of(v) != toolkit.self) return;
  const consensus::QuorumCert& high = toolkit.high_qc();
  const auto propose = [&](std::uint8_t tag) {
    return std::make_shared<consensus::ProposalMsg>(
        std::make_shared<const consensus::Block>(v, std::vector<std::uint8_t>{tag}, high));
  };
  const auto block_a = propose(0xAA);
  const auto block_b = propose(0xBB);
  const std::uint32_t n = toolkit.params->n;
  for (ProcessId to = 0; to < n; ++to) {
    toolkit.raw_send(to, to < n / 2 ? block_a : block_b);
  }
}

void EpochStormBehavior::on_view_entered(TimePoint /*now*/, View v, const Toolkit& toolkit) {
  // Target the next epoch boundary above the current view.
  const View target = ((v / views_per_epoch_) + 1) * views_per_epoch_;
  if (target == last_stormed_) return;
  last_stormed_ = target;
  auto msg = std::make_shared<pacemaker::EpochViewMsg>(
      target, crypto::threshold_share(*toolkit.signer, pacemaker::epoch_msg_statement(target)));
  for (ProcessId to = 0; to < toolkit.params->n; ++to) toolkit.raw_send(to, msg);
}

std::unique_ptr<Behavior> make_behavior(const std::string& name) {
  if (name == "honest") return std::make_unique<HonestBehavior>();
  if (name == "mute") return std::make_unique<MuteBehavior>();
  if (name == "silent-leader") return std::make_unique<SilentLeaderBehavior>();
  if (name == "qc-withholder") return std::make_unique<QcWithholderBehavior>();
  if (name == "equivocator") return std::make_unique<EquivocatorBehavior>();
  return nullptr;
}

bool has_behavior(const std::string& name) { return make_behavior(name) != nullptr; }

std::vector<std::string> behavior_names() {
  return {"equivocator", "honest", "mute", "qc-withholder", "silent-leader"};
}

BehaviorFactory honest_cluster() {
  return [](ProcessId) { return std::make_unique<HonestBehavior>(); };
}

BehaviorFactory byzantine_set(std::vector<ProcessId> chosen,
                              std::function<std::unique_ptr<Behavior>(ProcessId)> make) {
  return [chosen = std::move(chosen), make = std::move(make)](ProcessId id)
             -> std::unique_ptr<Behavior> {
    if (std::find(chosen.begin(), chosen.end(), id) != chosen.end()) return make(id);
    return std::make_unique<HonestBehavior>();
  };
}

}  // namespace lumiere::adversary
