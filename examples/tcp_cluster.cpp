// Real sockets: four in-process endpoints exchanging actual framed bytes
// over localhost TCP, running one round of the view-synchronization
// message flow (view messages -> VC -> proposal -> votes -> QC). Shows
// the protocol messages are wire-complete and the stack is not
// simulator-bound.
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/certificates.h"
#include "pacemaker/messages.h"
#include "transport/tcp_transport.h"

using namespace lumiere;

int main() {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint16_t kBasePort = 24240;
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, kN, 42);
  const crypto::Authenticator& auth = *auth_owner;
  const crypto::AuthView auth_view(&auth);
  const ProtocolParams params = ProtocolParams::for_n(kN, Duration::millis(10));

  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);

  // Leader state for processor 0 (the leader of view 0 in this demo).
  crypto::QuorumAggregator view_agg(auth_view, pacemaker::view_msg_statement(0),
                                    params.small_quorum());
  std::map<ProcessId, std::uint64_t> received_counts;
  bool vc_broadcast = false;
  bool qc_formed = false;

  std::vector<std::unique_ptr<transport::TcpEndpoint>> endpoints;
  std::vector<crypto::Digest> proposal_hash(kN);
  std::unique_ptr<crypto::QuorumAggregator> vote_agg;
  // p0 broadcasts as a Node does: one send per processor, itself included.
  const auto broadcast_from_p0 = [&endpoints](const Message& msg) {
    for (ProcessId to = 0; to < kN; ++to) endpoints[0]->send(to, msg);
  };

  for (ProcessId id = 0; id < kN; ++id) {
    endpoints.push_back(std::make_unique<transport::TcpEndpoint>(
        id, kN, kBasePort, codec,
        [&, id](ProcessId from, const MessagePtr& msg) {
          ++received_counts[id];
          switch (msg->type_id()) {
            case pacemaker::kViewMsg: {
              if (id != 0) break;  // p0 is lead(0)
              const auto& vm = static_cast<const pacemaker::ViewMsg&>(*msg);
              view_agg.add(vm.share());
              if (view_agg.complete() && !vc_broadcast) {
                vc_broadcast = true;
                std::printf("p0: VC for view 0 formed (f+1 = %u view messages); "
                            "broadcasting VC + proposal\n",
                            params.small_quorum());
                broadcast_from_p0(pacemaker::VcMsg(pacemaker::SyncCert(0, view_agg.aggregate())));
                const consensus::Block block(
                    consensus::Block::genesis().hash(), 0, {'h', 'i'},
                    consensus::QuorumCert::genesis(consensus::Block::genesis().hash()));
                broadcast_from_p0(consensus::ProposalMsg(block));
              }
              break;
            }
            case consensus::kProposal: {
              const auto& proposal = static_cast<const consensus::ProposalMsg&>(*msg);
              proposal_hash[id] = proposal.block().hash();
              const auto statement =
                  consensus::QuorumCert::statement(0, proposal.block().hash());
              endpoints[id]->send(
                  0, consensus::VoteMsg(0, proposal.block().hash(),
                                        crypto::threshold_share(auth.signer_for(id), statement)));
              break;
            }
            case consensus::kVote: {
              if (id != 0) break;
              const auto& vote = static_cast<const consensus::VoteMsg&>(*msg);
              if (!vote_agg) {
                vote_agg = std::make_unique<crypto::QuorumAggregator>(
                    auth_view, consensus::QuorumCert::statement(0, vote.block_hash()),
                    params.quorum());
              }
              vote_agg->add(vote.share());
              if (vote_agg->complete() && !qc_formed) {
                qc_formed = true;
                const consensus::QuorumCert qc(0, vote.block_hash(), vote_agg->aggregate());
                std::printf("p0: QC for view 0 formed (2f+1 = %u votes); broadcasting\n",
                            params.quorum());
                broadcast_from_p0(consensus::QcMsg(qc));
              }
              break;
            }
            case consensus::kQcAnnounce: {
              const auto& qc_msg = static_cast<const consensus::QcMsg&>(*msg);
              const bool valid = qc_msg.qc().verify(auth_view, params);
              std::printf("p%u: received QC for view 0 from p%u — verify: %s\n", id, from,
                          valid ? "ok" : "FAILED");
              break;
            }
            default:
              break;
          }
        }));
  }

  std::printf("tcp_cluster: 4 endpoints on 127.0.0.1:%u-%u (real sockets, real frames)\n\n",
              kBasePort, kBasePort + kN - 1);

  // Every processor "enters view 0" and sends its view message to lead(0).
  for (ProcessId id = 0; id < kN; ++id) {
    endpoints[id]->send(0, pacemaker::ViewMsg(0, crypto::threshold_share(
                                                     auth.signer_for(id),
                                                     pacemaker::view_msg_statement(0))));
  }

  // Pump until the QC has circulated.
  for (int round = 0; round < 200; ++round) {
    for (auto& endpoint : endpoints) endpoint->poll_once(2);
  }

  std::uint64_t frames = 0;
  for (const auto& endpoint : endpoints) frames += endpoint->frames_sent();
  std::printf("\ntotal frames sent over TCP: %llu\n",
              static_cast<unsigned long long>(frames));
  std::printf("view 0 completed over a real network: %s\n", qc_formed ? "yes" : "NO");
  return qc_formed ? 0 : 1;
}
