#include "pacemaker/pacemaker.h"

#include "consensus/messages.h"
#include "pacemaker/certificates.h"
#include "pacemaker/messages.h"

namespace lumiere::pacemaker {

namespace {

crypto::Digest tagged_view_statement(const char* tag, View v) {
  ser::Writer w;
  w.str(tag);
  w.view(v);
  return crypto::Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.size()));
}

}  // namespace

void Pacemaker::on_new_view(ProcessId from, const consensus::NewViewMsg& msg) {
  if (msg.view_share()) on_message(from, std::make_shared<ViewMsg>(msg.view(), *msg.view_share()));
}

crypto::Digest view_msg_statement(View v) { return tagged_view_statement("lumiere.view", v); }

crypto::Digest epoch_msg_statement(View v) { return tagged_view_statement("lumiere.epoch", v); }

crypto::Digest wish_statement(View v) { return tagged_view_statement("lumiere.wish", v); }

}  // namespace lumiere::pacemaker
