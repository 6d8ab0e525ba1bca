#include "runtime/registry.h"

#include <sstream>
#include <stdexcept>

#include "consensus/chained_core.h"
#include "consensus/simple_view_core.h"
#include "core/basic_lumiere.h"
#include "core/lumiere.h"
#include "pacemaker/cogsworth.h"
#include "pacemaker/fever.h"
#include "pacemaker/leader_schedule.h"
#include "pacemaker/lp22.h"
#include "pacemaker/naor_keidar.h"
#include "pacemaker/raresync.h"
#include "pacemaker/round_robin.h"

namespace lumiere::runtime {
namespace {

/// The (x+2)*Delta default shared by the timeout-driven pacemakers, with
/// the ProtocolConfig override applied.
Duration resolve_view_timeout(const PacemakerContext& ctx) {
  if (ctx.config.timeout.view_timeout > Duration::zero()) {
    return ctx.config.timeout.view_timeout;
  }
  return ctx.params.delta_cap * (ctx.params.x + 2);
}

Duration resolve_relay_timeout(const PacemakerContext& ctx) {
  if (ctx.config.timeout.relay_timeout > Duration::zero()) {
    return ctx.config.timeout.relay_timeout;
  }
  return ctx.params.delta_cap * 2;
}

void register_builtin_pacemakers(ProtocolRegistry& registry) {
  registry.register_pacemaker("round-robin", [](PacemakerContext&& ctx) {
    pacemaker::RoundRobinPacemaker::Options opt;
    opt.base_timeout = resolve_view_timeout(ctx);
    return std::make_unique<pacemaker::RoundRobinPacemaker>(ctx.params, ctx.self, ctx.signer,
                                                            std::move(ctx.wiring), opt);
  });
  registry.register_pacemaker("cogsworth", [](PacemakerContext&& ctx) {
    pacemaker::CogsworthPacemaker::Options opt;
    opt.view_timeout = resolve_view_timeout(ctx);
    opt.relay_timeout = resolve_relay_timeout(ctx);
    return std::make_unique<pacemaker::CogsworthPacemaker>(
        ctx.params, ctx.self, ctx.signer, std::move(ctx.wiring), opt,
        std::make_unique<pacemaker::RoundRobinSchedule>(ctx.params.n, 1));
  });
  registry.register_pacemaker("nk20", [](PacemakerContext&& ctx) {
    pacemaker::CogsworthPacemaker::Options opt;
    opt.view_timeout = resolve_view_timeout(ctx);
    opt.relay_timeout = resolve_relay_timeout(ctx);
    return std::make_unique<pacemaker::NaorKeidarPacemaker>(
        ctx.params, ctx.self, ctx.signer, std::move(ctx.wiring), opt, ctx.config.shared_seed);
  });
  registry.register_pacemaker("raresync", [](PacemakerContext&& ctx) {
    pacemaker::RareSyncPacemaker::Options opt;
    opt.gamma = ctx.config.gamma;
    return std::make_unique<pacemaker::RareSyncPacemaker>(ctx.params, ctx.self, ctx.signer,
                                                          std::move(ctx.wiring), opt);
  });
  registry.register_pacemaker("lp22", [](PacemakerContext&& ctx) {
    pacemaker::Lp22Pacemaker::Options opt;
    opt.gamma = ctx.config.gamma;
    return std::make_unique<pacemaker::Lp22Pacemaker>(ctx.params, ctx.self, ctx.signer,
                                                      std::move(ctx.wiring), opt);
  });
  registry.register_pacemaker("fever", [](PacemakerContext&& ctx) {
    pacemaker::FeverPacemaker::Options opt;
    opt.gamma = ctx.config.gamma;
    opt.tenure = ctx.config.fever.tenure;
    return std::make_unique<pacemaker::FeverPacemaker>(ctx.params, ctx.self, ctx.signer,
                                                       std::move(ctx.wiring), opt);
  });
  registry.register_pacemaker("basic-lumiere", [](PacemakerContext&& ctx) {
    core::BasicLumierePacemaker::Options opt;
    opt.gamma = ctx.config.gamma;
    return std::make_unique<core::BasicLumierePacemaker>(ctx.params, ctx.self, ctx.signer,
                                                         std::move(ctx.wiring), opt);
  });
  registry.register_pacemaker("lumiere", [](PacemakerContext&& ctx) {
    core::LumierePacemaker::Options opt;
    opt.gamma = ctx.config.gamma;
    opt.schedule_seed = ctx.config.shared_seed;
    opt.enforce_qc_deadline = ctx.config.lumiere.enforce_qc_deadline;
    opt.delta_wait_before_epoch_msg = ctx.config.lumiere.delta_wait;
    return std::make_unique<core::LumierePacemaker>(ctx.params, ctx.self, ctx.signer,
                                                    std::move(ctx.wiring), opt);
  });
}

void register_builtin_cores(ProtocolRegistry& registry) {
  registry.register_core("simple-view", [](CoreContext&& ctx) {
    return std::make_unique<consensus::SimpleViewCore>(ctx.params, ctx.auth, ctx.signer,
                                                       std::move(ctx.callbacks),
                                                       std::move(ctx.hooks),
                                                       std::move(ctx.payload_provider));
  });
  // Both chained protocols are one core under two chain rules.
  const auto chained = [](consensus::ChainRule rule) {
    return [rule](CoreContext&& ctx) {
      return std::make_unique<consensus::ChainedCore>(
          rule, ctx.params, ctx.auth, ctx.signer, std::move(ctx.callbacks), std::move(ctx.hooks),
          std::move(ctx.payload_provider));
    };
  };
  registry.register_core("chained-hotstuff", chained(consensus::ChainRule::hotstuff()));
  registry.register_core("hotstuff-2", chained(consensus::ChainRule::hotstuff2()));
}

std::string unknown_name_message(const char* kind, const std::string& name,
                                 const std::vector<std::string>& known) {
  std::ostringstream out;
  out << "unknown " << kind << " \"" << name << "\" (registered: ";
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (i > 0) out << ", ";
    out << known[i];
  }
  out << ")";
  return out.str();
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry* registry = [] {
    auto* r = new ProtocolRegistry();
    register_builtin_pacemakers(*r);
    register_builtin_cores(*r);
    return r;
  }();
  return *registry;
}

void ProtocolRegistry::register_pacemaker(std::string name, PacemakerFactory factory) {
  LUMIERE_ASSERT_MSG(!name.empty() && factory != nullptr, "bad pacemaker registration");
  const bool inserted = pacemakers_.emplace(std::move(name), std::move(factory)).second;
  LUMIERE_ASSERT_MSG(inserted, "pacemaker name already registered");
}

void ProtocolRegistry::register_core(std::string name, CoreFactory factory) {
  LUMIERE_ASSERT_MSG(!name.empty() && factory != nullptr, "bad core registration");
  const bool inserted = cores_.emplace(std::move(name), std::move(factory)).second;
  LUMIERE_ASSERT_MSG(inserted, "core name already registered");
}

bool ProtocolRegistry::has_pacemaker(const std::string& name) const {
  return pacemakers_.count(name) > 0;
}

bool ProtocolRegistry::has_core(const std::string& name) const { return cores_.count(name) > 0; }

std::vector<std::string> ProtocolRegistry::pacemaker_names() const {
  std::vector<std::string> names;
  names.reserve(pacemakers_.size());
  for (const auto& [name, factory] : pacemakers_) names.push_back(name);
  return names;
}

std::vector<std::string> ProtocolRegistry::core_names() const {
  std::vector<std::string> names;
  names.reserve(cores_.size());
  for (const auto& [name, factory] : cores_) names.push_back(name);
  return names;
}

std::string ProtocolRegistry::unknown_pacemaker_message(const std::string& name) const {
  return unknown_name_message("pacemaker", name, pacemaker_names());
}

std::string ProtocolRegistry::unknown_core_message(const std::string& name) const {
  return unknown_name_message("core", name, core_names());
}

std::unique_ptr<pacemaker::Pacemaker> ProtocolRegistry::make_pacemaker(
    const std::string& name, PacemakerContext&& context) const {
  const auto it = pacemakers_.find(name);
  if (it == pacemakers_.end()) {
    throw std::invalid_argument(unknown_pacemaker_message(name));
  }
  return it->second(std::move(context));
}

std::unique_ptr<consensus::ConsensusCore> ProtocolRegistry::make_core(
    const std::string& name, CoreContext&& context) const {
  const auto it = cores_.find(name);
  if (it == cores_.end()) {
    throw std::invalid_argument(unknown_core_message(name));
  }
  return it->second(std::move(context));
}

}  // namespace lumiere::runtime
