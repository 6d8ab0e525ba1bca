// ProtocolRegistry: string-keyed construction of pacemakers and consensus
// cores.
//
// The paper's experiments compare view-synchronization protocols (Lumiere,
// LP22, Fever, Cogsworth, NK20, RareSync, round-robin) over interchangeable
// underlying protocols (SimpleView, chained HotStuff, HotStuff-2). The
// registry makes that comparison surface data-driven: every protocol is a
// named factory, experiments select protocols by name ("lumiere",
// "fever", ...), and per-protocol knobs live in typed sub-structs instead of
// being flattened into one options grab-bag.
//
// Built-in protocols register themselves when the registry singleton is
// first touched; tests and downstream users may register additional ones
// under fresh names (see ProtocolRegistry::register_pacemaker).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/time.h"
#include "common/types.h"
#include "consensus/core.h"
#include "crypto/authenticator.h"
#include "pacemaker/pacemaker.h"

namespace lumiere::runtime {

/// Block payload source consulted when a node proposes in a view (the
/// client workload); null = empty payloads.
using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

/// Fever-specific knobs (Section 3.3 "Reducing Gamma" remark).
struct FeverOptions {
  /// Consecutive views each leader keeps (leader tenure).
  std::uint32_t tenure = 2;
};

/// Everything that selects and parameterizes one node's protocol stack —
/// the single home of the per-protocol knobs.
struct ProtocolConfig {
  /// Registry name of the view synchronizer (see ProtocolRegistry).
  std::string pacemaker = "lumiere";
  /// Registry name of the underlying consensus protocol.
  std::string core = "simple-view";
  /// Gamma override for the epoch-based pacemakers (zero = protocol
  /// default).
  Duration gamma = Duration::zero();
  /// Leader-schedule / randomness seed. Must be identical cluster-wide or
  /// honest nodes will disagree on lead(v).
  std::uint64_t shared_seed = 1;
  FeverOptions fever;
};

/// Everything a pacemaker factory needs to build one instance.
struct PacemakerContext {
  const ProtocolParams& params;
  ProcessId self;
  crypto::Signer signer;
  pacemaker::PacemakerWiring wiring;
  const ProtocolConfig& config;
};

/// Everything a consensus-core factory needs to build one instance.
struct CoreContext {
  const ProtocolParams& params;
  ProcessId self;
  crypto::AuthView auth;
  crypto::Signer signer;
  consensus::CoreCallbacks callbacks;
  consensus::PacemakerHooks hooks;
  PayloadProvider payload_provider;
  const ProtocolConfig& config;
};

class ProtocolRegistry {
 public:
  using PacemakerFactory =
      std::function<std::unique_ptr<pacemaker::Pacemaker>(PacemakerContext&&)>;
  using CoreFactory =
      std::function<std::unique_ptr<consensus::ConsensusCore>(CoreContext&&)>;

  /// The process-wide registry, with every built-in protocol registered.
  [[nodiscard]] static ProtocolRegistry& instance();

  /// Registers a factory under `name`. Registering an already-taken name
  /// aborts (a wiring bug, not a runtime condition).
  void register_pacemaker(std::string name, PacemakerFactory factory);
  void register_core(std::string name, CoreFactory factory);

  [[nodiscard]] bool has_pacemaker(const std::string& name) const;
  [[nodiscard]] bool has_core(const std::string& name) const;

  /// Registered names, sorted (the map order) — stable for parameterized
  /// tests and error messages.
  [[nodiscard]] std::vector<std::string> pacemaker_names() const;
  [[nodiscard]] std::vector<std::string> core_names() const;

  /// The diagnostic used whenever `name` is not registered: names the
  /// unknown protocol and lists the registered ones. Shared by
  /// make_pacemaker/make_core and ScenarioBuilder::validate() so the two
  /// error surfaces cannot drift apart.
  [[nodiscard]] std::string unknown_pacemaker_message(const std::string& name) const;
  [[nodiscard]] std::string unknown_core_message(const std::string& name) const;

  /// Builds a protocol instance. Throws std::invalid_argument naming the
  /// unknown protocol and listing the registered ones.
  [[nodiscard]] std::unique_ptr<pacemaker::Pacemaker> make_pacemaker(
      const std::string& name, PacemakerContext&& context) const;
  [[nodiscard]] std::unique_ptr<consensus::ConsensusCore> make_core(
      const std::string& name, CoreContext&& context) const;

 private:
  ProtocolRegistry() = default;

  std::map<std::string, PacemakerFactory> pacemakers_;
  std::map<std::string, CoreFactory> cores_;
};

}  // namespace lumiere::runtime
