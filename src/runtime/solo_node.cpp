#include "runtime/solo_node.h"

#include <stdexcept>

namespace lumiere::runtime {

SoloNodeRuntime::SoloNodeRuntime(const Scenario& scenario, ProcessId id, Options options)
    : id_(id), tracer_(scenario.params.n) {
  const std::uint32_t n = scenario.params.n;
  if (id_ >= n) throw std::invalid_argument("solo node: id out of range");
  auth_ = crypto::make_authenticator(scenario.auth_scheme, n, scenario.seed);
  const BehaviorThunk& make = scenario.nodes[id_].behavior;
  host_ = std::make_unique<NodeHost>(
      scenario, id_, *auth_, NodeSinks{nullptr, &tracer_, nullptr},
      make ? make() : std::make_unique<adversary::HonestBehavior>(), options);
}

void SoloNodeRuntime::run_for(std::chrono::milliseconds wall) {
  start();
  host_->run_until(std::chrono::steady_clock::now() + wall);
}

}  // namespace lumiere::runtime
