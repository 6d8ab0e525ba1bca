#include "e2e/timed.h"

#include <memory>
#include <utility>

#include "e2e/spans.h"
#include "runtime/registry.h"

namespace lumiere::e2e {
namespace {

using runtime::ProtocolRegistry;

class TimedCore final : public consensus::ConsensusCore {
 public:
  explicit TimedCore(std::unique_ptr<consensus::ConsensusCore> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::uint32_t x() const override { return inner_->x(); }
  void on_enter_view(View v) override {
    Span span(Layer::kConsensus);
    inner_->on_enter_view(v);
  }
  void on_message(ProcessId from, const MessagePtr& msg) override {
    Span span(Layer::kConsensus);
    inner_->on_message(from, msg);
  }
  void on_propose_allowed(View v) override {
    Span span(Layer::kConsensus);
    inner_->on_propose_allowed(v);
  }
  [[nodiscard]] const consensus::QuorumCert& high_qc() const override {
    return inner_->high_qc();
  }
  void on_synced_block(const consensus::Block& block) override {
    Span span(Layer::kConsensus);
    inner_->on_synced_block(block);
  }
  [[nodiscard]] std::shared_ptr<const consensus::Block> block_for_sync(
      const crypto::Digest& hash) const override {
    Span span(Layer::kConsensus);
    return inner_->block_for_sync(hash);
  }

 private:
  std::unique_ptr<consensus::ConsensusCore> inner_;
};

class TimedPacemaker final : public pacemaker::Pacemaker {
 public:
  TimedPacemaker(const runtime::PacemakerContext& ctx, std::unique_ptr<pacemaker::Pacemaker> inner)
      : Pacemaker(ctx.params, ctx.self, ctx.signer, ctx.wiring), inner_(std::move(inner)) {}

  void start() override {
    Span span(Layer::kPacemaker);
    inner_->start();
  }
  void on_message(ProcessId from, const MessagePtr& msg) override {
    Span span(Layer::kPacemaker);
    inner_->on_message(from, msg);
  }
  void on_qc(const consensus::QuorumCert& qc) override {
    Span span(Layer::kPacemaker);
    inner_->on_qc(qc);
  }
  void on_local_qc_formed(const consensus::QuorumCert& qc) override {
    Span span(Layer::kPacemaker);
    inner_->on_local_qc_formed(qc);
  }
  [[nodiscard]] ProcessId leader_of(View v) const override { return inner_->leader_of(v); }
  [[nodiscard]] bool may_form_qc(View v) const override { return inner_->may_form_qc(v); }
  [[nodiscard]] bool may_propose(View v) const override { return inner_->may_propose(v); }
  [[nodiscard]] View current_view() const override { return inner_->current_view(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pacemaker::Pacemaker> inner_;
};

/// Wraps a std::function so every call runs inside a Span of `layer`.
template <typename R, typename... Args>
std::function<R(Args...)> timed(Layer layer, std::function<R(Args...)> fn) {
  if (!fn) return fn;
  return [layer, fn = std::move(fn)](Args... args) -> R {
    Span span(layer);
    return fn(std::forward<Args>(args)...);
  };
}

}  // namespace

std::string timed_name(const std::string& name) { return "timed:" + name; }

void register_timed(const std::string& core, const std::string& pacemaker) {
  ProtocolRegistry& registry = ProtocolRegistry::instance();
  if (!registry.has_core(timed_name(core))) {
    registry.register_core(timed_name(core), [core](runtime::CoreContext&& ctx) {
      ctx.callbacks.send = timed(Layer::kTransport, std::move(ctx.callbacks.send));
      ctx.callbacks.broadcast = timed(Layer::kTransport, std::move(ctx.callbacks.broadcast));
      ctx.callbacks.decided = timed(Layer::kWorkload, std::move(ctx.callbacks.decided));
      ctx.callbacks.fetch_missing = timed(Layer::kSync, std::move(ctx.callbacks.fetch_missing));
      ctx.payload_provider = timed(Layer::kWorkload, std::move(ctx.payload_provider));
      return std::make_unique<TimedCore>(
          ProtocolRegistry::instance().make_core(core, std::move(ctx)));
    });
  }
  if (!registry.has_pacemaker(timed_name(pacemaker))) {
    registry.register_pacemaker(timed_name(pacemaker), [pacemaker](runtime::PacemakerContext&& ctx) {
      ctx.wiring.send = timed(Layer::kTransport, std::move(ctx.wiring.send));
      ctx.wiring.broadcast = timed(Layer::kTransport, std::move(ctx.wiring.broadcast));
      runtime::PacemakerContext inner_ctx = ctx;
      auto inner = ProtocolRegistry::instance().make_pacemaker(pacemaker, std::move(inner_ctx));
      return std::make_unique<TimedPacemaker>(ctx, std::move(inner));
    });
  }
}

}  // namespace lumiere::e2e
