#include "runtime/pipeline.h"

#include <utility>

#include "common/assert.h"

namespace lumiere::runtime {

namespace {

/// Runs every claim a message reports through the scheme and keeps the
/// fingerprints of the ones that passed. Failures are dropped silently:
/// the consensus core re-checks inline and rejects them itself.
class ClaimChecker final : public AuthClaimSink {
 public:
  ClaimChecker(const crypto::Authenticator& auth, std::vector<crypto::Digest>& out)
      : auth_(auth), out_(out) {}

  void share(const crypto::Digest& message, const crypto::PartialSig& share) override {
    ++checked_;
    if (auth_.check_share(message, share)) {
      ++passed_;
      out_.push_back(crypto::share_fingerprint(message, share));
    }
  }

  void aggregate(const crypto::Digest& message, const crypto::ThresholdSig& sig) override {
    ++checked_;
    if (auth_.check_aggregate(message, sig)) {
      ++passed_;
      out_.push_back(crypto::aggregate_fingerprint(message, sig));
    }
  }

  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::uint64_t passed() const noexcept { return passed_; }

 private:
  const crypto::Authenticator& auth_;
  std::vector<crypto::Digest>& out_;
  std::uint64_t checked_ = 0;
  std::uint64_t passed_ = 0;
};

}  // namespace

VerifyPipeline::VerifyPipeline(const crypto::Authenticator* auth, MessageCodec codec,
                               PipelineSpec spec)
    : auth_(auth), codec_(std::move(codec)), spec_(spec) {
  LUMIERE_ASSERT(auth != nullptr);
  LUMIERE_ASSERT(spec_.workers >= 1);
  LUMIERE_ASSERT(spec_.queue_capacity >= 1);
}

VerifyPipeline::~VerifyPipeline() { stop(); }

void VerifyPipeline::start() {
  {
    std::lock_guard<std::mutex> lock(ingress_mu_);
    if (running_) return;
    running_ = true;
  }
  workers_.reserve(spec_.workers);
  for (std::uint32_t i = 0; i < spec_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void VerifyPipeline::stop() {
  {
    std::lock_guard<std::mutex> lock(ingress_mu_);
    if (!running_ && workers_.empty()) return;
    running_ = false;
    ingress_.clear();  // a crashed process loses its unprocessed input
  }
  ingress_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

bool VerifyPipeline::running() const {
  std::lock_guard<std::mutex> lock(ingress_mu_);
  return running_;
}

bool VerifyPipeline::submit(ProcessId from, std::span<const std::uint8_t> payload) {
  std::unique_lock<std::mutex> lock(ingress_mu_);
  if (!running_) return false;
  if (ingress_.size() >= spec_.queue_capacity) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.submit_blocks;
    }
    space_cv_.wait(lock,
                   [this] { return !running_ || ingress_.size() < spec_.queue_capacity; });
    if (!running_) return false;
  }
  ingress_.push_back(Frame{from, std::vector<std::uint8_t>(payload.begin(), payload.end())});
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.frames_in;
  }
  lock.unlock();
  ingress_cv_.notify_one();
  return true;
}

bool VerifyPipeline::try_submit(ProcessId from, std::span<const std::uint8_t> payload) {
  {
    std::lock_guard<std::mutex> lock(ingress_mu_);
    if (!running_ || ingress_.size() >= spec_.queue_capacity) return false;
    ingress_.push_back(Frame{from, std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.frames_in;
  }
  ingress_cv_.notify_one();
  return true;
}

void VerifyPipeline::worker_loop() {
  while (true) {
    Frame frame;
    {
      std::unique_lock<std::mutex> lock(ingress_mu_);
      ingress_cv_.wait(lock, [this] { return !running_ || !ingress_.empty(); });
      if (!running_) return;
      frame = std::move(ingress_.front());
      ingress_.pop_front();
    }
    space_cv_.notify_one();
    process(std::move(frame));
  }
}

void VerifyPipeline::process(Frame frame) {
  const MessagePtr msg = codec_.decode(frame.payload);
  if (msg == nullptr) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.decode_failures;
    return;
  }
  Result result;
  result.from = frame.from;
  result.msg = msg;
  ClaimChecker checker(*auth_, result.fingerprints);
  msg->collect_auth(checker);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.claims_checked += checker.checked();
    stats_.claims_passed += checker.passed();
    ++stats_.frames_out;
  }
  std::lock_guard<std::mutex> lock(egress_mu_);
  egress_.push_back(std::move(result));
}

VerifyPipeline::Stats VerifyPipeline::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace lumiere::runtime
