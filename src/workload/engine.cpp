#include "workload/engine.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "consensus/block.h"

namespace lumiere::workload {

const char* to_string(Arrival arrival) {
  switch (arrival) {
    case Arrival::kClosedLoop:
      return "closed-loop";
    case Arrival::kConstant:
      return "constant";
    case Arrival::kPoisson:
      return "poisson";
    case Arrival::kBursty:
      return "bursty";
  }
  return "?";
}

// ------------------------------------------------------------ ClientDriver

ClientDriver::ClientDriver(NodeWorkload* owner, std::uint32_t client, Rng rng)
    : owner_(owner), client_(client), rng_(rng) {}

void ClientDriver::start() {
  const WorkloadSpec& spec = owner_->spec_;
  if (spec.arrival == Arrival::kClosedLoop) {
    owner_->sim_->schedule_at(spec.start, [this] {
      want_ = owner_->spec_.in_flight;
      closed_loop_pump();
    });
    return;
  }
  // Open loop: phase-spread the clients so n clients at rate r behave as
  // one arrival stream at n*r, not as lockstep herds; Poisson draws its
  // first gap (memorylessness makes the phase irrelevant).
  Duration first = Duration::zero();
  if (spec.arrival == Arrival::kPoisson) {
    first = open_loop_interval(spec.start);
  } else {
    const double rate = std::max(spec.rate_per_client, 1e-9);
    const auto interval = static_cast<std::int64_t>(1e6 / rate);
    const std::uint32_t clients = std::max(1u, owner_->spec_.clients_per_node);
    const std::uint32_t k = client_ % kClientsPerNodeStride % clients;
    first = Duration(std::max<std::int64_t>(1, interval * (k + 1) / clients));
  }
  owner_->sim_->schedule_at(spec.start + first, [this] { open_loop_arrival(); });
}

Duration ClientDriver::open_loop_interval(TimePoint now) {
  const WorkloadSpec& spec = owner_->spec_;
  double rate = std::max(spec.rate_per_client, 1e-9);
  switch (spec.arrival) {
    case Arrival::kConstant:
      break;
    case Arrival::kPoisson: {
      const double u = rng_.next_double();
      return Duration(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(-std::log1p(-u) * 1e6 / rate))));
    }
    case Arrival::kBursty: {
      const std::int64_t period = std::max<std::int64_t>(1, spec.burst_period.ticks());
      const std::int64_t phase = (now - spec.start).ticks() % period;
      const auto burst_ticks = static_cast<std::int64_t>(spec.burst_duty * period);
      if (phase < burst_ticks) rate *= spec.burst_factor;
      break;
    }
    case Arrival::kClosedLoop:
      LUMIERE_ASSERT_MSG(false, "closed loop has no arrival interval");
  }
  return Duration(std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(1e6 / rate))));
}

void ClientDriver::open_loop_arrival() {
  const TimePoint now = owner_->sim_->now();
  if (now >= owner_->spec_.stop) return;
  (void)submit_one(/*shed_on_full=*/true);
  owner_->sim_->schedule_after(open_loop_interval(now), [this] { open_loop_arrival(); });
}

void ClientDriver::closed_loop_pump() {
  // Bounded attempts so a degenerate body fn (every request oversized)
  // stalls visibly in the counters instead of spinning the event loop. A
  // kSkipped request never commits, so it must not consume a window slot
  // — only admitted requests do.
  for (std::uint32_t attempts = 0; want_ > 0 && attempts < 64 + want_; ++attempts) {
    switch (submit_one(/*shed_on_full=*/false)) {
      case Submit::kAdmitted:
        --want_;
        break;
      case Submit::kRetryLater:
        owner_->note_starved();
        return;
      case Submit::kSkipped:
        break;  // try the next seq; the attempt bound caps the spin
    }
  }
}

void ClientDriver::on_own_commit() {
  if (owner_->spec_.arrival != Arrival::kClosedLoop) return;
  if (owner_->sim_->now() >= owner_->spec_.stop) return;
  ++want_;
  closed_loop_pump();
}

void ClientDriver::on_space_available() {
  if (owner_->spec_.arrival == Arrival::kClosedLoop && want_ > 0) closed_loop_pump();
}

void ClientDriver::note_committed_ahead(std::uint64_t seq) {
  if (seq >= next_seq_) taken_.insert(seq);
}

ClientDriver::Submit ClientDriver::submit_one(bool shed_on_full) {
  const WorkloadSpec& spec = owner_->spec_;
  // A seq some other replica committed under this client's tag before it
  // was submitted here is spent: the chain would refuse it.
  while (!taken_.empty() && *taken_.begin() <= next_seq_) {
    if (*taken_.begin() == next_seq_) ++next_seq_;
    taken_.erase(taken_.begin());
  }
  const std::uint64_t seq = next_seq_;
  std::vector<std::uint8_t> body =
      spec.body ? spec.body(client_, seq)
                : padding_body(client_, seq,
                               spec.request_bytes > kRequestHeaderBytes
                                   ? spec.request_bytes - kRequestHeaderBytes
                                   : 0);
  std::vector<std::uint8_t> request =
      Request::encode(client_, seq, std::span<const std::uint8_t>(body.data(), body.size()));
  owner_->record_generated(request);
  const TimePoint now = owner_->sim_->now();
  switch (owner_->mempool_.add(std::move(request))) {
    case consensus::Admission::kAccepted:
      ++next_seq_;
      owner_->record_admitted(client_, seq, now);
      return Submit::kAdmitted;
    case consensus::Admission::kFull:
      if (shed_on_full) {
        // The open-loop request is gone (offered != admitted), but its seq
        // is not: the next arrival reuses it, so the seqs that reach the
        // chain stay contiguous and every replica's committed-tag index
        // (consensus/request_tag.h) stays one mark per client.
        ++owner_->stats_.shed;
        return Submit::kSkipped;
      }
      return Submit::kRetryLater;  // closed loop retries this very seq on release
    case consensus::Admission::kOversized:
    case consensus::Admission::kDuplicate:
      // Never admissible; skip it (counted by the mempool). Scenario
      // validation rules out oversized default bodies, and a seq is never
      // live twice, so only a custom body fn can leave this gap.
      ++next_seq_;
      return Submit::kSkipped;
  }
  return Submit::kSkipped;
}

// ------------------------------------------------------------ NodeWorkload

NodeWorkload::NodeWorkload(sim::Simulator* sim, ProcessId node, WorkloadSpec spec,
                           std::uint64_t seed, Hooks hooks, std::uint32_t incarnation)
    : sim_(sim),
      node_(node),
      spec_(std::move(spec)),
      hooks_(std::move(hooks)),
      mempool_(spec_.mempool),
      first_client_(client_id(node, incarnation * spec_.clients_per_node)) {
  LUMIERE_ASSERT(sim_ != nullptr);
  const std::uint64_t client_slots =
      (static_cast<std::uint64_t>(incarnation) + 1) * spec_.clients_per_node;
  LUMIERE_ASSERT_MSG(client_slots < kClientsPerNodeStride,
                     "client ids encode the node in the high bits");
  trace_hasher_.update("lumiere.workload.trace");
  // One independent stream per client, all derived from the scenario seed
  // and stable under per-node spec overrides elsewhere in the cluster.
  Rng root(seed ^ (0x574b4c44ULL + node));
  drivers_.reserve(spec_.clients_per_node);
  for (std::uint32_t k = 0; k < spec_.clients_per_node; ++k) {
    drivers_.push_back(std::make_unique<ClientDriver>(this, first_client_ + k, root.fork()));
  }
  mempool_.set_space_available([this] { note_starved_release(); });
}

void NodeWorkload::start() {
  LUMIERE_ASSERT_MSG(!started_, "NodeWorkload::start called twice");
  started_ = true;
  for (auto& driver : drivers_) driver->start();
}

void NodeWorkload::sample_depth() {
  const std::size_t depth = mempool_.pending();
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
  if (hooks_.on_queue_depth) hooks_.on_queue_depth(sim_->now(), depth);
}

consensus::RequestForwarding NodeWorkload::forwarding() {
  consensus::RequestForwarding hooks;
  hooks.attach = [this](View view) {
    // Every node attaches every view: sampling only the drains that move
    // requests keeps the depth log near its per-proposal size.
    if (mempool_.pending() > 0) sample_depth();
    return mempool_.attach(view);
  };
  hooks.proposed = [this](const consensus::Block& block) {
    mempool_.on_proposed(block.view(), own_commands_or_none(block.payload()));
  };
  hooks.max_batch_bytes = spec_.mempool.max_batch_bytes;
  return hooks;
}

void NodeWorkload::on_commit(TimePoint at, View view, std::span<const std::uint8_t> payload) {
  mempool_.on_commit(view, own_commands_or_none(payload));
  account_commands(at, payload);
}

std::span<const std::uint8_t> NodeWorkload::own_commands_or_none(
    std::span<const std::uint8_t> payload) const {
  bool own = false;
  consensus::for_each_command(payload, [&](std::span<const std::uint8_t> command) {
    const auto tag = consensus::request_tag(command);
    own = own || (tag && driver_of(tag->client) != nullptr);
  });
  return own ? payload : std::span<const std::uint8_t>{};
}

std::uint64_t NodeWorkload::lease_dissem_batch(std::vector<std::uint8_t>& payload) {
  sample_depth();
  return mempool_.lease_batch(payload);
}

void NodeWorkload::ack_dissem_batch(std::uint64_t token) { mempool_.ack_batch(token); }

void NodeWorkload::on_dissem_delivery(TimePoint at, const std::vector<std::uint8_t>& payload) {
  account_commands(at, payload);
}

void NodeWorkload::account_commands(TimePoint at, std::span<const std::uint8_t> payload) {
  consensus::for_each_command(payload, [&](std::span<const std::uint8_t> command) {
    const auto tag = consensus::request_tag(command);
    ClientDriver* driver = tag ? driver_of(tag->client) : nullptr;
    if (driver == nullptr) return;
    const auto it = outstanding_.find({tag->client, tag->seq});
    if (it == outstanding_.end()) {
      ++stats_.commit_misses;  // committed twice, or never submitted here
      driver->note_committed_ahead(tag->seq);
      return;
    }
    const Duration latency = at - it->second;
    outstanding_.erase(it);
    ++stats_.committed;
    stats_.latencies.emplace_back(at, latency);
    if (hooks_.on_request_committed) hooks_.on_request_committed(at, latency);
    driver->on_own_commit();
  });
}

ClientDriver* NodeWorkload::driver_of(std::uint32_t client) const {
  if (client < first_client_ || client - first_client_ >= drivers_.size()) return nullptr;
  return drivers_[client - first_client_].get();
}

crypto::Digest NodeWorkload::trace_digest() const {
  crypto::Sha256 copy = trace_hasher_;  // finish() consumes; hash a copy
  return copy.finish();
}

void NodeWorkload::record_generated(const std::vector<std::uint8_t>& request) {
  ++stats_.submitted;
  trace_hasher_.update(std::span<const std::uint8_t>(request.data(), request.size()));
}

void NodeWorkload::record_admitted(std::uint32_t client, std::uint64_t seq, TimePoint at) {
  outstanding_.emplace(std::make_pair(client, seq), at);
}

void NodeWorkload::note_starved() {
  // Nothing to do eagerly: the mempool remembers it bounced someone and
  // fires the space-available callback on the release edge.
}

void NodeWorkload::note_starved_release() {
  if (retry_scheduled_) return;
  retry_scheduled_ = true;
  // Deferred one event so the retry runs outside the drain/commit path
  // that freed the space (same instant, FIFO order — still deterministic).
  sim_->schedule_after(Duration::zero(), [this] {
    retry_scheduled_ = false;
    for (auto& driver : drivers_) driver->on_space_available();
  });
}

}  // namespace lumiere::workload
