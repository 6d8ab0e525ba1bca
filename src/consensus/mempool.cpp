#include "consensus/mempool.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "common/assert.h"
#include "consensus/request_tag.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kFull:
      return "full";
    case Admission::kOversized:
      return "oversized";
    case Admission::kDuplicate:
      return "duplicate";
  }
  return "?";
}

Mempool::Mempool(MempoolLimits limits) : limits_(limits) {
  LUMIERE_ASSERT_MSG(limits_.max_batch_bytes > 4, "max_batch_bytes cannot fit any command");
  LUMIERE_ASSERT_MSG(limits_.max_batch_count > 0, "max_batch_count must be positive");
}

bool Mempool::has_capacity(std::size_t command_bytes) const noexcept {
  return queue_.size() < limits_.max_pending_count &&
         pending_bytes_ + command_bytes <= limits_.max_pending_bytes;
}

Admission Mempool::add(std::vector<std::uint8_t> command) {
  if (batch_cost(command) > limits_.max_batch_bytes) {
    ++rejected_oversized_;
    return Admission::kOversized;
  }
  if (!has_capacity(command.size())) {
    ++rejected_full_;
    starving_ = true;
    return Admission::kFull;
  }
  Entry entry{std::move(command), {}};
  if (limits_.suppress_duplicates) {
    entry.digest = crypto::Sha256::hash(
        std::span<const std::uint8_t>(entry.command.data(), entry.command.size()));
    if (!live_.insert(entry.digest).second) {
      ++rejected_duplicate_;
      return Admission::kDuplicate;
    }
  }
  pending_bytes_ += entry.command.size();
  queue_.push_back(std::move(entry));
  ++admitted_;
  return Admission::kAccepted;
}

Admission Mempool::add(std::string_view command) {
  return add(std::vector<std::uint8_t>(command.begin(), command.end()));
}

template <typename Sink>
std::vector<std::uint8_t> Mempool::drain_batch(Sink&& sink) {
  // Count first and size the payload exactly: a batch can live as long
  // as the run (ledger blocks and stored batches hold it), so capacity
  // left over from doubling would stay pinned with it.
  std::size_t count = 0;
  std::size_t used = 0;
  for (const Entry& entry : queue_) {
    if (count == limits_.max_batch_count) break;
    const std::size_t cost = batch_cost(entry.command);
    if (used + cost > limits_.max_batch_bytes) break;
    used += cost;
    ++count;
  }
  ser::Writer w(used);
  for (; count > 0; --count) {
    Entry& entry = queue_.front();
    w.bytes(std::span<const std::uint8_t>(entry.command.data(), entry.command.size()));
    pending_bytes_ -= entry.command.size();
    sink(std::move(entry));
    queue_.pop_front();
  }
  return std::move(w).take();
}

void Mempool::requeue(std::vector<Entry> back) {
  requeued_ += back.size();
  in_flight_count_ -= back.size();
  for (auto rit = back.rbegin(); rit != back.rend(); ++rit) {
    pending_bytes_ += rit->command.size();
    queue_.push_front(std::move(*rit));
  }
}

void Mempool::release(const Entry& entry) {
  if (limits_.suppress_duplicates) live_.erase(entry.digest);
}

std::vector<std::uint8_t> Mempool::next_batch() {
  // Drained for good: no lease, so no duplicate-suppression hold either.
  std::vector<std::uint8_t> payload = drain_batch([this](Entry&& entry) { release(entry); });
  maybe_signal_space();
  return payload;
}

std::vector<std::uint8_t> Mempool::lease_for_view(View view, Lease state) {
  std::vector<std::uint8_t> payload = drain_batch([&](Entry&& entry) {
    entry.state = state;
    entry.view = view;
    leases_.push_back(std::move(entry));
    ++in_flight_count_;
  });
  maybe_signal_space();
  return payload;
}

std::vector<std::uint8_t> Mempool::next_batch(View view) {
  return lease_for_view(view, Lease::kProposed);
}

template <typename Entries, typename Drop>
void Mempool::drop_entries(Entries& entries, Drop&& drop) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (drop(entries[i])) continue;
    if (kept != i) entries[kept] = std::move(entries[i]);
    ++kept;
  }
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(kept), entries.end());
}

template <typename Pred>
void Mempool::requeue_leases(View view, bool inclusive, Pred&& expired) {
  const auto due = [&](const Entry& entry) {
    return (entry.view < view || (inclusive && entry.view == view)) && expired(entry.state);
  };
  const auto count = std::count_if(leases_.begin(), leases_.end(), due);
  if (count == 0) return;
  std::vector<Entry> back;
  back.reserve(static_cast<std::size_t>(count));
  drop_entries(leases_, [&](Entry& entry) {
    if (!due(entry)) return false;
    back.push_back(std::move(entry));
    return true;
  });
  requeue(std::move(back));  // lease order: oldest first
}

std::vector<std::uint8_t> Mempool::attach(View view) {
  // A forwarded command whose view passed without a proposal carrying it
  // (the leader was silent, slow, or out of budget) rides this very
  // attachment again, ahead of anything admitted since.
  requeue_leases(view, /*inclusive=*/false,
                 [](Lease state) { return state != Lease::kProposed; });
  return lease_for_view(view, Lease::kSent);
}

namespace {

/// A cheap 64-bit key for a command: its request tag when it has one,
/// else its bytes. Matches are confirmed by same_command.
std::uint64_t quick_key(std::span<const std::uint8_t> command) {
  if (const auto tag = request_tag(command)) {
    return (tag->seq * 0x9e3779b97f4a7c15ULL) ^ tag->client;
  }
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(command.data()), command.size()));
}

/// Tagged requests are the same command when their tags agree: the
/// chained core commits one command per tag, so a block carrying our tag
/// under other bytes (forged by a Byzantine replica) still ends our copy,
/// which the chain would refuse from then on. Anything else must match
/// byte for byte.
bool same_command(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  const auto tag_a = request_tag(a);
  const auto tag_b = request_tag(b);
  if (tag_a && tag_b) return *tag_a == *tag_b;
  return std::ranges::equal(a, b);
}

}  // namespace

template <typename Entries, typename Take>
void Mempool::match_commands(std::span<const std::uint8_t> payload, Entries& entries,
                             Take&& take) {
  if (entries.empty() || payload.empty()) return;
  // This runs on every proposal and commit that carries one of our
  // commands, so they are keyed cheaply (not SHA-256) and confirmed by
  // same_command. Each payload instance matches at most one entry: with
  // duplicate suppression off, byte-identical copies may be held
  // independently.
  using Carried = std::pair<std::uint64_t, std::span<const std::uint8_t>>;
  std::vector<Carried> carried;
  for_each_command(payload, [&carried](std::span<const std::uint8_t> command) {
    carried.emplace_back(quick_key(command), command);
  });
  const auto by_key = [](const Carried& a, const Carried& b) { return a.first < b.first; };
  std::sort(carried.begin(), carried.end(), by_key);
  std::vector<bool> used(carried.size(), false);
  drop_entries(entries, [&](Entry& entry) {
    const std::span<const std::uint8_t> command(entry.command.data(), entry.command.size());
    const Carried probe{quick_key(command), {}};
    for (auto hit = std::lower_bound(carried.begin(), carried.end(), probe, by_key);
         hit != carried.end() && hit->first == probe.first; ++hit) {
      const auto i = static_cast<std::size_t>(hit - carried.begin());
      if (used[i] || !same_command(hit->second, command)) continue;
      used[i] = true;
      return take(entry);
    }
    return false;
  });
}

void Mempool::on_proposed(View view, std::span<const std::uint8_t> payload) {
  match_commands(payload, leases_, [view](Entry& entry) {
    entry.view = entry.state == Lease::kProposed ? std::max(entry.view, view) : view;
    entry.state = Lease::kProposed;
    return false;
  });
  // What the proposal left out of its own view's attachment reached
  // lead(view) too late, and lead(view) relays it to lead(view + 1).
  for (Entry& entry : leases_) {
    if (entry.state == Lease::kSent && entry.view == view) {
      entry.state = Lease::kRelayed;
      entry.view = view + 1;
    }
  }
}

std::uint64_t Mempool::lease_batch(std::vector<std::uint8_t>& payload) {
  std::vector<Entry> drained;
  payload = drain_batch([&drained](Entry&& entry) { drained.push_back(std::move(entry)); });
  if (drained.empty()) return 0;
  in_flight_count_ += drained.size();
  const std::uint64_t token = ++next_token_;
  token_leases_[token] = std::move(drained);
  maybe_signal_space();
  return token;
}

void Mempool::ack_batch(std::uint64_t token) {
  const auto it = token_leases_.find(token);
  if (it == token_leases_.end()) return;
  acked_ += it->second.size();
  in_flight_count_ -= it->second.size();
  for (const Entry& entry : it->second) release(entry);
  token_leases_.erase(it);
  maybe_signal_space();
}

void Mempool::requeue_batch(std::uint64_t token) {
  const auto it = token_leases_.find(token);
  if (it == token_leases_.end()) return;
  requeue(std::move(it->second));
  token_leases_.erase(it);
  maybe_signal_space();
}

void Mempool::on_commit(View view, std::span<const std::uint8_t> payload) {
  if (leases_.empty() && queue_.empty()) return;
  // Ack: any leader's block may carry our commands (forwarded ones ride
  // other replicas' proposals), so the match runs against every lease,
  // and against the queue: a lease that expired while its copy was
  // still on the way to a proposal is pending again when that copy
  // commits, and the chain would refuse to commit it twice.
  std::size_t acked = 0;
  match_commands(payload, leases_, [&](Entry& entry) {
    release(entry);
    ++acked;
    return true;
  });
  acked_ += acked;
  in_flight_count_ -= acked;
  std::size_t dequeued = 0;
  match_commands(payload, queue_, [&](Entry& entry) {
    release(entry);
    pending_bytes_ -= entry.command.size();
    ++dequeued;
    return true;
  });
  acked_ += dequeued;
  // Requeue: commits arrive in view order, so a proposed@w lease at or
  // below the committed view whose commands were not in the chain belongs
  // to a forever-abandoned proposal. sent@ and relayed@ leases wait for
  // attach().
  requeue_leases(view, /*inclusive=*/true,
                 [](Lease state) { return state == Lease::kProposed; });
  maybe_signal_space();
}

void Mempool::maybe_signal_space() {
  if (!starving_ || !has_capacity(0)) return;
  starving_ = false;
  if (space_available_) space_available_();
}

}  // namespace lumiere::consensus
