// Per-origin batch lanes: one fixed-size record per batch a replica has
// stored or ordered.
//
// An origin numbers its batches 1, 2, 3, ... (BatchId::seq), so a
// replica's batches form one dense stream per origin — Autobahn's lanes
// (arXiv 2401.10369). A record sits in its origin's lane at its seq: the
// lane is a sorted map of fixed chunks of kChunkRecords records each,
// allocated when a seq first lands in them, so a record needs no heap
// node of its own and a forged seq far ahead costs one chunk, not the
// gap up to it.
//
// The lane slot is keyed by (origin, seq) only, and the digest stored in
// it says which batch owns it. An id that cannot take its slot goes to
// an overflow map keyed by the full BatchId, which behaves exactly like
// a plain map:
//   * the slot already holds another digest — a restarted incarnation
//     whose seq restarts at 1, or a push forged by another replica under
//     an honest origin's (origin, seq);
//   * the origin is outside [0, n), the seq is 0, or the digest is all
//     zero (the empty-slot marker).
// Records are never removed, so a slot's owner never changes and an id
// lives in exactly one place: its slot if it owns it, else the overflow.
// Nothing iterates the table, so using it changes no message order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dissem/batch.h"
#include "dissem/messages.h"

namespace lumiere::dissem {

class BatchLanes {
 public:
  /// What a replica knows about one batch.
  struct Record {
    crypto::Digest digest;  ///< all zero: an unclaimed lane slot
    BatchBytes bytes;       ///< null until the payload arrives
    bool ordered = false;   ///< committed (and deduplicated) on this node
  };
  static_assert(sizeof(Record) <= 56);

  /// Records per lane chunk.
  static constexpr std::size_t kChunkRecords = 16;
  using Chunk = std::array<Record, kChunkRecords>;
  static_assert(sizeof(Chunk) <= 1024);

  /// Lanes for origins 0..origins-1; any other origin overflows.
  explicit BatchLanes(std::uint32_t origins) : lanes_(origins) {}

  /// The record for `id`, or nullptr if the table has none. Allocates
  /// nothing.
  [[nodiscard]] const Record* find(const BatchId& id) const;

  /// The record for `id`, created empty (no bytes, not ordered) when
  /// absent. The reference stays valid for the table's lifetime.
  [[nodiscard]] Record& record(const BatchId& id);

  /// Keeps `bytes` as `id`'s payload unless it already has one.
  void store(const BatchId& id, BatchBytes bytes);

  /// `id`'s payload, or nullptr when this node never got it.
  [[nodiscard]] const BatchBytes* bytes(const BatchId& id) const;

  /// True when `id` was marked ordered.
  [[nodiscard]] bool ordered(const BatchId& id) const;

  /// Marks `id` ordered; false when it already was.
  bool mark_ordered(const BatchId& id);

  /// The table's footprint: lane chunks allocated, overflow records.
  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_; }
  [[nodiscard]] std::size_t overflow_size() const noexcept { return overflow_.size(); }

 private:
  using Lane = std::map<std::uint64_t, Chunk>;  ///< seq / kChunkRecords -> chunk

  /// True when `id` may own a lane slot at all.
  [[nodiscard]] bool laned(const BatchId& id) const noexcept {
    return id.origin < lanes_.size() && id.seq != 0 && !id.digest.is_zero();
  }
  /// `id`'s lane slot if its chunk exists, else nullptr.
  [[nodiscard]] const Record* slot(const BatchId& id) const;

  std::vector<Lane> lanes_;
  std::map<BatchId, Record> overflow_;
  std::size_t chunks_ = 0;
};

}  // namespace lumiere::dissem
