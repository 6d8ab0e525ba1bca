#include "dissem/batch_lanes.h"

#include <utility>

namespace lumiere::dissem {

const BatchLanes::Record* BatchLanes::slot(const BatchId& id) const {
  const Lane& lane = lanes_[id.origin];
  const auto chunk = lane.find(id.seq / kChunkRecords);
  return chunk == lane.end() ? nullptr : &chunk->second[id.seq % kChunkRecords];
}

const BatchLanes::Record* BatchLanes::find(const BatchId& id) const {
  if (laned(id)) {
    const Record* rec = slot(id);
    if (rec == nullptr || rec->digest.is_zero()) return nullptr;  // unclaimed: nowhere else
    if (rec->digest == id.digest) return rec;
  }
  const auto it = overflow_.find(id);
  return it == overflow_.end() ? nullptr : &it->second;
}

BatchLanes::Record& BatchLanes::record(const BatchId& id) {
  if (laned(id)) {
    Lane& lane = lanes_[id.origin];
    const auto [chunk, added] = lane.try_emplace(id.seq / kChunkRecords);
    if (added) ++chunks_;
    Record& rec = chunk->second[id.seq % kChunkRecords];
    if (rec.digest.is_zero()) rec.digest = id.digest;  // claims the slot
    if (rec.digest == id.digest) return rec;
  }
  auto [it, added] = overflow_.try_emplace(id);
  if (added) it->second.digest = id.digest;
  return it->second;
}

void BatchLanes::store(const BatchId& id, BatchBytes bytes) {
  Record& rec = record(id);
  if (!rec.bytes) rec.bytes = std::move(bytes);
}

const BatchBytes* BatchLanes::bytes(const BatchId& id) const {
  const Record* rec = find(id);
  return rec != nullptr && rec->bytes ? &rec->bytes : nullptr;
}

bool BatchLanes::ordered(const BatchId& id) const {
  const Record* rec = find(id);
  return rec != nullptr && rec->ordered;
}

bool BatchLanes::mark_ordered(const BatchId& id) {
  Record& rec = record(id);
  return !std::exchange(rec.ordered, true);
}

}  // namespace lumiere::dissem
