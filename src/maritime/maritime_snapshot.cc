// Checkpoint serialization of the surveillance layer: the spatial-fact
// table and the CE recognizers. Wire layout notes live in DESIGN.md §9.

#include <algorithm>
#include <vector>

#include "maritime/me_stream.h"
#include "maritime/recognizer.h"
#include "snapshot/codec.h"

namespace maritime::surveillance {
namespace {

constexpr uint8_t kFactTableFormatVersion = 1;
constexpr uint8_t kRecognizerFormatVersion = 1;
constexpr uint8_t kPartitionedFormatVersion = 1;

}  // namespace

void SpatialFactTable::SaveTo(snapshot::Writer& w) const {
  // Format v1: vessels ascending by MMSI, each group as its time and its
  // sorted ids. Slots, the pool and the interned sets do not show in it.
  w.U8(kFactTableFormatVersion);
  w.U64(by_mmsi_.size());
  for (const auto& [mmsi, slot] : by_mmsi_) {
    const std::span<const Group> groups = GroupsOf(vessels_[slot]);
    w.Put(mmsi, uint64_t{groups.size()});
    for (const Group& g : groups) {
      const std::span<const int32_t> areas = SetOf(g.set);
      w.Put(g.t, uint64_t{areas.size()});
      for (const int32_t area : areas) w.I32(area);
    }
  }
}

Status SpatialFactTable::RestoreFrom(snapshot::Reader& r) {
  Clear();
  const auto fail = [this] {
    Clear();
    return snapshot::CorruptionIn("spatial fact table");
  };
  if (const Status s = snapshot::ReadVersion(r, kFactTableFormatVersion,
                                             "spatial fact table");
      !s.ok()) {
    return s;
  }
  uint64_t vessels = 0;
  if (!r.Count(&vessels, sizeof(uint32_t) + sizeof(uint64_t))) return fail();
  std::vector<int32_t> areas;  // one group's ids
  std::vector<int32_t> named;  // every group's ids, for the area index
  for (uint64_t i = 0; i < vessels; ++i) {
    Vessel v;
    uint64_t ngroups = 0;
    if (!r.Get(&v.mmsi, &ngroups) ||
        !r.Fits(ngroups, sizeof(int64_t) + sizeof(uint64_t))) {
      return fail();
    }
    // SaveTo writes each vessel once, in ascending MMSI order, with at least
    // one group (a purge always keeps the boundary group).
    if (ngroups == 0 ||
        (!by_mmsi_.empty() && by_mmsi_.back().first >= v.mmsi)) {
      return fail();
    }
    Place(v, static_cast<uint32_t>(ngroups));
    for (uint64_t j = 0; j < ngroups; ++j) {
      Group g{};
      uint64_t nareas = 0;
      if (!r.Get(&g.t, &nareas) || !r.Fits(nareas, sizeof(int32_t))) {
        return fail();
      }
      areas.resize(nareas);
      for (int32_t& area : areas) {
        if (!r.I32(&area)) return fail();
      }
      // Invariants IsCloseAt/AreasCloseAt rely on: per-vessel groups sorted
      // by time, areas sorted within a group.
      if (!std::is_sorted(areas.begin(), areas.end())) return fail();
      const Group* last = v.size > 0 ? &pool_[v.begin + v.size - 1] : nullptr;
      if (last != nullptr && last->t > g.t) return fail();
      g.set = Intern(areas, last != nullptr ? last->set : kNoSet);
      fact_count_ += areas.size();
      named.insert(named.end(), areas.begin(), areas.end());
      pool_[v.begin + v.size++] = g;
    }
    // Index the vessel under each area it names, counting the naming groups
    // (sorted into (area, MMSI) order once every vessel is read).
    std::sort(named.begin(), named.end());
    for (auto run = named.begin(); run != named.end();) {
      const auto next = std::upper_bound(run, named.end(), *run);
      near_.push_back(
          NearVessel{*run, v.mmsi, static_cast<uint32_t>(next - run)});
      run = next;
    }
    named.clear();
    const auto slot = static_cast<uint32_t>(vessels_.size());
    by_mmsi_.emplace_back(v.mmsi, slot);
    vessels_.push_back(std::move(v));
    QueuePurge(slot);
  }
  std::sort(near_.begin(), near_.end());
  return Status::OK();
}

void CERecognizer::SaveTo(snapshot::Writer& w) const {
  w.U8(kRecognizerFormatVersion);
  facts_.SaveTo(w);
  engine_->SaveTo(w);
  w.U64(feed_stats_.critical_points);
  w.U64(feed_stats_.me_events);
  w.U64(feed_stats_.spatial_facts);
}

Status CERecognizer::RestoreFrom(snapshot::Reader& r) {
  if (const Status s =
          snapshot::ReadVersion(r, kRecognizerFormatVersion, "recognizer");
      !s.ok()) {
    return s;
  }
  if (const Status s = facts_.RestoreFrom(r); !s.ok()) return s;
  if (const Status s = engine_->RestoreFrom(r); !s.ok()) return s;
  if (!r.U64(&feed_stats_.critical_points) || !r.U64(&feed_stats_.me_events) ||
      !r.U64(&feed_stats_.spatial_facts)) {
    feed_stats_ = MeFeedStats{};
    return snapshot::CorruptionIn("recognizer");
  }
  return Status::OK();
}

void PartitionedRecognizer::SaveTo(snapshot::Writer& w) const {
  w.U8(kPartitionedFormatVersion);
  w.U32(static_cast<uint32_t>(parts_.size()));
  for (const Partition& p : parts_) {
    w.F64(p.min_lon);
    p.rec->SaveTo(w);
  }
  w.U64(recognize_calls_);
  w.U64(recognized_items_);
  w.U64(input_events_);
  // Retired cache counters: the engines' own records carry them, so these
  // three are always 0.
  w.Put(uint64_t{0}, uint64_t{0}, uint64_t{0});
}

Status PartitionedRecognizer::RestoreFrom(snapshot::Reader& r) {
  if (const Status s = snapshot::ReadVersion(r, kPartitionedFormatVersion,
                                             "partitioned recognizer");
      !s.ok()) {
    return s;
  }
  uint32_t count = 0;
  if (!r.U32(&count)) return snapshot::CorruptionIn("partitioned recognizer");
  if (count != parts_.size()) {
    return Status::InvalidArgument(
        "snapshot: partition count mismatch (ME routing would change)");
  }
  for (Partition& p : parts_) {
    double min_lon = 0.0;
    if (!r.F64(&min_lon)) {
      return snapshot::CorruptionIn("partitioned recognizer");
    }
    if (min_lon != p.min_lon) {
      return Status::InvalidArgument(
          "snapshot: partition band bounds mismatch");
    }
    if (const Status s = p.rec->RestoreFrom(r); !s.ok()) return s;
  }
  uint64_t calls = 0, items = 0, inputs = 0;
  uint64_t hits = 0, misses = 0, evictions = 0;
  if (!r.Get(&calls, &items, &inputs, &hits, &misses, &evictions)) {
    return snapshot::CorruptionIn("partitioned recognizer");
  }
  // SaveTo writes 0 for the retired cache counters; a nonzero value would
  // be counted again on top of the engines' restored cache statistics.
  if (hits != 0 || misses != 0 || evictions != 0) {
    return snapshot::CorruptionIn(
        "partitioned recognizer (retired cache counters not 0)");
  }
  recognize_calls_ = calls;
  recognized_items_ = items;
  input_events_ = inputs;
  return Status::OK();
}

}  // namespace maritime::surveillance
