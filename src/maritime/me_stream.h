#ifndef MARITIME_MARITIME_ME_STREAM_H_
#define MARITIME_MARITIME_ME_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"
#include "rtec/engine.h"
#include "stream/position.h"
#include "tracker/critical_point.h"

namespace maritime::surveillance {

/// Term kinds used by the maritime CE definitions.
inline constexpr int32_t kVesselTermKind = 0;
inline constexpr int32_t kAreaTermKind = 1;

inline rtec::Term VesselTerm(stream::Mmsi mmsi) {
  return rtec::Term{kVesselTermKind, static_cast<int32_t>(mmsi)};
}
inline rtec::Term AreaTerm(int32_t area_id) {
  return rtec::Term{kAreaTermKind, area_id};
}

/// Log-friendly label for a ground term ("area=3", "vessel=205").
inline std::string TermLabel(rtec::Term t) {
  if (t.kind == kVesselTermKind) return StrPrintf("vessel=%d", t.id);
  if (t.kind == kAreaTermKind) return StrPrintf("area=%d", t.id);
  return StrPrintf("term=%d:%d", t.kind, t.id);
}

/// The event/fluent vocabulary of the maritime CE library: the critical
/// movement events (MEs) produced by the trajectory detection component —
/// gap, turn, speedChange, slowMotion, plus the marker events bounding the
/// durative MEs stopped and lowSpeed — and the CEs of paper Section 4.
struct MaritimeSchema {
  // Input MEs (instantaneous).
  rtec::EventId gap = -1;           ///< Communication gap started.
  rtec::EventId gap_end = -1;       ///< Vessel reporting again.
  rtec::EventId turn = -1;          ///< Sharp or smooth turn.
  rtec::EventId speed_change = -1;  ///< Speed deviated by more than α.
  rtec::EventId slow_motion = -1;   ///< Vessel moving "too" slowly.
  // Marker events bounding the durative input MEs.
  rtec::EventId stop_start = -1;
  rtec::EventId stop_end = -1;
  rtec::EventId slow_start = -1;
  rtec::EventId slow_end = -1;
  /// Spatial fact: subject vessel is close to object area (Figure 11(b)
  /// mode, where spatial relations arrive precomputed in the input stream).
  rtec::EventId close_fact = -1;

  // Input durative MEs, represented as fluents.
  rtec::FluentId stopped = -1;    ///< stopped(Vessel)=true intervals.
  rtec::FluentId low_speed = -1;  ///< lowSpeed(Vessel)=true intervals.

  // Output CEs.
  rtec::FluentId suspicious = -1;       ///< suspicious(Area), rule-set (3).
  rtec::FluentId illegal_fishing = -1;  ///< illegalFishing(Area), rule-set (4).
  rtec::EventId illegal_shipping = -1;  ///< illegalShipping(Area), rule (5).
  rtec::EventId dangerous_shipping = -1;  ///< dangerousShipping(Area), (6).
  /// Extension beyond the paper's four CEs: adrift(Vessel) holds while a
  /// vessel is stopped in open water, away from every port — the signature
  /// of a disabled ship (or one engaged in a transfer at sea). The rule is
  /// definable in exactly the paper's formalism:
  ///   initiatedAt(adrift(V)=true, T)  <- happensAt(start(stopped(V)=true), T),
  ///                                      holdsAt(coord(V)=(Lon,Lat), T),
  ///                                      not close(Lon, Lat, any port)
  ///   terminatedAt(adrift(V)=true, T) <- happensAt(end(stopped(V)=true), T)
  rtec::FluentId adrift = -1;

  /// Declares every event and fluent on `engine`.
  static MaritimeSchema Declare(rtec::Engine& engine);
};

/// Statistics of one conversion from critical points to MEs.
struct MeFeedStats {
  uint64_t critical_points = 0;
  uint64_t me_events = 0;      ///< Instantaneous ME occurrences asserted.
  uint64_t spatial_facts = 0;  ///< close facts asserted (fact mode only).
};

/// Converts one critical point into ME assertions on `engine`: the vessel
/// coordinates always (the coord fluent), one event per relevant annotation
/// flag. Returns the number of ME events asserted.
uint64_t FeedCriticalPoint(rtec::Engine& engine, const MaritimeSchema& schema,
                           const tracker::CriticalPoint& cp);

/// Side table of precomputed spatial facts for the Figure 11(b) setting.
/// Each ME of a vessel is accompanied by facts naming the areas the vessel
/// is close to at the ME's timestamp; between MEs the latest fact group
/// stays in force.
///
/// Layout (DESIGN.md §14): every vessel owns a dense slot and a run of one
/// shared pool holding its fact groups in time order, each group a timestamp
/// and the id of an interned area set. The sets' area ids live in one
/// contiguous buffer: a fleet realises few distinct closeness combinations,
/// so feeding a fact group allocates only when a vessel is first seen or
/// outgrows its run. Two derived structures sit beside the slots:
///  - an area→vessel index naming, for every area, the vessels with at least
///    one retained group naming it (ascending MMSI, each reference-counted by
///    its groups), so area-keyed rules visit only those vessels;
///  - a purge queue keyed by each vessel's second-group time — the earliest
///    cutoff at which the vessel has a group to drop — so a purge visits
///    only the vessels it changes.
class SpatialFactTable {
 public:
  /// One entry of the area→vessel index: `refs` counts the vessel's
  /// retained fact groups that name the area (never 0).
  struct NearVessel {
    int32_t area;
    stream::Mmsi mmsi;
    uint32_t refs;
    /// The index order: by area, then ascending MMSI.
    friend bool operator<(const NearVessel& a, const NearVessel& b) {
      return a.area != b.area ? a.area < b.area : a.mmsi < b.mmsi;
    }
  };

  /// Registers an ME of `mmsi` at `t` being close to exactly `areas` (any
  /// order; stored sorted). A delayed group is inserted in time order.
  void AddFactGroup(stream::Mmsi mmsi, Timestamp t,
                    std::span<const int32_t> areas);

  /// Areas the vessel was close to according to its latest fact group at or
  /// before `t`, sorted (empty when the vessel has never reported). The span
  /// is valid until the table is next modified.
  std::span<const int32_t> AreasCloseAt(stream::Mmsi mmsi, Timestamp t) const;

  /// True iff `area` is among AreasCloseAt(mmsi, t).
  bool IsCloseAt(stream::Mmsi mmsi, int32_t area, Timestamp t) const;

  /// Classifies the vessel's closeness to `area` as observed by IsCloseAt
  /// over (from, upto]: returns true and sets *close when the answer is the
  /// same at every such time (one fact group in force throughout, or every
  /// in-force group agreeing on the area — including the implicit "never
  /// close" before a vessel's first group). Returns false when the answer
  /// varies, or when the vessel has too many in-force groups to scan
  /// cheaply; callers then fall back to exact per-time lookups.
  bool ConstantCloseOver(stream::Mmsi mmsi, int32_t area, Timestamp from,
                         Timestamp upto, bool* close) const;

  /// Fills `out` (cleared first; sorted, unique) with the union of the
  /// vessel's areas over every fact group in force at some time >= `from`:
  /// the latest group at or before `from` plus all later groups. Because
  /// groups are append-only between purges and purges retain the boundary
  /// group, this union covers both the pre-change and post-change closeness
  /// of the vessel on [from, +inf) — the conservative vessel→area projection
  /// the engine's dependency-scoped dirty propagation needs (DESIGN.md §14).
  void AreasCoveringFrom(stream::Mmsi mmsi, Timestamp from,
                         std::vector<int32_t>* out) const;

  /// Vessels with at least one retained fact group naming `area`, ascending
  /// MMSI: a superset of every vessel IsCloseAt reports close to the area at
  /// any time, since a vessel no retained group names is never close to it.
  /// The span is valid until the table is next modified.
  std::span<const NearVessel> VesselsNear(int32_t area) const;

  /// Drops fact groups older than the vessel's latest group at or before
  /// `cutoff` (window management with last-known-state inertia; answers for
  /// t > cutoff are unaffected).
  void PurgeBefore(Timestamp cutoff);

  size_t fact_count() const { return fact_count_; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes every fact group (format v1): vessels in ascending MMSI
  /// order, so identical state yields identical bytes.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores a saved table, replacing the current contents, and rebuilds
  /// the interned sets, the area index and the purge queue from it. On error
  /// the table is left empty, never half-filled.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct Group {
    Timestamp t;
    uint32_t set;  ///< Index into sets_.
  };
  /// A vessel's groups, ascending t and never empty, are the first `size`
  /// of the `capacity` pool_ slots from `begin`.
  struct Vessel {
    stream::Mmsi mmsi = 0;
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  /// An interned area set: ids [begin, begin + count) of set_ids_, sorted.
  struct Set {
    uint32_t begin;
    uint32_t count;
  };
  /// (time of the slot's second group, slot): the slot has a group to purge
  /// once the cutoff reaches the time. Entries go stale when the slot's
  /// second group changes; a popped stale entry is a no-op.
  using PurgeEntry = std::pair<Timestamp, uint32_t>;

  std::span<const int32_t> SetOf(uint32_t set) const {
    return {set_ids_.data() + sets_[set].begin, sets_[set].count};
  }
  /// Id of the set holding exactly `sorted`, interning it if new. `hint`
  /// (a set id, or kNoSet) is tried first: a vessel's consecutive groups
  /// mostly name the same areas.
  uint32_t Intern(std::span<const int32_t> sorted, uint32_t hint);
  static constexpr uint32_t kNoSet = UINT32_MAX;
  static uint64_t HashIds(std::span<const int32_t> ids);
  std::span<Group> GroupsOf(const Vessel& v) {
    return {pool_.data() + v.begin, v.size};
  }
  std::span<const Group> GroupsOf(const Vessel& v) const {
    return {pool_.data() + v.begin, v.size};
  }
  /// Gives `v` its first `capacity` slots at the end of the pool.
  void Place(Vessel& v, uint32_t capacity);
  /// Makes room for one more group of `v`: a full run moves to the end of
  /// the pool at twice the size, after compacting the pool if more than half
  /// of it is runs left behind.
  void Grow(Vessel& v);
  const Vessel* Find(stream::Mmsi mmsi) const;
  /// Adds the group's vessel to the index of every area of the group.
  void IndexAdd(uint32_t set, stream::Mmsi mmsi);
  void IndexRemove(uint32_t set, stream::Mmsi mmsi);
  void QueuePurge(uint32_t slot);
  void Clear();

  std::vector<Vessel> vessels_;  ///< Dense slots, in arrival order.
  std::vector<Group> pool_;      ///< Every vessel's run of group slots.
  size_t pool_abandoned_ = 0;    ///< Slots of runs that moved on.
  /// (MMSI, slot) in ascending MMSI order: the lookup, and SaveTo's order.
  std::vector<std::pair<stream::Mmsi, uint32_t>> by_mmsi_;
  /// Interned sets. Never freed: their number is bounded by the distinct
  /// closeness combinations the area layout admits, not by the stream.
  std::vector<int32_t> set_ids_;
  std::vector<Set> sets_;
  /// The interning lookup: set ids, open-addressed by content hash with
  /// linear probing (kNoSet marks a free slot; at most half are taken).
  std::vector<uint32_t> set_slots_;
  /// The area→vessel index, sorted by (area, MMSI): one flat buffer, whose
  /// entries for an area are one contiguous run.
  std::vector<NearVessel> near_;
  std::priority_queue<PurgeEntry, std::vector<PurgeEntry>, std::greater<>>
      purge_queue_;
  std::vector<int32_t> sort_scratch_;  ///< AddFactGroup's unsorted input.
  size_t fact_count_ = 0;
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_ME_STREAM_H_
