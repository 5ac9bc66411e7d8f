#ifndef MARITIME_AIS_NMEA_H_
#define MARITIME_AIS_NMEA_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace maritime::ais {

/// Largest fragment count a valid AIVDM group can declare: the NMEA 0183
/// fragment-count field is a single digit. ParseSentence rejects larger
/// values so the FragmentAssembler's per-group buffer stays bounded.
inline constexpr int kMaxFragments = 9;

/// One parsed NMEA 0183 AIVDM/AIVDO sentence:
/// `!AIVDM,<total>,<num>,<seq>,<chan>,<payload>,<fill>*<checksum>`
/// The text fields view the parsed line, which must outlive the sentence.
struct NmeaSentence {
  std::string_view talker = "AIVDM";  ///< "AIVDM" (received) or "AIVDO".
  int fragment_count = 1;        ///< Total fragments of the message.
  int fragment_index = 1;        ///< 1-based index of this fragment.
  int sequence_id = -1;          ///< Multi-fragment group id; -1 when absent.
  char channel = 'A';            ///< Radio channel ('A'/'B'); '\0' when absent.
  std::string_view payload;      ///< Armored 6-bit payload.
  int fill_bits = 0;             ///< Pad bits in the final payload character.
};

/// XOR checksum over the characters between '!' and '*', as two uppercase
/// hex digits. (Parsing accepts either casing: real AIS feeds emit
/// lowercase hex, e.g. `*3f`.)
std::string NmeaChecksum(std::string_view body);

/// Renders the sentence with a correct checksum.
std::string FormatSentence(const NmeaSentence& s);

/// Parses and validates one sentence line without copying it: the result's
/// text fields view `line`. Fails with kCorruption on framing or checksum
/// errors (the paper's Data Scanner discards such messages). The checksum
/// and the commas come from one pass over the body, eight bytes per step on
/// little-endian CPUs.
Result<NmeaSentence> ParseSentence(std::string_view line);

/// Reassembles multi-fragment AIVDM messages. Feed sentences in arrival
/// order; when a message is complete, returns the concatenated armored
/// payload plus the final fragment's fill bits.
///
/// Only fragments of multi-part messages are copied, into group slots and
/// an output buffer that keep their capacity when reused, so steady-state
/// reassembly does not allocate. A single-fragment sentence passes through
/// as a view of its own payload.
class FragmentAssembler {
 public:
  struct Assembled {
    /// The sentence's own payload, or the assembler's output buffer; valid
    /// until the next Add or Clear.
    std::string_view payload;
    int fill_bits = 0;
  };

  /// Bounds on the pending-group buffer. When a fragment of a multi-part
  /// message is lost on the air, its group would otherwise never complete
  /// and never be erased; stale groups are evicted instead.
  struct Options {
    /// Evict a partial group once this many subsequent Add() calls have
    /// passed without it completing (a message's fragments arrive within a
    /// handful of sentences of each other on real feeds).
    uint64_t max_group_age_adds = 256;
    /// Hard cap on simultaneously pending groups; the least recently
    /// touched group is evicted first.
    size_t max_pending_groups = 64;
  };

  FragmentAssembler() = default;
  explicit FragmentAssembler(Options options) : options_(options) {}

  /// Returns a value when `s` completes a message (single-fragment sentences
  /// complete immediately); kNotFound-status when more fragments are pending;
  /// kCorruption when the fragment is inconsistent with its group.
  ///
  /// A first fragment restarts its group when the group already holds a
  /// first fragment (a reused sequence id), or when the group's later
  /// fragments have waited for more than kMaxFragments Adds: their own first
  /// fragment was lost, and joining them to a new message would corrupt it.
  /// That orphan counts as an evicted group.
  Result<Assembled> Add(const NmeaSentence& s);

  /// Number of partially assembled groups currently buffered.
  size_t pending_groups() const { return pending_; }

  /// Incomplete groups evicted so far (lost-fragment indicator; exposed so
  /// operators can monitor feed quality).
  uint64_t evicted_groups() const { return evicted_groups_; }

  /// Drops partial groups (e.g. between replayed streams).
  void Clear();

 private:
  // One pending group. Slots are recycled rather than erased, so fragment
  // strings keep their capacity.
  struct Group {
    bool in_use = false;
    int sequence_id = -1;  ///< Key, with the channel: ids are reused.
    char channel = '\0';
    int fragment_count = 0;  ///< 0 until the first fragment sizes the group.
    int received = 0;
    int fill_bits = 0;
    uint64_t last_add_seq = 0;   ///< add_seq_ when last touched.
    uint64_t sized_add_seq = 0;  ///< add_seq_ when the first fragment landed.
    std::array<std::string, kMaxFragments> fragments;  ///< "" = missing.
  };
  Group& FindOrOpen(int sequence_id, char channel);
  void Reset(Group& g);
  void Release(Group& g);
  void EvictStale();

  Options options_;
  uint64_t add_seq_ = 0;
  uint64_t evicted_groups_ = 0;
  size_t pending_ = 0;  ///< Groups in use.
  std::vector<Group> groups_;
  std::string assembled_;  ///< Payload of the last completed group.
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_NMEA_H_
