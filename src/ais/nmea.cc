#include "ais/nmea.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/strings.h"

namespace maritime::ais {

std::string NmeaChecksum(std::string_view body) {
  unsigned char sum = 0;
  for (char c : body) sum ^= static_cast<unsigned char>(c);
  char buf[3];
  std::snprintf(buf, sizeof(buf), "%02X", sum);
  return buf;
}

std::string FormatSentence(const NmeaSentence& s) {
  std::string body(s.talker);
  body += ',';
  body += std::to_string(s.fragment_count);
  body += ',';
  body += std::to_string(s.fragment_index);
  body += ',';
  if (s.sequence_id >= 0) body += std::to_string(s.sequence_id);
  body += ',';
  if (s.channel != '\0') body += s.channel;
  body += ',';
  body += s.payload;
  body += ',';
  body += std::to_string(s.fill_bits);
  return "!" + body + "*" + NmeaChecksum(body);
}

Result<NmeaSentence> ParseSentence(std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty() || line[0] != '!') {
    return Status::Corruption("sentence does not start with '!'");
  }
  const size_t star = line.rfind('*');
  if (star == std::string_view::npos || star + 3 != line.size()) {
    return Status::Corruption("missing or malformed checksum");
  }
  const std::string_view body = line.substr(1, star - 1);
  // One pass over the body: the XOR checksum, the number of commas, and the
  // offsets of the first six.
  unsigned char sum = 0;
  size_t commas = 0;
  size_t comma_at[6] = {};
  const auto note_comma = [&](size_t at) {
    if (commas < 6) comma_at[commas] = at;
    ++commas;
  };
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes per step: the XOR of the words folds to the checksum, and
    // the zero bytes of word ^ ",,,,,,,," are the commas, lowest address in
    // the lowest byte. The zero-byte test is exact (no carry crosses a
    // byte), so no other byte is taken for a comma.
    constexpr uint64_t kCommas = 0x2C2C2C2C2C2C2C2Cull;
    constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    uint64_t acc = 0;
    for (; i + 8 <= body.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, body.data() + i, 8);
      acc ^= word;
      const uint64_t x = word ^ kCommas;
      uint64_t zero = ~(((x & kLow7) + kLow7) | x | kLow7);
      for (; zero != 0; zero &= zero - 1) {
        note_comma(i + static_cast<size_t>(std::countr_zero(zero) / 8));
      }
    }
    acc ^= acc >> 32;
    acc ^= acc >> 16;
    acc ^= acc >> 8;
    sum = static_cast<unsigned char>(acc);
  }
  for (; i < body.size(); ++i) {
    sum ^= static_cast<unsigned char>(body[i]);
    if (body[i] == ',') note_comma(i);
  }
  // Case-insensitive compare against NmeaChecksum's uppercase hex: receivers
  // in the wild emit lowercase hex (`*3f`), which is just as valid.
  constexpr char kHex[] = "0123456789ABCDEF";
  const auto upper = [](char c) {
    return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
  };
  if (upper(line[star + 1]) != kHex[sum >> 4] ||
      upper(line[star + 2]) != kHex[sum & 15]) {
    return Status::Corruption("checksum mismatch");
  }
  if (commas != 6) {
    return Status::Corruption(
        StrPrintf("expected 7 fields, got %zu", commas + 1));
  }
  std::string_view fields[7];
  size_t start = 0;
  for (size_t k = 0; k < 6; ++k) {
    fields[k] = body.substr(start, comma_at[k] - start);
    start = comma_at[k] + 1;
  }
  fields[6] = body.substr(start);
  NmeaSentence s;
  s.talker = fields[0];
  if (s.talker != "AIVDM" && s.talker != "AIVDO") {
    return Status::Corruption("unknown talker '" + std::string(s.talker) +
                              "'");
  }
  auto parse_int = [](std::string_view f, int fallback) {
    if (f.empty()) return fallback;
    int v = 0;
    for (char c : f) {
      if (c < '0' || c > '9') return fallback;
      // Every numeric AIVDM field is tiny (fragment counts, sequence ids,
      // fill bits); a value this large is corrupt, and accumulating further
      // would overflow `int` — undefined behavior on a hostile feed.
      if (v > 999999) return fallback;
      v = v * 10 + (c - '0');
    }
    return v;
  };
  s.fragment_count = parse_int(fields[1], 0);
  s.fragment_index = parse_int(fields[2], 0);
  s.sequence_id = parse_int(fields[3], -1);
  s.channel = fields[4].empty() ? '\0' : fields[4][0];
  s.payload = fields[5];
  s.fill_bits = parse_int(fields[6], -1);
  if (s.fragment_count < 1 || s.fragment_index < 1 ||
      s.fragment_index > s.fragment_count) {
    return Status::Corruption("inconsistent fragment numbering");
  }
  // The NMEA fragment-count field is a single digit, so 9 bounds any valid
  // sentence. Without this cap a hostile count (e.g. 999999) would outgrow
  // the FragmentAssembler's per-group fragment table.
  if (s.fragment_count > kMaxFragments) {
    return Status::Corruption(
        StrPrintf("fragment count %d exceeds NMEA limit of %d",
                  s.fragment_count, kMaxFragments));
  }
  if (s.fill_bits < 0 || s.fill_bits > 5) {
    return Status::Corruption("fill bits outside [0,5]");
  }
  if (s.fragment_count > 1 && s.sequence_id < 0) {
    return Status::Corruption("multi-fragment sentence without sequence id");
  }
  return s;
}

FragmentAssembler::Group& FragmentAssembler::FindOrOpen(int sequence_id,
                                                        char channel) {
  Group* free_slot = nullptr;
  for (Group& g : groups_) {
    if (!g.in_use) {
      if (free_slot == nullptr) free_slot = &g;
    } else if (g.sequence_id == sequence_id && g.channel == channel) {
      return g;
    }
  }
  if (free_slot == nullptr) free_slot = &groups_.emplace_back();
  free_slot->in_use = true;
  free_slot->sequence_id = sequence_id;
  free_slot->channel = channel;
  ++pending_;
  return *free_slot;
}

void FragmentAssembler::Reset(Group& g) {
  for (int i = 0; i < g.fragment_count; ++i) {
    g.fragments[static_cast<size_t>(i)].clear();
  }
  g.fragment_count = 0;
  g.received = 0;
  g.fill_bits = 0;
}

void FragmentAssembler::Release(Group& g) {
  Reset(g);
  g.in_use = false;
  --pending_;
}

void FragmentAssembler::Clear() {
  for (Group& g : groups_) {
    if (g.in_use) Release(g);
  }
}

Result<FragmentAssembler::Assembled> FragmentAssembler::Add(
    const NmeaSentence& s) {
  ++add_seq_;
  EvictStale();
  if (s.fragment_count == 1) {
    return Assembled{s.payload, s.fill_bits};
  }
  Group& group = FindOrOpen(s.sequence_id, s.channel);
  group.last_add_seq = add_seq_;
  // Re-run eviction after a possible open so the cap holds; the group just
  // touched carries the newest sequence number and is never the victim.
  EvictStale();
  if (s.fragment_index == 1 && group.fragment_count != 0) {
    if (!group.fragments[0].empty()) {
      // A second first-fragment means a reused sequence id: the stale
      // partial group restarts.
      Reset(group);
    } else if (add_seq_ - group.sized_add_seq >
               static_cast<uint64_t>(kMaxFragments)) {
      // The held later fragments waited longer than any one message's
      // fragments take to arrive: they are orphans of a lost first fragment.
      // (A first fragment arriving right after a later one is legal
      // out-of-order delivery and joins the group.)
      ++evicted_groups_;
      Reset(group);
    }
  }
  if (group.fragment_count == 0) {
    group.fragment_count = s.fragment_count;
    group.sized_add_seq = add_seq_;
  }
  if (group.fragment_count != s.fragment_count) {
    Release(group);
    return Status::Corruption("fragment count changed within group");
  }
  std::string& slot = group.fragments[static_cast<size_t>(s.fragment_index - 1)];
  if (!slot.empty()) {
    Release(group);
    return Status::Corruption("duplicate fragment index within group");
  }
  slot.assign(s.payload);
  ++group.received;
  if (s.fragment_index == s.fragment_count) group.fill_bits = s.fill_bits;
  if (group.received < s.fragment_count) {
    return Status::NotFound("fragment held");
  }
  assembled_.clear();
  for (int i = 0; i < group.fragment_count; ++i) {
    assembled_ += group.fragments[static_cast<size_t>(i)];
  }
  const int fill_bits = group.fill_bits;
  Release(group);
  return Assembled{assembled_, fill_bits};
}

void FragmentAssembler::EvictStale() {
  if (pending_ == 0) return;
  // Age out groups whose missing fragments are evidently lost; without this
  // the pending buffer grows without bound on a lossy feed.
  for (Group& g : groups_) {
    if (g.in_use && add_seq_ - g.last_add_seq > options_.max_group_age_adds) {
      Release(g);
      ++evicted_groups_;
    }
  }
  while (pending_ > options_.max_pending_groups) {
    Group* oldest = nullptr;
    for (Group& g : groups_) {
      if (g.in_use &&
          (oldest == nullptr || g.last_add_seq < oldest->last_add_seq)) {
        oldest = &g;
      }
    }
    Release(*oldest);
    ++evicted_groups_;
  }
}

}  // namespace maritime::ais
