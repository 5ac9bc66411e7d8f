#include "ais/sixbit.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/strings.h"

namespace maritime::ais {
namespace {

// DearmorChar as a table: payload characters fall on both sides of the
// alphabet's gap at random, which a comparison chain would mispredict.
constexpr std::array<int8_t, 256> kDearmor = [] {
  std::array<int8_t, 256> t{};
  for (int x = 0; x < 256; ++x) {
    t[static_cast<size_t>(x)] = static_cast<int8_t>(
        x >= 48 && x <= 87 ? x - 48 : x >= 96 && x <= 119 ? x - 56 : -1);
  }
  return t;
}();

// Eight armored characters, the first in the low byte, to their 48 bits
// MSB first; false when one is outside the alphabet.
bool DearmorWord(uint64_t word, uint64_t* bits) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHigh = 0x80 * kOnes;
  if ((word & kHigh) != 0) return false;
  // For a byte c < 0x80, c + (128 - k) sets the byte's high bit exactly
  // when c >= k, and carries into no other byte.
  const uint64_t ge48 = (word + (128 - 48) * kOnes) & kHigh;
  const uint64_t ge88 = (word + (128 - 88) * kOnes) & kHigh;
  const uint64_t ge96 = (word + (128 - 96) * kOnes) & kHigh;
  const uint64_t ge120 = (word + (128 - 120) * kOnes) & kHigh;
  if (((ge48 & ~ge88) | (ge96 & ~ge120)) != kHigh) return false;
  // '0'..'W' -> 0..39 and '`'..'w' -> 40..63: c - 48, less 8 past the gap.
  const uint64_t v = word - 48 * kOnes - (ge96 >> 4);
  // Pack the 6-bit values: pairs into 12 bits, fours into 24, then 48.
  const uint64_t v12 = ((v & 0x003F003F003F003Full) << 6) |
                       ((v >> 8) & 0x003F003F003F003Full);
  const uint64_t v24 = ((v12 & 0x00000FFF00000FFFull) << 12) |
                       ((v12 >> 16) & 0x00000FFF00000FFFull);
  *bits = ((v24 & 0xFFFFFF) << 24) | (v24 >> 32);
  return true;
}

}  // namespace

char ArmorChar(uint8_t value) {
  value &= 63u;
  return static_cast<char>(value < 40 ? value + 48 : value + 56);
}

int DearmorChar(char c) {
  // '0'..'W' -> 0..39, '`'..'w' -> 40..63.
  return kDearmor[static_cast<unsigned char>(c)];
}

std::string ArmorPayload(const PayloadBits& bits, int* fill_bits) {
  const size_t n = bits.size();
  std::string out;
  out.reserve((n + 5) / 6);
  // Bits past the end read as zero, which pads the final character.
  for (size_t i = 0; i < n; i += 6) {
    out.push_back(ArmorChar(static_cast<uint8_t>(bits.Extract(i, 6))));
  }
  if (fill_bits != nullptr) *fill_bits = static_cast<int>((6 - n % 6) % 6);
  return out;
}

Status DearmorInto(std::string_view payload, int fill_bits,
                   PayloadBits* bits) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::InvalidArgument(
        StrPrintf("fill_bits %d outside [0,5]", fill_bits));
  }
  bits->Clear();
  if constexpr (std::endian::native == std::endian::little) {
    // Eight characters per step while they are all armored; the loop below
    // takes the rest, and reports an invalid character.
    uint64_t word = 0;
    uint64_t packed = 0;
    while (payload.size() >= 8) {
      std::memcpy(&word, payload.data(), 8);
      if (!DearmorWord(word, &packed)) break;
      bits->Append(packed, 48);
      payload.remove_prefix(8);
    }
  }
  // Ten characters fill 60 bits of one accumulator, appended in one go. An
  // invalid character sets the sign bit of `invalid`; it is reported after
  // the loop, which then needs no branch per character.
  uint64_t acc = 0;
  int chars = 0;
  int invalid = 0;
  for (const char c : payload) {
    const int v = DearmorChar(c);
    invalid |= v;
    acc = (acc << 6) | static_cast<uint64_t>(v & 63);
    if (++chars == 10) {
      bits->Append(acc, 60);
      acc = 0;
      chars = 0;
    }
  }
  if (invalid < 0) {
    for (const char c : payload) {
      if (DearmorChar(c) < 0) {
        return Status::Corruption(
            StrPrintf("invalid armored payload character 0x%02x",
                      static_cast<unsigned char>(c)));
      }
    }
  }
  if (chars != 0) bits->Append(acc, 6 * chars);
  if (static_cast<size_t>(fill_bits) > bits->size()) {
    return Status::Corruption("fill_bits exceed payload size");
  }
  bits->Truncate(bits->size() - static_cast<size_t>(fill_bits));
  return Status::OK();
}

Result<PayloadBits> DearmorPayload(std::string_view payload, int fill_bits) {
  PayloadBits bits;
  Status status = DearmorInto(payload, fill_bits, &bits);
  if (!status.ok()) return status;
  return bits;
}

}  // namespace maritime::ais
