#include "ais/sixbit.h"

#include <array>

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

Result<PayloadBits> DearmorPayload(std::string_view payload, int fill_bits) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::InvalidArgument(
        StrPrintf("fill_bits %d outside [0,5]", fill_bits));
  }
  PayloadBits bits;
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
      bits.Append(acc, 60);
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
  if (chars != 0) bits.Append(acc, 6 * chars);
  if (static_cast<size_t>(fill_bits) > bits.size()) {
    return Status::Corruption("fill_bits exceed payload size");
  }
  bits.Truncate(bits.size() - static_cast<size_t>(fill_bits));
  return bits;
}

}  // namespace maritime::ais
