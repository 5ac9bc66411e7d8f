#include "snapshot/codec.h"

#include <algorithm>
#include <array>
#include <bit>

namespace maritime::snapshot {
namespace {

// Slicing-by-16 (Kounavis & Berry): table k maps a byte to its CRC after
// being followed by k zero bytes, so one step folds 16 input bytes with 16
// independent lookups instead of a 16-long chain of dependent ones. Table 0
// is the classic bytewise table; the values are those of the bytewise loop.
constexpr size_t kSlices = 16;
using CrcTables = std::array<std::array<uint32_t, 256>, kSlices>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < kSlices; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// The 16-byte step reads the input as little-endian words, as the codec
// itself does.
static_assert(std::endian::native == std::endian::little);

inline uint32_t LoadU32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= kSlices; p += kSlices, n -= kSlices) {
    const uint32_t a = LoadU32(p) ^ c;
    const uint32_t b = LoadU32(p + 4);
    const uint32_t d = LoadU32(p + 8);
    const uint32_t e = LoadU32(p + 12);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
        t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
        t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
        t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
        t[7][d & 0xFFu] ^ t[6][(d >> 8) & 0xFFu] ^
        t[5][(d >> 16) & 0xFFu] ^ t[4][d >> 24] ^
        t[3][e & 0xFFu] ^ t[2][(e >> 8) & 0xFFu] ^
        t[1][(e >> 16) & 0xFFu] ^ t[0][e >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

size_t Writer::BeginSection(uint32_t tag, uint8_t version) {
  U32(tag);
  U8(version);
  const size_t handle = size_;
  U64(0);  // Length placeholder, backpatched by EndSection.
  return handle;
}

void Writer::EndSection(size_t handle) {
  const uint64_t length = size_ - (handle + sizeof(uint64_t));
  std::memcpy(buf_.get() + handle, &length, sizeof(length));
}

void Writer::Grow(size_t n) {
  const size_t capacity = std::max({2 * capacity_, size_ + n, size_t{256}});
  auto grown = std::make_unique_for_overwrite<char[]>(capacity);
  if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
  buf_ = std::move(grown);
  capacity_ = capacity;
}

bool Reader::BeginSection(uint32_t expected_tag, uint8_t max_version,
                          uint8_t* version, size_t* end_offset) {
  uint32_t tag = 0;
  uint64_t length = 0;
  if (!U32(&tag) || !U8(version) || !Count(&length, 1)) return false;
  if (tag != expected_tag) return Fail();
  if (*version > max_version) {
    version_rejected_ = true;
    return Fail();
  }
  *end_offset = pos_ + length;
  return true;
}

}  // namespace maritime::snapshot
