#include "snapshot/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "snapshot/crc32_kernels.h"

#if MARITIME_CRC32_CLMUL
#include <immintrin.h>
#endif

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

// Advances the running (pre-inverted) CRC `c` over `n` bytes at `p`.
uint32_t SlicedUpdate(uint32_t c, const unsigned char* p, size_t n) {
  const auto& t = kCrcTables;
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
  return c;
}

#if MARITIME_CRC32_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// paper's constants for the reflected IEEE polynomial. Four 128-bit
// accumulators each absorb 16 bytes per 64-byte step: A becomes
// A.lo * k1 ^ A.hi * k2 ^ next, where k1 and k2 are x^(512+32) and
// x^(512-32) mod P, bit-reflected. The four then fold into one with the
// 128-bit distance pair (k3, k4), the remainder shrinks 128 -> 64 -> 32 bits
// (k4, k5), and Barrett reduction by P' (P reflected) and mu'
// (floor(x^64 / P) reflected) leaves the running CRC.
constexpr int64_t kK1 = 0x154442bd4;
constexpr int64_t kK2 = 0x1c6e41596;
constexpr int64_t kK3 = 0x1751997d0;
constexpr int64_t kK4 = 0x0ccaa009e;
constexpr int64_t kK5 = 0x163cd6124;
constexpr int64_t kPoly = 0x1db710641;
constexpr int64_t kMu = 0x1f7011641;

[[gnu::target("pclmul")]] inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi, carry-less.
[[gnu::target("pclmul")]] inline __m128i Fold128(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Advances the running CRC `c` over `n` bytes at `p`; n >= 64, n % 16 == 0.
[[gnu::target("pclmul")]] uint32_t ClmulUpdate(uint32_t c,
                                                const unsigned char* p,
                                                size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold128(x0, k1k2), Load128(p));
    x1 = _mm_xor_si128(Fold128(x1, k1k2), Load128(p + 16));
    x2 = _mm_xor_si128(Fold128(x2, k1k2), Load128(p + 32));
    x3 = _mm_xor_si128(Fold128(x3, k1k2), Load128(p + 48));
  }
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x1);
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x2);
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(Fold128(x0, k3k4), Load128(p));
  }
  // 128 -> 64 bits: x0.hi ^ x0.lo * k4.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits: the upper bits ^ the low dword * k5.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: T1 = low32(x0) * mu', T2 = low32(T1) * P', CRC = dword 1 of
  // x0 ^ T2.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // MARITIME_CRC32_CLMUL

}  // namespace

namespace internal {

uint32_t Crc32Sliced(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return SlicedUpdate(0xFFFFFFFFu, p, bytes.size()) ^ 0xFFFFFFFFu;
}

bool ClmulSupported() {
#if MARITIME_CRC32_CLMUL
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

#if MARITIME_CRC32_CLMUL
uint32_t Crc32Clmul(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = ClmulUpdate(c, p, folded);
    p += folded;
    n -= folded;
  }
  return SlicedUpdate(c, p, n) ^ 0xFFFFFFFFu;
}
#endif

}  // namespace internal

uint32_t Crc32(std::string_view bytes) {
  // The CPU picks the kernel once; both return the same values.
  using Kernel = uint32_t (*)(std::string_view);
#if MARITIME_CRC32_CLMUL
  static const Kernel kernel = internal::ClmulSupported()
                                   ? &internal::Crc32Clmul
                                   : &internal::Crc32Sliced;
#else
  static const Kernel kernel = &internal::Crc32Sliced;
#endif
  return kernel(bytes);
}

size_t Writer::BeginSection(uint32_t tag, uint8_t version) {
  const size_t handle = size_ + sizeof(tag) + sizeof(version);
  Put(tag, version, uint64_t{0});  // Length placeholder, see EndSection.
  return handle;
}

void Writer::EndSection(size_t handle) {
  const uint64_t length = size_ - (handle + sizeof(uint64_t));
  std::memcpy(buf_.get() + handle, &length, sizeof(length));
}

void Writer::Grow(size_t n) {
  Reallocate(std::max({2 * capacity_, size_ + n, size_t{256}}));
}

void Writer::Reallocate(size_t capacity) {
  auto grown = std::make_unique_for_overwrite<char[]>(capacity);
  if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
  buf_ = std::move(grown);
  capacity_ = capacity;
}

Status Reader::BeginSection(uint32_t expected_tag, uint8_t version,
                            std::string_view what, size_t* end_offset) {
  uint32_t tag = 0;
  uint8_t stored = 0;
  uint64_t length = 0;
  if (!Get(&tag, &stored, &length) || !Fits(length, 1) ||
      tag != expected_tag) {
    Fail();
    return CorruptionIn(what);
  }
  if (const Status s = CheckVersion(stored, version, version, what); !s.ok()) {
    Fail();
    return s;
  }
  *end_offset = pos_ + length;
  return Status::OK();
}

Status CheckVersion(uint32_t version, uint32_t oldest, uint32_t newest,
                    std::string_view what) {
  if (version == 0) return CorruptionIn(what);
  if (version < oldest || version > newest) {
    return Status::Unimplemented("snapshot: " + std::string(what) +
                                 " format version " + std::to_string(version) +
                                 " is not read by this build");
  }
  return Status::OK();
}

Status ReadVersion(Reader& r, uint8_t oldest, uint8_t newest,
                   std::string_view what, uint8_t* version) {
  if (!r.U8(version)) return CorruptionIn(what);
  return CheckVersion(*version, oldest, newest, what);
}

}  // namespace maritime::snapshot
