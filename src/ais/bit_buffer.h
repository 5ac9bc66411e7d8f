#ifndef MARITIME_AIS_BIT_BUFFER_H_
#define MARITIME_AIS_BIT_BUFFER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace maritime::ais {

/// A raw AIS payload, packed most-significant bit first into 64-bit words:
/// bit i of the message is bit 63 - i % 64 of word i / 64. The first
/// kInlineBits bits are stored inline, so decoding a sentence never touches
/// the heap; the longest message handled (type 5) is 424 bits. A longer
/// payload, which only a hostile or corrupt feed produces, keeps its true
/// bit length in size() while its bits past kInlineBits are not stored and
/// read as zero. The decoders never read that far, and they judge
/// truncation against size(), so such a payload decodes exactly as if every
/// bit were kept.
class PayloadBits {
 public:
  static constexpr size_t kInlineBits = 1024;

  /// True bit length (may exceed kInlineBits).
  size_t size() const { return size_; }

  /// Appends the `width` low bits of `value`, MSB first. 0 < width <= 64.
  void Append(uint64_t value, int width) {
    if (width < 64) value &= (uint64_t{1} << width) - 1;
    const size_t w = size_ / 64;
    const int used = static_cast<int>(size_ % 64);
    size_ += static_cast<size_t>(width);
    if (w >= kWords) return;  // Past the inline bits: counted, not stored.
    const int free = 64 - used;
    if (width <= free) {
      words_[w] |= value << (free - width);
      return;
    }
    const int spill = width - free;
    words_[w] |= value >> spill;
    if (w + 1 < kWords) words_[w + 1] |= value << (64 - spill);
  }

  /// Drops every bit at or past `n` (no-op when n >= size()). Only the
  /// words that held bits are touched.
  void Truncate(size_t n);

  /// Empties the buffer for reuse, zeroing only the words that held bits.
  void Clear() { Truncate(0); }

  /// The `width` bits starting at `pos`, as an unsigned value; bits at or
  /// past size(), or past kInlineBits, read as zero. 0 < width <= 64.
  uint64_t Extract(size_t pos, int width) const {
    const size_t w = pos / 64;
    const int shift = static_cast<int>(pos % 64);
    // The 64 bits starting at `pos`, left-aligned; zero past the stored
    // words.
    uint64_t v = w < kWords ? words_[w] << shift : 0;
    if (shift != 0 && w + 1 < kWords) v |= words_[w + 1] >> (64 - shift);
    return width == 64 ? v : v >> (64 - width);
  }

  friend bool operator==(const PayloadBits& a, const PayloadBits& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  static constexpr size_t kWords = kInlineBits / 64;
  // Invariant: stored bits at or past size_ are zero, so Extract needs no
  // masking and operator== can compare whole words.
  std::array<uint64_t, kWords> words_{};
  size_t size_ = 0;
};

/// Append-only big-endian bit writer used to build AIS binary payloads.
/// Bits are written most-significant first, matching ITU-R M.1371 field
/// layout.
class BitWriter {
 public:
  /// Appends the `width` low bits of `value` (unsigned), MSB first.
  /// Precondition: 0 < width <= 64.
  void WriteUnsigned(uint64_t value, int width);

  /// Appends a two's-complement signed value of `width` bits.
  void WriteSigned(int64_t value, int width);

  /// Appends a string in the AIS 6-bit character set, padded/truncated to
  /// exactly `chars` characters ('@' = 0 terminates/pads).
  void WriteSixbitString(const std::string& s, int chars);

  /// Number of bits written so far.
  size_t bit_size() const { return bits_.size(); }

  /// The packed bits written so far.
  const PayloadBits& bits() const { return bits_; }

 private:
  PayloadBits bits_;
};

/// Big-endian bit reader over a de-armored payload. Reads past the end
/// return zeros and set `overflow()` — AIS receivers must tolerate truncated
/// payloads, and the scanner checks `overflow()` to flag corrupt messages.
class BitReader {
 public:
  explicit BitReader(const PayloadBits& bits) : bits_(bits) {}

  /// Reads `width` bits as an unsigned value. Precondition: 0 < width <= 64.
  uint64_t ReadUnsigned(int width) {
    const uint64_t v = bits_.Extract(pos_, width);
    pos_ += static_cast<size_t>(width);
    // Bits past the end read as zero; the flag is the contract the scanner
    // relies on to flag truncated payloads.
    if (pos_ > bits_.size()) overflow_ = true;
    return v;
  }

  /// Reads `width` bits as a two's-complement signed value.
  int64_t ReadSigned(int width);

  /// Reads `chars` 6-bit characters, stripping trailing '@' and spaces.
  std::string ReadSixbitString(int chars);

  /// Skips `width` bits.
  void Skip(int width);

  size_t position() const { return pos_; }
  size_t size() const { return bits_.size(); }
  bool overflow() const { return overflow_; }

 private:
  const PayloadBits& bits_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_BIT_BUFFER_H_
