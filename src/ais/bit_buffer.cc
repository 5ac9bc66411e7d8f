#include "ais/bit_buffer.h"

#include <algorithm>

#include "common/check.h"

namespace maritime::ais {
namespace {

// AIS 6-bit character set (ITU-R M.1371 Table 44): index = 6-bit value.
constexpr char kSixbitAlphabet[] =
    "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_ !\"#$%&'()*+,-./0123456789:;<=>?";

int SixbitFromChar(char c) {
  for (int i = 0; i < 64; ++i) {
    if (kSixbitAlphabet[i] == c) return i;
  }
  // Lowercase letters map onto their uppercase counterparts.
  if (c >= 'a' && c <= 'z') return c - 'a' + 1;
  return 0;  // '@' (null) for anything unrepresentable
}

}  // namespace

void PayloadBits::Truncate(size_t n) {
  if (n >= size_) return;
  const size_t end = std::min(kWords, (size_ + 63) / 64);
  size_ = n;
  size_t w = n / 64;
  if (w >= end) return;
  const int keep = static_cast<int>(n % 64);
  if (keep != 0) {
    words_[w] &= ~uint64_t{0} << (64 - keep);
    ++w;
  }
  for (; w < end; ++w) words_[w] = 0;
}

void BitWriter::WriteUnsigned(uint64_t value, int width) {
  MARITIME_DCHECK_MSG(width > 0 && width <= 64, "field width out of range");
  bits_.Append(value, width);
}

void BitWriter::WriteSigned(int64_t value, int width) {
  WriteUnsigned(static_cast<uint64_t>(value), width);
}

void BitWriter::WriteSixbitString(const std::string& s, int chars) {
  for (int i = 0; i < chars; ++i) {
    const char c = i < static_cast<int>(s.size()) ? s[static_cast<size_t>(i)]
                                                  : '@';
    WriteUnsigned(static_cast<uint64_t>(SixbitFromChar(c)), 6);
  }
}

int64_t BitReader::ReadSigned(int width) {
  uint64_t v = ReadUnsigned(width);
  // Sign-extend from `width` bits.
  if (width < 64 && (v & (1ULL << (width - 1)))) {
    v |= ~((1ULL << width) - 1);
  }
  return static_cast<int64_t>(v);
}

std::string BitReader::ReadSixbitString(int chars) {
  const auto char_at = [this](int i) {
    return kSixbitAlphabet[bits_.Extract(pos_ + 6 * static_cast<size_t>(i), 6)];
  };
  // Trailing '@' and spaces are padding: size the string to what precedes
  // them, so short names stay within the small-string buffer.
  size_t len = 0;
  for (int i = 0; i < chars; ++i) {
    const char c = char_at(i);
    if (c != '@' && c != ' ') len = static_cast<size_t>(i) + 1;
  }
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) out.push_back(char_at(static_cast<int>(i)));
  Skip(6 * chars);
  return out;
}

void BitReader::Skip(int width) {
  MARITIME_DCHECK_MSG(width >= 0, "cannot skip backwards");
  pos_ += static_cast<size_t>(width);
  if (pos_ > bits_.size()) overflow_ = true;
}

}  // namespace maritime::ais
