#ifndef MARITIME_AIS_SIXBIT_H_
#define MARITIME_AIS_SIXBIT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ais/bit_buffer.h"
#include "common/result.h"

namespace maritime::ais {

/// Payload "armoring": AIVDM sentences carry the binary message body as a
/// string where each ASCII character encodes 6 bits (value v maps to char
/// v+48 for v < 40, else v+56 — ITU-R M.1371 / NMEA convention).

/// Converts raw bits into an armored payload string plus the number of fill
/// bits (0–5) appended to complete the final character. Only the stored
/// bits are armored (precondition: bits.size() <= PayloadBits::kInlineBits).
std::string ArmorPayload(const PayloadBits& bits, int* fill_bits);

/// Converts an armored payload string back into packed bits in `*bits`,
/// replacing its contents, and drops `fill_bits` trailing pad bits. Fails on
/// characters outside the armoring alphabet or fill_bits outside [0, 5];
/// `*bits` is then unspecified. Reusing one buffer for every line keeps
/// decoding off the heap and skips zeroing words no message reached.
Status DearmorInto(std::string_view payload, int fill_bits, PayloadBits* bits);

/// DearmorInto a fresh buffer.
Result<PayloadBits> DearmorPayload(std::string_view payload, int fill_bits);

/// Maps a 6-bit value (0–63) to its armored ASCII character.
char ArmorChar(uint8_t value);

/// Maps an armored ASCII character back to its 6-bit value, or -1 if the
/// character is not part of the armoring alphabet.
int DearmorChar(char c);

}  // namespace maritime::ais

#endif  // MARITIME_AIS_SIXBIT_H_
