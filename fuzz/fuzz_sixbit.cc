// Fuzz target for payload armoring and the bit-level codec: DearmorPayload
// into packed bits, BitReader, and the type 1/2/3/5/18/19 message decoders. Besides "no crash
// under sanitizers", it asserts the armoring round-trip: any payload that
// de-armors must re-armor to the same bits.

#include <cstddef>
#include <cstdint>
#include <string>

#include "ais/bit_buffer.h"
#include "ais/messages.h"
#include "ais/sixbit.h"
#include "common/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  // First byte selects the declared fill bits (including invalid values, so
  // the [0,5] validation path is exercised); the rest is the armored payload.
  const int fill_bits = static_cast<int>(data[0] % 8);
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);

  const auto bits = maritime::ais::DearmorPayload(payload, fill_bits);
  if (!bits.ok()) return 0;

  // Round-trip property: armoring the de-armored bits reproduces the
  // original payload (the armoring alphabet is a bijection) whenever the
  // payload was canonical, and always reproduces the same packed bits.
  // Beyond the inline bits only the length is kept, so the property is
  // checked up to there.
  if (bits.value().size() <= maritime::ais::PayloadBits::kInlineBits) {
    int fill_out = -1;
    const std::string rearmored =
        maritime::ais::ArmorPayload(bits.value(), &fill_out);
    MARITIME_DCHECK(fill_out >= 0 && fill_out <= 5);
    const auto bits2 = maritime::ais::DearmorPayload(rearmored, fill_out);
    MARITIME_DCHECK_OK(bits2);
    MARITIME_DCHECK(bits2.value() == bits.value());
  }

  // Bit-reader sweep: mixed-width reads to the end; past-the-end reads must
  // set overflow and return zero bits, never touch out-of-range memory.
  maritime::ais::BitReader rd(bits.value());
  int width = 1;
  while (!rd.overflow()) {
    (void)rd.ReadUnsigned(width);
    width = width % 64 + 1;
  }
  maritime::ais::BitReader signed_rd(bits.value());
  (void)signed_rd.ReadSigned(28);
  (void)signed_rd.ReadSixbitString(20);

  // Message decoders: must return a value or a Status, never crash.
  (void)maritime::ais::PeekMessageType(bits.value());
  (void)maritime::ais::DecodePositionReport(bits.value());
  (void)maritime::ais::DecodeStaticVoyageData(bits.value());
  return 0;
}
