#include "ais/scanner.h"

#include <limits>

#include "ais/sixbit.h"
#include "common/strings.h"

namespace maritime::ais {

Result<stream::PositionTuple> DataScanner::FeedLine(std::string_view line,
                                                    Timestamp arrival) {
  ++stats_.lines;
  Result<NmeaSentence> sentence = ParseSentence(line);
  if (!sentence.ok()) {
    ++stats_.framing_errors;
    return std::move(sentence).status();
  }
  const uint64_t evicted = assembler_.evicted_groups();
  Result<FragmentAssembler::Assembled> assembled =
      assembler_.Add(sentence.value());
  stats_.fragment_groups_evicted += assembler_.evicted_groups() - evicted;
  if (!assembled.ok()) {
    if (assembled.status().code() == StatusCode::kNotFound) {
      ++stats_.fragment_pending;
    } else {
      ++stats_.fragment_errors;
    }
    return std::move(assembled).status();
  }
  Status dearmored = DearmorInto(assembled.value().payload,
                                 assembled.value().fill_bits, &payload_);
  if (!dearmored.ok()) {
    ++stats_.payload_errors;
    return dearmored;
  }
  if (PeekMessageType(payload_) == 5) {
    Result<StaticVoyageData> data = DecodeStaticVoyageData(payload_);
    if (!data.ok()) {
      ++stats_.payload_errors;
      return std::move(data).status();
    }
    ++stats_.static_reports;
    static_reports_.push_back(std::move(data).value());
    return Status::NotFound("static report");
  }
  Result<PositionFix> fix = DecodePositionFix(payload_);
  if (!fix.ok()) {
    if (fix.status().code() == StatusCode::kUnimplemented) {
      ++stats_.unsupported_type;
    } else {
      ++stats_.payload_errors;
    }
    return std::move(fix).status();
  }
  if (!fix.value().has_position) {
    ++stats_.invalid_position;
    return Status::Corruption("position not available or out of range");
  }
  ++stats_.accepted;
  stream::PositionTuple tuple;
  tuple.mmsi = fix.value().mmsi;
  tuple.pos = geo::GeoPoint{fix.value().lon_deg(), fix.value().lat_deg()};
  tuple.tau = arrival;
  return tuple;
}

Result<stream::PositionTuple> DataScanner::FeedTagged(
    std::string_view tagged_line) {
  const size_t tab = tagged_line.find('\t');
  if (tab == std::string_view::npos) {
    ++stats_.lines;
    ++stats_.framing_errors;
    return Status::Corruption("tagged line missing '\\t' separator");
  }
  const std::string_view tau_field = tagged_line.substr(0, tab);
  Timestamp tau = 0;
  bool negative = false;
  size_t i = 0;
  if (!tau_field.empty() && tau_field[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i >= tau_field.size()) {
    ++stats_.lines;
    ++stats_.framing_errors;
    return Status::Corruption("empty timestamp tag");
  }
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  for (; i < tau_field.size(); ++i) {
    const char c = tau_field[i];
    if (c < '0' || c > '9') {
      ++stats_.lines;
      ++stats_.framing_errors;
      return Status::Corruption("non-numeric timestamp tag");
    }
    // A tag too long for int64 would make the accumulation below overflow —
    // undefined behavior on a hostile or corrupt feed.
    const Timestamp digit = c - '0';
    if (tau > kMax / 10 || (tau == kMax / 10 && digit > kMax % 10)) {
      ++stats_.lines;
      ++stats_.framing_errors;
      return Status::Corruption("timestamp tag out of range");
    }
    tau = tau * 10 + digit;
  }
  if (negative) tau = -tau;
  return FeedLine(tagged_line.substr(tab + 1), tau);
}

std::vector<stream::PositionTuple> DataScanner::ScanTaggedLog(
    std::string_view log) {
  std::vector<stream::PositionTuple> out;
  size_t start = 0;
  while (start < log.size()) {
    size_t end = log.find('\n', start);
    if (end == std::string_view::npos) end = log.size();
    const std::string_view line =
        StripWhitespace(log.substr(start, end - start));
    if (!line.empty()) {
      Result<stream::PositionTuple> r = FeedTagged(line);
      if (r.ok()) out.push_back(r.value());
    }
    start = end + 1;
  }
  return out;
}

}  // namespace maritime::ais
