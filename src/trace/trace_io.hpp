// Binary + CSV trace persistence.
//
// The binary format is a fixed little-endian layout with a magic/version
// header, so traces written by the benches can be re-analyzed by the
// examples/trace_tool binary without re-simulating.
#pragma once

#include <string>

#include "trace/record.hpp"

namespace wlan::trace {

inline constexpr std::uint32_t kTraceMagic = 0x574C4E54;  // "WLNT"
inline constexpr std::uint16_t kTraceVersion = 1;

/// Writes the trace; throws std::runtime_error on I/O failure.
void write_binary(const Trace& trace, const std::string& path);

/// Reads a trace written by write_binary; throws std::runtime_error on bad
/// magic/version/EOF or a record whose rate or frame-type byte is out of
/// range (naming the file and the record index).
Trace read_binary(const std::string& path);

/// Human-readable CSV (one row per record, header included).
void write_csv(const Trace& trace, const std::string& path);

/// Parses the CSV produced by write_csv.  Each cell must be one whole token
/// within its field's range, and retry must be 0 or 1; anything else throws
/// std::runtime_error naming the file, the line and the field.
Trace read_csv(const std::string& path);

}  // namespace wlan::trace
