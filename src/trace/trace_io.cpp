#include "trace/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace wlan::trace {

namespace {

// Fixed on-disk record layout (little-endian, packed manually to avoid
// relying on struct padding).
constexpr std::size_t kRecordBytes = 8 + 1 + 1 + 4 + 1 + 2 + 2 + 2 + 2 + 1 + 4 + 1 + 8;

template <typename T>
void put(std::string& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char tmp[sizeof(T)];
  std::memcpy(tmp, &v, sizeof(T));
  buf.append(tmp, sizeof(T));
}

template <typename T>
T get(const char*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

void encode(const CaptureRecord& r, std::string& buf) {
  put<std::int64_t>(buf, r.time_us);
  put<std::uint8_t>(buf, r.channel);
  put<std::uint8_t>(buf, static_cast<std::uint8_t>(r.rate));
  put<float>(buf, r.snr_db);
  put<std::uint8_t>(buf, static_cast<std::uint8_t>(r.type));
  put<std::uint16_t>(buf, r.src);
  put<std::uint16_t>(buf, r.dst);
  put<std::uint16_t>(buf, r.bssid);
  put<std::uint16_t>(buf, r.seq);
  put<std::uint8_t>(buf, r.retry ? 1 : 0);
  put<std::uint32_t>(buf, r.size_bytes);
  put<std::uint8_t>(buf, r.sniffer_id);
  put<std::uint64_t>(buf, r.frame_id);
}

CaptureRecord decode(const char* p) {
  CaptureRecord r;
  r.time_us = get<std::int64_t>(p);
  r.channel = get<std::uint8_t>(p);
  r.rate = static_cast<phy::Rate>(get<std::uint8_t>(p));
  r.snr_db = get<float>(p);
  r.type = static_cast<mac::FrameType>(get<std::uint8_t>(p));
  r.src = get<std::uint16_t>(p);
  r.dst = get<std::uint16_t>(p);
  r.bssid = get<std::uint16_t>(p);
  r.seq = get<std::uint16_t>(p);
  r.retry = get<std::uint8_t>(p) != 0;
  r.size_bytes = get<std::uint32_t>(p);
  r.sniffer_id = get<std::uint8_t>(p);
  r.frame_id = get<std::uint64_t>(p);
  return r;
}

}  // namespace

void write_binary(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_binary: cannot open " + path);

  std::string buf;
  buf.reserve(32 + trace.records.size() * kRecordBytes);
  put<std::uint32_t>(buf, kTraceMagic);
  put<std::uint16_t>(buf, kTraceVersion);
  put<std::uint16_t>(buf, 0);  // reserved
  put<std::int64_t>(buf, trace.start_us);
  put<std::int64_t>(buf, trace.end_us);
  put<std::uint64_t>(buf, trace.records.size());
  for (const auto& r : trace.records) encode(r, buf);

  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write_binary: short write to " + path);
}

Trace read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_binary: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string buf = ss.str();
  if (buf.size() < 32) throw std::runtime_error("read_binary: truncated header");

  const char* p = buf.data();
  if (get<std::uint32_t>(p) != kTraceMagic) {
    throw std::runtime_error("read_binary: bad magic in " + path);
  }
  if (get<std::uint16_t>(p) != kTraceVersion) {
    throw std::runtime_error("read_binary: unsupported version in " + path);
  }
  get<std::uint16_t>(p);  // reserved
  Trace trace;
  trace.start_us = get<std::int64_t>(p);
  trace.end_us = get<std::int64_t>(p);
  const auto count = get<std::uint64_t>(p);
  // Divide rather than multiply: the count comes from the file, and
  // count * kRecordBytes can wrap.
  if (count > (buf.size() - 32) / kRecordBytes) {
    throw std::runtime_error("read_binary: truncated records in " + path);
  }
  trace.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const CaptureRecord r = decode(buf.data() + 32 + i * kRecordBytes);
    // The analyzers index per-rate arrays and divide by the rate's bit
    // rate, so an out-of-range enum byte must stop here, as must a time
    // past kMaxRecordTimeUs and an SNR no sniffer reports.
    const char* bad = phy::rate_index(r.rate) >= phy::kNumRates ? "rate byte"
                      : r.type > mac::FrameType::kDisassoc ? "frame type byte"
                      : !valid_record_time(r.time_us)      ? "time_us"
                      : !std::isfinite(r.snr_db)           ? "snr_db"
                                                           : nullptr;
    if (bad) {
      throw std::runtime_error("read_binary: " + path + " record " +
                               std::to_string(i) + ": bad " + bad);
    }
    trace.records.push_back(r);
  }
  return trace;
}

void write_csv(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv: cannot open " + path);
  out << "time_us,channel,rate,snr_db,type,src,dst,bssid,seq,retry,size_bytes,"
         "sniffer_id,frame_id\n";
  for (const auto& r : trace.records) {
    out << r.time_us << ',' << int{r.channel} << ',' << phy::rate_name(r.rate)
        << ',' << r.snr_db << ',' << mac::frame_type_name(r.type) << ','
        << r.src << ',' << r.dst << ',' << r.bssid << ',' << r.seq << ','
        << (r.retry ? 1 : 0) << ',' << r.size_bytes << ','
        << int{r.sniffer_id} << ',' << r.frame_id << '\n';
  }
  if (!out) throw std::runtime_error("write_csv: short write to " + path);
}

namespace {

/// The frame type write_csv names `name`: mac::frame_type_name inverted
/// over every type, so the reader cannot drift from the writer.
std::optional<mac::FrameType> parse_type(const std::string& name) {
  for (int t = 0; t <= static_cast<int>(mac::FrameType::kDisassoc); ++t) {
    const auto type = static_cast<mac::FrameType>(t);
    if (mac::frame_type_name(type) == name) return type;
  }
  return std::nullopt;
}

[[noreturn]] void bad_field(const std::string& where, const char* field,
                            const std::string& cell) {
  throw std::runtime_error("read_csv: " + where + ": bad " + field + " \"" +
                           cell + "\"");
}

/// Parses the whole cell as a T within T's range (no trailing characters,
/// no narrowing), or throws naming the file, the line and the field.
template <typename T>
T parse_field(const std::string& cell, const char* field,
              const std::string& where) {
  T value{};
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc{} || ptr != end) bad_field(where, field, cell);
  return value;
}

}  // namespace

Trace read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path);
  Trace trace;
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("read_csv: empty file " + path);
  }
  for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    const std::string where = path + " line " + std::to_string(line_no);
    std::istringstream row(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != 13) {
      throw std::runtime_error("read_csv: " + where + ": malformed row: " +
                               line);
    }
    CaptureRecord r;
    r.time_us = parse_field<std::int64_t>(cells[0], "time_us", where);
    if (!valid_record_time(r.time_us)) bad_field(where, "time_us", cells[0]);
    r.channel = parse_field<std::uint8_t>(cells[1], "channel", where);
    const auto rate = phy::parse_rate(cells[2]);
    if (!rate) bad_field(where, "rate", cells[2]);
    r.rate = *rate;
    r.snr_db = parse_field<float>(cells[3], "snr_db", where);
    if (!std::isfinite(r.snr_db)) bad_field(where, "snr_db", cells[3]);
    const auto type = parse_type(cells[4]);
    if (!type) bad_field(where, "type", cells[4]);
    r.type = *type;
    r.src = parse_field<mac::Addr>(cells[5], "src", where);
    r.dst = parse_field<mac::Addr>(cells[6], "dst", where);
    r.bssid = parse_field<mac::Addr>(cells[7], "bssid", where);
    r.seq = parse_field<std::uint16_t>(cells[8], "seq", where);
    if (cells[9] != "0" && cells[9] != "1") bad_field(where, "retry", cells[9]);
    r.retry = cells[9] == "1";
    r.size_bytes = parse_field<std::uint32_t>(cells[10], "size_bytes", where);
    r.sniffer_id = parse_field<std::uint8_t>(cells[11], "sniffer_id", where);
    r.frame_id = parse_field<std::uint64_t>(cells[12], "frame_id", where);
    trace.records.push_back(r);
  }
  if (!trace.records.empty()) {
    trace.start_us = trace.records.front().time_us;
    trace.end_us = trace.records.back().time_us;
  }
  return trace;
}

}  // namespace wlan::trace
