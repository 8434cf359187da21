#include "traffic/trace_replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/parse_u64.hpp"
#include "traffic/splitter.hpp"

namespace annoc::traffic {
namespace {

constexpr char kBinaryMagic[8] = {'A', 'N', 'N', 'O', 'C', 'T', 'R', '1'};
constexpr std::size_t kBinaryRecordSize = 32;
constexpr const char* kCsvHeader = "cycle,core,addr,rw,bytes,priority";

[[nodiscard]] bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

struct Closer {
  std::FILE* f;
  ~Closer() {
    if (f != nullptr) std::fclose(f);
  }
};

/// Parse one unsigned field. `field` names the column in errors.
std::uint64_t u64_field(const std::string& origin, std::uint64_t line,
                        const char* field, const std::string& token) {
  if (token.empty()) {
    throw ParseError(origin, line, 0, field, "empty field");
  }
  const std::optional<std::uint64_t> v = parse_u64(token);
  if (!v) {
    throw ParseError(origin, line, 0, field,
                     "invalid number '" + token + "'");
  }
  return *v;
}

void validate_record(const TraceRecord& r, const std::string& origin) {
  if (r.bytes == 0) {
    throw ParseError(origin, r.line, 0, "bytes",
                     "request size must be > 0");
  }
}

void check_sorted(const std::vector<TraceRecord>& records,
                  const std::string& origin) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].cycle < records[i - 1].cycle) {
      throw ParseError(
          origin, records[i].line, 0, "cycle",
          "records must be sorted by cycle (this one precedes its "
          "predecessor at cycle " +
              std::to_string(records[i - 1].cycle) + ")");
    }
  }
}

std::vector<TraceRecord> load_trace_binary(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ParseError(path, 0, 0, "", "cannot open trace file");
  }
  Closer closer{f};
  char magic[8];
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    throw ParseError(path, 0, 0, "",
                     "not a binary annoc trace (bad or missing ANNOCTR1 "
                     "magic)");
  }
  std::vector<TraceRecord> records;
  unsigned char buf[kBinaryRecordSize];
  for (std::uint64_t index = 1;; ++index) {
    const std::size_t got = std::fread(buf, 1, sizeof buf, f);
    if (got == 0) break;
    if (got != sizeof buf) {
      throw ParseError(path, 0, index, "",
                       "truncated record (expected 32 bytes, got " +
                           std::to_string(got) + ")");
    }
    const auto u64_at = [&](std::size_t off) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
      }
      return v;
    };
    const auto u32_at = [&](std::size_t off) {
      std::uint32_t v = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(buf[off + i]) << (8 * i);
      }
      return v;
    };
    TraceRecord r;
    r.cycle = u64_at(0);
    r.addr = u64_at(8);
    r.core = u32_at(16);
    r.bytes = u32_at(20);
    if (buf[24] > 1) {
      throw ParseError(path, 0, index, "rw",
                       "rw byte must be 0 (read) or 1 (write), got " +
                           std::to_string(buf[24]));
    }
    r.rw = buf[24] == 0 ? RW::kRead : RW::kWrite;
    if (buf[25] > 1) {
      throw ParseError(path, 0, index, "priority",
                       "priority byte must be 0 or 1, got " +
                           std::to_string(buf[25]));
    }
    r.priority = buf[25] != 0;
    r.line = index;
    validate_record(r, path);
    records.push_back(r);
  }
  check_sorted(records, path);
  return records;
}

bool write_trace_csv(std::FILE* f, const std::vector<TraceRecord>& records) {
  if (std::fprintf(f, "%s\n", kCsvHeader) < 0) return false;
  for (const TraceRecord& r : records) {
    if (std::fprintf(f, "%llu,%u,0x%llx,%s,%u,%d\n",
                     static_cast<unsigned long long>(r.cycle), r.core,
                     static_cast<unsigned long long>(r.addr), to_string(r.rw),
                     r.bytes, r.priority ? 1 : 0) < 0) {
      return false;
    }
  }
  return true;
}

bool write_trace_binary(std::FILE* f,
                        const std::vector<TraceRecord>& records) {
  if (std::fwrite(kBinaryMagic, 1, sizeof kBinaryMagic, f) !=
      sizeof kBinaryMagic) {
    return false;
  }
  unsigned char buf[kBinaryRecordSize];
  for (const TraceRecord& r : records) {
    std::memset(buf, 0, sizeof buf);
    const auto put_u64 = [&](std::size_t off, std::uint64_t v) {
      for (std::size_t i = 0; i < 8; ++i) {
        buf[off + i] = static_cast<unsigned char>(v >> (8 * i));
      }
    };
    const auto put_u32 = [&](std::size_t off, std::uint32_t v) {
      for (std::size_t i = 0; i < 4; ++i) {
        buf[off + i] = static_cast<unsigned char>(v >> (8 * i));
      }
    };
    put_u64(0, r.cycle);
    put_u64(8, r.addr);
    put_u32(16, r.core);
    put_u32(20, r.bytes);
    buf[24] = r.rw == RW::kWrite ? 1 : 0;
    buf[25] = r.priority ? 1 : 0;
    if (std::fwrite(buf, 1, sizeof buf, f) != sizeof buf) return false;
  }
  return true;
}

}  // namespace

TraceFormat trace_format_for_path(const std::string& path) {
  return ends_with(path, ".bin") || ends_with(path, ".atrace")
             ? TraceFormat::kBinary
             : TraceFormat::kCsv;
}

std::vector<TraceRecord> parse_trace_csv(const std::string& text,
                                         const std::string& origin) {
  std::vector<TraceRecord> records;
  std::uint64_t line_no = 0;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Skip blanks and # comments (hand-edited traces annotate freely).
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;

    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      std::string field = line.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      // Trim surrounding whitespace.
      const std::size_t b = field.find_first_not_of(" \t");
      const std::size_t e = field.find_last_not_of(" \t");
      fields.push_back(b == std::string::npos
                           ? std::string()
                           : field.substr(b, e - b + 1));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (!saw_header) {
      saw_header = true;
      static const std::vector<std::string> kHeaderFields{
          "cycle", "core", "addr", "rw", "bytes", "priority"};
      if (fields != kHeaderFields) {
        throw ParseError(origin, line_no, 0, "cycle",
                         "first line must be the header '" +
                             std::string(kCsvHeader) + "'");
      }
      continue;
    }
    if (fields.size() != 6) {
      throw ParseError(origin, line_no, 0, "",
                       "expected 6 fields (" + std::string(kCsvHeader) +
                           "), got " + std::to_string(fields.size()));
    }
    TraceRecord r;
    r.line = line_no;
    r.cycle = u64_field(origin, line_no, "cycle", fields[0]);
    const std::uint64_t core = u64_field(origin, line_no, "core", fields[1]);
    if (core >= kInvalidCore) {
      throw ParseError(origin, line_no, 0, "core", "core id out of range");
    }
    r.core = static_cast<CoreId>(core);
    r.addr = u64_field(origin, line_no, "addr", fields[2]);
    if (fields[3] == "R" || fields[3] == "r") {
      r.rw = RW::kRead;
    } else if (fields[3] == "W" || fields[3] == "w") {
      r.rw = RW::kWrite;
    } else {
      throw ParseError(origin, line_no, 0, "rw",
                       "expected R or W, got '" + fields[3] + "'");
    }
    const std::uint64_t bytes =
        u64_field(origin, line_no, "bytes", fields[4]);
    if (bytes == 0 || bytes > (1u << 20)) {
      throw ParseError(origin, line_no, 0, "bytes",
                       "request size must be in [1, 2^20] bytes");
    }
    r.bytes = static_cast<std::uint32_t>(bytes);
    const std::uint64_t prio =
        u64_field(origin, line_no, "priority", fields[5]);
    if (prio > 1) {
      throw ParseError(origin, line_no, 0, "priority",
                       "priority must be 0 or 1");
    }
    r.priority = prio != 0;
    validate_record(r, origin);
    records.push_back(r);
  }
  check_sorted(records, origin);
  return records;
}

std::vector<TraceRecord> load_trace(const std::string& path) {
  if (trace_format_for_path(path) == TraceFormat::kBinary) {
    return load_trace_binary(path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ParseError(path, 0, 0, "", "cannot open trace file");
  }
  Closer closer{f};
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  return parse_trace_csv(text, path);
}

bool write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(),
                            trace_format_for_path(path) == TraceFormat::kCsv
                                ? "w"
                                : "wb");
  if (f == nullptr) return false;
  Closer closer{f};
  return trace_format_for_path(path) == TraceFormat::kCsv
             ? write_trace_csv(f, records)
             : write_trace_binary(f, records);
}

void TraceRecorder::finish(Cycle end) {
  (void)end;
  ok_ = write_trace(path_, records_);
  if (!ok_) {
    ANNOC_WARN("trace-record: cannot write '%s'; trace lost",
               path_.c_str());
    return;
  }
  rows_ = records_.size();
}

TraceReplayer::TraceReplayer(const ReplayConfig& cfg,
                             std::vector<TraceRecord> records,
                             const sdram::AddressMapper& mapper,
                             PacketId& id_source,
                             const std::string& trace_path)
    : TraceReplayer(cfg, std::move(records),
                    sdram::MemoryMap(
                        mapper, sdram::ChannelConfig{
                                    1,
                                    sdram::default_interleave_shift(
                                        mapper.boundary_unit()),
                                    {cfg.mem_node}}),
                    id_source, trace_path) {}

TraceReplayer::TraceReplayer(const ReplayConfig& cfg,
                             std::vector<TraceRecord> records,
                             const sdram::MemoryMap& map,
                             PacketId& id_source,
                             const std::string& trace_path)
    : cfg_(cfg),
      map_(map),
      id_source_(id_source),
      records_(std::move(records)) {
  // Requests must stay inside one mapping unit (chunk/row, and channel
  // granule when interleaved): the SDRAM protocol model never lets a
  // burst cross rows, and the generators split at these boundaries. A
  // hand-written trace that violates this is an input error, reported
  // with its source line — truncating it silently would replay
  // different traffic than the file says.
  for (const TraceRecord& r : records_) {
    if (map_.bytes_to_boundary(r.addr) < r.bytes) {
      throw ParseError(
          trace_path, r.line, 0, "addr",
          "request of " + std::to_string(r.bytes) +
              " bytes at 0x" +
              [&] {
                char hex[20];
                std::snprintf(hex, sizeof hex, "%llx",
                              static_cast<unsigned long long>(r.addr));
                return std::string(hex);
              }() +
              " crosses a bank-interleave boundary (" +
              std::to_string(map_.boundary_unit()) +
              "-byte units); split it at the boundary");
    }
  }
}

void TraceReplayer::emit_record(const TraceRecord& rec, Cycle now) {
  noc::Packet pkt;
  pkt.id = id_source_++;
  pkt.parent_id = pkt.id;
  pkt.src_core = cfg_.core_id;
  pkt.src_node = cfg_.node;
  pkt.dst_node = map_.node_of(rec.addr);
  pkt.rw = rec.rw;
  pkt.kind = rec.priority ? RequestKind::kDemand : RequestKind::kStream;
  pkt.svc = rec.priority ? ServiceClass::kPriority
                         : ServiceClass::kBestEffort;
  pkt.useful_bytes = rec.bytes;
  pkt.byte_addr = rec.addr;
  pkt.useful_beats =
      (pkt.useful_bytes + cfg_.bus_bytes - 1) / cfg_.bus_bytes;
  pkt.flits = noc::Packet::flits_for_beats(pkt.useful_beats);
  pkt.loc = map_.map(pkt.byte_addr);
  pkt.created = now;

  ++stats_.requests_generated;
  stats_.bytes_requested += pkt.useful_bytes;
  ++outstanding_;

  if (cfg_.split_beats > 0) {
    std::vector<noc::Packet> subs = split_packet(
        pkt, cfg_.split_beats, cfg_.bus_bytes, map_, id_source_);
    if (cfg_.on_request) {
      cfg_.on_request(pkt, static_cast<std::uint32_t>(subs.size()));
    }
    for (noc::Packet& sub : subs) backlog_.push_back(std::move(sub));
  } else {
    if (cfg_.on_request) cfg_.on_request(pkt, 1);
    backlog_.push_back(std::move(pkt));
  }
}

void TraceReplayer::tick(Cycle now, noc::Network& net) {
  // Emit every record due this cycle. next_event() reports the next
  // record's cycle, so the event scheduler never jumps past an
  // arrival; records therefore come due exactly at their cycle under
  // both dense and event execution.
  while (pos_ < records_.size() && records_[pos_].cycle <= now) {
    if (emitting_) {
      emit_record(records_[pos_], now);
      ++pos_;
    } else {
      // Drain phase: remaining records are not emitted (mirrors the
      // generators, which stop creating requests).
      pos_ = records_.size();
    }
  }

  // Injection: one packet at a time over the core link, exactly as
  // CoreGenerator does it.
  if (backlog_.empty() || now < link_free_at_) return;
  const std::uint32_t flits = backlog_.front().flits;
  if (net.try_inject(std::move(backlog_.front()), now)) {
    backlog_.pop_front();
    link_free_at_ = now + flits;
    ++stats_.packets_injected;
  } else {
    ++stats_.inject_stalls;
  }
}

Cycle TraceReplayer::next_event(Cycle now) const {
  Cycle h = kNeverCycle;
  if (!backlog_.empty()) h = std::min(h, std::max(link_free_at_, now));
  if (emitting_ && pos_ < records_.size()) {
    h = std::min(h, std::max(records_[pos_].cycle, now));
  }
  return h;
}

std::vector<std::vector<TraceRecord>> slice_trace_by_core(
    std::vector<TraceRecord> records, std::size_t num_cores,
    const std::string& origin) {
  std::vector<std::vector<TraceRecord>> slices(num_cores);
  for (TraceRecord& r : records) {
    if (r.core >= num_cores) {
      throw ParseError(origin, r.line, 0, "core",
                       "core " + std::to_string(r.core) +
                           " does not exist (application has " +
                           std::to_string(num_cores) + " cores)");
    }
    slices[r.core].push_back(std::move(r));
  }
  return slices;
}

}  // namespace annoc::traffic
