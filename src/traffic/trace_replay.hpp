/// \file trace_replay.hpp
/// Replayable request traces: the on-disk formats, the recording sink,
/// and the TraceReplayer traffic source.
///
/// A trace is the request stream of a run reduced to its externally
/// visible essence — one record per parent request (before SAGM
/// splitting): creation cycle, core, byte address, direction, payload
/// size and priority. That is exactly the surface an RTL testbench or
/// another simulator exposes, so traces bridge both ways: any annoc run
/// can be re-exported as a trace (SystemConfig::record_trace_path), and
/// any externally produced trace can drive a run
/// (SystemConfig::replay_trace_path). docs/WORKLOADS.md specifies both
/// formats with worked examples.
///
/// Two encodings share the record layout:
///  * CSV  — header `cycle,core,addr,rw,bytes,priority`, one record per
///           line, addresses in decimal or 0x-hex. Human-editable.
///  * binary — magic "ANNOCTR1", then packed little-endian records
///           (u64 cycle, u64 addr, u32 core, u32 bytes, u8 rw,
///           u8 priority, 6 pad bytes = 32 bytes/record). Compact and
///           fast for million-request traces.
/// File extension picks the encoding: `.bin` / `.atrace` is binary,
/// anything else CSV.
///
/// Parse errors throw annoc::ParseError with the file, the line (CSV)
/// or record index (binary) and the offending field — malformed traces
/// never abort() or silently default.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/parse_error.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"
#include "sdram/address.hpp"
#include "sdram/interleave.hpp"
#include "traffic/source.hpp"

namespace annoc::traffic {

/// One parent request of a replayable trace.
struct TraceRecord {
  Cycle cycle = 0;          ///< creation cycle (replay arrival time)
  CoreId core = 0;
  std::uint64_t addr = 0;   ///< byte address
  RW rw = RW::kRead;
  std::uint32_t bytes = 0;  ///< useful payload size
  bool priority = false;
  /// Source position for diagnostics: CSV line, or 1-based record index
  /// for binary traces. Not serialized.
  std::uint64_t line = 0;
};

enum class TraceFormat : std::uint8_t { kCsv, kBinary };

/// Encoding implied by a path's extension: `.bin` / `.atrace` is
/// binary, everything else CSV.
[[nodiscard]] TraceFormat trace_format_for_path(const std::string& path);

/// Load a trace file (format from the extension). Validates field
/// ranges and that records are sorted by cycle (ties allowed); throws
/// ParseError otherwise.
[[nodiscard]] std::vector<TraceRecord> load_trace(const std::string& path);

/// Parse CSV trace text (exposed for tests; `origin` names the source
/// in errors).
[[nodiscard]] std::vector<TraceRecord> parse_trace_csv(
    const std::string& text, const std::string& origin);

/// Write `records` to `path` (format from the extension). Returns
/// false when the file cannot be (fully) written.
bool write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records);

/// Observability sink that records every RequestEvent as a trace
/// record and writes the file at finish(). Attached by the simulator
/// when SystemConfig::record_trace_path is set, so any run — random,
/// synthetic or itself a replay — can be re-exported as a replayable
/// trace (the "record -> edit -> replay" loop of docs/WORKLOADS.md).
class TraceRecorder final : public obs::EventSink {
 public:
  explicit TraceRecorder(std::string path) : path_(std::move(path)) {}

  void on_request(const obs::RequestEvent& e) override {
    records_.push_back(TraceRecord{e.at, e.core, e.addr, e.rw, e.bytes,
                                   e.priority, 0});
  }
  void finish(Cycle end) override;

  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  std::string path_;
  std::vector<TraceRecord> records_;
  std::uint64_t rows_ = 0;
  bool ok_ = true;
};

/// Wiring for one core's replayer (mirrors GeneratorConfig).
struct ReplayConfig {
  CoreSpec spec;  ///< name/placement metadata; rates are ignored
  CoreId core_id = 0;
  NodeId node = 0;
  /// Destination when constructed with a bare AddressMapper (the
  /// single-controller compat path); the MemoryMap constructor routes
  /// per address instead.
  NodeId mem_node = 0;
  std::uint32_t bus_bytes = 4;
  /// SAGM: split requests into subpackets of this many beats (0 = off).
  std::uint32_t split_beats = 0;
  /// Invoked for every replayed request with the parent packet (before
  /// splitting) and the number of subpackets it became.
  std::function<void(const noc::Packet&, std::uint32_t)> on_request;
};

/// Traffic source that re-emits a core's slice of a recorded trace at
/// the recorded cycles. Deterministic (no RNG) and skip-aware:
/// next_event() reports the next record's cycle, so the scheduler can
/// jump idle gaps without ever skipping an arrival. Replay is
/// open-loop — the trace says when requests arrive; backpressure shows
/// up as source-queue latency exactly as it would for an open-loop
/// generator core.
class TraceReplayer final : public TrafficSource {
 public:
  /// `records` is this core's slice, sorted by cycle (the trace loader
  /// guarantees it). Each record is validated against the memory map:
  /// a request crossing a bank-interleave or channel-granule boundary
  /// is reported (with its source line) rather than silently truncated.
  /// The map picks the destination controller per record address.
  TraceReplayer(const ReplayConfig& cfg, std::vector<TraceRecord> records,
                const sdram::MemoryMap& map, PacketId& id_source,
                const std::string& trace_path);

  /// Single-controller compat: wraps `mapper` in a one-channel map
  /// targeting cfg.mem_node.
  TraceReplayer(const ReplayConfig& cfg, std::vector<TraceRecord> records,
                const sdram::AddressMapper& mapper, PacketId& id_source,
                const std::string& trace_path);

  void tick(Cycle now, noc::Network& net) override;
  [[nodiscard]] Cycle next_event(Cycle now) const override;

  void on_parent_completed() override {
    ANNOC_ASSERT(outstanding_ > 0);
    --outstanding_;
  }
  void set_emitting(bool emitting) override { emitting_ = emitting; }

  [[nodiscard]] const GeneratorStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] CoreId core_id() const override { return cfg_.core_id; }
  [[nodiscard]] const CoreSpec& spec() const override { return cfg_.spec; }
  [[nodiscard]] std::size_t backlog() const override {
    return backlog_.size();
  }
  /// Records not yet emitted (0 once the trace is fully replayed).
  [[nodiscard]] std::size_t remaining() const {
    return records_.size() - pos_;
  }

 private:
  void emit_record(const TraceRecord& rec, Cycle now);

  ReplayConfig cfg_;
  sdram::MemoryMap map_;
  PacketId& id_source_;
  std::vector<TraceRecord> records_;
  std::size_t pos_ = 0;
  bool emitting_ = true;
  std::uint32_t outstanding_ = 0;
  Cycle link_free_at_ = 0;
  std::deque<noc::Packet> backlog_;
  GeneratorStats stats_;
};

/// Split `records` into per-core slices (index = CoreId), preserving
/// order. Records naming a core >= num_cores throw ParseError tagged
/// with `origin` and the record's line.
[[nodiscard]] std::vector<std::vector<TraceRecord>> slice_trace_by_core(
    std::vector<TraceRecord> records, std::size_t num_cores,
    const std::string& origin);

}  // namespace annoc::traffic
