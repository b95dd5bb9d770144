// Offline loader / query library for ftdl-stream-v1 event logs.
//
// The reading half of the streaming observability backend (writer in
// stream_writer.h, byte layout in stream_format.h, spec in
// docs/obs-stream-format.md). Three layers:
//
//   * load_stream()  — parse the file into records + string table,
//     validating magic, version, chunk framing and CRCs. A log cut
//     mid-chunk (crashed or SIGKILLed producer) still yields every
//     complete chunk, with `truncated` set and the exact byte offset of
//     the incomplete tail; a CRC mismatch rejects only that chunk.
//   * reconstruct()  — replay the records in global sequence order into
//     the same TraceEvent / track / Metrics shapes the in-memory registry
//     holds, so render_chrome_trace()/render_metrics_json() produce
//     byte-identical exports to a live registry that saw the same run.
//   * check_log() / reconstruct_transactions() — the query/checker layer
//     `ftdl-obsq` fronts: structural invariants (contiguous chunk and
//     record sequences, balanced + monotonic spans per track, resolvable
//     string ids) and request-transaction reconstruction (enqueue ->
//     batch -> execute chains recorded by ftdl::serve).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/stream_format.h"

namespace ftdl::obs::stream {

struct LoadedChunk {
  ChunkHeader header;
  std::uint64_t file_offset = 0;  ///< of the chunk header
};

/// A parsed log file. `records` is in file order (sort key for replay is
/// Record::seq); reconstruct() below does the sorting.
struct LoadedLog {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<Record> records;
  std::map<std::uint32_t, std::string> strings;
  std::vector<LoadedChunk> chunks;  ///< complete, CRC-valid chunks
  bool truncated = false;
  std::uint64_t truncation_offset = 0;  ///< first byte of the cut tail
  std::vector<std::string> errors;      ///< CRC/framing damage (per chunk)
};

/// Parses `path`. Throws ftdl::Error only when the file cannot be read at
/// all or its header is not an ftdl-stream-v1 header; damage past the
/// header is reported through `truncated` / `errors` instead so partial
/// logs stay loadable.
LoadedLog load_stream(const std::string& path);

/// Registry-shaped view of a log: tracks, the global-order event list and
/// the final counter/gauge state. Produced by replaying records in
/// sequence order; feeding `tracks`/`events` to render_chrome_trace()
/// yields byte-identical output to the live registry's export.
struct ReconstructedLog {
  std::vector<TrackNames> tracks;
  std::vector<TraceEvent> events;
  Metrics metrics;
};

ReconstructedLog reconstruct(const LoadedLog& log);

/// One structural-invariant violation found by check_log().
struct CheckProblem {
  std::string kind;    ///< "truncated", "missing_record_seq", ...
  std::string detail;  ///< human-readable description
  std::uint64_t seq = 0;  ///< offending sequence number, when applicable
};

struct CheckReport {
  std::vector<CheckProblem> problems;
  std::uint64_t records_checked = 0;
  bool ok() const { return problems.empty(); }
  std::string to_string() const;
};

/// Verifies the invariants a complete, well-formed log satisfies:
/// contiguous chunk and record sequences (no dropped events), balanced and
/// monotonically-timestamped spans per track, resolvable string ids, and
/// SpanArg adjacency. Truncation and CRC damage surface here too, with
/// the first unrecovered sequence number.
CheckReport check_log(const LoadedLog& log);

/// One request's reconstructed lifecycle through ftdl::serve, stitched
/// from the `enqueue` span (client track) and the `execute` span (worker
/// track), matched on the "request" arg.
struct Transaction {
  std::uint64_t request = 0;
  bool has_enqueue = false;
  bool has_execute = false;
  double enqueue_ts = 0.0, enqueue_dur = 0.0;
  double execute_ts = 0.0, execute_dur = 0.0;
  std::string reject_reason;  ///< non-empty when admission rejected it
};

std::vector<Transaction> reconstruct_transactions(const ReconstructedLog& r);

/// Canonical hex rendering (xxd-style: offset, 16 bytes, ASCII gutter) of
/// raw log bytes. Shared by `ftdl-obsq --hexdump` and the spec's worked
/// example, which tests/test_obs_stream.cpp regenerates byte-for-byte.
std::string format_hex_dump(const std::string& bytes);

}  // namespace ftdl::obs::stream
