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
//     TraceEvent / track / Metrics shapes for render_chrome_trace() and
//     render_metrics_json(). This is the only way a trace.json is made, and
//     the replayed metrics are byte-identical to the live registry's for
//     the same run. finish_run() is that export for a tool's whole run.
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
#include "obs/stream_writer.h"

namespace ftdl::obs::stream {

struct LoadedChunk {
  ChunkHeader header;
  std::uint64_t file_offset = 0;  ///< of the chunk header
};

/// A parsed log file. `records` is in replay order: sorted by Record::seq,
/// not in file order (each chunk holds one publishing thread's records).
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

/// Replayed view of a log: tracks, the global-order event list and the
/// final counter/gauge state. Produced by replaying records in sequence
/// order; feeding `tracks`/`events` to render_chrome_trace() gives the
/// run's trace.json.
struct ReconstructedLog {
  std::vector<TrackNames> tracks;
  std::vector<TraceEvent> events;
  Metrics metrics;
};

ReconstructedLog reconstruct(const LoadedLog& log);

/// What finish_run() wrote.
struct RunFiles {
  StreamStats log;               ///< the finished log's writer stats
  std::size_t trace_events = 0;  ///< B/E events in the trace
};

/// Ends a run recorded to `log_path` (set_enabled(true, log_path)) and
/// exports it: writes the live metrics to `metrics_path` while the log is
/// still attached (detaching adds obs/stream_* counters the log never
/// sees, so this keeps them equal to the log-derived metrics), detaches
/// and finishes the log, then renders `trace_path` from it. The render
/// holds the whole log in memory (about 2.5x its file size at peak).
RunFiles finish_run(const std::string& log_path, const std::string& trace_path,
                    const std::string& metrics_path);

/// True when the three finish_run() paths name three different files
/// (compared after resolving them against the working directory). A log
/// sharing the trace's path would be overwritten by the trace it renders.
bool run_paths_distinct(const std::string& log_path,
                        const std::string& trace_path,
                        const std::string& metrics_path);

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
